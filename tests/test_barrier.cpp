// The explicit-synchronization extension (paper conclusions): `barrier;`
// synchronizes all components of the innermost parallel statement.
// Terminated components are excused. Analyses treat barriers as skips
// (conservative — fewer interleavings than the analyses assume, so all
// guarantees carry over); the cost model is phase-aware: components pay the
// per-phase maximum between barriers.
#include <gtest/gtest.h>

#include "ir/transform_utils.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "motion/pcm.hpp"
#include "semantics/cost.hpp"
#include "semantics/enumerator.hpp"
#include "semantics/equivalence.hpp"
#include "semantics/product.hpp"
#include "vm/bytecode.hpp"
#include "vm/executor.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

using Finals = std::set<std::vector<std::int64_t>>;

TEST(Barrier, ParsesAndValidates) {
  Graph g = lang::compile_or_throw(R"(
    par { x := 1; barrier; y := 2; } and { barrier; z := 3; }
  )");
  validate_or_throw(g);
  std::size_t barriers = 0;
  for (NodeId n : g.all_nodes()) {
    barriers += g.node(n).kind == NodeKind::kBarrier;
  }
  EXPECT_EQ(barriers, 2u);
}

TEST(Barrier, RejectedOutsideComponents) {
  DiagnosticSink sink;
  EXPECT_THROW(lang::compile_or_throw("barrier;"), InternalError);
}

TEST(Barrier, OrdersWritesAcrossComponents) {
  // Without the barrier, y := x can read 0 or 1; the barrier forces the
  // write before the read.
  Graph without = lang::compile_or_throw(R"(
    par { x := 1; } and { y := x; }
  )");
  auto rw = enumerate_executions(without, {"y"});
  ASSERT_TRUE(rw.exhausted);
  EXPECT_EQ(rw.finals, (Finals{{0}, {1}}));

  Graph with = lang::compile_or_throw(R"(
    par { x := 1; barrier; } and { barrier; y := x; }
  )");
  auto rb = enumerate_executions(with, {"y"});
  ASSERT_TRUE(rb.exhausted);
  EXPECT_EQ(rb.finals, (Finals{{1}}));
}

TEST(Barrier, TwoPhaseExchange) {
  // Classic two-phase pattern: both produce, synchronize, both consume the
  // sibling's value — deterministic result.
  Graph g = lang::compile_or_throw(R"(
    par { a := 1; barrier; u := b + 0; }
    and { b := 2; barrier; v := a + 0; }
  )");
  auto r = enumerate_executions(g, {"u", "v"});
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.finals, (Finals{{2, 1}}));
}

TEST(Barrier, TerminatedComponentIsExcused) {
  // The second component never reaches a barrier; once it terminates the
  // first component's barrier releases.
  Graph g = lang::compile_or_throw(R"(
    par { barrier; x := 1; } and { y := 2; }
  )");
  auto r = enumerate_executions(g, {"x", "y"});
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.finals, (Finals{{1, 2}}));
}

TEST(Barrier, ThreeComponentsReleaseTogether) {
  Graph g = lang::compile_or_throw(R"(
    par { a := 1; barrier; u := b + c; }
    and { b := 2; barrier; skip; }
    and { c := 3; barrier; skip; }
  )");
  auto r = enumerate_executions(g, {"u"});
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.finals, (Finals{{5}}));
}

TEST(Barrier, NestedStatementsSynchronizeIndependently) {
  Graph g = lang::compile_or_throw(R"(
    par {
      par { a := 1; barrier; u := b + 0; } and { b := 2; barrier; skip; }
    } and {
      c := 3;
    }
  )");
  auto r = enumerate_executions(g, {"u", "c"});
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.finals, (Finals{{2, 3}}));
}

TEST(Barrier, BarriersInLoops) {
  // A barrier inside a loop synchronizes each iteration pairwise; the
  // nondeterministic trip counts may differ, and the early-exiting
  // component is excused afterwards.
  Graph g = lang::compile_or_throw(R"(
    i := 0;
    par { while (i < 2) { i := i + 1; barrier; } }
    and { barrier; x := i; barrier; y := i; }
  )");
  auto r = enumerate_executions(g, {"x", "y"});
  ASSERT_TRUE(r.exhausted);
  // First barrier pairs with iteration 1; x reads i = 1, or 2 when the loop
  // races its next increment in before the read. The second barrier pairs
  // with iteration 2, so y always reads 2.
  EXPECT_EQ(r.finals, (Finals{{1, 2}, {2, 2}}));
}

TEST(Barrier, CostModelPhases) {
  // comp1 phases: 3 ops | 1 op; comp2 phases: 1 op | 3 ops.
  // Unsynchronized max would be max(4,4)=4; phase-aware: max(3,1)+max(1,3)=6.
  Graph g = lang::compile_or_throw(R"(
    par {
      p := a + b; q := a + b; r := a + b;
      barrier;
      s := a + b;
    } and {
      t := a + b;
      barrier;
      u := a + b; v := a + b; w := a + b;
    }
  )");
  FixedOracle o(0);
  CostResult c = execution_time(g, o);
  ASSERT_TRUE(c.ok);
  EXPECT_EQ(c.time, 6u);
  EXPECT_EQ(c.computations, 8u);
}

TEST(Barrier, CostModelUnbalancedPhaseCounts) {
  Graph g = lang::compile_or_throw(R"(
    par { x := a + b; } and { y := a + b; barrier; z := a + b; }
  )");
  FixedOracle o(0);
  CostResult c = execution_time(g, o);
  ASSERT_TRUE(c.ok);
  // Phases: comp1 {1}, comp2 {1, 1}: max(1,1) + max(0,1) = 2.
  EXPECT_EQ(c.time, 2u);
}

TEST(Barrier, ScheduleReplayWithReleases) {
  // A seed names one schedule, barrier releases included: rerunning it
  // replays the execution, and every schedule sees b's pre-barrier write.
  Graph g = lang::compile_or_throw(R"(
    par { a := 1; barrier; u := b + 0; } and { b := 2; barrier; skip; }
  )");
  vm::LowerOptions atomic;
  atomic.split_assignments = false;
  vm::VmProgram p = vm::lower_to_bytecode(g, atomic);
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    vm::ExecResult first = vm::run_seeded(p, seed);
    ASSERT_TRUE(first.ok);
    vm::ExecResult replayed = vm::run_seeded(p, seed);
    ASSERT_TRUE(replayed.ok);
    EXPECT_EQ(replayed.store, first.store);
    EXPECT_EQ(replayed.instrs, first.instrs);
    EXPECT_EQ(first.store[g.find_var("u")->index()], 2);
  }
}

TEST(Barrier, ProductConstructionRefuses) {
  Graph g = lang::compile_or_throw(
      "par { barrier; } and { barrier; }");
  EXPECT_THROW(build_product(g), InternalError);
}

TEST(Barrier, PcmTreatsBarrierConservatively) {
  // The barrier would allow hoisting y := a + b's operand reasoning across
  // the sync (a is stable after phase 1), but the analyses ignore barriers:
  // PCM stays sound, merely conservative.
  Graph g = lang::compile_or_throw(R"(
    par { a := 1; barrier; x := a + b; } and { barrier; y := a + b; }
    w := a + b;
  )");
  MotionResult r = parallel_code_motion(g);
  validate_or_throw(r.graph);
  EnumerationOptions eo;
  eo.atomic_assignments = false;
  auto v = check_sequential_consistency(g, r.graph, {}, eo);
  ASSERT_TRUE(v.exhausted);
  EXPECT_TRUE(v.sequentially_consistent);
}

TEST(Barrier, PorAgreesWithFullEnumeration) {
  Graph g = lang::compile_or_throw(R"(
    par { a := 1; barrier; u := b + 0; } and { b := 2; barrier; v := a + 0; }
  )");
  EnumerationOptions full;
  EnumerationOptions reduced;
  reduced.partial_order_reduction = true;
  auto a = enumerate_executions(g, {"u", "v"}, full);
  auto b = enumerate_executions(g, {"u", "v"}, reduced);
  ASSERT_TRUE(a.exhausted && b.exhausted);
  EXPECT_EQ(a.finals, b.finals);
}

class BarrierProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BarrierProperty, RandomBarrierProgramsExecuteAndTransformSoundly) {
  Rng rng(GetParam());
  RandomProgramOptions opt;
  opt.target_stmts = 10;
  opt.max_par_depth = 2;
  opt.num_vars = 3;
  opt.while_permille = 20;
  opt.barrier_permille = 250;
  Graph g = random_program(rng, opt);
  validate_or_throw(g);

  MotionResult r = parallel_code_motion(g);
  validate_or_throw(r.graph);
  EnumerationOptions eo;
  eo.atomic_assignments = false;
  eo.max_states = 1u << 19;
  auto v = check_sequential_consistency(g, r.graph, {}, eo);
  if (!v.exhausted) GTEST_SKIP();
  EXPECT_TRUE(v.sequentially_consistent) << GetParam();

  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto pair = paired_execution_times(g, r.graph, seed * 5 + 1);
    if (!pair.has_value()) continue;
    EXPECT_LE(pair->second.time, pair->first.time) << GetParam();
  }
}

TEST_P(BarrierProperty, PorPreservesFinalsWithBarriers) {
  Rng rng(GetParam() + 500);
  RandomProgramOptions opt;
  opt.target_stmts = 8;
  opt.max_par_depth = 1;
  opt.num_vars = 3;
  opt.while_permille = 20;
  opt.barrier_permille = 250;
  Graph g = random_program(rng, opt);
  std::vector<std::string> observed = all_var_names(g);
  EnumerationOptions full;
  full.max_states = 1u << 19;
  EnumerationOptions reduced = full;
  reduced.partial_order_reduction = true;
  auto a = enumerate_executions(g, observed, full);
  auto b = enumerate_executions(g, observed, reduced);
  if (!a.exhausted || !b.exhausted) GTEST_SKIP();
  EXPECT_EQ(a.finals, b.finals) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BarrierProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace parcm
