// The machine of record: vm::MachineState and vm::step, seeded runs over
// them, and the store arithmetic they share with the explorers.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "lang/lower.hpp"
#include "semantics/state.hpp"
#include "vm/bytecode.hpp"
#include "vm/executor.hpp"

namespace parcm {
namespace {

// One seeded VM run with atomic assignments: one step per graph node.
// Reads a variable of the final store by name.
struct SeededRun {
  SeededRun(const Graph& g, std::uint64_t seed,
            std::size_t max_steps = std::size_t{1} << 20)
      : g_(g) {
    vm::LowerOptions atomic;
    atomic.split_assignments = false;
    vm::ExecLimits limits;
    limits.max_steps = max_steps;
    result = vm::run_seeded(vm::lower_to_bytecode(g, atomic), seed, limits);
  }
  std::int64_t get(const char* name) const {
    return result.store[g_.find_var(name)->index()];
  }
  const Graph& g_;
  vm::ExecResult result;
};

TEST(State, EvalOperandsAndRhs) {
  Graph g;
  VarId a = g.intern_var("a");
  VarState s(g.num_vars());
  s.set(a, 7);
  EXPECT_EQ(eval_operand(s, Operand::var(a)), 7);
  EXPECT_EQ(eval_operand(s, Operand::constant(-2)), -2);
  EXPECT_EQ(eval_rhs(s, Rhs(Term{BinOp::kAdd, Operand::var(a),
                                 Operand::constant(3)})),
            10);
  EXPECT_EQ(eval_rhs(s, Rhs(Term{BinOp::kMul, Operand::var(a),
                                 Operand::var(a)})),
            49);
  EXPECT_EQ(eval_rhs(s, Rhs(Term{BinOp::kDiv, Operand::var(a),
                                 Operand::constant(0)})),
            0);
  EXPECT_EQ(eval_rhs(s, Rhs(Term{BinOp::kLt, Operand::var(a),
                                 Operand::constant(9)})),
            1);
  EXPECT_EQ(eval_rhs(s, Rhs(Operand::var(a))), 7);
}

TEST(State, ComparisonOperators) {
  VarState s(0);
  auto ev = [&](BinOp op, std::int64_t a, std::int64_t b) {
    return eval_rhs(s, Rhs(Term{op, Operand::constant(a),
                                Operand::constant(b)}));
  };
  EXPECT_EQ(ev(BinOp::kLe, 2, 2), 1);
  EXPECT_EQ(ev(BinOp::kGt, 2, 2), 0);
  EXPECT_EQ(ev(BinOp::kGe, 3, 2), 1);
  EXPECT_EQ(ev(BinOp::kEq, 3, 3), 1);
  EXPECT_EQ(ev(BinOp::kNe, 3, 3), 0);
  EXPECT_EQ(ev(BinOp::kSub, 2, 5), -3);
}

vm::VmProgram atomic_program(const Graph& g) {
  vm::LowerOptions atomic;
  atomic.split_assignments = false;
  return vm::lower_to_bytecode(g, atomic);
}

TEST(MachineState, InitialAndTerminated) {
  Graph g = lang::compile_or_throw("x := 1;");
  vm::VmProgram p = atomic_program(g);
  vm::MachineState s(p);
  EXPECT_TRUE(s.ready(g.root_region()));
  EXPECT_EQ(s.pc(g.root_region()), p.root_entry());
  EXPECT_FALSE(s.terminated());
  // s*, x := 1, e*: the third step halts the root.
  std::vector<RegionId> woken;
  for (int i = 0; i < 3; ++i) vm::step(p, s, g.root_region(), 0, &woken);
  EXPECT_TRUE(s.terminated());
  EXPECT_EQ(s.pc(g.root_region()), vm::kHaltPc);
  EXPECT_EQ(s.store()[g.find_var("x")->index()], 1);
  EXPECT_TRUE(woken.empty());
}

TEST(Interpreter, SequentialRun) {
  Graph g = lang::compile_or_throw("x := 2; y := x + 3; z := y * y;");
  SeededRun run(g, 1);
  ASSERT_TRUE(run.result.ok);
  EXPECT_EQ(run.get("x"), 2);
  EXPECT_EQ(run.get("y"), 5);
  EXPECT_EQ(run.get("z"), 25);
}

TEST(Interpreter, DeterministicConditionals) {
  Graph g = lang::compile_or_throw(R"(
    x := 5;
    if (x < 10) { y := 1; } else { y := 2; }
    if (x < 2) { z := 1; } else { z := 2; }
  )");
  SeededRun run(g, 1);
  ASSERT_TRUE(run.result.ok);
  EXPECT_EQ(run.get("y"), 1);
  EXPECT_EQ(run.get("z"), 2);
}

TEST(Interpreter, WhileCondTerminates) {
  Graph g = lang::compile_or_throw(R"(
    i := 0; s := 0;
    while (i < 5) { s := s + i; i := i + 1; }
  )");
  SeededRun run(g, 3);
  ASSERT_TRUE(run.result.ok);
  EXPECT_EQ(run.get("i"), 5);
  EXPECT_EQ(run.get("s"), 10);
}

TEST(Interpreter, ParallelJoinWaitsForAllComponents) {
  Graph g = lang::compile_or_throw(R"(
    par { x := 1; } and { y := 2; } and { z := 3; }
    w := 9;
  )");
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SeededRun run(g, seed);
    ASSERT_TRUE(run.result.ok);
    EXPECT_EQ(run.get("x"), 1);
    EXPECT_EQ(run.get("y"), 2);
    EXPECT_EQ(run.get("z"), 3);
    EXPECT_EQ(run.get("w"), 9);
  }
}

TEST(Interpreter, NestedParallel) {
  Graph g = lang::compile_or_throw(R"(
    par {
      par { a := 1; } and { b := 2; }
      c := a + b;
    } and {
      d := 4;
    }
  )");
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SeededRun run(g, seed);
    ASSERT_TRUE(run.result.ok);
    EXPECT_EQ(run.get("c"), 3);
    EXPECT_EQ(run.get("d"), 4);
  }
}

TEST(Interpreter, RaceProducesDifferentOutcomes) {
  Graph g = lang::compile_or_throw("par { x := 1; } and { x := 2; }");
  std::set<std::int64_t> outcomes;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    SeededRun run(g, seed);
    ASSERT_TRUE(run.result.ok);
    outcomes.insert(run.get("x"));
  }
  EXPECT_EQ(outcomes, (std::set<std::int64_t>{1, 2}));
}

TEST(Interpreter, StepBoundOnDivergentLoop) {
  Graph g = lang::compile_or_throw("while (1 < 2) { x := x + 1; }");
  EXPECT_FALSE(SeededRun(g, 1, 1000).result.ok);
}

TEST(Transitions, ParkedParentNotRunnableUntilChildrenDone) {
  Graph g = lang::compile_or_throw("par { x := 1; } and { y := 2; }");
  vm::VmProgram p = atomic_program(g);
  vm::MachineState s(p);
  std::vector<RegionId> woken;
  // s* -> ParBegin -> spawn.
  vm::step(p, s, g.root_region(), 0, &woken);
  ASSERT_EQ(g.node(p.code[s.pc(g.root_region())].src).kind,
            NodeKind::kParBegin);
  EXPECT_EQ(vm::step(p, s, g.root_region(), 0, &woken),
            vm::StepOutcome::kParked);
  const ParStmt& stmt = g.par_stmt(ParStmtId(0));
  EXPECT_EQ(p.code[s.pc(g.root_region())].src, stmt.end);
  EXPECT_FALSE(s.ready(g.root_region()));
  EXPECT_EQ(woken, (std::vector<RegionId>(stmt.components.begin(),
                                          stmt.components.end())));
  // Each component runs its entry skip and its assignment; the second
  // assignment to halt is the join that wakes the parent.
  for (RegionId comp : stmt.components) {
    ASSERT_TRUE(s.ready(comp));
    woken.clear();
    vm::step(p, s, comp, 0, &woken);
    EXPECT_EQ(vm::step(p, s, comp, 0, &woken), vm::StepOutcome::kHalted);
    EXPECT_FALSE(s.ready(comp));
    EXPECT_EQ(s.ready(g.root_region()), comp == stmt.components.back());
  }
  EXPECT_EQ(woken, std::vector<RegionId>{g.root_region()});
  EXPECT_EQ(p.code[s.pc(g.root_region())].src, stmt.end);
}

TEST(Transitions, InterleavingCountForTwoIndependentWrites) {
  Graph g = lang::compile_or_throw("par { x := 1; x := 2; } and { x := 3; }");
  // Reachable schedules of {A1 A2} || {B}: B before A1, between, after.
  std::set<std::int64_t> outcomes;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SeededRun run(g, seed);
    ASSERT_TRUE(run.result.ok);
    outcomes.insert(run.get("x"));
  }
  EXPECT_EQ(outcomes, (std::set<std::int64_t>{2, 3}));
}

TEST(MachineStateHash, DistinctStatesHashDifferently) {
  Graph g = lang::compile_or_throw("par { x := 1; } and { y := 2; }");
  vm::VmProgram p = atomic_program(g);
  vm::MachineState a(p);
  vm::MachineState b = a;
  EXPECT_EQ(vm::MachineStateHash{}(a), vm::MachineStateHash{}(b));
  b.var(VarId(0)) = 1;
  EXPECT_NE(vm::MachineStateHash{}(a), vm::MachineStateHash{}(b));
  std::vector<RegionId> woken;
  b = a;
  vm::step(p, b, g.root_region(), 0, &woken);
  EXPECT_NE(vm::MachineStateHash{}(a), vm::MachineStateHash{}(b));
}

// A seed is the VM's schedule record: rerunning it replays the execution.
TEST(Schedule, RecordAndReplayReproducesFinalState) {
  Graph g = lang::compile_or_throw(R"(
    a := 2; b := 3;
    par { a := a + b; x := a * 2; } and { y := a + b; }
    w := x + y;
  )");
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SeededRun first(g, seed);
    ASSERT_TRUE(first.result.ok);
    SeededRun replayed(g, seed);
    ASSERT_TRUE(replayed.result.ok) << seed;
    EXPECT_EQ(replayed.result.store, first.result.store) << seed;
    EXPECT_EQ(replayed.result.instrs, first.result.instrs) << seed;
  }
}

TEST(Schedule, DistinctSchedulesDistinguishRaceOutcomes) {
  Graph g = lang::compile_or_throw("par { x := 1; } and { x := 2; }");
  std::map<std::int64_t, std::uint64_t> witness;  // outcome -> seed
  for (std::uint64_t seed = 0; seed < 64 && witness.size() < 2; ++seed) {
    SeededRun run(g, seed);
    ASSERT_TRUE(run.result.ok);
    witness.emplace(run.get("x"), seed);
  }
  ASSERT_EQ(witness.size(), 2u);
  for (auto& [value, seed] : witness) {
    EXPECT_EQ(SeededRun(g, seed).get("x"), value);
  }
}

}  // namespace
}  // namespace parcm
