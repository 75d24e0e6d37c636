#include "semantics/enumerator.hpp"

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "lang/lower.hpp"
#include "workload/families.hpp"

namespace parcm {
namespace {

using Finals = std::set<std::vector<std::int64_t>>;

TEST(Enumerator, SequentialProgramSingleFinalState) {
  Graph g = lang::compile_or_throw("x := 2; y := x + 3;");
  auto r = enumerate_executions(g, {"x", "y"});
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.finals, (Finals{{2, 5}}));
}

TEST(Enumerator, NondeterministicBranchBothOutcomes) {
  Graph g = lang::compile_or_throw("if (*) { x := 1; } else { x := 2; }");
  auto r = enumerate_executions(g, {"x"});
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.finals, (Finals{{1}, {2}}));
}

TEST(Enumerator, ChooseThreeWay) {
  Graph g = lang::compile_or_throw(
      "choose { x := 1; } or { x := 2; } or { x := 3; }");
  auto r = enumerate_executions(g, {"x"});
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.finals.size(), 3u);
}

TEST(Enumerator, RaceOutcomes) {
  Graph g = lang::compile_or_throw("par { x := 1; } and { x := 2; }");
  auto r = enumerate_executions(g, {"x"});
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.finals, (Finals{{1}, {2}}));
}

TEST(Enumerator, ClassicInterleavingIncrements) {
  // Atomic increments: both orders give 2 (each reads the latest value).
  Graph g = lang::compile_or_throw(
      "par { x := x + 1; } and { x := x + 1; }");
  auto r = enumerate_executions(g, {"x"});
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.finals, (Finals{{2}}));
}

TEST(Enumerator, SplitSemanticsExposesLostUpdate) {
  // Remark 2.1 semantics: both threads may read 0 before either writes —
  // the classic lost update x = 1 appears.
  Graph g = lang::compile_or_throw(
      "par { x := x + 1; } and { x := x + 1; }");
  EnumerationOptions opts;
  opts.atomic_assignments = false;
  auto r = enumerate_executions(g, {"x"}, opts);
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.finals, (Finals{{1}, {2}}));
}

TEST(Enumerator, SplitSupersetOfAtomic) {
  const char* programs[] = {
      "par { x := x + 1; } and { x := x * 2; }",
      "par { y := x; x := 1; } and { x := y + 2; }",
      "x := 3; par { x := x + 1; y := x; } and { x := 0; }",
  };
  for (const char* src : programs) {
    Graph g = lang::compile_or_throw(src);
    auto atomic = enumerate_executions(g, {"x", "y"});
    EnumerationOptions opts;
    opts.atomic_assignments = false;
    auto split = enumerate_executions(g, {"x", "y"}, opts);
    ASSERT_TRUE(atomic.exhausted && split.exhausted) << src;
    for (const auto& s : atomic.finals) {
      EXPECT_TRUE(split.finals.contains(s)) << src;
    }
  }
}

TEST(Enumerator, InitialValues) {
  Graph g = lang::compile_or_throw("y := x + 1;");
  EnumerationOptions opts;
  opts.initial = {{"x", 41}};
  auto r = enumerate_executions(g, {"y"}, opts);
  EXPECT_EQ(r.finals, (Finals{{42}}));
}

TEST(Enumerator, ObservedVariableMissingReadsZero) {
  Graph g = lang::compile_or_throw("x := 1;");
  auto r = enumerate_executions(g, {"x", "ghost"});
  EXPECT_EQ(r.finals, (Finals{{1, 0}}));
}

TEST(Enumerator, LoopWithStableStateTerminates) {
  // The nondeterministic loop re-reaches the same (config, data) state:
  // memoization closes the exploration.
  Graph g = lang::compile_or_throw("while (*) { x := 5; } y := 1;");
  auto r = enumerate_executions(g, {"x", "y"});
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.finals, (Finals{{0, 1}, {5, 1}}));
}

TEST(Enumerator, StateLimitReported) {
  // Divergent counter: the state space is unbounded; the limit must trip.
  Graph g = lang::compile_or_throw("while (*) { x := x + 1; }");
  EnumerationOptions opts;
  opts.max_states = 500;
  auto r = enumerate_executions(g, {"x"}, opts);
  EXPECT_FALSE(r.exhausted);
}

TEST(Enumerator, DeterministicConditionsRespectData) {
  Graph g = lang::compile_or_throw(R"(
    par { x := 1; } and { y := 2; }
    if (x < y) { z := 10; } else { z := 20; }
  )");
  auto r = enumerate_executions(g, {"z"});
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.finals, (Finals{{10}}));
}

TEST(Enumerator, InterleavingSensitiveReads) {
  Graph g = lang::compile_or_throw(R"(
    a := 2; b := 3;
    par { a := a + b; } and { y := a + b; }
  )");
  auto r = enumerate_executions(g, {"a", "y"});
  ASSERT_TRUE(r.exhausted);
  // y reads a either before (5) or after (8) the recursive update.
  EXPECT_EQ(r.finals, (Finals{{5, 5}, {5, 8}}));
}

TEST(Enumerator, CountsStatesExplored) {
  Graph g = lang::compile_or_throw("par { x := 1; } and { y := 2; }");
  auto r = enumerate_executions(g, {"x"});
  EXPECT_GT(r.states_explored, 4u);
}

// The bench_enumeration families with pinned state counts. Programs without
// barriers explore exactly these; programs with barriers may explore fewer,
// since a barrier release is folded into the step of the last arrival. The
// validate workload's state budget is fixed, so these counts decide which
// programs it decides exactly.
Graph two_component_barrier_program(std::size_t len, bool with_barrier) {
  GraphBuilder b;
  auto component = [&](const char* prefix) {
    return [&b, prefix, len, with_barrier] {
      for (std::size_t i = 0; i < len; ++i) {
        b.assign(std::string(prefix) + std::to_string(i), GraphBuilder::c(1));
      }
      if (with_barrier) b.barrier();
      for (std::size_t i = 0; i < len; ++i) {
        b.assign(std::string(prefix) + "q" + std::to_string(i),
                 GraphBuilder::c(2));
      }
    };
  };
  b.par({component("a"), component("b")});
  return b.finish();
}

TEST(Enumerator, StateCountsOfBenchFamilies) {
  struct Row {
    const char* family;
    std::size_t a, b;  // components x len, or len x with-barrier
    std::size_t states;
  };
  const Row rows[] = {
      {"par_wide", 2, 2, 25},  {"par_wide", 2, 4, 45},
      {"par_wide", 2, 6, 73},  {"par_wide", 3, 2, 73},
      {"par_wide", 3, 3, 134}, {"par_wide", 4, 2, 265},
      {"split", 2, 1, 30},     {"split", 2, 2, 50},
      {"split", 2, 3, 78},     {"split", 2, 4, 114},
      {"split", 2, 5, 158},    {"por", 2, 2, 20},
      {"por", 2, 4, 36},       {"por", 2, 6, 60},
      {"por", 3, 2, 39},       {"por", 3, 3, 76},
      {"por", 4, 2, 94},       {"barrier", 2, 0, 40},
      {"barrier", 2, 1, 29},   {"barrier", 3, 0, 68},
      {"barrier", 3, 1, 45},   {"barrier", 4, 0, 104},
      {"barrier", 4, 1, 65},
  };
  for (const Row& row : rows) {
    const std::string family = row.family;
    EnumerationOptions opts;
    opts.atomic_assignments = family != "split";
    opts.partial_order_reduction = family == "por";
    const bool barrier = family == "barrier" && row.b != 0;
    Graph g = family == "barrier"
                  ? two_component_barrier_program(row.a, barrier)
                  : families::par_wide(row.a, row.b, 2);
    auto r = enumerate_executions(g, {family == "barrier" ? "a0" : "w"}, opts);
    ASSERT_TRUE(r.exhausted) << family << " " << row.a << "x" << row.b;
    if (barrier) {
      EXPECT_LE(r.states_explored, row.states) << family << " " << row.a;
    } else {
      EXPECT_EQ(r.states_explored, row.states)
          << family << " " << row.a << "x" << row.b;
    }
  }
}

}  // namespace
}  // namespace parcm
