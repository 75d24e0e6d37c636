// Cross-cutting coverage: printers/validation for the barrier extension,
// transformation interplay on synchronized programs, and assorted edge
// cases that do not fit the per-module suites.
#include <gtest/gtest.h>

#include "parcm.hpp"
#include "vm/bytecode.hpp"
#include "vm/executor.hpp"

namespace parcm {
namespace {

TEST(Misc, BarrierPrinting) {
  Graph g = lang::compile_or_throw("par { barrier @b1; } and { barrier; }");
  NodeId b = node_of_label(g, "b1");
  EXPECT_EQ(statement_to_string(g, b), "barrier");
  EXPECT_NE(to_text(g).find("barrier"), std::string::npos);
  EXPECT_NE(to_dot(g).find("barrier"), std::string::npos);
}

TEST(Misc, BarrierKindName) {
  EXPECT_STREQ(node_kind_name(NodeKind::kBarrier), "barrier");
}

TEST(Misc, ValidateRejectsMultiSuccessorBarrier) {
  Graph g = lang::compile_or_throw("par { barrier; } and { skip; }");
  NodeId b = find_node(g, [](const Graph& gr, NodeId n) {
    return gr.node(n).kind == NodeKind::kBarrier;
  });
  ASSERT_TRUE(b.valid());
  // Add a second out-edge by hand.
  g.add_edge(b, g.par_stmt(ParStmtId(0)).end);
  DiagnosticSink sink;
  EXPECT_FALSE(validate(g, sink));
  EXPECT_NE(sink.to_string().find("barrier"), std::string::npos);
}

TEST(Misc, SplitJoinEdgesKeepsBarriers) {
  Graph g = lang::compile_or_throw(R"(
    par { if (*) { x := 1; } else { y := 2; } barrier; z := 3; }
    and { barrier; }
  )");
  split_join_edges(g);
  validate_or_throw(g);
}

TEST(Misc, DceRespectsBarrierPrograms) {
  // x := 1 is overwritten before any read even across the barrier.
  Graph g = lang::compile_or_throw(R"(
    par { x := 1; barrier; x := 2; } and { barrier; }
    y := x;
  )");
  DceResult r = eliminate_dead_assignments(g);
  validate_or_throw(r.graph);
  ASSERT_EQ(r.eliminated.size(), 1u);
  auto a = enumerate_executions(g, {"y"});
  auto b = enumerate_executions(r.graph, {"y"});
  EXPECT_EQ(a.finals, b.finals);
}

TEST(Misc, ConstPropAcrossBarrier) {
  // k is uncontested and constant; the barrier does not block propagation
  // (it is data-neutral).
  Graph g = lang::compile_or_throw(R"(
    k := 4;
    par { a := k + 1; barrier; b := k + 2; } and { barrier; }
  )");
  ConstPropResult r = propagate_constants(g);
  bool a5 = false, b6 = false;
  for (NodeId n : r.graph.all_nodes()) {
    a5 |= statement_to_string(r.graph, n) == "a := 5";
    b6 |= statement_to_string(r.graph, n) == "b := 6";
  }
  EXPECT_TRUE(a5);
  EXPECT_TRUE(b6);
}

TEST(Misc, PipelineOnBarrierProgram) {
  Graph g = lang::compile_or_throw(R"(
    a := 1; b := 2;
    par { x := a + b; barrier; y := a + b; } and { barrier; z := a + b; }
  )");
  PipelineResult r = default_pipeline().run(g);
  validate_or_throw(r.graph);
  EnumerationOptions eo;
  eo.atomic_assignments = false;
  auto v = check_sequential_consistency(g, r.graph, {}, eo);
  ASSERT_TRUE(v.exhausted);
  EXPECT_TRUE(v.sequentially_consistent);
}

TEST(Misc, DownSafetyEndsAtBarrier) {
  Graph g = lang::compile_or_throw(R"(
    par { barrier; x := a + b; } and { barrier; y := a + b; }
  )");
  TermTable terms(g);
  LocalPredicates preds(g, terms);
  SafetyInfo s = compute_safety(g, preds, SafetyVariant::kRefined);
  TermId ab = terms.find(g, "a + b");
  for (NodeId n : g.all_nodes()) {
    if (g.node(n).kind == NodeKind::kBarrier) {
      EXPECT_FALSE(s.dnsafe[n.index()].test(ab.index()));
    }
  }
  // Consequently no hoist above the barriers or the statement.
  MotionResult r = parallel_code_motion(g);
  for (const TermMotion& tm : r.terms) {
    for (NodeId ins : tm.insert_nodes) {
      EXPECT_NE(r.graph.node(ins).region, r.graph.root_region());
    }
  }
}

TEST(Misc, UpSafetyCrossesBarrierWithinComponent) {
  // Availability is a forward property; the barrier does not kill it.
  Graph g = lang::compile_or_throw(R"(
    par { x := a + b; barrier; y := a + b; } and { barrier; }
  )");
  TermTable terms(g);
  LocalPredicates preds(g, terms);
  SafetyInfo s = compute_safety(g, preds, SafetyVariant::kRefined);
  TermId ab = terms.find(g, "a + b");
  NodeId y = node_of_statement(g, "y := a + b");
  EXPECT_TRUE(s.upsafe[y.index()].test(ab.index()));
}

TEST(Misc, UmbrellaHeaderCompilesAndWorks) {
  Graph g = lang::compile_or_throw("x := a + b; y := a + b;");
  MotionResult r = parallel_code_motion(g);
  EXPECT_EQ(r.num_replacements(), 2u);
}

TEST(Misc, FigureSourceForNewIds) {
  for (const char* id : {"3b", "3d", "4b", "4c", "4d"}) {
    Graph g = lang::compile_or_throw(figures::figure_source(id));
    validate_or_throw(g);
  }
}

TEST(Misc, CostWalkerHandlesBarrierBeforeParEnd) {
  Graph g = lang::compile_or_throw(
      "par { x := a + b; barrier; } and { barrier; }");
  FixedOracle o(0);
  CostResult r = execution_time(g, o);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.time, 1u);
}

TEST(Misc, RandomBarrierProgramsValidate) {
  RandomProgramOptions opt;
  opt.max_par_depth = 2;
  opt.barrier_permille = 300;
  opt.target_stmts = 15;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed);
    Graph g = random_program(rng, opt);
    DiagnosticSink sink;
    EXPECT_TRUE(validate(g, sink)) << seed << "\n" << sink.to_string();
  }
}

TEST(Misc, InterpreterBarrierRandomSchedules) {
  Graph g = lang::compile_or_throw(R"(
    par { a := 1; barrier; u := b + 0; } and { b := 2; barrier; v := a + 0; }
  )");
  vm::LowerOptions atomic;
  atomic.split_assignments = false;
  vm::VmProgram p = vm::lower_to_bytecode(g, atomic);
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    vm::ExecResult r = vm::run_seeded(p, seed);
    ASSERT_TRUE(r.ok) << seed;
    EXPECT_EQ(r.store[g.find_var("u")->index()], 2);
    EXPECT_EQ(r.store[g.find_var("v")->index()], 1);
  }
}

TEST(Misc, SinkingRefusesAcrossBarrier) {
  Graph g = lang::compile_or_throw(R"(
    par { u := p + q; barrier; if (*) { v := u; } else { u := 0; } }
    and { barrier; }
  )");
  SinkingResult r = sink_partially_dead_assignments(g);
  // The barrier blocks the delay region right away; u := p + q stays.
  bool found = false;
  for (NodeId n : r.graph.all_nodes()) {
    found |= statement_to_string(r.graph, n) == "u := p + q";
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace parcm
