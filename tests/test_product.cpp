#include "semantics/product.hpp"

#include <gtest/gtest.h>

#include "analyses/downsafety.hpp"
#include "analyses/upsafety.hpp"
#include "dfa/packed.hpp"
#include "figures/figures.hpp"
#include "ir/printer.hpp"
#include "ir/transform_utils.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "workload/families.hpp"

namespace parcm {
namespace {

TEST(Product, StraightLineProgramIsIsomorphicCopy) {
  Graph g = lang::compile_or_throw("x := a + b; y := x; z := y * 2;");
  ProductProgram p = build_product(g);
  ASSERT_TRUE(p.exhausted);
  EXPECT_EQ(p.graph.num_par_stmts(), 0u);
  // One product node per original node (every node executes in exactly one
  // control configuration).
  EXPECT_EQ(p.graph.num_nodes(), g.num_nodes());
  validate_or_throw(p.graph);
}

TEST(Product, BranchingDuplicatesPerChosenSuccessor) {
  // A product node is (node executed, configuration reached): a 2-way
  // branch node occurs twice, once per chosen successor.
  Graph g = lang::compile_or_throw("if (*) { y := 1; } else { y := 2; }");
  ProductProgram p = build_product(g);
  ASSERT_TRUE(p.exhausted);
  validate_or_throw(p.graph);
  EXPECT_EQ(p.graph.num_nodes(), g.num_nodes() + 1);
}

TEST(Product, TwoByTwoInterleavingCount) {
  // {A1 A2} || {B1 B2}: lattice-path unfolding.
  Graph g = lang::compile_or_throw(
      "par { a1 := 1; a2 := 2; } and { b1 := 3; b2 := 4; }");
  ProductProgram p = build_product(g);
  ASSERT_TRUE(p.exhausted);
  validate_or_throw(p.graph);
  // Each original assignment occurs once per reachable opposite-thread
  // position: 3 positions for a 2-statement sibling (before/middle/after)…
  // count conservatively: the product is strictly larger than the original.
  EXPECT_GT(p.graph.num_nodes(), g.num_nodes());
}

TEST(Product, OriginMapsToOriginalNodes) {
  Graph g = lang::compile_or_throw("par { x := 1; } and { y := 2; } z := 3;");
  ProductProgram p = build_product(g);
  ASSERT_TRUE(p.exhausted);
  for (NodeId q : p.graph.all_nodes()) {
    NodeId orig = p.origin[q.index()];
    ASSERT_TRUE(orig.valid());
    if (p.graph.node(q).kind == NodeKind::kAssign) {
      EXPECT_EQ(p.graph.node(q).lhs, g.node(orig).lhs);
    }
  }
  EXPECT_EQ(p.origin[p.graph.start().index()], g.start());
  EXPECT_EQ(p.origin[p.graph.end().index()], g.end());
}

TEST(Product, StateLimitReported) {
  Graph g = lang::compile_or_throw(R"(
    par { while (*) { a := 1; b := 2; c := 3; } }
    and { while (*) { d := 4; e := 5; f := 6; } }
    and { while (*) { u := 7; v := 8; w := 9; } }
  )");
  ProductProgram p = build_product(g, 100);
  EXPECT_FALSE(p.exhausted);
}

TEST(Product, PmopRejectedOnTruncatedProduct) {
  Graph g = lang::compile_or_throw("par { x := 1; y := 2; } and { z := 3; }");
  ProductProgram p = build_product(g, 2);
  ASSERT_FALSE(p.exhausted);
  TermTable terms(g);
  LocalPredicates preds(g, terms);
  PackedProblem pp = make_upsafety_problem(g, preds, SafetyVariant::kNaive);
  EXPECT_THROW(solve_pmop_via_product(g, p, pp), InternalError);
}

// The key validation of Theorem 2.4 on the paper's own program: PMFP with
// the standard synchronization equals the path-based PMOP from the product.
TEST(Product, CoincidenceOnFig6) {
  Graph g = figures::fig6();
  ProductProgram prod = build_product(g);
  ASSERT_TRUE(prod.exhausted);
  TermTable terms(g);
  LocalPredicates preds(g, terms);
  InterleavingInfo itlv(g);

  PackedProblem us = make_upsafety_problem(g, preds, SafetyVariant::kNaive);
  PackedResult pmfp = solve_packed(g, us);
  PmopResult pmop = solve_pmop_via_product(g, prod, us);
  for (NodeId n : g.all_nodes()) {
    EXPECT_EQ(pmfp.entry[n.index()], pmop.entry[n.index()])
        << "node " << n.value() << " (" << statement_to_string(g, n) << ")";
  }
}

TEST(Product, Fig6PerInterleavingSafetyClaims) {
  // The paper's Fig. 6 claims, checked against the product-based PMOP:
  // the statement's exit is up-safe and its entry down-safe per
  // interleaving, while the internal second computations are not.
  Graph g = figures::fig6();
  ProductProgram prod = build_product(g);
  ASSERT_TRUE(prod.exhausted);
  TermTable terms(g);
  LocalPredicates preds(g, terms);
  TermId ab = terms.find(g, "a + b");

  PmopResult up = solve_pmop_via_product(
      g, prod, make_upsafety_problem(g, preds, SafetyVariant::kNaive));
  // w := a+b after the join is available on every interleaving.
  NodeId w = node_of_statement(g, "w := a + b");
  EXPECT_TRUE(up.entry[w.index()].test(ab.index()));
  // The second computation inside component 1 is not.
  NodeId u = node_of_statement(g, "u := a + b");
  EXPECT_FALSE(up.entry[u.index()].test(ab.index()));

  PmopResult down = solve_pmop_via_product(
      g, prod, make_downsafety_problem(g, preds, SafetyVariant::kNaive));
  // x := a+b before the statement: down-safe on every interleaving (each
  // component computes before it modifies).
  NodeId x = node_of_statement(g, "x := a + b");
  EXPECT_TRUE(down.out[x.index()].test(ab.index()));
  const ParStmt& s = g.par_stmt(ParStmtId(0));
  EXPECT_TRUE(down.out[s.begin.index()].test(ab.index()));
}

TEST(Product, ImportanceOfInterference) {
  // A destroyed term: the PMOP solution must show the kill that pure
  // component-local reasoning would miss.
  Graph g = lang::compile_or_throw(R"(
    x := a + b;
    par { y := a + b; } and { a := 1; }
  )");
  ProductProgram prod = build_product(g);
  ASSERT_TRUE(prod.exhausted);
  TermTable terms(g);
  LocalPredicates preds(g, terms);
  TermId ab = terms.find(g, "a + b");
  PmopResult up = solve_pmop_via_product(
      g, prod, make_upsafety_problem(g, preds, SafetyVariant::kNaive));
  NodeId y = node_of_statement(g, "y := a + b");
  EXPECT_FALSE(up.entry[y.index()].test(ab.index()));
}

TEST(Product, StatementWithSeveralSuccessorsIsOneNodePerSuccessor) {
  // The IR lets an assignment branch; its bytecode is the store followed by
  // a choose, and the product still counts one occurrence per successor.
  Graph g;
  VarId x = g.intern_var("x");
  NodeId a = g.new_assign(g.root_region(), x, Rhs(Operand::constant(1)));
  NodeId b1 = g.new_node(NodeKind::kSkip, g.root_region());
  NodeId b2 = g.new_node(NodeKind::kSkip, g.root_region());
  g.add_edge(g.start(), a);
  g.add_edge(a, b1);
  g.add_edge(a, b2);
  g.add_edge(b1, g.end());
  g.add_edge(b2, g.end());
  validate_or_throw(g);
  ProductProgram p = build_product(g);
  ASSERT_TRUE(p.exhausted);
  std::size_t occurrences = 0;
  for (NodeId q : p.graph.all_nodes()) occurrences += p.origin[q.index()] == a;
  EXPECT_EQ(occurrences, 2u);
  EXPECT_EQ(p.graph.num_nodes(), 6u);  // s*, e*, a twice, b1, b2
  validate_or_throw(p.graph);
}

// bench_product_blowup's construction family with pinned product sizes:
// one product node per (executed node, control state reached).
TEST(Product, NodeCountsOfBenchFamily) {
  struct Row {
    std::size_t comps, len, nodes;
  };
  const Row rows[] = {{2, 2, 45},  {2, 4, 81},   {2, 8, 201},  {2, 16, 633},
                      {3, 2, 165}, {3, 4, 561},  {3, 8, 2721}, {4, 2, 789},
                      {4, 4, 4341}, {5, 3, 12521}};
  for (const Row& row : rows) {
    ProductProgram p =
        build_product(families::par_wide(row.comps, row.len), 4u << 20);
    ASSERT_TRUE(p.exhausted);
    EXPECT_EQ(p.num_configs, row.nodes) << row.comps << "x" << row.len;
  }
}

}  // namespace
}  // namespace parcm
