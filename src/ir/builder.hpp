// Structured construction of parallel flow graphs.
//
// The builder maintains a set of dangling "tail" nodes whose next outgoing
// edge targets the next appended statement, so straight-line code, branches,
// loops, nondeterministic choice, and parallel statements compose freely.
// Test nodes rely on edge order (out_edges[0] = true branch); the builder
// sequences callback invocation to preserve it.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ir/graph.hpp"

namespace parcm {

class GraphBuilder {
 public:
  using BlockFn = std::function<void()>;

  GraphBuilder();

  VarId var(const std::string& name) { return graph_.intern_var(name); }

  // Operand / term shorthands.
  Operand v(const std::string& name) { return Operand::var(var(name)); }
  static Operand c(std::int64_t value) { return Operand::constant(value); }
  static Term term(Operand lhs, BinOp op, Operand rhs) {
    return Term{op, lhs, rhs};
  }

  // --- statement appenders ---------------------------------------------------
  NodeId assign(VarId lhs, Rhs rhs);
  NodeId assign(const std::string& lhs, Operand a, BinOp op, Operand b);
  NodeId assign(const std::string& lhs, Operand a);
  NodeId skip();
  // Collective barrier; only valid inside a parallel component (the paper's
  // "explicit synchronization" extension).
  NodeId barrier();

  // Attach a label to the most recently appended node.
  GraphBuilder& labeled(const std::string& label);

  // --- control flow ------------------------------------------------------------
  // Nondeterministic 2-way branch (paper branching model).
  void if_nondet(const BlockFn& then_block, const BlockFn& else_block);
  // Deterministic branch on a condition the executors evaluate.
  void if_cond(Rhs cond, const BlockFn& then_block, const BlockFn& else_block);
  // Nondeterministic n-way choice.
  void choose(const std::vector<BlockFn>& alternatives);
  // Loop with nondeterministic exit.
  void while_nondet(const BlockFn& body);
  // Loop while cond evaluates to nonzero.
  void while_cond(Rhs cond, const BlockFn& body);
  // Parallel statement with one component per callback.
  void par(const std::vector<BlockFn>& components);

  // --- escape hatches ----------------------------------------------------------
  Graph& graph() { return graph_; }
  RegionId current_region() const { return region_; }
  NodeId last_node() const { return last_; }

  // Wires all dangling tails to the end node and returns the graph. The
  // builder must not be used afterwards.
  Graph finish();

 private:
  NodeId append(NodeId n);
  void run_block(NodeId from, const BlockFn& block,
                 std::vector<NodeId>* collected_tails);

  Graph graph_;
  RegionId region_;
  std::vector<NodeId> tails_;
  NodeId last_;
  bool finished_ = false;
};

}  // namespace parcm
