// The nondeterministic sequential product program — the "unfolded" parallel
// program making all interleavings explicit (paper Sec. 2 / Fig. 6).
//
// Product nodes are pairs (original node just executed, resulting control
// state); edges are single steps of vm::step on the atomic lowering with
// data erased, one step per executed graph node. The product is an
// ordinary sequential flow graph, so plain MFP on it *is* MOP (distributive
// bitvector frameworks), and projecting back through the origin map yields
// the PMOP solution — the reference oracle for the Parallel Bitvector
// Coincidence Theorem 2.4.
#pragma once

#include <cstddef>
#include <vector>

#include "dfa/framework.hpp"
#include "ir/graph.hpp"

namespace parcm {

struct ProductProgram {
  Graph graph;  // sequential (num_par_stmts() == 0)
  // Per product node: the original node it executes. Product start/end map
  // to the original start/end.
  std::vector<NodeId> origin;
  bool exhausted = true;  // false if max_states was hit
  std::size_t num_configs = 0;
};

// Builds the product; test nodes are expanded nondeterministically (the
// product abstracts data, as the paper's analyses do).
ProductProgram build_product(const Graph& g, std::size_t max_states = 1u << 20);

struct PmopResult {
  // Per original node: meet over all product occurrences of the value at
  // the occurrence's directional entry / exit.
  std::vector<BitVector> entry;
  std::vector<BitVector> out;
};

// Path-based reference solution: runs the sequential solver over the
// product built from `g` and projects back. `p`'s sync policy and destroy
// sets are ignored — the product enumerates interference explicitly.
PmopResult solve_pmop_via_product(const Graph& g, const ProductProgram& prod,
                                  const PackedProblem& p);

}  // namespace parcm
