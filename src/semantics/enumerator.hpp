// Exhaustive exploration of all interleavings x branch choices.
//
// Lowers the graph to VM bytecode (split or atomic, per the options) and
// searches the graph of vm::MachineStates that vm::step spans, with
// memoization, collecting the set of observable final states. This is the
// ground truth behind the sequential-consistency checks of Figures 3 and 4:
// a transformation preserves sequential consistency iff every observable
// final state of the transformed program (projected onto the original
// variables) is a final state of the original program.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ir/graph.hpp"

namespace parcm {

struct EnumerationOptions {
  std::size_t max_states = 1u << 20;  // distinct machine states
  // Initial values for named variables (unnamed default to 0).
  std::vector<std::pair<std::string, std::int64_t>> initial;
  // true: assignments are atomic. false: the paper's Remark 2.1 semantics —
  // evaluating the right-hand side and writing the left-hand side are two
  // steps that other threads may interleave (x := t behaves as
  // x_t := t; x := x_t with a thread-private x_t). The paper's correctness
  // notion for parallel code motion is stated against the split semantics.
  bool atomic_assignments = true;
  // Partial-order reduction: when a runnable thread's next step is
  // *invisible* (a single-successor non-test node that is a skip, or an
  // assignment touching only variables no other component accesses), take
  // that step alone instead of branching over every thread. Such a step
  // commutes with all other threads' steps and cannot disable them, so the
  // set of observable final states is unchanged (verified against full
  // exploration in tests/test_por.cpp). Assumes no cycle consists purely of
  // single-successor nodes (true for all builder/language-generated
  // graphs).
  bool partial_order_reduction = false;
};

struct EnumerationResult {
  // One entry per observable final state: values of the observed variables
  // in the order requested.
  std::set<std::vector<std::int64_t>> finals;
  bool exhausted = true;  // false if max_states was hit
  std::size_t states_explored = 0;
};

// `observed`: variable names projected into the result; names missing from
// the graph read as 0 (so the same list works for original and transformed
// programs).
EnumerationResult enumerate_executions(const Graph& g,
                                       const std::vector<std::string>& observed,
                                       const EnumerationOptions& options = {});

}  // namespace parcm
