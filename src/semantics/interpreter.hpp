// Small-step interleaving semantics of parallel flow graphs.
//
// A configuration assigns a program counter to every *active* region: the
// root region runs the main thread; entering a parallel statement parks the
// spawning thread on the statement's ParEnd and activates one thread per
// component. A thread whose region r has pc on a ParEnd is runnable only
// once all components of that statement have terminated (synchronization).
// Since regions cannot be re-entered concurrently (no recursion), the
// region-indexed pc vector is a canonical, hashable machine state.
//
// A transition executes one node atomically and moves along one out-edge
// (the edge is absent when the node is e* or when the thread exits its
// component into the ParEnd). Data-aware callers restrict test-node
// transitions to the edge selected by the condition.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/graph.hpp"
#include "semantics/state.hpp"

namespace parcm {

class Config {
 public:
  explicit Config(const Graph& g);

  static Config initial(const Graph& g);

  bool active(RegionId r) const { return pc_[r.index()].valid(); }
  NodeId pc(RegionId r) const { return pc_[r.index()]; }
  void set_pc(RegionId r, NodeId n) { pc_[r.index()] = n; }
  void clear_pc(RegionId r) { pc_[r.index()] = NodeId(); }

  // All threads have terminated (the main thread executed e*).
  bool terminal() const;

  // Canonical encoding for hashing / memoization.
  std::vector<std::uint32_t> encode() const;

  bool operator==(const Config&) const = default;

 private:
  std::vector<NodeId> pc_;  // indexed by RegionId; invalid = inactive
};

struct ConfigHash {
  std::size_t operator()(const std::vector<std::uint32_t>& v) const;
};

struct Transition {
  RegionId region;  // thread taking the step
  NodeId node;      // node executed
  EdgeId edge;      // out-edge taken; invalid when exiting to ParEnd or e*
  // Collective barrier release: when valid, every active component of the
  // statement is parked on a barrier node and all of them step together
  // (region/node/edge are unused). Terminated components are excused.
  ParStmtId barrier_stmt;
};

// True iff the thread of region r may take a step in c (its pc is set and,
// if parked on a ParEnd, all components of that statement have terminated).
// Threads parked on a barrier are never individually runnable; they move
// via barrier-release transitions.
bool thread_runnable(const Graph& g, const Config& c, RegionId r);

// Barrier releases enabled in c: one per parallel statement whose active
// components are all parked on barrier nodes (and at least one is).
std::vector<Transition> barrier_release_transitions(const Graph& g,
                                                    const Config& c);

// Transitions of region r's thread alone (empty if not runnable); with a
// data state, test nodes offer only the selected branch.
void append_thread_transitions(const Graph& g, const Config& c, RegionId r,
                               const VarState* s, std::vector<Transition>* out);

// Data-free enabled transitions (test nodes contribute both branches).
std::vector<Transition> enabled_transitions(const Graph& g, const Config& c);

// Applies t (which must be enabled in c) without touching data.
Config apply_transition(const Graph& g, const Config& c, const Transition& t);

}  // namespace parcm
