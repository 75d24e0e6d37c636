// Register-bytecode lowering of parallel flow graphs.
//
// The bytecode is the execution semantics of record: every way the
// codebase runs a program — seeded schedules (the mode both differential
// oracles sample interleavings in), branch-oracle cost runs, the exact
// enumerator and the product program — steps a lowered program with
// vm::step (vm/executor.hpp). Only the structural cost model
// (semantics/cost.hpp) stays a separate, independent reference.
//
// The lowering is intentionally shallow: one to two instructions per node,
// region structure preserved as-is. Each region becomes one resumable task
// (regions cannot be re-entered concurrently — no recursion — so a flat
// per-region frame is a complete machine state). Instructions keep their
// originating NodeId, which is what lets the executor drive branches with
// the cost model's BranchOracle keyed on (node, visit): code motion
// preserves node ids, so the same oracle selects corresponding paths
// through the original and the transformed bytecode. The explorers key
// partial-order reduction and product nodes on it too.
//
// Split-assignment semantics (Remark 2.1): with `split_assignments` every
// assignment lowers to kEval (right-hand side into the task-private
// accumulator; control does not leave the instruction pair) followed by
// kStore (write + advance), making the read and the write separately
// schedulable — exactly the model under which PCM is behaviour-preserving.
// The enumerator explores this lowering when atomic_assignments=false.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/expr.hpp"
#include "ir/graph.hpp"

namespace parcm::vm {

// Index into VmProgram::code. kHaltPc is not an address: a task whose next
// pc is kHaltPc has terminated (the root thread executed e*, or a component
// thread took its edge into the owning statement's ParEnd).
using Pc = std::uint32_t;
inline constexpr Pc kHaltPc = 0xFFFFFFFFu;

enum class Op : std::uint8_t {
  kNop,      // skip/synthetic/start/end/ParEnd: fall through to target
  kEval,     // acc := eval(rhs); fall through (split-assignment read)
  kStore,    // shared[dst] := acc (split-assignment write)
  kAssign,   // shared[dst] := eval(rhs) in one step (atomic mode)
  kBranch,   // test node: target when cond != 0, target2 otherwise
  kChoose,   // nondeterministic branch: scheduler picks one pool entry
  kSpawn,    // ParBegin: activate the statement's components, park on join
  kBarrier,  // collective barrier of the owning statement
};

const char* op_name(Op op);

struct Instr {
  Op op = Op::kNop;
  // Paper cost measure: operator right-hand sides cost 1, everything else 0
  // (carried by kEval/kAssign so both lowering modes charge once).
  bool counts = false;
  VarId dst;             // kStore / kAssign
  Rhs rhs;               // kEval / kAssign value; kBranch condition
  Pc target = kHaltPc;   // fall-through / true branch / post-barrier resume
  Pc target2 = kHaltPc;  // kBranch false branch
  std::uint32_t choices_off = 0;  // kChoose: offset into choice_pool
  std::uint32_t choices_len = 0;  // kChoose: number of alternatives
  ParStmtId stmt;        // kSpawn: statement spawned; kBarrier: owner stmt
  NodeId src;            // originating graph node (oracle key, diagnostics)
};

// Per parallel statement: what the executor needs at spawn and join time.
struct VmParStmt {
  std::vector<RegionId> components;
  RegionId parent;      // region of the spawning thread
  Pc resume = kHaltPc;  // spawner's continuation: the ParEnd node's pc
};

struct LowerOptions {
  // Remark 2.1 split model (the oracles' semantics of record). false lowers
  // every assignment to a single kAssign step — the mode the cost harness
  // uses, where only path shape matters, and the one an oracle checking a
  // transformation that keeps assignments whole samples in.
  bool split_assignments = true;
};

struct VmProgram {
  std::vector<Instr> code;
  // Entry pc per region: the root region's start node, a component's entry
  // node (target of the ParBegin edge). Indexed by RegionId.
  std::vector<Pc> region_entry;
  // Owning statement per region (invalid for root). Indexed by RegionId.
  std::vector<ParStmtId> region_owner;
  std::vector<VmParStmt> par_stmts;  // indexed by ParStmtId
  std::vector<Pc> choice_pool;
  std::size_t num_vars = 0;
  std::size_t num_regions = 0;
  bool split_assignments = true;

  Pc root_entry() const { return region_entry.empty() ? kHaltPc
                                                      : region_entry[0]; }
  // Human-readable disassembly (tests, debugging).
  std::string to_string(const Graph* names = nullptr) const;
};

// Lowers a complete, validated graph. PARCM_CHECKs on malformed inputs
// (dangling branches, barrier outside a component) rather than emitting
// unreachable code.
VmProgram lower_to_bytecode(const Graph& g, const LowerOptions& opts = {});

}  // namespace parcm::vm
