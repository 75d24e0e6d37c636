// The machine of record for parallel-flow-graph bytecode.
//
// `step` is the single transition function of the codebase: it executes one
// instruction of one task on a copyable MachineState. Every way of running
// a program is a policy for picking which task steps and which alternative
// a branch takes:
//
//  * run_seeded — the oracles' mode. One OS thread, but every instruction
//    boundary is a schedule point: a pinned xoshiro stream picks among the
//    runnable tasks, so one (program, seed, bias) triple names exactly one
//    maximal interleaving, reproducible on any platform. Right-hand sides
//    evaluate in a single step (the Remark 2.1 granularity), so with a
//    split lowering the set of reachable final stores over all seeds is the
//    enumerator's behaviour set — which is what makes seeded VM runs a
//    sound sampling oracle. Both differential oracles draw their schedules
//    here (verify::sample_finals).
//
//  * run_with_oracle — the cost model's mode. Branches and nondeterministic
//    choices follow a BranchOracle keyed on (originating node, visit index)
//    exactly like semantics/cost.hpp's CostWalker, and the executor
//    accumulates the paper's bottleneck time with the same phase algebra
//    (sum along a thread, per-barrier-phase maximum across components).
//    For any oracle that is a pure function of (node, visit, choices) the
//    resulting time/computations equal execution_time() — the
//    executional-improvement regression test holds the two implementations
//    against each other.
//
//  * exhaustive exploration — semantics/enumerator.cpp (every task, every
//    kChoose alternative, data-selected kBranch edges) and
//    semantics/product.cpp (data-free: every kBranch and kChoose target)
//    search the graph of MachineStates that `step` spans.
//
// Join and barrier protocol: a spawner parks with its pc pre-set to the
// statement's ParEnd; the last component to halt wakes it. A task arriving
// at a barrier parks with its pc pre-set past the barrier; the statement
// releases all waiters when every *live* component waits. A component that
// halts decrements the live count and re-checks the release condition —
// this is what keeps a barrier paired with a zero-statement sibling
// component from deadlocking (the empty component halts immediately and is
// excused from the collective).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "semantics/cost.hpp"
#include "vm/bytecode.hpp"

namespace parcm::vm {

enum class TaskStatus : std::uint8_t {
  kIdle,    // not spawned yet, or halted
  kReady,   // runnable
  kParked,  // waiting on its spawned statement's join or on a barrier
};

// A complete machine state: per task (one per region — regions cannot be
// re-entered concurrently, no recursion) a pc, a status and the accumulator;
// the shared store; per parallel statement the number of live components
// and of components parked on its barrier. The state is canonical — equal
// states behave the same and compare equal: a task's accumulator is zero
// except between its kEval and kStore, an idle task's pc is kHaltPc, and the
// per-statement counters are functions of the task fields. Every field is a
// word of one flat vector, so explorers copy, hash and compare a state as
// one allocation.
class MachineState {
 public:
  MachineState() = default;
  // The root task ready at the program entry, every other task idle, the
  // store all zero.
  explicit MachineState(const VmProgram& p) { reset(p); }
  // Reassigns the initial state in place (the vector keeps its capacity).
  void reset(const VmProgram& p);

  // The root task executed e* (every other task is idle by then).
  bool terminated() const { return status(RegionId(0)) == TaskStatus::kIdle; }
  bool ready(RegionId r) const { return status(r) == TaskStatus::kReady; }

  Pc pc(RegionId r) const { return static_cast<Pc>(words_[pc_ + r.index()]); }
  void set_pc(RegionId r, Pc pc) { words_[pc_ + r.index()] = pc; }
  TaskStatus status(RegionId r) const {
    return static_cast<TaskStatus>(words_[status_ + r.index()]);
  }
  void set_status(RegionId r, TaskStatus s) {
    words_[status_ + r.index()] = static_cast<std::int64_t>(s);
  }
  std::int64_t& acc(RegionId r) { return words_[acc_ + r.index()]; }
  // Shared variables, by VarId.
  std::span<const std::int64_t> store() const { return {words_.data(), acc_}; }
  std::int64_t& var(VarId v) { return words_[v.index()]; }
  std::int64_t& live(ParStmtId s) { return words_[live_ + s.index()]; }
  std::int64_t& waiting(ParStmtId s) { return words_[waiting_ + s.index()]; }

  bool operator==(const MachineState& o) const { return words_ == o.words_; }
  std::size_t hash() const;

 private:
  // Layout: store (num_vars) | acc | pc | status (num_regions each) |
  // live | waiting (one per statement).
  std::vector<std::int64_t> words_;
  std::size_t acc_ = 0, pc_ = 0, status_ = 0, live_ = 0, waiting_ = 0;
};

struct MachineStateHash {
  std::size_t operator()(const MachineState& s) const { return s.hash(); }
};

enum class StepOutcome : std::uint8_t { kContinue, kParked, kHalted };

// Number of successors instruction `in` offers an explorer: both kBranch
// edges, every kChoose alternative, otherwise one.
std::uint32_t num_alternatives(const Instr& in);

// The kBranch edge (0 = target, 1 = target2) the condition selects in s.
std::uint32_t data_alternative(const MachineState& s, const Instr& in);

// Task r (which must be ready) executes the instruction at its pc, taking
// alternative `alt` of a kBranch/kChoose (< num_alternatives; ignored by
// every other opcode). A task released past a trailing barrier has pc
// kHaltPc: its step is the halt. Tasks the step makes ready — spawned
// components, released barrier waiters (r among them when it is the last to
// arrive), a joined spawner — are appended to *woken.
StepOutcome step(const VmProgram& p, MachineState& s, RegionId r,
                 std::uint32_t alt, std::vector<RegionId>* woken);

struct ExecLimits {
  // Instruction budget for one execution; nondeterministic loops may spin,
  // the budget turns them into ok=false instead of a hang.
  std::size_t max_steps = 1u << 20;
  // Schedule stratum for the seeded mode: 0 picks uniformly among the
  // runnable tasks at every step; negative prefers the lowest-indexed
  // ready region and positive the highest (7 of 8 picks, the rest stay
  // uniform). Regions are numbered in source order, so the biased strata
  // drive runs toward the corner interleavings — components running
  // (almost) to completion left-first or right-first — that a uniform
  // sampler reaches only with vanishing probability.
  int schedule_bias = 0;
};

struct ExecResult {
  bool ok = false;          // terminated within the step budget
  bool deadlocked = false;  // no runnable task before termination (defensive:
                            // a validated graph never triggers this)
  std::vector<std::int64_t> store;  // final shared store, indexed by VarId
  std::uint64_t instrs = 0;         // instructions executed
  // Cost mode only (run_with_oracle): the paper's measures.
  std::uint64_t time = 0;          // bottleneck execution time
  std::uint64_t computations = 0;  // total operator evaluations
};

// One seeded maximal execution; a pure function of (p, seed, limits).
ExecResult run_seeded(const VmProgram& p, std::uint64_t seed,
                      const ExecLimits& limits = {});

// Amortized form of run_seeded for samplers that execute one program under
// many seeds (verify::sample_finals runs hundreds of schedules per check):
// one machine's task/store/ready buffers are reused across runs, so the
// per-run cost is the execution itself, not the setup. run(seed, limits)
// returns exactly what run_seeded(p, seed, limits) would.
class SeededRunner {
 public:
  explicit SeededRunner(const VmProgram& p);  // p must outlive the runner
  explicit SeededRunner(VmProgram&&) = delete;
  ~SeededRunner();
  SeededRunner(const SeededRunner&) = delete;
  SeededRunner& operator=(const SeededRunner&) = delete;

  ExecResult run(std::uint64_t seed, const ExecLimits& limits = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Oracle-driven execution with bottleneck-cost accounting. Deterministic
// scheduling (the schedule cannot affect the structural cost); branch
// decisions and visit counting mirror semantics/cost.hpp.
ExecResult run_with_oracle(const VmProgram& p, BranchOracle& oracle,
                           const ExecLimits& limits = {});

}  // namespace parcm::vm
