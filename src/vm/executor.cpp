#include "vm/executor.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace parcm::vm {

namespace {

// Mirrors semantics/state.cpp exactly: wrapping arithmetic, division by
// zero yields 0, INT64_MIN / -1 wraps, comparisons yield 1/0.
std::int64_t eval(const Rhs& rhs, const std::vector<std::int64_t>& store) {
  auto operand = [&store](const Operand& op) {
    return op.is_var() ? store[op.var_id().index()] : op.const_value();
  };
  if (rhs.is_trivial()) return operand(rhs.trivial());
  const Term& t = rhs.term();
  std::int64_t a = operand(t.lhs);
  std::int64_t b = operand(t.rhs);
  switch (t.op) {
    case BinOp::kAdd: return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
    case BinOp::kSub: return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
    case BinOp::kMul: return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
    case BinOp::kDiv:
      if (b == 0) return 0;
      if (b == -1) return static_cast<std::int64_t>(
          -static_cast<std::uint64_t>(a));
      return a / b;
    case BinOp::kLt: return a < b;
    case BinOp::kLe: return a <= b;
    case BinOp::kGt: return a > b;
    case BinOp::kGe: return a >= b;
    case BinOp::kEq: return a == b;
    case BinOp::kNe: return a != b;
  }
  PARCM_CHECK(false, "unknown BinOp in vm eval");
}

enum class StepOutcome : std::uint8_t { kContinue, kParked, kHalted };

// ---------------------------------------------------------------------------
// Deterministic machine: one OS thread, every instruction a schedule point.
// Shared by the seeded mode (rng picks the next runnable task) and the
// cost mode (oracle picks branches, phase algebra accumulates the paper's
// bottleneck time).
// ---------------------------------------------------------------------------

class DetMachine {
 public:
  explicit DetMachine(const VmProgram& p) : p_(p) {}

  // One registry update per machine, not per run: SeededRunner executes
  // hundreds of schedules per differential check, and the registry's
  // mutex+lookup would otherwise show up in the oracle's throughput.
  ~DetMachine() {
    if (instrs_total_ > 0) PARCM_OBS_COUNT("vm.instrs_executed", instrs_total_);
  }

  // Reusable: every run reassigns the full machine state (the vectors keep
  // their capacity, which is what makes SeededRunner cheap per run).
  ExecResult run(Rng* rng, BranchOracle* oracle, const ExecLimits& limits) {
    rng_ = rng;
    oracle_ = oracle;
    limits_ = limits;
    ExecResult res;
    store_.assign(p_.num_vars, 0);
    tasks_.assign(p_.num_regions, Task{});
    stmts_.assign(p_.par_stmts.size(), StmtState{});
    ready_.clear();
    if (!visits_.empty()) visits_.clear();
    const bool cost = oracle_ != nullptr;
    tasks_[0].pc = p_.root_entry();
    if (cost) tasks_[0].phases.assign(1, 0);
    make_ready(RegionId(0));
    bool root_halted = false;

    while (!ready_.empty()) {
      if (res.instrs >= limits_.max_steps) {
        res.store = store_;  // partial store: diagnostics only
        instrs_total_ += res.instrs;
        return res;  // ok stays false: budget exhausted
      }
      // ready_ is sorted by region index, so a biased stratum's pick is
      // its front or back; 1 in 8 of its picks stays uniform.
      std::size_t pick = 0;
      if (rng_ != nullptr && ready_.size() > 1) {
        if (limits_.schedule_bias == 0 || rng_->below(8) == 0) {
          pick = rng_->below(ready_.size());
        } else if (limits_.schedule_bias > 0) {
          pick = ready_.size() - 1;
        }
      }
      RegionId r = ready_[pick];
      if (tasks_[r.index()].pc == kHaltPc) {
        // Resumed past its last instruction: a barrier that was the final
        // statement of its component pre-advanced the pc to the component
        // exit before parking. Halting is the whole step.
        unready(r);
        on_halt(r, cost, &root_halted);
        continue;
      }
      StepOutcome out = step(r, cost, &res);
      ++res.instrs;
      if (out != StepOutcome::kContinue) {
        // By value, not by `pick`: the step may have made other tasks
        // ready and shifted r's slot.
        unready(r);
        if (out == StepOutcome::kHalted) on_halt(r, cost, &root_halted);
      }
    }

    res.ok = root_halted;
    res.deadlocked = !root_halted;
    res.store = store_;
    if (cost) {
      for (std::uint64_t ph : tasks_[0].phases) res.time += ph;
    }
    instrs_total_ += res.instrs;
    return res;
  }

 private:
  struct Task {
    Pc pc = kHaltPc;
    std::int64_t acc = 0;
    std::vector<std::uint64_t> phases;  // cost mode only
  };
  struct StmtState {
    std::size_t live = 0;
    std::vector<RegionId> waiting;
  };

  StepOutcome step(RegionId r, bool cost, ExecResult* res) {
    Task& t = tasks_[r.index()];
    const Instr& in = p_.code[t.pc];
    switch (in.op) {
      case Op::kNop:
        return advance(t, in.target);
      case Op::kEval:
        if (cost && in.counts) {
          t.phases.back() += 1;
          res->computations += 1;
        }
        t.acc = eval(in.rhs, store_);
        return advance(t, in.target);
      case Op::kStore:
        store_[in.dst.index()] = t.acc;
        return advance(t, in.target);
      case Op::kAssign:
        if (cost && in.counts) {
          t.phases.back() += 1;
          res->computations += 1;
        }
        store_[in.dst.index()] = eval(in.rhs, store_);
        return advance(t, in.target);
      case Op::kBranch: {
        std::size_t idx =
            oracle_ != nullptr
                ? oracle_->choose(in.src, visits_[in.src.value()]++, 2)
                : (eval(in.rhs, store_) != 0 ? 0 : 1);
        return advance(t, idx == 0 ? in.target : in.target2);
      }
      case Op::kChoose: {
        std::size_t idx =
            oracle_ != nullptr
                ? oracle_->choose(in.src, visits_[in.src.value()]++,
                                  in.choices_len)
                : rng_->below(in.choices_len);
        return advance(t, p_.choice_pool[in.choices_off + idx]);
      }
      case Op::kSpawn: {
        const VmParStmt& s = p_.par_stmts[in.stmt.index()];
        StmtState& st = stmts_[in.stmt.index()];
        st.live = s.components.size();
        st.waiting.clear();
        t.pc = s.resume;  // park on the join; the last child re-enqueues us
        for (RegionId comp : s.components) {
          Task& c = tasks_[comp.index()];
          c.pc = p_.region_entry[comp.index()];
          c.acc = 0;
          if (cost) c.phases.assign(1, 0);
          make_ready(comp);
        }
        return StepOutcome::kParked;
      }
      case Op::kBarrier: {
        StmtState& st = stmts_[in.stmt.index()];
        if (cost) t.phases.push_back(0);  // next phase of this thread
        t.pc = in.target;  // pre-advance: release just re-enqueues
        st.waiting.push_back(r);
        if (st.waiting.size() == st.live) {
          for (RegionId w : st.waiting) make_ready(w);
          st.waiting.clear();
        }
        return StepOutcome::kParked;
      }
    }
    PARCM_CHECK(false, "unknown vm opcode");
  }

  static StepOutcome advance(Task& t, Pc target) {
    if (target == kHaltPc) return StepOutcome::kHalted;
    t.pc = target;
    return StepOutcome::kContinue;
  }

  void make_ready(RegionId r) {
    ready_.insert(std::upper_bound(ready_.begin(), ready_.end(), r), r);
  }

  void unready(RegionId r) {
    ready_.erase(std::lower_bound(ready_.begin(), ready_.end(), r));
  }

  void on_halt(RegionId r, bool cost, bool* root_halted) {
    ParStmtId owner = p_.region_owner[r.index()];
    if (!owner.valid()) {
      *root_halted = true;
      return;
    }
    const VmParStmt& s = p_.par_stmts[owner.index()];
    StmtState& st = stmts_[owner.index()];
    PARCM_CHECK(st.live > 0, "component halted twice");
    --st.live;
    if (st.live == 0) {
      // Join: fold the components' phase vectors into the spawner's current
      // phase — per barrier phase the bottleneck component pays, exactly
      // CostWalker's combination.
      if (cost) {
        Task& parent = tasks_[s.parent.index()];
        std::size_t max_phases = 0;
        for (RegionId comp : s.components) {
          max_phases = std::max(max_phases, tasks_[comp.index()].phases.size());
        }
        for (std::size_t ph = 0; ph < max_phases; ++ph) {
          std::uint64_t bottleneck = 0;
          for (RegionId comp : s.components) {
            const auto& phases = tasks_[comp.index()].phases;
            if (ph < phases.size()) {
              bottleneck = std::max(bottleneck, phases[ph]);
            }
          }
          parent.phases.back() += bottleneck;
        }
      }
      make_ready(s.parent);
      return;
    }
    // A sibling may be the last one a pending barrier was waiting for: a
    // terminated component is excused from the collective (the
    // zero-statement-component case — without this re-check the barrier
    // would deadlock).
    if (!st.waiting.empty() && st.waiting.size() == st.live) {
      for (RegionId w : st.waiting) make_ready(w);
      st.waiting.clear();
    }
  }

  const VmProgram& p_;
  Rng* rng_ = nullptr;
  BranchOracle* oracle_ = nullptr;
  ExecLimits limits_;
  std::vector<std::int64_t> store_;
  std::vector<Task> tasks_;
  std::vector<StmtState> stmts_;
  std::vector<RegionId> ready_;
  std::unordered_map<std::uint32_t, std::size_t> visits_;
  std::uint64_t instrs_total_ = 0;
};

}  // namespace

ExecResult run_seeded(const VmProgram& p, std::uint64_t seed,
                      const ExecLimits& limits) {
  Rng rng(mix64(seed));
  return DetMachine(p).run(&rng, nullptr, limits);
}

ExecResult run_with_oracle(const VmProgram& p, BranchOracle& oracle,
                           const ExecLimits& limits) {
  return DetMachine(p).run(nullptr, &oracle, limits);
}

struct SeededRunner::Impl {
  explicit Impl(const VmProgram& p) : machine(p) {}
  DetMachine machine;
};

SeededRunner::SeededRunner(const VmProgram& p)
    : impl_(std::make_unique<Impl>(p)) {}

SeededRunner::~SeededRunner() = default;

ExecResult SeededRunner::run(std::uint64_t seed, const ExecLimits& limits) {
  Rng rng(mix64(seed));
  return impl_->machine.run(&rng, nullptr, limits);
}

}  // namespace parcm::vm
