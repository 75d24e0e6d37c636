#include "vm/executor.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "semantics/state.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace parcm::vm {

namespace {

void wake(MachineState& s, RegionId r, std::vector<RegionId>* woken) {
  s.set_status(r, TaskStatus::kReady);
  woken->push_back(r);
}

// Every component of `stmt` parked on its barrier resumes. Called only when
// every live component waits, so every parked component is a barrier waiter.
void release(const VmProgram& p, MachineState& s, ParStmtId stmt,
             std::vector<RegionId>* woken) {
  for (RegionId comp : p.par_stmts[stmt.index()].components) {
    if (s.status(comp) == TaskStatus::kParked) wake(s, comp, woken);
  }
  s.waiting(stmt) = 0;
}

StepOutcome halt(const VmProgram& p, MachineState& s, RegionId r,
                 std::vector<RegionId>* woken) {
  s.set_pc(r, kHaltPc);
  s.set_status(r, TaskStatus::kIdle);
  ParStmtId owner = p.region_owner[r.index()];
  if (!owner.valid()) return StepOutcome::kHalted;  // the root executed e*
  std::int64_t& live = s.live(owner);
  PARCM_CHECK(live > 0, "component halted twice");
  --live;
  if (live == 0) {
    wake(s, p.par_stmts[owner.index()].parent, woken);  // join
  } else if (s.waiting(owner) == live) {
    // A terminated component is excused from the collective: the sibling
    // that just halted may be the last one a pending barrier waited for.
    release(p, s, owner, woken);
  }
  return StepOutcome::kHalted;
}

StepOutcome advance(const VmProgram& p, MachineState& s, RegionId r,
                    Pc target, std::vector<RegionId>* woken) {
  if (target == kHaltPc) return halt(p, s, r, woken);
  s.set_pc(r, target);
  return StepOutcome::kContinue;
}

}  // namespace

void MachineState::reset(const VmProgram& p) {
  const std::size_t regions = p.num_regions;
  const std::size_t stmts = p.par_stmts.size();
  acc_ = p.num_vars;
  pc_ = acc_ + regions;
  status_ = pc_ + regions;
  live_ = status_ + regions;
  waiting_ = live_ + stmts;
  words_.assign(waiting_ + stmts, 0);
  for (std::size_t r = 0; r < regions; ++r) words_[pc_ + r] = kHaltPc;
  static_assert(static_cast<int>(TaskStatus::kIdle) == 0);
  set_pc(RegionId(0), p.root_entry());
  set_status(RegionId(0), TaskStatus::kReady);
}

std::size_t MachineState::hash() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the words
  for (std::int64_t w : words_) {
    h ^= static_cast<std::uint64_t>(w);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

std::uint32_t num_alternatives(const Instr& in) {
  if (in.op == Op::kBranch) return 2;
  if (in.op == Op::kChoose) return in.choices_len;
  return 1;
}

std::uint32_t data_alternative(const MachineState& s, const Instr& in) {
  return eval_rhs(s.store(), in.rhs) != 0 ? 0 : 1;
}

StepOutcome step(const VmProgram& p, MachineState& s, RegionId r,
                 std::uint32_t alt, std::vector<RegionId>* woken) {
  if (s.pc(r) == kHaltPc) return halt(p, s, r, woken);
  const Instr& in = p.code[s.pc(r)];
  switch (in.op) {
    case Op::kNop:
      return advance(p, s, r, in.target, woken);
    case Op::kEval:
      s.acc(r) = eval_rhs(s.store(), in.rhs);
      return advance(p, s, r, in.target, woken);
    case Op::kStore:
      s.var(in.dst) = s.acc(r);
      s.acc(r) = 0;
      return advance(p, s, r, in.target, woken);
    case Op::kAssign:
      s.var(in.dst) = eval_rhs(s.store(), in.rhs);
      return advance(p, s, r, in.target, woken);
    case Op::kBranch:
      return advance(p, s, r, alt == 0 ? in.target : in.target2, woken);
    case Op::kChoose:
      return advance(p, s, r, p.choice_pool[in.choices_off + alt], woken);
    case Op::kSpawn: {
      const VmParStmt& stmt = p.par_stmts[in.stmt.index()];
      s.live(in.stmt) = static_cast<std::int64_t>(stmt.components.size());
      s.waiting(in.stmt) = 0;
      s.set_pc(r, stmt.resume);  // park on the join; the last child wakes us
      s.set_status(r, TaskStatus::kParked);
      for (RegionId comp : stmt.components) {
        s.set_pc(comp, p.region_entry[comp.index()]);
        wake(s, comp, woken);
      }
      return StepOutcome::kParked;
    }
    case Op::kBarrier: {
      s.set_pc(r, in.target);  // pre-advance: the release just wakes us
      s.set_status(r, TaskStatus::kParked);
      if (++s.waiting(in.stmt) == s.live(in.stmt)) {
        release(p, s, in.stmt, woken);
      }
      return StepOutcome::kParked;
    }
  }
  PARCM_CHECK(false, "unknown vm opcode");
}

namespace {

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

  // Reusable: every run resets the machine state in place (the vectors keep
  // their capacity, which is what makes SeededRunner cheap per run).
  // Flattened so that vm::step and the arithmetic inline into the loop that
  // runs every sampled schedule of both oracles.
  [[gnu::flatten]] ExecResult run(Rng* rng, BranchOracle* oracle,
                                  const ExecLimits& limits) {
    const bool cost = oracle != nullptr;
    ExecResult res;
    state_.reset(p_);
    ready_.assign(1, RegionId(0));
    if (!visits_.empty()) visits_.clear();
    if (cost) {
      phases_.resize(p_.num_regions);
      phases_[0].assign(1, 0);
    }

    while (!ready_.empty()) {
      if (res.instrs >= limits.max_steps) {
        // Partial store: diagnostics only.
        res.store.assign(state_.store().begin(), state_.store().end());
        instrs_total_ += res.instrs;
        return res;  // ok stays false: budget exhausted
      }
      // ready_ is sorted by region index, so a biased stratum's pick is
      // its front or back; 1 in 8 of its picks stays uniform.
      std::size_t pick = 0;
      if (rng != nullptr && ready_.size() > 1) {
        if (limits.schedule_bias == 0 || rng->below(8) == 0) {
          pick = rng->below(ready_.size());
        } else if (limits.schedule_bias > 0) {
          pick = ready_.size() - 1;
        }
      }
      RegionId r = ready_[pick];
      std::uint32_t alt = 0;
      const Pc pc = state_.pc(r);
      // pc kHaltPc: resumed past a barrier that ended its component; the
      // halt is a step but executes no instruction.
      if (pc != kHaltPc) {
        const Instr& in = p_.code[pc];
        if (in.op != Op::kBranch && in.op != Op::kChoose) {
          // One successor: alt stays 0.
        } else if (oracle != nullptr) {
          alt = static_cast<std::uint32_t>(oracle->choose(
              in.src, visits_[in.src.value()]++, num_alternatives(in)));
        } else if (in.op == Op::kBranch) {
          alt = data_alternative(state_, in);
        } else {
          alt = static_cast<std::uint32_t>(rng->below(in.choices_len));
        }
        if (cost) charge(r, in, &res);
        ++res.instrs;
      }
      woken_.clear();
      StepOutcome out = step(p_, state_, r, alt, &woken_);
      if (out != StepOutcome::kContinue) {
        // By value, not by `pick`: r may be among the woken (the last
        // arrival at a barrier) and the others shift its slot.
        ready_.erase(std::lower_bound(ready_.begin(), ready_.end(), r));
      }
      if (cost && out == StepOutcome::kHalted) join_phases(r);
      for (RegionId w : woken_) {
        ready_.insert(std::upper_bound(ready_.begin(), ready_.end(), w), w);
      }
    }

    res.ok = state_.terminated();
    res.deadlocked = !res.ok;
    res.store.assign(state_.store().begin(), state_.store().end());
    if (cost) {
      for (std::uint64_t ph : phases_[0]) res.time += ph;
    }
    instrs_total_ += res.instrs;
    return res;
  }

 private:
  // Cost mode, before r executes `in`: operator evaluations cost 1 in the
  // thread's current barrier phase; a barrier opens the next phase; a
  // spawn gives every component a fresh phase vector.
  void charge(RegionId r, const Instr& in, ExecResult* res) {
    std::vector<std::uint64_t>& phases = phases_[r.index()];
    if (in.counts) {
      phases.back() += 1;
      res->computations += 1;
    } else if (in.op == Op::kBarrier) {
      phases.push_back(0);
    } else if (in.op == Op::kSpawn) {
      for (RegionId comp : p_.par_stmts[in.stmt.index()].components) {
        phases_[comp.index()].assign(1, 0);
      }
    }
  }

  // Cost mode, after r halted: if that joined its statement, fold the
  // components' phase vectors into the spawner's current phase — per
  // barrier phase the bottleneck component pays, exactly CostWalker's
  // combination.
  void join_phases(RegionId r) {
    ParStmtId owner = p_.region_owner[r.index()];
    if (!owner.valid() || state_.live(owner) != 0) return;
    const VmParStmt& s = p_.par_stmts[owner.index()];
    std::size_t max_phases = 0;
    for (RegionId comp : s.components) {
      max_phases = std::max(max_phases, phases_[comp.index()].size());
    }
    std::uint64_t& current = phases_[s.parent.index()].back();
    for (std::size_t ph = 0; ph < max_phases; ++ph) {
      std::uint64_t bottleneck = 0;
      for (RegionId comp : s.components) {
        const auto& phases = phases_[comp.index()];
        if (ph < phases.size()) bottleneck = std::max(bottleneck, phases[ph]);
      }
      current += bottleneck;
    }
  }

  const VmProgram& p_;
  MachineState state_;
  std::vector<RegionId> ready_;  // sorted by region index
  std::vector<RegionId> woken_;
  std::vector<std::vector<std::uint64_t>> phases_;  // cost mode, per region
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
