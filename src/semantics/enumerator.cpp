#include "semantics/enumerator.hpp"

#include <deque>
#include <unordered_set>

#include "analyses/cache.hpp"
#include "ir/regions.hpp"
#include "obs/metrics.hpp"
#include "support/diagnostics.hpp"
#include "vm/executor.hpp"

namespace parcm {

namespace {

// Variables accessed by node n (lhs, rhs operands, test condition).
void collect_accessed(const Graph& g, NodeId n, std::vector<VarId>* out) {
  const Node& node = g.node(n);
  auto add_rhs = [&](const Rhs& rhs) {
    if (rhs.is_term()) {
      if (rhs.term().lhs.is_var()) out->push_back(rhs.term().lhs.var_id());
      if (rhs.term().rhs.is_var()) out->push_back(rhs.term().rhs.var_id());
    } else if (rhs.trivial().is_var()) {
      out->push_back(rhs.trivial().var_id());
    }
  };
  if (node.kind == NodeKind::kAssign) {
    out->push_back(node.lhs);
    add_rhs(node.rhs);
  } else if (node.kind == NodeKind::kTest) {
    add_rhs(*node.cond);
  }
}

// invisible[n]: executing n commutes with every step of every other thread
// and offers no choice — safe to take alone under partial-order reduction.
std::vector<char> compute_invisible(const Graph& g) {
  // Interference is queried once per enumeration; the state-space searches
  // re-enumerate the same graphs, so share one InterleavingInfo per
  // (graph, version) through the analysis cache.
  std::shared_ptr<const InterleavingInfo> itlv_ptr =
      analysis_cache().interleaving(g);
  const InterleavingInfo& itlv = *itlv_ptr;
  // contested[v]: two potentially-parallel nodes both access v.
  std::vector<char> contested(g.num_vars(), 0);
  std::vector<VarId> mine, theirs;
  for (NodeId n : g.all_nodes()) {
    mine.clear();
    collect_accessed(g, n, &mine);
    if (mine.empty()) continue;
    for (NodeId m : itlv.preds(g, n)) {
      theirs.clear();
      collect_accessed(g, m, &theirs);
      for (VarId v : mine) {
        for (VarId w : theirs) {
          if (v == w) contested[v.index()] = 1;
        }
      }
    }
  }

  std::vector<char> invisible(g.num_nodes(), 0);
  for (NodeId n : g.all_nodes()) {
    const Node& node = g.node(n);
    if (node.kind == NodeKind::kParBegin) {
      invisible[n.index()] = 1;  // deterministic spawn, no data
      continue;
    }
    if (node.kind == NodeKind::kTest || node.kind == NodeKind::kBarrier ||
        node.out_edges.size() > 1) {
      continue;
    }
    if (node.kind == NodeKind::kAssign) {
      mine.clear();
      collect_accessed(g, n, &mine);
      bool clean = true;
      for (VarId v : mine) clean = clean && !contested[v.index()];
      invisible[n.index()] = clean;
    } else {
      invisible[n.index()] = 1;  // skip / synthetic / parend / start / end
    }
  }
  return invisible;
}

// Barrier arrivals — and the halts of tasks a release resumed past a
// trailing barrier — are data-free, and their tasks are blocked for
// everything else: take them eagerly, so no explored state has a ready task
// standing at a barrier. Only the task that just stepped and the tasks its
// step woke can be standing there.
void settle(const vm::VmProgram& p, vm::MachineState& s, RegionId stepped,
            std::vector<RegionId>* woken, std::vector<RegionId>* todo) {
  todo->assign(1, stepped);
  todo->insert(todo->end(), woken->begin(), woken->end());
  while (!todo->empty()) {
    RegionId r = todo->back();
    todo->pop_back();
    if (!s.ready(r)) continue;
    vm::Pc pc = s.pc(r);
    if (pc != vm::kHaltPc && p.code[pc].op != vm::Op::kBarrier) continue;
    woken->clear();
    vm::step(p, s, r, 0, woken);
    todo->insert(todo->end(), woken->begin(), woken->end());
  }
}

}  // namespace

EnumerationResult enumerate_executions(const Graph& g,
                                       const std::vector<std::string>& observed,
                                       const EnumerationOptions& options) {
  PARCM_OBS_TIMER("semantics.enumerate");
  EnumerationResult res;

  vm::LowerOptions lower;
  lower.split_assignments = !options.atomic_assignments;
  const vm::VmProgram p = vm::lower_to_bytecode(g, lower);

  vm::MachineState init(p);
  for (const auto& [name, value] : options.initial) {
    if (auto v = g.find_var(name)) init.var(*v) = value;
  }

  std::vector<VarId> observed_ids;
  observed_ids.reserve(observed.size());
  for (const std::string& name : observed) {
    observed_ids.push_back(g.find_var(name).value_or(VarId()));
  }
  auto project = [&](std::span<const std::int64_t> store) {
    std::vector<std::int64_t> out;
    out.reserve(observed_ids.size());
    for (VarId v : observed_ids) {
      out.push_back(v.valid() ? store[v.index()] : 0);
    }
    return out;
  };

  // Keyed by Instr::src: both halves of a split assignment share the rule.
  std::vector<char> invisible;
  if (options.partial_order_reduction) invisible = compute_invisible(g);

  // The frontier points into `seen`, whose nodes never move.
  std::unordered_set<vm::MachineState, vm::MachineStateHash> seen;
  std::deque<const vm::MachineState*> frontier;
  frontier.push_back(&*seen.insert(std::move(init)).first);

  vm::MachineState next;
  std::vector<RegionId> woken, todo;
  while (!frontier.empty()) {
    const vm::MachineState& st = *frontier.front();
    frontier.pop_front();
    ++res.states_explored;

    if (st.terminated()) {
      res.finals.insert(project(st.store()));
      continue;
    }

    // Partial-order reduction: if some ready task's next step is
    // invisible, explore only that task.
    RegionId only;
    if (options.partial_order_reduction) {
      for (std::size_t i = 0; i < p.num_regions; ++i) {
        RegionId r(static_cast<RegionId::underlying>(i));
        if (st.ready(r) && invisible[p.code[st.pc(r)].src.index()]) {
          only = r;
          break;
        }
      }
    }

    bool any = false;
    for (std::size_t i = 0; i < p.num_regions; ++i) {
      RegionId r(static_cast<RegionId::underlying>(i));
      if (!st.ready(r) || (only.valid() && r != only)) continue;
      const vm::Instr& in = p.code[st.pc(r)];
      // Data selects the kBranch edge; every kChoose alternative is a
      // behaviour.
      std::uint32_t alt =
          in.op == vm::Op::kBranch ? vm::data_alternative(st, in) : 0;
      const std::uint32_t end =
          in.op == vm::Op::kChoose ? in.choices_len : alt + 1;
      for (; alt < end; ++alt) {
        next = st;
        woken.clear();
        vm::step(p, next, r, alt, &woken);
        settle(p, next, r, &woken, &todo);
        any = true;
        if (seen.contains(next)) continue;
        if (seen.size() >= options.max_states) {
          res.exhausted = false;
          continue;
        }
        frontier.push_back(&*seen.insert(next).first);
      }
    }
    PARCM_CHECK(any, "deadlocked state during enumeration");
  }

  PARCM_OBS_COUNT("semantics.enum.runs", 1);
  PARCM_OBS_COUNT("semantics.enum.states_explored", res.states_explored);
  PARCM_OBS_COUNT("semantics.enum.finals", res.finals.size());
  if (!res.exhausted) PARCM_OBS_COUNT("semantics.enum.truncated", 1);
  return res;
}

}  // namespace parcm
