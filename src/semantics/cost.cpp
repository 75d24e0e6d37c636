#include "semantics/cost.hpp"

#include <unordered_map>

#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace parcm {

std::size_t SeededOracle::choose(NodeId branch, std::size_t visit,
                                 std::size_t num_choices) {
  std::uint64_t x = mix64(seed_ ^
                          (static_cast<std::uint64_t>(branch.value()) << 32) ^
                          static_cast<std::uint64_t>(visit));
  return static_cast<std::size_t>(x % num_choices);
}

namespace {

class CostWalker {
 public:
  CostWalker(const Graph& g, BranchOracle& oracle, std::size_t max_steps)
      : g_(g), oracle_(oracle), remaining_(max_steps) {}

  CostResult run() {
    CostResult res;
    std::vector<std::uint64_t> phases{0};
    res.ok = walk(g_.start(), ParStmtId(), &phases, &res.computations);
    for (std::uint64_t p : phases) res.time += p;
    return res;
  }

 private:
  // Walks one thread from `pc` until the thread ends: the root thread ends
  // after e*, a component thread (inside `owner`) ends when it takes an
  // edge to owner's ParEnd. Accumulates the thread's structural time as a
  // list of *phases* split at its own barriers (components synchronize at
  // barriers, so the statement's time is the per-phase maximum, summed),
  // plus the global computation count.
  bool walk(NodeId pc, ParStmtId owner, std::vector<std::uint64_t>* phases,
            std::uint64_t* comps) {
    for (;;) {
      if (remaining_ == 0) return false;
      --remaining_;

      const Node& node = g_.node(pc);
      if (node.kind == NodeKind::kAssign && node.rhs.is_term()) {
        phases->back() += 1;
        *comps += 1;
      }
      if (node.kind == NodeKind::kBarrier && g_.pfg(pc) == owner) {
        // Synchronization point of this thread's own statement.
        phases->push_back(0);
      }
      if (pc == g_.end()) return true;

      if (node.kind == NodeKind::kParBegin) {
        const ParStmt& stmt = g_.par_stmt(node.par_stmt);
        std::vector<std::vector<std::uint64_t>> comp_phases;
        std::size_t max_phases = 0;
        for (RegionId comp : stmt.components) {
          std::vector<std::uint64_t> ph{0};
          if (!walk(g_.component_entry(comp), node.par_stmt, &ph, comps)) {
            return false;
          }
          max_phases = std::max(max_phases, ph.size());
          comp_phases.push_back(std::move(ph));
        }
        // Per barrier phase, the bottleneck component pays; a component
        // with fewer phases (it exited early) contributes nothing there.
        for (std::size_t p = 0; p < max_phases; ++p) {
          std::uint64_t bottleneck = 0;
          for (const auto& ph : comp_phases) {
            if (p < ph.size()) bottleneck = std::max(bottleneck, ph[p]);
          }
          phases->back() += bottleneck;
        }
        pc = stmt.end;
        continue;
      }

      // Choose the outgoing edge; only multi-successor nodes consult the
      // oracle so inserted single-successor nodes never shift decisions.
      const auto& out = node.out_edges;
      PARCM_CHECK(!out.empty(), "dead-end node during cost walk");
      std::size_t idx = 0;
      if (out.size() > 1) {
        idx = oracle_.choose(pc, visits_[pc.value()]++, out.size());
      }
      NodeId target = g_.edge(out[idx]).to;
      if (owner.valid() && g_.node(target).kind == NodeKind::kParEnd &&
          g_.node(target).par_stmt == owner) {
        return true;  // component finished
      }
      pc = target;
    }
  }

  const Graph& g_;
  BranchOracle& oracle_;
  std::size_t remaining_;
  std::unordered_map<std::uint32_t, std::size_t> visits_;
};

}  // namespace

CostResult execution_time(const Graph& g, BranchOracle& oracle,
                          std::size_t max_steps) {
  return CostWalker(g, oracle, max_steps).run();
}

std::optional<std::pair<CostResult, CostResult>> paired_execution_times(
    const Graph& a, const Graph& b, std::uint64_t seed,
    std::size_t max_steps) {
  SeededOracle oa(seed);
  CostResult ra = execution_time(a, oa, max_steps);
  SeededOracle ob(seed);
  CostResult rb = execution_time(b, ob, max_steps);
  if (!ra.ok || !rb.ok) return std::nullopt;
  return std::make_pair(ra, rb);
}

}  // namespace parcm
