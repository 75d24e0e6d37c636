#include "semantics/interpreter.hpp"

#include "support/diagnostics.hpp"

namespace parcm {

Config::Config(const Graph& g) : pc_(g.num_regions()) {}

Config Config::initial(const Graph& g) {
  Config c(g);
  c.set_pc(g.root_region(), g.start());
  return c;
}

bool Config::terminal() const {
  for (const NodeId& n : pc_) {
    if (n.valid()) return false;
  }
  return true;
}

std::vector<std::uint32_t> Config::encode() const {
  std::vector<std::uint32_t> out;
  out.reserve(pc_.size());
  for (const NodeId& n : pc_) out.push_back(n.value());
  return out;
}

std::size_t ConfigHash::operator()(const std::vector<std::uint32_t>& v) const {
  // FNV-1a over the words.
  std::size_t h = 1469598103934665603ull;
  for (std::uint32_t w : v) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return h;
}

// A parked parent (pc on a ParEnd) may only run once every component of the
// statement has terminated.
bool thread_runnable(const Graph& g, const Config& c, RegionId r) {
  const Node& node = g.node(c.pc(r));
  if (node.kind == NodeKind::kBarrier) return false;
  if (node.kind != NodeKind::kParEnd) return true;
  for (RegionId comp : g.par_stmt(node.par_stmt).components) {
    if (c.active(comp)) return false;
  }
  return true;
}

std::vector<Transition> barrier_release_transitions(const Graph& g,
                                                    const Config& c) {
  std::vector<Transition> out;
  for (std::size_t si = 0; si < g.num_par_stmts(); ++si) {
    ParStmtId s(static_cast<ParStmtId::underlying>(si));
    bool any_waiting = false;
    bool all_waiting = true;
    for (RegionId comp : g.par_stmt(s).components) {
      if (!c.active(comp)) continue;
      if (g.node(c.pc(comp)).kind == NodeKind::kBarrier) {
        any_waiting = true;
      } else {
        all_waiting = false;
      }
    }
    if (any_waiting && all_waiting) {
      Transition t;
      t.barrier_stmt = s;
      out.push_back(t);
    }
  }
  return out;
}

void append_thread_transitions(const Graph& g, const Config& c, RegionId r,
                               const VarState* s,
                               std::vector<Transition>* out) {
  if (!thread_runnable(g, c, r)) return;
  NodeId n = c.pc(r);
  const Node& node = g.node(n);

  if (node.kind == NodeKind::kParBegin) {
    out->push_back(Transition{r, n, EdgeId(), ParStmtId()});
    return;
  }
  if (node.out_edges.empty()) {
    // Only e* has no out-edges.
    out->push_back(Transition{r, n, EdgeId(), ParStmtId()});
    return;
  }
  if (node.kind == NodeKind::kTest && s != nullptr) {
    bool taken = eval_test(g, n, *s);
    out->push_back(
        Transition{r, n, node.out_edges[taken ? 0 : 1], ParStmtId()});
    return;
  }
  for (EdgeId e : node.out_edges) {
    out->push_back(Transition{r, n, e, ParStmtId()});
  }
}

std::vector<Transition> enabled_transitions(const Graph& g, const Config& c) {
  std::vector<Transition> out;
  for (std::size_t i = 0; i < g.num_regions(); ++i) {
    RegionId r(static_cast<RegionId::underlying>(i));
    if (c.active(r)) append_thread_transitions(g, c, r, nullptr, &out);
  }
  for (Transition& t : barrier_release_transitions(g, c)) {
    out.push_back(t);
  }
  return out;
}

Config apply_transition(const Graph& g, const Config& c, const Transition& t) {
  Config out = c;
  if (t.barrier_stmt.valid()) {
    // Collective release: every waiting component steps across its barrier.
    for (RegionId comp : g.par_stmt(t.barrier_stmt).components) {
      if (!out.active(comp)) continue;
      NodeId b = out.pc(comp);
      PARCM_CHECK(g.node(b).kind == NodeKind::kBarrier,
                  "barrier release with a non-waiting component");
      PARCM_CHECK(g.node(b).out_edges.size() == 1,
                  "barrier must have one out-edge");
      NodeId target = g.edge(g.node(b).out_edges[0]).to;
      if (g.node(target).kind == NodeKind::kParEnd &&
          g.region(g.node(b).region).owner == g.node(target).par_stmt) {
        out.clear_pc(comp);
      } else {
        out.set_pc(comp, target);
      }
    }
    return out;
  }
  const Node& node = g.node(t.node);

  if (node.kind == NodeKind::kParBegin) {
    const ParStmt& stmt = g.par_stmt(node.par_stmt);
    // Park the spawner on the ParEnd; activate every component.
    out.set_pc(t.region, stmt.end);
    for (RegionId comp : stmt.components) {
      out.set_pc(comp, g.component_entry(comp));
    }
    return out;
  }
  if (!t.edge.valid()) {
    // e*: the main thread terminates.
    PARCM_CHECK(t.node == g.end(), "edge-less transition away from e*");
    out.clear_pc(t.region);
    return out;
  }
  NodeId target = g.edge(t.edge).to;
  const Node& target_node = g.node(target);
  if (target_node.kind == NodeKind::kParEnd &&
      g.region(g.node(t.node).region).owner == target_node.par_stmt) {
    // Exiting the component: this thread ends; the parked parent will run
    // the ParEnd once its siblings are done too.
    out.clear_pc(t.region);
    return out;
  }
  out.set_pc(t.region, target);
  return out;
}

}  // namespace parcm
