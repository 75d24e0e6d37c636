#include "semantics/product.hpp"

#include <deque>
#include <unordered_map>

#include "dfa/seq_solver.hpp"
#include "obs/metrics.hpp"
#include "support/diagnostics.hpp"
#include "vm/executor.hpp"

namespace parcm {

namespace {

// Product node identity: (original node executed, machine state reached).
struct Key {
  NodeId origin;
  vm::MachineState state;

  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    return vm::MachineStateHash{}(k.state) * 1099511628211ull ^
           k.origin.value();
  }
};

// A frontier entry: a state and the product node that reached it. `inside`
// is valid when the state is mid-node — task `inside` executed the effect
// of a statement with several out-edges and its kChoose, which belongs to
// the same graph node, is still to come.
struct Entry {
  vm::MachineState state;
  NodeId pnode;
  RegionId inside;
};

}  // namespace

ProductProgram build_product(const Graph& g, std::size_t max_states) {
  PARCM_OBS_TIMER("semantics.build_product");
  for (NodeId n : g.all_nodes()) {
    PARCM_CHECK(g.node(n).kind != NodeKind::kBarrier,
                "product construction does not support barriers (collective "
                "releases have no single-node occurrence)");
  }
  ProductProgram pp;
  Graph& pg = pp.graph;

  // Mirror the variable numbering so statements can be copied verbatim.
  for (std::size_t v = 0; v < g.num_vars(); ++v) {
    pg.intern_var(g.var_name(VarId(static_cast<VarId::underlying>(v))));
  }

  pp.origin.assign(2, NodeId());
  pp.origin[pg.start().index()] = g.start();
  pp.origin[pg.end().index()] = g.end();

  // The product abstracts data, as the paper's analyses do: with the
  // assignments' effects erased the machine states are pure control states.
  vm::LowerOptions atomic;
  atomic.split_assignments = false;
  vm::VmProgram p = vm::lower_to_bytecode(g, atomic);
  for (vm::Instr& in : p.code) {
    if (in.op == vm::Op::kAssign) in.op = vm::Op::kNop;
  }
  p.num_vars = 0;

  std::unordered_map<Key, NodeId, KeyHash> index;
  std::deque<Entry> frontier;
  frontier.push_back(Entry{vm::MachineState(p), pg.start(), RegionId()});

  auto make_node = [&](NodeId orig) {
    const Node& node = g.node(orig);
    NodeId pn;
    if (node.kind == NodeKind::kAssign) {
      pn = pg.new_assign(pg.root_region(), node.lhs, node.rhs);
    } else {
      pn = pg.new_node(NodeKind::kSynthetic, pg.root_region());
    }
    pp.origin.push_back(orig);
    return pn;
  };

  std::vector<RegionId> woken;
  while (!frontier.empty()) {
    Entry e = std::move(frontier.front());
    frontier.pop_front();

    for (std::size_t i = 0; i < p.num_regions; ++i) {
      RegionId r(static_cast<RegionId::underlying>(i));
      if (!e.state.ready(r) || (e.inside.valid() && r != e.inside)) continue;
      const vm::Instr& in = p.code[e.state.pc(r)];
      for (std::uint32_t alt = 0; alt < vm::num_alternatives(in); ++alt) {
        if (in.src == g.end()) {
          pg.add_edge(e.pnode, pg.end());
          continue;
        }
        vm::MachineState next = e.state;
        woken.clear();
        vm::step(p, next, r, alt, &woken);
        if (in.src == g.start()) {
          // Executing s* is folded into the product start node (s* is skip
          // and runs exactly once, so no separate occurrence is needed).
          frontier.push_back(Entry{std::move(next), pg.start(), RegionId()});
          continue;
        }
        if (next.ready(r) && next.pc(r) != vm::kHaltPc &&
            p.code[next.pc(r)].op == vm::Op::kChoose &&
            p.code[next.pc(r)].src == in.src) {
          frontier.push_back(Entry{std::move(next), e.pnode, r});
          continue;
        }
        Key key{in.src, std::move(next)};
        auto it = index.find(key);
        if (it == index.end()) {
          if (index.size() >= max_states) {
            pp.exhausted = false;
            continue;
          }
          NodeId pn = make_node(in.src);
          it = index.emplace(key, pn).first;
          frontier.push_back(Entry{std::move(key.state), pn, RegionId()});
        }
        pg.add_edge(e.pnode, it->second);
      }
    }
  }

  pp.num_configs = pp.origin.size();
  PARCM_OBS_COUNT("semantics.product.builds", 1);
  PARCM_OBS_COUNT("semantics.product.nodes", pg.num_nodes());
  if (!pp.exhausted) PARCM_OBS_COUNT("semantics.product.truncated", 1);
  if (g.num_nodes() > 0) {
    // Product-state blowup of the most recent construction.
    PARCM_OBS_GAUGE("semantics.product.last_blowup",
                    static_cast<double>(pg.num_nodes()) /
                        static_cast<double>(g.num_nodes()));
  }
  return pp;
}

PmopResult solve_pmop_via_product(const Graph& g, const ProductProgram& prod,
                                  const PackedProblem& p) {
  PARCM_CHECK(prod.exhausted,
              "PMOP reference requires a complete product program");
  SeqProblem sp;
  sp.dir = p.dir;
  sp.num_terms = p.num_terms;
  sp.boundary = p.boundary;
  sp.gen.reserve(prod.graph.num_nodes());
  sp.kill.reserve(prod.graph.num_nodes());
  for (NodeId q : prod.graph.all_nodes()) {
    NodeId orig = prod.origin[q.index()];
    sp.gen.push_back(p.gen[orig.index()]);
    sp.kill.push_back(p.kill[orig.index()]);
  }
  SeqResult sr = solve_seq(prod.graph, sp);

  PmopResult res;
  res.entry.assign(g.num_nodes(), BitVector(p.num_terms, true));
  res.out.assign(g.num_nodes(), BitVector(p.num_terms, true));
  for (NodeId q : prod.graph.all_nodes()) {
    NodeId orig = prod.origin[q.index()];
    res.entry[orig.index()] &= sr.entry[q.index()];
    res.out[orig.index()] &= sr.out[q.index()];
  }
  return res;
}

}  // namespace parcm
