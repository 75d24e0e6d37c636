#include "motion/code_motion.hpp"

#include <algorithm>
#include <optional>

#include "analyses/cache.hpp"
#include "ir/printer.hpp"
#include "ir/regions.hpp"
#include "ir/transform_utils.hpp"
#include "obs/metrics.hpp"
#include "obs/remarks.hpp"
#include "support/diagnostics.hpp"

namespace parcm {

std::size_t MotionResult::num_insertions() const {
  std::size_t n = 0;
  for (const TermMotion& t : terms) n += t.insert_nodes.size();
  return n;
}

std::size_t MotionResult::num_replacements() const {
  std::size_t n = 0;
  for (const TermMotion& t : terms) n += t.replaced.size();
  return n;
}

namespace {

const char* op_word(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kMul: return "mul";
    case BinOp::kDiv: return "div";
    case BinOp::kLt: return "lt";
    case BinOp::kLe: return "le";
    case BinOp::kGt: return "gt";
    case BinOp::kGe: return "ge";
    case BinOp::kEq: return "eq";
    case BinOp::kNe: return "ne";
  }
  return "op";
}

std::string operand_word(const Graph& g, const Operand& op) {
  if (op.is_var()) return g.var_name(op.var_id());
  std::int64_t v = op.const_value();
  return v < 0 ? "m" + std::to_string(-v) : std::to_string(v);
}

}  // namespace

std::string fresh_temp_name(const Graph& g, const Term& t) {
  std::string base = "h_" + operand_word(g, t.lhs) + "_" + op_word(t.op) +
                     "_" + operand_word(g, t.rhs);
  std::string name = base;
  int suffix = 0;
  while (g.find_var(name).has_value()) {
    name = base + "_" + std::to_string(++suffix);
  }
  return name;
}

namespace {

// MUSTUSE of one term under a blocking set B (the anchors placed so far):
// the least fixpoint of
//
//   M(n) = replace(n) or (transp(n) and n not in B and n has successors
//                         and M(s) for every successor s),
//
// i.e. every maximal path from n reaches a replacement before a kill, an
// anchor or the end (loops stay false: the frontier then sinks to the
// consumer, which is always sound). Nodes materialized for earlier terms
// are temp initializations and trivial copies: transparent, never
// consumers, never anchors.
//
// Anchor sinking changes B one node at a time, and M is kept exact across
// every change instead of being re-solved:
//  - unblock(a) can only grow the least fixpoint, so the worklist simply
//    continues from a; the nodes it sets are logged;
//  - undo_unblock() re-blocks a by clearing that log, which restores the
//    fixpoint before unblock(a) exactly;
//  - block(m) can only shrink it. If m was set (and is no replacement),
//    delete-and-rederive clears m and its set ancestors — the only nodes
//    whose derivation can pass through m, since a set node has only set
//    successors up to the replacements — and re-runs the worklist on them.
class MustUse {
 public:
  MustUse(const Graph& g, const LocalPredicates& preds,
          const MotionPredicates& mp, std::size_t analyzed,
          const std::vector<char>& blocking, std::uint64_t& visits)
      : g_(g), preds_(preds), mp_(mp), analyzed_(analyzed),
        blocking_(blocking), visits_(visits) {}

  bool test(NodeId n) const { return value_[n.index()] != 0; }

  // Solves from scratch against the current blocking set.
  void reset(TermId t, const std::vector<NodeId>& replacements) {
    t_ = t;
    value_.assign(g_.num_nodes(), 0);
    queued_.assign(g_.num_nodes(), 0);
    for (NodeId n : replacements) value_[n.index()] = 1;
    for (NodeId n : replacements) enqueue_preds(n);
    solve(nullptr);
  }

  // Call after removing a from the blocking set.
  void unblock(NodeId a) {
    log_.clear();
    enqueue(a);
    solve(&log_);
  }

  // Call after putting the node of the last unblock() back.
  void undo_unblock() {
    visits_ += log_.size();
    for (NodeId n : log_) value_[n.index()] = 0;
    log_.clear();
  }

  // Call after adding m to the blocking set.
  void block(NodeId m) {
    if (m.index() >= analyzed_ || !test(m) || is_replace(m)) return;
    cleared_.clear();
    value_[m.index()] = 0;
    cleared_.push_back(m);
    for (std::size_t i = 0; i < cleared_.size(); ++i) {
      ++visits_;
      for (EdgeId e : g_.node(cleared_[i]).in_edges) {
        NodeId p = g_.edge(e).from;
        if (test(p) && !is_replace(p)) {
          value_[p.index()] = 0;
          cleared_.push_back(p);
        }
      }
    }
    for (NodeId n : cleared_) enqueue(n);
    solve(nullptr);
  }

  bool is_replace(NodeId n) const {
    return n.index() < analyzed_ && mp_.replace[n.index()].test(t_.index());
  }
  bool is_transp(NodeId n) const {
    return n.index() >= analyzed_ || preds_.transp(n, t_);
  }
  bool is_blocked(NodeId n) const {
    return n.index() < analyzed_ && blocking_[n.index()];
  }

 private:
  void enqueue(NodeId n) {
    if (!queued_[n.index()]) {
      queued_[n.index()] = 1;
      worklist_.push_back(n);
    }
  }
  void enqueue_preds(NodeId n) {
    for (EdgeId e : g_.node(n).in_edges) {
      NodeId p = g_.edge(e).from;
      if (!test(p)) enqueue(p);
    }
  }

  bool derivable(NodeId n) const {
    const Node& node = g_.node(n);
    if (!is_transp(n) || is_blocked(n) || node.out_edges.empty()) return false;
    for (EdgeId e : node.out_edges) {
      if (!test(g_.edge(e).to)) return false;
    }
    return true;
  }

  // Worklist to the least fixpoint above the current values.
  void solve(std::vector<NodeId>* log) {
    while (!worklist_.empty()) {
      NodeId n = worklist_.back();
      worklist_.pop_back();
      queued_[n.index()] = 0;
      ++visits_;
      if (test(n) || !derivable(n)) continue;
      value_[n.index()] = 1;
      if (log != nullptr) log->push_back(n);
      enqueue_preds(n);
    }
  }

  const Graph& g_;
  const LocalPredicates& preds_;
  const MotionPredicates& mp_;
  std::size_t analyzed_;
  const std::vector<char>& blocking_;
  std::uint64_t& visits_;
  TermId t_;
  std::vector<char> value_;
  std::vector<char> queued_;
  std::vector<NodeId> worklist_;
  std::vector<NodeId> log_;
  std::vector<NodeId> cleared_;
};

// Sinks anchor a of the current term against MUSTUSE (a itself unblocked);
// fills `frontier` (empty if every path dies first). Scratch is reused
// across anchors: `visited` holds the epoch of the descent that saw a node.
class AnchorSinker {
 public:
  AnchorSinker(const Graph& g, const MustUse& mustuse, std::uint64_t& visits)
      : g_(g), mustuse_(mustuse), visits_(visits) {}

  void sink(NodeId a, std::vector<NodeId>& frontier) {
    frontier.clear();
    if (mustuse_.is_replace(a)) {
      frontier.push_back(a);
      return;
    }
    // The anchor's own node kills the value; nothing to sink past.
    if (!mustuse_.is_transp(a)) return;
    if (mustuse_.test(a)) {
      frontier.push_back(a);
      return;
    }
    if (visited_.size() < g_.num_nodes()) visited_.resize(g_.num_nodes(), 0);
    ++epoch_;
    stack_.clear();
    push_succs(a);
    while (!stack_.empty()) {
      NodeId n = stack_.back();
      stack_.pop_back();
      ++visits_;
      if (g_.node(n).kind == NodeKind::kParBegin || mustuse_.test(n) ||
          mustuse_.is_replace(n)) {
        frontier.push_back(n);
        continue;
      }
      if (!mustuse_.is_transp(n)) continue;  // value dead on this path
      if (mustuse_.is_blocked(n)) continue;
      push_succs(n);
    }
  }

 private:
  void push_succs(NodeId n) {
    for (EdgeId e : g_.node(n).out_edges) {
      NodeId m = g_.edge(e).to;
      if (visited_[m.index()] != epoch_) {
        visited_[m.index()] = epoch_;
        stack_.push_back(m);
      }
    }
  }

  const Graph& g_;
  const MustUse& mustuse_;
  std::uint64_t& visits_;
  std::vector<std::uint64_t> visited_;
  std::uint64_t epoch_ = 0;
  std::vector<NodeId> stack_;
};

// Component-private temporaries (refined variant): inside a parallel
// statement where some node modifies an operand of the term, sibling
// components may write stale values into the shared temporary while another
// component (or the code after the join) still relies on it. Renaming every
// in-component access to a per-component temp removes the race; zero-cost
// trivial copies bridge the two legitimate cross-boundary flows — an
// upstream value entering a component (h_C := h at the component entry) and
// the unique operand-modifying component establishing up-safety at the exit
// (h := h_C after the ParEnd). Processes statements innermost-first so an
// outer rename uniformly captures inner bridges.
//
// Only the nodes that access the term's temporary are ever visited: the
// insertions, the replacements and the bridges, each filed under every
// component enclosing it.
class Privatizer {
 public:
  Privatizer(const Graph& g, const std::vector<BitVector>& region_mod)
      : region_mod_(region_mod), accesses_(g.num_regions()) {
    for (std::size_t i = 0; i < g.num_par_stmts(); ++i) {
      order_.push_back(ParStmtId(static_cast<ParStmtId::underlying>(i)));
    }
    std::sort(order_.begin(), order_.end(), [&](ParStmtId a, ParStmtId b) {
      return g.region_depth(g.par_stmt(a).parent_region) >
             g.region_depth(g.par_stmt(b).parent_region);
    });
  }

  void run(Graph& out, const SafetyInfo& safety, TermMotion& motion);

 private:
  // Files n under every component enclosing it, innermost first.
  void file(const Graph& g, NodeId n) {
    for (RegionId r = g.node(n).region; g.region(r).owner.valid();
         r = g.par_stmt(g.region(r).owner).parent_region) {
      std::vector<NodeId>& list = accesses_[r.index()];
      if (list.empty()) touched_.push_back(r);
      list.push_back(n);
    }
  }

  const std::vector<BitVector>& region_mod_;
  std::vector<ParStmtId> order_;  // innermost statements first
  std::vector<std::vector<NodeId>> accesses_;  // per component region
  std::vector<RegionId> touched_;
};

void Privatizer::run(Graph& out, const SafetyInfo& safety,
                     TermMotion& motion) {
  const Graph& cg = out;
  TermId t = motion.term;
  std::size_t ti = t.index();
  auto accesses_temp = [&](NodeId n) {
    const Node& node = cg.node(n);
    return node.lhs == motion.temp ||
           (node.rhs.is_trivial() && node.rhs.trivial().is_var() &&
            node.rhs.trivial().var_id() == motion.temp);
  };
  for (NodeId n : motion.insert_nodes) file(cg, n);
  for (NodeId n : motion.replaced) file(cg, n);

  for (ParStmtId s : order_) {
    const ParStmt& stmt = cg.par_stmt(s);
    bool dirty = false;
    for (RegionId comp : stmt.components) {
      dirty = dirty || region_mod_[comp.index()].test(ti);
    }
    if (!dirty) continue;

    RegionId dirty_comp;
    int dirty_count = 0;
    std::vector<std::pair<RegionId, VarId>> renamed;
    for (RegionId comp : stmt.components) {
      if (region_mod_[comp.index()].test(ti)) {
        ++dirty_count;
        dirty_comp = comp;
      }
      // Rename accesses of the shared temp within this component.
      const std::vector<NodeId>& members = accesses_[comp.index()];
      if (std::none_of(members.begin(), members.end(), accesses_temp)) {
        continue;
      }

      VarId priv = out.intern_var(out.var_name(motion.temp) + "_c" +
                                  std::to_string(comp.value()));
      PARCM_OBS_REMARK(obs::Remark{
          obs::RemarkKind::kDegraded, "",
          cg.component_entry(comp).value(),
          static_cast<std::int64_t>(t.index()),
          term_to_string(out, motion.term_value),
          "sibling components race on the shared temporary: accesses in "
          "this component renamed to " + out.var_name(priv),
          {obs::RemarkReason::kPrivatized},
          "component region r" + std::to_string(comp.value())});
      for (NodeId n : members) {
        if (!accesses_temp(n)) continue;
        Node& node = out.node(n);
        if (node.lhs == motion.temp) node.lhs = priv;
        if (node.rhs.is_trivial() && node.rhs.trivial().is_var() &&
            node.rhs.trivial().var_id() == motion.temp) {
          node.rhs = Rhs(Operand::var(priv));
        }
      }
      // Entry bridge: carry an upstream value of the shared temp in.
      NodeId bridge = out.new_assign(comp, priv, Rhs(Operand::var(motion.temp)));
      out.splice_before(bridge, cg.component_entry(comp));
      motion.bridge_nodes.push_back(bridge);
      file(cg, bridge);
      PARCM_OBS_REMARK(obs::Remark{
          obs::RemarkKind::kInserted, "", bridge.value(),
          static_cast<std::int64_t>(t.index()),
          term_to_string(out, motion.term_value),
          out.var_name(priv) + " := " + out.var_name(motion.temp) +
              " carries the upstream value into the component",
          {obs::RemarkReason::kBridgeCopy, obs::RemarkReason::kPrivatized},
          ""});
      renamed.emplace_back(comp, priv);
      motion.private_temps.emplace_back(comp, priv);
    }

    // Exit bridge: the statement exit is up-safe_par only via the unique
    // operand-modifying component; code after the join reads the shared
    // temp, so copy the establishing component's value out.
    if (s.index() < safety.up_result.stmt_summary.size() &&
        safety.up_result.stmt_summary[s.index()].tt.test(ti) &&
        dirty_count == 1) {
      for (const auto& [comp, priv] : renamed) {
        if (comp != dirty_comp) continue;
        avector<EdgeId> outgoing = cg.node(stmt.end).out_edges;
        for (EdgeId e : outgoing) {
          NodeId bridge = out.new_assign(edge_region(out, e), motion.temp,
                                         Rhs(Operand::var(priv)));
          wire_on_edge(out, e, bridge);
          motion.bridge_nodes.push_back(bridge);
          file(cg, bridge);
        }
      }
    }
  }

  for (RegionId r : touched_) accesses_[r.index()].clear();
  touched_.clear();
}

}  // namespace

MotionResult run_code_motion(const Graph& g, const CodeMotionConfig& config) {
  PARCM_OBS_TIMER("motion.run_code_motion");
  MotionResult res{g, 0, {}, {}, {}};
  Graph& out = res.graph;

  res.synthetic_nodes = split_join_edges(out);

  // One cache lookup covers TermTable + LocalPredicates; repeated passes
  // over an unchanged graph (and benchmark loops rebuilding identical
  // programs) skip the rebuild entirely.
  std::shared_ptr<const AnalysisBundle> analyses =
      analysis_cache().acquire(out);
  const TermTable& terms = analyses->terms;
  const LocalPredicates& preds = analyses->preds;
  res.safety = compute_safety(out, preds, config.variant);
  MotionPredicateOptions mp_options;
  mp_options.parend_export_rule = config.parend_export_rule;
  res.predicates = compute_motion_predicates(out, preds, res.safety,
                                             mp_options);

  PARCM_OBS_TIMER("motion.placement");

  // Reads go through the const view: the non-const Graph::node() bumps the
  // version on every call. The node set is about to grow; ids below
  // `analyzed` are the nodes the analyses describe.
  const Graph& cg = out;
  const std::size_t analyzed = cg.num_nodes();
  std::uint64_t visits = 0;

  // Per term: its Earliest candidates and its replacements, in node order
  // (one transpose of the per-node bitvectors).
  std::vector<std::vector<NodeId>> earliest_of(terms.size());
  std::vector<std::vector<NodeId>> replace_of(terms.size());
  for (NodeId n : cg.all_nodes()) {
    res.predicates.earliest[n.index()].for_each_set_bit(
        [&](std::size_t t) { earliest_of[t].push_back(n); });
    res.predicates.replace[n.index()].for_each_set_bit(
        [&](std::size_t t) { replace_of[t].push_back(n); });
  }

  // Per component region: terms computed / modified anywhere in its subtree
  // (children have larger region ids than their parents, so one descending
  // sweep folds every subtree into its root).
  // Down-safety legitimately flows backward across a ParEnd into components
  // that are completely transparent for a term (the anticipated use lies
  // behind the join), which makes their entries Earliest. An insertion
  // there is never needed for coverage — no replacement inside the
  // component consumes it and the post-join uses are covered by the
  // establishing components or their own insertions — and it would move a
  // computation *into* a parallel component that never performed it
  // (potentially the bottleneck). Suppress those insertions.
  std::vector<BitVector> region_comp(cg.num_regions(),
                                     BitVector(terms.size()));
  std::vector<BitVector> region_mod(cg.num_regions(),
                                    BitVector(terms.size()));
  // A barrier inside the subtree makes a component non-transparent for
  // coverage even when it neither computes nor modifies anything: the
  // barrier kills down-safety, so the Earliest frontier of a post-join use
  // can lie entirely *inside* such components — suppressing those inserts
  // leaves the replacement reading an uninitialized temporary (found by
  // parcm_fuzz: nested par around a barrier plus any post-join occurrence).
  std::vector<char> region_barrier(cg.num_regions(), 0);
  auto parent_region = [&](std::size_t ri) {
    RegionId r(static_cast<RegionId::underlying>(ri));
    return cg.par_stmt(cg.region(r).owner).parent_region.index();
  };
  for (NodeId n : cg.all_nodes()) {
    std::size_t ri = cg.node(n).region.index();
    region_comp[ri] |= preds.comp(n);
    region_mod[ri] |= preds.mod(n);
    if (cg.node(n).kind == NodeKind::kBarrier) region_barrier[ri] = 1;
  }
  for (std::size_t ri = cg.num_regions(); ri-- > 1;) {
    std::size_t pi = parent_region(ri);
    region_comp[pi] |= region_comp[ri];
    region_mod[pi] |= region_mod[ri];
    region_barrier[pi] |= region_barrier[ri];
  }
  // Terms whose insertion is useless in a region: some enclosing component
  // neither computes nor modifies the term and holds no barrier.
  std::vector<BitVector> useless(cg.num_regions(), BitVector(terms.size()));
  for (std::size_t ri = 1; ri < cg.num_regions(); ++ri) {
    useless[ri] = useless[parent_region(ri)];
    if (!region_barrier[ri]) {
      BitVector idle = region_comp[ri] | region_mod[ri];
      idle.invert();
      useless[ri] |= idle;
    }
  }

  // A second profitability pass: in parallel programs the Earliest frontier
  // need not be an antichain — interference (NonDest) can end a down-safe
  // region inside a component and a fresh anchor fires again behind the
  // join, so a path through the component would initialize the temporary
  // twice, violating the executional-improvement guarantee the busy formula
  // enjoys sequentially. Anchors therefore *sink*: an anchor stays only
  // where every continuation must reach a consumer (a replacement) before a
  // kill, another anchor or the end (MUSTUSE); otherwise it moves down to
  // the frontier where that becomes true (in the worst case, onto the
  // consumers themselves — the cost-neutral in-place initialization).
  // Descents never enter a ParBegin: placing one anchor per component would
  // multiply the computation across sibling executions, so the anchor stops
  // at the statement entry. Paths on which the descent dies need no anchor
  // at all — which also erases anchors made fully redundant by a later one.
  std::vector<char> in_set;
  MustUse mustuse(cg, preds, res.predicates, analyzed, in_set, visits);
  AnchorSinker sinker(cg, mustuse, visits);
  std::vector<NodeId> frontier;

  std::optional<Privatizer> privatizer;
  if (config.variant == SafetyVariant::kRefined && config.privatize_temps &&
      cg.num_par_stmts() > 0) {
    privatizer.emplace(cg, region_mod);
  }

  // Reused across terms: emit_batch leaves the capacity in place, so the
  // hot replacement loop allocates a remark buffer once per run.
  std::vector<obs::Remark> replace_batch;

  for (TermId t : terms.all()) {
    TermMotion motion;
    motion.term = t;
    motion.term_value = terms.term(t);
    motion.temp = out.intern_var(fresh_temp_name(out, motion.term_value));

    // Remark emission is hot on large programs (one remark per insertion
    // and replacement); hoist the per-term invariant strings so each
    // emission copies instead of re-rendering.
    std::string term_str, replace_msg;
    obs::ReasonChain replace_why[4];
    if (PARCM_OBS_REMARKS_ON()) {
      term_str = term_to_string(out, motion.term_value);
      replace_msg =
          "computation replaced by the temporary " + out.var_name(motion.temp);
      // Index: bit 0 = up-safe, bit 1 = down-safe.
      for (int mask = 0; mask < 4; ++mask) {
        replace_why[mask].push_back(obs::RemarkReason::kComputes);
        if (mask & 1) replace_why[mask].push_back(obs::RemarkReason::kUpSafe);
        if (mask & 2) replace_why[mask].push_back(obs::RemarkReason::kDownSafe);
      }
    }

    in_set.assign(cg.num_nodes(), 0);
    std::vector<NodeId> candidates;
    for (NodeId n : earliest_of[t.index()]) {
      if (useless[cg.node(n).region.index()].test(t.index())) {
        PARCM_OBS_REMARK(obs::Remark{
            obs::RemarkKind::kBlocked, "", n.value(),
            static_cast<std::int64_t>(t.index()),
            term_str,
            "insertion would move the computation into a parallel component "
            "that never performs it: the component could become the "
            "bottleneck",
            {obs::RemarkReason::kEarliest, obs::RemarkReason::kBottleneck},
            ""});
        continue;
      }
      in_set[n.index()] = 1;
      candidates.push_back(n);
    }
    // Sink each candidate against the current set (sequential updates keep
    // mutually-blocking anchors from vanishing together).
    std::vector<NodeId> anchors;
    if (config.sink_anchors && !candidates.empty()) {
      mustuse.reset(t, replace_of[t.index()]);
      for (NodeId a : candidates) {
        in_set[a.index()] = 0;
        mustuse.unblock(a);
        sinker.sink(a, frontier);
        // An anchor in its own frontier goes back into the set: restore
        // the fixpoint from before unblock(a), then add the rest.
        if (std::find(frontier.begin(), frontier.end(), a) != frontier.end()) {
          in_set[a.index()] = 1;
          mustuse.undo_unblock();
          anchors.push_back(a);
        }
        for (NodeId m : frontier) {
          if (!in_set[m.index()]) {
            in_set[m.index()] = 1;
            mustuse.block(m);
            anchors.push_back(m);
          }
        }
        if (PARCM_OBS_REMARKS_ON()) {
          if (frontier.empty()) {
            PARCM_OBS_REMARK(obs::Remark{
                obs::RemarkKind::kSkipped, "", a.value(),
                static_cast<std::int64_t>(t.index()),
                term_str,
                "anchor dropped: every continuation kills the value before "
                "any consumer needs it",
                {obs::RemarkReason::kValueDies},
                ""});
          } else if (frontier.size() != 1 || frontier.front() != a) {
            std::string where;
            for (NodeId m : frontier) {
              if (!where.empty()) where += ", ";
              where += "n" + std::to_string(m.value());
            }
            PARCM_OBS_REMARK(obs::Remark{
                obs::RemarkKind::kDegraded, "", a.value(),
                static_cast<std::int64_t>(t.index()),
                term_str,
                "earliest anchor is not executionally optimal here: a path "
                "would initialize the temporary twice, so the anchor sinks",
                {obs::RemarkReason::kAnchorSunk},
                "frontier: " + where});
          }
        }
      }
    }
    for (NodeId a : candidates) {
      if (in_set[a.index()]) anchors.push_back(a);
    }
    std::sort(anchors.begin(), anchors.end());
    anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
    // Drop anchors that another anchor made stale (a sunk frontier landing
    // on a node already in the set was deduped by in_set above).
    for (NodeId n : anchors) {
      if (!in_set[n.index()]) continue;
      motion.insert_points.push_back(n);
      // Provenance of the placement decision: the reason chain names the
      // dataflow facts that justify the anchor, and flags the Fig. 7 case —
      // an initialization after a join whose components are individually
      // down-safe but whose safety witnesses differ per interleaving (P3).
      obs::ReasonChain why;
      NodeKind kind = cg.node(n).kind;
      bool edge_wise = n == cg.start() || kind == NodeKind::kParEnd;
      if (PARCM_OBS_REMARKS_ON()) {
        why.push_back(obs::RemarkReason::kEarliest);
        why.push_back(obs::RemarkReason::kDownSafe);
        if (edge_wise) why.push_back(obs::RemarkReason::kEdgePlacement);
        if (kind == NodeKind::kParEnd) {
          ParStmtId s = cg.node(n).par_stmt;
          if (s.valid() &&
              s.index() < res.safety.up_result.stmt_summary.size() &&
              res.safety.up_result.stmt_summary[s.index()].ff.test(
                  t.index())) {
            why.push_back(obs::RemarkReason::kWitnessDiffers);
          }
        }
      }
      // "Insert at n" = initialize before n's statement runs. The start
      // node has no incoming edges, and inserting *before* a ParEnd would
      // pull the initialization inside the synchronization, so those two
      // anchor on each outgoing edge instead (edge-wise placement keeps the
      // node's branch structure intact for path pairing).
      if (edge_wise) {
        avector<EdgeId> outgoing = cg.node(n).out_edges;
        for (EdgeId e : outgoing) {
          NodeId init = out.new_assign(edge_region(out, e), motion.temp,
                                       Rhs(motion.term_value));
          wire_on_edge(out, e, init);
          motion.insert_nodes.push_back(init);
          PARCM_OBS_REMARK(obs::Remark{
              obs::RemarkKind::kInserted, "", n.value(),
              static_cast<std::int64_t>(t.index()),
              term_str,
              "initialize " + out.var_name(motion.temp) +
                  " on the outgoing edge (node n" +
                  std::to_string(init.value()) + ")",
              why, ""});
        }
      } else {
        NodeId init = out.new_assign(cg.node(n).region, motion.temp,
                                     Rhs(motion.term_value));
        out.splice_before(init, n);
        motion.insert_nodes.push_back(init);
        PARCM_OBS_REMARK(obs::Remark{
            obs::RemarkKind::kInserted, "", n.value(),
            static_cast<std::int64_t>(t.index()),
            term_str,
            "initialize " + out.var_name(motion.temp) +
                " immediately before this node (node n" +
                std::to_string(init.value()) + ")",
            why, ""});
      }
    }

    for (NodeId n : replace_of[t.index()]) {
      PARCM_CHECK(cg.node(n).kind == NodeKind::kAssign,
                  "replacement at a non-assignment");
      out.node(n).rhs = Rhs(Operand::var(motion.temp));
      motion.replaced.push_back(n);
      if (PARCM_OBS_REMARKS_ON()) {
        int mask =
            (res.safety.upsafe[n.index()].test(t.index()) ? 1 : 0) |
            (res.safety.dnsafe[n.index()].test(t.index()) ? 2 : 0);
        replace_batch.push_back(obs::Remark{
            obs::RemarkKind::kReplaced, "", n.value(),
            static_cast<std::int64_t>(t.index()),
            term_str, replace_msg, replace_why[mask], ""});
      }
    }
    if (!replace_batch.empty()) {
      obs::remarks().emit_batch(replace_batch);
    }

    if (privatizer &&
        (!motion.insert_nodes.empty() || !motion.replaced.empty())) {
      privatizer->run(out, res.safety, motion);
    }

    if (!motion.insert_nodes.empty() || !motion.replaced.empty()) {
      res.terms.push_back(std::move(motion));
    }
  }

  PARCM_OBS_COUNT("motion.runs", 1);
  PARCM_OBS_COUNT("motion.synthetic_nodes", res.synthetic_nodes);
  PARCM_OBS_COUNT("motion.terms_considered", terms.size());
  PARCM_OBS_COUNT("motion.terms_moved", res.terms.size());
  PARCM_OBS_COUNT("motion.insertions", res.num_insertions());
  PARCM_OBS_COUNT("motion.replacements", res.num_replacements());
  PARCM_OBS_COUNT("motion.placement_visits", visits);
  return res;
}

}  // namespace parcm
