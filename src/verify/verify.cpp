#include "verify/verify.hpp"

#include <algorithm>
#include <sstream>

#include "motion/pcm.hpp"
#include "obs/metrics.hpp"
#include "obs/remarks.hpp"
#include "semantics/equivalence.hpp"
#include "support/rng.hpp"
#include "vm/bytecode.hpp"
#include "vm/executor.hpp"

namespace parcm::verify {

SampledFinals sample_finals(const Graph& g,
                            const std::vector<std::string>& observed,
                            bool split_assignments, std::size_t schedules,
                            std::size_t max_steps, std::uint64_t seed,
                            std::uint64_t stream) {
  SampledFinals out;
  vm::LowerOptions lower;
  lower.split_assignments = split_assignments;
  vm::VmProgram program = vm::lower_to_bytecode(g, lower);
  vm::SeededRunner runner(program);
  std::vector<std::optional<VarId>> proj;
  proj.reserve(observed.size());
  for (const std::string& name : observed) proj.push_back(g.find_var(name));
  vm::ExecLimits limits;
  limits.max_steps = max_steps;
  PARCM_OBS_COUNT("verify.sample_schedules", schedules);
  for (std::size_t i = 0; i < schedules; ++i) {
    limits.schedule_bias = i % 3 == 0 ? 0 : (i % 3 == 1 ? -1 : 1);
    vm::ExecResult r = runner.run(mix64(seed ^ mix64(stream) ^ i), limits);
    if (!r.ok) continue;  // step budget: a spinning nondeterministic loop
    ++out.completed;
    FinalRow row;
    row.reserve(proj.size());
    for (const std::optional<VarId>& v : proj) {
      row.push_back(v.has_value() ? r.store[v->index()] : 0);
    }
    out.finals.insert(std::move(row));
  }
  return out;
}

void decide_sampled(Verdict* v, const SampledFinals& transformed,
                    std::set<FinalRow> reference, bool complete,
                    const std::function<bool(std::set<FinalRow>*)>& deepen,
                    const Graph& before,
                    const std::vector<obs::Remark>* remarks,
                    [[maybe_unused]] const std::string& counter_prefix) {
  if (transformed.completed == 0 || reference.empty()) {
    v->status = Status::kInconclusive;
    PARCM_OBS_COUNT(counter_prefix + "inconclusive", 1);
    return;
  }
  auto first_missing = [&]() -> const FinalRow* {
    for (const FinalRow& row : transformed.finals) {
      if (!reference.contains(row)) return &row;
    }
    return nullptr;
  };
  const FinalRow* bad = first_missing();
  if (bad != nullptr && !complete) {
    complete = deepen(&reference);
    bad = first_missing();
  }
  v->original_behaviours = reference.size();
  v->transformed_behaviours = transformed.finals.size();
  if (bad != nullptr) {
    v->witness = *bad;
    if (!complete) {
      // Indistinguishable from a missed rare original behaviour; keep the
      // candidate as a diagnostic witness but claim nothing.
      v->status = Status::kInconclusive;
      PARCM_OBS_COUNT(counter_prefix + "inconclusive", 1);
      return;
    }
    // The reference is the complete original behaviour set and the row came
    // from a genuine transformed execution: a real divergence, even though
    // the verdict is labelled sampled (the transformed side was not
    // exhausted).
    v->status = Status::kDiverged;
    PARCM_OBS_COUNT(counter_prefix + "diverged", 1);
    classify_divergence(v, before, remarks);
    return;
  }
  v->status = std::includes(transformed.finals.begin(),
                            transformed.finals.end(), reference.begin(),
                            reference.end())
                  ? Status::kEquivalent
                  : Status::kConsistent;
}

void classify_divergence(Verdict* v, const Graph& before,
                         const std::vector<obs::Remark>* remarks) {
  if (remarks != nullptr) v->pitfalls = pitfalls_from_remarks(*remarks);
  if (!v->pitfalls.empty()) return;
  // A divergent pipeline's own remark stream rarely names a pitfall: the
  // P2/P3 reasons are emitted by the refined analyses when they *block* a
  // placement, and a broken variant went ahead instead of blocking. Re-run
  // refined PCM on the original program and harvest its blocking reasons —
  // whatever the refined analyses guard against on this program is the
  // prime suspect for what the checked transformation tripped over.
  obs::RemarkSink sink;
  sink.set_enabled(true);
  obs::RemarkSink* prev = obs::set_remark_sink(&sink);
  try {
    parallel_code_motion(before);
  } catch (...) {
    obs::set_remark_sink(prev);
    return;  // classification is best-effort; the verdict stands either way
  }
  obs::set_remark_sink(prev);
  std::vector<obs::Remark> refined = sink.snapshot();
  v->pitfalls = pitfalls_from_remarks(refined);
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kEquivalent: return "equivalent";
    case Status::kConsistent: return "consistent";
    case Status::kDiverged: return "diverged";
    case Status::kInconclusive: return "inconclusive";
  }
  return "?";
}

std::string Verdict::witness_text() const {
  if (!witness.has_value()) return {};
  std::ostringstream os;
  for (std::size_t i = 0; i < witness->size() && i < observed.size(); ++i) {
    if (i > 0) os << " ";
    os << observed[i] << "=" << (*witness)[i];
  }
  return os.str();
}

std::string Verdict::summary() const {
  std::ostringstream os;
  os << status_name(status) << " (" << (exact ? "exact" : "sampled") << "): "
     << original_behaviours << " original / " << transformed_behaviours
     << " transformed behaviours";
  if (witness.has_value()) {
    os << " — transformed-only final state " << witness_text();
  }
  if (!pitfalls.empty()) {
    os << " — suspects:";
    for (const std::string& p : pitfalls) os << " " << p;
  }
  return os.str();
}

std::vector<std::string> pitfalls_from_remarks(
    const std::vector<obs::Remark>& remarks) {
  bool seen[3] = {false, false, false};
  for (const obs::Remark& r : remarks) {
    for (obs::RemarkReason reason : r.reasons) {
      const char* tag = obs::remark_reason_pitfall(reason);
      if (tag != nullptr && tag[0] == 'P') {
        int idx = tag[1] - '1';
        if (idx >= 0 && idx < 3) seen[idx] = true;
      }
    }
  }
  std::vector<std::string> out;
  for (int i = 0; i < 3; ++i) {
    if (seen[i]) out.push_back(std::string("P") + static_cast<char>('1' + i));
  }
  return out;
}

Verdict differential_check(const Graph& before, const Graph& after,
                           const Budget& budget,
                           const std::vector<obs::Remark>* remarks) {
  PARCM_OBS_TIMER("verify.differential_check");
  PARCM_OBS_COUNT("verify.checks", 1);
  Verdict v;
  v.observed = all_var_names(before);

  if (before.num_nodes() <= budget.max_exact_nodes &&
      after.num_nodes() <= budget.max_exact_nodes) {
    EnumerationOptions opts;
    opts.max_states = budget.max_states;
    opts.atomic_assignments = !budget.split_assignments;
    opts.partial_order_reduction = true;
    ConsistencyVerdict cv =
        check_sequential_consistency(before, after, v.observed, opts);
    if (cv.exhausted) {
      PARCM_OBS_COUNT("verify.exact", 1);
      v.exact = true;
      v.original_behaviours = cv.original_behaviours;
      v.transformed_behaviours = cv.transformed_behaviours;
      if (!cv.sequentially_consistent) {
        v.status = Status::kDiverged;
        v.witness = cv.violation_witness;
        PARCM_OBS_COUNT("verify.diverged", 1);
        classify_divergence(&v, before, remarks);
      } else {
        v.status = cv.behaviours_preserved ? Status::kEquivalent
                                           : Status::kConsistent;
      }
      return v;
    }
  }

  // Sampled fallback. The reference set is every original behaviour we can
  // get our hands on: a (possibly partial) enumeration plus the original's
  // own sampled schedules. Both are genuine behaviours, so a sampled
  // transformed-only state really is outside the *observed* reference — but
  // the reference may be incomplete, hence exact=false on every verdict
  // from this path.
  PARCM_OBS_COUNT("verify.sampled", 1);
  EnumerationOptions partial;
  partial.max_states = budget.max_states;
  partial.atomic_assignments = !budget.split_assignments;
  partial.partial_order_reduction = true;
  EnumerationResult ref = enumerate_executions(before, v.observed, partial);

  auto sample = [&](const Graph& g, std::uint64_t stream) {
    return sample_finals(g, v.observed, budget.split_assignments,
                         budget.samples, budget.max_steps, budget.sample_seed,
                         stream);
  };
  SampledFinals orig = sample(before, 1);
  SampledFinals trans = sample(after, 2);
  std::set<FinalRow> reference = std::move(ref.finals);
  reference.insert(orig.finals.begin(), orig.finals.end());
  // The reference enumeration was truncated, so a "transformed-only" row is
  // more often a missed original behaviour than a miscompile (the
  // transformation stretches rare interleaving windows, biasing the
  // transformed sampler toward states the original sampler almost never
  // hits). Deepen the one-sided enumeration before alarming: it is far
  // cheaper than the two-sided consistency product, and every state it
  // visits is exact reachability evidence.
  auto deepen = [&](std::set<FinalRow>* more) {
    PARCM_OBS_COUNT("verify.deep_probes", 1);
    partial.max_states = budget.max_states * 8;
    EnumerationResult deep = enumerate_executions(before, v.observed, partial);
    more->insert(deep.finals.begin(), deep.finals.end());
    return deep.exhausted;
  };
  decide_sampled(&v, trans, std::move(reference), ref.exhausted, deepen,
                 before, remarks, "verify.");
  return v;
}

}  // namespace parcm::verify
