#include "verify/vm_oracle.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "semantics/enumerator.hpp"
#include "semantics/equivalence.hpp"

namespace parcm::verify {

Verdict vm_differential_check(const Graph& before, const Graph& after,
                              const VmBudget& budget,
                              const std::vector<obs::Remark>* remarks) {
  PARCM_OBS_TIMER("verify.vm_differential_check");
  PARCM_OBS_COUNT("verify.vm_checks", 1);
  Verdict v;
  v.observed = all_var_names(before);
  auto sample = [&](const Graph& g, std::size_t schedules,
                    std::uint64_t stream) {
    // Split lowering: the semantics of record.
    return sample_finals(g, v.observed, true, schedules, budget.max_steps,
                         budget.seed, stream);
  };
  // Fast path: every sampled original final is a genuine behaviour, so
  // containment needs no enumeration at all — the common (clean) case costs
  // exactly 2 * schedules executions.
  SampledFinals orig = sample(before, budget.schedules, 1);
  SampledFinals trans = sample(after, budget.schedules, 2);

  auto deepen = [&](std::set<FinalRow>* reference) {
    // A racy-but-legal final the base sample missed is far more common
    // than a real divergence, and 3x more schedules cost ~nothing next to
    // a POR enumeration: deepen the original-side sample before reaching
    // for the enumerator.
    PARCM_OBS_COUNT("verify.vm_deepenings", 1);
    SampledFinals more = sample(before, budget.schedules * 3, 3);
    reference->insert(more.finals.begin(), more.finals.end());
    if (std::includes(reference->begin(), reference->end(),
                      trans.finals.begin(), trans.finals.end()) ||
        before.num_nodes() > budget.max_exact_nodes) {
      return false;
    }
    // Candidate divergence: the schedule sampler missed something, or the
    // transformation manufactured a new behaviour. Only a *complete*
    // one-sided enumeration of the original can tell them apart; it is far
    // cheaper than the two-sided product the exact oracle builds.
    PARCM_OBS_COUNT("verify.vm_escalations", 1);
    EnumerationOptions opts;
    opts.max_states = budget.max_states;
    opts.atomic_assignments = false;  // split semantics, like the samples
    opts.partial_order_reduction = true;
    EnumerationResult ref = enumerate_executions(before, v.observed, opts);
    if (!ref.exhausted) {
      opts.max_states = budget.max_states * 8;
      ref = enumerate_executions(before, v.observed, opts);
    }
    reference->insert(ref.finals.begin(), ref.finals.end());
    return ref.exhausted;
  };
  decide_sampled(&v, trans, std::move(orig.finals), false, deepen, before,
                 remarks, "verify.vm_");
  return v;
}

}  // namespace parcm::verify
