// Translation-validation oracle: differential behaviour comparison of a
// graph before and after a transformation.
//
// The paper's correctness notion is semantic — a placement is admissible
// iff the transformed program is sequentially consistent with the original
// under *every* interleaving — and its three pitfalls (P1 optimality, P2
// recursive assignments, P3 up-/down-safety) are exactly the ways naive
// code motion silently breaks that. differential_check is the standing
// oracle: exact behaviour-set comparison via the POR-pruned enumerator for
// small programs, stratified seeded VM schedules (vm::DetMachine, the
// sampler both oracles share) above the size budget, and divergence
// classification against P1/P2/P3 through the optimization-remark
// provenance of the transforming pass.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ir/graph.hpp"
#include "obs/remarks.hpp"

namespace parcm::verify {

struct Budget {
  // Graphs up to this many nodes (both sides) are checked exactly by
  // exhaustive enumeration; larger ones fall back to sampling.
  std::size_t max_exact_nodes = 72;
  // State cap for the exact enumerator; hitting it also demotes to sampling.
  std::size_t max_states = 1u << 19;
  // Sampled mode: total schedules per side, rotated over the scheduler
  // strata of sample_finals (uniform, left-biased, right-biased) so
  // near-sequential and adversarial interleavings are all represented.
  std::size_t samples = 192;
  // Instruction cap per sampled schedule (nondeterministic loops may spin).
  std::size_t max_steps = 20000;
  // Base of the fixed RNG streams: same seed, same schedules, same verdict.
  std::uint64_t sample_seed = 0x5EEDC0DEuLL;
  // Semantics of record. The paper's transformation initialises h_t := t and
  // replaces x := t by x := h_t, which splits one assignment into two
  // interleaving points — behaviour-preserving only under the Remark 2.1
  // *split-assignment* model where evaluation of t and the write to x were
  // separately interleavable to begin with. Defaulting to atomic assignments
  // would make the oracle flag correct PCM output (phantom "new" behaviours
  // that are really just the split made visible), so split is the default;
  // set false to check transformations that keep assignments whole.
  bool split_assignments = true;
};

enum class Status : std::uint8_t {
  kEquivalent,    // behaviour sets identical
  kConsistent,    // transformed ⊆ original (admissible; motion may not shrink
                  // the set, so kEquivalent is the expected verdict)
  kDiverged,      // a transformed-only behaviour exists (witness recorded)
  kInconclusive,  // budget exhausted before any verdict — including the case
                  // of a sampled transformed-only state against an original
                  // whose behaviour set could not be enumerated to
                  // completion (e.g. value-divergent nondeterministic
                  // loops): indistinguishable from a missed rare original
                  // behaviour, so no divergence is claimed (the candidate
                  // state is still recorded as `witness` for diagnostics)
};

const char* status_name(Status s);

struct Verdict {
  Status status = Status::kInconclusive;
  // true: verdict from exhaustive enumeration (ground truth). false: from
  // sampled schedules against a possibly partial reference set — a sampled
  // kDiverged should be re-checked exactly before being believed (the fuzz
  // driver escalates automatically).
  bool exact = false;
  std::size_t original_behaviours = 0;
  std::size_t transformed_behaviours = 0;
  // Variables projected (interning order of the original graph).
  std::vector<std::string> observed;
  // A transformed-only final state, ordered as `observed`, when diverged.
  std::optional<std::vector<std::int64_t>> witness;
  // Pitfall tags ("P1"/"P2"/"P3") present in the transforming pass's remark
  // stream — the provenance-based suspects for a divergence.
  std::vector<std::string> pitfalls;

  bool ok() const {
    return status == Status::kEquivalent || status == Status::kConsistent;
  }
  // "v0=1 v1=3" rendering of the witness; empty when none.
  std::string witness_text() const;
  // One-line human verdict, e.g.
  // "diverged (exact): transformed-only final state v0=1 — suspects: P3".
  std::string summary() const;
};

// Compares observable behaviours of `before` and `after` projected onto the
// variables of `before`. When `remarks` is given (the remark stream captured
// around the transformation), divergences carry the pitfall suspects found
// in it. Deterministic for fixed inputs and budget.
Verdict differential_check(const Graph& before, const Graph& after,
                           const Budget& budget = {},
                           const std::vector<obs::Remark>* remarks = nullptr);

// Distinct pitfall tags ("P1", "P2", "P3") appearing in any reason chain of
// the stream, in tag order. Exposed for tests and the explain tooling.
std::vector<std::string> pitfalls_from_remarks(
    const std::vector<obs::Remark>& remarks);

// Fills v->pitfalls with the P1/P2/P3 suspects for a divergence: first from
// the supplied remark stream, and — when that stream names none, the usual
// case for a transformation that went ahead instead of blocking — by
// re-running refined PCM on `before` under a private sink and harvesting
// its blocking reasons. Best-effort; shared by the exact and the VM oracle.
void classify_divergence(Verdict* v, const Graph& before,
                         const std::vector<obs::Remark>* remarks);

// --- The sampler and verdict tail shared by both differential oracles ---

using FinalRow = std::vector<std::int64_t>;

struct SampledFinals {
  std::set<FinalRow> finals;  // distinct final stores, ordered as `observed`
  std::size_t completed = 0;  // schedules that terminated within max_steps
};

// `schedules` seeded vm::DetMachine runs of g (split or atomic lowering),
// rotating over three strata: uniform, lowest-region-first and
// highest-region-first. Schedule i runs on seed
// mix64(seed ^ mix64(stream) ^ i), so distinct `stream` tags give the two
// sides of a check independent schedules. Every completed run is a genuine
// behaviour of g under the chosen assignment semantics.
SampledFinals sample_finals(const Graph& g,
                            const std::vector<std::string>& observed,
                            bool split_assignments, std::size_t schedules,
                            std::size_t max_steps, std::uint64_t seed,
                            std::uint64_t stream);

// Fills v's status, witness and behaviour counts from the transformed side's
// samples and a reference of genuine original behaviours (`complete` when it
// is the whole original behaviour set). When a transformed final is missing
// from an incomplete reference, `deepen` grows the reference once and
// returns whether it is complete now. A final still missing is a sound
// kDiverged against a complete reference and kInconclusive otherwise.
// Counters are named counter_prefix + "inconclusive" / "diverged".
void decide_sampled(Verdict* v, const SampledFinals& transformed,
                    std::set<FinalRow> reference, bool complete,
                    const std::function<bool(std::set<FinalRow>*)>& deepen,
                    const Graph& before,
                    const std::vector<obs::Remark>* remarks,
                    const std::string& counter_prefix);

}  // namespace parcm::verify
