#include "vm/harness.hpp"

#include <sstream>
#include <vector>

#include "driver/driver.hpp"
#include "lang/lower.hpp"
#include "obs/json.hpp"
#include "semantics/cost.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "verify/fuzz.hpp"
#include "vm/bytecode.hpp"
#include "vm/executor.hpp"

namespace parcm::vm {

CorpusOptions::CorpusOptions() : gen(verify::default_fuzz_gen()) {}

namespace {

// Per-program tallies; CorpusReport minus the config echo. Reduced
// sequentially in index order, so the sums are jobs-independent.
struct Slot {
  std::size_t pairs = 0;
  std::uint64_t instrs_original = 0;
  std::uint64_t instrs_optimized = 0;
  std::uint64_t time_original = 0;
  std::uint64_t time_optimized = 0;
  std::uint64_t computations_original = 0;
  std::uint64_t computations_optimized = 0;
  std::size_t improved = 0;
  std::size_t equal = 0;
  std::size_t regressed = 0;
  std::size_t cost_mismatches = 0;
  std::size_t skipped = 0;
};

Slot measure_one(const CorpusOptions& options, std::size_t index) {
  Slot slot;
  lang::Program ast = verify::fuzz_program_pooled(options.seed, index,
                                                  options.shapes, options.gen);
  Graph before = lang::lower(ast);
  Graph after = verify::apply_named_pipeline(options.pipeline, before);
  // Cost runs only care about path shape, so the cheaper atomic lowering
  // suffices (split mode is the behaviour oracle's concern).
  LowerOptions lopts;
  lopts.split_assignments = false;
  VmProgram vm_before = lower_to_bytecode(before, lopts);
  VmProgram vm_after = lower_to_bytecode(after, lopts);
  ExecLimits limits;
  limits.max_steps = options.max_steps;

  for (std::size_t s = 0; s < options.schedules; ++s) {
    std::uint64_t path_seed = mix64(options.seed ^ mix64(index) ^ s);
    SeededOracle oracle_before(path_seed);
    SeededOracle oracle_after(path_seed);
    ExecResult r_before = run_with_oracle(vm_before, oracle_before, limits);
    ExecResult r_after = run_with_oracle(vm_after, oracle_after, limits);
    auto analytic =
        paired_execution_times(before, after, path_seed, options.max_steps);
    if (!r_before.ok || !r_after.ok || !analytic.has_value()) {
      ++slot.skipped;
      continue;
    }
    ++slot.pairs;
    slot.instrs_original += r_before.instrs;
    slot.instrs_optimized += r_after.instrs;
    slot.time_original += r_before.time;
    slot.time_optimized += r_after.time;
    slot.computations_original += r_before.computations;
    slot.computations_optimized += r_after.computations;
    if (r_after.time < r_before.time) {
      ++slot.improved;
    } else if (r_after.time == r_before.time) {
      ++slot.equal;
    } else {
      ++slot.regressed;
    }
    if (r_before.time != analytic->first.time ||
        r_before.computations != analytic->first.computations ||
        r_after.time != analytic->second.time ||
        r_after.computations != analytic->second.computations) {
      ++slot.cost_mismatches;
    }
  }
  return slot;
}

}  // namespace

CorpusReport run_exec_corpus(const CorpusOptions& options) {
  std::vector<Slot> slots(options.programs);
  if (options.jobs != 1 && options.programs > 1) {
    driver::BatchOptions batch;
    batch.jobs = options.jobs;
    batch.pipeline = options.pipeline;
    batch.keep_output = false;
    batch.collect_remarks = false;
    batch.runner = [&options, &slots](const driver::BatchJob&,
                                      std::size_t index,
                                      driver::WorkerContext&,
                                      driver::ProgramResult&) {
      slots[index] = measure_one(options, index);
    };
    driver::Manifest manifest = driver::Manifest::lazy(
        options.programs, "vmcorpus", [](std::size_t) { return std::string(); });
    driver::BatchReport report = driver::run_batch(manifest, batch);
    for (const driver::ProgramResult& r : report.programs) {
      PARCM_CHECK(r.status == driver::JobStatus::kDone,
                  "vm corpus program #" + std::to_string(r.index) +
                      " failed: " + r.error);
    }
  } else {
    for (std::size_t i = 0; i < options.programs; ++i) {
      slots[i] = measure_one(options, i);
    }
  }

  CorpusReport report;
  report.programs = options.programs;
  for (const Slot& s : slots) {
    report.pairs += s.pairs;
    report.instrs_original += s.instrs_original;
    report.instrs_optimized += s.instrs_optimized;
    report.time_original += s.time_original;
    report.time_optimized += s.time_optimized;
    report.computations_original += s.computations_original;
    report.computations_optimized += s.computations_optimized;
    report.improved += s.improved;
    report.equal += s.equal;
    report.regressed += s.regressed;
    report.cost_mismatches += s.cost_mismatches;
    report.skipped += s.skipped;
  }
  return report;
}

std::string CorpusReport::summary() const {
  std::ostringstream os;
  os << "vm corpus: " << programs << " programs, " << pairs
     << " sampled paths: " << improved << " improved, " << equal
     << " equal, " << regressed << " regressed, " << cost_mismatches
     << " cost mismatches, " << skipped << " skipped";
  if (time_original > 0) {
    os << "; bottleneck time " << time_original << " -> " << time_optimized;
  }
  return os.str();
}

std::string CorpusReport::to_json(bool pretty) const {
  obs::JsonWriter w(pretty);
  w.begin_object();
  w.key("schema").value("parcm-vm-corpus-v1");
  w.key("programs").value(programs);
  w.key("pairs").value(pairs);
  w.key("instrs_original").value(instrs_original);
  w.key("instrs_optimized").value(instrs_optimized);
  w.key("time_original").value(time_original);
  w.key("time_optimized").value(time_optimized);
  w.key("computations_original").value(computations_original);
  w.key("computations_optimized").value(computations_optimized);
  w.key("improved").value(improved);
  w.key("equal").value(equal);
  w.key("regressed").value(regressed);
  w.key("cost_mismatches").value(cost_mismatches);
  w.key("skipped").value(skipped);
  w.key("ok").value(ok());
  w.end_object();
  return w.take();
}

}  // namespace parcm::vm
