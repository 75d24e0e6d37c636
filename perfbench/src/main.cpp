// parcm_perfbench: one workload run of the benchmark in a fresh process.
//
//   parcm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --out <raw.json> [--setup-only 1]
//
// Set-up: generate the workload's fixed, seeded input set and compile some
// of it untimed; the steady-clock time at its end goes to --out, and with
// --setup-only 1 the process stops there. Timed phase: compile every
// program once per round, round-robin, for a number of rounds fixed by
// --seconds (never by elapsed time, so both sides of a comparison do the
// same work). Checks run outside the timed phase. The raw samples go to
// --out; run.py turns them into metrics.
//
// Samples are wall time, what a user waits for, so a compile's helper
// threads count by how much they shorten it, not by the CPU they use. Each
// round's samples carry the host speed factor measured through the round
// (hostspeed.hpp); run.py scales them by it.
//
// With --trace 1 the same inputs are compiled through direct pass calls
// wrapped in spans instead of Pipeline::run, and per-layer attribution
// (analyses on the split graph, pipeline bookkeeping, oracle layers) is
// measured after the timed phase.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyses/cache.hpp"
#include "analyses/constprop.hpp"
#include "analyses/earliest.hpp"
#include "driver/driver.hpp"
#include "ir/printer.hpp"
#include "ir/terms.hpp"
#include "ir/transform_utils.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "lang/parser.hpp"
#include "motion/dce.hpp"
#include "motion/pcm.hpp"
#include "motion/pipeline.hpp"
#include "motion/sinking.hpp"
#include "obs/alloc.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "semantics/cost.hpp"
#include "verify/verify.hpp"
#include "verify/vm_oracle.hpp"
#include "vm/bytecode.hpp"
#include "vm/executor.hpp"

#include "gen.hpp"
#include "hostspeed.hpp"
#include "spans.hpp"

namespace {

using parcm::Graph;
using perfbench::Span;

enum class Inputs { kParChain, kMixed, kFuzz };

struct Workload {
  const char* name;
  Inputs inputs;
  std::size_t programs;   // fixed input-set size
  std::size_t shapes;     // distinct programs; the rest rename their variables
  double round_seconds;   // nominal round length on the reference machine
  std::size_t warmup;     // programs compiled untimed per set-up repetition
  bool full_pipeline;     // default_pipeline() instead of PCM alone
  bool batch;             // compiled through driver::run_batch
  bool exact_verdicts;    // exact oracle verdicts inside the timed phase
  // Step cap per schedule of the timed VM verdict; 0 = library default.
  std::size_t verdict_steps;
};

// Sizes are fixed: changing one changes what every metric means. Every
// workload has well over ten distinct programs, so each tail (ten samples
// beyond it) lies above the median. The corpus caps VM schedules at 32
// steps, ~1.3x its median path, so its timed verdict is a quick sampled
// check (~75% decide; the rest get the untimed escalation). With longer
// caps the few programs whose loops run long set its verdict tail by how
// many of them a seed draws: its spread over seeds was 0.39 at 200 steps,
// 0.27 at 80 and 0.06 at 32. At 24 the decided share swung with the draw
// (spread 0.18).
constexpr Workload kWorkloads[] = {
    {"large_pcm", Inputs::kParChain, 40, 40, 6.0, 1, false, false, false, 0},
    {"mid_full", Inputs::kMixed, 60, 60, 7.5, 4, true, false, false, 0},
    {"corpus", Inputs::kFuzz, 3000, 200, 3.4, 400, true, true, false, 32},
    {"validate", Inputs::kFuzz, 1500, 1500, 5.3, 300, true, false, true, 0},
};

constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMaxRounds = 40;
constexpr std::size_t kExecPaths = 8;
constexpr std::size_t kBatchJobs = 2;
constexpr std::size_t kBookkeepingPrograms = 24;
// Host speed is sampled at most this often within a timed round, and
// kRoundTicks times before and after each round.
constexpr double kTickEveryMs = 25;
constexpr std::size_t kRoundTicks = 8;
// Timed VM verdicts per program (the verdict time is their median). A
// verdict under kMinVerdictMs is repeated back to back up to that much time
// and averaged: single ~0.1 ms calls moved by 30% between processes of
// identical work.
constexpr std::size_t kVerdictRounds = 4;
constexpr double kMinVerdictMs = 2.0;
// Fixed budget of both oracles. At the library defaults (2^19 states, 20000
// steps per sampled schedule) a few small programs take seconds, and at
// 2^12-2^14 states the 2-3% of programs beyond the budget (~0.1 s each)
// still set the validate throughput by how many of them a seed draws. At
// this budget ~4% exceed it at ~30 ms each. At 2000 sample steps, the few
// programs whose sampled schedules ran long doubled the verdict tail on the
// seeds that drew them (55 ms against 26 ms); at 500 those seeds' tails were
// 25-27 ms, with the same decided share.
constexpr std::size_t kMaxStates = 1u << 10;
constexpr std::size_t kMaxSampleSteps = 500;
// Shape of the structured inputs (see gen.hpp).
constexpr std::size_t kLargeBlocks = 100;
constexpr std::size_t kLargeStmts = 20;
constexpr std::size_t kMidBlocks = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  bool setup_only = false;
};

struct Input {
  std::size_t index = 0;
  std::uint64_t seed = 0;  // generator seed (the shape seed when pooled)
  std::string suffix;      // variable suffix of a pooled repetition
  std::string source;
};

std::vector<Input> make_inputs(const Workload& w, std::uint64_t seed) {
  std::vector<Input> inputs(w.programs);
  for (std::size_t i = 0; i < w.programs; ++i) {
    Input& in = inputs[i];
    in.index = i;
    in.seed = perfbench::program_seed(seed, i % w.shapes);
    std::size_t rep = i / w.shapes;
    if (rep > 0) in.suffix = "_r" + std::to_string(rep);
    switch (w.inputs) {
      case Inputs::kParChain:
        in.source = perfbench::par_chain_program(in.seed, kLargeBlocks, kLargeStmts);
        break;
      case Inputs::kMixed:
        in.source = perfbench::mixed_program(in.seed, kMidBlocks);
        break;
      case Inputs::kFuzz:
        in.source = perfbench::fuzz_program(in.seed, in.suffix);
        break;
    }
  }
  return inputs;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325uLL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3uLL;
  }
  return h;
}

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(perfbench::now_ns() - start_ns) / 1e6;
}

// Seconds on CLOCK_MONOTONIC, the clock Python's time.monotonic() reads, so
// run.py can subtract the moment it started this process.
double monotonic_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// What the traced compile learns about one program besides its output.
struct PassLog {
  std::size_t insertions = 0;
  std::size_t replacements = 0;
  std::map<std::string, std::size_t> nodes_after;
};

Graph parse_and_lower(const Input& in) {
  parcm::DiagnosticSink diag;
  std::optional<parcm::lang::Program> ast;
  {
    Span s("lang.parse", static_cast<std::int64_t>(in.index));
    ast = parcm::lang::parse(in.source, diag);
  }
  if (!ast.has_value()) throw std::runtime_error("parse: " + diag.to_string());
  Span s("lang.lower", static_cast<std::int64_t>(in.index));
  return parcm::lang::lower(*ast);
}

void checked(const Graph& g, const char* after) {
  Span s("ir.validate");
  try {
    parcm::validate_or_throw(g);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("validate after ") + after + ": " +
                             e.what());
  }
}

// parallel_code_motion followed by the structural check.
Graph pcm_checked(const Graph& g, PassLog* log) {
  Graph out;
  {
    Span s("motion.pcm");
    parcm::MotionResult r = parcm::parallel_code_motion(g);
    if (log != nullptr) {
      log->insertions += r.num_insertions();
      log->replacements += r.num_replacements();
    }
    out = std::move(r.graph);
  }
  checked(out, "pcm");
  if (log != nullptr) log->nodes_after["pcm"] += out.num_nodes();
  return out;
}

// The default pipeline's passes called directly (the traced run's path);
// must produce exactly what default_pipeline().run produces.
Graph direct_passes(const Graph& g, PassLog* log) {
  Graph out = pcm_checked(g, log);
  {
    Span s("analyses.constprop");
    out = parcm::propagate_constants(out).graph;
  }
  checked(out, "constprop");
  if (log != nullptr) log->nodes_after["constprop"] += out.num_nodes();
  {
    Span s("motion.sinking");
    out = parcm::sink_partially_dead_assignments(out).graph;
  }
  checked(out, "sinking");
  if (log != nullptr) log->nodes_after["sinking"] += out.num_nodes();
  {
    Span s("motion.dce");
    out = parcm::eliminate_dead_assignments(out, parcm::DceOptions{}).graph;
  }
  checked(out, "dce");
  if (log != nullptr) log->nodes_after["dce"] += out.num_nodes();
  return out;
}

struct Compiled {
  Graph input;
  Graph output;
};

// Source text -> optimized graph that passes validate_or_throw.
Compiled compile(const Workload& w, const Input& in,
                 const parcm::Pipeline& pipeline, PassLog* log) {
  Span root("compile", static_cast<std::int64_t>(in.index));
  Compiled c;
  c.input = parse_and_lower(in);
  if (!w.full_pipeline) {
    c.output = pcm_checked(c.input, log);
  } else if (perfbench::tracing()) {
    c.output = direct_passes(c.input, log);
  } else {
    c.output = pipeline.run(c.input).graph;
  }
  return c;
}

// Per-program outcome, filled by the timed phase and the checks.
struct Outcome {
  bool ok = true;
  std::string error;
  std::uint64_t digest = 0;
  bool have_digest = false;
  void fail(const std::string& why) {
    if (ok) error = why;
    ok = false;
  }
  void record_digest(std::uint64_t d) {
    if (!have_digest) {
      digest = d;
      have_digest = true;
    } else if (d != digest) {
      fail("output digest differs between repetitions");
    }
  }
};

struct ExecPath {
  std::size_t program;
  std::size_t schedule;
  std::uint64_t before;
  std::uint64_t after;
};

struct Sample {
  std::size_t program;
  double ms;
  double speed = 1;  // host speed factor of the sample's round (hostspeed.hpp)
};

// Sets the host speed factor of samples [from, end).
void stamp_speed(std::vector<Sample>& samples, std::size_t from, double factor) {
  for (std::size_t k = from; k < samples.size(); ++k) samples[k].speed = factor;
}

struct Raw {
  double setup_end_s = 0;  // monotonic_s() at the end of set-up
  double setup_speed = 1;  // host speed factor right after set-up
  std::size_t rounds = 0;
  double timed_wall_s = 0;        // kernel runs of HostSpeed excluded
  double timed_nominal_s = 0;     // the same, scaled by host speed
  std::vector<Sample> compile_ms;
  std::vector<Sample> verdict_ms;
  std::size_t verdicts_attempted = 0;
  std::size_t verdicts_decided = 0;
  std::size_t nodes_before = 0;
  std::size_t nodes_after = 0;
  std::size_t source_bytes = 0;
  std::vector<ExecPath> paths;
  std::size_t paths_skipped = 0;
  struct Tenure {
    std::size_t worker;
    std::size_t seq;
    double wall_ms;
  };
  std::vector<Tenure> tenure;  // batch workloads only
  std::map<std::string, double> layer;
};

std::uint64_t counter(const char* name) {
  return parcm::obs::registry().counter(name);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Outside the timed phase: the Sec. 3.3.1 bottleneck cost of the original
// and the optimized program along kExecPaths oracle-chosen paths.
void sample_paths(const Input& in, const Compiled& c, Raw* raw) {
  parcm::vm::LowerOptions lopts;
  lopts.split_assignments = false;
  parcm::vm::VmProgram before = parcm::vm::lower_to_bytecode(c.input, lopts);
  parcm::vm::VmProgram after = parcm::vm::lower_to_bytecode(c.output, lopts);
  for (std::size_t s = 0; s < kExecPaths; ++s) {
    std::uint64_t path_seed = perfbench::mix(in.seed ^ perfbench::mix(s));
    parcm::SeededOracle ob(path_seed), oa(path_seed);
    parcm::vm::ExecResult rb = parcm::vm::run_with_oracle(before, ob, {});
    parcm::vm::ExecResult ra = parcm::vm::run_with_oracle(after, oa, {});
    if (!rb.ok || !ra.ok) {
      ++raw->paths_skipped;
      continue;
    }
    raw->paths.push_back({in.index, s, rb.time, ra.time});
  }
}

bool decided(const parcm::verify::Verdict& v) {
  return v.status != parcm::verify::Status::kInconclusive;
}

// `text` with every occurrence of `suffix` removed.
std::string without(std::string text, const std::string& suffix) {
  for (std::size_t at = text.find(suffix); at != std::string::npos;
       at = text.find(suffix, at)) {
    text.erase(at, suffix.size());
  }
  return text;
}

// Pins the calling thread (and threads it starts) to two neighbouring CPUs
// of its original set, chosen by `turn`, until destroyed. On a shared host
// one CPU can run the same code 30% slower than another for minutes at a
// time; rotating rounds over CPU pairs lets each program's median over
// rounds skip it. Two CPUs, not one, so a helper thread (the concurrent
// safety solve) runs beside its caller and the wall time shows the overlap.
class CpuTurn {
 public:
  explicit CpuTurn(std::size_t turn) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
    }
    if (cpus.size() < 3) return;
    cpu_set_t two;
    CPU_ZERO(&two);
    CPU_SET(cpus[turn % cpus.size()], &two);
    CPU_SET(cpus[(turn + 1) % cpus.size()], &two);
    pinned_ = sched_setaffinity(0, sizeof(two), &two) == 0;
  }
  ~CpuTurn() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuTurn(const CpuTurn&) = delete;
  CpuTurn& operator=(const CpuTurn&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// The VM oracle on every program's output. Without exact verdicts its own
// verdict is the workload's verdict: seeded schedules only, timed, at a
// fixed budget. An output it leaves undecided is re-checked with the
// enumeration escalation (untimed) so a divergence cannot hide there.
void vm_checks(const Workload& w, const std::vector<Input>& inputs,
               const std::vector<Compiled>& compiled,
               std::vector<Outcome>& outcomes, Raw* raw) {
  const std::size_t n = inputs.size();
  parcm::verify::VmBudget check;
  check.max_states = kMaxStates;
  parcm::verify::VmBudget sampling_only = check;
  sampling_only.max_exact_nodes = 0;
  if (w.verdict_steps > 0) sampling_only.max_steps = w.verdict_steps;
  // A pooled repetition whose output is its shape representative's output
  // with the variable suffix added is covered by the representative's
  // verdict; any other output faces the oracle itself.
  std::vector<std::size_t> covered_by(n, n);
  for (std::size_t i = w.shapes; i < n; ++i) {
    std::size_t rep = i % w.shapes;
    if (!outcomes[i].ok || !outcomes[rep].ok) continue;
    if (without(parcm::to_text(compiled[i].output), inputs[i].suffix) ==
        parcm::to_text(compiled[rep].output)) {
      covered_by[i] = rep;
    }
  }
  std::vector<double> instrs;
  std::uint64_t escalations = counter("verify.vm_escalations");
  std::vector<parcm::verify::Verdict> verdicts(n);
  const std::size_t rounds = w.exact_verdicts ? 1 : kVerdictRounds;
  perfbench::HostSpeed speed;
  for (std::size_t r = 0; r < rounds; ++r) {
    CpuTurn cpu(r);
    std::size_t round_samples = raw->verdict_ms.size();
    speed.ticks(kRoundTicks);
    for (std::size_t i = 0; i < n; ++i) {
      if (!outcomes[i].ok || covered_by[i] < n) continue;
      speed.maybe_tick(kTickEveryMs);
      const Compiled& c = compiled[i];
      const auto program = static_cast<std::int64_t>(i);
      if (perfbench::tracing() && r == 0) {
        Span s("vm.lower", program);
        parcm::vm::lower_to_bytecode(c.input);
        parcm::vm::lower_to_bytecode(c.output);
      }
      std::uint64_t instrs0 = counter("vm.instrs_executed");
      double spent = 0;
      std::size_t calls = 0;
      do {
        // Layer time counts the first call only.
        Span s(r == 0 && calls == 0 ? "verify.vm" : "verify.vm_repeat", program);
        std::int64_t t0 = perfbench::now_ns();
        verdicts[i] = parcm::verify::vm_differential_check(
            c.input, c.output, w.exact_verdicts ? check : sampling_only);
        spent += ms_since(t0);
        ++calls;
      } while (!w.exact_verdicts && spent < kMinVerdictMs);
      if (!w.exact_verdicts) {
        raw->verdict_ms.push_back({i, spent / static_cast<double>(calls)});
      }
      if (r == 0) {
        instrs.push_back(
            static_cast<double>(counter("vm.instrs_executed") - instrs0) /
            static_cast<double>(calls));
      }
    }
    speed.ticks(kRoundTicks);
    stamp_speed(raw->verdict_ms, round_samples, speed.take_factor());
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!outcomes[i].ok || covered_by[i] < n) continue;
    parcm::verify::Verdict& v = verdicts[i];
    if (!w.exact_verdicts) {
      ++raw->verdicts_attempted;
      if (decided(v)) {
        ++raw->verdicts_decided;
      } else {
        Span s("verify.vm_escalate", static_cast<std::int64_t>(i));
        v = parcm::verify::vm_differential_check(compiled[i].input,
                                                 compiled[i].output, check);
      }
    }
    if (v.status == parcm::verify::Status::kDiverged) {
      outcomes[i].fail("VM oracle: " + v.summary());
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (covered_by[i] < n && !outcomes[covered_by[i]].ok) {
      outcomes[i].fail("shape representative: " + outcomes[covered_by[i]].error);
    }
  }
  raw->layer["vm.instrs"] = median(instrs);
  raw->layer["verify.escalations"] =
      static_cast<double>(counter("verify.vm_escalations") - escalations);
}

// Outside the timed phase: analyses on the split graph pcm works on, built
// directly (the cache pcm reads is neither consulted nor warmed), and the
// bookkeeping Pipeline::run adds over the same passes called directly.
void attribute_layers(const Workload& w, const std::vector<Compiled>& compiled,
                      const parcm::Pipeline& pipeline, Raw* raw) {
  std::uint64_t relax0 = counter("dfa.packed.relaxations");
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    Span root("attribution", static_cast<std::int64_t>(i));
    Graph split = compiled[i].input;
    parcm::split_join_edges(split);
    std::optional<parcm::TermTable> terms;
    std::optional<parcm::LocalPredicates> preds;
    {
      Span s("analyses.predicates", static_cast<std::int64_t>(i));
      terms.emplace(split);
      preds.emplace(split, *terms);
    }
    parcm::SafetyInfo safety;
    {
      Span s("analyses.safety", static_cast<std::int64_t>(i));
      safety = parcm::compute_safety(split, *preds, parcm::SafetyVariant::kRefined);
    }
    Span s("analyses.earliest", static_cast<std::int64_t>(i));
    parcm::compute_motion_predicates(split, *preds, safety);
  }
  raw->layer["dfa.relaxations"] =
      static_cast<double>(counter("dfa.packed.relaxations") - relax0);
  if (!w.full_pipeline) return;
  // Alternate which path runs first so neither inherits the other's warm
  // analysis cache systematically.
  std::vector<double> extra;
  for (std::size_t i = 0; i < compiled.size() && i < kBookkeepingPrograms; ++i) {
    double via_pipeline = 0, direct = 0;
    for (std::size_t rep = 0; rep < 2; ++rep) {
      bool pipeline_first = (i + rep) % 2 == 0;
      for (int step = 0; step < 2; ++step) {
        std::int64_t t0 = perfbench::now_ns();
        if ((step == 0) == pipeline_first) {
          pipeline.run(compiled[i].input);
          via_pipeline += ms_since(t0);
        } else {
          perfbench::set_tracing(false);
          direct_passes(compiled[i].input, nullptr);
          perfbench::set_tracing(true);
          direct += ms_since(t0);
        }
      }
    }
    extra.push_back((via_pipeline - direct) / 2);
  }
  raw->layer["pipeline.bookkeeping_ms"] = median(extra);
}

// After the timed phase: oracles and cost paths on every output, the pass
// log of the first compile of each program and, when tracing, the layer
// attribution.
void check_outputs(const Workload& w, const std::vector<Input>& inputs,
                   const std::vector<Compiled>& compiled,
                   const parcm::Pipeline& pipeline, const PassLog& log,
                   std::vector<Outcome>& outcomes, Raw* raw) {
  raw->layer["motion.insertions"] = static_cast<double>(log.insertions);
  raw->layer["motion.replacements"] = static_cast<double>(log.replacements);
  for (const char* pass : {"pcm", "constprop", "sinking", "dce"}) {
    auto it = log.nodes_after.find(pass);
    raw->layer[std::string("ir.nodes_after.") + pass] =
        it == log.nodes_after.end() ? 0 : static_cast<double>(it->second);
  }
  vm_checks(w, inputs, compiled, outcomes, raw);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!outcomes[i].ok) continue;
    raw->nodes_before += compiled[i].input.num_nodes();
    raw->nodes_after += compiled[i].output.num_nodes();
    sample_paths(inputs[i], compiled[i], raw);
  }
  if (perfbench::tracing()) attribute_layers(w, compiled, pipeline, raw);
}

// Timed phase for the single-threaded workloads (large_pcm, mid_full,
// validate) plus their checks.
void run_direct(const Workload& w, const std::vector<Input>& inputs,
                std::vector<Outcome>& outcomes, Raw* raw) {
  const parcm::Pipeline pipeline = parcm::default_pipeline();
  const std::size_t n = inputs.size();
  parcm::verify::Budget budget;
  budget.max_states = kMaxStates;
  budget.max_steps = kMaxSampleSteps;
  std::vector<Compiled> first(n), current(n);
  PassLog log;
  std::uint64_t hits0 = counter("analysis.cache.hits");
  std::uint64_t misses0 = counter("analysis.cache.misses");
  std::uint64_t builds0 = counter("analysis.cache.builds");
  std::uint64_t states0 = counter("semantics.enum.states_explored");
  double allocs = 0;
  std::size_t compiles = 0;
  perfbench::HostSpeed speed;
  for (std::size_t r = 0; r < raw->rounds; ++r) {
    CpuTurn cpu(r);
    std::size_t compile_samples = raw->compile_ms.size();
    std::size_t verdict_samples = raw->verdict_ms.size();
    speed.ticks(kRoundTicks);
    double kernel_ms = speed.spent_ms();
    std::int64_t round_start = perfbench::now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      speed.maybe_tick(kTickEveryMs);
      std::int64_t t0 = perfbench::now_ns();
      try {
        parcm::obs::AllocCounterScope alloc_scope;
        current[i] = compile(w, inputs[i], pipeline, r == 0 ? &log : nullptr);
        allocs += static_cast<double>(alloc_scope.allocs());
        ++compiles;
      } catch (const std::exception& e) {
        outcomes[i].fail(std::string("compile: ") + e.what());
        current[i] = Compiled{};
        continue;
      }
      raw->compile_ms.push_back({i, ms_since(t0)});
      if (w.exact_verdicts) {
        std::int64_t v0 = perfbench::now_ns();
        parcm::verify::Verdict v;
        {
          Span s("verify.exact", static_cast<std::int64_t>(i));
          v = parcm::verify::differential_check(current[i].input,
                                                current[i].output, budget);
        }
        raw->verdict_ms.push_back({i, ms_since(v0)});
        if (r == 0) {
          ++raw->verdicts_attempted;
          if (decided(v)) ++raw->verdicts_decided;
        }
        if (v.status == parcm::verify::Status::kDiverged) {
          outcomes[i].fail("exact oracle: " + v.summary());
        }
      }
    }
    double wall_ms = ms_since(round_start) - (speed.spent_ms() - kernel_ms);
    speed.ticks(kRoundTicks);
    double factor = speed.take_factor();
    stamp_speed(raw->compile_ms, compile_samples, factor);
    stamp_speed(raw->verdict_ms, verdict_samples, factor);
    raw->timed_wall_s += wall_ms / 1e3;
    raw->timed_nominal_s += wall_ms * factor / 1e3;
    // Checks on this round's outputs, outside the timed phase.
    for (std::size_t i = 0; i < n; ++i) {
      if (!outcomes[i].ok) continue;
      try {
        parcm::validate_or_throw(current[i].output);
      } catch (const std::exception& e) {
        outcomes[i].fail(std::string("validate_or_throw: ") + e.what());
        continue;
      }
      outcomes[i].record_digest(fnv1a(parcm::to_text(current[i].output)));
      if (r == 0) first[i] = std::move(current[i]);
    }
  }
  std::uint64_t lookups = counter("analysis.cache.hits") - hits0 +
                          counter("analysis.cache.misses") - misses0;
  std::uint64_t builds = counter("analysis.cache.builds") - builds0;
  raw->layer["analyses.cache_hit_rate"] =
      lookups == 0 ? 0
                   : 1.0 - static_cast<double>(builds) /
                               static_cast<double>(lookups);
  raw->layer["verify.exact_states"] = static_cast<double>(
      counter("semantics.enum.states_explored") - states0);
  raw->layer["support.allocs_per_program"] =
      compiles == 0 ? 0 : allocs / static_cast<double>(compiles);
  check_outputs(w, inputs, first, pipeline, log, outcomes, raw);
  raw->layer["obs.registry_counters"] =
      static_cast<double>(parcm::obs::registry().counters().size());
}

std::string output_text_direct(const Input& in, PassLog* log) {
  Span root("compile", static_cast<std::int64_t>(in.index));
  Graph g = parse_and_lower(in);
  Graph out = direct_passes(g, log);
  Span s("output.to_text");
  return parcm::to_text(out);
}

parcm::driver::BatchOptions batch_options() {
  parcm::driver::BatchOptions o;
  o.jobs = kBatchJobs;
  o.pipeline = "full";
  return o;
}

parcm::driver::Manifest batch_manifest(const std::vector<Input>& inputs) {
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(inputs.size());
  for (const Input& in : inputs) {
    sources.emplace_back("p" + std::to_string(in.index), in.source);
  }
  return parcm::driver::Manifest::from_sources(std::move(sources));
}

// Timed phase for the corpus workload: one run_batch per round, each with a
// fresh shared-cache tier so every round starts as cold as a new process.
void run_corpus(const Workload& w, const std::vector<Input>& inputs,
                std::vector<Outcome>& outcomes, Raw* raw) {
  const std::size_t n = inputs.size();
  parcm::driver::Manifest manifest = batch_manifest(inputs);
  parcm::driver::BatchOptions options = batch_options();
  PassLog log;
  if (perfbench::tracing()) {
    // Direct pass calls under spans; the payload must stay byte-identical
    // to the untraced run's run_batch output.
    options.runner = [&inputs](const parcm::driver::BatchJob&,
                               std::size_t index,
                               parcm::driver::WorkerContext&,
                               parcm::driver::ProgramResult& result) {
      result.output = output_text_direct(inputs[index], nullptr);
    };
  }
  // Each job's position in its worker's sequence: per-program latency
  // against worker tenure. Workers are fresh threads in every run_batch.
  struct Position {
    std::size_t worker = 0;
    std::size_t seq = 0;
  };
  std::vector<Position> order(n);
  std::atomic<std::size_t> next_worker{0};
  options.test_before_job = [&order, &next_worker](std::size_t index) {
    thread_local std::size_t worker = next_worker.fetch_add(1);
    thread_local std::size_t seq = 0;
    order[index] = Position{worker, seq++};
  };
  std::vector<double> overhead, queue_wait, steals, allocs, hit_rate, registry;
  perfbench::HostSpeed speed;
  for (std::size_t r = 0; r < raw->rounds; ++r) {
    // The workers inherit the pin, so the kernel times the CPUs they run on.
    CpuTurn cpu(r);
    parcm::SharedAnalysisCache shared;
    options.shared_cache_instance = &shared;
    speed.ticks(kRoundTicks);
    std::int64_t t0 = perfbench::now_ns();
    parcm::driver::BatchReport report;
    {
      Span s("driver.run_batch");
      report = parcm::driver::run_batch(manifest, options);
    }
    double wall_ms = ms_since(t0);
    speed.ticks(kRoundTicks);
    double factor = speed.take_factor();
    raw->timed_wall_s += wall_ms / 1e3;
    raw->timed_nominal_s += wall_ms * factor / 1e3;
    std::size_t round_samples = raw->compile_ms.size();
    double program_wall = 0;
    for (const parcm::driver::ProgramResult& p : report.programs) {
      if (p.status != parcm::driver::JobStatus::kDone) {
        outcomes[p.index].fail(std::string("batch: ") +
                               parcm::driver::job_status_name(p.status) +
                               " " + p.error);
        continue;
      }
      raw->compile_ms.push_back({p.index, p.wall_ms});
      raw->tenure.push_back({order[p.index].worker, order[p.index].seq, p.wall_ms});
      program_wall += p.wall_ms;
      outcomes[p.index].record_digest(fnv1a(p.output));
    }
    stamp_speed(raw->compile_ms, round_samples, factor);
    overhead.push_back(1.0 - program_wall / (static_cast<double>(report.workers) *
                                             report.wall_ms));
    auto qw = report.histograms.find("driver.queue_wait_ns");
    queue_wait.push_back(qw == report.histograms.end() ? 0
                                                       : qw->second.p50() / 1e6);
    steals.push_back(static_cast<double>(report.queue.steals));
    allocs.push_back(report.allocs_per_program);
    hit_rate.push_back(report.cache_hit_rate);
    registry.push_back(static_cast<double>(report.counters.size()));
  }
  raw->layer["driver.overhead_share"] = median(overhead);
  raw->layer["driver.queue_wait_ms_p50"] = median(queue_wait);
  raw->layer["driver.steals"] = median(steals);
  raw->layer["support.allocs_per_program"] = median(allocs);
  raw->layer["analyses.cache_hit_rate"] = median(hit_rate);
  raw->layer["obs.registry_counters"] = median(registry);

  // Checks: recompile each program directly through default_pipeline() and
  // hold it to the batch payload, then validate and run the oracles. The
  // recompiles count into a registry of their own: in the process registry
  // their thousands of per-term counters would slow every later counter
  // update, the oracle's included, by an amount that depends on the seed.
  const parcm::Pipeline pipeline = parcm::default_pipeline();
  std::vector<Compiled> compiled(n);
  bool tracing = perfbench::tracing();
  perfbench::set_tracing(false);
  parcm::obs::Registry recompile_registry;
  parcm::obs::Registry* process_registry =
      parcm::obs::set_thread_registry(&recompile_registry);
  for (std::size_t i = 0; i < n; ++i) {
    if (!outcomes[i].ok) continue;
    try {
      compiled[i].input = parse_and_lower(inputs[i]);
      if (tracing) {
        compiled[i].output = direct_passes(compiled[i].input, &log);
      } else {
        compiled[i].output = pipeline.run(compiled[i].input).graph;
      }
      parcm::validate_or_throw(compiled[i].output);
    } catch (const std::exception& e) {
      outcomes[i].fail(std::string("check compile: ") + e.what());
      continue;
    }
    if (fnv1a(parcm::to_text(compiled[i].output)) != outcomes[i].digest) {
      outcomes[i].fail("default_pipeline().run output differs from the "
                       "run_batch payload");
    }
  }
  parcm::obs::set_thread_registry(process_registry);
  perfbench::set_tracing(tracing);
  check_outputs(w, inputs, compiled, pipeline, log, outcomes, raw);
}

// Set-up: generate the inputs and compile `warmup` of them untimed.
std::vector<Input> setup(const Workload& w, std::uint64_t seed) {
  std::vector<Input> inputs = make_inputs(w, seed);
  std::size_t warm = std::min(w.warmup, inputs.size());
  bool tracing = perfbench::tracing();
  perfbench::set_tracing(false);
  if (w.batch) {
    std::vector<Input> head(inputs.begin(), inputs.begin() + warm);
    parcm::SharedAnalysisCache shared;
    parcm::driver::BatchOptions options = batch_options();
    options.shared_cache_instance = &shared;
    parcm::driver::run_batch(batch_manifest(head), options);
  } else {
    const parcm::Pipeline pipeline = parcm::default_pipeline();
    for (std::size_t i = 0; i < warm; ++i) {
      try {
        compile(w, inputs[i], pipeline, nullptr);
      } catch (const std::exception&) {
        // Reported by the timed phase.
      }
    }
  }
  perfbench::set_tracing(tracing);
  return inputs;
}

void write_samples(parcm::obs::JsonWriter& j, const char* key,
                   const std::vector<Sample>& samples) {
  j.key(key).begin_array();
  for (const Sample& s : samples) {
    j.begin_array().value(s.program).value(s.ms).value(s.speed).end_array();
  }
  j.end_array();
}

void write_raw(const Args& a, const Workload& w,
               const std::vector<Input>& inputs,
               const std::vector<Outcome>& outcomes, const Raw& raw) {
  parcm::obs::JsonWriter j;
  j.begin_object();
  j.key("workload").value(w.name).key("seed").value(a.seed);
  j.key("setup_end_s").value(raw.setup_end_s);
  j.key("setup_speed").value(raw.setup_speed);
  if (!a.setup_only) {
    j.key("trace").value(a.trace).key("programs").value(inputs.size());
    j.key("workers").value(w.batch ? kBatchJobs : std::size_t{1});
    j.key("rounds").value(raw.rounds);
    j.key("verdict_oracle").value(w.exact_verdicts ? "exact" : "vm");
    write_samples(j, "compile_ms", raw.compile_ms);
    write_samples(j, "verdict_ms", raw.verdict_ms);
    j.key("timed_wall_s").value(raw.timed_wall_s);
    j.key("timed_nominal_s").value(raw.timed_nominal_s);
    j.key("verdicts_attempted").value(raw.verdicts_attempted);
    j.key("verdicts_decided").value(raw.verdicts_decided);
    j.key("nodes_before").value(raw.nodes_before);
    j.key("nodes_after").value(raw.nodes_after);
    j.key("source_bytes").value(raw.source_bytes);
    j.key("paths_skipped").value(raw.paths_skipped);
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    j.key("peak_rss_kb").value(ru.ru_maxrss);
    j.key("outcomes").begin_array();
    for (const Outcome& o : outcomes) {
      char digest[17];
      std::snprintf(digest, sizeof(digest), "%016llx",
                    static_cast<unsigned long long>(o.digest));
      j.begin_object().key("ok").value(o.ok).key("digest").value(digest);
      j.key("error").value(o.error).end_object();
    }
    j.end_array().key("paths").begin_array();
    for (const ExecPath& p : raw.paths) {
      j.begin_array().value(p.program).value(p.schedule);
      j.value(p.before).value(p.after).end_array();
    }
    j.end_array().key("tenure").begin_array();
    for (const Raw::Tenure& t : raw.tenure) {
      j.begin_array().value(t.worker).value(t.seq).value(t.wall_ms).end_array();
    }
    j.end_array().key("program_seeds").begin_array();
    for (const Input& in : inputs) {
      j.begin_array().value(in.seed).value(in.suffix).end_array();
    }
    j.end_array().key("layer").begin_object();
    for (const auto& [k, v] : raw.layer) j.key(k).value(v);
    j.end_object().key("spans");
    perfbench::write_spans_json(j);
  }
  j.end_object();
  std::ofstream f(a.out, std::ios::binary);
  f << j.str() << "\n";
  if (!f) throw std::runtime_error("cannot write " + a.out);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 == argc) throw std::runtime_error(std::string("no value for ") + argv[i]);
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--setup-only") a.setup_only = v == "1";
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.out.empty()) throw std::runtime_error("--out is required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args a = parse_args(argc, argv);
    const Workload* w = nullptr;
    for (const Workload& cand : kWorkloads) {
      if (a.workload == cand.name) w = &cand;
    }
    if (w == nullptr) throw std::runtime_error("unknown workload " + a.workload);
    perfbench::set_tracing(a.trace);

    Raw raw;
    std::vector<Input> inputs = setup(*w, a.seed);
    raw.setup_end_s = monotonic_s();
    perfbench::HostSpeed speed;
    speed.ticks(kRoundTicks);
    raw.setup_speed = speed.take_factor();
    if (a.setup_only) {
      write_raw(a, *w, inputs, {}, raw);
      return 0;
    }
    for (const Input& in : inputs) raw.source_bytes += in.source.size();
    raw.rounds = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::llround(a.seconds / w->round_seconds)),
        kMinRounds, kMaxRounds);

    std::vector<Outcome> outcomes(inputs.size());
    if (w->batch) {
      run_corpus(*w, inputs, outcomes, &raw);
    } else {
      run_direct(*w, inputs, outcomes, &raw);
    }
    write_raw(a, *w, inputs, outcomes, raw);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "parcm_perfbench: " << e.what() << "\n";
    return 1;
  }
}
