#!/usr/bin/env python3
"""parcm benchmark: source text -> optimized, checked program.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which builds libparcm from ../src) in the default user
configuration, RelWithDebInfo with PARCM_OBS=ON, into $CARGO_TARGET_DIR
(default .bench_build), runs the workload in a fresh process and prints the
metrics. The last line of stdout is one JSON object with the keys
correct/attempted/failed/metrics; the lines before it are a human summary:
tail percentiles with their sample counts, the per-layer breakdown and every
path the optimized program runs slower on (a Theorem 3 regression).

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload twice,
untraced and then traced (each in its own process), checks both produced
byte-identical programs and reports the per-layer metrics. See README.md.

setup_s is the median over SETUP_PROCESSES fresh processes of the time from
starting the process to the end of its set-up: the first set-up of each, as
a user meets it, never a warm repeat within one process. Like every timed
sample it is scaled to nominal host speed (src/hostspeed.hpp).
"""
import argparse
import ctypes
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("large_pcm", "mid_full", "corpus", "validate")
TAIL_BEYOND = 10
SETUP_PROCESSES = 3
# Wall-clock allowance for the harness processes of one run, build excluded.
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "compile_ms_p50": "ms",
    "compile_ms_tail": "ms",
    "programs_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "decided_share": "ratio",
    "ok_share": "ratio",
    "exec_cost_ratio": "ratio",
    "exec_never_worse_share": "ratio",
    "size_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit. Span-derived *_ms values are medians per program
# (per compile for the compile-phase layers); counts are totals over the
# input set, one pass per program.
PER_LAYER = {
    "lang.parse_ms": "ms",
    "lang.lower_ms": "ms",
    "lang.bytes_per_ms": "B/ms",
    "analyses.predicates_ms": "ms",
    "analyses.safety_ms": "ms",
    "dfa.relaxations": "count",
    "analyses.earliest_ms": "ms",
    "analyses.constprop_ms": "ms",
    "analyses.cache_hit_rate": "ratio",
    "motion.pcm_ms": "ms",
    "motion.placement_ms": "ms",
    "motion.insertions": "count",
    "motion.replacements": "count",
    "motion.sinking_ms": "ms",
    "motion.dce_ms": "ms",
    "ir.validate_ms": "ms",
    "ir.nodes_after.pcm": "count",
    "ir.nodes_after.constprop": "count",
    "ir.nodes_after.sinking": "count",
    "ir.nodes_after.dce": "count",
    "pipeline.bookkeeping_ms": "ms",
    "driver.overhead_share": "ratio",
    "driver.queue_wait_ms_p50": "ms",
    "driver.steals": "count",
    "driver.tenure_growth": "ratio",
    "obs.registry_counters": "count",
    "support.allocs_per_program": "count",
    "verify.exact_ms": "ms",
    "verify.exact_states": "count",
    "verify.vm_ms": "ms",
    "verify.escalations": "count",
    "vm.lower_ms": "ms",
    "vm.instrs": "count",
    "trace.coverage": "ratio",
    "trace.residual_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Spans that are layers of the compile path (self time attributed per compile).
COMPILE_LAYERS = {
    "lang.parse_ms": "lang.parse",
    "lang.lower_ms": "lang.lower",
    "motion.pcm_ms": "motion.pcm",
    "analyses.constprop_ms": "analyses.constprop",
    "motion.sinking_ms": "motion.sinking",
    "motion.dce_ms": "motion.dce",
    "ir.validate_ms": "ir.validate",
}
# Spans measured once per program outside the timed phase, summed per program.
ONCE_LAYERS = {
    "analyses.predicates_ms": ("analyses.predicates",),
    "analyses.safety_ms": ("analyses.safety",),
    "analyses.earliest_ms": ("analyses.earliest",),
    "verify.vm_ms": ("verify.vm", "verify.vm_escalate"),
    "vm.lower_ms": ("vm.lower",),
}
# Top-level spans of the timed phase; what they leave uncovered is residual.
TIMED_ROOTS = ("compile", "verify.exact")


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, beyond=TAIL_BEYOND):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample_count): the sample of rank
    n - beyond in sorted order, so exactly `beyond` samples rank above it.
    Needs more than `beyond` samples.
    """
    s = sorted(values)
    n = len(s)
    if n <= beyond:
        raise ValueError(f"tail needs more than {beyond} samples, got {n}")
    k = n - beyond - 1
    return s[k], 100.0 * (k + 1) / n, n


def geomean_ratio(pairs):
    """Geometric mean of (after + 1) / (before + 1) over (before, after)."""
    if not pairs:
        raise ValueError("no pairs")
    logs = [math.log((a + 1) / (b + 1)) for b, a in pairs]
    return math.exp(sum(logs) / len(logs))


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def tenure_growth(jobs):
    """Median latency of each worker's last tenth of jobs over its first tenth.

    `jobs` holds [worker, position in the worker's sequence, latency_ms].
    """
    by_worker = {}
    for worker, seq, ms in jobs:
        by_worker.setdefault(worker, []).append((seq, ms))
    first, last = [], []
    for seq_ms in by_worker.values():
        seq_ms.sort()
        tenth = len(seq_ms) // 10
        if tenth:
            first += [ms for _, ms in seq_ms[:tenth]]
            last += [ms for _, ms in seq_ms[-tenth:]]
    return median(last) / median(first) if first else 0.0


class SpanTree:
    """Spans of one run: rows [track, name, start_ns, end_ns, parent, program]."""

    def __init__(self, rows):
        self.rows = rows
        self.by_track = {}
        for row in rows:
            self.by_track.setdefault(row[0], []).append(row)
        self.children = {}
        for track, spans in self.by_track.items():
            for i, row in enumerate(spans):
                if row[4] >= 0:
                    self.children.setdefault((track, row[4]), []).append(i)

    def self_ns(self, track, index):
        """Duration minus the part of it covered by child spans."""
        row = self.by_track[track][index]
        kids = self.children.get((track, index), [])
        covered = union_length(
            [(self.by_track[track][k][2], self.by_track[track][k][3]) for k in kids])
        return (row[3] - row[2]) - covered

    def descendants(self, track, index):
        stack = list(self.children.get((track, index), []))
        while stack:
            i = stack.pop()
            yield i
            stack.extend(self.children.get((track, i), []))

    def roots(self, name):
        for track, spans in self.by_track.items():
            for i, row in enumerate(spans):
                if row[4] < 0 and row[1] == name:
                    yield track, i


def layer_metrics(raw, untraced):
    """Per-layer metrics of a traced run; `untraced` is the paired plain run.

    Returns (metrics, breakdown): breakdown maps each layer to its total
    self time (ms) in the timed phase, with pcm split into its analyses and
    placement.
    """
    tree = SpanTree(raw["spans"])
    out = {name: 0.0 for name in PER_LAYER}
    out.update({k: v for k, v in raw["layer"].items() if k in PER_LAYER})

    # Self time per compile, by layer; the pcm span per program for placement.
    per_compile = {name: [] for name in COMPILE_LAYERS}
    pcm_by_program = {}
    compile_roots = list(tree.roots("compile"))
    for track, i in compile_roots:
        program = tree.by_track[track][i][5]
        sums = dict.fromkeys(COMPILE_LAYERS.values(), 0)
        for d in tree.descendants(track, i):
            name = tree.by_track[track][d][1]
            if name in sums:
                sums[name] += tree.self_ns(track, d)
        for metric, span in COMPILE_LAYERS.items():
            per_compile[metric].append(sums[span] / 1e6)
        pcm_by_program.setdefault(program, []).append(sums["motion.pcm"] / 1e6)
    for metric, values in per_compile.items():
        out[metric] = median(values)
    parse_lower_ms = sum(per_compile["lang.parse_ms"]) + sum(per_compile["lang.lower_ms"])
    if parse_lower_ms > 0:
        out["lang.bytes_per_ms"] = raw["source_bytes"] * raw["rounds"] / parse_lower_ms

    once = {metric: {} for metric in ONCE_LAYERS}
    for track, spans in tree.by_track.items():
        for i, row in enumerate(spans):
            for metric, names in ONCE_LAYERS.items():
                if row[1] in names:
                    by_program = once[metric]
                    by_program[row[5]] = by_program.get(row[5], 0.0) + \
                        tree.self_ns(track, i) / 1e6
    for metric, by_program in once.items():
        out[metric] = median(list(by_program.values()))
    exact = [(r[3] - r[2]) / 1e6 for t, i in tree.roots("verify.exact")
             for r in [tree.by_track[t][i]]]
    out["verify.exact_ms"] = median(exact)

    # Placement: pcm minus the analyses it runs, per program.
    placement = []
    for program, pcm in pcm_by_program.items():
        analyses = sum(once[m].get(program, 0.0) for m in
                       ("analyses.predicates_ms", "analyses.safety_ms",
                        "analyses.earliest_ms"))
        placement.append(median(pcm) - analyses)
    out["motion.placement_ms"] = median(placement)

    breakdown = {}
    for name in TIMED_ROOTS:
        for t, i in tree.roots(name):
            for d in [i, *tree.descendants(t, i)]:
                layer = tree.by_track[t][d][1]
                breakdown[layer] = breakdown.get(layer, 0.0) + tree.self_ns(t, d) / 1e6
    if "motion.pcm" in breakdown:
        analyses = sum(once[m].get(program, 0.0) * len(pcm)
                       for program, pcm in pcm_by_program.items()
                       for m in ("analyses.predicates_ms", "analyses.safety_ms",
                                 "analyses.earliest_ms"))
        breakdown["motion.placement"] = breakdown.pop("motion.pcm") - analyses
        breakdown["pcm analyses (predicates, safety, earliest)"] = analyses

    # Coverage of the timed phase by top-level spans; the rest is residual.
    covered_ns = sum(tree.by_track[t][i][3] - tree.by_track[t][i][2]
                     for name in TIMED_ROOTS for t, i in tree.roots(name))
    capacity_ms = raw["timed_wall_s"] * 1e3 * raw["workers"]
    out["trace.coverage"] = covered_ns / 1e6 / capacity_ms
    out["trace.residual_ms"] = capacity_ms - covered_ns / 1e6
    out["trace.overhead_ratio"] = raw["timed_nominal_s"] / untraced["timed_nominal_s"]

    if untraced["tenure"]:
        out["driver.tenure_growth"] = tenure_growth(untraced["tenure"])
    return out, breakdown


def per_program(samples, scaled=True, pick=None):
    """One cost per program from its samples, one sample per round.

    Rows are [program, ms, host speed factor]; `scaled` times are ms x factor,
    as on a host of the nominal speed (src/hostspeed.hpp). A program's cost
    is pick(its samples), by default their median, so a slow period hitting
    one round moves no program much.
    """
    by_program = {}
    for program, ms, speed in samples:
        by_program.setdefault(program, []).append(ms * speed if scaled else ms)
    return [(pick or median)(v) for v in by_program.values()]


def end_to_end_metrics(raw, setup_s):
    compile_ms = per_program(raw["compile_ms"])
    # A VM verdict is a sub-millisecond call repeated to 2 ms and timed in
    # four rounds; its cost is the fastest round. With the median, the
    # corpus's verdict tail spread 0.30 over five seeds, with the minimum
    # 0.17. Exact verdicts keep the median: their minimum spread more.
    verdict_ms = per_program(raw["verdict_ms"],
                             pick=min if raw["verdict_oracle"] == "vm" else None)
    compile_tail = tail(compile_ms)
    verdict_tail = tail(verdict_ms)
    pairs = [(p[2], p[3]) for p in raw["paths"]]
    ok = sum(1 for o in raw["outcomes"] if o["ok"])
    metrics = {
        "setup_s": median(setup_s),
        "compile_ms_p50": median(compile_ms),
        "compile_ms_tail": compile_tail[0],
        "programs_per_s": len(raw["compile_ms"]) / raw["timed_nominal_s"],
        "verdict_ms_p50": median(verdict_ms),
        "verdict_ms_tail": verdict_tail[0],
        "decided_share": raw["verdicts_decided"] / raw["verdicts_attempted"],
        "ok_share": ok / len(raw["outcomes"]),
        "exec_cost_ratio": geomean_ratio(pairs),
        "exec_never_worse_share": sum(1 for b, a in pairs if a <= b) / len(pairs),
        "size_ratio": raw["nodes_after"] / raw["nodes_before"],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    speeds = [row[2] for row in raw["compile_ms"]]
    notes = [
        f"host speed factor: median {median(speeds):.3f}, range "
        f"{min(speeds):.3f}-{max(speeds):.3f}; unscaled compile_ms_p50 = "
        f"{median(per_program(raw['compile_ms'], scaled=False)):.4f} ms, "
        f"programs_per_s = {len(raw['compile_ms']) / raw['timed_wall_s']:.4f}",
        f"compile_ms_tail = p{compile_tail[1]:.2f} of {compile_tail[2]} programs "
        f"(each the median of {raw['rounds']} rounds)",
        f"verdict_ms_tail = p{verdict_tail[1]:.2f} of {verdict_tail[2]} program pairs",
        f"exec paths sampled: {len(pairs)} (skipped at the step budget: "
        f"{raw['paths_skipped']})",
    ]
    return metrics, notes


def regressed_paths(raw):
    seeds = raw["program_seeds"]
    for program, schedule, before, after in raw["paths"]:
        if after > before:
            seed, suffix = seeds[program]
            yield (f"regressed path: workload={raw['workload']} program={program} "
                   f"program_seed={seed} suffix='{suffix}' schedule={schedule} "
                   f"bottleneck_time {before} -> {after}")


def build(build_dir):
    log = sys.stderr
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "parcm_perfbench")


def no_aslr():
    """Child set-up: turn off address-space randomization.

    With it on, the same input set timed in separate processes moved by up
    to 30% on sub-millisecond operations (heap and code layout change per
    process); with it off, by about 2%. Best effort: where the call is not
    permitted the run proceeds with randomization.
    """
    addr_no_randomize = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | addr_no_randomize)


def run_harness(exe, build_dir, args, trace, deadline, setup_only=False):
    """Runs one harness process; returns its raw record with setup_s added."""
    out = os.path.join(build_dir, f"raw-{args.workload}-{args.seed}-{trace}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--out", out,
           "--setup-only", "1" if setup_only else "0"]
    started = time.monotonic()
    subprocess.run(cmd, check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()),
                   preexec_fn=no_aslr)
    with open(out) as f:
        raw = json.load(f)
    raw["setup_s"] = (raw["setup_end_s"] - started) * raw["setup_speed"]
    return raw


def failures(raw):
    return [f"program {i}: {o['error']}" for i, o in enumerate(raw["outcomes"])
            if not o["ok"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_dir)
        deadline = time.monotonic() + RUN_LIMIT_S
        setup_s = [run_harness(exe, build_dir, args, 0, deadline, setup_only=True)
                   ["setup_s"] for _ in range(0 if args.trace else SETUP_PROCESSES - 1)]
        raw = run_harness(exe, build_dir, args, 0, deadline)
        setup_s.append(raw["setup_s"])
        traced = run_harness(exe, build_dir, args, 1, deadline) if args.trace else None
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    problems = failures(raw)
    metrics, notes = end_to_end_metrics(raw, setup_s)
    if traced is not None:
        problems += failures(traced)
        mismatched = [i for i, (a, b) in enumerate(zip(raw["outcomes"], traced["outcomes"]))
                      if a["digest"] != b["digest"]]
        if mismatched:
            problems.append(f"traced direct pass calls differ from the untraced "
                            f"output on programs {mismatched[:10]}")
        layer, breakdown = layer_metrics(traced, raw)
        report = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
        for k in sorted(PER_LAYER):
            print(f"{k:32s} {layer[k]:14.4f} {PER_LAYER[k]}")
        total = sum(breakdown.values())
        print("timed phase by layer (self time, wall):")
        for name, ms in sorted(breakdown.items(), key=lambda kv: -kv[1]):
            print(f"  {name:46s} {ms:12.1f} ms {100 * ms / total:6.1f}%")
    else:
        report = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
        for k in END_TO_END:
            print(f"{k:24s} {metrics[k]:14.4f} {END_TO_END[k]}")
    for note in notes:
        print(note)
    for line in regressed_paths(raw):
        print(line)
    for p in problems:
        print("FAILED:", p)
    failed = sum(1 for o in raw["outcomes"] if not o["ok"])
    print(json.dumps({
        "correct": not problems,
        "attempted": len(raw["outcomes"]),
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
