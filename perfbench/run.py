#!/usr/bin/env python3
"""End-to-end benchmark of the fleet simulator, on both clocks.

    python3 perfbench/run.py --workload batch|serve|pipeline --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

Builds perfbench/ (the library from src/ plus the C++ runner) under
$CARGO_TARGET_DIR (default .bench_build), runs one workload for S
seconds of repetitions and prints every metric by name and unit. The
last stdout line is one JSON object: correct, attempted, failed and
metrics -- the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. A traced run also writes a Chrome/Perfetto span file
and a per-layer self-time table next to the build. Exits non-zero when
any output differs from its golden or a self-check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import stats  # noqa: E402

# Host worker threads for every FleetSystem, fixed so host timings
# compare across commits. Two, not one per hardware thread: on a shared
# 4-vCPU host, four workers make every shard barrier wait on the
# slowest vCPU, and batch host_MBps then spread 0.27 across seeds
# against 0.08 with two.
THREADS = min(2, os.cpu_count() or 1)
# Repetition wall time vs the sum of its exclusive span times.
CONSERVATION_TOLERANCE = 0.01
BINARY_TIMEOUT_S = 160


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def local_env(out):
    """Environment that keeps compilers' scratch files in the checkout."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp),
                FLEET_JIT_CACHE_DIR=str(out / "jit-cache"))


def build(out):
    """Configure once, then build the runner; logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(out), "-j", jobs,
              "--target", "fleet_perfbench"]]
    if not (out / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, env=local_env(out)).returncode != 0:
            return None
    return out / "fleet_perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# ------------------------------------------------------------- metrics

def spans_of(raw):
    keys = ("name", "tag", "start", "end", "parent", "job")
    return [dict(zip(keys, s)) for s in raw["spans"]]


def end_to_end(raw):
    untraced = [r for r in raw["reps"] if not r["traced"]]
    lat = raw["latencies"][""]
    sim = raw["sim"]
    return {
        "setup_s": median(r["setup_s"] for r in untraced),
        "host_MBps": median(r["input_bytes"] / 1e6 / r["library_s"]
                            for r in untraced),
        "peak_rss_MB": raw["peak_rss_MB"],
        "sim_GBps": sim["sim_GBps"],
        "sim_jobs_per_Mcycle": sim["sim_jobs_per_Mcycle"],
        "p50_cycles": stats.percentile(lat, 50),
        "p99_cycles": stats.percentile(lat, 99),
    }


def call_seconds(spans, roots):
    """Median over traced repetitions of the time in each layer call,
    keyed by span name and by (span name, tag)."""
    per_rep = []
    for root in roots:
        totals = {}
        for i in stats.subtree(spans, root):
            s = spans[i]
            d = s["end"] - s["start"]
            totals[s["name"]] = totals.get(s["name"], 0.0) + d
            key = s["name"] + "." + s["tag"]
            totals[key] = totals.get(key, 0.0) + d
        per_rep.append(totals)
    keys = set().union(*per_rep) if per_rep else set()
    return {k: median(t.get(k, 0.0) for t in per_rep) for k in keys}


def per_layer(raw, spans):
    reps = raw["reps"]
    roots = [r["root_span"] for r in reps if r["traced"]]
    calls = call_seconds(spans, roots)
    sim = raw["sim"]
    lat = raw["latencies"]
    # A layer the workload does not use reads 0.
    out = {name: sim.get(name, 0.0) for name, *_ in stats.PER_LAYER}
    out.update(raw["probes"])
    for call in ("lang.build", "system.construct", "system.run",
                 "system.readback", "serve.construct", "cluster.construct",
                 "cluster.step"):
        out[call + "_s"] = calls.get(call, 0.0)
    for rate in stats.RATES:
        out["serve.submit_s." + rate] = calls.get("serve.submit." + rate, 0.0)
        out["serve.pump_s." + rate] = calls.get("serve.pump." + rate, 0.0)
    if out["system.run_s"] > 0:
        out["system.pu_cycles_per_s"] = (sim["system.pu_cycles"] /
                                         out["system.run_s"])
    if raw["workload"] == "serve":
        points = {}
        for rate in stats.RATES:
            out["serve.p50_cycles." + rate] = stats.percentile(lat[rate], 50)
            points[raw["shape"]["rate_jobs_per_Mcycle." + rate]] = {
                "latencies": lat[rate],
                "rejected": sim["serve.rejected." + rate],
                "drain_cycles": sim["serve.drain_cycles." + rate]}
        out["serve.p99_cycles.lo"] = stats.percentile(lat["lo"], 99)
        out["serve.p99_cycles.mid"] = stats.percentile(lat["mid"], 99)
        out["serve.p95_cycles.hi"] = stats.percentile(lat["hi"], 95)
        out["serve.slo_rate"] = stats.slo_rate(
            points, stats.SLO_P99_LIMIT_CYCLES)
    out["bench.failed_share"] = raw["failed"] / raw["attempted"]
    traced = median(r["wall_s"] for r in reps if r["traced"])
    untraced = median(r["wall_s"] for r in reps if not r["traced"])
    out["bench.trace_overhead_share"] = (traced - untraced) / untraced
    return out


def span_checks(raw, spans):
    """The span bookkeeping self-check: every parent encloses its
    children, and each traced repetition's exclusive times add up to
    its independently measured wall time."""
    errors = stats.nesting_errors(spans)
    for rep in raw["reps"]:
        if rep["traced"]:
            err = stats.conservation_error(spans, rep["root_span"],
                                           rep["wall_s"])
            if err > CONSERVATION_TOLERANCE:
                errors.append("repetition %d: exclusive times miss its wall "
                              "time by %.2f%%" % (rep["root_span"], 100 * err))
    return errors


def write_trace(raw, spans, out, provenance):
    """Chrome trace_event file (opens in Perfetto beside the cycle
    trace) and the per-layer self-time table of the traced run."""
    events = [{"name": "process_name", "ph": "M", "pid": 1,
               "args": {"name": "host: perfbench " + raw["workload"]}}]
    for i, s in enumerate(spans):
        events.append({
            "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
            "pid": 1, "tid": 1, "ts": s["start"] * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "args": {"id": i, "parent": s["parent"], "tag": s["tag"],
                     "job": s["job"]}})
    trace_path = out / ("%s_host_trace.json" % raw["workload"])
    with open(trace_path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": provenance}, f)

    roots = [r["root_span"] for r in raw["reps"] if r["traced"]]
    indices = [i for root in roots for i in stats.subtree(spans, root)]
    table = stats.layer_table(spans, indices)
    wall = sum(r["wall_s"] for r in raw["reps"] if r["traced"])
    lines = ["# %s: exclusive host time over %d traced repetitions "
             "(%.4f s wall)" % (raw["workload"], len(roots), wall),
             "%-28s %12s %8s %10s" % ("span", "self_s", "share", "calls")]
    for name, (self_s, calls) in sorted(table.items(),
                                        key=lambda kv: -kv[1][0]):
        lines.append("%-28s %12.6f %7.2f%% %10d" %
                     (name, self_s, 100 * self_s / wall, calls))
    total = sum(v[0] for v in table.values())
    lines.append("%-28s %12.6f %7.2f%%" % ("total", total,
                                           100 * total / wall))
    table_path = out / ("%s_layers.txt" % raw["workload"])
    table_path.write_text("\n".join(lines) + "\n")
    return trace_path, table_path


def provenance_of(raw, seconds):
    untraced = [r for r in raw["reps"] if not r["traced"]]
    return {
        "git_sha": git_sha(),
        "backend": raw["backend"],
        "default_backend": raw["default_backend"],
        "num_threads": raw["num_threads"],
        "nproc": raw["nproc"],
        "build_type": raw["build_type"],
        "seed": raw["seed"],
        "input_generation_s": raw["prepare_s"],
        "jit_cache_dir": raw["jit"]["cache_dir"],
        "jit_cache_was_warm": raw["jit"]["cache_was_warm"],
        "jit_available": raw["jit"]["available"],
        "run_seconds": seconds,
        "repetitions": len(untraced),
        "traced_repetitions": len(raw["reps"]) - len(untraced),
        "latency_samples": {k or "headline": len(v)
                            for k, v in raw["latencies"].items()},
        "shape": raw["shape"],
    }


def units():
    return {name: unit for name, unit, *_ in
            stats.END_TO_END + stats.PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=[name for name, _ in stats.WORKLOADS])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="regenerate BENCHMARK.json and exit")
    args = ap.parse_args(argv)

    if args.write_manifest:
        doc = stats.manifest()
        errors = stats.schema_errors(doc)
        if errors:
            return fail("; ".join(errors))
        (ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n")
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.print_usage(sys.stderr)
        return 2
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail("fleet sources (src/) not found next to perfbench/")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return fail("build failed")
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    raw_path = results / ("%s_raw.json" % args.workload)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--threads", str(THREADS), "--trace", str(args.trace),
           "--out", str(raw_path)]
    try:
        proc = subprocess.run(cmd, env=local_env(out), cwd=ROOT,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("workload timed out")
    if proc.returncode != 0:
        return fail("runner exited with %d" % proc.returncode)
    raw = json.loads(raw_path.read_text())

    provenance = provenance_of(raw, args.seconds)
    problems = []
    if raw["failed"]:
        problems.append("%d of %d outputs wrong or failed" %
                        (raw["failed"], raw["attempted"]))
    if not raw["deterministic"]:
        problems.append("simulated results differ between repetitions")
    if args.trace:
        spans = spans_of(raw)
        problems += span_checks(raw, spans)
        metrics = per_layer(raw, spans)
        trace_path, table_path = write_trace(raw, spans, results,
                                             provenance)
        print("trace: %s" % trace_path)
        print("layers: %s" % table_path)
        print(table_path.read_text(), end="")
    else:
        metrics = end_to_end(raw)

    print("provenance: " + json.dumps(provenance, sort_keys=True))
    unit_of = units()
    for name, value in metrics.items():
        print("%-40s %18.6f %s" % (name, value, unit_of[name]))
    for problem in problems:
        print("perfbench: " + problem, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
