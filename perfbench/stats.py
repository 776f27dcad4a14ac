"""Metric registry and the statistics behind every reported number.

Pure functions only: run.py feeds them the raw record the C++ runner
writes, and test_perfbench.py exercises them on synthetic inputs.
"""

import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOADS = [
    ("batch", "Fig. 7 in miniature: six apps one-shot, 4 channels x 48 "
              "PUs; PU engine, shard stepping, memctl and dram do the work"),
    ("serve", "paced FleetService, Regex+SmithWaterman, two tenants, "
              "open-loop Poisson at three fixed rates; runtime and serve "
              "rounds do the work"),
    ("pipeline", "JsonParsing on device 0 into Regex on device 1 over the "
                 "default link, closed loop of 16 jobs; link, credits and "
                 "the cluster layer do the work"),
]

RATES = ["lo", "mid", "hi"]
APPS = ["JsonParsing", "IntegerCoding", "DecisionTree", "SmithWaterman",
        "Regex", "BloomFilter"]
TENANTS = ["t0", "t1"]

# p99 latency limit for serve's slo_rate, in simulated cycles (see
# README.md for how it was fixed).
SLO_P99_LIMIT_CYCLES = 2500

# (name, unit, better, bound, definition). Every workload reports every
# one of them; README.md gives the per-workload definitions, and the
# seed-to-seed spreads each bound was set from ("Bounds and steadiness").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "program build plus system/service/pipeline construction"),
    ("host_MBps", "MB/s", "higher", 0.25,
     "input MB per host second in library calls, set-up included"),
    ("peak_rss_MB", "MB", "lower", 0.2, "peak resident set size"),
    ("sim_GBps", "GB/s", "higher", 0.15,
     "input bytes per simulated second at the modelled clock"),
    ("sim_jobs_per_Mcycle", "jobs/Mcycle", "higher", 0.15,
     "jobs completed per simulated Mcycle"),
    ("p50_cycles", "cycles", "lower", 0.2,
     "median per-job simulated latency"),
    ("p99_cycles", "cycles", "lower", 0.22,
     "99th-percentile per-job simulated latency"),
]


def _per_layer():
    """(name, unit, better, end-to-end metric it moves, workload)."""
    out = [
        ("lang.build_s", "s", "lower", "setup_s", "all"),
        ("system.construct_s", "s", "lower", "setup_s, host_MBps",
         "batch"),
        ("system.run_s", "s", "lower", "host_MBps", "batch"),
        ("system.readback_s", "s", "lower", "host_MBps", "batch"),
        ("system.pu_cycles_per_s", "1/s", "higher", "host_MBps", "batch"),
        ("sim.functional_s", "s", "lower", "setup_s", "batch"),
        ("compile.compile_s", "s", "lower", "setup_s", "all"),
        ("rtl.opt_s", "s", "lower", "setup_s", "all"),
        ("rtl.tape_s", "s", "lower", "setup_s", "all"),
        ("rtl.jit_cold_s", "s", "lower", "setup_s", "all"),
        ("rtl.jit_warm_s", "s", "lower", "setup_s", "all"),
    ]
    for app in APPS:
        out += [
            ("sim_bytes_per_cycle." + app, "B/cycle", "higher",
             "sim_GBps", "batch"),
            ("memctl.input_starved_share." + app, "share", "lower",
             "sim_GBps", "batch"),
            ("memctl.output_blocked_share." + app, "share", "lower",
             "sim_GBps", "batch"),
            ("dram.bus_util." + app, "share", "higher", "sim_GBps",
             "batch"),
            ("dram.read_queue_depth." + app, "requests", "lower",
             "sim_GBps", "batch"),
        ]
    out.append(("serve.construct_s", "s", "lower", "setup_s", "serve"))
    for rate in RATES:
        out += [
            ("serve.submit_s." + rate, "s", "lower", "host_MBps", "serve"),
            ("serve.pump_s." + rate, "s", "lower", "host_MBps", "serve"),
            ("runtime.rounds." + rate, "count", "lower", "host_MBps",
             "serve"),
            ("runtime.queue_wait_cycles." + rate, "cycles", "lower",
             "p99_cycles", "serve"),
            ("runtime.service_cycles." + rate, "cycles", "lower",
             "p50_cycles", "serve"),
            ("runtime.harvest_lag_cycles." + rate, "cycles", "lower",
             "p50_cycles", "serve"),
            ("runtime.slot_occupancy." + rate, "share", "higher",
             "serve.slo_rate", "serve"),
            ("serve.rejected." + rate, "count", "lower", "serve.slo_rate",
             "serve"),
            ("serve.p50_cycles." + rate, "cycles", "lower", "p50_cycles",
             "serve"),
        ]
        out += [("runtime.tenant_wait_cycles.%s.%s" % (t, rate), "cycles",
                 "lower", "p99_cycles", "serve") for t in TENANTS]
    out += [
        ("serve.p99_cycles.lo", "cycles", "lower", "serve.slo_rate",
         "serve"),
        ("serve.p99_cycles.mid", "cycles", "lower", "serve.slo_rate",
         "serve"),
        # hi serves only about half its 2000 jobs, which can be too few
        # for p99.
        ("serve.p95_cycles.hi", "cycles", "lower", "p99_cycles", "serve"),
        ("serve.slo_rate", "jobs/Mcycle", "higher", "sim_jobs_per_Mcycle",
         "serve"),
        ("serve.generator_lag_cycles", "cycles", "lower", "p50_cycles",
         "serve"),
        ("cluster.construct_s", "s", "lower", "setup_s", "pipeline"),
        ("cluster.step_s", "s", "lower", "host_MBps", "pipeline"),
        ("cluster.rounds", "count", "lower", "host_MBps", "pipeline"),
        ("cluster.stage_service_cycles.s0", "cycles", "lower",
         "p50_cycles", "pipeline"),
        ("cluster.stage_service_cycles.s1", "cycles", "lower",
         "p50_cycles", "pipeline"),
        ("cluster.wire_wait_cycles", "cycles", "lower", "p99_cycles",
         "pipeline"),
        ("cluster.link_busy_share", "share", "lower",
         "sim_jobs_per_Mcycle", "pipeline"),
        ("cluster.link_bits", "bits", "lower", "sim_jobs_per_Mcycle",
         "pipeline"),
        ("bench.failed_share", "share", "lower", "correct", "all"),
        ("bench.trace_overhead_share", "share", "lower", "none", "all"),
    ]
    return out


PER_LAYER = _per_layer()


def manifest():
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _, _ in PER_LAYER],
    }


def schema_errors(doc):
    """Problems with a manifest: names, units, uniqueness, bounds."""
    errors = []
    seen = set()
    for group in ("end_to_end", "per_layer"):
        for m in doc[group]:
            if not NAME_RE.match(m["name"]):
                errors.append("bad name %r" % m["name"])
            if m["name"] in seen:
                errors.append("duplicate name %r" % m["name"])
            seen.add(m["name"])
            if not UNIT_RE.match(m.get("unit", "")):
                errors.append("bad unit for %r" % m["name"])
            if m.get("better") not in ("lower", "higher"):
                errors.append("bad direction for %r" % m["name"])
    for m in doc["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            errors.append("bound out of range for %r" % m["name"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(
            m["bound"] for m in doc["end_to_end"]):
        errors.append("setup_s must carry the largest bound")
    return errors


# ------------------------------------------------------------ percentiles

def rank(p, n):
    """1-based nearest rank of percentile p among n sorted samples."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def beyond(p, n):
    """Samples that lie beyond percentile p's nearest rank."""
    return n - rank(p, n)


def supports(p, n):
    """The ten-beyond rule: a percentile is reported only when at least
    ten samples lie beyond it."""
    return n > 0 and beyond(p, n) >= 10


def percentile(samples, p):
    """Nearest-rank percentile; raises if the sample cannot support it."""
    n = len(samples)
    if not supports(p, n):
        raise ValueError("%d samples cannot support p%s" % (n, p))
    return sorted(samples)[rank(p, n) - 1]


# -------------------------------------------------------------- slo_rate

def slo_rate(points, limit_cycles):
    """Highest fixed rate meeting the SLO, or 0 when none does.

    `points` maps a rate (jobs per Mcycle) to a dict with `latencies`
    (per-job cycles of the jobs served), `rejected` and `drain_cycles`
    (last completion minus last scheduled arrival). A rate meets the SLO
    when its p99 is within the limit, nothing was refused, and the
    backlog did not grow: the pool drained within the limit after the
    last arrival. A rate whose samples cannot support p99 fails.
    """
    best = 0.0
    for rate, point in points.items():
        lat = point["latencies"]
        if (supports(99, len(lat)) and
                percentile(lat, 99) <= limit_cycles and
                point["rejected"] == 0 and
                point["drain_cycles"] <= limit_cycles):
            best = max(best, rate)
    return best


# ----------------------------------------------------------------- spans

def self_times(spans):
    """Exclusive time of every span: its duration minus the part of it
    that its children cover. `spans` is a list of dicts with start, end
    and parent (index, -1 for a root)."""
    covered = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            covered[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s, kids in zip(spans, covered):
        busy, reach = 0.0, s["start"]
        for a, b in sorted(kids):
            a, b = max(a, reach, s["start"]), min(b, s["end"])
            if b > a:
                busy += b - a
                reach = b
        out.append((s["end"] - s["start"]) - busy)
    return out


def nesting_errors(spans, slack=1e-9):
    """Spans that their parent does not enclose."""
    errors = []
    for i, s in enumerate(spans):
        if s["end"] < s["start"]:
            errors.append("span %d ends before it starts" % i)
        p = s["parent"]
        if p >= 0:
            if p >= i:
                errors.append("span %d opened before its parent" % i)
                continue
            q = spans[p]
            if s["start"] < q["start"] - slack or s["end"] > q["end"] + slack:
                errors.append("span %d (%s) escapes parent %d (%s)" %
                              (i, s["name"], p, q["name"]))
    return errors


def subtree(spans, root):
    """Indices of `root` and all its descendants (parents precede
    children in recording order)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i]["parent"] in inside:
            inside.add(i)
    return sorted(inside)


def layer_table(spans, indices):
    """Exclusive seconds and call counts per span name."""
    exclusive = self_times(spans)
    table = {}
    for i in indices:
        row = table.setdefault(spans[i]["name"], [0.0, 0])
        row[0] += exclusive[i]
        row[1] += 1
    return table


def conservation_error(spans, root, wall_s):
    """|sum of exclusive times in the repetition's tree - its wall time|
    as a share of the wall time."""
    exclusive = self_times(spans)
    total = sum(exclusive[i] for i in subtree(spans, root))
    return abs(total - wall_s) / wall_s
