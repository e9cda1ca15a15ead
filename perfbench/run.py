#!/usr/bin/env python3
"""gpgraph benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-96 --seed 1 --seconds 35 --trace 0

Imports gpgraph from ./src, builds the workload's inputs from the seed,
repeats passes over them for --seconds (each pass with gpgraph's caches
cleared), checks every output against an independent answer, and prints one
JSON object as the last line of stdout. With --trace 0 it reports the
end-to-end metrics, built from fastest times (see end_to_end); with
--trace 1 it alternates untraced and traced passes and reports per-layer
metrics. A line before it, starting with `info:`, records the run
environment and the verify report digest.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tr

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("verify-96", "group-queries", "planarity-graphs")
SETUP_SAMPLES = 7          # fresh processes timed for setup_s (this one included)
MIN_PASSES = 3
TAIL_BEYOND = 10           # op_tail_ms is the highest percentile with this many samples beyond it
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time import plus input generation, print it and exit")
    return parser.parse_args(argv)


def load_workloads(src: Path):
    """Import gpgraph from src (and nowhere else) plus the workload module."""
    sys.path.insert(0, str(src))
    import gpgraph
    import workloads

    if Path(gpgraph.__file__).resolve().parent != (src / "gpgraph").resolve():
        raise ImportError(f"gpgraph was imported from {gpgraph.__file__}, not from {src}")
    return workloads


def timed_setup(src: Path, workload: str, seed: int, workdir: str):
    """A fresh process's import of gpgraph plus input generation."""
    t0 = time.perf_counter()
    workloads = load_workloads(src)
    ops = workloads.WORKLOADS[workload](seed, workdir)
    return ops, time.perf_counter() - t0


def probe_setup(root: Path, workload: str, seed: int) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def environment(root: Path) -> dict:
    import numpy

    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit,
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def check(self, ops, outcomes) -> None:
        for op, (out, exc) in zip(ops, outcomes):
            self.attempted += 1
            if exc is not None:
                self.failed += 1
                print(f"failed: {op.label}: {exc!r}", file=sys.stderr)
                continue
            error = op.check(out)
            if error is not None:
                self.wrong += 1
                print(f"wrong: {error}", file=sys.stderr)


def reset(caches) -> None:
    """Start a pass cold: every gpgraph cache empty, no garbage pending."""
    for cache in caches.values():
        cache.cache_clear()
    gc.collect()


def run_ops(ops, marks=()):
    """One pass over the ops; returns ([segments of each op], [(output, exception)]).

    An op's segments are the durations between its start, each time appended
    to `marks` while it ran (see tracer.Marks), and its end; they sum to its
    latency.
    """
    segments, outcomes = [], []
    clock = time.perf_counter
    for op in ops:
        first = len(marks)
        t0 = clock()
        try:
            out, exc = op.run(), None
        except Exception as error:  # a failing op is counted, the run goes on
            out, exc = None, error
        t1 = clock()
        cuts = [t0, *marks[first:], t1]
        segments.append([b - a for a, b in zip(cuts, cuts[1:])])
        outcomes.append((out, exc))
    return segments, outcomes


def timed_pass(ops, caches, marks=()):
    reset(caches)
    t0 = time.perf_counter()
    segments, outcomes = run_ops(ops, marks)
    return time.perf_counter() - t0, segments, outcomes


def fastest(runs) -> tuple[float, bool]:
    """An op's time with each of its segments at its fastest over `runs` (one
    list of segment durations per pass), and whether the segments lined up.
    They line up when every pass cut the op at the same calls; otherwise the
    op's fastest whole run is taken."""
    if len({len(r) for r in runs}) == 1:
        return sum(min(durations) for durations in zip(*runs)), True
    return min(sum(r) for r in runs), False


def metric(value, unit):
    return {"value": value, "unit": unit}


def tail_ms(latencies):
    """(op_tail_ms, which statistic it is): the highest whole percentile with at
    least TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    n = len(latencies)
    p = 100 * (n - TAIL_BEYOND) // n if n > TAIL_BEYOND else 0
    if p < 50:
        return 1000 * max(latencies), "max"
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return 1000 * cuts[p - 1], f"p{p}"


def end_to_end(ops, caches, seconds, tally, setup_samples, probe, info):
    """Untraced passes for `seconds`; `probe()` times one more fresh set-up.

    The host this runs on is shared: each vCPU runs the same code at full or
    about half speed, flipping within a fraction of a second, with no steal
    time and no load the guest can see. So every time metric is built from
    fastest times, as timeit does: each op is cut into segments at its calls
    into gpgraph's group builder and GP constructor (tracer.Marks), each
    segment's fastest time over the passes is kept, and an op's time is the
    sum of its segments'. A verify-96 pass has about 3,200 segments of at
    most tens of milliseconds, so a slow stretch rarely covers the same
    segment in every pass. setup_s is the fastest set-up. The set-up probes
    are spread over the run, between passes.
    """
    walls, passes = [], []
    start = time.perf_counter()
    with tr.Marks() as marks:
        while True:
            wall, segments, outcomes = timed_pass(ops, caches, marks.times)
            marks.times.clear()
            tally.check(ops, outcomes)
            walls.append(wall)
            passes.append(segments)
            elapsed = time.perf_counter() - start
            while (len(setup_samples) < SETUP_SAMPLES
                   and elapsed >= seconds * len(setup_samples) / SETUP_SAMPLES):
                setup_samples.append(probe())
            if elapsed >= seconds and len(walls) >= MIN_PASSES:
                break
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(probe())
    best = [fastest(runs) for runs in zip(*passes)]  # one per op
    op_s = [t for t, _ in best]
    wall = sum(op_s)
    tail, info["op_tail"] = tail_ms(op_s)
    info["segments_per_pass"] = sum(len(s) for s in passes[-1])
    info["ops_not_lined_up"] = sum(1 for _, lined_up in best if not lined_up)
    info["absent_segment_points"] = marks.absent
    info["setup_samples_s"] = setup_samples
    info["pass_walls_s"] = walls
    info["passes"] = len(walls)
    return {
        "setup_s": metric(min(setup_samples), "s"),
        "wall_s": metric(wall, "s"),
        "ops_per_s": metric(len(ops) / wall, "1/s"),
        "op_p50_ms": metric(1000 * statistics.median(op_s), "ms"),
        "op_tail_ms": metric(tail, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


CACHE_COUNTERS = (
    ("catalog.build_cached", "gpgraph.catalog.build_cached"),
    ("catalog.catalog_cache", "gpgraph.catalog.catalog_up_to"),
)


def per_layer(ops, caches, seconds, tally, info):
    tracer = tr.Tracer()
    plain_walls, traced_walls = [], []
    cache_counts = {name: [0, 0] for name, _ in CACHE_COUNTERS}
    start = time.perf_counter()
    while True:
        wall, _, outcomes = timed_pass(ops, caches)
        tally.check(ops, outcomes)
        plain_walls.append(wall)
        reset(caches)
        with tracer:
            t0 = time.perf_counter()
            _, outcomes = tracer.run_root(lambda: run_ops(ops))
            wall = time.perf_counter() - t0
            for name, qualname in CACHE_COUNTERS:
                if qualname in caches:
                    stats = caches[qualname].cache_info()
                    cache_counts[name][0] += stats.hits
                    cache_counts[name][1] += stats.misses
        tally.check(ops, outcomes)
        traced_walls.append(wall)
        if time.perf_counter() - start >= seconds:
            break

    k = len(traced_walls)
    spans = tracer.spans
    m = {}

    def put(name, value, unit):
        m[name] = metric(value, unit)

    def span(name):
        return spans.get(name) or tr.Span()

    def self_s(*names):
        return sum(span(n).self_s for n in names) / k

    def calls(name):
        return span(name).calls / k

    def ratio(a, b):
        return a / b if b else 0.0

    kept = {order: size for (order, dedupe), size in tracer.catalog_sizes.items() if dedupe}
    dropped = 0
    enumerate_all = tracer.originals.get("catalog.catalog_up_to")
    for order, size in kept.items():
        try:
            dropped += len(enumerate_all(order, False)) - size
        except TypeError as exc:  # the catalog no longer takes a dedupe flag
            tracer.hook_errors.append(f"catalog.specs_dropped: {exc!r}")
    for cache in caches.values():
        cache.cache_clear()

    put("catalog.enumerate_s", span("catalog.catalog_up_to").total_s / k, "s")
    put("catalog.specs_kept", sum(kept.values()), "count")
    put("catalog.specs_dropped", dropped, "count")
    put("catalog.build_calls", calls("catalog.build"), "count")
    put("catalog.build_s", self_s("catalog.build"), "s")
    hits, misses = cache_counts["catalog.build_cached"]
    put("catalog.cache_hit_ratio", ratio(hits, hits + misses), "ratio")
    for name, (hits, misses) in cache_counts.items():
        put(f"{name}_hits", hits / k, "count")
        put(f"{name}_misses", misses / k, "count")

    put("groups.validate_calls", calls("groups.validate_and_build"), "count")
    put("groups.validate_s", self_s("groups.validate_and_build"), "s")
    put("groups.parse_s", self_s("groups.parse_cayley_table", "groups.read_cayley_table"), "s")
    put("groups.masks_calls", calls("groups.masks"), "count")
    put("groups.masks_s", self_s("groups.masks"), "s")
    put("groups.orders_s", self_s("groups.orders"), "s")
    put("groups.build_redundancy",
        ratio(span("catalog.build").calls / k, len(span("catalog.build").keys)), "ratio")

    gp = span("powergraph.gp")
    put("powergraph.gp_calls", calls("powergraph.gp"), "count")
    put("powergraph.gp_distinct", len(gp.keys), "count")
    put("powergraph.gp_redundancy", ratio(gp.calls / k, len(gp.keys)), "ratio")
    put("powergraph.gp_s", self_s("powergraph.gp"), "s")
    put("powergraph.pg_calls", calls("powergraph.pg"), "count")
    put("powergraph.pg_s", self_s("powergraph.pg"), "s")
    put("powergraph.edges_built", tracer.counters["powergraph.edges_built"] / k, "count")

    put("graphs.init_calls", calls("graphs.init"), "count")
    put("graphs.init_s", self_s("graphs.init"), "s")
    put("graphs.induced_calls", calls("graphs.induced"), "count")
    put("graphs.induced_s", self_s("graphs.induced"), "s")
    put("graphs.components_s", self_s("graphs.components"), "s")
    put("graphs.is_complete_s", self_s("graphs.is_complete"), "s")
    put("graphs.k5_probe_s", self_s("graphs.k5_probe"), "s")

    put("planarity.calls", calls("planarity.is_planar"), "count")
    put("planarity.s", self_s("planarity.is_planar"), "s")
    put("planarity.blocks_s", self_s("planarity.blocks"), "s")
    for method in ("euler-bound", "left-right", "k5-clique"):
        put(f"planarity.{method}.count", calls(f"planarity.method.{method}"), "count")
        put(f"planarity.{method}.s", span(f"planarity.method.{method}").total_s / k, "s")

    put("verify.self_s", self_s("verify.run_all"), "s")
    put("cli.self_s", self_s("cli.main"), "s")

    put("trace.overhead_ratio", statistics.median(traced_walls) / statistics.median(plain_walls), "ratio")
    put("trace.wall_s", sum(traced_walls) / k, "s")
    put("trace.harness_s", tracer.root_self_s / k, "s")
    put("trace.hooks_s", tracer.hooks_s / k, "s")
    put("wrong_answers", tally.wrong, "count")
    put("failed_ops", ratio(tally.failed, tally.attempted), "ratio")

    info["passes"] = {"plain": len(plain_walls), "traced": k}
    info["self_sum_s"] = tracer.self_sum() / k
    info["absent_entry_points"] = tracer.absent
    info["hook_errors"] = tracer.hook_errors[:10]
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "gpgraph" / "__init__.py").is_file():
        print(f"error: no gpgraph sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        ops, setup_s = timed_setup(src, args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # The inputs and reference data live for the whole run. Left in the
        # collector's generations, every full collection during a pass would
        # traverse them, adding about 0.1 s to whichever op it lands in.
        gc.collect()
        gc.freeze()
        caches = tr.find_caches()
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "ops_per_pass": len(ops),
            "loadavg_start": load_start,
            **environment(root),
            "caches": sorted(caches),
        }
        tally = Tally()
        if args.trace:
            metrics = per_layer(ops, caches, args.seconds, tally, info)
        else:
            metrics = end_to_end(ops, caches, args.seconds, tally, [setup_s],
                                 lambda: probe_setup(root, args.workload, args.seed), info)
        digests = ops[0].state.get("digests")
        if digests:
            info["verify_json_sha256"] = sorted(set(digests))
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": tally.wrong == 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
