#!/usr/bin/env python3
"""Paired benchmark runs: a parent commit against the working tree.

Run from the root of the repository:

    python3 scripts/bench_pairs.py --workload planarity-graphs --seeds 61-70 \\
        --claim planarity-graphs:wall_s --change "what changed" --out BENCH_name.json

The parent commit (--parent, default HEAD) is exported with `git archive`
into a temporary directory, which is removed at exit. For each workload and
seed the script runs `python3 perfbench/run.py --workload W --seed S
--seconds N --trace 0` once in that copy and once in the working tree, one
run at a time, with N from BENCHMARK.json unless --seconds is given. The
side that runs first alternates from pair to pair (the parent first in the
first pair). Each tree runs its own perfbench. After each run, the same tree
runs one cold `gpgraph verify --max-order 96` process, whose own peak RSS
(ru_maxrss from wait4, so Linux or another Unix) is recorded beside the run:
perfbench's peak_rss_mb grows with the number of passes a run makes, and
this number does not. That process reads bytecode that an unmeasured
`gpgraph --help` process has just cached for its tree, in a cache of the
tree's own, so no compile counts in its peak. The result file, rewritten
after every pair, gives each end-to-end metric of BENCHMARK.json per side as
median and inclusive quartiles, the number of pairs the change won, and
every run, and the cold peaks the same way. A claim (workload:metric) is met
when the change wins at least nine tenths of the pairs and the medians
differ, in the better direction, by more than the distance between the
parent's quartiles. Each workload's `regressions` lists the end-to-end
metrics that the change made worse by the mirror of that rule: worse in at
least nine tenths of the pairs, with the medians apart in the worse
direction by more than the parent's IQR. Its `beyond_bound` lists the
end-to-end metrics whose change median is worse than the parent median by
more than the metric's `bound` in BENCHMARK.json, taken as a share of the
parent median: the benchmark's own no-regression rule. Standard library
only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_WIN_SHARE = 0.9
COLD_VERIFY_MAX_ORDER = 96


def parse_seeds(text: str) -> list[int]:
    """'61-70' or '3,5,8' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def export_commit(commit: str, dest: Path) -> None:
    """The commit's files, as `git archive` gives them, under dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree: its result line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def cold_peak_rss_mb(tree: Path, pycache: Path, max_order: int = COLD_VERIFY_MAX_ORDER) -> float:
    """Peak RSS in MB of one fresh `gpgraph verify --max-order N` process
    run from tree's own src/, read from that child's rusage alone.

    Bytecode is cached under `pycache`, the tree's own PYTHONPYCACHEPREFIX,
    and one unmeasured `gpgraph --help` process writes it first, so the
    measured process loads bytecode and compiles nothing: a compile's peak
    grows with the length of the module, not with what the run does."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONPYCACHEPREFIX=str(pycache))
    subprocess.run([sys.executable, "-m", "gpgraph", "--help"], cwd=tree, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    cmd = [sys.executable, "-m", "gpgraph", "verify", "--max-order", str(max_order)]
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}")
    return usage.ru_maxrss / 1024  # kB on Linux


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:  # after the first pair of a run
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-workload summary of paired runs; runs[i] = {"seed", "first",
    "parent": result, "change": result, "cold_peak_rss_mb": {"parent": MB,
    "change": MB}}, metrics as BENCHMARK.json's end_to_end, each with its
    bound."""
    out = {
        "pairs": len(runs),
        "seeds": [r["seed"] for r in runs],
        "first_side": [r["first"] for r in runs],
        "all_correct": all(r[side]["correct"] for r in runs for side in ("parent", "change")),
        "failed_ops": {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")},
        "attempted_ops": {side: sum(r[side]["attempted"] for r in runs) for side in ("parent", "change")},
        "metrics": {},
    }
    beyond_bound = []
    cold = {side: [r["cold_peak_rss_mb"][side] for r in runs] for side in ("parent", "change")}
    out["cold_peak_rss_mb"] = {
        "max_order": COLD_VERIFY_MAX_ORDER,
        **{side: quartiles(values) for side, values in cold.items()},
        **{f"{side}_runs": [round(v, 2) for v in values] for side, values in cold.items()},
    }
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        if (c_med - p_med if lower else p_med - c_med) > metric["bound"] * abs(p_med):
            beyond_bound.append(name)
        out["metrics"][name] = {
            "unit": metric["unit"],
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_better_in_pairs": wins,
            "change_worse_in_pairs": losses,
            "median_change": round((c_med - p_med) / p_med, 4) if p_med else None,
            "parent_runs": [round(v, 4) for v in parent],
            "change_runs": [round(v, 4) for v in change],
        }
    out["regressions"] = [m["name"] for m in metrics
                          if judge_claim(out, m["name"], m["better"] == "lower", mirror=True)["met"]]
    out["beyond_bound"] = beyond_bound
    return out


def judge_claim(summary: dict, metric: str, lower: bool, mirror: bool = False) -> dict:
    """The claim rule: the change wins at least CLAIM_WIN_SHARE of the
    pairs, and the medians differ in the better direction by more than the
    parent's IQR. With mirror=True, the mirrored rule, which marks a
    regression: the change loses that share of the pairs, and the medians
    differ in the worse direction by more than the parent's IQR."""
    m = summary["metrics"][metric]
    gap = m["parent"]["median"] - m["change"]["median"]
    if lower == mirror:
        gap = -gap
    count = m["change_worse_in_pairs" if mirror else "change_better_in_pairs"]
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    return {
        "metric": metric,
        "change_losses" if mirror else "change_wins": count,
        "pairs": summary["pairs"],
        "median_difference": round(gap, 4),
        "parent_iqr": round(iqr, 4),
        "met": count >= CLAIM_WIN_SHARE * summary["pairs"] and gap > iqr,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat for several")
    parser.add_argument("--seeds", required=True, help="e.g. 61-70 or 3,5,8")
    parser.add_argument("--seconds", type=float,
                        help="length of each run; BENCHMARK.json's run_seconds by default")
    parser.add_argument("--parent", default="HEAD", help="the commit to compare against")
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--out", required=True, type=Path)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    known = {w["name"] for w in bench["workloads"]}
    unknown = [w for w in args.workload if w not in known]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; BENCHMARK.json has {sorted(known)}")
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        better = {m["name"]: m["better"] for m in metrics}
        if workload not in args.workload or metric not in better:
            raise SystemExit(f"--claim {args.claim!r} names no measured workload:metric")
        claim = (workload, metric, better[metric] == "lower")
    numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                   check=True, capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    report = {
        "change": args.change,
        "parent_commit": commit,
        "protocol": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
            "run in a `git archive` export of the parent and in the working tree; one pair per "
            f"seed ({args.seeds}), one run at a time, the side that runs first alternating from "
            "pair to pair, the parent first in the first pair. q1/q3 are inclusive "
            "(linear-interpolation) quartiles of one side's runs; median_change is (change median "
            "- parent median) / parent median; runs are listed in seed order. After each run "
            f"the same tree runs one `python -m gpgraph verify --max-order {COLD_VERIFY_MAX_ORDER}` "
            "process; cold_peak_rss_mb is that process's ru_maxrss. Each tree caches its bytecode "
            "under its own PYTHONPYCACHEPREFIX in the run's temporary directory, with "
            "PYTHONDONTWRITEBYTECODE unset, and an unmeasured `python -m gpgraph --help` process "
            "runs before each measured one, so the measured process compiles nothing."),
        "hardware": f"{os.cpu_count()} CPU {platform.machine()}, Python {platform.python_version()}, "
                    f"numpy {numpy_version}",
        "claim": None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        export_commit(commit, parent_tree)
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(seeds):
                first = "parent" if i % 2 == 0 else "change"
                pair = {"seed": seed, "first": first}
                for side in (first, "change" if first == "parent" else "parent"):
                    tree = parent_tree if side == "parent" else ROOT
                    pair[side] = run_once(tree, workload, seed, seconds)
                    pair.setdefault("cold_peak_rss_mb", {})[side] = cold_peak_rss_mb(
                        tree, Path(tmp) / f"pycache-{side}")
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{pair[side]['metrics']['wall_s']['value']:.4f}, cold verify peak "
                          f"{pair['cold_peak_rss_mb'][side]:.1f} MB", file=sys.stderr)
                runs.append(pair)
                report["workloads"][workload] = summarize(runs, metrics)
                if claim and claim[0] == workload:
                    report["claim"] = {"workload": workload,
                                       **judge_claim(report["workloads"][workload], *claim[1:])}
                args.out.write_text(json.dumps(report, indent=1) + "\n")
            summary = report["workloads"][workload]
            if summary["regressions"]:
                print(f"{workload}: the change is worse by the mirrored claim rule in "
                      f"{', '.join(summary['regressions'])}", file=sys.stderr)
            if summary["beyond_bound"]:
                print(f"{workload}: the change's median is worse than the parent's by more "
                      f"than the bound in {', '.join(summary['beyond_bound'])}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
