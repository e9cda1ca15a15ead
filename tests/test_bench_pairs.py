"""The summary and claim rule of scripts/bench_pairs.py, on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def result(wall, failed=0):
    return {"correct": True, "attempted": 40, "failed": failed,
            "metrics": {"wall_s": {"value": wall}, "ops_per_s": {"value": 40 / wall}}}


def pairs(parent_walls, change_walls, cold=(30.0, 31.0)):
    return [{"seed": 60 + i, "first": "parent" if i % 2 == 0 else "change",
             "parent": result(p), "change": result(c),
             "cold_peak_rss_mb": {"parent": cold[0] + i, "change": cold[1] + i}}
            for i, (p, c) in enumerate(zip(parent_walls, change_walls))]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("61-64") == [61, 62, 63, 64]
    assert bench_pairs.parse_seeds("3,5-6,9") == [3, 5, 6, 9]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("9-3")


def test_summary_counts_wins_in_each_metrics_direction():
    runs = pairs([0.20, 0.21, 0.22, 0.19], [0.17, 0.18, 0.23, 0.16])
    summary = bench_pairs.summarize(runs, METRICS)
    wall = summary["metrics"]["wall_s"]
    assert wall["change_better_in_pairs"] == 3
    assert summary["metrics"]["ops_per_s"]["change_better_in_pairs"] == 3
    assert wall["parent"] == {"median": 0.205, "q1": 0.1975, "q3": 0.2125}
    assert wall["median_change"] == round((0.175 - 0.205) / 0.205, 4)
    assert summary["first_side"] == ["parent", "change", "parent", "change"]
    assert summary["attempted_ops"] == {"parent": 160, "change": 160}


def test_claim_needs_nine_in_ten_wins_and_a_gap_past_the_parent_iqr():
    parent = [0.20 + 0.001 * i for i in range(10)]
    summary = bench_pairs.summarize(pairs(parent, [p - 0.03 for p in parent]), METRICS)
    assert bench_pairs.judge_claim(summary, "wall_s", lower=True)["met"]
    assert bench_pairs.judge_claim(summary, "ops_per_s", lower=False)["met"]
    eight_wins = [p - 0.03 for p in parent[:8]] + [p + 0.01 for p in parent[8:]]
    summary = bench_pairs.summarize(pairs(parent, eight_wins), METRICS)
    assert not bench_pairs.judge_claim(summary, "wall_s", lower=True)["met"]
    within_iqr = [p - 0.002 for p in parent]  # wins every pair, but by less than the IQR
    summary = bench_pairs.summarize(pairs(parent, within_iqr), METRICS)
    claim = bench_pairs.judge_claim(summary, "wall_s", lower=True)
    assert claim["change_wins"] == 10 and not claim["met"]


def test_summary_gives_the_cold_peaks_per_side_and_pair():
    summary = bench_pairs.summarize(pairs([0.2] * 4, [0.1] * 4, cold=(30.0, 32.5)), METRICS)
    cold = summary["cold_peak_rss_mb"]
    assert cold["max_order"] == 96
    assert cold["parent_runs"] == [30.0, 31.0, 32.0, 33.0]
    assert cold["change_runs"] == [32.5, 33.5, 34.5, 35.5]
    assert cold["parent"] == {"median": 31.5, "q1": 30.75, "q3": 32.25}
    assert cold["change"]["median"] == 34.0


def test_cold_peak_is_one_verify_process_of_the_tree(tmp_path):
    # The working tree's own verify, at a small order to keep it quick: a
    # python process with numpy loaded peaks at tens of MB.
    peak = bench_pairs.cold_peak_rss_mb(SCRIPT.parent.parent, tmp_path, max_order=16)
    assert 10 < peak < 500


def test_cold_peak_runs_a_warm_up_with_the_trees_bytecode_cache(tmp_path, monkeypatch):
    # An unmeasured warm-up first, then the measured verify, both with the
    # tree's own bytecode cache and free to write to it.
    calls = []
    real_popen = bench_pairs.subprocess.Popen

    def recording_popen(cmd, **kwargs):
        calls.append((cmd, kwargs["env"]))
        return real_popen(cmd, **kwargs)

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs.subprocess, "Popen", recording_popen)
    bench_pairs.cold_peak_rss_mb(SCRIPT.parent.parent, tmp_path / "pycache", max_order=16)
    assert [cmd[-2:] for cmd, _ in calls] == [["gpgraph", "--help"], ["--max-order", "16"]]
    assert [env["PYTHONPYCACHEPREFIX"] for _, env in calls] == [str(tmp_path / "pycache")] * 2
    assert not any("PYTHONDONTWRITEBYTECODE" in env for _, env in calls)
    assert any((tmp_path / "pycache").rglob("verify*.pyc"))


def test_regressions_mirror_the_claim_rule():
    # A metric is listed when the change is worse in at least nine pairs in
    # ten and its median is worse by more than the parent's IQR, in the
    # metric's own direction: wall_s up is worse, ops_per_s down is worse.
    parent = [0.20 + 0.001 * i for i in range(10)]
    summary = bench_pairs.summarize(pairs(parent, [p + 0.03 for p in parent]), METRICS)
    assert summary["regressions"] == ["wall_s", "ops_per_s"]
    assert summary["metrics"]["wall_s"]["change_worse_in_pairs"] == 10
    mirror = bench_pairs.judge_claim(summary, "wall_s", lower=True, mirror=True)
    assert mirror["change_losses"] == 10 and mirror["median_difference"] == 0.03
    # A gain is no regression, and neither are eight losses in ten or a
    # loss in every pair by less than the IQR.
    assert bench_pairs.summarize(pairs(parent, [p - 0.03 for p in parent]), METRICS)["regressions"] == []
    eight_losses = [p + 0.03 for p in parent[:8]] + [p - 0.01 for p in parent[8:]]
    assert bench_pairs.summarize(pairs(parent, eight_losses), METRICS)["regressions"] == []
    within_iqr = [p + 0.002 for p in parent]
    summary = bench_pairs.summarize(pairs(parent, within_iqr), METRICS)
    assert summary["metrics"]["wall_s"]["change_worse_in_pairs"] == 10
    assert summary["regressions"] == []


def test_beyond_bound_compares_the_medians_with_each_metrics_bound():
    # A metric is listed when the change's median is worse than the
    # parent's by more than its bound, a share of the parent median, in the
    # metric's own direction: 1.3 times the wall is 30% worse in wall_s but
    # 23% worse in ops_per_s, and 1.4 times is 29% worse in ops_per_s.
    parent = [0.20 + 0.001 * i for i in range(10)]

    def beyond(factor):
        return bench_pairs.summarize(pairs(parent, [p * factor for p in parent]), METRICS)["beyond_bound"]

    assert beyond(1.2) == []
    assert beyond(1.3) == ["wall_s"]
    assert beyond(1.4) == ["wall_s", "ops_per_s"]
    assert beyond(0.5) == []  # a gain is never beyond the bound
    # Half the pairs far worse, half a little better: the medians decide,
    # where the mirrored claim rule lists nothing.
    mixed = [p * 2 if i % 2 else p * 0.99 for i, p in enumerate(parent)]
    mixed[4] = parent[4] * 2
    summary = bench_pairs.summarize(pairs(parent, mixed), METRICS)
    assert summary["regressions"] == [] and summary["beyond_bound"] == ["wall_s", "ops_per_s"]
