"""Smoke test of the benchmark itself: a tiny seeded pass of each workload
under the tracer. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gpgraph  # noqa: E402
import gpgraph.cli  # noqa: E402
import gpgraph.verify  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

SEED = 7
TINY_OPS = 8


def tiny_ops(name: str, workdir: str):
    if name == "verify-96":
        return workloads.setup_verify(SEED, workdir, max_order=32)
    return workloads.WORKLOADS[name](SEED, workdir)[:TINY_OPS]


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_pass_is_right_and_adds_up(name, tmp_path):
    ops = tiny_ops(name, str(tmp_path))
    caches = tr.find_caches()
    tally = run.Tally()
    info = {}
    metrics = run.per_layer(ops, caches, 0, tally, info)

    assert tally.wrong == 0 and tally.failed == 0
    assert metrics["wrong_answers"]["value"] == 0
    assert set(metrics) == declared("per_layer")
    assert info["absent_entry_points"] == [] and info["hook_errors"] == []
    for key, m in metrics.items():
        assert m["value"] >= 0, key
    # Self times of all spans, hooks and the benchmark's own root add up to
    # the traced wall, which is timed outside the tracer.
    wall = metrics["trace.wall_s"]["value"]
    assert info["self_sum_s"] <= wall
    assert wall - info["self_sum_s"] <= 0.01 * wall + 1e-3


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_match_the_declaration(name, tmp_path):
    ops = tiny_ops(name, str(tmp_path))
    tally = run.Tally()
    info = {}
    build = gpgraph.catalog.build
    metrics = run.end_to_end(ops, tr.find_caches(), 0, tally, [0.5], lambda: 0.5, info)
    assert set(metrics) == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    assert tally.wrong == 0 and tally.failed == 0
    # Every pass cuts each op at the same calls, and the cuts are undone.
    assert info["absent_segment_points"] == [] and info["ops_not_lined_up"] == 0
    assert info["segments_per_pass"] >= len(ops)
    assert metrics["wall_s"]["value"] <= min(info["pass_walls_s"])
    assert gpgraph.catalog.build is build and gpgraph.build is build


def test_tracer_rebinds_from_imports_and_restores_them():
    original = gpgraph.powergraph.generalized_power_graph
    with tr.Tracer():
        assert gpgraph.verify.generalized_power_graph is not original
        assert gpgraph.verify.generalized_power_graph.__wrapped__ is original
        assert gpgraph.cli.run_all is gpgraph.verify.run_all
        assert gpgraph.cli.run_all.__wrapped__ is not None
    assert gpgraph.verify.generalized_power_graph is original


def test_missing_entry_point_is_absent_not_an_error(monkeypatch):
    monkeypatch.setattr(tr, "ENTRY_POINTS", tr.ENTRY_POINTS + (
        ("verify.gone", "gpgraph.verify", "check_that_was_deleted"),
        ("graphs.gone", "gpgraph.graphs", "SimpleGraph.removed_method"),
        ("nomodule.gone", "gpgraph.no_such_module", "f"),
    ))
    tracer = tr.Tracer()
    with tracer:
        pass
    assert set(tracer.absent) == {"verify.gone", "graphs.gone", "nomodule.gone"}


@pytest.mark.parametrize("n, statistic", [(1, "max"), (10, "max"), (20, "p50"), (40, "p75"), (100, "p90")])
def test_tail_leaves_ten_samples_beyond_it(n, statistic):
    value, name = run.tail_ms([i / 1000 for i in range(1, n + 1)])
    assert name == statistic
    beyond = sum(1 for i in range(1, n + 1) if i > value)
    assert beyond == 0 if name == "max" else beyond >= 10
