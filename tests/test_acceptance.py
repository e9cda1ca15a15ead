"""Acceptance suite: every classification claim reproduced at its stated
tolerance, with one pass/fail line and a wall-clock budget per criterion."""

import hashlib
import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    complete_bipartite,
    complete_graph,
    grid_graph,
    partition_count,
    petersen_graph,
    wheel_graph,
)
from gpgraph.catalog import build, catalog_up_to, parse_spec
from gpgraph.graphs import SimpleGraph
from gpgraph.groups import closure_from_permutations, prime_factors, validate_and_build
from gpgraph.planarity import euler_bound_check, is_planar
from gpgraph.powergraph import VertexConvention, generalized_power_graph
from gpgraph.verify import (
    VERDICT_CONFIRMED,
    FactsTable,
    VerifyConfig,
    check_abelian_planarity_classification,
    check_completeness_abelian,
    check_pgroup_components,
    reports_to_json,
    run_all,
)
from planarity_oracle import is_planar_oracle
from test_groups import Q8_PERM_GENERATORS

STRICT = VertexConvention.STRICT
PUNCTURED = VertexConvention.PUNCTURED


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL - {description}")
        raise
    dt = time.perf_counter() - t0
    ok = dt < budget_s
    status = "PASS" if ok else "FAIL (over budget)"
    print(f"[acceptance] criterion {num}: {status} - {description} ({dt:.2f}s, budget {budget_s:.0f}s)")
    assert ok, f"criterion {num} took {dt:.2f}s, budget {budget_s}s"


def nonabelian_specs(max_order: int):
    return [
        s for s in catalog_up_to(max_order)
        if not s.is_abelian_family and 2 <= s.order() <= max_order
    ]


def test_criterion_1_abelian_completeness():
    with criterion(1, "GP complete iff cyclic prime-power, abelian order <= 64", 5.0):
        expected_census = sum(
            math.prod(partition_count(a) for a in prime_factors(n).values())
            for n in range(2, 65)
        )
        facts = FactsTable(64, (STRICT,))  # carries Punctured too
        for conv in (STRICT, PUNCTURED):
            report = check_completeness_abelian(facts, conv)
            assert report.verdict == VERDICT_CONFIRMED
            assert not report.counterexamples
            assert report.census_groups == expected_census  # 116 classes


def test_criterion_2_quaternion_completeness():
    with criterion(2, "complete GP among non-abelian order <= 64 exactly the Q_{2^n}", 5.0):
        for order, clique in ((8, 7), (16, 15), (32, 31)):
            g = generalized_power_graph(build(parse_spec(f"gq:{order}")), PUNCTURED)
            assert g.v == clique
            assert g.is_complete()
        for conv in (STRICT, PUNCTURED):
            complete = {
                s.to_text()
                for s in nonabelian_specs(64)
                if generalized_power_graph(build(s), conv).is_complete()
            }
            assert complete == {"gq:8", "gq:16", "gq:32", "gq:64"}


def test_criterion_3_pgroup_components():
    with criterion(3, "p-group GP components complete, count = #subgroups of order p (<= 81)", 10.0):
        facts = FactsTable(81, (STRICT,))  # carries Punctured too
        report = check_pgroup_components(facts, PUNCTURED)
        assert report.verdict == VERDICT_CONFIRMED
        assert not report.counterexamples

        # Strict only degenerates on prime-order cyclic groups (empty vertex set).
        report_strict = check_pgroup_components(facts, STRICT)
        assert report_strict.verdict == VERDICT_CONFIRMED

        heis = build(parse_spec("heisenberg:3"))
        g = generalized_power_graph(heis, PUNCTURED)
        comps = g.connected_components()
        assert len(comps) == 13 == len(heis.subgroups_of_order_p(3))
        assert all(len(c) == 2 for c in comps)

        g33 = build(parse_spec("abelian:3,3"))
        g = generalized_power_graph(g33, PUNCTURED)
        assert len(g.connected_components()) == 4 == len(g33.subgroups_of_order_p(3))


def test_criterion_4_abelian_planarity_classification():
    with criterion(4, "planar abelian GP (<= 100): the five families; Strict adds 5 discrepancies", 30.0):
        expected = {"cyclic:4", "cyclic:6"}
        for p in (2, 3, 5):
            k = 1
            while p ** k <= 100:
                expected.add("cyclic:%d" % p if k == 1 else "abelian:" + ",".join([str(p)] * k))
                k += 1

        abelian = [
            s for s in catalog_up_to(100)
            if s.is_abelian_family and 2 <= s.order() <= 100
        ]
        planar_punctured = {
            s.to_text() for s in abelian
            if is_planar(generalized_power_graph(build(s), PUNCTURED)).planar
        }
        assert planar_punctured == expected

        facts = FactsTable(100, (STRICT,))  # carries Punctured too
        report = check_abelian_planarity_classification(facts, PUNCTURED)
        assert report.verdict == VERDICT_CONFIRMED and not report.discrepancies

        report_strict = check_abelian_planarity_classification(facts, STRICT)
        assert report_strict.verdict == VERDICT_CONFIRMED
        assert {f.group for f in report_strict.discrepancies} == {
            "cyclic:8", "cyclic:9", "cyclic:10", "cyclic:15", "cyclic:25"
        }


def test_criterion_5_nonabelian_pgroup_planarity():
    with criterion(5, "only D_8 planar among non-abelian 2-groups <= 64; Heisenberg(3) = 13 x K_2", 10.0):
        two_groups = [s for s in nonabelian_specs(64) if len(prime_factors(s.order())) == 1
                      and next(iter(prime_factors(s.order()))) == 2]
        assert len(two_groups) > 10
        planar = {
            s.to_text() for s in two_groups
            if is_planar(generalized_power_graph(build(s), PUNCTURED)).planar
        }
        assert planar == {"dihedral:4"}

        heis = build(parse_spec("heisenberg:3"))
        assert heis.exponent() == 3
        g = generalized_power_graph(heis, PUNCTURED)
        assert is_planar(g).planar
        comps = g.connected_components()
        assert len(comps) == (3 ** 3 - 1) // (3 - 1) == 13
        for c in comps:
            assert len(c) == 2
            assert g.induced_subgraph(c).is_complete()


def test_criterion_6_prime_divisor_lemmas():
    with criterion(6, "Z_210 (K_5 witness), Z_14, Z_21, D_14 non-planar; Z_10, Z_15 non-planar punctured", 10.0):
        z210 = build(parse_spec("cyclic:210"))
        for conv in (STRICT, PUNCTURED):
            g = generalized_power_graph(z210, conv)
            assert g.v == (161 if conv is STRICT else 209)
            verdict = is_planar(g, find_k5_witness=True)
            assert not verdict.planar
            assert verdict.witness is not None
            assert g.induced_subgraph(list(verdict.witness)).is_complete()

        for spec in ("cyclic:14", "cyclic:21", "dihedral:7"):
            group = build(parse_spec(spec))
            for conv in (STRICT, PUNCTURED):
                assert not is_planar(generalized_power_graph(group, conv)).planar

        for spec in ("cyclic:10", "cyclic:15"):
            group = build(parse_spec(spec))
            assert not is_planar(generalized_power_graph(group, PUNCTURED)).planar
            assert is_planar(generalized_power_graph(group, STRICT)).planar  # the known discrepancy


def test_criterion_7_planarity_cross_validation():
    with criterion(7, "left-right vs vertex-addition oracle: named graphs + 520 random, 100% agreement", 30.0):
        named = [
            (complete_graph(4), True), (complete_graph(5), False),
            (complete_bipartite(3, 3), False), (petersen_graph(), False),
            (grid_graph(5, 5), True),
            (wheel_graph(5), True), (wheel_graph(6), True),
            (wheel_graph(7), True), (wheel_graph(8), True),
        ]
        for g, expected in named:
            assert is_planar(g).planar == expected
            assert is_planar_oracle(g) == expected

        rng = random.Random(20260810)
        checked = 0
        for trial in range(520):
            v = rng.randint(1, 60)
            pairs = list(itertools.combinations(range(v), 2))
            band = trial % 3
            if band == 0:
                e = rng.randint(0, min(len(pairs), int(1.5 * v)))
            elif band == 1:
                e = rng.randint(0, min(len(pairs), 3 * v))
            else:
                e = rng.randint(0, len(pairs))
            g = SimpleGraph.from_edges(v, rng.sample(pairs, e))
            verdict = is_planar(g)
            assert verdict.planar == is_planar_oracle(g)
            if verdict.planar:
                assert euler_bound_check(g)
            checked += 1
        assert checked >= 500


def test_criterion_8_group_axiom_suite():
    with criterion(8, "all catalog tables <= 256 pass full validation unchanged; Lagrange; "
                      "closure matches constructors", 60.0):
        specs = catalog_up_to(256, False)
        assert len(specs) > 1500
        for spec in specs:
            group = build(spec)
            # full closure/identity/inverse/associativity validation
            checked = validate_and_build(group.table)
            assert group.n == spec.order(), spec
            assert checked.table.dtype == group.table.dtype, spec
            assert np.array_equal(checked.table, group.table), spec
            assert np.array_equal(checked.inverses, group.inverses), spec
            orders = np.asarray(group.orders)
            assert (group.n % orders == 0).all()

        # permutation closures reproduce fingerprint-identical groups
        s3 = closure_from_permutations(3, [(1, 0, 2), (1, 2, 0)])
        assert s3.fingerprint() == build(parse_spec("symmetric:3")).fingerprint()
        q8 = closure_from_permutations(8, Q8_PERM_GENERATORS)
        assert q8.fingerprint() == build(parse_spec("gq:8")).fingerprint()


def test_criterion_9_determinism():
    with criterion(9, "verify runs emit byte-identical, pinned JSON", 60.0):
        base = VerifyConfig(max_order=64, conventions=(STRICT, PUNCTURED))
        one = reports_to_json(run_all(base)).encode("utf-8")
        two = reports_to_json(run_all(base)).encode("utf-8")
        assert one == two
        assert hashlib.sha256(one).hexdigest() == (
            "5393482314021e9090fdba54539cfd6b0649a9eb49ea0251738c9172d925c8c8"
        )
