import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest

from gpgraph.catalog import build, catalog_up_to, parse_spec
from gpgraph.cli import main
from gpgraph.planarity import is_planar
from gpgraph.powergraph import VertexConvention, generalized_power_graph, vertex_elements
from gpgraph.verify import (
    DEFAULT_CONVENTIONS,
    ConventionUnsupported,
    FactsTable,
    VERDICT_CONFIRMED,
    VERDICT_COUNTEREXAMPLES,
    VERDICT_NOT_APPLICABLE,
    VerifyConfig,
    check_abelian_planarity_classification,
    check_completeness_abelian,
    check_completeness_nonabelian,
    check_pgroup_components,
    check_planarity_prime_lemmas,
    check_prufer_shadow,
    punctured_counterexample_free,
    reports_to_json,
    run_all,
)

STRICT = VertexConvention.STRICT
PUNCTURED = VertexConvention.PUNCTURED
FULL = VertexConvention.FULL


def facts(max_order, convention):
    return FactsTable(max_order, (convention,))


class TestIndividualChecks:
    def test_t22_confirmed_small(self):
        for conv in (STRICT, PUNCTURED):
            report = check_completeness_abelian(facts(24, conv), conv)
            assert report.verdict == VERDICT_CONFIRMED
            assert report.census_groups > 0

    def test_t22_full_convention_reports_broken_direction(self):
        report = check_completeness_abelian(facts(24, FULL), FULL)
        assert report.verdict == VERDICT_COUNTEREXAMPLES
        # every cyclic prime-power group breaks via the isolated identity
        names = {f.group for f in report.counterexamples}
        assert "cyclic:8" in names and "cyclic:9" in names
        assert any("'if' direction" in n for n in report.notes)

    def test_t31_catalog_relative(self):
        report = check_completeness_nonabelian(facts(32, PUNCTURED), PUNCTURED)
        assert report.verdict == VERDICT_CONFIRMED
        assert report.catalog_relative

    def test_t34_raises_on_identity_bearing_conventions(self):
        with pytest.raises(ConventionUnsupported):
            check_pgroup_components(facts(16, FULL), FULL)

    def test_t34_strict_notes_vacuous_primes(self):
        report = check_pgroup_components(facts(16, STRICT), STRICT)
        assert report.verdict == VERDICT_CONFIRMED
        assert any("vacuous" in n and "cyclic:13" in n for n in report.notes)

    def test_lemma_reports(self):
        l41, l42, l43 = check_planarity_prime_lemmas(facts(20, PUNCTURED), PUNCTURED)
        assert (l41.theorem, l42.theorem, l43.theorem) == ("L4.1", "L4.2", "L4.3")
        assert all(r.verdict == VERDICT_CONFIRMED for r in (l41, l42, l43))
        assert any("K5 witness for cyclic:210" in n for n in l41.notes)

    def test_l43_strict_discrepancies(self):
        _, _, l43 = check_planarity_prime_lemmas(facts(20, STRICT), STRICT)
        assert l43.verdict == VERDICT_CONFIRMED
        assert {f.group for f in l43.discrepancies} == {"cyclic:10", "cyclic:15"}

    def test_t44_strict_discrepancies_at_32(self):
        report = check_abelian_planarity_classification(facts(32, STRICT), STRICT)
        assert report.verdict == VERDICT_CONFIRMED
        assert {f.group for f in report.discrepancies} == {
            "cyclic:8", "cyclic:9", "cyclic:10", "cyclic:15", "cyclic:25"
        }

    def test_prufer_shadow(self):
        for conv in (STRICT, PUNCTURED):
            assert check_prufer_shadow(facts(2, conv), conv, 2, 6).verdict == VERDICT_CONFIRMED
            assert check_prufer_shadow(facts(2, conv), conv, 3, 4).verdict == VERDICT_CONFIRMED

    def test_prufer_shadow_degenerate_note(self):
        report = check_prufer_shadow(facts(2, STRICT), STRICT, 2, 1)
        assert report.verdict == VERDICT_CONFIRMED
        assert any("degenerate" in n for n in report.notes)

    def test_prufer_shadow_preconditions(self):
        with pytest.raises(ValueError):
            check_prufer_shadow(facts(2, PUNCTURED), PUNCTURED, 4, 2)
        with pytest.raises(ValueError):
            check_prufer_shadow(facts(2, PUNCTURED), PUNCTURED, 2, 13)


class TestRunAll:
    def test_report_census_and_ordering(self):
        reports = run_all(VerifyConfig(max_order=16))
        assert len(reports) == 20  # 10 theorem ids x 2 conventions
        keys = [(r.theorem, r.convention) for r in reports]
        assert keys == sorted(keys)

    def test_verdict_invariant(self):
        reports = run_all(VerifyConfig(max_order=16, conventions=tuple(VertexConvention)))
        assert len(reports) == 40
        for r in reports:
            assert (r.verdict == VERDICT_COUNTEREXAMPLES) == bool(r.counterexamples)
            if r.verdict != VERDICT_NOT_APPLICABLE:
                assert r.census_groups > 0

    def test_catalog_built_before_first_check(self, monkeypatch):
        # The catalog build and the facts are charged to no check's runtime.
        import gpgraph.verify as verify

        facts_at_first_check = []
        real = verify.check_completeness_abelian

        def spy(table, *args, **kwargs):
            facts_at_first_check.append(len(table._facts))
            return real(table, *args, **kwargs)

        monkeypatch.setattr(verify, "check_completeness_abelian", spy)
        run_all(VerifyConfig(max_order=12, conventions=(PUNCTURED,)))
        assert facts_at_first_check == [sum(s.order() >= 2 for s in catalog_up_to(12, True))]

    def test_prufer_cap_fails_before_the_census(self, monkeypatch):
        import gpgraph.verify as verify

        def no_catalog(*args, **kwargs):
            raise AssertionError("catalog enumerated before the Prufer cap was checked")

        monkeypatch.setattr(verify, "catalog_groups", no_catalog)
        with pytest.raises(ValueError, match="exceeds the 4096 cap"):
            run_all(VerifyConfig(max_order=8192))

    def test_each_group_and_graph_built_once(self, monkeypatch):
        # Every build in a run is counted: the catalog pass, which builds the
        # specs that dedupe drops too, and the lookups of off-catalog targets.
        # GP(G) is built once per distinct vertex set of a kept group: the
        # conventions that give a group the same vertex set share one graph.
        import gpgraph.catalog as catalog
        import gpgraph.verify as verify

        targets = ["cyclic:210"]  # L4.1's target, the only one above 24
        kept = [s.to_text() for s in catalog_up_to(24, True) if s.order() >= 2] + targets
        every = [s.to_text() for s in catalog_up_to(24, False)] + targets
        groups = {text: build(parse_spec(text)) for text in kept}

        spec_of = {}  # id(group) -> spec text; the groups are kept alive below
        built, graphs = [], []

        def counting_build(spec):
            group = build(spec)
            built.append((spec.to_text(), group))
            spec_of[id(group)] = spec.to_text()
            return group

        def counting_gp(group, convention):
            graphs.append((spec_of[id(group)], tuple(vertex_elements(group, convention))))
            return generalized_power_graph(group, convention)

        monkeypatch.setattr(catalog, "build", counting_build)
        monkeypatch.setattr(verify, "build", counting_build)
        monkeypatch.setattr(verify, "generalized_power_graph", counting_gp)
        for conventions in (DEFAULT_CONVENTIONS, tuple(VertexConvention)):
            built.clear()
            graphs.clear()
            run_all(VerifyConfig(max_order=24, conventions=conventions))
            assert Counter(text for text, _ in built) == Counter(every)
            assert Counter(graphs) == Counter(
                (text, vertex_set) for text, group in groups.items()
                for vertex_set in {tuple(vertex_elements(group, c)) for c in conventions})
        # a non-cyclic group has one vertex set per identity rule
        assert len({vs for text, vs in graphs if text == "dihedral:4"}) == 2

    def test_records_match_fresh_graphs(self):
        # Each record, shared between conventions or not, equals the one read
        # off a fresh GP(G) of its own convention through the public graph
        # calls; `complete` is checked against is_complete().
        table = FactsTable(64, tuple(VertexConvention))
        table.fill()
        specs = table.census(lambda s: True, ("cyclic:210",))
        assert len(specs) == sum(s.order() >= 2 for s in catalog_up_to(64)) + 1
        for spec in specs:
            group = build(spec)
            for convention in VertexConvention:
                record = table(spec, convention)
                g = generalized_power_graph(group, convention)
                comps = g.connected_components()
                verdict = is_planar(g, find_k5_witness=spec.to_text() == "cyclic:210")
                witness = verdict.witness and tuple(g.labels[x] for x in verdict.witness)
                assert record == replace(
                    record,
                    v=g.v,
                    complete=g.is_complete(),
                    component_sizes=tuple(len(c) for c in comps),
                    components_complete=g.components_complete(comps),
                    planar=verdict.planar,
                    k5_witness=witness,
                ), (spec.to_text(), convention)

    def test_t34_not_applicable_under_full(self):
        reports = run_all(VerifyConfig(max_order=16, conventions=(FULL,)))
        t34 = next(r for r in reports if r.theorem == "T3.4")
        assert t34.verdict == VERDICT_NOT_APPLICABLE

    def test_counterexamples_reverify(self):
        # Rebuilding the named group and re-running the property must
        # reproduce the observed value.
        reports = run_all(VerifyConfig(max_order=16, conventions=(FULL,)))
        t22 = next(r for r in reports if r.theorem == "T2.2")
        assert t22.counterexamples
        for f in t22.counterexamples:
            group = build(parse_spec(f.group))
            complete = generalized_power_graph(group, FULL).is_complete()
            assert f.observed == f"GP complete={complete}"

    def test_exit_predicate(self):
        reports = run_all(VerifyConfig(max_order=16))
        assert punctured_counterexample_free(reports)
        reports_full = run_all(VerifyConfig(max_order=16, conventions=(FULL,)))
        assert punctured_counterexample_free(reports_full)  # vacuous: no punctured runs

    def test_exit_predicate_flags_punctured_failures(self):
        from gpgraph.verify import Finding, TheoremReport

        bad = TheoremReport(
            theorem="T2.2", convention="punctured", census_groups=1, max_order=8,
            verdict=VERDICT_COUNTEREXAMPLES,
            counterexamples=[Finding("cyclic:8", "GP complete=False", "GP complete=True")],
        )
        assert not punctured_counterexample_free([bad])

    def test_t44_census_at_8(self):
        # abelian classes of orders 2..8: Z2 Z3 Z4 Z2^2 Z5 Z6 Z7 Z8 Z4xZ2 Z2^3,
        # three of them of order 8
        report = check_abelian_planarity_classification(facts(8, PUNCTURED), PUNCTURED)
        assert report.census_groups == 10


class TestDeterminismAndJson:
    def test_worker_counts_produce_identical_json(self, tmp_path, capsys):
        # --workers is accepted and ignored.
        paths = [tmp_path / "plain.json", tmp_path / "workers.json"]
        assert main(["verify", "--max-order", "24", "--json", str(paths[0])]) == 0
        assert main(["verify", "--max-order", "24", "--json", str(paths[1]),
                     "--workers", "4"]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("max_order, conventions, sha256, dedupe", [
        (24, DEFAULT_CONVENTIONS,
         "5a91515b2d7a2612ab3fb42c7ef9bd4b56d06e7de10301af2687268227c9a4bd", True),
        (16, tuple(VertexConvention),
         "33741dbc94367d050006dd114e36d5486e9c0a57b4df72ad0abe104e878fb848", True),
        (24, DEFAULT_CONVENTIONS,
         "d83392ade73d96d4fd9a7beece511b87801ebabaf84d6a33a7c1a47fc32e861e", False),
    ])
    def test_canonical_json_is_pinned(self, max_order, conventions, sha256, dedupe):
        config = VerifyConfig(max_order=max_order, conventions=conventions, dedupe=dedupe)
        text = reports_to_json(run_all(config))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256

    def test_json_schema(self):
        reports = run_all(VerifyConfig(max_order=12))
        parsed = json.loads(reports_to_json(reports))
        assert isinstance(parsed, list) and len(parsed) == 20
        for entry in parsed:
            assert set(entry) == {
                "theorem", "convention", "census", "verdict",
                "catalog_relative", "counterexamples", "discrepancies", "notes",
            }
            assert set(entry["census"]) == {"groups", "max_order"}
            for f in entry["counterexamples"] + entry["discrepancies"]:
                assert set(f) == {"group", "observed", "expected"}
                parse_spec(f["group"])  # serialized spec form must parse

    def test_runtime_not_serialized(self):
        reports = run_all(VerifyConfig(max_order=12))
        assert all(r.runtime_ms >= 0 for r in reports)
        assert "runtime" not in reports_to_json(reports)
