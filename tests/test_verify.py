import hashlib
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from kernel_oracles import components_complete
from gpgraph.catalog import abelian_specs_of_order, build, catalog_up_to, parse_spec
from gpgraph.cli import main
from gpgraph.graphs import SimpleGraph
from gpgraph.groups import is_prime, prime_factors
from gpgraph.planarity import is_planar
from gpgraph.powergraph import VertexConvention, generalized_power_graph, vertex_elements
from gpgraph.verify import (
    CENSUS,
    DEFAULT_CONVENTIONS,
    JUDGES,
    Columns,
    FactsTable,
    Finding,
    GroupFacts,
    VERDICT_CONFIRMED,
    VERDICT_COUNTEREXAMPLES,
    VERDICT_NOT_APPLICABLE,
    VerifyConfig,
    _claim,
    _graph_facts,
    check_abelian_planarity_classification,
    check_completeness_abelian,
    check_completeness_nonabelian,
    check_nonabelian_pgroup_planarity,
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


def records(table):
    """Every record of the table, by (spec, convention), in row order."""
    return {(spec, c): table(spec, c) for spec in table._specs for c in table.conventions}


def census(table, pred=lambda c: True, targets=()):
    """The specs of table.rows(pred, targets), in row order."""
    return [table._specs[row] for row in table.rows(pred, targets).tolist()]


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

    @pytest.mark.parametrize("conv", [FULL, VertexConvention.STRICT_WITH_IDENTITY])
    def test_t34_not_applicable_on_identity_bearing_conventions(self, conv):
        report = check_pgroup_components(facts(16, conv), conv)
        assert (report.theorem, report.convention, report.verdict, report.census_groups) == (
            "T3.4", conv.value, VERDICT_NOT_APPLICABLE, 0)
        assert report.notes == [
            f"T3.4 counts components; under {conv.value} the isolated identity shifts "
            "the count by one (reported, not silently adjusted)"]

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


def one_row(spec, record: GroupFacts) -> dict:
    """The columns of one hand-made record of the spec, one row each, as
    FactsTable.columns reads them."""
    primes = prime_factors(spec.order())
    sizes = record.component_sizes
    fields = dict(
        abelian=spec.is_abelian_family, nprimes=len(primes), largest_prime=max(primes, default=1),
        radical=math.prod(primes), order=record.order, cyclic=record.cyclic, p=record.p or 0,
        exponent=record.exponent, generalized_quaternion=record.generalized_quaternion, d8=record.d8,
        abelian_planar_family=record.abelian_planar_family,
        subgroups_of_order_p=record.subgroups_of_order_p or 0, v=record.v, complete=record.complete,
        components=len(sizes), components_complete=record.components_complete, planar=record.planar,
        smallest_component=min(sizes, default=0), largest_component=max(sizes, default=0))
    columns = {name: np.array([value]) for name, value in fields.items()}
    columns.update(component_sizes=[list(sizes)], k5_witness=[record.k5_witness])
    return columns


class OneRecord:
    """A facts table that holds one hand-made record, so a claim can judge a
    record that no catalog group yields. Its Punctured record is the same
    one unless given."""

    max_order = 8

    def __init__(self, spec: str, record: GroupFacts, punctured: GroupFacts | None = None):
        self.spec = parse_spec(spec)
        self.record = one_row(self.spec, record)
        self.punctured = self.record if punctured is None else one_row(self.spec, punctured)

    def rows(self, pred, targets=()):
        mask = pred(Columns(np.arange(1), None, self.record.__getitem__))
        return np.flatnonzero(np.broadcast_to(mask, 1))

    def columns(self, rows, convention):
        record = self.punctured if convention == PUNCTURED else self.record

        def read(name):
            column = record[name]
            return column[rows] if isinstance(column, np.ndarray) else [column[r] for r in rows.tolist()]

        return Columns(rows, convention, read)

    def names(self, rows):
        return [self.spec.to_text()] * len(rows)


# D8 under punctured: the rotation clique {r, r^2, r^3} and four reflections.
D8_PUNCTURED = GroupFacts(
    order=8, cyclic=False, p=2, exponent=4, generalized_quaternion=False, d8=True,
    abelian_planar_family=False, subgroups_of_order_p=5, v=7, complete=False,
    component_sizes=(3, 1, 1, 1, 1), components_complete=True, planar=True, k5_witness=None)

# Heis(3) under punctured: thirteen K2s, one per subgroup of order 3.
HEIS3_PUNCTURED = GroupFacts(
    order=27, cyclic=False, p=3, exponent=3, generalized_quaternion=False, d8=False,
    abelian_planar_family=True, subgroups_of_order_p=13, v=26, complete=False,
    component_sizes=(2,) * 13, components_complete=True, planar=True, k5_witness=None)

T51_EXPECTED = "exponent p and (p^n-1)/(p-1) components, each K_{p-1}"


class TestClaimsOnHandMadeRecords:
    def test_t34_breaks_on_each_half_of_its_claim(self):
        assert check_pgroup_components(
            OneRecord("dihedral:4", D8_PUNCTURED), PUNCTURED).verdict == VERDICT_CONFIRMED
        # Every catalog p-group's components are cliques under strict and
        # punctured, so only a hand-made record reaches this break.
        not_cliques = replace(D8_PUNCTURED, components_complete=False)
        report = check_pgroup_components(OneRecord("dihedral:4", not_cliques), PUNCTURED)
        assert report.verdict == VERDICT_COUNTEREXAMPLES
        assert report.counterexamples == [
            Finding("dihedral:4", "some GP component is not complete", "every component complete")]
        merged = replace(D8_PUNCTURED, component_sizes=(3, 2, 1, 1))
        report = check_pgroup_components(OneRecord("dihedral:4", merged), PUNCTURED)
        assert report.counterexamples == [
            Finding("dihedral:4", "4 GP components", "5 components (= subgroups of order p)")]

    def test_t51_breaks_on_each_part_of_its_claim(self):
        # Every catalog 3- and 5-group with planar GP meets T5.1, so only
        # hand-made records reach its breaks.
        def t51(record):
            return check_nonabelian_pgroup_planarity(OneRecord("heisenberg:3", record), PUNCTURED)[0]

        assert t51(HEIS3_PUNCTURED).verdict == VERDICT_CONFIRMED
        for changes, observed in [
            ({"exponent": 9}, "exponent 9 != 3"),
            ({"component_sizes": (2,) * 12}, "12 components != (p^n-1)/(p-1) = 13"),
            ({"component_sizes": (3,) + (2,) * 12}, "some component size != 2"),
            ({"components_complete": False}, "some component is not complete"),
        ]:
            report = t51(replace(HEIS3_PUNCTURED, **changes))
            assert report.verdict == VERDICT_COUNTEREXAMPLES, changes
            assert report.counterexamples == [Finding("heisenberg:3", observed, T51_EXPECTED)]
        # The claim speaks only of planar GP.
        report = t51(replace(HEIS3_PUNCTURED, exponent=9, planar=False))
        assert report.verdict == VERDICT_CONFIRMED and report.counterexamples == []

    def test_a_break_that_punctured_shares_is_a_counterexample(self):
        # L4.1-L4.3 and T4.4 report a break as a convention discrepancy only
        # when the Punctured record of the same group meets the claim.
        # OneRecord gives one record under every convention, so these break
        # under Strict and Punctured alike, which no catalog group does:
        # they must be counterexamples, and make `gpgraph verify` fail.
        planar_d14 = GroupFacts(
            order=14, cyclic=False, p=None, exponent=14, generalized_quaternion=False, d8=False,
            abelian_planar_family=False, subgroups_of_order_p=None, v=13, complete=False,
            component_sizes=(6,) + (1,) * 7, components_complete=True, planar=True, k5_witness=None)
        planar_z8 = GroupFacts(
            order=8, cyclic=True, p=2, exponent=8, generalized_quaternion=False, d8=False,
            abelian_planar_family=False, subgroups_of_order_p=1, v=3, complete=True,
            component_sizes=(3,), components_complete=True, planar=True, k5_witness=None)
        for convention in (STRICT, PUNCTURED):
            l42 = check_planarity_prime_lemmas(OneRecord("dihedral:7", planar_d14), convention)[1]
            t44 = check_abelian_planarity_classification(OneRecord("cyclic:8", planar_z8), convention)
            assert l42.theorem == "L4.2" and t44.theorem == "T4.4"
            for report, spec in ((l42, "dihedral:7"), (t44, "cyclic:8")):
                assert report.verdict == VERDICT_COUNTEREXAMPLES, (report.theorem, convention)
                assert report.discrepancies == [], (report.theorem, convention)
                assert [f.group for f in report.counterexamples] == [spec]
                assert punctured_counterexample_free([report]) == (convention != PUNCTURED)

    def test_t22_notes_a_broken_only_if_direction(self):
        # abelian:2,2 is not cyclic, so a complete GP breaks "only if".
        klein = FactsTable(4, (PUNCTURED,))(parse_spec("abelian:2,2"), PUNCTURED)
        report = check_completeness_abelian(
            OneRecord("abelian:2,2", replace(klein, complete=True)), PUNCTURED)
        assert report.counterexamples == [Finding(
            "abelian:2,2", "GP complete=True", "GP complete=False (not cyclic of prime-power order)")]
        assert report.notes == ["'only if' direction broke for 1 group(s)"]


# Heis(3) under punctured with every part of T5.1 and T3.4 broken: an
# exponent of 9, twelve components (one of three vertices) where thirteen
# K2s are due, and a component that is not a clique.
BREAKS_ALL = replace(HEIS3_PUNCTURED, exponent=9, component_sizes=(3,) + (2,) * 11,
                     components_complete=False)


@st.composite
def hand_made(draw):
    """A GroupFacts record near the edge of every judge: counts, sizes and
    exponents equal to what a claim expects or off by one, and every flag
    either way."""
    p = draw(st.sampled_from([None, 2, 3, 5]))
    order = 12 if p is None else p ** draw(st.integers(1, 3))
    due = 1 if p is None else (order - 1) // (p - 1)
    ncomps = draw(st.sampled_from([0, due, due + 1]))
    size = draw(st.sampled_from([1 if p is None else p - 1, 3]))
    sizes = (draw(st.sampled_from([size, size + 1])),) + (size,) * (ncomps - 1) if ncomps else ()
    flag = st.booleans()
    return GroupFacts(
        order=order, cyclic=draw(flag), p=p, exponent=draw(st.sampled_from([p or 6, (p or 6) ** 2])),
        generalized_quaternion=draw(flag), d8=draw(flag), abelian_planar_family=draw(flag),
        subgroups_of_order_p=None if p is None else draw(st.sampled_from([ncomps, ncomps + 1])),
        v=draw(st.sampled_from([0, sum(sizes)])), complete=draw(flag), component_sizes=sizes,
        components_complete=draw(flag), planar=draw(flag),
        k5_witness=draw(st.sampled_from([None, (0, 1, 2, 3, 4)])))


@pytest.fixture(scope="module")
def table128():
    table = FactsTable(128, tuple(VertexConvention))
    table.fill()
    return table


def masked_findings(theorem, table, rows, convention):
    """(counterexamples, discrepancies) of the claim's masked judge over the
    rows, through the evaluator."""
    skip_vacuous, conventional = oracle.FLAGS.get(theorem, (False, False))
    report = _claim(theorem, table, table.columns(rows, convention), JUDGES[theorem],
                    skip_vacuous=skip_vacuous, conventional=conventional)
    return report.counterexamples, report.discrepancies


class TestMaskedClaims:
    """The census masks and the masked judges against the per-record
    predicates and judges of kernel_oracles, which they replace."""

    @pytest.mark.parametrize("max_order", [20, 256])
    def test_masked_census_matches_the_predicates(self, max_order):
        # At 20 every target is off the catalog; at 256 all but none are on it.
        table = FactsTable(max_order, DEFAULT_CONVENTIONS)
        catalog = census(table)
        assert catalog == [s for s in catalog_up_to(max_order) if s.order() >= 2]
        for theorem, (mask, targets) in CENSUS.items():
            assert census(table, mask, targets) == oracle.census(theorem, catalog, parse_spec), theorem
        assert set(CENSUS) == set(oracle.CENSUS)

    @pytest.mark.parametrize("convention", list(VertexConvention))
    def test_masked_judges_match_on_the_catalog(self, table128, convention):
        # Every judge on every catalog record, not only its census; T3.4 and
        # T5.1 speak of p-groups, so they judge those alone.
        specs = census(table128)
        rows = table128.rows(lambda s: True)
        groups = [(s.to_text(), table128(s, convention), table128(s, PUNCTURED)) for s in specs]
        found = 0
        for theorem in JUDGES:
            at = [i for i, s in enumerate(specs)
                  if theorem not in ("T3.4", "T5.1") or len(prime_factors(s.order())) == 1]
            expected = oracle.claim_findings(theorem, [groups[i] for i in at])[:2]
            assert masked_findings(theorem, table128, rows[at], convention) == expected, theorem
            found += sum(map(len, expected))
        assert found > 0

    def test_the_examples_reach_every_break(self):
        def findings(theorem, punctured=BREAKS_ALL):
            return oracle.claim_findings(theorem, [("heisenberg:3", BREAKS_ALL, punctured)])

        assert [f.observed for f in findings("T5.1")[0]] == [
            "exponent 9 != 3", "12 components != (p^n-1)/(p-1) = 13", "some component size != 2",
            "some component is not complete"]
        assert [f.observed for f in findings("T3.4")[0]] == [
            "some GP component is not complete", "12 GP components"]
        # planar under Punctured too: a shared break is a counterexample
        assert [len(x) for x in findings("L4.2")[:2]] == [1, 0]
        assert [len(x) for x in findings("L4.2", replace(BREAKS_ALL, planar=False))[:2]] == [0, 1]

    @settings(max_examples=300, deadline=None)
    @given(hand_made(), st.one_of(st.none(), hand_made()))
    @example(BREAKS_ALL, None)
    @example(BREAKS_ALL, replace(BREAKS_ALL, planar=False))
    @example(replace(BREAKS_ALL, v=0), None)
    def test_masked_judges_match_on_hand_made_records(self, record, punctured):
        for theorem in JUDGES:
            if record.p is None and theorem in ("T3.4", "T5.1"):
                continue
            table = OneRecord("heisenberg:3", record, punctured)
            expected = oracle.claim_findings(
                theorem, [("heisenberg:3", record, record if punctured is None else punctured)])
            assert masked_findings(theorem, table, np.arange(1), STRICT) == expected[:2], theorem


class TestIncidenceFacts:
    """Records on each path of the incidence reading: no vertices, an
    isolated identity, cliques with and without a K5, and components that
    are not cliques."""

    @staticmethod
    def lookup(text, convention, monkeypatch):
        """The record of one off-catalog lookup, with GP(G) builds refused."""
        import gpgraph.verify as verify

        def gp(group, conv):
            raise AssertionError(f"GP({text}) built under {conv.value}")

        monkeypatch.setattr(verify, "generalized_power_graph", gp)
        return FactsTable(2, (convention,))(parse_spec(text), convention)

    @pytest.mark.parametrize("p", [2, 3, 7, 13])
    def test_strict_prime_cyclic_has_no_vertices(self, p, monkeypatch):
        f = self.lookup(f"cyclic:{p}", STRICT, monkeypatch)
        assert (f.v, f.component_sizes, f.complete, f.components_complete, f.planar) == (
            0, (), True, True, True)

    @pytest.mark.parametrize("text, convention, sizes, planar", [
        ("cyclic:8", FULL, (1, 7), False),
        ("cyclic:8", VertexConvention.STRICT_WITH_IDENTITY, (1, 3), True),
        ("gq:8", FULL, (1, 7), False),
        ("dihedral:4", VertexConvention.STRICT_WITH_IDENTITY, (1, 3, 1, 1, 1, 1), True),
        ("cyclic:7", VertexConvention.STRICT_WITH_IDENTITY, (1,), True),
    ])
    def test_identity_is_an_isolated_vertex(self, text, convention, sizes, planar, monkeypatch):
        f = self.lookup(text, convention, monkeypatch)
        assert f.component_sizes == sizes and f.v == sum(sizes)
        assert f.components_complete and f.complete == (len(sizes) == 1)
        assert f.planar == planar

    @pytest.mark.parametrize("text, convention", [
        ("cyclic:32", PUNCTURED),   # C_P of the involution holds 16 vertices: a K5
        ("dihedral:3", PUNCTURED),  # a K2 and three isolated reflections
    ])
    def test_planarity_from_the_cliques_alone(self, text, convention, monkeypatch):
        f = self.lookup(text, convention, monkeypatch)
        g = generalized_power_graph(build(parse_spec(text)), convention)
        assert f.planar == is_planar(g).planar == (text == "dihedral:3")

    @pytest.mark.parametrize("text, convention", [
        ("cyclic:6", PUNCTURED),    # a 5-vertex component, not a clique
        ("dihedral:6", STRICT),
        ("symmetric:5", STRICT),
    ])
    def test_graph_fallback(self, text, convention, monkeypatch):
        # The vertex sets that once fell back to GP(G): no id has 5 holders,
        # so no K5, and a component with 5 vertices is not a clique.
        f = self.lookup(text, convention, monkeypatch)
        g = generalized_power_graph(build(parse_spec(text)), convention)
        comps = g.connected_components()
        assert not components_complete(g, comps) and g.contains_k5_clique() is None
        assert f.planar == is_planar(g).planar is True
        assert max(f.component_sizes) <= 5

    def test_planar_iff_no_prime_order_subgroup_has_five_holders(self, tmp_path):
        # The rule against the table walks alone: P has prime order, its
        # holders are the vertices x with P <= <x>, and vertices are joined
        # when they hold a common P. Where every P has at most 4 holders, a
        # component has at most 5 vertices, and 5 are never a K5; so GP(G)
        # is planar exactly then (Kuratowski). A file: table with its
        # labels shuffled, identity not at 0, goes through the same reading.
        rng = np.random.default_rng(3)
        d12 = build(parse_spec("dihedral:6")).table
        label = rng.permutation(12)
        relabelled = np.empty_like(d12)
        relabelled[np.ix_(label, label)] = label[d12]
        path = tmp_path / "d12.tbl"
        path.write_text("12\n" + "\n".join(" ".join(map(str, row)) for row in relabelled) + "\n")
        table = FactsTable(96, tuple(VertexConvention), dedupe=False)
        specs = [*catalog_up_to(96, False), *map(parse_spec, [
            "symmetric:5", "heisenberg:5", "cyclic:210", f"file:{path}"])]
        five = 0
        for spec in specs:
            group = build(spec)
            walks = [frozenset(w) for w in oracle.cyclic_subgroups(group)]
            prime_order = {w for w in walks if is_prime(len(w))}
            for convention in VertexConvention:
                verts = [x for x, w in enumerate(walks)
                         if (x > 0 or convention.keeps_identity)
                         and not (convention.drops_generators and len(w) == group.n)]
                holders = [[x for x in verts if p <= walks[x]] for p in prime_order]
                planar = all(len(h) <= 4 for h in holders)
                assert table(spec, convention).planar == planar, (spec.to_text(), convention)
                if not planar:
                    continue
                root = {x: x for x in verts}

                def find(x):
                    while root[x] != x:
                        x = root[x]
                    return x

                for h in holders:
                    for x in h[1:]:
                        root[find(x)] = find(h[0])
                comps = Counter(find(x) for x in verts)
                assert max(comps.values(), default=0) <= 5, (spec.to_text(), convention)
                for c in (c for c, size in comps.items() if size == 5):
                    five += 1
                    comp = [x for x in verts if find(x) == c]
                    assert any(len(walks[x] & walks[y]) == 1 for x in comp for y in comp), (
                        spec.to_text(), convention)
        assert five > 0

    def test_witness_is_the_least_tuple_of_five_first_holders(self):
        # The record's witness is read off one C_P; the K5 search's is the
        # least 5-clique of the graph, which may span several C_P. Here
        # 2, 3, 4, 6, 8 are the first vertices of C_P for P of order 5;
        # 2, 3, 4, 5, 8 pairwise share subgroups of orders 3, 5 and 2.
        record = FactsTable(2, (STRICT,))(parse_spec("cyclic:30"), STRICT)
        g = generalized_power_graph(build(parse_spec("cyclic:30")), STRICT)
        assert record.k5_witness == (2, 3, 4, 6, 8)
        assert tuple(g.labels[x] for x in g.contains_k5_clique()) == (2, 3, 4, 5, 8)

    def test_l41_witnesses_match_the_k5_search(self):
        # Every witness the canonical report can print up to order 1024:
        # L4.1's census is the abelian groups whose order has 4 or more
        # distinct primes. On them both readings give the same five elements.
        specs = [spec for n in range(2, 1025) if len(prime_factors(n)) >= 4
                 for spec in abelian_specs_of_order(n)]
        assert len(specs) == 33
        table = FactsTable(1024, tuple(VertexConvention))
        for spec in specs:
            group = build(spec)
            for convention in VertexConvention:
                g = generalized_power_graph(group, convention)
                assert table(spec, convention).k5_witness == tuple(
                    g.labels[x] for x in g.contains_k5_clique()), (spec.to_text(), convention)

    def test_blocks_in_one_batch_read_as_alone(self):
        # Ids are offset per block, so equal ids of different groups never
        # join components; an empty block takes no rows.
        groups = [(build(parse_spec(t)), c) for t, c in [
            ("cyclic:8", FULL), ("cyclic:7", STRICT), ("dihedral:6", PUNCTURED),
            ("cyclic:1", FULL), ("abelian:2,2,2", PUNCTURED), ("cyclic:30", STRICT)]]
        blocks = [(g.prime_subgroup_incidence()[vertex_elements(g, c)], g.n) for g, c in groups]
        assert read_blocks(blocks) == [read_blocks([block])[0] for block in blocks]
        assert read_blocks([]) == []


def read_blocks(blocks):
    """_graph_facts on (rows, n) blocks laid one after another, each block's
    rows padded with -1 to the widest, as a dict of fields per block."""
    width = max([0, *(rows.shape[1] for rows, _ in blocks)])
    rows = [np.pad(rows, ((0, 0), (0, width - rows.shape[1])), constant_values=-1) for rows, _ in blocks]
    columns = _graph_facts(np.concatenate(rows) if rows else np.empty((0, 0), dtype=int),
                           [len(r) for r in rows], [n for _, n in blocks])
    columns = {name: c if isinstance(c, list) else c.tolist() for name, c in columns.items()}
    columns["component_sizes"] = list(map(tuple, columns["component_sizes"]))
    return [{name: c[b] for name, c in columns.items()} for b in range(len(blocks))]


def edge_ids(v, edges):
    """Incidence rows on v rows in which each edge is an id of its own, held
    by its two ends: the graph itself, with no id held 3 or more times."""
    rows = [[] for _ in range(v)]
    for i, (a, b) in enumerate(edges):
        rows[a].append(i)
        rows[b].append(i)
    width = max(map(len, rows))
    return np.array([r + [-1] * (width - len(r)) for r in rows]), len(edges)


K5_EDGES = [(a, b) for a in range(5) for b in range(a + 1, 5)]
K33_EDGES = [(a, b) for a in range(3) for b in range(3, 6)]


class TestCliqueRules:
    """Planarity as _graph_facts reads it off hand-made incidence blocks: a
    block is (rows, n), row i listing the ids that vertex i holds and -1
    for none, with every id below n."""

    FIVE_SHARE = (np.zeros((5, 1), dtype=int), 1)
    # id 0 is held by rows 1..6 and id 1 by rows 0 and 2..6
    TWO_IDS = (np.array([[-1, 1]] + [[0, -1]] + [[0, 1]] * 5), 2)
    # a K4 on id 0, a K3 on id 1, an isolated row and a K2 holding ids 2 and 3
    SMALL_CLIQUES = (np.array([[0, -1]] * 4 + [[1, -1]] * 3 + [[-1, -1]] + [[2, 3]] * 2), 4)
    K5 = edge_ids(5, K5_EDGES)
    K33 = edge_ids(6, K33_EDGES)

    def test_five_holders_of_one_id_span_a_k5(self):
        [f] = read_blocks([self.FIVE_SHARE])
        assert (f["planar"], f["k5_witness"]) == (False, (0, 1, 2, 3, 4))
        [f] = read_blocks([self.TWO_IDS])
        assert (f["planar"], f["k5_witness"]) == (False, (0, 2, 3, 4, 5))

    def test_cliques_of_at_most_four_rows_are_planar(self):
        [f] = read_blocks([self.SMALL_CLIQUES])
        assert f["component_sizes"] == (4, 3, 1, 2) and f["components_complete"]
        assert (f["planar"], f["k5_witness"]) == (True, None)

    @pytest.mark.parametrize("v, edges", [(5, K5_EDGES), (6, K33_EDGES)])
    def test_graphs_of_two_row_ids_are_left_open(self, v, edges):
        # K5 and K3,3 are not planar, yet no id has 5 holders, so the rule
        # reads them as planar. These hand-made blocks are no group's
        # incidence: in a group's, every P held by at most 4 vertices leaves
        # components of at most 5 vertices, none a K5 (_graph_facts).
        assert not is_planar(SimpleGraph.from_edges(v, edges)).planar
        [f] = read_blocks([edge_ids(v, edges)])
        assert f["component_sizes"] == (v,) and not f["components_complete"]
        assert (f["planar"], f["k5_witness"]) == (True, None)

    def test_hand_made_blocks_in_one_batch_read_as_alone(self):
        blocks = [self.K5, self.FIVE_SHARE, self.SMALL_CLIQUES, self.K33, self.TWO_IDS]
        assert read_blocks(blocks) == [read_blocks([block])[0] for block in blocks]


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
            facts_at_first_check.append(len(table._specs) * len(table.conventions))
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

    def test_each_group_built_once_and_graphs_only_where_planarity_needs_them(self, monkeypatch):
        # Every build in a run is counted: the catalog pass, which builds the
        # specs that dedupe drops too, and the lookups of off-catalog targets.
        # The graph fields, planarity and L4.1's witnesses all come from the
        # incidence, so no graph is made at all: the spy on SimpleGraph's
        # constructor catches one made through any import.
        import gpgraph.catalog as catalog
        import gpgraph.verify as verify

        targets = ["cyclic:210"]  # L4.1's target, the only one above 24
        every = [s.to_text() for s in catalog_up_to(24, False)] + targets
        built, graphs = [], []

        def counting_build(spec, **kwargs):  # the catalog pass passes the factors it built
            built.append(spec.to_text())
            return build(spec, **kwargs)

        real_init = SimpleGraph.__init__

        def counting_init(graph, *args, **kwargs):
            graphs.append(args)
            real_init(graph, *args, **kwargs)

        monkeypatch.setattr(catalog, "build", counting_build)
        monkeypatch.setattr(verify, "build", counting_build)
        monkeypatch.setattr(SimpleGraph, "__init__", counting_init)
        for conventions in (DEFAULT_CONVENTIONS, tuple(VertexConvention)):
            built.clear()
            graphs.clear()
            run_all(VerifyConfig(max_order=24, conventions=conventions))
            assert Counter(built) == Counter(every)
            assert graphs == []

    def test_each_table_and_power_fill_is_made_once(self, monkeypatch):
        # Products take their factors from the catalog pass, dedupe reads
        # element orders only, and the incidence reads point powers, which
        # every family but heisenberg and symmetric, and every product of
        # them, gives without a table. So at 96 power tables are filled only
        # by the groups whose orders come from their tables, once each, with
        # those orders: heisenberg:3, symmetric:3 (which dedupe drops, as it
        # is D6) and symmetric:4; their products read the factor's fill.
        import gpgraph.catalog as catalog
        import gpgraph.verify as verify
        from gpgraph.groups import FiniteGroup

        spec_of, alive, filled, counts = {}, [], [], Counter()

        def counting_build(spec, **kwargs):
            group = build(spec, **kwargs)
            alive.append(group)  # so that no id is reused
            spec_of[id(group)] = spec.to_text()
            return group

        def counted(owner, name):
            real = getattr(owner, name)

            def call(*args):
                counts[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, call)

        def fill_powers(group):
            filled.append(spec_of.get(id(group), f"a group of order {group.n} outside build"))
            return fill(group)

        fill = FiniteGroup._fill_powers
        counted(catalog, "_symmetric_table")
        counted(FiniteGroup, "_doubling_fill")
        monkeypatch.setattr(FiniteGroup, "_fill_powers", fill_powers)
        monkeypatch.setattr(catalog, "build", counting_build)
        monkeypatch.setattr(verify, "build", counting_build)
        run_all(VerifyConfig(max_order=96))
        assert counts == {"_symmetric_table": 2, "_doubling_fill": 3}
        assert filled == ["heisenberg:3", "symmetric:3", "symmetric:4"]

    def test_tables_are_made_only_without_closed_forms(self, monkeypatch):
        # The harness reads orders, powers and the abelian flag, which every
        # family but heisenberg and symmetric gives without a table, and
        # products take from their factors.
        import gpgraph.catalog as catalog

        made = []

        def counted(name, make):
            def table(params):
                made.append(name)
                return make(params)
            return table

        for name, family in catalog._FAMILIES.items():
            monkeypatch.setitem(catalog._FAMILIES, name, family._replace(table=counted(name, family.table)))
        run_all(VerifyConfig(max_order=96))
        assert set(made) == {"heisenberg", "symmetric"}

    def test_each_order_is_factored_once(self, monkeypatch):
        import gpgraph.verify as verify

        factored = []

        def counted(n):
            factored.append(n)
            return prime_factors(n)

        monkeypatch.setattr(verify, "prime_factors", counted)
        run_all(VerifyConfig(max_order=96))
        assert len(factored) == len(set(factored))  # no order twice
        assert set(factored) >= {s.order() for s in catalog_up_to(96) if s.order() >= 2}

    def test_subgroup_counts_match_the_subgroup_lists(self):
        # The count comes from the element-order histogram, h[p] / (p - 1);
        # subgroups_of_order_p lists the subgroups themselves.
        table = FactsTable(128, (PUNCTURED,))
        rows = table.rows(lambda c: True)
        spec_columns = table.columns(rows, None)
        for i, spec in enumerate(census(table)):
            group = build(spec)
            record = table(spec, PUNCTURED)
            primes = prime_factors(group.n)
            nprimes = int(spec_columns.nprimes[i])
            assert (nprimes, int(spec_columns.largest_prime[i]), int(spec_columns.radical[i])) == (
                len(primes), max(primes), math.prod(primes))
            if nprimes == 1:
                assert record.subgroups_of_order_p == len(group.subgroups_of_order_p(record.p))
            else:
                assert record.subgroups_of_order_p is None

    def test_records_match_fresh_graphs(self):
        # Each record, shared between conventions or not, equals the one read
        # off a fresh GP(G) of its own convention through the public graph
        # calls; `complete` is checked against is_complete(). The K5 witness
        # is checked against cyclic_membership(), not the incidence: it is
        # five vertices whose cyclic subgroups all contain one subgroup of
        # prime order, and there is one iff such a subgroup has 5 or more
        # vertex holders.
        table = FactsTable(256, tuple(VertexConvention))
        table.fill()
        specs = census(table, targets=("cyclic:210",))
        # cyclic:210, L4.1's target, is a catalog group at this bound
        assert specs == [s for s in catalog_up_to(256) if s.order() >= 2]
        assert parse_spec("cyclic:210") in specs
        witnesses = 0
        for spec in specs:
            group = build(spec)
            member = group.cyclic_membership()  # member[x, h]: h in <x>
            prime_order = [h for h in range(1, group.n) if is_prime(group.order_of(h))]
            for convention in VertexConvention:
                record = table(spec, convention)
                g = generalized_power_graph(group, convention)
                comps = g.connected_components()
                assert record == replace(
                    record,
                    v=g.v,
                    complete=g.is_complete(),
                    component_sizes=tuple(len(c) for c in comps),
                    components_complete=components_complete(g, comps),
                    planar=is_planar(g).planar,
                ), (spec.to_text(), convention)
                holders = member[np.ix_(vertex_elements(group, convention), prime_order)].sum(axis=0)
                w = record.k5_witness
                assert (w is not None) == bool((holders >= 5).any()), (spec.to_text(), convention)
                if w is not None:
                    witnesses += 1
                    assert len(set(w)) == 5 and set(w) <= set(g.labels)
                    assert member[np.ix_(w, prime_order)].all(axis=0).any()
        assert witnesses > 0

    def test_one_row_batches_give_the_same_records(self, monkeypatch):
        import gpgraph.verify as verify

        one_batch = FactsTable(64, tuple(VertexConvention))
        one_batch.fill()
        assert one_batch._pending == []
        monkeypatch.setattr(verify, "FACTS_BATCH_ROWS", 1)
        per_record = FactsTable(64, tuple(VertexConvention))
        per_record.fill()
        assert records(per_record) == records(one_batch)
        assert list(records(per_record)) == list(records(one_batch))

    def test_batches_cut_inside_the_catalog_give_the_same_records(self, monkeypatch):
        # Batches of 97 or more elements end after other groups than
        # batches of 4096 do, and mix fewer orders.
        import gpgraph.verify as verify

        one_batch = FactsTable(128, tuple(VertexConvention))
        one_batch.fill()
        monkeypatch.setattr(verify, "FACTS_BATCH_ROWS", 97)
        cut = FactsTable(128, tuple(VertexConvention))
        cut.fill()
        assert records(cut) == records(one_batch)

    def test_a_fill_peaks_within_its_batch_bound(self):
        # A batch holds FACTS_BATCH_ROWS elements' arrays and its groups
        # until the flush, so the batch size sets the fill's memory.
        # Measured at 1 << 13 rows: a 5.0 MB tracemalloc peak (4.0 MB at
        # 1 << 12, 8.1 MB at 1 << 14); the bound is about 1.5 times that.
        tracemalloc.start()
        try:
            FactsTable(256, tuple(VertexConvention)).fill()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5e6

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
        # the first order with S4 and Heis3 as product factors and with
        # products that dedupe drops
        (128, DEFAULT_CONVENTIONS,
         "2bf94981e4a99c30b63206e321d03760f6c4eea168d365c861244c77153ddce2", True),
        # every record kind at once: cyclic groups read under all four
        # conventions give four records, the others two
        (96, tuple(VertexConvention),
         "f0d0b147546184c18115851f18fcac054a9423ed30706e0e36089834bb9e514a", True),
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
