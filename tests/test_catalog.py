import math
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import partition_count
import kernel_oracles as oracle
from kernel_oracles import abelian_table_rows
import gpgraph.catalog as catalog
import gpgraph.groups as groups
from gpgraph.catalog import (
    MAX_GROUP_ORDER,
    BadParameters,
    GroupSpec,
    SpecParseError,
    abelian_specs_of_order,
    build,
    catalog_groups,
    catalog_up_to,
    enumerate_abelian_up_to,
    parse_spec,
)
from gpgraph.groups import FiniteGroup, prime_factors, validate_and_build, write_cayley_table


class TestBuild:
    def test_cyclic(self):
        g = build(parse_spec("cyclic:12"))
        assert g.n == 12
        assert math.lcm(*g.orders.tolist()) == 12

    def test_q8_unique_involution(self):
        g = build(parse_spec("gq:8"))
        assert g.n == 8
        assert sum(1 for x in g.elements() if g.order_of(x) == 2) == 1

    def test_heisenberg(self):
        g = build(parse_spec("heisenberg:3"))
        assert g.n == 27
        assert not g.is_abelian
        assert math.lcm(*g.orders.tolist()) == 3

    def test_dihedral_non_abelian_from_m3(self):
        assert build(parse_spec("dihedral:2")).is_abelian
        for m in (3, 4, 5, 7):
            assert not build(parse_spec(f"dihedral:{m}")).is_abelian

    def test_dicyclic_presentation_relations(self):
        # a^(2m) = 1, b^2 = a^m, b^-1 a b = a^-1
        for m in (2, 3, 4, 5):
            g = build(parse_spec(f"dicyclic:{m}"))
            assert g.n == 4 * m
            a, b = 1, 2 * m
            assert g.order_of(a) == 2 * m
            a_m = 0
            for _ in range(m):
                a_m = g.mul(a_m, a)
            assert g.mul(b, b) == a_m
            assert g.mul(g.inv(b), g.mul(a, b)) == g.inv(a)

    def test_gq_equals_dicyclic_power_of_two(self):
        q16 = build(parse_spec("gq:16"))
        dic4 = build(parse_spec("dicyclic:4"))
        assert q16.fingerprint() == dic4.fingerprint()

    def test_symmetric(self):
        s4 = build(parse_spec("symmetric:4"))
        assert s4.n == 24
        assert not s4.is_abelian

    def test_elementary_abelian(self):
        g = build(parse_spec("elemab:2,3"))
        assert g.n == 8
        assert math.lcm(*g.orders.tolist()) == 2

    def test_product_orders_are_lcm(self):
        spec = parse_spec("product:(dihedral:4)x(cyclic:3)")
        g = build(spec)
        d8 = build(parse_spec("dihedral:4"))
        z3 = build(parse_spec("cyclic:3"))
        assert g.n == 24
        for x in g.elements():
            a, b = divmod(x, 3)
            assert g.order_of(x) == math.lcm(d8.order_of(a), z3.order_of(b))

    @pytest.mark.parametrize("bad", [
        "cyclic:0", "dihedral:0", "dicyclic:1", "gq:12", "gq:4",
        "heisenberg:4", "symmetric:7", "abelian:", "elemab:4,2",
        "product:(cyclic:)x(cyclic:2)", "product:(symmetric:99999999)x(cyclic:2)",
        "product:x(cyclic:2)xx(cyclic:3)x", "product:(cyclic:2)(cyclic:3)",
        "product:(cyclic:2)xx(cyclic:3)", "product:x(cyclic:2)x(cyclic:3)",
        "product:(cyclic:2)x(cyclic:3)x", "product:(cyclic:2)x(cyclic:3)y",
    ])
    def test_bad_parameters(self, bad):
        with pytest.raises((BadParameters, SpecParseError)):
            build(parse_spec(bad))


class TestAbelianTable:
    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)
           .filter(lambda fs: math.prod(fs) <= 400))
    @example([1])
    @example([1, 1])
    @example([1, 4, 1, 3])
    @example([4, 1, 2, 1, 2])
    @example([2] * 9)
    @settings(max_examples=60, deadline=None)
    def test_matches_digit_cube(self, factors):
        factors = tuple(factors)
        table = catalog._abelian_table(factors)
        assert table.dtype == np.int16
        assert np.array_equal(table, abelian_table_rows(factors, range(len(table))))

    def test_factors_of_one_cost_nothing(self, monkeypatch):
        cyclic_orders = []

        def counted(n):
            cyclic_orders.append(n)
            return cyclic_table(n)

        cyclic_table = catalog._cyclic_table
        monkeypatch.setattr(catalog, "_cyclic_table", counted)
        group = build(parse_spec("abelian:" + ",".join(["1"] * 10**5 + ["4", "2"])))
        assert group.n == 8 and cyclic_orders == []  # nothing is made before it is read
        # The facts hold nothing per factor of 1: a list of them alone would
        # take 800 kB.
        tracemalloc.start()
        try:
            powers = group.powers
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5
        assert np.array_equal(powers, build(parse_spec("abelian:4,2")).powers)
        assert group.table.shape == (8, 8)
        assert cyclic_orders == [4, 2]

    def test_at_the_cap(self):
        factors = (2,) * 13
        table = catalog._abelian_table(factors)
        assert table.shape == (MAX_GROUP_ORDER, MAX_GROUP_ORDER)
        sample = list(range(0, MAX_GROUP_ORDER, 97)) + [MAX_GROUP_ORDER - 1]
        assert np.array_equal(table[sample], abelian_table_rows(factors, sample))
        # In Z2^13 the digit sum mod 2 is XOR, so every row has a closed form.
        idx = np.arange(MAX_GROUP_ORDER)
        for lo in range(0, MAX_GROUP_ORDER, 256):
            assert np.array_equal(table[lo:lo + 256], np.bitwise_xor.outer(idx[lo:lo + 256], idx))


def _made(text: str) -> np.ndarray:
    return build(parse_spec(text)).table


def _assert_same_bytes(table: np.ndarray, expected: np.ndarray, label: str):
    assert table.dtype == expected.dtype, label
    assert table.shape == expected.shape, label
    assert table.tobytes() == expected.tobytes(), label


@st.composite
def metacyclic_presentations(draw):
    """(m, n, r, t) for a consistent <a, b | a^m, b^n = a^t, b a b^-1 = a^r>
    with n >= 2 and m*n <= 256: gcd(r, m) = 1, r^n = 1 and t(r - 1) = 0
    (mod m)."""
    m = draw(st.integers(min_value=1, max_value=128))
    n = draw(st.integers(min_value=2, max_value=256 // m))
    r = draw(st.sampled_from([r for r in range(m) if math.gcd(r, m) == 1 and pow(r, n, m) == 1 % m]))
    t = draw(st.sampled_from([t for t in range(m) if t * (r - 1) % m == 0]))
    return m, n, r, t


class TestExtensionTable:
    def test_families_match_their_index_formulas(self):
        cases = [(f"dihedral:{m}", oracle.dihedral_table(m)) for m in range(1, 301)]
        cases += [(f"dicyclic:{m}", oracle.dicyclic_table(m)) for m in range(2, 151)]
        cases += [(f"gq:{2 ** k}", oracle.dicyclic_table(2 ** k // 4)) for k in range(3, 11)]
        for text, expected in cases:
            _assert_same_bytes(_made(text), expected, text)
        for p in (2, 3, 5, 7, 11, 13):
            _assert_same_bytes(_made(f"heisenberg:{p}"), oracle.heisenberg_table(p), p)

    @given(metacyclic_presentations())
    @example((9, 6, 4, 3))
    @example((4, 4, 3, 2))
    @example((8, 2, 5, 4))
    @example((16, 16, 1, 8))
    @example((1, 256, 0, 0))
    @settings(max_examples=80, deadline=None)
    def test_metacyclic_presentations_are_groups(self, presentation):
        # The named families only use n = 2 with a carry, or n > 2 without
        # one; here both vary, with twists of every order dividing n.
        m, n, r, t = presentation
        table = catalog._extension_table(catalog._cyclic_table(m), np.arange(m) * r % m, n, t)
        g = validate_and_build(table)  # Light's associativity test included
        assert g.n == m * n
        # Every element is a^x b^j (index j*m + x), and a, b satisfy the
        # relations, so this is the presented group of order m*n.
        a, b = 1 % m, m
        assert np.array_equal(g.table[:m, np.arange(n) * m],
                              np.arange(m)[:, None] + np.arange(n) * m)
        assert g.order_of(a) == m
        b_n = 0
        for _ in range(n):
            b_n = g.mul(b_n, b)
        assert b_n == t
        assert g.mul(g.mul(b, a), g.inv(b)) == r % m

    def test_a4_as_klein_four_by_z3(self):
        # b cycles the involutions 1 -> 2 -> 3 of Z2 x Z2 (index 2*u + v).
        g = validate_and_build(catalog._extension_table(catalog._abelian_table((2, 2)),
                                                        np.array([0, 2, 3, 1]), 3, 0))
        assert g.n == 12 and not g.is_abelian
        assert np.bincount(g.orders).tolist() == [0, 1, 3, 8]

    def test_carry_stays_right_of_a_non_abelian_normal_subgroup(self):
        # N = S3, b acts as conjugation by c of order 3 and b^2 = c^2, which
        # commutes with no transposition: x twist(y) t and x t twist(y)
        # differ, and only the first is a group, S3 x Z2.
        s3 = catalog._symmetric_table(3)
        c, c_inv = 3, 4
        assert s3[c, c_inv] == 0
        g = validate_and_build(catalog._extension_table(s3, s3[s3[c], c_inv], 2, int(s3[c, c])))
        assert np.bincount(g.orders).tolist() == [0, 1, 7, 2, 0, 0, 2]

    @pytest.mark.parametrize("text", [
        "cyclic:4096", "abelian:64,64", "elemab:2,12",
        "dihedral:2048", "dicyclic:1024", "gq:4096", "heisenberg:13",
        "symmetric:6", "product:(dihedral:512)x(abelian:2,2)",
    ])
    def test_table_making_peaks_near_the_table(self, text):
        spec = parse_spec(text)
        tracemalloc.start()
        try:
            table = build(spec).table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * table.nbytes, (text, peak / table.nbytes)


class TestClosedForms:
    # Every catalog spec up to 256 meets the table walks in
    # test_readers_match_the_walks_on_the_catalog; these are the corners the
    # catalog never makes.
    def test_facts_match_the_fill_over_the_table_off_the_catalog(self, tmp_path):
        path = tmp_path / "dic3.tbl"
        write_cayley_table(build(parse_spec("dicyclic:3")), path)
        # dihedral:1500 and gq:2048 fill their rotations in several bands.
        texts = ["dihedral:1", "dihedral:2", "dicyclic:2", "gq:8", "abelian:1,1,3", "cyclic:1",
                 "elemab:2,13", "symmetric:2", "heisenberg:2", "abelian:6,1,4",
                 "dihedral:1500", "gq:2048",
                 "product:(dihedral:3)x(cyclic:4)x(abelian:2,2)",
                 "product:(product:(gq:8)x(cyclic:3))x(dihedral:5)",
                 "product:(cyclic:2)x(product:(dihedral:1)x(abelian:1,1))",
                 f"product:(file:{path})x(dihedral:4)", f"product:(cyclic:3)x(file:{path})"]
        for text in texts:
            spec = parse_spec(text)
            table = np.array(build(spec).table)
            # Above order 1024 the fill reads the table unvalidated: Light's test
            # takes about 20 s at 8192, and TestAbelianTable and
            # TestExtensionTable check those tables' makers.
            fill = validate_and_build(table) if len(table) <= 1024 else FiniteGroup(table)
            g = build(spec)
            for name in ("orders", "powers", "inverses"):
                made, filled = getattr(g, name), getattr(fill, name)
                assert (made.dtype, made.shape) == (filled.dtype, filled.shape), (text, name)
                assert np.array_equal(made, filled), (text, name)
            assert not g.powers.flags.writeable and g.powers.flags.c_contiguous, text
            assert g.is_abelian == fill.is_abelian, text
            assert g.fingerprint() == fill.fingerprint(), text


class TestPointPowers:
    def test_point_forms_match_the_fill_over_the_table(self, tmp_path):
        # power_at at every element and every k in 0..2 order(x), so each
        # row wraps twice, against the doubling fill over the Cayley table;
        # the power table stays byte-identical to that fill. Catalog products
        # pair a family member with an abelian group, so factors without a
        # point form on either side, a file: factor and a nested product
        # are added.
        path = tmp_path / "dic3.tbl"
        write_cayley_table(build(parse_spec("dicyclic:3")), path)
        extra = ["product:(cyclic:2)x(heisenberg:3)", "product:(abelian:2,2)x(symmetric:3)",
                 "product:(symmetric:3)x(heisenberg:3)", f"file:{path}",
                 f"product:(file:{path})x(dihedral:4)", f"product:(cyclic:3)x(file:{path})",
                 "product:(product:(gq:8)x(cyclic:3))x(dihedral:5)",
                 "product:(cyclic:2)x(product:(symmetric:3)x(dicyclic:2))"]
        for spec in list(catalog_up_to(128, False)) + [parse_spec(t) for t in extra]:
            g = build(spec)
            fill = FiniteGroup(np.array(g.table))
            orders = fill.orders
            reps = 2 * orders + 1  # k = 0 .. 2 order(x) for each x
            x = np.repeat(np.arange(g.n), reps)
            k = np.arange(len(x)) - np.repeat(np.cumsum(reps) - reps, reps)
            got = g.power_at(x, k)
            assert got.dtype == np.intp, spec
            assert np.array_equal(got, fill.powers[x, k % orders[x]]), spec
            assert (g.powers.dtype, g.powers.shape) == (fill.powers.dtype, fill.powers.shape), spec
            assert g.powers.tobytes() == fill.powers.tobytes(), spec

    def test_point_readers_make_no_power_table(self, monkeypatch):
        # cyclic_subgroup, subgroups_of_order_p, GP(G) and `gpgraph check`
        # read single powers, so a closed-form group or product makes no
        # power table for them: cyclic:8192's would be 8192 x 8192.
        from gpgraph.cli import main
        from gpgraph.powergraph import VertexConvention, generalized_power_graph

        def fill_powers(group):
            raise TableMade

        monkeypatch.setattr(FiniteGroup, "_fill_powers", fill_powers)
        for text in ("cyclic:8192", "abelian:12,6", "elemab:3,4", "dihedral:15", "dicyclic:6",
                     "gq:64", "product:(product:(gq:8)x(cyclic:3))x(dihedral:5)"):
            g = build(parse_spec(text))
            for x in (1, g.n - 1):
                assert len(g.cyclic_subgroup(x)) == g.order_of(x), (text, x)
            for p in prime_factors(g.n):
                assert all(len(sub) == p for sub in g.subgroups_of_order_p(p))
            for convention in VertexConvention:
                generalized_power_graph(build(parse_spec(text)), convention)
                assert main(["check", text, "--convention", convention.value]) == 0
            with pytest.raises(TableMade):  # the spy is in place
                g.powers


class TestOrdersFirst:
    def test_closed_form_orders_match_the_fill_over_the_table(self, monkeypatch):
        # Orders come without powers: no leaf's power grid is made while
        # they are read, for any catalog spec. Heisenberg and symmetric
        # groups, alone or as factors, fill both from their table.
        monkeypatch.setattr(groups, "_leaf_grid", _no_table)
        for spec in catalog_up_to(256, False):
            g = build(spec)
            orders = g.orders
            filled = FiniteGroup(np.array(g.table)).orders
            assert orders.dtype == filled.dtype and np.array_equal(orders, filled), spec

    def test_groups_from_the_pass_match_groups_built_alone(self):
        # The pass hands each product the factor groups it built earlier,
        # with whatever they have made; read as the harness reads them,
        # while the pass goes on, the groups must be what a group built
        # alone gives.
        specs = []
        for spec, g in catalog_groups(128, dedupe=False):
            specs.append(spec)
            alone = build(spec)
            for name in ("orders", "powers"):
                made, own = getattr(g, name), getattr(alone, name)
                assert made.dtype == own.dtype and np.array_equal(made, own), (spec, name)
            assert np.array_equal(g.prime_subgroup_incidence(), alone.prime_subgroup_incidence()), spec
            assert g.is_abelian == alone.is_abelian, spec
        assert specs == list(catalog_up_to(128, False))


class TestProductTable:
    def test_catalog_products_match_kron_and_tile(self):
        for spec in catalog_up_to(96, False):
            if spec.family == "product":
                text = spec.to_text()
                tables = [_made(part.to_text()) for part in spec.parts]
                _assert_same_bytes(_made(text), reduce(oracle.product_table, tables), text)


class TestAbelianEnumeration:
    def test_counts_match_partition_formula(self):
        # Independent oracle: #abelian groups of order n is the product of
        # partition numbers of the prime exponents.
        specs = enumerate_abelian_up_to(64)
        by_order: dict[int, int] = {}
        for s in specs:
            by_order[s.order()] = by_order.get(s.order(), 0) + 1
        for n in range(1, 65):
            expected = math.prod(partition_count(a) for a in prime_factors(n).values())
            assert by_order.get(n, 0) == expected, f"order {n}"

    def test_order_8_classes(self):
        assert len(abelian_specs_of_order(8)) == 3

    def test_order_36_classes(self):
        assert len(abelian_specs_of_order(36)) == partition_count(2) * partition_count(2) == 4

    def test_trivial(self):
        assert len(enumerate_abelian_up_to(1)) == 1

    def test_invariant_factor_chain(self):
        for s in enumerate_abelian_up_to(48):
            if s.family == "abelian":
                factors = s.params
                for d_next, d in zip(factors[1:], factors):
                    assert d % d_next == 0

    def test_all_enumerated_groups_are_abelian(self):
        for s in enumerate_abelian_up_to(24):
            assert build(s).is_abelian

    @given(n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_class_count_property(self, n):
        expected = math.prod(partition_count(a) for a in prime_factors(n).values())
        assert len(abelian_specs_of_order(n)) == expected


class TestCatalog:
    def test_contains_d8_and_q8_distinct(self):
        cat = catalog_up_to(8)
        texts = {s.to_text() for s in cat}
        assert "dihedral:4" in texts
        assert "gq:8" in texts

    def test_contains_heisenberg_at_27(self):
        assert "heisenberg:3" in {s.to_text() for s in catalog_up_to(27)}

    def test_no_duplicate_fingerprints_at_16(self):
        cat = catalog_up_to(16)
        fps = [build(s).fingerprint() for s in cat]
        assert len(fps) == len(set(fps))
        texts = {s.to_text() for s in cat}
        assert {"gq:16", "dihedral:8", "product:(dihedral:4)x(cyclic:2)",
                "product:(gq:8)x(cyclic:2)"} <= texts

    def test_dedupe_flag(self):
        merged = catalog_up_to(8, True)
        kept = catalog_up_to(8, False)
        assert len(kept) > len(merged)
        # dicyclic:2 is Q_8; with dedupe off both spellings survive
        assert "dicyclic:2" in {s.to_text() for s in kept}
        assert "dicyclic:2" not in {s.to_text() for s in merged}

    def test_products_match_the_all_pairs_filter(self):
        # Each base stops at the abelian groups that still fit; the result
        # equals trying every (base, abelian) pair, in the same order.
        abelian = enumerate_abelian_up_to(256)
        nonabelian = catalog._nonabelian_family_specs(256)
        products = [GroupSpec(catalog.PRODUCT, parts=(base, ab)) for base in nonabelian for ab in abelian
                    if ab.order() >= 2 and base.order() * ab.order() <= 256]
        assert catalog_up_to(256, False) == tuple(abelian + nonabelian + products)

    def test_products_bounded_by_max_order(self):
        for s in catalog_up_to(30):
            assert s.order() <= 30


class TestSpecText:
    @pytest.mark.parametrize("text", [
        "cyclic:12", "abelian:4,2", "gq:16", "dihedral:4", "dicyclic:3",
        "heisenberg:3", "symmetric:4", "elemab:2,3",
        "product:(dihedral:4)x(cyclic:3)",
        "product:(product:(gq:8)x(cyclic:3))x(cyclic:2)",
    ])
    def test_round_trip(self, text):
        assert parse_spec(text).to_text() == text

    def test_catalog_round_trips(self):
        for s in catalog_up_to(24):
            assert parse_spec(s.to_text()) == s

    def test_file_spec(self):
        s = parse_spec("file:some/table.tbl")
        assert s.path == "some/table.tbl"
        assert s.to_text() == "file:some/table.tbl"

    def test_names(self):
        assert parse_spec("cyclic:12").name == "Z12"
        assert parse_spec("abelian:4,2").name == "Z4xZ2"
        assert parse_spec("dihedral:4").name == "D8"
        assert parse_spec("gq:16").name == "Q16"
        assert parse_spec("product:(dihedral:4)x(cyclic:3)").name == "D8xZ3"

    @pytest.mark.parametrize("bad", [
        "nosuch:3", "cyclic", "cyclic:x", "product:(cyclic:2)", "product:(cyclic:2)x(cyclic:3",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(SpecParseError):
            parse_spec(bad)

    def test_nesting_limit(self):
        def nested(levels: int) -> str:
            text = "cyclic:2"
            for _ in range(levels):
                text = f"product:({text})x(cyclic:1)"
            return text

        limit = MAX_GROUP_ORDER.bit_length()
        assert build(parse_spec(nested(limit))).n == 2
        for levels in (limit + 1, 1200):
            with pytest.raises(SpecParseError, match="nested deeper"):
                parse_spec(nested(levels))

    def test_orders_without_building(self):
        for text, order in [("cyclic:12", 12), ("dihedral:4", 8), ("dicyclic:3", 12),
                            ("gq:32", 32), ("heisenberg:3", 27), ("symmetric:4", 24),
                            ("elemab:2,3", 8), ("product:(dihedral:4)x(cyclic:3)", 24)]:
            assert parse_spec(text).order() == order


class TableMade(Exception):
    """A table or facts maker ran."""


def _no_table(*args):
    raise TableMade


class PrimalityTested(Exception):
    pass


def _spy_on_orders(monkeypatch) -> list[tuple[GroupSpec, list[int]]]:
    """Patch the one place that forms a spec's order to record, per call,
    the spec and the factors it reads."""
    reads = []
    order_within_cap = catalog._order_within_cap

    def spied(spec, factors):
        read = []
        reads.append((spec, read))

        def counted():
            for f in factors:
                read.append(f)
                yield f

        return order_within_cap(spec, counted())

    monkeypatch.setattr(catalog, "_order_within_cap", spied)
    return reads


def _assert_stopped_at_the_cap(reads: list[tuple[GroupSpec, list[int]]]) -> None:
    # The refusing call read parameters or orders within the cap, never a
    # power formed from them, and stopped at the first partial product over
    # the cap: no order far above it was formed.
    assert reads, "the order was not formed by _order_within_cap"
    spec, read = reads[-1]
    assert max(read) <= max([MAX_GROUP_ORDER, *spec.params])
    assert math.prod(read[:-1]) <= MAX_GROUP_ORDER < math.prod(read)


class TestOrderCap:
    def test_cap_is_checked_before_any_table(self, monkeypatch):
        for maker in ("_cyclic_table", "_product_table"):
            monkeypatch.setattr(catalog, maker, _no_table)
        for maker in ("_cyclic_orders", "_leaf_grid"):
            monkeypatch.setattr(groups, maker, _no_table)
        for text in ("cyclic:100000", "product:(cyclic:400)x(cyclic:300)",
                     f"cyclic:{MAX_GROUP_ORDER + 1}"):
            with pytest.raises(BadParameters, match="exceeds the cap"):
                build(parse_spec(text))
        group = build(parse_spec(f"cyclic:{MAX_GROUP_ORDER}"))  # the cap itself is allowed
        for read in (lambda: group.table, lambda: group.orders):
            with pytest.raises(TableMade):
                read()

    def test_cap_is_checked_before_primality(self, monkeypatch):
        # The order of elemab:2,10^9 has 10^9 bits, and trial division of an
        # 18-digit p takes minutes: neither the order nor the test may run.
        def tested(p):
            raise PrimalityTested

        monkeypatch.setattr(catalog, "is_prime", tested)
        reads = _spy_on_orders(monkeypatch)
        for text in ("elemab:2,1000000000", "heisenberg:1000000000000000003",
                     "elemab:2,100000000000000000000",  # a rank above sys.maxsize
                     "elemab:2,14", "heisenberg:21",
                     "product:(cyclic:2)x(elemab:2,1000000000)",
                     "product:(heisenberg:1000000000000000003)x(cyclic:2)"):
            with pytest.raises(BadParameters, match="exceeds the cap"):
                build(parse_spec(text))
            _assert_stopped_at_the_cap(reads)
        for text in ("elemab:2,13", "heisenberg:20"):  # orders 8192 and 8000
            with pytest.raises(PrimalityTested):
                build(parse_spec(text))

    def test_long_abelian_specs_are_refused_quickly(self, monkeypatch):
        # Factors of 1 are legal, so only the partial products can say when
        # to stop; the exact order of 10^5 factors must never be formed, and
        # the message must not quote the whole spec.
        reads = _spy_on_orders(monkeypatch)
        monkeypatch.setattr(catalog, "_abelian_table", _no_table)
        monkeypatch.setattr(groups, "_leaf_grid", _no_table)
        long = "abelian:" + ",".join(["2"] * 10**5)
        for text in (long, f"product:({long})x(cyclic:2)", f"product:(cyclic:2)x({long})"):
            with pytest.raises(BadParameters, match="exceeds the cap") as err:
                build(parse_spec(text))
            assert len(str(err.value)) < 200
            _assert_stopped_at_the_cap(reads)
        group = build(parse_spec("abelian:" + ",".join(["1"] * 10**5 + ["2"] * 13)))
        for read in (lambda: group.table, lambda: group.powers):
            with pytest.raises(TableMade):
                read()
        with pytest.raises(SpecParseError, match="non-integer") as err:
            parse_spec(long + ",two")
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize("text", [
        "cyclic:0", "cyclic:", "gq:12", "dicyclic:1", "heisenberg:4",
        "symmetric:20000", "elemab:2,100000000",
    ])
    def test_specs_are_checked_when_made(self, text):
        family, _, rest = text.partition(":")
        params = tuple(int(v) for v in rest.split(",")) if rest else ()
        for make in (lambda: parse_spec(text), lambda: GroupSpec(family, params)):
            start = time.perf_counter()
            with pytest.raises(BadParameters):
                make()
            assert time.perf_counter() - start < 0.05, text

    @pytest.mark.parametrize("fields", [
        dict(family="cyclic", params=(2.5,)),
        dict(family="cyclic", params=[3]),
        dict(family="cyclic", params=(True,)),
        dict(family="cyclic", params=("3",)),
        dict(family=("cyclic",), params=(3,)),
        dict(family="product", parts=[parse_spec("cyclic:2"), parse_spec("cyclic:3")]),
        dict(family="product", parts=(parse_spec("cyclic:2"), "cyclic:3")),
        dict(family="file", path=None),
    ])
    def test_field_types_are_checked_when_made(self, fields):
        with pytest.raises(BadParameters, match="must be str"):
            GroupSpec(**fields)

    def test_product_with_a_file_factor(self, tmp_path, monkeypatch):
        path = tmp_path / "z2.tbl"
        path.write_text("2\n0 1\n1 0\n")
        assert build(parse_spec(f"product:(file:{path})x(cyclic:3)")).n == 6
        monkeypatch.setattr(catalog, "_product_table", _no_table)
        with pytest.raises(BadParameters, match="exceeds the cap"):
            build(parse_spec(f"product:(file:{path})x(cyclic:{MAX_GROUP_ORDER // 2 + 1})"))
