import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import partition_count
from kernel_oracles import abelian_table_rows
import gpgraph.catalog as catalog
from gpgraph.catalog import (
    MAX_GROUP_ORDER,
    BadParameters,
    SpecParseError,
    abelian_specs_of_order,
    build,
    catalog_up_to,
    enumerate_abelian_up_to,
    parse_spec,
)
from gpgraph.groups import prime_factors


class TestBuild:
    def test_cyclic(self):
        g = build(parse_spec("cyclic:12"))
        assert g.n == 12
        assert g.exponent() == 12

    def test_q8_unique_involution(self):
        g = build(parse_spec("gq:8"))
        assert g.n == 8
        assert sum(1 for x in g.elements() if g.order_of(x) == 2) == 1

    def test_heisenberg(self):
        g = build(parse_spec("heisenberg:3"))
        assert g.n == 27
        assert not g.is_abelian
        assert g.exponent() == 3

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
        assert g.exponent() == 2

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
        assert build(parse_spec("abelian:" + ",".join(["1"] * 10**5 + ["4", "2"]))).n == 8
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
    pass


def _no_table(*args):
    raise TableMade


class PrimalityTested(Exception):
    pass


class TestOrderCap:
    def test_cap_is_checked_before_any_table(self, monkeypatch):
        monkeypatch.setattr(catalog, "_cyclic_table", _no_table)
        monkeypatch.setattr(catalog, "_product_table", _no_table)
        for text in ("cyclic:100000", "product:(cyclic:400)x(cyclic:300)",
                     f"cyclic:{MAX_GROUP_ORDER + 1}"):
            with pytest.raises(BadParameters, match="exceeds the cap"):
                build(parse_spec(text))
        with pytest.raises(TableMade):  # the cap itself is allowed
            build(parse_spec(f"cyclic:{MAX_GROUP_ORDER}"))

    def test_cap_is_checked_before_primality(self, monkeypatch):
        # The order of elemab:2,10^9 has 10^9 bits, and trial division of an
        # 18-digit p takes minutes: neither the order nor the test may run.
        def tested(p):
            raise PrimalityTested

        def no_exact_order(spec):
            raise AssertionError("the exact order was formed")

        monkeypatch.setattr(catalog, "is_prime", tested)
        monkeypatch.setattr(catalog.GroupSpec, "order", no_exact_order)
        for text in ("elemab:2,1000000000", "heisenberg:1000000000000000003",
                     "elemab:2,14", "heisenberg:21",
                     "product:(cyclic:2)x(elemab:2,1000000000)",
                     "product:(heisenberg:1000000000000000003)x(cyclic:2)"):
            with pytest.raises(BadParameters, match="exceeds the cap"):
                build(parse_spec(text))
        for text in ("elemab:2,13", "heisenberg:20"):  # orders 8192 and 8000
            with pytest.raises(PrimalityTested):
                build(parse_spec(text))

    def test_long_abelian_specs_are_refused_quickly(self, monkeypatch):
        # Factors of 1 are legal, so only the partial products can say when
        # to stop; the exact order of 10^5 factors must never be formed, and
        # the message must not quote the whole spec.
        def no_exact_order(spec):
            raise AssertionError("the exact order was formed")

        monkeypatch.setattr(catalog.GroupSpec, "order", no_exact_order)
        monkeypatch.setattr(catalog, "_abelian_table", _no_table)
        long = "abelian:" + ",".join(["2"] * 10**5)
        for text in (long, f"product:({long})x(cyclic:2)", f"product:(cyclic:2)x({long})"):
            with pytest.raises(BadParameters, match="exceeds the cap") as err:
                build(parse_spec(text))
            assert len(str(err.value)) < 200
        with pytest.raises(TableMade):
            build(parse_spec("abelian:" + ",".join(["1"] * 10**5 + ["2"] * 13)))
        with pytest.raises(SpecParseError, match="non-integer") as err:
            parse_spec(long + ",two")
        assert len(str(err.value)) < 200

    def test_product_with_a_file_factor(self, tmp_path, monkeypatch):
        path = tmp_path / "z2.tbl"
        path.write_text("2\n0 1\n1 0\n")
        assert build(parse_spec(f"product:(file:{path})x(cyclic:3)")).n == 6
        monkeypatch.setattr(catalog, "_product_table", _no_table)
        with pytest.raises(BadParameters, match="exceeds the cap"):
            build(parse_spec(f"product:(file:{path})x(cyclic:{MAX_GROUP_ORDER // 2 + 1})"))
