import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgraph.catalog import build, catalog_up_to, parse_spec
from gpgraph.groups import (
    IndexOutOfRange,
    NoIdentity,
    NoInverse,
    NotAPermutation,
    NotAssociative,
    NotClosed,
    NotPrime,
    OrderCapExceeded,
    CayleyTableError,
    closure_from_permutations,
    format_cayley_table,
    parse_cayley_table,
    prime_factors,
    validate_and_build,
)

# Non-associative loop of order 5 (Latin square with two-sided identity and
# inverses); witness triple (1, 1, 2).
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# Left-regular representation of Q_8: images of multiplication by a and b.
Q8_PERM_GENERATORS = [(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)]


def groups_sample():
    return [
        build(parse_spec(s))
        for s in ("cyclic:1", "cyclic:2", "cyclic:12", "abelian:4,2", "dihedral:4",
                  "gq:8", "gq:16", "heisenberg:3", "symmetric:4", "abelian:3,3")
    ]


class TestValidateAndBuild:
    def test_trivial_group(self):
        g = validate_and_build([[0]])
        assert g.n == 1
        assert g.identity == 0
        assert g.order_of(0) == 1

    def test_z2(self):
        g = validate_and_build([[0, 1], [1, 0]])
        assert g.n == 2
        assert list(g.inverses) == [0, 1]

    def test_row_not_permutation_rejected(self):
        with pytest.raises((NoInverse, NoIdentity)):
            validate_and_build([[0, 1], [1, 1]])

    def test_out_of_range_entry(self):
        with pytest.raises(NotClosed) as exc:
            validate_and_build([[0, 1], [1, 5]])
        assert exc.value.witness == (1, 1, 5)

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            validate_and_build([[0, 0], [1, 1]])

    def test_identity_found_off_zero(self):
        # [[1,0],[0,1]] is Z_2 written with the identity at index 1
        g = validate_and_build([[1, 0], [0, 1]])
        assert g.n == 2 and g.identity == 0

    def test_not_associative_names_witness(self):
        with pytest.raises(NotAssociative) as exc:
            validate_and_build(LOOP5)
        a, b, c = exc.value.witness
        t = LOOP5
        assert t[t[a][b]][c] != t[a][t[b][c]]

    def test_non_square_rejected(self):
        with pytest.raises(CayleyTableError):
            validate_and_build([[0, 1]])

    def test_identity_relabelled_to_zero(self):
        # Z_3 with elements renamed so the identity is index 2
        z3 = build(parse_spec("cyclic:3"))
        perm = [2, 0, 1]  # old -> new
        n = 3
        relabelled = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                relabelled[perm[a]][perm[b]] = perm[int(z3.table[a, b])]
        g = validate_and_build(relabelled)
        assert g.identity == 0
        assert g.fingerprint() == z3.fingerprint()

    def test_large_table_requires_trust(self):
        big = build(parse_spec("cyclic:300"))
        with pytest.raises(CayleyTableError):
            validate_and_build(np.array(big.table))
        g = validate_and_build(np.array(big.table), trust_associativity=True)
        assert g.n == 300


class TestElementQueries:
    def test_element_order_examples(self):
        z12 = build(parse_spec("cyclic:12"))
        assert z12.order_of(4) == 3
        assert z12.order_of(0) == 1
        d8 = build(parse_spec("dihedral:4"))
        assert d8.order_of(1) == 4  # rotation generator

    def test_order_out_of_range(self):
        z12 = build(parse_spec("cyclic:12"))
        with pytest.raises(IndexOutOfRange):
            z12.order_of(12)

    def test_cyclic_subgroup_examples(self):
        z12 = build(parse_spec("cyclic:12"))
        assert z12.cyclic_subgroup(3) == [0, 3, 6, 9]
        assert z12.cyclic_subgroup(0) == [0]

    def test_q8_order4_subgroups_contain_unique_involution(self):
        q8 = build(parse_spec("gq:8"))
        involutions = [g for g in q8.elements() if q8.order_of(g) == 2]
        assert len(involutions) == 1
        for g in q8.elements():
            if q8.order_of(g) == 4:
                sub = q8.cyclic_subgroup(g)
                assert len(sub) == 4
                assert involutions[0] in sub

    def test_exponent_examples(self):
        assert build(parse_spec("abelian:4,2")).exponent() == 4
        assert build(parse_spec("abelian:3,3")).exponent() == 3

    def test_heisenberg_exponent_from_table_walk(self):
        # Oracle: walk the table directly for every element's order.
        h = build(parse_spec("heisenberg:3"))
        orders = []
        for g in h.elements():
            cur, k = g, 1
            while cur != 0:
                cur = int(h.table[cur, g])
                k += 1
            orders.append(k)
        assert math.lcm(*orders) == 3
        assert h.exponent() == 3

    def test_is_p_group(self):
        assert build(parse_spec("heisenberg:3")).p_group_prime() == 3
        assert build(parse_spec("cyclic:12")).p_group_prime() is None
        assert build(parse_spec("cyclic:2")).p_group_prime() == 2
        assert build(parse_spec("cyclic:1")).p_group_prime() is None

    def test_subgroups_of_order_p(self):
        g33 = build(parse_spec("abelian:3,3"))
        subs = g33.subgroups_of_order_p(3)
        # Oracle: each subgroup of order p contains p-1 elements of order p,
        # so the count is (#order-p elements) / (p - 1) = 8 / 2.
        order3 = sum(1 for g in g33.elements() if g33.order_of(g) == 3)
        assert order3 == 8
        assert len(subs) == 4
        assert all(len(s) == 3 for s in subs)

        q16 = build(parse_spec("gq:16"))
        assert len(q16.subgroups_of_order_p(2)) == 1

        z6 = build(parse_spec("cyclic:6"))
        assert z6.subgroups_of_order_p(5) == []

    def test_subgroups_of_order_p_rejects_composite(self):
        with pytest.raises(NotPrime):
            build(parse_spec("cyclic:6")).subgroups_of_order_p(4)

    def test_center_and_centralizer(self):
        z12 = build(parse_spec("cyclic:12"))
        assert z12.center() == list(range(12))
        d8 = build(parse_spec("dihedral:4"))
        r = 1
        assert sorted(d8.centralizer(r)) == d8.cyclic_subgroup(r)
        assert len(d8.center()) == 2

    def test_center_subset_centralizer(self):
        for g in groups_sample():
            center = set(g.center())
            for x in (0, g.n - 1, g.n // 2):
                cent = set(g.centralizer(x))
                assert center <= cent
                assert x in cent


class TestClosure:
    def test_cyclic_from_3cycle(self):
        g = closure_from_permutations(3, [(1, 2, 0)])
        assert g.n == 3

    def test_s3_from_transposition_and_3cycle(self):
        g = closure_from_permutations(3, [(1, 0, 2), (1, 2, 0)])
        assert g.n == 6
        assert g.fingerprint() == build(parse_spec("symmetric:3")).fingerprint()

    def test_q8_from_regular_representation(self):
        g = closure_from_permutations(8, Q8_PERM_GENERATORS)
        assert g.n == 8
        assert sum(1 for x in g.elements() if g.order_of(x) == 2) == 1
        assert g.fingerprint() == build(parse_spec("gq:8")).fingerprint()

    def test_identity_is_index_zero(self):
        g = closure_from_permutations(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
        assert g.order_of(0) == 1

    def test_order_cap(self):
        with pytest.raises(OrderCapExceeded):
            closure_from_permutations(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], cap=50)

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutation):
            closure_from_permutations(3, [(0, 0, 1)])

    def test_closure_output_revalidates(self):
        g = closure_from_permutations(8, Q8_PERM_GENERATORS)
        revalidated = validate_and_build(np.array(g.table))
        assert revalidated.fingerprint() == g.fingerprint()


class TestTableTextFormat:
    def test_round_trip(self):
        for spec in ("cyclic:7", "dihedral:4", "gq:16"):
            g = build(parse_spec(spec))
            again = parse_cayley_table(format_cayley_table(g))
            assert np.array_equal(np.array(again.table), np.array(g.table))

    def test_comments_and_relabelling(self):
        text = "# shifted Z_2: identity is element 1\n2\n1 0\n0 1\n"
        g = parse_cayley_table(text)
        assert g.identity == 0
        assert g.n == 2

    def test_bad_shapes(self):
        with pytest.raises(CayleyTableError):
            parse_cayley_table("2\n0 1\n")
        with pytest.raises(CayleyTableError):
            parse_cayley_table("")
        with pytest.raises(CayleyTableError):
            parse_cayley_table("x\n")


class TestInvariants:
    def test_orders_divide_group_order(self):
        for g in groups_sample():
            for x in g.elements():
                assert g.n % g.order_of(x) == 0

    def test_cyclic_subgroup_size_is_element_order(self):
        for g in groups_sample():
            for x in g.elements():
                assert len(g.cyclic_subgroup(x)) == g.order_of(x)

    def test_subgroup_intersections_closed(self):
        g = build(parse_spec("abelian:4,2"))
        for a in g.elements():
            for b in g.elements():
                inter = sorted(set(g.cyclic_subgroup(a)) & set(g.cyclic_subgroup(b)))
                for x in inter:
                    for y in inter:
                        assert g.mul(x, y) in inter

    def test_prime_subgroup_incidence(self):
        # Oracle: the subgroups of prime order inside <x>, found by set
        # containment among all subgroups of each prime order.
        for spec in catalog_up_to(32):
            g = build(spec)
            primes = sorted(prime_factors(g.n))
            inc = g.prime_subgroup_incidence()
            assert inc.shape == (g.n, len(primes))
            assert not inc.flags.writeable
            by_prime = {p: g.subgroups_of_order_p(p) for p in primes}
            for x in g.elements():
                cyc = set(g.cyclic_subgroup(x))
                for j, p in enumerate(primes):
                    inside = [sub for sub in by_prime[p] if set(sub) <= cyc]
                    expected = inside[0][1] if inside else -1
                    assert len(inside) <= 1, (spec, x, p)
                    assert int(inc[x, j]) == expected, (spec, x, p)

    @given(n=st.integers(min_value=1, max_value=60))
    @settings(max_examples=30, deadline=None)
    def test_cyclic_group_orders(self, n):
        g = build(parse_spec(f"cyclic:{n}"))
        for x in range(n):
            assert g.order_of(x) == n // math.gcd(n, x)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_permutation_closure_is_a_group(self, data):
        degree = data.draw(st.integers(min_value=1, max_value=5))
        perms = data.draw(
            st.lists(st.permutations(range(degree)), min_size=1, max_size=2)
        )
        g = closure_from_permutations(degree, [tuple(p) for p in perms])
        revalidated = validate_and_build(np.array(g.table))
        assert revalidated.n == g.n

    def test_concurrent_order_cache_is_consistent(self):
        g = build(parse_spec("symmetric:4"))
        results = []

        def reader():
            results.append(tuple(int(v) for v in g.orders))

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1
