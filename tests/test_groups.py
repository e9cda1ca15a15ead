import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgraph.catalog import build, catalog_up_to, parse_spec
from gpgraph.groups import (
    ASSOCIATIVITY_BAND,
    MAX_GROUP_ORDER,
    IndexOutOfRange,
    NoIdentity,
    NoInverse,
    NotAPermutation,
    NotAssociative,
    NotClosed,
    NotPrime,
    OrderCapExceeded,
    CayleyTableError,
    FiniteGroup,
    _permutation_table,
    closure_from_permutations,
    format_cayley_table,
    parse_cayley_table,
    prime_factors,
    validate_and_build,
)
import kernel_oracles as oracle
from kernel_oracles import permutation_closure, permutation_table

# Non-associative loop of order 5 (Latin square with two-sided identity and
# inverses); witness triple (1, 1, 2).
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# Cayley tables whose entries are off by a multiple of 2^16 (one entry
# each); cast to int16 before the range check, each read as Z_2.
WRAPPED_Z2_TEXTS = (
    "2\n65536 1\n1 0\n",
    "2\n0 65537\n1 0\n",
    "2\n0 1\n1 -65536\n",
    "2\n0 1\n1 9223372036854775808\n",
)


def loop5_times_cyclic(m: int) -> np.ndarray:
    """Table of LOOP5 x Z_m: a loop with identity 0 and two-sided inverses
    that is not associative, of order 5m."""
    loop = np.array(LOOP5)
    a = np.arange(m)
    cyc = (a[:, None] + a[None, :]) % m
    return np.kron(loop, np.ones((m, m), dtype=int)) * m + np.tile(cyc, (5, 5))


def center(g: FiniteGroup) -> list[int]:
    """Elements commuting with every element of the group."""
    commutes = g.table == g.table.T
    return [int(x) for x in np.nonzero(commutes.all(axis=1))[0]]


def centralizer(g: FiniteGroup, x: int) -> list[int]:
    """Elements commuting with x."""
    commutes = g.table[x, :] == g.table[:, x]
    return [int(y) for y in np.nonzero(commutes)[0]]


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

    def test_large_tables_are_checked_in_full(self):
        big = build(parse_spec("cyclic:300"))
        g = validate_and_build(np.array(big.table))
        assert g.n == 300 and np.array_equal(g.table, big.table)
        table = loop5_times_cyclic(60)
        with pytest.raises(NotAssociative) as exc:
            validate_and_build(table)
        a, b, c = exc.value.witness
        assert table[table[a, b], c] != table[a, table[b, c]]
        # Above the cap, refused before any check (a broadcast view: no memory).
        with pytest.raises(CayleyTableError, match=f"exceeds the cap {MAX_GROUP_ORDER}"):
            validate_and_build(np.broadcast_to(np.int16(0), (MAX_GROUP_ORDER + 1,) * 2))

    def test_witness_beyond_the_first_band(self):
        # Rows 0..m-1 of LOOP5 x Z_m have the loop's identity as their loop
        # part, so they associate; the first failing row lies in a later band.
        table = loop5_times_cyclic(ASSOCIATIVITY_BAND + 1)
        with pytest.raises(NotAssociative) as exc:
            validate_and_build(table)
        a, s, c = exc.value.witness
        assert a > ASSOCIATIVITY_BAND
        # The first (a, c) of the whole comparison for that middle element.
        differ = table[table[:, s], :] != table[:, table[s]]
        assert (a, c) == tuple(int(v) for v in np.argwhere(differ)[0])
        assert table[table[a, s], c] != table[a, table[s, c]]

    @pytest.mark.parametrize("text", WRAPPED_Z2_TEXTS)
    def test_range_checked_before_the_cast(self, text):
        rows = [[int(tok) for tok in ln.split()] for ln in text.splitlines()[1:]]
        with pytest.raises(NotClosed) as exc:
            parse_cayley_table(text)
        r, c, value = exc.value.witness
        assert value == rows[r][c] and not 0 <= value < 2
        dtype = np.uint64 if max(map(max, rows)) >= 2**63 else np.int64
        with pytest.raises(NotClosed):
            validate_and_build(np.array(rows, dtype=dtype))

    def test_input_is_copied_and_group_table_is_read_only(self):
        table = np.array([[0, 1], [1, 0]])
        g = validate_and_build(table)
        assert table.flags.writeable and not g.table.flags.writeable


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
        assert center(z12) == list(range(12))
        d8 = build(parse_spec("dihedral:4"))
        r = 1
        assert sorted(centralizer(d8, r)) == d8.cyclic_subgroup(r)
        assert len(center(d8)) == 2

    def test_center_subset_centralizer(self):
        for g in groups_sample():
            z = set(center(g))
            for x in (0, g.n - 1, g.n // 2):
                cent = set(centralizer(g, x))
                assert z <= cent
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

    def test_degree_zero(self):
        for gens in ([], [()]):
            assert closure_from_permutations(0, gens).n == 1

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

    @pytest.mark.parametrize("degree", [3, 4, 5, 6])
    def test_permutation_table_matches_dict_loop(self, degree):
        perms = np.array(list(itertools.permutations(range(degree))), dtype=np.int16)
        assert np.array_equal(_permutation_table(perms), permutation_table(perms))

    def test_permutation_table_needs_closed_rows(self):
        s4 = np.array(list(itertools.permutations(range(4))), dtype=np.int16)
        for rows in (s4[:-1], s4[[0, 1, 3]], np.array([[0, 1, 2], [1, 2, 0]], dtype=np.int16)):
            with pytest.raises(KeyError):
                permutation_table(rows)
            with pytest.raises(CayleyTableError, match="outside the rows"):
                _permutation_table(rows)


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

    def test_order_cap_before_rows(self):
        # The order alone is refused, before the row count is looked at.
        with pytest.raises(CayleyTableError, match=f"exceeds the cap {MAX_GROUP_ORDER}"):
            parse_cayley_table(f"{MAX_GROUP_ORDER + 1}\n0\n")

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
        # containment among all subgroups of each prime order, every set
        # walked over the table.
        for spec in catalog_up_to(32):
            g = build(spec)
            primes = sorted(prime_factors(g.n))
            inc = g.prime_subgroup_incidence()
            assert inc.shape == (g.n, len(primes))
            assert not inc.flags.writeable
            walks = oracle.cyclic_subgroups(g)
            by_prime = {p: oracle.subgroups_of_order_p(walks, p) for p in primes}
            for x, walk in enumerate(walks):
                cyc = set(walk)
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
        rows = permutation_closure(degree, perms)
        rows = rows[data.draw(st.permutations(range(len(rows))))]
        assert len(rows) == g.n
        assert np.array_equal(_permutation_table(rows), permutation_table(rows))

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


def _relabelled_file_group(tmp_path, spec: str) -> FiniteGroup:
    """`spec` written as a `file:` table under a relabelling that moves the
    identity off index 0, then loaded back."""
    table = np.array(build(parse_spec(spec)).table)
    perm = np.random.default_rng(7).permutation(len(table))
    if perm[0] == 0:
        perm[[0, 1]] = perm[[1, 0]]
    relabelled = np.empty_like(table)
    relabelled[perm[:, None], perm[None, :]] = perm[table]
    path = tmp_path / "relabelled.tbl"
    path.write_text(f"{len(table)}\n" + "\n".join(" ".join(map(str, r)) for r in relabelled) + "\n")
    return build(parse_spec(f"file:{path}"))


class TestPowerTable:
    def test_powers_and_its_readers(self, tmp_path):
        groups = [build(s) for s in catalog_up_to(32)]
        groups.append(_relabelled_file_group(tmp_path, "product:(dihedral:3)x(cyclic:4)"))
        for g in groups:
            assert not g.table.flags.writeable
            powers = g.powers
            assert not powers.flags.writeable
            with pytest.raises(ValueError):
                powers[0, 0] = 1
            assert powers.dtype == g.table.dtype
            walks = oracle.cyclic_subgroups(g)
            assert powers.shape == (g.n, max(map(len, walks)))
            idx = np.arange(g.n)
            assert (powers[:, 0] == 0).all()
            if powers.shape[1] > 1:
                assert np.array_equal(powers[:, 1], idx)
            for k in range(1, powers.shape[1]):
                assert np.array_equal(powers[:, k], g.table[powers[:, k - 1], idx])
            masks = g.cyclic_subgroup_masks()
            for x, cyc in enumerate(walks):
                assert g.cyclic_subgroup(x) == cyc
                assert int(g.orders[x]) == len(cyc)
                assert masks[x] == sum(1 << e for e in cyc)
            for p in prime_factors(g.n):
                assert g.subgroups_of_order_p(p) == oracle.subgroups_of_order_p(walks, p)

    def test_readers_match_the_walks_on_the_catalog(self):
        for spec in catalog_up_to(256, False):
            g = build(spec)
            walks = oracle.cyclic_subgroups(g)
            for x, walk in enumerate(walks):
                assert g.cyclic_subgroup(x) == walk, (spec, x)
            for p in prime_factors(g.n):
                assert g.subgroups_of_order_p(p) == oracle.subgroups_of_order_p(walks, p), (spec, p)

    def test_powers_that_never_reach_the_identity(self):
        # Element 1 squares to itself, so its powers never reach 0. Wrapped
        # without validation, every reader of the power table must refuse.
        table = np.array([[0, 1, 2], [1, 1, 0], [2, 0, 2]], dtype=np.int16)
        readers = [
            lambda g: g.orders,
            lambda g: g.order_of(1),
            lambda g: g.powers,
            lambda g: g.cyclic_subgroup_masks(),
            lambda g: g.prime_subgroup_incidence(),
            lambda g: g.cyclic_subgroup(1),
            lambda g: g.subgroups_of_order_p(3),
        ]
        for read in readers:
            with pytest.raises(CayleyTableError):
                read(FiniteGroup(table))
