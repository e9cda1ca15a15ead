import itertools
import math
import threading
import time
import tracemalloc
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgraph.catalog import _product_table, build, catalog_up_to, parse_spec
from gpgraph.groups import (
    ASSOCIATIVITY_BAND,
    MAX_GROUP_ORDER,
    PERMUTATION_CLOSURE_CAP,
    IndexOutOfRange,
    NoIdentity,
    NoInverse,
    NotAPermutation,
    NotAssociative,
    NotClosed,
    NotPrime,
    OrderCapExceeded,
    TABLE_LEAF,
    CayleyTableError,
    FiniteGroup,
    GroupBatch,
    Leaf,
    _generating_set,
    _permutation_table,
    closure_from_permutations,
    cyclic_leaf,
    format_cayley_table,
    inverting_leaf,
    is_prime,
    parse_cayley_table,
    prime_factors,
    primitive_root,
    read_cayley_table,
    validate_and_build,
    write_cayley_table,
)
import gpgraph.groups as groups_module
from conftest import relabelled_file_group
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


def random_relabellings(count: int = 20, max_order: int = 64) -> list[tuple[np.ndarray, np.ndarray]]:
    """`count` catalog tables of order at most max_order, each renamed by a
    seeded random permutation: (renamed table, permutation)."""
    specs = catalog_up_to(max_order, False)
    rng = np.random.default_rng(max_order)
    out = []
    for i in rng.choice(len(specs), count, replace=False):
        table = np.array(build(specs[i]).table)
        perm = rng.permutation(len(table))
        out.append((oracle.relabel(table, perm), perm))
    return out


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

    def test_generating_set_generates_the_whole_table(self):
        tables = [build(spec).table for spec in catalog_up_to(256, False)]
        tables += [np.array(LOOP5), loop5_times_cyclic(4)]
        for table in tables:
            gens = _generating_set(table)
            assert len(oracle.magma_closure(table, gens)) == len(table)

    def test_input_is_copied_and_group_table_is_read_only(self):
        table = np.array([[0, 1], [1, 0]])
        g = validate_and_build(table)
        assert table.flags.writeable and not g.table.flags.writeable

    def test_relabel_matches_the_scatter(self):
        # The identity at index 1, in the middle and last, then anywhere.
        for spec in catalog_up_to(64, False):
            table = np.array(build(spec).table)
            n = len(table)
            for e in {e for e in (1, n // 2, n - 1) if 0 < e < n}:
                moved = oracle.swap_identity(table, e)
                got = validate_and_build(moved).table
                assert got.dtype == table.dtype
                assert np.array_equal(got, oracle.swap_identity(moved, e)), (spec, e)
        for moved, perm in random_relabellings():
            got = validate_and_build(moved).table
            assert np.array_equal(got, oracle.swap_identity(moved, int(perm[0])))

    def test_not_closed_names_the_first_bad_cell_both_ways(self):
        # Z_6 with its identity at index 3 and one or three bad cells, (2, 4)
        # first in row-major order: it is named whether the text goes to
        # loadtxt, which refuses an entry past int16, or row by row, and
        # whether the array is checked as given; 65536 + k is not read as k.
        z6 = oracle.swap_identity(np.array(build(parse_spec("cyclic:6")).table, dtype=np.int64), 3)
        for first in (-1, -40000, 6, 40000, 65536, 65536 + 4):
            for later in (None, -3, 7, 40000, 65536 + 1):
                table = z6.copy()
                table[2, 4] = first
                if later is not None:
                    table[2, 5] = table[4, 1] = later
                text = "6\n" + "\n".join(" ".join(map(str, row)) for row in table.tolist()) + "\n"
                for read in (validate_and_build, parse_cayley_table):
                    with pytest.raises(NotClosed) as exc:
                        read(text if read is parse_cayley_table else table)
                    assert exc.value.witness == (2, 4, first), (first, later, read.__name__)

    def test_generating_set_matches_the_unique_frontiers(self):
        tables = [build(spec).table for spec in catalog_up_to(128, False)]
        tables += [validate_and_build(moved).table for moved, _ in random_relabellings()]
        for table in tables:
            assert _generating_set(table) == oracle.generating_set(table)


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
        assert math.lcm(*build(parse_spec("abelian:4,2")).orders.tolist()) == 4
        assert math.lcm(*build(parse_spec("abelian:3,3")).orders.tolist()) == 3

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
        assert math.lcm(*h.orders.tolist()) == 3

    def test_is_p_group(self):
        # |G| = p^k, k >= 1, iff one prime divides |G|; the trivial group has none
        assert list(prime_factors(build(parse_spec("heisenberg:3")).n)) == [3]
        assert len(prime_factors(build(parse_spec("cyclic:12")).n)) == 2
        assert list(prime_factors(build(parse_spec("cyclic:2")).n)) == [2]
        assert list(prime_factors(build(parse_spec("cyclic:1")).n)) == []

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

    def test_closure_too_large_to_hold_is_refused_at_once(self):
        degree = 10**5
        cycle = [(x + 1) % degree for x in range(degree)]
        start = time.perf_counter()
        with pytest.raises(OrderCapExceeded,
                           match=f"degree {degree} under the order cap {PERMUTATION_CLOSURE_CAP} "):
            closure_from_permutations(degree, [cycle])
        assert time.perf_counter() - start < 0.1

    def test_closure_of_large_degree_under_a_small_cap(self):
        degree = 10**5
        g = closure_from_permutations(degree, [[1, 0, *range(2, degree)]], cap=2)
        assert g.n == 2 and g.table.tolist() == [[0, 1], [1, 0]]

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
        # Rows in any order, the identity last.
        shuffled = perms[np.random.default_rng(degree).permutation(len(perms))]
        shuffled = np.concatenate([shuffled[(shuffled != perms[0]).any(axis=1)], perms[:1]])
        assert np.array_equal(_permutation_table(shuffled), permutation_table(shuffled))

    def test_closure_of_large_degree_matches_dict_loop(self, monkeypatch):
        # Disjoint 16- and 17-cycles on 33 points generate Z_272; no integer
        # key of a row of 33 entries below 33 fits 64 bits.
        c16 = [(x + 1) % 16 for x in range(16)] + list(range(16, 33))
        c17 = list(range(16)) + [16 + (x + 1) % 17 for x in range(17)]
        rows_seen = []
        real = groups_module._permutation_table
        monkeypatch.setattr(groups_module, "_permutation_table",
                            lambda perms: rows_seen.append(perms) or real(perms))
        g = closure_from_permutations(33, [c16, c17])
        assert g.n == 272 and int(g.orders.max()) == 272
        assert np.array_equal(g.table, permutation_table(rows_seen[0]))
        shuffled = rows_seen[0][np.random.default_rng(33).permutation(272)]
        assert (shuffled[0] != np.arange(33)).any()
        assert np.array_equal(_permutation_table(shuffled), permutation_table(shuffled))

    def test_permutation_table_needs_closed_rows(self):
        s4 = np.array(list(itertools.permutations(range(4))), dtype=np.int16)
        for rows in (s4[:-1], s4[[0, 1, 3]], np.array([[0, 1, 2], [1, 2, 0]], dtype=np.int16),
                     s4[1:], s4[[5, 0, 3]]):
            with pytest.raises(KeyError):
                permutation_table(rows)
            with pytest.raises(CayleyTableError, match="outside the rows"):
                _permutation_table(rows)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_table_raises_exactly_on_open_rows(self, data):
        # Only generator rows are looked up, so a missing composition must
        # still be found whichever rows are given, in whichever order.
        s4 = np.array(list(itertools.permutations(range(4))), dtype=np.int16)
        picked = data.draw(st.lists(st.integers(0, 23), min_size=1, max_size=24, unique=True))
        rows = s4[picked]
        try:
            expected = permutation_table(rows)
        except KeyError:
            with pytest.raises(CayleyTableError, match="outside the rows"):
                _permutation_table(rows)
            return
        assert np.array_equal(_permutation_table(rows), expected)


class TestTableTextFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.tbl"
        for spec in ("cyclic:1", "cyclic:7", "abelian:4,2", "dihedral:4", "gq:16", "heisenberg:3",
                     "symmetric:4", "product:(gq:8)x(cyclic:3)"):
            g = build(parse_spec(spec))
            again = parse_cayley_table(format_cayley_table(g))
            assert np.array_equal(np.array(again.table), np.array(g.table))
            write_cayley_table(g, path)
            assert np.array_equal(read_cayley_table(path).table, g.table), spec

    def test_writer_streams_the_formatted_text(self, tmp_path):
        # One row at a time: the whole text of cyclic:2048 is 10 MB, and its
        # table, made before tracing, 8 MiB.
        g = build(parse_spec("cyclic:2048"))
        g.table
        path = tmp_path / "z2048.tbl"
        tracemalloc.start()
        try:
            write_cayley_table(g, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert path.read_text(encoding="utf-8") == format_cayley_table(g)

    def test_reading_a_large_file_peaks_below_three_times_the_file(self, tmp_path):
        # dihedral:1024 renamed at random: an 18 MB file of an 8 MiB table.
        table = np.array(build(parse_spec("dihedral:1024")).table)
        perm = np.random.default_rng(1024).permutation(len(table))
        moved = oracle.relabel(table, perm)
        path = tmp_path / "d1024.tbl"
        write_cayley_table(FiniteGroup(moved), path)
        tracemalloc.start()
        try:
            g = read_cayley_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size
        assert np.array_equal(g.table, oracle.swap_identity(moved, int(perm[0])))

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

    def test_incidence_matches_the_walks(self, tmp_path):
        # Each id is checked against the least non-identity element of
        # <x^(m/p)>, walked over the table, so an id read off a cycle of
        # generators before the doubling has covered it fails here.
        specs = [*catalog_up_to(256, False), parse_spec("heisenberg:5"), parse_spec("symmetric:5")]
        cases = itertools.chain(((spec, build(spec)) for spec in specs),
                                [("file:", relabelled_file_group(tmp_path, "symmetric:4"))])
        for spec, g in cases:
            assert g.prime_subgroup_incidence().tolist() == oracle.prime_subgroup_incidence(g), spec

    def test_primitive_roots_generate_every_unit(self):
        # r, r^2, ... mod p for every prime p up to the order cap at once:
        # the first k with r^k = 1 is the order of r, and it must be p - 1.
        primes = [p for p in range(2, MAX_GROUP_ORDER + 1) if is_prime(p)]
        primes, roots = np.array(primes), np.array([primitive_root(p) for p in primes])
        assert ((1 <= roots) & (roots < primes)).all()
        order = np.zeros(len(primes), dtype=np.intp)
        power = roots % primes
        for k in range(1, int(primes.max())):
            order[(power == 1) & (order == 0)] = k
            power = power * roots % primes
        assert np.array_equal(order, primes - 1)

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


class TestLeafPowers:
    def test_a_mixed_batch_reads_every_leaf_shape(self, tmp_path):
        # One batch holds every leaf shape, and several groups of one shape
        # with other parameters: cyclic and inverting leaves of other sizes,
        # table leaves of other tables (read through one stacked table).
        # Each group's rows of the batch incidence must be its incidence
        # alone and the walks' over its table, with -1 past its own
        # columns; so must they when a cut splits the batch in two, at
        # every place, which splits shape classes between two batches.
        path = tmp_path / "dic3.tbl"
        write_cayley_table(build(parse_spec("dicyclic:3")), path)
        texts = ["cyclic:12", "cyclic:7", "abelian:1,6,1,2", "abelian:4,2", "abelian:1,1",
                 "elemab:2,3", "elemab:3,2", "dihedral:5", "dihedral:6", "dicyclic:3", "dicyclic:4",
                 "gq:8", "gq:16", "heisenberg:3", "symmetric:3", "symmetric:4", f"file:{path}",
                 "product:(heisenberg:3)x(cyclic:2)", "product:(symmetric:3)x(cyclic:3)",
                 "product:(cyclic:2)x(heisenberg:3)", "product:(abelian:2,2)x(symmetric:3)",
                 "product:(symmetric:3)x(abelian:2,2)", f"product:(file:{path})x(dihedral:4)",
                 f"product:(cyclic:3)x(file:{path})", "product:(symmetric:3)x(heisenberg:3)",
                 "product:(product:(gq:8)x(cyclic:3))x(dihedral:5)",
                 "product:(cyclic:2)x(product:(symmetric:3)x(dicyclic:2))",
                 "product:(product:(dihedral:3)x(cyclic:2))x(product:(cyclic:3)x(dihedral:4))"]
        groups = [build(parse_spec(t)) for t in texts]
        shapes = {tuple(leaf.kind for leaf in g.leaves) for g in groups}
        assert {("cyclic",), ("inverting",), ("table",), ("table", "cyclic"),
                ("cyclic", "table")} <= shapes
        expected = []
        for text, g in zip(texts, groups):
            alone = build(parse_spec(text)).prime_subgroup_incidence().tolist()
            assert alone == oracle.prime_subgroup_incidence(g), text
            expected.append(alone)
        for cut in range(len(groups) + 1):
            for part, want in ((groups[:cut], expected[:cut]), (groups[cut:], expected[cut:])):
                if not part:
                    continue
                batch = GroupBatch(part)
                inc = batch.prime_subgroup_incidence()
                for g, rows, lo in zip(part, want, batch.starts.tolist()):
                    width = len(rows[0])
                    assert inc[lo:lo + g.n, :width].tolist() == rows, (cut, texts[groups.index(g)])
                    assert (inc[lo:lo + g.n, width:] == -1).all()


    def test_hand_made_leaves_match_the_fill(self):
        # The public form with one leaf of each kind: D6 as an inverting
        # leaf, S3 as a table leaf, Z4 as a cyclic leaf. Everything but the
        # table is read from the leaves, so reading them makes no table.
        s3 = build(parse_spec("symmetric:3"))
        table = reduce(_product_table, [build(parse_spec(t)).table
                                        for t in ("dihedral:3", "symmetric:3", "cyclic:4")])
        made = []

        def make_table():
            made.append(table)
            return table

        g = FiniteGroup(make_table, order=len(table),
                        leaves=lambda: (inverting_leaf(3, 0), Leaf(TABLE_LEAF, 6, group=s3), cyclic_leaf(4)))
        fill = FiniteGroup(table.copy())
        assert g.orders.dtype == fill.orders.dtype and np.array_equal(g.orders, fill.orders)
        assert not made
        reps = 2 * fill.orders + 1  # k = 0 .. 2 order(x) for each x
        x = np.repeat(np.arange(g.n), reps)
        k = np.arange(len(x)) - np.repeat(np.cumsum(reps) - reps, reps)
        assert np.array_equal(g.power_at(x, k), fill.powers[x, k % fill.orders[x]])
        subgroups = [fill.cyclic_subgroup(x) for x in range(g.n)]
        assert [g.cyclic_subgroup(x) for x in range(g.n)] == subgroups  # from the leaves
        assert (g.powers.dtype, g.powers.shape) == (fill.powers.dtype, fill.powers.shape)
        assert g.powers.tobytes() == fill.powers.tobytes()
        assert [g.cyclic_subgroup(x) for x in range(g.n)] == subgroups  # from the power table
        assert not made


class TestPowerTable:
    def test_powers_and_its_readers(self, tmp_path):
        groups = [build(s) for s in catalog_up_to(32)]
        groups.append(relabelled_file_group(tmp_path, "product:(dihedral:3)x(cyclic:4)"))
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

    def test_cyclic_membership_on_a_selection(self):
        # M on a selection is the whole M's rows and columns at it, whether
        # the selection is a range lo .. n-1 or not; an element outside
        # range(n) raises IndexOutOfRange and an unsorted or repeated one
        # ValueError, never a wrong matrix.
        g = build(parse_spec("dihedral:6"))
        full = g.cyclic_membership()
        walks = oracle.cyclic_subgroups(g)
        assert full.tolist() == [[e in walk for e in range(g.n)] for walk in walks]
        for sel in ([], [0], [11], [3, 4, 5], list(range(5, 12)), [1, 7, 11], [0, 2, 3, 11]):
            at = np.array(sel, dtype=np.intp)
            assert np.array_equal(g.cyclic_membership(sel), full[np.ix_(at, at)]), sel
        for bad in ([12], [-1], [0, 12], [3, -2]):
            with pytest.raises(IndexOutOfRange):
                g.cyclic_membership(bad)
        for unsorted in ([2, 0], [1, 1], [5, 3, 4], [10, 11, 0]):
            with pytest.raises(ValueError):
                g.cyclic_membership(unsorted)

    def test_readers_match_the_walks_on_the_catalog(self):
        for spec in catalog_up_to(256, False):
            g = build(spec)
            walks = oracle.cyclic_subgroups(g)
            orders = oracle.element_orders(walks)
            abelian = bool((g.table == g.table.T).all())
            histogram = sorted(Counter(orders).items())  # (order, count), ascending
            key = np.array(histogram, dtype=np.intp).T.tobytes()
            assert g.fingerprint() == (g.n, key, abelian), spec
            assert math.lcm(*g.orders.tolist()) == math.lcm(*orders), spec
            for x, walk in enumerate(walks):
                assert g.cyclic_subgroup(x) == walk, (spec, x)
            for p in prime_factors(g.n):
                assert g.subgroups_of_order_p(p) == oracle.subgroups_of_order_p(walks, p), (spec, p)

    def test_fill_keeps_only_the_columns_it_needs(self):
        for spec in ("cyclic:1", "cyclic:6", "cyclic:97", "symmetric:5", "abelian:2,2,2",
                     "product:(dihedral:5)x(cyclic:9)", "gq:32"):
            g = build(parse_spec(spec))
            assert g.powers.shape == (g.n, int(g.orders.max())), spec
            assert g.powers.flags.c_contiguous and g.orders.dtype == np.intp
        # The doubling holds the grown array and one block at a time, so
        # its peak is about twice the result, however long the orders. A
        # catalog cyclic group has closed forms, so the fill is run on its
        # table wrapped alone.
        g = FiniteGroup(build(parse_spec("cyclic:2048")).table)
        tracemalloc.start()
        try:
            g.orders
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.powers.shape == (2048, 2048)
        assert peak <= 2.1 * g.powers.nbytes

    def test_powers_that_never_reach_the_identity(self):
        # Some element's powers never reach 0. Wrapped without validation,
        # every reader of the power table must refuse.
        tables = [
            # Element 1 squares to itself.
            [[0, 1, 2], [1, 1, 0], [2, 0, 2]],
            # {1, 2, 3} is a copy of Z_3 with identity 2, so the powers of 1
            # cycle through 1, 3, 2 while the fill grows to all n = 4 powers.
            [[0, 1, 2, 3], [1, 3, 1, 2], [2, 1, 2, 3], [3, 2, 3, 1]],
        ]
        readers = [
            lambda g: g.orders,
            lambda g: g.order_of(1),
            lambda g: g.powers,
            lambda g: g.cyclic_subgroup_masks(),
            lambda g: g.prime_subgroup_incidence(),
            lambda g: g.cyclic_subgroup(1),
            lambda g: g.subgroups_of_order_p(min(prime_factors(g.n))),
        ]
        for table in tables:
            for read in readers:
                with pytest.raises(CayleyTableError):
                    read(FiniteGroup(np.array(table, dtype=np.int16)))
            # The oracle's walks refuse too, rather than loop or agree.
            for walk in (oracle.cyclic_subgroups, oracle.prime_subgroup_incidence):
                with pytest.raises(ValueError, match="never reach the identity"):
                    walk(FiniteGroup(np.array(table, dtype=np.int16)))
