"""Finite groups as Cayley tables over 0-based element indices.

Every group is an n-by-n multiplication table; element 0 is always the
identity after construction (inputs with the identity elsewhere are
relabelled). All heavy table arithmetic goes through numpy.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

# The largest group order accepted anywhere: catalog specs are refused above
# it before any n^2 table is made, file: tables before any row is parsed, and
# tables handed to validate_and_build before any check.
MAX_GROUP_ORDER = 8192

PERMUTATION_CLOSURE_CAP = 2048

# closure_from_permutations refuses a degree and cap whose closure could hold
# more entries than this (cap permutations of degree points each) before it
# makes any of them.
PERMUTATION_CLOSURE_ENTRIES = 1 << 24

# Light's test compares this many rows of the table at a time, so its working
# memory is O(n * ASSOCIATIVITY_BAND) entries.
ASSOCIATIVITY_BAND = 256

# cyclic_membership scatters the power table's rows, and _permutation_table
# takes its rows from the table, this many entries at a time, so their
# working memory beyond the result is O(MEMBERSHIP_BAND_CELLS) indices.
MEMBERSHIP_BAND_CELLS = 1 << 16

# The only bytes a table body may hold for parse_cayley_table to read it in
# one np.loadtxt call.
_TABLE_CHARS = b"0123456789+- \t"


class CayleyTableError(ValueError):
    """A table failed validation as a group multiplication table."""


class NotClosed(CayleyTableError):
    def __init__(self, row: int, col: int, value: int, order: int):
        self.witness = (row, col, value)
        super().__init__(
            f"entry table[{row}][{col}] = {value} is outside [0, {order})"
        )


class NoIdentity(CayleyTableError):
    def __init__(self):
        super().__init__("no two-sided identity element found")


class NoInverse(CayleyTableError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotAssociative(CayleyTableError):
    def __init__(self, a: int, b: int, c: int):
        self.witness = (a, b, c)
        super().__init__(f"(a*b)*c != a*(b*c) for (a, b, c) = ({a}, {b}, {c})")


class IndexOutOfRange(IndexError):
    def __init__(self, index: int, order: int):
        super().__init__(f"element index {index} out of range [0, {order})")


class NotPrime(ValueError):
    def __init__(self, p: int):
        super().__init__(f"{p} is not prime")


class NotAPermutation(ValueError):
    pass


class OrderCapExceeded(ValueError):
    def __init__(self, cap: int, degree: Optional[int] = None):
        if degree is None:
            super().__init__(f"generated group exceeds the order cap {cap}")
        else:
            super().__init__(
                f"a closure of degree {degree} under the order cap {cap} could hold "
                f"{degree * cap} permutation entries, more than {PERMUTATION_CLOSURE_ENTRIES}")


def _table_dtype(n: int) -> type:
    return np.int16 if n <= 2**15 - 1 else np.int32


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}; {} for n = 1."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


CYCLIC_LEAF, INVERTING_LEAF, TABLE_LEAF = "cyclic", "inverting", "table"

# A cyclic grid is written this many entries at a time, so its working memory
# past the result is O(FACTS_BAND).
FACTS_BAND = 1 << 16


class Leaf(NamedTuple):
    """One digit of a group's mixed radix (FiniteGroup.leaves), of `size`
    elements. Its kind says how x^k is read at a digit x:
    - CYCLIC_LEAF, Z_m: x k mod m;
    - INVERTING_LEAF, Z_m<b> with b inverting and b^2 = a^t, indexed a^j b^i
      = i m + j: the rotations are Z_m, and since (a^j b)^2 = a^t, a
      reflection's k = 2q + r -th power is the rotation t q mod m for r = 0
      and the reflection a^(j + t q) b for r = 1;
    - TABLE_LEAF, `group`: its power table, powers[x, k mod order(x)].
    `orders` are the digits' element orders, made once with a cyclic or
    inverting leaf by cyclic_leaf and inverting_leaf, so every group that
    holds the leaf (a factor and its products) reads the one vector; a table
    leaf reads its group's orders.
    """

    kind: str
    size: int
    m: int = 0
    t: int = 0
    group: Optional["FiniteGroup"] = None
    orders: Optional[np.ndarray] = None


def _cyclic_orders(m: int) -> np.ndarray:
    return m // np.gcd(np.arange(m), m)  # order(x) = m / gcd(x, m) in Z_m


def cyclic_leaf(m: int) -> Leaf:
    orders = _cyclic_orders(m)
    orders.setflags(write=False)
    return Leaf(CYCLIC_LEAF, m, m, orders=orders)


def inverting_leaf(m: int, t: int) -> Leaf:
    # b commutes with b^2 = a^t and inverts it, so 2t = 0 mod m: t is 0 or
    # m/2, and a reflection has order 2 or 4.
    orders = np.concatenate([_cyclic_orders(m), np.full(m, 2 if t == 0 else 4)])
    orders.setflags(write=False)
    return Leaf(INVERTING_LEAF, 2 * m, m, t, orders=orders)


class FiniteGroup:
    """Immutable finite group; element 0 is the identity.

    The constructor wraps the table without checking it, so it is only for
    tables that are groups by construction (catalog families, products,
    permutation closures). Tables from outside go through validate_and_build.

    `table` is the Cayley table, or a function that makes it; then `order`
    is required, and the table is made on its first read. `leaves`, when
    given, is a function that makes the group as a mixed radix of Leaf
    digits, the last fastest, on its first read. The leaves are the group's
    only closed form: the element orders are the lcm fold of the leaves'
    order vectors, point reads (power_at, GroupBatch) compute x^k digit by
    digit, and the power table, made only when something reads it whole, is
    the outer sum of the leaves' power grids at their radix weights. So a
    group whose facts are all a reader wants never has a table. Without
    leaves, orders and powers are filled from the table in one pass, and
    the group is one table leaf, whose point reads read that fill.
    `abelian`, when given, is what is_abelian returns. The catalog builds
    its groups this way.
    """

    __slots__ = ("n", "_table", "_make_table", "_make_leaves",
                 "_inverses", "_orders", "_abelian", "_prime_incidence", "_powers", "_leaves")

    identity = 0

    def __init__(self, table: np.ndarray | Callable[[], np.ndarray], *,
                 order: Optional[int] = None,
                 leaves: Optional[Callable[[], tuple[Leaf, ...]]] = None,
                 abelian: Optional[bool] = None):
        if callable(table):
            self.n, self._table, self._make_table = order, None, table
        else:
            table.setflags(write=False)
            self.n, self._table, self._make_table = table.shape[0], table, None
        self._make_leaves = leaves
        self._abelian = abelian
        self._leaves: Optional[tuple[Leaf, ...]] = None
        self._inverses: Optional[np.ndarray] = None
        self._powers: Optional[np.ndarray] = None
        self._orders: Optional[np.ndarray] = None
        self._prime_incidence: Optional[np.ndarray] = None

    @property
    def table(self) -> np.ndarray:
        """Read-only n x n Cayley table, made on the first read if it was not given."""
        if self._table is None:
            table = self._make_table()
            table.setflags(write=False)
            self._table = table
        return self._table

    @property
    def inverses(self) -> np.ndarray:
        """inverses[g] = g^-1, read off the table on the first read."""
        if self._inverses is None:
            table = self.table
            self._inverses = np.argmax(table == 0, axis=1).astype(table.dtype)
        return self._inverses

    def __repr__(self):
        return f"FiniteGroup(order={self.n})"

    def _check_index(self, g: int) -> None:
        if not 0 <= g < self.n:
            raise IndexOutOfRange(g, self.n)

    def mul(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        self._check_index(a)
        return int(self.inverses[a])

    def elements(self) -> range:
        return range(self.n)

    @property
    def powers(self) -> np.ndarray:
        """Read-only n x L array with powers[g, k] = g^k, L the largest
        element order (so never larger than the table). Row g runs through
        <g> and wraps: powers[g, k] = g^(k mod order(g)). Made on the first
        read, for readers of whole rows (cyclic_membership, so P(G), and a
        table leaf's point reads): from the leaves when given, one grid per
        leaf (_leaf_grid) added at its radix weight, else by the table's
        doubling fill. power_at reads single powers without it."""
        if self._powers is None:
            self._fill_powers()
        return self._powers

    @property
    def orders(self) -> np.ndarray:
        """Orders of all elements (intp): from the leaves when given, an
        outer lcm of their order vectors, else recorded by the table's power
        fill."""
        if self._orders is None:
            if self._make_leaves is None:
                self._fill_powers()
            else:
                vectors = [leaf.orders if leaf.group is None else leaf.group.orders
                           for leaf in self.leaves]
                self._orders = reduce(lambda o, v: np.lcm.outer(o, v).ravel(), vectors[1:], vectors[0])
        return self._orders

    def _fill_powers(self) -> None:
        if self._make_leaves is None:
            orders, powers = self._doubling_fill()
        else:
            orders, leaves = self.orders, self.leaves
            width, dtype = int(orders.max()), _table_dtype(self.n)
            if len(leaves) == 1:
                powers = _leaf_grid(leaves[0], width, dtype)
            else:  # one pass over the result per leaf
                powers = np.zeros((self.n, width), dtype=dtype)
                digits = powers.reshape(*(leaf.size for leaf in leaves), width)
                weight = self.n
                for axis, leaf in enumerate(leaves):
                    weight //= leaf.size
                    grid = _leaf_grid(leaf, width, dtype)
                    grid *= weight
                    digits += grid.reshape(leaf.size, *(1,) * (len(leaves) - axis - 1), width)
        powers.setflags(write=False)
        # Each property tests its own attribute, so a concurrent reader never gets None.
        self._orders = orders
        self._powers = powers

    @property
    def leaves(self) -> tuple[Leaf, ...]:
        """The group's mixed radix of Leaf digits, from the leaves function
        on the first read, else the group as one table leaf (made on each
        read, so that the group holds no reference to itself)."""
        if self._leaves is None:
            if self._make_leaves is None:
                return (Leaf(TABLE_LEAF, self.n, group=self),)
            self._leaves = self._make_leaves()
        return self._leaves

    def power_at(self, x, k) -> np.ndarray:
        """x^k as an intp array, for an array of elements x and an array of
        exponents 0 <= k < 2^40 that broadcast together (a leaf may form
        x k in intp). The leaf evaluator of GroupBatch on this group alone,
        so a group with closed-form leaves makes no power table."""
        x, k = np.asarray(x, dtype=np.intp), np.asarray(k, dtype=np.intp)
        return _leaf_power([self], None, x, k)

    def _doubling_fill(self) -> tuple[np.ndarray, np.ndarray]:
        # Doubling, built transposed (row k holds g^k for every g, so each
        # block's search for the identity runs down contiguous rows): with
        # rows g^0 .. g^(k-1) filled, block [k, 2k) is table[g^k, g^j] for
        # j < k, so L rows take log2(L) steps. The height stops at n, the
        # most a group needs; order(g), the least k >= 1 with g^k = 0, is
        # read off each block as it is filled.
        n, table = self.n, self.table
        cols = np.arange(n)
        by_power = np.zeros((1, n), dtype=table.dtype)
        top = cols.astype(table.dtype)  # g^k, k = len(by_power)
        orders = (top == 0).astype(np.intp)  # 0 until found
        while not orders.all():
            k = len(by_power)
            if k == n:  # possible only for a table that is no group
                raise CayleyTableError("some element's powers never reach the identity")
            height = min(2 * k, n)
            grown = np.empty((height, n), dtype=table.dtype)
            grown[:k] = by_power
            by_power = grown  # drops the old array before the block's temporary is made
            by_power[k:] = table[top, by_power[:height - k]]
            first = k + (by_power[k:] == 0).argmax(axis=0)
            found = (orders == 0) & (by_power[first, cols] == 0)
            orders[found] = first[found]
            top = table[by_power[-1], cols]
            orders[(orders == 0) & (top == 0)] = height
        return orders, by_power[:orders.max()].T.copy()

    def order_of(self, g: int) -> int:
        """Smallest k >= 1 with g^k = identity; divides the group order."""
        self._check_index(g)
        return int(self.orders[g])

    @property
    def is_abelian(self) -> bool:
        """The `abelian` flag given at construction, else read off the table."""
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def cyclic_subgroup(self, g: int) -> list[int]:
        """<g> as a sorted list; its size equals order_of(g).

        Read off g's row of the power table when that table exists (a table
        group's, or one that P(G) made). Otherwise read from g's digits in
        the leaves by plain integer arithmetic, with no numpy call and no
        power table: <g> is its one nonzero digit's cyclic subgroup in that
        leaf, at the leaf's radix weight, or else the sums, term by term,
        of its nonzero digits' power cycles, each repeated to order_of(g)
        terms."""
        self._check_index(g)
        if self._powers is not None:
            return sorted(self._powers[g, :self.orders[g]].tolist())
        terms = first = None  # the powers so far, from the second nonzero digit on
        weight = 1
        for leaf in reversed(self.leaves):
            g, digit = divmod(g, leaf.size)
            if digit:
                if first is None:
                    first = (leaf, digit, weight)
                else:
                    if terms is None:
                        terms = _leaf_cycle(*first)
                    cycle = _leaf_cycle(leaf, digit, weight)
                    if len(terms) % len(cycle):  # repeat terms to the lcm of the two lengths
                        terms *= len(cycle) // math.gcd(len(terms), len(cycle))
                    terms = list(map(operator.add, terms, cycle * (len(terms) // len(cycle))))
            weight *= leaf.size
        if terms is None:
            return _leaf_subgroup(*first) if first else [0]
        return sorted(terms)

    def cyclic_membership(self, elements: Optional[Sequence[int]] = None) -> np.ndarray:
        """Boolean matrix M with M[i, j] true iff elements[j] is in
        <elements[i]>, for strictly ascending `elements` in range(n); by
        default all of them, so M[g, e] iff e is in <g>. Raises
        IndexOutOfRange for an element outside range(n) and ValueError if
        `elements` is not strictly ascending.

        Only the selected rows are made, at their final size, with no n x n
        matrix to gather from: each power goes through a column map to its
        selected column, and a power outside `elements` to one spare
        column, left off the result. The power table's rows are scattered
        by ascending element order, MEMBERSHIP_BAND_CELLS entries at a time,
        each band only up to its largest order (a row wraps after its
        element's order).
        """
        n, powers, orders = self.n, self.powers, self.orders
        rows = np.arange(n) if elements is None else np.asarray(elements, dtype=np.intp).reshape(-1)
        k = len(rows)
        if k:
            bad = rows[(rows < 0) | (rows >= n)]
            if len(bad):
                raise IndexOutOfRange(int(bad[0]), n)
            if (np.diff(rows) <= 0).any():
                raise ValueError("cyclic_membership needs strictly ascending elements")
        column, width = np.full(n, k, dtype=np.intp), k + 1
        column[rows] = np.arange(k)
        member = np.zeros((k, width), dtype=bool)
        flat = member.reshape(-1)
        by_order = np.argsort(orders[rows], kind="stable")
        sorted_orders = orders[rows[by_order]].tolist()
        lo = 0
        while lo < k:
            # At most MEMBERSHIP_BAND_CELLS entries: as many rows as fit at
            # the order of the row that many rows on, the band's widest.
            reach = sorted_orders[min(k, lo + max(1, MEMBERSHIP_BAND_CELLS // sorted_orders[lo])) - 1]
            hi = min(k, lo + max(1, MEMBERSHIP_BAND_CELLS // reach))
            at = by_order[lo:hi]
            got = column[powers[rows[at], :sorted_orders[hi - 1]]]
            got += (at * width)[:, None]
            flat[got.ravel()] = True
            lo = hi
        return member[:, :k]

    def cyclic_subgroup_masks(self) -> list[int]:
        """Bitmask of <g> for every g; mask bit e set iff e is a power of g.

        Uncached and unused by gpgraph itself; it stays until perfbench/
        stops tracing it as an entry point."""
        packed = np.packbits(self.cyclic_membership(), axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    def prime_subgroup_incidence(self) -> np.ndarray:
        """Which subgroups of prime order each element's cyclic subgroup contains.

        Row g, column j is the id of the subgroup <g^(m/p)> of order p,
        where m is the order of g and p the j-th smallest prime dividing the
        group order; it is -1 when p does not divide m. A subgroup's id is
        its least non-identity element. Read-only, n x omega(n). This is
        GroupBatch.prime_subgroup_incidence on a batch of this group alone.

        <x> and <y> meet non-trivially iff their rows share an id: a
        non-trivial intersection is a cyclic group, so it has a subgroup of
        prime order, and <x> has exactly one subgroup of each order p | m.

        The ids come from one cycle per subgroup. For y of prime order p
        and r a primitive root mod p, y -> y^r sends y^k to y^(kr), and k
        -> kr mod p runs through all of 1..p-1, so the p - 1 generators of
        <y>, its non-identity elements, form one cycle of that map. The id
        is the least label on the cycle, which min-label pointer doubling
        finds in ceil(log2(p - 1)) rounds with one power read per element.
        """
        if self._prime_incidence is None:
            inc = GroupBatch([self]).prime_subgroup_incidence()
            inc.setflags(write=False)
            self._prime_incidence = inc
        return self._prime_incidence

    def subgroups_of_order_p(self, p: int) -> list[tuple[int, ...]]:
        """All distinct subgroups of order p, as sorted element tuples, in
        ascending order.

        Every one is <h> for each of its p - 1 elements h of order p, and
        each of those has the subgroup's id (its least non-identity element)
        in the incidence column of p. So the elements of order p, grouped by
        that id, are the subgroups without their identity, and no power is
        read.
        """
        if not is_prime(p):
            raise NotPrime(p)
        if self.n % p:
            return []
        column = sorted(prime_factors(self.n)).index(p)
        hs = np.flatnonzero(self.orders == p)
        ids = self.prime_subgroup_incidence()[hs, column]
        # A stable sort keeps each subgroup's elements ascending, so its
        # first is its id, and the ids ascend.
        members = hs[np.argsort(ids, kind="stable")].reshape(-1, p - 1)
        return [(0, *row) for row in members.tolist()]

    def fingerprint(self) -> tuple[int, bytes, bool]:
        """(order, element-order histogram, abelian flag).

        The histogram is its nonzero entries as bytes: the orders that occur,
        ascending, then how many elements have each, as intp. So it is the
        element-order multiset in one small key, read off the orders alone.
        Not an isomorphism test; used only to dedupe the catalog.
        """
        counts = np.bincount(self.orders)
        present = counts.nonzero()[0]
        return (self.n, present.tobytes() + counts[present].tobytes(), self.is_abelian)


@lru_cache(maxsize=1 << 10)  # every batch asks again for the roots of the same few primes
def primitive_root(p: int) -> int:
    """The least r in 1..p-1 whose powers mod the prime p run through all
    of 1..p-1: r^((p-1)/q) != 1 for every prime q dividing p - 1. 1 for p = 2."""
    factors = prime_factors(p - 1)
    return next(r for r in range(1, p) if all(pow(r, (p - 1) // q, p) != 1 for q in factors))


class GroupBatch:
    """Several groups side by side, for the facts that are read off all of
    their element orders at once.

    Batch element i is element local[i] of group group[i], so group g holds
    batch elements starts[g] .. starts[g] + sizes[g] - 1, and `orders`
    concatenates the groups' element orders. The element-order histograms
    are kept as their nonzero entries, ascending by group and then by
    order: group hist_group[k] has hist_count[k] elements of order
    hist_order[k], and batch element i is counted in entry entry[i]. Every
    group has an entry for order 1, its identity. `primes` lists the prime
    orders present, ascending; root_of[m] is primitive_root(m) for each of
    them, and 0 at every other m up to the largest order.

    Powers are read from the groups' leaves (FiniteGroup.leaves): the
    groups of one leaf shape, the tuple of their leaf kinds, are read
    together in one pass of _leaf_power, with the leaf parameters as
    per-row arrays. FiniteGroup.power_at is that pass on one group.
    """

    def __init__(self, groups: Sequence[FiniteGroup]):
        self.groups = groups
        self.sizes = sizes = np.array([g.n for g in groups], dtype=np.intp)
        self.starts = starts = sizes.cumsum() - sizes
        self.orders = orders = np.concatenate([g.orders for g in groups])
        self.group = group = np.repeat(np.arange(len(groups)), sizes)
        base = starts[group]
        self.local = np.arange(len(orders)) - base
        # One bincount slot per order 0..n of each group, group g's from
        # starts[g] + g on; no element fills a slot of order 0.
        slots = orders + base + group
        counts = np.bincount(slots)
        filled = counts.nonzero()[0]
        self.entry = entry = filled.searchsorted(slots)
        self.hist_group = np.empty(len(filled), dtype=np.intp)
        self.hist_group[entry] = group
        self.hist_order = np.empty(len(filled), dtype=np.intp)
        self.hist_order[entry] = orders
        self.hist_count = counts[filled]
        distinct = np.bincount(self.hist_order).nonzero()[0].tolist()
        self.primes = [m for m in distinct if is_prime(m)]
        self.root_of = np.zeros(distinct[-1] + 1, dtype=np.intp)
        self.root_of[self.primes] = [primitive_root(p) for p in self.primes]

    def prime_subgroup_incidence(self) -> np.ndarray:
        """Every group's FiniteGroup.prime_subgroup_incidence, stacked: row i
        is batch element i's row, padded with -1 to the most columns any
        group has. The powers are read at just the elements and exponents
        wanted, in one leaf evaluator pass per leaf shape (_leaf_power), so
        the groups of one shape are read together."""
        # By Cauchy's theorem the primes dividing a group's order are the
        # prime orders of its elements; column j of a group is its j-th.
        prime = self.root_of[self.hist_order] > 0
        prime_group, prime_order = self.hist_group[prime], self.hist_order[prime]
        column = np.arange(len(prime_group)) - prime_group.searchsorted(prime_group)
        group_primes = np.full((len(self.groups), int(column.max(initial=-1)) + 1),
                               len(self.root_of))  # divides no order
        group_primes[prime_group, column] = prime_order
        # The power that column j of an element x of order m reads, for the
        # j-th prime p of its group: h = x^(m/p), of order p, when p divides
        # m, and none (0) otherwise. When m = p, x^r for the primitive root
        # r mod p, the next generator after x on the cycle of <x>: its label
        # is x's, and it is x's only read, so it is x's pointer.
        order = self.hist_order[:, None]
        quotient, rest = np.divmod(order, group_primes[self.hist_group])
        exps = quotient * (rest == 0)
        exps = np.where(exps == 1, self.root_of[order], exps).take(self.entry, axis=0)
        shape, wanted = exps.shape, exps.ravel().nonzero()[0]
        elem, exps = wanted // shape[1], exps.ravel()[wanted]
        rows = self.local[elem]
        got = np.empty(len(elem), dtype=np.intp)
        for members, sel, at in self._by_leaf_shape(self.group[elem]):
            got[sel] = _leaf_power(members, at, rows[sel], exps[sel])
        got += elem - rows  # as batch elements
        # Min-label pointer doubling: after r rounds label[y] is the least
        # of y and the next 2^r - 1 generators on its cycle, and the cycle
        # of <y> has p - 1 <= 2^r of them. An element of composite order
        # points where one of its reads went; nothing points to it, and its
        # label is never read.
        nxt = np.arange(len(self.orders))
        nxt[elem] = got
        label = self.local
        for _ in range((max(self.primes, default=2) - 2).bit_length()):
            label = np.minimum(label, label[nxt])
            nxt = nxt[nxt]
        inc = np.full(shape, -1, dtype=_table_dtype(int(self.sizes.max())))
        inc.ravel()[wanted] = label[got]
        return inc

    def _by_leaf_shape(self, group: np.ndarray):
        """For the rows of groups `group` (ascending), each leaf shape's
        (member groups, its rows, each row's index among the members, or
        None for one member)."""
        shapes: dict[tuple[str, ...], list[int]] = {}
        for g, member in enumerate(self.groups):
            shapes.setdefault(tuple([leaf.kind for leaf in member.leaves]), []).append(g)
        if len(shapes) == 1:
            (members,) = shapes.values()
            yield self.groups, slice(None), None if len(members) == 1 else group
            return
        shape_of = np.empty(len(self.groups), dtype=np.intp)
        slot = np.empty(len(self.groups), dtype=np.intp)
        for s, members in enumerate(shapes.values()):
            shape_of[members] = s
            slot[members] = np.arange(len(members))
        row_shape = shape_of[group]
        by_shape = np.argsort(row_shape, kind="stable")
        bounds = row_shape[by_shape].searchsorted(np.arange(len(shapes) + 1)).tolist()
        for members, lo, hi in zip(shapes.values(), bounds, bounds[1:]):
            sel = by_shape[lo:hi]
            yield ([self.groups[g] for g in members], sel,
                   None if len(members) == 1 else slot[group[sel]])


def _leaf_power(groups: Sequence[FiniteGroup], at: Optional[np.ndarray],
                x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x^k as intp, for groups of one leaf shape: x is an element of
    groups[at], row by row (of groups[0] when `at` is None), and k an
    exponent. The digits are read from the last leaf, the fastest, each
    leaf's parameters as per-row arrays (scalars for one group), and each
    digit's power is added back at its radix weight."""
    def per_row(values):
        return values[0] if at is None else np.array(values)[at]

    columns = list(zip(*(g.leaves for g in groups)))  # the j-th leaf of every group
    power, weight = None, 1
    for j in range(len(columns) - 1, -1, -1):
        leaves = columns[j]
        size = per_row([leaf.size for leaf in leaves])
        x, digit = np.divmod(x, size) if j else (None, x)  # the first digit is what is left
        kind = leaves[0].kind
        if kind == CYCLIC_LEAF:
            got = digit * k % size
        elif kind == INVERTING_LEAF:
            m, t = per_row([leaf.m for leaf in leaves]), per_row([leaf.t for leaf in leaves])
            s = (k >> 1) * t % m  # k >= 0, so k >> 1 is k // 2 and k & 1 is k mod 2
            got = np.where(digit < m, digit * k % m, np.where(k & 1 == 1, (digit + s) % m + m, s))
        else:
            tables = list({id(leaf.group): leaf.group for leaf in leaves}.values())
            powers, orders = tables[0].powers, tables[0].orders
            if len(tables) > 1:  # the tables' rows one after another, padded to the widest
                starts = np.cumsum([0] + [g.n for g in tables]).tolist()
                powers = np.zeros((starts[-1], max(g.powers.shape[1] for g in tables)), dtype=np.intp)
                for g, lo in zip(tables, starts):
                    powers[lo:lo + g.n, :g.powers.shape[1]] = g.powers
                orders = np.concatenate([g.orders for g in tables])
                first = {id(g): lo for g, lo in zip(tables, starts)}
                digit = digit + per_row([first[id(leaf.group)] for leaf in leaves])
            got = powers[digit, k % orders[digit]].astype(np.intp)
        power = got if power is None else power + got * weight
        weight = weight * size
    return power


def _leaf_grid(leaf: Leaf, width: int, dtype: type) -> np.ndarray:
    """A new (size, width) array of the leaf's powers, grid[x, k] = x^k for
    k < width, in `dtype`: x k mod m for Z_m and an inverting leaf's
    rotations, each reflection's 2- or 4-cycle (Leaf) repeated, and a table
    leaf's powers[x, k mod order(x)]."""
    if leaf.kind == TABLE_LEAF:
        g = leaf.group
        k = np.arange(width, dtype=dtype) % g.orders[:, None].astype(dtype)
        return g.powers[np.arange(g.n)[:, None], k].astype(dtype, copy=False)
    m, t = leaf.m, leaf.t
    grid = np.empty((leaf.size, width), dtype=dtype)
    _fill_cyclic_powers(grid[:m])
    if leaf.kind == INVERTING_LEAF:  # a^x b: 1, a^x b, a^t, a^(x + t) b, then again
        x = np.arange(m, dtype=dtype)
        cycle = np.stack([np.zeros_like(x), m + x, np.full_like(x, t), m + (x + t) % m], axis=1)
        period = 2 if t == 0 else 4
        np.take(cycle[:, :period], np.arange(width) % period, axis=1, out=grid[m:], mode="clip")
    return grid


def _fill_cyclic_powers(out: np.ndarray) -> None:
    """out[x, k] = x k mod m for every entry of the (m, width) array `out`,
    in bands of rows. The product x k can pass int16, so it is formed in
    int32, and reduced as x k - (x k // m) m: numpy divides by a scalar
    several times faster than it takes a remainder."""
    m, width = out.shape
    k = np.arange(width, dtype=np.int32)
    rows = max(1, FACTS_BAND // width)
    for lo in range(0, m, rows):
        xk = np.multiply.outer(np.arange(lo, min(lo + rows, m), dtype=np.int32), k)
        q = xk // m
        q *= m
        np.subtract(xk, q, out=out[lo:lo + rows], casting="unsafe")


def _leaf_cycle(leaf: Leaf, digit: int, weight: int) -> list[int]:
    """digit^k * weight for k = 0 .. order(digit) - 1, for a nonzero digit,
    by the leaf's integer arithmetic (Leaf); the scalar twin of a
    _leaf_power digit."""
    kind, _, m, t, table, _ = leaf
    if kind != TABLE_LEAF and digit < m:  # Z_m, or the rotations of an inverting leaf
        if m % digit == 0:  # then d k mod m is d k
            return list(range(0, m * weight, digit * weight))
        return [digit * k % m * weight for k in range(m // math.gcd(digit, m))]
    if kind == INVERTING_LEAF:  # the reflection a^j b: the rotation t q, then a^(j + t q) b
        return [p * weight for q in range(m // math.gcd(t, m))
                for p in (t * q % m, (digit + t * q) % m + m)]
    return [p * weight for p in table.powers[digit, :table.orders[digit]].tolist()]


def _leaf_subgroup(leaf: Leaf, digit: int, weight: int) -> list[int]:
    """sorted(_leaf_cycle(leaf, digit, weight)). In Z_m, <d> is the
    multiples of gcd(d, m); a reflection a^j b generates the rotations by
    multiples of s = gcd(t, m) and the reflections a^i b with i = j mod s."""
    kind, _, m, t, _, _ = leaf
    if kind != TABLE_LEAF and digit < m:
        return list(range(0, m * weight, math.gcd(digit, m) * weight))
    if kind == INVERTING_LEAF:
        s = math.gcd(t, m)  # divides m, so digit = m + j is j mod s
        return [*range(0, m * weight, s * weight),
                *range((m + digit % s) * weight, 2 * m * weight, s * weight)]
    return sorted(_leaf_cycle(leaf, digit, weight))


def _generating_set(table: np.ndarray) -> list[int]:
    """Greedy generating set of the magma, whose two-sided identity is 0.

    The reached set starts at the identity. Each round right-multiplies only
    the newly reached elements, by the generators and by one of themselves;
    that one keeps the number of rounds logarithmic in the order of a cyclic
    generator. When the set stalls, the least unreached element is adjoined
    as a generator, together with every reached element times it. Every
    reached element but the identity is a product of generators, and the
    identity associates in the middle of any triple, so Light's test is
    complete with these generators on any table. Working memory is
    O(n * |gens|).
    """
    n = table.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    fresh = np.zeros(n, dtype=bool)  # marks a round's new elements, ascending
    gens: list[int] = []
    while not reached.all():
        g = int(np.argmin(reached))
        gens.append(g)
        frontier = table[np.flatnonzero(reached), g]  # holds 0 * g = g
        while len(frontier):
            fresh[frontier[~reached[frontier]]] = True
            frontier = np.flatnonzero(fresh)
            fresh[frontier] = False
            reached[frontier] = True
            frontier = table[frontier[:, None], gens + frontier[:1].tolist()].ravel()
    return gens


def _check_associativity(table: np.ndarray) -> None:
    """Full associativity check via Light's test.

    It suffices to check triples whose middle element lies in a generating
    set: the elements that associate in the middle position form a closed
    submagma. O(n^2 * |gens|) instead of the naive O(n^3). Rows are
    compared ASSOCIATIVITY_BAND at a time.
    """
    for s in _generating_set(table):
        s_times = table[s]
        for lo in range(0, table.shape[0], ASSOCIATIVITY_BAND):
            rows = table[lo:lo + ASSOCIATIVITY_BAND]
            differ = table[rows[:, s], :] != rows[:, s_times]  # (a*s)*c != a*(s*c)
            if differ.any():
                a, c = (int(v) for v in np.argwhere(differ)[0])
                raise NotAssociative(lo + a, s, c)


def validate_and_build(table) -> FiniteGroup:
    """Validate a Cayley table in full and wrap it as a FiniteGroup.

    Checks the order cap, closure, a two-sided identity (relabelled to
    index 0 if needed), two-sided inverses and associativity (Light's test).
    The table is copied; the caller's array is left as it is.
    """
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise CayleyTableError(f"table must be a square n x n array, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise CayleyTableError("table entries must be integers")
    n = arr.shape[0]
    if n > MAX_GROUP_ORDER:
        raise CayleyTableError(f"order {n} exceeds the cap {MAX_GROUP_ORDER}")
    # Range first: the cast below would wrap entries off by a multiple of
    # 2^16, and the relabel would index past its value map.
    if arr.min() < 0 or arr.max() >= n:
        r, c = (int(v) for v in np.argwhere((arr < 0) | (arr >= n))[0])
        raise NotClosed(r, c, int(arr[r, c]), n)

    idx = np.arange(n)
    # A two-sided identity e has e * 0 = 0 * e = 0, so only those rows are
    # compared in full, ascending.
    candidates = np.flatnonzero((arr[:, 0] == 0) & (arr[0] == 0)).tolist()
    identity = next((e for e in candidates if (arr[e] == idx).all() and (arr[:, e] == idx).all()), -1)
    if identity < 0:
        raise NoIdentity()

    if identity == 0:
        arr = arr.astype(_table_dtype(n), copy=True)
    else:
        # Swap the names 0 and e = identity: new[i, j] = perm[old[perm[i],
        # perm[j]]] for the involution perm, so map the values, which makes
        # the copy in the table's dtype, then swap rows and columns 0 and e.
        perm = idx.astype(_table_dtype(n))
        perm[0], perm[identity] = identity, 0
        arr = perm[arr]
        arr[[0, identity]] = arr[[identity, 0]]
        arr[:, [0, identity]] = arr[:, [identity, 0]]
    group = FiniteGroup(arr)
    inv = group.inverses
    right_ok = arr[idx, inv] == 0
    left_ok = arr[inv, idx] == 0
    if not (right_ok & left_ok).all():
        raise NoInverse(int(np.nonzero(~(right_ok & left_ok))[0][0]))
    _check_associativity(arr)
    return group


def closure_from_permutations(
    degree: int,
    generators: Iterable[Sequence[int]],
    *,
    cap: int = PERMUTATION_CLOSURE_CAP,
) -> FiniteGroup:
    """Group generated by permutations of [0, degree), as a Cayley table.

    Elements are indexed in discovery order with the identity at index 0.
    Raises OrderCapExceeded once more than `cap` elements are discovered
    (the table alone is O(cap^2) memory), and before any work when `cap`
    permutations of `degree` points would pass PERMUTATION_CLOSURE_ENTRIES.
    """
    if degree * cap > PERMUTATION_CLOSURE_ENTRIES:
        raise OrderCapExceeded(cap, degree)
    gens = [tuple(int(x) for x in g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise NotAPermutation(f"{g} is not a permutation of [0, {degree})")

    ident = tuple(range(degree))
    elems: list[tuple[int, ...]] = [ident]
    index: dict[tuple[int, ...], int] = {ident: 0}
    i = 0
    while i < len(elems):
        p = elems[i]
        i += 1
        for g in gens:
            q = tuple(p[g[x]] for x in range(degree))
            if q not in index:
                if len(elems) >= cap:
                    raise OrderCapExceeded(cap)
                index[q] = len(elems)
                elems.append(q)

    perms = np.array(elems, dtype=_table_dtype(max(len(elems), degree)))
    return FiniteGroup(_permutation_table(perms))


def _permutation_table(perms: np.ndarray) -> np.ndarray:
    """Cayley table of the permutations in the rows of `perms` under
    composition: table[a, b] is the row index of perms[a] o perms[b].

    Only the rows of a greedy generating set, picked as _generating_set
    picks them, are looked up among the sorted rows (each row one np.void
    key, one searchsorted per looked-up row). Every other row follows from
    row(a o g) = row(a)[row(g)] along a breadth-first search from the
    identity, as flat takes from the table, MEMBERSHIP_BAND_CELLS indices at
    a time. The looked-up rows are where closure is checked: when each
    generator maps the rows into the rows, so does every product of
    generators, which is every row. Raises CayleyTableError when the rows
    are not closed under composition.
    """
    n = len(perms)
    # No void key has width 0: the empty permutation stands in as the
    # identity on one point.
    perms = np.ascontiguousarray(perms if perms.shape[1] else np.zeros((n, 1), perms.dtype))
    key = np.dtype((np.void, perms.itemsize * perms.shape[1]))
    by_key = np.argsort(perms.view(key).ravel())
    keys = perms[by_key].view(key).ravel()
    identity = np.flatnonzero((perms == np.arange(perms.shape[1])).all(axis=1))
    if not len(identity):  # a closed set holds the powers of its rows, the identity among them
        raise CayleyTableError("the identity permutation is outside the rows")
    table = np.empty((n, n), dtype=_table_dtype(n))
    flat = table.reshape(-1)
    table[identity[0]] = np.arange(n)
    reached = np.zeros(n, dtype=bool)
    reached[identity[0]] = True
    fresh = np.zeros(n, dtype=bool)
    pair = np.empty(n, dtype=np.intp)  # pair[x]: a position of x in the round's products
    band = max(1, MEMBERSHIP_BAND_CELLS // n)
    gens: list[int] = []
    while not reached.all():
        g = int(np.argmin(reached))
        comp = perms[g][perms].view(key).ravel()  # row j is perms[g] o perms[j]
        at = np.minimum(np.searchsorted(keys, comp), n - 1)
        missing = np.nonzero(keys[at] != comp)[0]
        if len(missing):
            raise CayleyTableError(
                f"rows {g} and {int(missing[0])} compose to a permutation outside the rows")
        table[g] = by_key[at]
        gens.append(g)
        # As in _generating_set: reached elements times the new generator,
        # then each round's new elements times every generator and times
        # one of themselves.
        src = np.flatnonzero(reached)
        by = np.full(len(src), g)
        while len(src):
            prod = table[src, by]
            fresh[prod[~reached[prod]]] = True  # as in _generating_set
            new = np.flatnonzero(fresh)
            fresh[new] = False
            pair[prod] = np.arange(len(prod))  # any product of x gives x's row
            first = pair[new]
            for lo in range(0, len(new), band):  # row new = row(src)[row(by)]
                cut = first[lo:lo + band]
                cells = table[by[cut]].astype(np.intp)
                cells += (src[cut] * n)[:, None]
                table[new[lo:lo + band]] = flat.take(cells)
            reached[new] = True
            right = np.array(gens + new[:1].tolist())
            src, by = np.repeat(new, len(right)), np.tile(right, len(new))
    return table


# ---------------------------------------------------------------------------
# Cayley table text format: first non-comment line is n, then n rows of n
# whitespace-separated 0-based indices ('#' starts a comment line). The
# identity need not be index 0 in a file; loading relabels.
# ---------------------------------------------------------------------------


def parse_cayley_table(text: str) -> FiniteGroup:
    """Read the text format and validate the table in full (validate_and_build)."""
    return _parse_lines(text.splitlines())


def _parse_lines(lines: list[str]) -> FiniteGroup:
    """parse_cayley_table on the text's lines, as str.splitlines gives them."""
    lines = [s for s in (ln.strip() for ln in lines) if s and not s.startswith("#")]
    if not lines:
        raise CayleyTableError("empty table file")
    try:
        n = int(lines[0])
    except ValueError:
        raise CayleyTableError(f"first line must be the order, got {lines[0]!r}")
    if n < 1:
        raise CayleyTableError(f"order must be >= 1, got {n}")
    if n > MAX_GROUP_ORDER:
        raise CayleyTableError(f"order {n} exceeds the cap {MAX_GROUP_ORDER}")
    if len(lines) != n + 1:
        raise CayleyTableError(f"expected {n} table rows, found {len(lines) - 1}")
    body = lines[1:]
    table = None
    # loadtxt reads some non-ASCII characters as digits, so only bodies of
    # ASCII digits, signs and blanks go to it; on those it reads what int()
    # reads, straight into the table's dtype, and refuses an entry that
    # dtype cannot hold. The row loop names the first bad row of any other
    # body, and validate_and_build checks the range of what loadtxt read.
    if all(ln.isascii() and not ln.encode().translate(None, _TABLE_CHARS) for ln in body):
        try:
            table = np.loadtxt(body, dtype=_table_dtype(n), comments=None, ndmin=2)
        except ValueError:  # a bad token, ragged rows or an entry past the dtype
            pass
    if table is None or table.shape != (n, n):
        table = _parse_rows(body, n)
    return validate_and_build(table)


def _parse_rows(body: list[str], n: int) -> np.ndarray:
    """The table rows of `body` one token at a time; raises on the first bad row."""
    rows = []
    for ln in body:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise CayleyTableError(f"non-integer entry in row {len(rows)}: {ln!r}")
        if len(row) != n:
            raise CayleyTableError(f"row {len(rows)} has {len(row)} entries, expected {n}")
        if min(row) < 0 or max(row) >= n:  # before any cast, which could wrap
            col = next(c for c, v in enumerate(row) if not 0 <= v < n)
            raise NotClosed(len(rows), col, row[col], n)
        rows.append(row)
    return np.array(rows, dtype=_table_dtype(n))


def cayley_table_lines(group: FiniteGroup) -> Iterator[str]:
    """The text format one line at a time, each with its line end, so a
    writer holds one line, not the whole text. A row's entries are picked
    from the n element names, made once, so no entry makes an int or str."""
    names = np.array([str(g) for g in range(group.n)], dtype=object)
    yield f"{group.n}\n"
    for row in group.table:
        yield " ".join(names[row].tolist()) + "\n"


def format_cayley_table(group: FiniteGroup) -> str:
    return "".join(cayley_table_lines(group))


def read_cayley_table(path) -> FiniteGroup:
    """parse_cayley_table on the file's text, which is dropped once it is
    split into lines, before the table is made."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_lines(fh.read().splitlines())


def write_cayley_table(group: FiniteGroup, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(cayley_table_lines(group))
