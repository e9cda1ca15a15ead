"""Finite groups as Cayley tables over 0-based element indices.

Every group is an n-by-n multiplication table; element 0 is always the
identity after construction (inputs with the identity elsewhere are
relabelled). All heavy table arithmetic goes through numpy.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

# The largest group order accepted anywhere: catalog specs are refused above
# it before any n^2 table is made, file: tables before any row is parsed, and
# tables handed to validate_and_build before any check.
MAX_GROUP_ORDER = 8192

PERMUTATION_CLOSURE_CAP = 2048

# Light's test compares this many rows of the table at a time, so its working
# memory is O(n * ASSOCIATIVITY_BAND) entries.
ASSOCIATIVITY_BAND = 256

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
    def __init__(self, cap: int):
        super().__init__(f"generated group exceeds the order cap {cap}")


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


class FiniteGroup:
    """Immutable finite group; element 0 is the identity.

    The constructor wraps the table without checking it, so it is only for
    tables that are groups by construction (catalog families, products,
    permutation closures). Tables from outside go through validate_and_build.

    `table` is the Cayley table, or a function that makes it; then `order`
    is required, and the table is made on its first read. `orders`,
    `powers` and `power`, given together, are functions for a group whose
    family or factors give those properties without the table: orders()
    makes the element orders, powers(orders) the power table from them, and
    power(x, k) the powers x^k at element and exponent arrays alone (the
    point form). So the orders are made once, point reads (power_at) make
    nothing, and the power table is made only when something reads it
    whole. Without them, orders and powers are filled from the table in one
    pass, and power_at reads that fill. `abelian`, when given, is what
    is_abelian returns. The catalog builds its groups this way, so a group
    whose facts are all a reader wants never has a table.
    """

    __slots__ = ("n", "_table", "_make_table", "_make_orders", "_make_powers", "_make_power",
                 "_inverses", "_orders", "_abelian", "_prime_incidence", "_powers")

    identity = 0

    def __init__(self, table: np.ndarray | Callable[[], np.ndarray], *,
                 order: Optional[int] = None,
                 orders: Optional[Callable[[], np.ndarray]] = None,
                 powers: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 power: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
                 abelian: Optional[bool] = None):
        if callable(table):
            self.n, self._table, self._make_table = order, None, table
        else:
            table.setflags(write=False)
            self.n, self._table, self._make_table = table.shape[0], table, None
        self._make_orders, self._make_powers, self._make_power = orders, powers, power
        self._abelian = abelian
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
        product's powers); power_at reads single powers without it."""
        if self._powers is None:
            self._fill_powers()
        return self._powers

    @property
    def orders(self) -> np.ndarray:
        """Orders of all elements (intp), from the orders maker, else
        recorded by the table's power fill."""
        if self._orders is None:
            if self._make_orders is None:
                self._fill_powers()
            else:
                self._orders = self._make_orders()
        return self._orders

    def _fill_powers(self) -> None:
        if self._make_powers is None:
            orders, powers = self._doubling_fill()
        else:
            orders = self.orders
            powers = self._make_powers(orders)
        powers.setflags(write=False)
        # Each property tests its own attribute, so a concurrent reader never gets None.
        self._orders = orders
        self._powers = powers

    def power_at(self, x, k) -> np.ndarray:
        """x^k as an intp array, for an array of elements x and an array of
        exponents 0 <= k < 2^40 that broadcast together (a point form may
        form x k in intp). From the point form given at construction, so no
        power table is made; else read from the power table at k mod
        order(x)."""
        x, k = np.asarray(x, dtype=np.intp), np.asarray(k, dtype=np.intp)
        if self._make_power is not None:
            return self._make_power(x, k)
        return self.powers[x, k % self.orders[x]].astype(np.intp)

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
        """<g> as a sorted list; its size equals order_of(g)."""
        self._check_index(g)
        return sorted(self.power_at(g, np.arange(self.orders[g])).tolist())

    def cyclic_membership(self) -> np.ndarray:
        """Boolean n x n matrix M with M[g, e] true iff e is in <g>."""
        member = np.zeros((self.n, self.n), dtype=bool)
        member[np.arange(self.n)[:, None], self.powers] = True
        return member

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
        """All distinct subgroups of order p, as sorted element tuples.

        Every one is <h> for some h of order p, so its id (its least
        non-identity element, which generates it) appears in the incidence
        column of p.
        """
        if not is_prime(p):
            raise NotPrime(p)
        if self.n % p:
            return []
        column = sorted(prime_factors(self.n)).index(p)
        ids = sorted(set(self.prime_subgroup_incidence()[:, column].tolist()) - {-1})
        rows = self.power_at(np.array(ids, dtype=np.intp)[:, None], np.arange(p))
        return sorted(tuple(sorted(row)) for row in rows.tolist())

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
        group has. Each group's powers are read at just the elements and
        exponents wanted, by one power_at call per group."""
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
        bounds = elem.searchsorted(self.starts).tolist() + [len(elem)]
        for g, lo, hi in zip(self.groups, bounds, bounds[1:]):
            got[lo:hi] = g.power_at(rows[lo:hi], exps[lo:hi])
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
    gens: list[int] = []
    while not reached.all():
        g = int(np.argmin(reached))
        gens.append(g)
        frontier = table[np.flatnonzero(reached), g]  # holds 0 * g = g
        while len(frontier):
            frontier = np.unique(frontier[~reached[frontier]])
            reached[frontier] = True
            frontier = table[np.ix_(frontier, gens + frontier[:1].tolist())].ravel()
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
    # Range first: the cast below would wrap entries off by a multiple of 2^16.
    bad = np.argwhere((arr < 0) | (arr >= n))
    if len(bad):
        r, c = (int(v) for v in bad[0])
        raise NotClosed(r, c, int(arr[r, c]), n)
    arr = arr.astype(_table_dtype(n), copy=True)

    idx = np.arange(n)
    row_ok = (arr == idx[None, :]).all(axis=1)
    identity = -1
    for e in np.nonzero(row_ok)[0]:
        if (arr[:, e] == idx).all():
            identity = int(e)
            break
    if identity < 0:
        raise NoIdentity()

    if identity != 0:
        # Relabel so the identity sits at index 0 (swap 0 <-> identity).
        perm = idx.copy()
        perm[0], perm[identity] = identity, 0
        relabelled = np.empty_like(arr)
        relabelled[perm[:, None], perm[None, :]] = perm[arr]
        arr = relabelled

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
    (the table alone is O(cap^2) memory).
    """
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
    identity. The looked-up rows are where closure is checked: when each
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
    table[identity[0]] = np.arange(n)
    reached = np.zeros(n, dtype=bool)
    reached[identity[0]] = True
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
            new, first = np.unique(prod, return_index=True)
            keep = ~reached[new]
            new, first = new[keep], first[keep]
            table[new] = table[src[first, None], table[by[first]]]
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
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
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
    # reads. The row loop names the first bad row of any other body, and
    # validate_and_build checks the range before any cast.
    if not "".join(body).encode("ascii", "replace").translate(None, _TABLE_CHARS):
        try:
            table = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        except ValueError:  # a bad token, ragged rows or an int64 overflow
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


def format_cayley_table(group: FiniteGroup) -> str:
    lines = [str(group.n)]
    for row in group.table:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def read_cayley_table(path) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cayley_table(fh.read())


def write_cayley_table(group: FiniteGroup, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_cayley_table(group))
