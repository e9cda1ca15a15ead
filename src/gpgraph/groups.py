"""Finite groups as Cayley tables over 0-based element indices.

Every group is an n-by-n multiplication table; element 0 is always the
identity after construction (inputs with the identity elsewhere are
relabelled). All heavy table arithmetic goes through numpy.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

# The largest group order accepted anywhere: catalog specs are refused above
# it before any n^2 table is made, file: tables before any row is parsed, and
# tables handed to validate_and_build before any check.
MAX_GROUP_ORDER = 8192

PERMUTATION_CLOSURE_CAP = 2048

# Light's test compares this many rows of the table at a time, so its working
# memory is O(n * ASSOCIATIVITY_BAND) entries.
ASSOCIATIVITY_BAND = 256


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
    """

    __slots__ = ("n", "table", "inverses", "_orders", "_abelian", "_prime_incidence",
                 "_powers")

    identity = 0

    def __init__(self, table: np.ndarray):
        table.setflags(write=False)
        self.n = table.shape[0]
        self.table = table
        self.inverses = np.argmax(table == 0, axis=1).astype(table.dtype)
        self._powers: Optional[np.ndarray] = None
        self._orders: Optional[np.ndarray] = None
        self._abelian: Optional[bool] = None
        self._prime_incidence: Optional[np.ndarray] = None

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
        <g> and wraps: powers[g, k] = g^(k mod order(g))."""
        if self._powers is None:
            self._fill_powers()
        return self._powers

    @property
    def orders(self) -> np.ndarray:
        """Orders of all elements, recorded by the powers fill."""
        if self._orders is None:
            self._fill_powers()
        return self._orders

    def _fill_powers(self) -> None:
        # One walk for all g at once, g^(k+1) = table[g^k, g], until every
        # element has reached the identity, which takes L steps.
        cur = idx = np.arange(self.n, dtype=self.table.dtype)  # g^k, k = len(cols)
        cols = [np.zeros_like(idx)]
        reached = idx == 0
        while not reached.all():
            if len(cols) == self.n:  # possible only for a table that is no group
                raise CayleyTableError("some element's powers never reach the identity")
            cols.append(cur)
            cur = self.table[cur, idx]
            reached |= cur == 0
        powers = np.stack(cols, axis=1)
        powers.setflags(write=False)
        # order(g) is the least k >= 1 with g^k = 0; with g^L = cur as a last
        # column, every row has one.
        orders = np.argmax(np.column_stack((powers[:, 1:], cur)) == 0, axis=1) + 1
        # Each property tests its own attribute, so a concurrent reader never gets None.
        self._orders = orders
        self._powers = powers

    def order_of(self, g: int) -> int:
        """Smallest k >= 1 with g^k = identity; divides the group order."""
        self._check_index(g)
        return int(self.orders[g])

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def cyclic_subgroup(self, g: int) -> list[int]:
        """<g> as a sorted list; its size equals order_of(g)."""
        self._check_index(g)
        return sorted(self.powers[g, :self.orders[g]].tolist())

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
        its least non-identity element. Read-only, n x omega(n).

        <x> and <y> meet non-trivially iff their rows share an id: a
        non-trivial intersection is a cyclic group, so it has a subgroup of
        prime order, and <x> has exactly one subgroup of each order p | m.
        """
        if self._prime_incidence is None:
            powers, orders = self.powers, self.orders
            primes = sorted(prime_factors(self.n))
            inc = np.full((self.n, len(primes)), -1, dtype=_table_dtype(self.n))
            for j, p in enumerate(primes):
                elems = np.nonzero(orders % p == 0)[0]
                h = powers[elems, orders[elems] // p]  # of order p
                inc[elems, j] = powers[h, 1:p].min(axis=1)
            inc.setflags(write=False)
            self._prime_incidence = inc
        return self._prime_incidence

    def exponent(self) -> int:
        """Least common multiple of all element orders."""
        return int(math.lcm(*(int(o) for o in self.orders)))

    def p_group_prime(self) -> Optional[int]:
        """The prime p if |G| = p^k (k >= 1), else None.

        The trivial group returns None: it is vacuously a p-group for every
        prime and picking one would be arbitrary; callers branch on n == 1.
        """
        if self.n == 1:
            return None
        fact = prime_factors(self.n)
        if len(fact) == 1:
            return next(iter(fact))
        return None

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
        ids = set(self.prime_subgroup_incidence()[:, column].tolist()) - {-1}
        return sorted(tuple(sorted(row)) for row in self.powers[sorted(ids), :p].tolist())

    def fingerprint(self) -> tuple[int, tuple[int, ...], bool]:
        """(order, sorted element-order multiset, abelian flag).

        Not an isomorphism test; used only to dedupe the catalog.
        """
        return (self.n, tuple(sorted(int(o) for o in self.orders)), self.is_abelian)


def _generating_set(table: np.ndarray) -> list[int]:
    """Greedy generating set of the magma: repeatedly adjoin the smallest
    element outside the closure of what we have. Works on arbitrary tables
    (closure only needs the operation, not associativity)."""
    n = table.shape[0]
    in_closure = np.zeros(n, dtype=bool)
    in_closure[0] = True
    gens: list[int] = []
    while not in_closure.all():
        g = int(np.argmin(in_closure))
        gens.append(g)
        in_closure[g] = True
        while True:
            idx = np.nonzero(in_closure)[0]
            before = int(in_closure.sum())
            in_closure[table[np.ix_(idx, idx)].ravel()] = True
            if int(in_closure.sum()) == before:
                break
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

    Each row is one np.void key; the keys are sorted once, and each row of
    compositions is looked up with one searchsorted. Raises
    CayleyTableError when the rows are not closed under composition.
    """
    n = len(perms)
    # No void key has width 0: the empty permutation stands in as the
    # identity on one point.
    perms = np.ascontiguousarray(perms if perms.shape[1] else np.zeros((n, 1), perms.dtype))
    key = np.dtype((np.void, perms.itemsize * perms.shape[1]))
    by_key = np.argsort(perms.view(key).ravel())
    keys = perms[by_key].view(key).ravel()
    table = np.empty((n, n), dtype=_table_dtype(n))
    for a in range(n):  # row j of perms[a][perms] is perms[a] o perms[j]
        comp = perms[a][perms].view(key).ravel()
        at = np.minimum(np.searchsorted(keys, comp), n - 1)
        missing = np.nonzero(keys[at] != comp)[0]
        if len(missing):
            raise CayleyTableError(
                f"rows {a} and {int(missing[0])} compose to a permutation outside the rows")
        table[a] = by_key[at]
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
    rows = []
    for ln in lines[1:]:
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
    return validate_and_build(np.array(rows, dtype=_table_dtype(n)))


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
