"""Named group families and catalog enumeration for the verification harness.

A GroupSpec is a cheap, serializable description (family tag + parameters).
Each family is one `_FAMILIES` record: parameter domain, order, name, table
maker and, for all but heisenberg and symmetric, its leaves. A spec is
checked against its record when it is made, so order() is a stored value
that agrees with build(), which turns a spec into a FiniteGroup. That group
makes its Cayley table only when something reads it. Its leaves are the
family's mixed radix of cyclic and inverting leaves (groups.Leaf), or for a
product its factors' leaves one after the other, a factor without leaves
as one table leaf. The group reads everything else from them: its element
orders, single powers x^k (FiniteGroup.power_at and groups.GroupBatch),
which the prime-subgroup incidence, cyclic_subgroup and subgroups_of_order_p
read, and the whole n x L power table, which P(G) reads, made only when
something reads it. A group without leaves fills its orders and powers
from the table, and its point reads read that fill. So this module knows
only tables and leaves; each leaf kind's arithmetic lives in groups. Its
abelian flag comes from the record. catalog_groups builds each catalog
group once: a product takes its factor groups from the same pass, and the
dedupe reads element orders alone.

Family tables are made in place and peak near their own size: abelian ones
as products of cyclic tables, dihedral, dicyclic, gq and Heisenberg ones as
cyclic extensions N<b>, products as broadcasts. They are groups by
construction and are wrapped without checks (the tests check every family,
and every group's orders and powers against its table's fill); file: tables
are validated in full. The catalog is explicitly NOT all groups of a given
order: "only if" theorem directions checked against it are catalog-relative.
"""

from __future__ import annotations

import bisect
import itertools
import reprlib
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    Leaf,
    _permutation_table,
    _table_dtype,
    cyclic_leaf,
    inverting_leaf,
    is_prime,
    prime_factors,
    read_cayley_table,
)

CYCLIC = "cyclic"
ABELIAN = "abelian"
ELEMENTARY_ABELIAN = "elemab"
DIHEDRAL = "dihedral"
DICYCLIC = "dicyclic"
GENERALIZED_QUATERNION = "gq"
HEISENBERG = "heisenberg"
SYMMETRIC = "symmetric"
PRODUCT = "product"
EXTERNAL = "file"

SYMMETRIC_DEGREE_LIMIT = 6

# Error messages quote at most this many characters of a spec.
QUOTE_LIMIT = 80


def _quote(text: str) -> str:
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT - 3] + "..."


class BadParameters(ValueError):
    pass


class SpecParseError(ValueError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """Serializable description of a catalog group. Making one raises
    BadParameters for a field of the wrong type, an unknown family,
    parameters outside its domain or an order above MAX_GROUP_ORDER, in that
    order, and tests a prime parameter last. A product's factors were checked
    when they were made. `is_abelian_family` (an abelian family, or a
    product of them) is stored when the spec is made, as are its order and
    hash."""

    family: str
    params: tuple[int, ...] = ()
    parts: tuple["GroupSpec", ...] = ()
    path: str = ""

    def __post_init__(self):
        f, p = self.family, self.params
        if not (isinstance(f, str) and isinstance(self.path, str)
                and isinstance(p, tuple) and all(type(v) is int for v in p)  # not bool
                and isinstance(self.parts, tuple) and all(isinstance(s, GroupSpec) for s in self.parts)):
            fields = ", ".join(reprlib.repr(v) for v in (f, p, self.parts, self.path))
            raise BadParameters(
                f"GroupSpec({_quote(fields)}): family and path must be str, params a "
                "tuple of int and parts a tuple of GroupSpec"
            )
        if f == PRODUCT:
            if len(self.parts) < 2:
                self._refuse("product needs at least two factors")
            orders = [s.order() for s in self.parts]
            order = None if None in orders else _order_within_cap(self, orders)
            abelian = all(s.is_abelian_family for s in self.parts)
        elif f == EXTERNAL:
            order, abelian = None, False
        elif f in _FAMILIES:
            family = _FAMILIES[f]
            for rule, holds in family.domain.items():
                if not holds(p):
                    self._refuse(rule)
            order = _order_within_cap(self, family.factors(p))
            if family.prime and not is_prime(p[0]):  # after the cap: is_prime trial-divides
                self._refuse(rule)
            abelian = family.abelian
        else:
            raise BadParameters(f"unknown family {f!r}")
        # Not fields, so no effect on == or repr. Each is formed once: a
        # product's hash and flag read its factors' stored ones, so neither
        # recurses through the factors again.
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "is_abelian_family", abelian)
        object.__setattr__(self, "_hash", hash((f, p, self.parts, self.path)))

    def __hash__(self):
        return self._hash

    def _refuse(self, msg: str):
        raise BadParameters(f"{_quote(self.to_text())}: {msg}")

    def order(self) -> int | None:
        """Group order, known without building (None for file specs and
        products with a file: factor)."""
        return self._order

    @property
    def name(self) -> str:
        """Human-readable name, e.g. Z12, Z4xZ2, D8, Q16, Dic3, Heis3, S4."""
        if self.family == PRODUCT:
            return "x".join(s.name if s.family != PRODUCT else f"({s.name})" for s in self.parts)
        if self.family == EXTERNAL:
            return self.path.rsplit("/", 1)[-1]
        return _FAMILIES[self.family].name(self.params)

    def to_text(self) -> str:
        """One-line serialized form, e.g. `cyclic:12` or `product:(gq:8)x(cyclic:3)`."""
        f, p = self.family, self.params
        if f == PRODUCT:
            return "product:" + "x".join(f"({s.to_text()})" for s in self.parts)
        if f == EXTERNAL:
            return f"file:{self.path}"
        return f"{f}:{','.join(str(v) for v in p)}"

    def __str__(self):
        return self.to_text()


def _order_within_cap(spec: GroupSpec, factors: Iterable[int]) -> int:
    """The product of `factors` (each >= 1), refused at the first partial
    product over MAX_GROUP_ORDER, so no order far above the cap is formed."""
    order = 1
    for factor in factors:
        order *= factor
        if order > MAX_GROUP_ORDER:
            spec._refuse(f"order exceeds the cap {MAX_GROUP_ORDER}")
    return order


def parse_spec(text: str) -> GroupSpec:
    """Parse the one-line GroupSpec text form; the spec is checked as it is made."""
    text = text.strip()
    if ":" not in text:
        raise SpecParseError(f"missing ':' in group spec {_quote(text)!r}")
    family, rest = text.split(":", 1)
    family = family.lower()
    if family == EXTERNAL:
        if not rest:
            raise SpecParseError("file spec needs a path")
        return GroupSpec(EXTERNAL, path=rest)
    if family == PRODUCT:
        # Products nested deeper than MAX_GROUP_ORDER.bit_length() levels
        # are refused.
        factors = []
        depth = 0
        start = None
        for i, ch in enumerate(rest):
            if ch == "(":
                if depth == 0:
                    start = i + 1
                depth += 1
                if depth > MAX_GROUP_ORDER.bit_length():
                    raise SpecParseError(f"products nested deeper than {MAX_GROUP_ORDER.bit_length()} levels")
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise SpecParseError(f"unbalanced ')' in {_quote(text)!r}")
                if depth == 0:
                    factors.append(rest[start:i])
        if depth != 0:
            raise SpecParseError(f"unbalanced '(' in {_quote(text)!r}")
        if rest != "x".join(f"({f})" for f in factors):
            raise SpecParseError(
                f"product factors must be parenthesised and joined by single 'x': {_quote(text)!r}")
        if len(factors) < 2:
            raise SpecParseError(f"product spec needs at least two factors: {_quote(text)!r}")
        return GroupSpec(PRODUCT, parts=tuple(parse_spec(f) for f in factors))
    try:
        params = tuple(int(tok) for tok in rest.split(",")) if rest else ()
    except ValueError:
        raise SpecParseError(f"non-integer parameter in {_quote(text)!r}")
    if family not in _FAMILIES:
        raise SpecParseError(f"unknown family {family!r}")
    return GroupSpec(family, params=params)


# ---------------------------------------------------------------------------
# Family constructors (closed-form Cayley tables)
# ---------------------------------------------------------------------------


def _cyclic_table(n: int) -> np.ndarray:
    a = np.arange(n, dtype=_table_dtype(n))
    table = np.add.outer(a, a)
    table %= n
    return table


def _abelian_table(factors: tuple[int, ...]) -> np.ndarray:
    # Z_f1 x (Z_f2 x (...)), mixed radix with the last factor fastest. The
    # right fold keeps the large operand of each product on the right, where
    # _product_table adds it in contiguous runs; the table of Z_1 is the
    # identity of the fold, and a spec may list 10^5 of them.
    tables = [_cyclic_table(f) for f in factors if f != 1] or [_cyclic_table(1)]
    return reduce(lambda rest, t: _product_table(t, rest), reversed(tables))


def _negation(m: int) -> np.ndarray:
    return -np.arange(m) % m  # i -> -i, inverting every element of Z_m


def _extension_table(normal: np.ndarray, twist: np.ndarray, n: int, t: int) -> np.ndarray:
    # G = N<b> with N normal (Cayley table `normal`), b y b^-1 = twist[y] and
    # b^n = t in N. Element x b^j has index j*|N| + x, and
    # (x b^j)(y b^l) = x twist^j(y) t^[j+l >= n] b^((j+l) mod n).
    # The rows x b^j, x in N, are one contiguous (|N|, n*|N|) slice: one take
    # of columns twist^j(y), times t where j + l >= n, then one add in place
    # of the offsets of b^((j+l) mod n), which are n*|N| consecutive entries
    # of `lead`. Only the table and `normal` are held.
    k = len(normal)
    dt = _table_dtype(n * k)
    normal = normal.astype(dt, copy=False)
    table = np.empty((n, k, n * k), dtype=dt)
    lead = np.repeat(np.arange(2 * n, dtype=dt) % n * k, k)
    colmap = np.empty((n, k), dtype=np.intp)
    cols = np.arange(k)
    for j in range(n):
        colmap[:n - j] = cols
        colmap[n - j:] = normal[cols, t]
        np.take(normal, colmap.ravel(), axis=1, out=table[j], mode="clip")
        table[j] += lead[j * k:(j + n) * k]
        cols = twist[cols]
    return table.reshape(n * k, n * k)


def _dicyclic_table(m: int) -> np.ndarray:
    # Dic_m = Z_2m<b>, b inverting, b^2 = a^m
    return _extension_table(_cyclic_table(2 * m), _negation(2 * m), 2, m)


def _heisenberg_table(q: int) -> np.ndarray:
    # Heis_q = (Z_q x Z_q)<b> with b (u, v) b^-1 = (u, u + v) and b^q = 1;
    # (u, v) b^j is the matrix [[1, j, v], [0, 1, u], [0, 0, 1]].
    twist = (_cyclic_table(q) + np.arange(0, q * q, q)[:, None]).ravel()
    return _extension_table(_abelian_table((q, q)), twist, q, 0)


def _symmetric_table(deg: int) -> np.ndarray:
    # itertools.permutations is lexicographic, so the identity is index 0.
    return _permutation_table(np.array(list(itertools.permutations(range(deg))), dtype=np.int16))


def _product_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    # (a, x)(b, y) = (ab, xy) with index a*n2 + x: t1 and t2 broadcast into
    # a (n1, n2, n1, n2) view of the table, with no n x n temporary.
    n1, n2 = len(t1), len(t2)
    table = np.empty((n1, n2, n1, n2), dtype=_table_dtype(n1 * n2))
    table[...] = t1[:, None, :, None]
    table *= n2
    table += t2[:, None, :]
    return table.reshape(n1 * n2, n1 * n2)


# A leaf by its maker and the maker's arguments: (cyclic_leaf, m) or
# (inverting_leaf, m, t).
LeafKey = tuple


class _LeafMemo:
    """Leaves by key, each made at its first request and held until its
    last: `uses` counts the requests to come. catalog_groups counts them
    for its whole pass, so the pass makes each distinct leaf once and holds
    it no longer than a group may still ask for it, and the groups, not the
    catalog, size the pass's memory: a plain dict held to the end of the
    pass doubled the traced peak of catalog_groups(1024) (7.1 to 13.5 MiB).
    A key without a count (a build() outside a pass) is made at each
    request."""

    def __init__(self, uses: Counter | None = None):
        self.uses = Counter() if uses is None else uses
        self.held: dict[LeafKey, Leaf] = {}

    def __call__(self, key: LeafKey) -> Leaf:
        leaf = self.held.pop(key, None)
        if leaf is None:
            make, *args = key
            leaf = make(*args)
        self.uses[key] -= 1
        if self.uses[key] > 0:
            self.held[key] = leaf
        return leaf


# The leaf memo of the catalog_groups pass whose build() call is running:
# the pass sets it around each call, and a build() outside a pass makes a
# memo of its own.
_pass_leaves: ContextVar[_LeafMemo | None] = ContextVar("_pass_leaves", default=None)


def _abelian_leaves(factors: tuple[int, ...]) -> tuple[LeafKey, ...]:
    # One Z_f per factor, as _abelian_table indexes the group: mixed radix,
    # the last factor fastest, factors of 1 skipped.
    return tuple((cyclic_leaf, f) for f in [f for f in factors if f != 1] or [1])


def _leaf_keys(spec: GroupSpec) -> tuple[LeafKey, ...]:
    """The keys of the leaves a family spec's build makes; none for a
    product, which takes its factors', or a family without leaves."""
    family = _FAMILIES.get(spec.family)
    return family.leaves(spec.params) if family is not None and family.leaves else ()


Params = tuple[int, ...]


class _Family(NamedTuple):
    """One spec family. `domain` maps each rule's message to its test on the
    params, checked in turn; the order is the product of `factors(params)`.
    With `prime`, params[0] must be prime too (refused with the last rule's
    message). `table(params)` makes the Cayley table, and `leaves(params)`
    gives the keys (LeafKey) of the group's mixed radix of groups.Leaf
    digits (Z_f per abelian factor, one inverting leaf for dihedral,
    dicyclic and gq), which build() makes through a _LeafMemo. The group
    reads its element orders and powers from them; a family without leaves
    has them filled from its table and is one table leaf.
    `abelian` marks the abelian families; a member of another family is
    abelian iff its order is below 6, the least order of a non-abelian group
    (dihedral:m for m <= 2, symmetric:n for n <= 2)."""

    domain: dict[str, Callable[[Params], bool]]
    factors: Callable[[Params], Iterable[int]]
    name: Callable[[Params], str]
    table: Callable[[Params], np.ndarray]
    leaves: Callable[[Params], tuple[LeafKey, ...]] | None = None
    prime: bool = False
    abelian: bool = False


def _one_at_least(low: int) -> Callable[[Params], bool]:
    return lambda p: len(p) == 1 and p[0] >= low


# The table and leaves makers are called through their module names, so a
# test can replace one.
_FAMILIES: dict[str, _Family] = {
    CYCLIC: _Family(
        {"cyclic:n needs n >= 1": _one_at_least(1)},
        factors=lambda p: p, name=lambda p: f"Z{p[0]}",
        table=lambda p: _cyclic_table(p[0]), leaves=_abelian_leaves, abelian=True),
    ABELIAN: _Family(  # factors of 1 are legal, so the factor count says nothing
        {"abelian factors must be >= 1": lambda p: len(p) >= 1 and all(d >= 1 for d in p)},
        factors=lambda p: p, name=lambda p: "x".join(f"Z{d}" for d in p),
        table=lambda p: _abelian_table(p), leaves=_abelian_leaves, abelian=True),
    ELEMENTARY_ABELIAN: _Family(
        {"elemab:p,k needs prime p and rank k >= 1": lambda p: len(p) == 2 and p[0] >= 2 and p[1] >= 1},
        # range, unlike itertools.repeat, takes a rank above sys.maxsize
        factors=lambda p: (p[0] for _ in range(p[1])), name=lambda p: f"Z{p[0]}^{p[1]}",
        table=lambda p: _abelian_table((p[0],) * p[1]),
        leaves=lambda p: _abelian_leaves((p[0],) * p[1]), prime=True, abelian=True),
    DIHEDRAL: _Family(  # D_2m = Z_m<s>, s inverting, s^2 = 1
        {"dihedral:m needs m >= 1": _one_at_least(1)},
        factors=lambda p: (2, p[0]), name=lambda p: f"D{2 * p[0]}",
        table=lambda p: _extension_table(_cyclic_table(p[0]), _negation(p[0]), 2, 0),
        leaves=lambda p: ((inverting_leaf, p[0], 0),)),
    DICYCLIC: _Family(
        {"dicyclic:m needs m >= 2": _one_at_least(2)},
        factors=lambda p: (4, p[0]), name=lambda p: f"Dic{p[0]}",
        table=lambda p: _dicyclic_table(p[0]),
        leaves=lambda p: ((inverting_leaf, 2 * p[0], p[0]),)),
    GENERALIZED_QUATERNION: _Family(  # Q_4m = Dic_m
        {"gq:n needs the group order": lambda p: len(p) == 1,
         "generalized quaternion order must be 2^k with k >= 3":
             lambda p: p[0] >= 8 and p[0] & (p[0] - 1) == 0},
        factors=lambda p: p, name=lambda p: f"Q{p[0]}",
        table=lambda p: _dicyclic_table(p[0] // 4),
        leaves=lambda p: ((inverting_leaf, p[0] // 2, p[0] // 4),)),
    HEISENBERG: _Family(  # p >= 2 first, so a negative p is refused as not prime, not by the cap
        {"heisenberg:p needs a prime p": _one_at_least(2)},
        factors=lambda p: (p[0],) * 3, name=lambda p: f"Heis{p[0]}",
        table=lambda p: _heisenberg_table(p[0]), prime=True),
    SYMMETRIC: _Family(
        {f"symmetric:n needs 1 <= n <= {SYMMETRIC_DEGREE_LIMIT}":
             lambda p: len(p) == 1 and 1 <= p[0] <= SYMMETRIC_DEGREE_LIMIT},
        factors=lambda p: range(1, p[0] + 1), name=lambda p: f"S{p[0]}",
        table=lambda p: _symmetric_table(p[0])),
}


def _product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """A x B, indexed as _product_table indexes it: (x, y) is x |B| + y.
    Its table is made from the factors' when first read, and its leaves are
    A's then B's, so a nested product is one flat radix, from which its
    powers come. Its orders are the outer lcm of A's and B's, which the
    catalog pass has read already, so a product folds no leaf again."""
    product = FiniteGroup(lambda: _product_table(a.table, b.table), order=a.n * b.n,
                          leaves=lambda: a.leaves + b.leaves,
                          abelian=a.is_abelian and b.is_abelian)
    product._make_orders = lambda: np.lcm.outer(a.orders, b.orders).ravel()
    return product


def build(spec: GroupSpec, *,
          factors: Mapping[GroupSpec, FiniteGroup] = MappingProxyType({})) -> FiniteGroup:
    """Construct the group described by a spec.

    The spec's parameters and order were checked when it was made. A family
    group or product gets its leaves from its family or its factors, reads
    its orders and powers from them when they are first read, and makes its
    Cayley table only when something reads it. A product
    takes a factor found in `factors` from there, with whatever it has
    made, and builds the others; catalog_groups passes the groups its pass
    has built, and its leaves are made once a pass (_LeafMemo). A file:
    table, alone or as a factor, is read and validated in full, and a
    product with a file: factor raises BadParameters when its order exceeds
    MAX_GROUP_ORDER, before anything of the product is made.
    """
    memo = _pass_leaves.get()
    return _build(spec, factors, _LeafMemo() if memo is None else memo)


def _build(spec: GroupSpec, factors: Mapping[GroupSpec, FiniteGroup], memo: _LeafMemo) -> FiniteGroup:
    # build() for a spec and each of its factors; a spec found in `factors`
    # is taken from there, and other factors are built here, not through
    # build(), so a spec is one build() call.
    if spec in factors:
        return factors[spec]
    if spec.family == EXTERNAL:
        return read_cayley_table(spec.path)
    if spec.family == PRODUCT:
        parts = [_build(part, factors, memo) for part in spec.parts]
        if spec.order() is None:  # a file: factor, whose size is known now
            _order_within_cap(spec, (g.n for g in parts))
        return reduce(_product, parts)
    family, params = _FAMILIES[spec.family], spec.params
    return FiniteGroup(lambda: family.table(params), order=spec.order(),
                       leaves=family.leaves and (lambda: tuple(map(memo, family.leaves(params)))),
                       abelian=family.abelian or spec.order() < 6)


@lru_cache(maxsize=512)
def build_cached(spec: GroupSpec) -> FiniteGroup:
    """build() with a bounded cache. The verify harness no longer uses it (it
    builds each group once per run); it stays until perfbench/ stops tracing
    it as an entry point and a cache counter."""
    return build(spec)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k as descending tuples, deterministic order."""
    if k == 0:
        return [()]
    out = []

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(k, k, ())
    return out


def _invariant_factors(primary: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Invariant factor list d1 >= d2 >= ... from per-prime exponent partitions."""
    if not primary:
        return (1,)
    width = max(len(parts) for parts in primary.values())
    factors = []
    for i in range(width):
        d = 1
        for prime, parts in primary.items():
            if i < len(parts):
                d *= prime ** parts[i]
        factors.append(d)
    return tuple(factors)


def abelian_specs_of_order(n: int) -> list[GroupSpec]:
    """One spec per isomorphism class of abelian groups of order n."""
    if n == 1:
        return [GroupSpec(CYCLIC, (1,))]
    fact = prime_factors(n)
    primes = sorted(fact)
    out = []
    for combo in itertools.product(*(_partitions(fact[p]) for p in primes)):
        inv = _invariant_factors(dict(zip(primes, combo)))
        if len(inv) == 1:
            out.append(GroupSpec(CYCLIC, (inv[0],)))
        else:
            out.append(GroupSpec(ABELIAN, inv))
    return out


def enumerate_abelian_up_to(max_order: int) -> list[GroupSpec]:
    """One spec per isomorphism class of abelian groups of order 1..max_order."""
    if max_order < 1:
        raise BadParameters("max_order must be >= 1")
    out = []
    for n in range(1, max_order + 1):
        out.extend(abelian_specs_of_order(n))
    return out


def _nonabelian_family_specs(max_order: int) -> list[GroupSpec]:
    specs = []
    # Generalized quaternions first so dedupe keeps the Q label over Dic_{2^k}.
    specs.extend(GroupSpec(GENERALIZED_QUATERNION, (2 ** k,)) for k in range(3, max_order.bit_length()))
    specs.extend(GroupSpec(DIHEDRAL, (m,)) for m in range(3, max_order // 2 + 1))
    specs.extend(GroupSpec(DICYCLIC, (m,)) for m in range(2, max_order // 4 + 1))
    p = 3
    while p ** 3 <= max_order:
        if is_prime(p):
            specs.append(GroupSpec(HEISENBERG, (p,)))
        p += 2
    symmetric = (GroupSpec(SYMMETRIC, (deg,)) for deg in range(3, SYMMETRIC_DEGREE_LIMIT + 1))
    specs.extend(s for s in symmetric if s.order() <= max_order)
    return specs


def catalog_up_to(max_order: int, dedupe: bool = True) -> tuple[GroupSpec, ...]:
    """Abelian classes plus named non-abelian families and their products.

    Products pair each non-abelian family member with each abelian catalog
    group of order at least 2 that keeps the product within max_order. With
    dedupe=True (default), the specs that catalog_groups keeps.
    """
    if dedupe:
        return tuple(spec for spec, _ in catalog_groups(max_order))
    abelian = enumerate_abelian_up_to(max_order)
    orders = [ab.order() for ab in abelian]  # ascending
    nonabelian = _nonabelian_family_specs(max_order)
    products = []
    for base in nonabelian:
        fits = abelian[bisect.bisect_left(orders, 2):bisect.bisect_right(orders, max_order // base.order())]
        products.extend(GroupSpec(PRODUCT, parts=(base, ab)) for ab in fits)
    return tuple(abelian + nonabelian + products)


def catalog_groups(max_order: int, dedupe: bool = True) -> Iterator[tuple[GroupSpec, FiniteGroup]]:
    """(spec, group) for each catalog spec in order, building each group once.

    Each spec is one build() call. A product's factors are catalog specs
    that come earlier, and the product takes them, with whatever they have
    made, from the groups this pass has built. The builds share one leaf
    memo (_LeafMemo, set as _pass_leaves), which holds each distinct cyclic
    or inverting leaf from its first request to its last, so a pass makes
    it once. The pass holds a factor until its last product; the products
    of one base are contiguous, so it holds the abelian factors and one
    base at a time. The harness reads
    point powers, which make no power table for a factor with leaves, and
    a factor without leaves made its power table with its orders;
    so under the harness a held factor holds no power table it did not
    need for its orders.

    With dedupe=True, a spec whose group shares an (order, element-order
    histogram, abelian) fingerprint with an earlier one is skipped. The
    fingerprint reads element orders only, so a skipped spec gets a power
    table only when its orders come from its table (heisenberg, symmetric).
    """
    specs = catalog_up_to(max_order, False)
    last_read = {part: i for i, spec in enumerate(specs) for part in spec.parts}
    built: dict[GroupSpec, FiniteGroup] = {}
    leaves = _LeafMemo(Counter(key for spec in specs for key in _leaf_keys(spec)))
    seen: set = set()
    for i, spec in enumerate(specs):
        token = _pass_leaves.set(leaves)
        try:
            group = build(spec, factors=built)
        finally:
            _pass_leaves.reset(token)
        if spec in last_read:
            built[spec] = group
        for part in spec.parts:
            if last_read[part] == i:
                del built[part]
        if dedupe:
            fp = group.fingerprint()
            if fp in seen:
                continue
            seen.add(fp)
        yield spec, group
