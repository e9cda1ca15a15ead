"""Named group families and catalog enumeration for the verification harness.

A GroupSpec is a cheap, serializable description (family tag + parameters);
build() turns it into a FiniteGroup. Family tables are made in place and
peak near their own size: abelian ones as mixed-radix sums, dihedral,
dicyclic, gq and Heisenberg ones as cyclic extensions N<b>, products as
broadcasts. They are groups by construction and are wrapped without checks
(the tests check every family); file: tables are validated in full. The
catalog is explicitly NOT all groups of a given order: "only if" theorem
directions checked against it are catalog-relative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator

import numpy as np

from .groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    _permutation_table,
    _table_dtype,
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

_ABELIAN_FAMILIES = {CYCLIC, ABELIAN, ELEMENTARY_ABELIAN}

SYMMETRIC_DEGREE_LIMIT = 6

# build() refuses orders above MAX_GROUP_ORDER before making any n^2 table;
# parse_spec refuses products nested deeper than MAX_GROUP_ORDER.bit_length()
# levels.

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
    """Serializable description of a catalog group."""

    family: str
    params: tuple[int, ...] = ()
    parts: tuple["GroupSpec", ...] = ()
    path: str = ""

    def order(self) -> int | None:
        """Group order, computable without building (None for file specs)."""
        f, p = self.family, self.params
        if f == CYCLIC:
            return p[0]
        if f == ABELIAN:
            return math.prod(p)
        if f == ELEMENTARY_ABELIAN:
            return p[0] ** p[1]
        if f == DIHEDRAL:
            return 2 * p[0]
        if f == DICYCLIC:
            return 4 * p[0]
        if f == GENERALIZED_QUATERNION:
            return p[0]
        if f == HEISENBERG:
            return p[0] ** 3
        if f == SYMMETRIC:
            return math.factorial(p[0])
        if f == PRODUCT:
            orders = [s.order() for s in self.parts]
            return None if None in orders else math.prod(orders)
        return None

    @property
    def is_abelian_family(self) -> bool:
        if self.family == PRODUCT:
            return all(s.is_abelian_family for s in self.parts)
        return self.family in _ABELIAN_FAMILIES

    @property
    def name(self) -> str:
        """Human-readable name, e.g. Z12, Z4xZ2, D8, Q16, Dic3, Heis3, S4."""
        f, p = self.family, self.params
        if f == CYCLIC:
            return f"Z{p[0]}"
        if f == ABELIAN:
            return "x".join(f"Z{d}" for d in p)
        if f == ELEMENTARY_ABELIAN:
            return f"Z{p[0]}^{p[1]}"
        if f == DIHEDRAL:
            return f"D{2 * p[0]}"
        if f == DICYCLIC:
            return f"Dic{p[0]}"
        if f == GENERALIZED_QUATERNION:
            return f"Q{p[0]}"
        if f == HEISENBERG:
            return f"Heis{p[0]}"
        if f == SYMMETRIC:
            return f"S{p[0]}"
        if f == PRODUCT:
            return "x".join(s.name if s.family != PRODUCT else f"({s.name})" for s in self.parts)
        return self.path.rsplit("/", 1)[-1]

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


def parse_spec(text: str) -> GroupSpec:
    """Parse the one-line GroupSpec text form."""
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
    if family not in (CYCLIC, ABELIAN, ELEMENTARY_ABELIAN, DIHEDRAL, DICYCLIC,
                      GENERALIZED_QUATERNION, HEISENBERG, SYMMETRIC):
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
    # Mixed radix, last factor fastest: index = sum of d_i * stride_i. Each
    # factor adds (d_i + d'_i) % f_i * stride_i, which is the cyclic table of
    # f_i broadcast over a 6-axis view of the table, with no n x n temporary.
    n = math.prod(factors)
    table = np.zeros((n, n), dtype=_table_dtype(n))
    high = 1
    for f in factors:
        if f == 1:  # adds nothing; a spec may list 10^5 of them
            continue
        stride = n // (high * f)
        term = _cyclic_table(f)
        term *= stride
        table.reshape(high, f, stride, high, f, stride)[...] += term[:, None, None, :, None]
        high *= f
    return table


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


def _table_maker(spec: GroupSpec) -> tuple[int | None, Callable[[], np.ndarray]]:
    """Check the parameters of a spec and of its factors (BadParameters),
    refuse an order above MAX_GROUP_ORDER, and return the order (None for a
    file: factor) with a function that makes the Cayley table.

    No order far above the cap is ever formed: p^k is formed only when k
    alone cannot put it over the cap, and products stop at the first
    partial product over it.
    """
    f, p = spec.family, spec.params

    def need(cond: bool, msg: str):
        if not cond:
            raise BadParameters(f"{_quote(spec.to_text())}: {msg}")

    def within_cap(order: int) -> int:
        need(order <= MAX_GROUP_ORDER, f"order exceeds the cap {MAX_GROUP_ORDER}")
        return order

    def capped_product(orders: Iterable[int]) -> int:
        order = 1
        for factor in orders:
            order = within_cap(order * factor)
        return order

    if f == CYCLIC:
        need(len(p) == 1 and p[0] >= 1, "cyclic:n needs n >= 1")
        return within_cap(p[0]), lambda: _cyclic_table(p[0])
    if f == ABELIAN:
        # Factors of 1 are legal, so the factor count alone says nothing.
        need(len(p) >= 1 and all(d >= 1 for d in p), "abelian factors must be >= 1")
        return capped_product(p), lambda: _abelian_table(p)
    # The cap is checked before is_prime, which trial-divides.
    if f == ELEMENTARY_ABELIAN:
        rule = "elemab:p,k needs prime p and rank k >= 1"
        need(len(p) == 2 and p[0] >= 2 and p[1] >= 1, rule)
        need(p[1] < MAX_GROUP_ORDER.bit_length(), f"order exceeds the cap {MAX_GROUP_ORDER}")
        order = within_cap(p[0] ** p[1])
        need(is_prime(p[0]), rule)
        return order, lambda: _abelian_table((p[0],) * p[1])
    if f == DIHEDRAL:  # D_2m = Z_m<s>, s inverting, s^2 = 1
        need(len(p) == 1 and p[0] >= 1, "dihedral:m needs m >= 1")
        return within_cap(2 * p[0]), lambda: _extension_table(_cyclic_table(p[0]), _negation(p[0]), 2, 0)
    if f == DICYCLIC:  # Dic_m = Z_2m<b>, b inverting, b^2 = a^m
        need(len(p) == 1 and p[0] >= 2, "dicyclic:m needs m >= 2")
        m = p[0]
        return within_cap(4 * m), lambda: _extension_table(_cyclic_table(2 * m), _negation(2 * m), 2, m)
    if f == GENERALIZED_QUATERNION:  # Q_4m = Dic_m
        need(len(p) == 1, "gq:n needs the group order")
        need(p[0] >= 8 and p[0] & (p[0] - 1) == 0, "generalized quaternion order must be 2^k with k >= 3")
        m = p[0] // 4
        return within_cap(4 * m), lambda: _extension_table(_cyclic_table(2 * m), _negation(2 * m), 2, m)
    if f == HEISENBERG:
        need(len(p) == 1, "heisenberg:p needs a prime p")
        order = within_cap(p[0] ** 3)
        need(is_prime(p[0]), "heisenberg:p needs a prime p")
        # Heis_q = (Z_q x Z_q)<b> with b (u, v) b^-1 = (u, u + v) and b^q = 1;
        # (u, v) b^j is the matrix [[1, j, v], [0, 1, u], [0, 0, 1]].
        q = p[0]
        return order, lambda: _extension_table(
            _abelian_table((q, q)), (_cyclic_table(q) + np.arange(0, q * q, q)[:, None]).ravel(), q, 0)
    if f == SYMMETRIC:
        need(len(p) == 1 and 1 <= p[0] <= SYMMETRIC_DEGREE_LIMIT,
             f"symmetric:n needs 1 <= n <= {SYMMETRIC_DEGREE_LIMIT}")
        return math.factorial(p[0]), lambda: _symmetric_table(p[0])
    if f == PRODUCT:
        need(len(spec.parts) >= 2, "product needs at least two factors")
        orders, makers = zip(*(_table_maker(part) for part in spec.parts))
        if None not in orders:
            return capped_product(orders), lambda: reduce(_product_table, (make() for make in makers))

        def make_with_file_factor() -> np.ndarray:
            tables = [make() for make in makers]
            capped_product(len(t) for t in tables)
            return reduce(_product_table, tables)

        return None, make_with_file_factor
    if f == EXTERNAL:
        return None, lambda: read_cayley_table(spec.path).table
    raise BadParameters(f"unknown family {f!r}")


def build(spec: GroupSpec) -> FiniteGroup:
    """Construct the group described by a spec.

    Raises BadParameters when the family's parameter domain is violated or
    the order exceeds MAX_GROUP_ORDER, before any table is made (for a
    product with a file: factor, before the product table is made). A
    file: table, alone or as a factor, is read and validated in full.
    """
    _, make = _table_maker(spec)
    return FiniteGroup(make())


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
    k = 8
    while k <= max_order:
        specs.append(GroupSpec(GENERALIZED_QUATERNION, (k,)))
        k *= 2
    specs.extend(GroupSpec(DIHEDRAL, (m,)) for m in range(3, max_order // 2 + 1))
    specs.extend(GroupSpec(DICYCLIC, (m,)) for m in range(2, max_order // 4 + 1))
    p = 3
    while p ** 3 <= max_order:
        if is_prime(p):
            specs.append(GroupSpec(HEISENBERG, (p,)))
        p += 2
    for deg in range(3, SYMMETRIC_DEGREE_LIMIT + 1):
        if math.factorial(deg) <= max_order:
            specs.append(GroupSpec(SYMMETRIC, (deg,)))
    return specs


@lru_cache(maxsize=8)
def catalog_up_to(max_order: int, dedupe: bool = True) -> tuple[GroupSpec, ...]:
    """Abelian classes plus named non-abelian families and their products.

    Products pair each non-abelian family member with each abelian catalog
    group. With dedupe=True (default), the specs that catalog_groups keeps.
    """
    if dedupe:
        return tuple(spec for spec, _ in catalog_groups(max_order))
    abelian = enumerate_abelian_up_to(max_order)
    nonabelian = _nonabelian_family_specs(max_order)
    products = []
    for base in nonabelian:
        base_order = base.order()
        for ab in abelian:
            ab_order = ab.order()
            if ab_order >= 2 and base_order * ab_order <= max_order:
                products.append(GroupSpec(PRODUCT, parts=(base, ab)))
    return tuple(abelian + nonabelian + products)


def catalog_groups(max_order: int, dedupe: bool = True) -> Iterator[tuple[GroupSpec, FiniteGroup]]:
    """(spec, group) for each catalog spec in order, building each group once.

    With dedupe=True, a spec whose group shares an (order, element-order
    multiset, abelian) fingerprint with an earlier one is skipped.
    """
    seen: set = set()
    for spec in catalog_up_to(max_order, False):
        group = build(spec)
        if dedupe:
            fp = group.fingerprint()
            if fp in seen:
                continue
            seen.add(fp)
        yield spec, group
