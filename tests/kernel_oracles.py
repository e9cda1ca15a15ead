"""Plain references for the numpy kernels in gpgraph.

Each function is the straightforward version of one kernel: a per-bit walk
for SimpleGraph.induced_subgraph, vertex degrees against component sizes
for the clique test of verify._graph_facts, a dict of row bytes for
groups._permutation_table, an n x n x k digit cube for
catalog._abelian_table, a closed-form index formula over full n x n
coordinate arrays for each family catalog._extension_table makes (dihedral,
dicyclic and generalized quaternion, Heisenberg), np.kron and np.tile for
catalog._product_table, one element's power walk over the Cayley table for
every reader of FiniteGroup.powers (cyclic subgroups, subgroups of prime
order, GP adjacency, element orders), the closure of a set under all
products for groups._generating_set, and a per-token parse for
groups.parse_cayley_table. The kernels must agree with them on every input.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from gpgraph.graphs import SimpleGraph
from gpgraph.groups import (
    MAX_GROUP_ORDER,
    CayleyTableError,
    FiniteGroup,
    NotClosed,
    validate_and_build,
)


def _table_dtype(n: int) -> type:
    """The dtype of a table of order n: int16 while indices fit in it."""
    return np.int16 if n < 2**15 else np.int32


def induced_rows(g: SimpleGraph, vertices: Iterable[int]) -> list[int]:
    """Adjacency rows of the subgraph on sorted(set(vertices)), walking
    every set bit of every selected row."""
    verts = sorted(set(vertices))
    pos = {x: i for i, x in enumerate(verts)}
    rows = [0] * len(verts)
    for i, x in enumerate(verts):
        r = g.rows[x]
        while r:
            y = (r & -r).bit_length() - 1
            r &= r - 1
            j = pos.get(y)
            if j is not None:
                rows[i] |= 1 << j
    return rows


def components_complete(g: SimpleGraph, components: list[list[int]]) -> bool:
    """True iff every connected component is a clique, i.e. each vertex's
    degree is its component's size minus one; `components` is the result
    of g.connected_components()."""
    return all(g.rows[i].bit_count() == len(c) - 1 for c in components for i in c)


def permutation_table(perms: np.ndarray) -> np.ndarray:
    """table[a, b] = row index of perms[a] o perms[b], by a dict of row
    bytes; KeyError when the rows are not closed under composition."""
    n = len(perms)
    lut = {p.tobytes(): j for j, p in enumerate(perms)}
    table = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        table[a] = [lut[row.tobytes()] for row in perms[a][perms]]
    return table


def permutation_closure(degree: int, generators: Sequence[Sequence[int]]) -> np.ndarray:
    """Every product of the generators as rows of an array, in sorted order."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = tuple(p[g[x]] for x in range(degree))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return np.array(sorted(seen), dtype=np.int16).reshape(len(seen), degree)


def abelian_table_rows(factors: tuple[int, ...], rows: Sequence[int]) -> np.ndarray:
    """Rows of the Cayley table of Z_f1 x ... x Z_fk, mixed radix with the
    last factor fastest, from the digit cube of the given rows against all
    elements."""
    n = math.prod(factors)
    k = len(factors)
    digits = np.empty((n, k), dtype=np.int64)
    rem = np.arange(n)
    for j in range(k - 1, -1, -1):
        rem, digits[:, j] = np.divmod(rem, factors[j])
    summed = (digits[list(rows), None, :] + digits[None, :, :]) % np.array(factors)
    strides = np.ones(k, dtype=np.int64)
    for j in range(k - 2, -1, -1):
        strides[j] = strides[j + 1] * factors[j + 1]
    return summed @ strides


def dihedral_table(m: int) -> np.ndarray:
    """Cayley table of D_2m: elements a^i s^j with s*a = a^-1*s, index
    j*m + i."""
    n = 2 * m
    idx = np.arange(n)
    i1, j1 = (idx % m)[:, None], (idx // m)[:, None]
    i2, j2 = (idx % m)[None, :], (idx // m)[None, :]
    res_i = (i1 + np.where(j1 == 1, -i2, i2)) % m
    res_j = (j1 + j2) % 2
    return (res_j * m + res_i).astype(_table_dtype(n))


def dicyclic_table(m: int) -> np.ndarray:
    """Cayley table of Dic_m = <a, b | a^(2m) = 1, b^2 = a^m,
    b^-1*a*b = a^-1>: elements a^i b^j, index j*2m + i. For m a power of
    two it is the generalized quaternion group of order 4m."""
    n = 4 * m
    idx = np.arange(n)
    i1, j1 = (idx % (2 * m))[:, None], (idx // (2 * m))[:, None]
    i2, j2 = (idx % (2 * m))[None, :], (idx // (2 * m))[None, :]
    res_i = (i1 + np.where(j1 == 1, -i2, i2) + m * (j1 & j2)) % (2 * m)
    res_j = (j1 + j2) % 2
    return (res_j * 2 * m + res_i).astype(_table_dtype(n))


def heisenberg_table(p: int) -> np.ndarray:
    """Cayley table of the upper unitriangular 3x3 matrices over F_p as
    triples (a, b, c): (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b'), index
    a*p^2 + b*p + c."""
    n = p ** 3
    idx = np.arange(n)
    a, rem = np.divmod(idx, p * p)
    b, c = np.divmod(rem, p)
    a1, b1, c1 = a[:, None], b[:, None], c[:, None]
    a2, b2, c2 = a[None, :], b[None, :], c[None, :]
    ra = (a1 + a2) % p
    rb = (b1 + b2) % p
    rc = (c1 + c2 + a1 * b2) % p
    return (ra * p * p + rb * p + rc).astype(_table_dtype(n))


def product_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Cayley table of the direct product, index a*n2 + x for (a, x), from
    a Kronecker product with a ones matrix and a tiling."""
    n1, n2 = t1.shape[0], t2.shape[0]
    dt = _table_dtype(n1 * n2)
    ones = np.ones((n2, n2), dtype=dt)
    return np.kron(t1.astype(dt), ones) * n2 + np.tile(t2.astype(dt), (n1, n1))


def _walk(rows: list[list[int]], g: int) -> list[int]:
    """<g> as a sorted list, by multiplying by g until the identity (element
    0) comes back."""
    elems = [0]
    cur = g
    while cur != 0:
        if len(elems) == len(rows):
            raise ValueError(f"the powers of {g} never reach the identity")
        elems.append(cur)
        cur = rows[cur][g]
    return sorted(elems)


def cyclic_subgroups(group: FiniteGroup) -> list[list[int]]:
    """<g> for every g, each walked over the Cayley table."""
    rows = group.table.tolist()
    return [_walk(rows, g) for g in range(group.n)]


def element_orders(walks: list[list[int]]) -> list[int]:
    """The order of every element: the size of its walked <g> (from
    cyclic_subgroups)."""
    return [len(cyc) for cyc in walks]


def subgroups_of_order_p(walks: list[list[int]], p: int) -> list[tuple[int, ...]]:
    """The distinct walked <g> (from cyclic_subgroups) with exactly p
    elements, as sorted tuples."""
    return sorted({tuple(cyc) for cyc in walks if len(cyc) == p})


def gp_adjacent(group: FiniteGroup, x: int, y: int) -> bool:
    """GP(G) adjacency by its definition: <x> and <y> share more than the
    identity."""
    rows = group.table.tolist()
    return len(set(_walk(rows, x)) & set(_walk(rows, y))) > 1


def magma_closure(table: np.ndarray, elements: Iterable[int]) -> np.ndarray:
    """Sorted indices of the identity (element 0), the given elements and
    every product of them in either order, by multiplying the whole found
    set by itself until it stops growing."""
    found = np.zeros(len(table), dtype=bool)
    found[0] = True
    found[list(elements)] = True
    while True:
        idx = np.flatnonzero(found)
        found[table[np.ix_(idx, idx)]] = True
        if found.sum() == len(idx):
            return idx


def parse_cayley_table(text: str) -> FiniteGroup:
    """The Cayley table text format read one token at a time with int(),
    each row checked in turn, then validated in full."""
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
        if min(row) < 0 or max(row) >= n:
            col = next(c for c, v in enumerate(row) if not 0 <= v < n)
            raise NotClosed(len(rows), col, row[col], n)
        rows.append(row)
    return validate_and_build(np.array(rows))
