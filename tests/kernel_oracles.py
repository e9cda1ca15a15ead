"""Plain-loop references for the numpy kernels in gpgraph.

Each function is the straightforward version of one kernel: a per-bit walk
for SimpleGraph.induced_subgraph, a dict of row bytes for
groups._permutation_table, an n x n x k digit cube for
catalog._abelian_table, and one element's power walk over the Cayley table
for every reader of FiniteGroup.powers (cyclic subgroups, subgroups of prime
order, GP adjacency). The kernels must agree with them on every input.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from gpgraph.graphs import SimpleGraph
from gpgraph.groups import FiniteGroup


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


def subgroups_of_order_p(walks: list[list[int]], p: int) -> list[tuple[int, ...]]:
    """The distinct walked <g> (from cyclic_subgroups) with exactly p
    elements, as sorted tuples."""
    return sorted({tuple(cyc) for cyc in walks if len(cyc) == p})


def gp_adjacent(group: FiniteGroup, x: int, y: int) -> bool:
    """GP(G) adjacency by its definition: <x> and <y> share more than the
    identity."""
    rows = group.table.tolist()
    return len(set(_walk(rows, x)) & set(_walk(rows, y))) > 1
