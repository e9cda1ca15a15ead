"""The generalized power graph GP(G) and the classical power graph P(G).

GP adjacency: x ~ y iff <x> and <y> intersect beyond the identity.
P adjacency:  x ~ y iff one is a positive power of the other.

The vertex set is a mandatory, explicit convention. Restricting vertices to
proper-subgroup generators makes GP(Z_p) empty, while several planarity
facts need the generator vertices present; the completeness results hold
either way. Rather than pick a side silently, every construction and every
harness verdict names its convention.
"""

from __future__ import annotations

import enum

import numpy as np

from .graphs import SimpleGraph, rows_from_packed
from .groups import FiniteGroup

# power_graph ORs the membership matrix with its transpose in square blocks
# of this side.
PG_TILE = 256


class VertexConvention(enum.Enum):
    """Which group elements become graph vertices."""

    STRICT = "strict"                    # <x> proper, x != identity
    STRICT_WITH_IDENTITY = "strict-id"   # <x> proper, identity kept
    PUNCTURED = "punctured"              # all non-identity elements
    FULL = "full"                        # all elements

    @property
    def keeps_identity(self) -> bool:
        """Whether the identity is a vertex (of the trivial group, only if it
        also keeps generators); GP(G) leaves it isolated."""
        return self in (VertexConvention.STRICT_WITH_IDENTITY, VertexConvention.FULL)

    @property
    def drops_generators(self) -> bool:
        """Whether the elements that generate the group are left out."""
        return self in (VertexConvention.STRICT, VertexConvention.STRICT_WITH_IDENTITY)

    @classmethod
    def from_flag(cls, flag: str) -> "VertexConvention":
        for member in cls:
            if member.value == flag:
                return member
        raise ValueError(
            f"unknown convention {flag!r}; expected one of "
            + ", ".join(m.value for m in cls)
        )


def vertex_elements(group: FiniteGroup, convention: VertexConvention) -> list[int]:
    """Element indices forming the vertex set, ascending."""
    n = group.n
    if not convention.drops_generators:
        return list(range(0 if convention.keeps_identity else 1, n))
    proper = group.orders != n  # <g> is a proper subgroup
    proper[0] &= convention.keeps_identity
    return np.flatnonzero(proper).tolist()


def generalized_power_graph(group: FiniteGroup, convention: VertexConvention) -> SimpleGraph:
    """GP(G) on the convention's vertex set; labels are element indices.

    GP(G) is the union of the cliques C_P = {x : P <= <x>}, one for each
    subgroup P of prime order, so each row is the OR of its vertex's clique
    masks (see FiniteGroup.prime_subgroup_incidence). The identity, when
    present (Full / StrictWithIdentity), is kept as a real isolated vertex:
    <identity> is trivial, so it lies in no clique.
    """
    verts = vertex_elements(group, convention)
    incidence = group.prime_subgroup_incidence()[verts].tolist()
    cliques = [0] * group.n  # indexed by subgroup id
    for i, ids in enumerate(incidence):
        for s in ids:
            if s >= 0:
                cliques[s] |= 1 << i
    rows = []
    for i, ids in enumerate(incidence):
        row = 0
        for s in ids:
            if s >= 0:
                row |= cliques[s]
        rows.append(row & ~(1 << i))
    return SimpleGraph(rows, verts)


def power_graph(group: FiniteGroup, convention: VertexConvention) -> SimpleGraph:
    """P(G): x ~ y iff x is a power of y or y is a power of x.

    With M the cyclic-subgroup membership matrix on the vertex set (M[i, j]
    iff vertex j is in <vertex i>, FiniteGroup.cyclic_membership, which
    scatters the power table straight to the vertex columns), the adjacency
    is M or its transpose, without the diagonal. The OR runs one
    PG_TILE x PG_TILE block at a time, so each block's transposed read stays
    in cache, and each band of PG_TILE rows becomes bitset rows as soon as
    it is done: beyond M and the result, working memory is one band.
    """
    verts = vertex_elements(group, convention)
    member = group.cyclic_membership(verts)
    v, rows = len(verts), []
    band = np.empty((min(v, PG_TILE), v), dtype=bool)
    for lo in range(0, v, PG_TILE):
        hi = min(lo + PG_TILE, v)
        block = band[:hi - lo]
        for c in range(0, v, PG_TILE):
            np.bitwise_or(member[lo:hi, c:c + PG_TILE], member[c:c + PG_TILE, lo:hi].T,
                          out=block[:, c:c + PG_TILE])
        block[np.arange(hi - lo), np.arange(lo, hi)] = False  # x is in <x>: no loops
        rows += rows_from_packed(np.packbits(block, axis=1, bitorder="little"))
    return SimpleGraph(rows, verts)
