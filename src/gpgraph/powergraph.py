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

from .graphs import SimpleGraph
from .groups import FiniteGroup


class VertexConvention(enum.Enum):
    """Which group elements become graph vertices."""

    STRICT = "strict"                    # <x> proper, x != identity
    STRICT_WITH_IDENTITY = "strict-id"   # <x> proper, identity kept
    PUNCTURED = "punctured"              # all non-identity elements
    FULL = "full"                        # all elements

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
    return vertex_index(group, convention).tolist()


def vertex_index(group: FiniteGroup, convention: VertexConvention) -> np.ndarray:
    """vertex_elements as an index array, for selecting rows of per-element arrays."""
    n = group.n
    if convention is VertexConvention.FULL:
        return np.arange(n)
    if convention is VertexConvention.PUNCTURED:
        return np.arange(1, n)
    proper = group.orders != n  # <g> is a proper subgroup
    if convention is VertexConvention.STRICT:
        proper[0] = False
    return np.flatnonzero(proper)


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

    With M the cyclic-subgroup membership matrix (M[x, y] iff y is in <x>),
    the adjacency is M or its transpose, restricted to the vertex set.
    """
    verts = vertex_elements(group, convention)
    sub = group.cyclic_membership()[np.ix_(verts, verts)]
    adj = sub | sub.T
    np.fill_diagonal(adj, 0)
    rows = np.packbits(adj, axis=1, bitorder="little")
    return SimpleGraph([int.from_bytes(r.tobytes(), "little") for r in rows], verts)
