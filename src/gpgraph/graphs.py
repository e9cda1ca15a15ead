"""Undirected simple graphs with bitset adjacency.

Adjacency rows are Python ints used as bitsets: bit j of rows[i] is set iff
{i, j} is an edge. The dominant workloads (completeness scans, clique
probes over unions of cliques) are word-parallel this way.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .groups import IndexOutOfRange

# from_edge_list rejects a larger vertex count before allocating anything:
# the graph keeps one v-bit row per vertex, so the stated count alone sizes a
# list of v rows, and a dense graph on v vertices takes v * v / 8 bytes.
MAX_EDGE_LIST_VERTICES = 1 << 14

# induced_subgraph unpacks this many selected rows at a time, so its working
# memory is O(v * INDUCED_BAND) booleans.
INDUCED_BAND = 256


class SimpleGraph:
    """Immutable simple graph; labels map vertices back to group elements.

    SimpleGraph(rows, labels) wraps rows without checks: each rows[i] must be
    a bitset over range(len(rows)) with bit i clear and bit j set iff bit i
    of rows[j] is set, and labels, if given, has one entry per row. GP(G),
    P(G) and induced subgraphs are simple by construction; from_edges and
    from_edge_list check graphs that come from outside.
    """

    __slots__ = ("v", "rows", "labels")

    def __init__(self, rows: Sequence[int], labels: Optional[Sequence[int]] = None):
        self.rows = list(rows)
        self.v = len(self.rows)
        self.labels = list(labels) if labels is not None else list(range(self.v))

    @classmethod
    def from_edges(cls, v: int, edges: Iterable[tuple[int, int]],
                   labels: Optional[Sequence[int]] = None) -> "SimpleGraph":
        """The graph on range(v) with the given edges. Raises IndexOutOfRange
        for an endpoint outside range(v) and ValueError for a negative v, a
        self-loop or a label count other than v."""
        if v < 0:
            raise ValueError(f"vertex count {v} is negative")
        if labels is not None and len(labels) != v:
            raise ValueError(f"expected {v} labels, got {len(labels)}")
        rows = [0] * v
        for a, b in edges:
            if not (0 <= a < v and 0 <= b < v):
                raise IndexOutOfRange(max(a, b), v)
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(rows, labels)

    def __repr__(self):
        return f"SimpleGraph(v={self.v}, e={self.edge_count()})"

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges (a, b) with a < b, sorted."""
        return [(a, b) for a, nbrs in enumerate(self.adjacency_lists()) for b in nbrs if b > a]

    def adjacency_lists(self) -> list[list[int]]:
        out = []
        for r in self.rows:
            nbrs = []
            while r:
                j = (r & -r).bit_length() - 1
                nbrs.append(j)
                r &= r - 1
            out.append(nbrs)
        return out

    def is_complete(self) -> bool:
        """True iff every pair of distinct vertices is adjacent (v <= 1: True)."""
        if self.v <= 1:
            return True
        full = (1 << self.v) - 1
        return all(self.rows[i] == full ^ (1 << i) for i in range(self.v))

    def connected_components(self) -> list[list[int]]:
        """Partition into maximal connected vertex sets, ordered by minimum vertex."""
        unseen = (1 << self.v) - 1
        comps = []
        while unseen:
            start = (unseen & -unseen).bit_length() - 1
            comp = 1 << start
            frontier = comp
            while frontier:
                reach = 0
                f = frontier
                while f:
                    i = (f & -f).bit_length() - 1
                    reach |= self.rows[i]
                    f &= f - 1
                frontier = reach & ~comp
                comp |= frontier
            unseen &= ~comp
            members = []
            c = comp
            while c:
                i = (c & -c).bit_length() - 1
                members.append(i)
                c &= c - 1
            comps.append(members)
        return comps

    def induced_subgraph(self, vertices: Iterable[int]) -> "SimpleGraph":
        """Subgraph on the given vertices (sorted, repeats dropped), labels
        inherited.

        The selected rows are packed into bytes and unpacked INDUCED_BAND at
        a time, cut to the selected columns and packed again, so working
        memory is O(v * INDUCED_BAND) booleans.
        """
        verts = sorted(set(vertices))
        for x in verts:
            if not 0 <= x < self.v:
                raise IndexOutOfRange(x, self.v)
        nbytes = (self.v + 7) // 8
        rows = []
        for lo in range(0, len(verts), INDUCED_BAND):
            chunk = verts[lo:lo + INDUCED_BAND]
            band = np.frombuffer(b"".join(self.rows[x].to_bytes(nbytes, "little") for x in chunk),
                                 dtype=np.uint8).reshape(len(chunk), nbytes)
            bits = np.unpackbits(band, axis=1, count=self.v, bitorder="little")[:, verts]
            rows.extend(int.from_bytes(r.tobytes(), "little")
                        for r in np.packbits(bits, axis=1, bitorder="little"))
        return SimpleGraph(rows, [self.labels[x] for x in verts])

    def contains_k5_clique(self) -> Optional[list[int]]:
        """Some 5-clique as a sorted vertex list, or None.

        Exact search over degree >= 4 vertices in ascending index order, so
        the witness is reproducible across runs.
        """
        cand0 = 0
        for i in range(self.v):
            if self.rows[i].bit_count() >= 4:
                cand0 |= 1 << i

        def extend(chosen: list[int], cand: int, need: int) -> Optional[list[int]]:
            if need == 0:
                return chosen
            if cand.bit_count() < need:
                return None
            while cand:
                u = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                found = extend(chosen + [u], cand & self.rows[u], need - 1)
                if found is not None:
                    return found
            return None

        return extend([], cand0, 5)

    # -- text formats ------------------------------------------------------

    def to_dot(self) -> str:
        """DOT `graph` document; vertex names are labels, edges emitted once."""
        lines = ["graph G {"]
        for i in range(self.v):
            lines.append(f"  {self.labels[i]};")
        for a, b in self.edges():
            lines.append(f"  {self.labels[a]} -- {self.labels[b]};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_edge_list(self) -> str:
        """Plain interop format: vertex count on line 1, then `a b` pairs."""
        lines = [str(self.v)]
        lines.extend(f"{a} {b}" for a, b in self.edges())
        return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> SimpleGraph:
    """Parse the to_edge_list format; '#' lines and blank lines are skipped.

    Malformed input raises ValueError naming the offending line. The vertex
    count is checked against MAX_EDGE_LIST_VERTICES before anything is
    allocated.
    """
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge-list text")
    no, header = lines[0]
    try:
        v = int(header)
    except ValueError:
        raise ValueError(f"line {no}: expected the vertex count, got {header!r}") from None
    if not 0 <= v <= MAX_EDGE_LIST_VERTICES:
        raise ValueError(
            f"line {no}: vertex count {v} is outside [0, {MAX_EDGE_LIST_VERTICES}]"
        )
    edges = []
    for no, ln in lines[1:]:
        try:
            a, b = (int(tok) for tok in ln.split())
        except ValueError:
            raise ValueError(f"line {no}: expected an edge 'a b', got {ln!r}") from None
        if not (0 <= a < v and 0 <= b < v):
            raise ValueError(f"line {no}: edge {a} {b} has an endpoint outside [0, {v})")
        if a == b:
            raise ValueError(f"line {no}: self-loop at vertex {a}")
        edges.append((a, b))
    return SimpleGraph.from_edges(v, edges)
