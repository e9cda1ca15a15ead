"""Planarity decisions: one linear-time left-right pass over the whole graph.

The left-right test follows Brandes' formulation (DFS orientation, then
conflict-pair constraints on back edges). It needs no block decomposition:
each connected component is oriented and tested from its own DFS root. Only
the verdict is computed, no embedding. The test suite cross-checks it
against an independent quadratic oracle (tests/planarity_oracle.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import SimpleGraph

METHOD_LEFT_RIGHT = "left-right"
METHOD_EULER_BOUND = "euler-bound"
METHOD_K5_CLIQUE = "k5-clique"


@dataclass(frozen=True)
class PlanarityVerdict:
    planar: bool
    method: str
    witness: Optional[tuple[int, ...]] = None  # K_5 clique, only for METHOD_K5_CLIQUE


def euler_bound_check(g: SimpleGraph) -> bool:
    """Necessary condition for planarity: e <= 3v - 6 (v >= 3)."""
    if g.v < 3:
        return True
    return g.edge_count() <= 3 * g.v - 6


def biconnected_components(g: SimpleGraph) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """Blocks as (vertices, edges) pairs; isolated vertices get edgeless blocks."""
    v = g.v
    adj = g.adjacency_lists()
    disc = [-1] * v
    low = [0] * v
    parent = [-1] * v
    timer = 0
    edge_stack: list[tuple[int, int]] = []
    blocks: list[tuple[list[int], list[tuple[int, int]]]] = []

    for root in range(v):
        if disc[root] != -1:
            continue
        if not adj[root]:
            blocks.append(([root], []))
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, 0)]
        while stack:
            x, i = stack[-1]
            if i < len(adj[x]):
                stack[-1] = (x, i + 1)
                y = adj[x][i]
                if disc[y] == -1:
                    parent[y] = x
                    disc[y] = low[y] = timer
                    timer += 1
                    edge_stack.append((x, y))
                    stack.append((y, 0))
                elif y != parent[x] and disc[y] < disc[x]:
                    edge_stack.append((x, y))
                    low[x] = min(low[x], disc[y])
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                low[u] = min(low[u], low[x])
                if low[x] >= disc[u]:
                    # u is an articulation point (or the root): pop the block
                    # of edges discovered since (u, x).
                    comp_edges = []
                    while edge_stack:
                        e = edge_stack.pop()
                        comp_edges.append(e)
                        if e == (u, x):
                            break
                    verts = sorted({w for e in comp_edges for w in e})
                    blocks.append((verts, comp_edges))
    return blocks


# ---------------------------------------------------------------------------
# Left-right planarity test (verdict only)
# ---------------------------------------------------------------------------


class _Interval:
    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None

    def copy(self) -> "_Interval":
        return _Interval(self.low, self.high)


class _ConflictPair:
    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        self.left = left if left is not None else _Interval()
        self.right = right if right is not None else _Interval()

    def swap(self) -> None:
        self.left, self.right = self.right, self.left


class _NotPlanar(Exception):
    pass


class _LRTest:
    """Left-right state for a whole graph, adjacency lists in.

    Call test(root) once per connected component, from a vertex it has not
    yet reached; each vertex is oriented once. Edges of different components
    never meet, so the per-edge tables are shared by all roots, and a
    component that passes leaves the conflict-pair stack empty.
    """

    def __init__(self, n: int, adj: list[list[int]]):
        self.adj = adj
        self.height = [-1] * n
        self.parent_edge: list[Optional[tuple[int, int]]] = [None] * n
        self.oriented: list[list[int]] = [[] for _ in range(n)]  # tree children + back targets
        self.lowpt: dict[tuple[int, int], int] = {}
        self.lowpt2: dict[tuple[int, int], int] = {}
        self.nesting: dict[tuple[int, int], int] = {}
        self.ordered: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        # Testing phase state
        self.S: list[_ConflictPair] = []
        self.stack_bottom: dict[tuple[int, int], Optional[_ConflictPair]] = {}
        self.lowpt_edge: dict[tuple[int, int], tuple[int, int]] = {}
        self.ref: dict[tuple[int, int], Optional[tuple[int, int]]] = {}

    # -- phase 1: orientation ------------------------------------------------

    def orient(self, root: int) -> int:
        """Orient root's component; return its number of vertices."""
        self.height[root] = 0
        dfs_order = [root]
        stack = [(root, 0)]
        while stack:
            x, i = stack[-1]
            if i < len(self.adj[x]):
                stack[-1] = (x, i + 1)
                y = self.adj[x][i]
                pe = self.parent_edge[x]
                if pe is not None and y == pe[0]:
                    continue  # the tree edge to the parent, already oriented
                if self.height[y] == -1:
                    self.parent_edge[y] = (x, y)
                    self.height[y] = self.height[x] + 1
                    dfs_order.append(y)
                    self.oriented[x].append(y)
                    stack.append((y, 0))
                elif self.height[y] < self.height[x]:
                    self.oriented[x].append(y)  # back edge to an ancestor
            else:
                stack.pop()

        # lowpt/lowpt2 per oriented edge, children before parents.
        for x in reversed(dfs_order):
            for y in self.oriented[x]:
                e = (x, y)
                if self.parent_edge[y] == e:  # tree edge: fold child edges
                    lp = lp2 = self.height[x]
                    for z in self.oriented[y]:
                        clp, clp2 = self.lowpt[(y, z)], self.lowpt2[(y, z)]
                        if clp < lp:
                            lp2 = min(lp, clp2)
                            lp = clp
                        elif clp > lp:
                            lp2 = min(lp2, clp)
                        else:
                            lp2 = min(lp2, clp2)
                else:
                    lp, lp2 = self.height[y], self.height[x]
                self.lowpt[e] = lp
                self.lowpt2[e] = lp2
                self.nesting[e] = 2 * lp + (1 if lp2 < self.height[x] else 0)

        for x in dfs_order:
            self.ordered[x] = sorted(
                ((x, y) for y in self.oriented[x]), key=lambda e: self.nesting[e]
            )
        return len(dfs_order)

    # -- phase 2: testing ------------------------------------------------------

    def _conflicting(self, interval: _Interval, b: tuple[int, int]) -> bool:
        return not interval.empty() and self.lowpt[interval.high] > self.lowpt[b]

    def _lowest(self, pair: _ConflictPair) -> int:
        if pair.left.empty():
            return self.lowpt[pair.right.low]
        if pair.right.empty():
            return self.lowpt[pair.left.low]
        return min(self.lowpt[pair.left.low], self.lowpt[pair.right.low])

    def _add_constraints(self, ei: tuple[int, int], e: tuple[int, int]) -> None:
        pair = _ConflictPair()
        # Merge return edges of ei into pair.right (at least one conflict
        # pair lies above stack_bottom[ei] whenever ei has a return edge).
        while True:
            q = self.S.pop()
            if not q.left.empty():
                q.swap()
            if not q.left.empty():
                raise _NotPlanar()
            if self.lowpt[q.right.low] > self.lowpt[e]:
                if pair.right.empty():
                    pair.right.high = q.right.high
                else:
                    self.ref[pair.right.low] = q.right.high
                pair.right.low = q.right.low
            else:
                # Align with the parent edge's lowpoint edge.
                self.ref[q.right.low] = self.lowpt_edge[e]
            if (self.S[-1] if self.S else None) is self.stack_bottom[ei]:
                break
        # Merge conflicting return edges of earlier siblings into pair.left.
        while self.S and (
            self._conflicting(self.S[-1].left, ei) or self._conflicting(self.S[-1].right, ei)
        ):
            q = self.S.pop()
            if self._conflicting(q.right, ei):
                q.swap()
            if self._conflicting(q.right, ei):
                raise _NotPlanar()
            self.ref[pair.right.low] = q.right.high
            if q.right.low is not None:
                pair.right.low = q.right.low
            if pair.left.empty():
                pair.left.high = q.left.high
            else:
                self.ref[pair.left.low] = q.left.high
            pair.left.low = q.left.low
        if not (pair.left.empty() and pair.right.empty()):
            self.S.append(pair)

    def _trim_back_edges(self, u: int) -> None:
        # Drop conflict pairs whose lowest return point is u.
        while self.S and self._lowest(self.S[-1]) == self.height[u]:
            self.S.pop()
        if self.S:
            pair = self.S.pop()
            while pair.left.high is not None and pair.left.high[1] == u:
                pair.left.high = self.ref.get(pair.left.high)
            if pair.left.high is None and pair.left.low is not None:
                self.ref[pair.left.low] = pair.right.low
                pair.left.low = None
            while pair.right.high is not None and pair.right.high[1] == u:
                pair.right.high = self.ref.get(pair.right.high)
            if pair.right.high is None and pair.right.low is not None:
                self.ref[pair.right.low] = pair.left.low
                pair.right.low = None
            self.S.append(pair)

    def test(self, root: int) -> bool:
        """Orient and test root's component."""
        if self.orient(root) <= 4:
            return True  # every graph on at most 4 vertices is planar
        ENTER, INTEGRATE = 0, 1
        stack: list[tuple[int, int, int]] = [(ENTER, root, 0)]
        try:
            while stack:
                kind, x, i = stack[-1]
                if kind == ENTER:
                    if i >= len(self.ordered[x]):
                        stack.pop()
                        pe = self.parent_edge[x]
                        if pe is not None:
                            u = pe[0]
                            self._trim_back_edges(u)
                            if self.lowpt[pe] < self.height[u]:  # pe has a return edge
                                top = self.S[-1] if self.S else _ConflictPair()
                                hl, hr = top.left.high, top.right.high
                                if hl is not None and (
                                    hr is None or self.lowpt[hl] > self.lowpt[hr]
                                ):
                                    self.ref[pe] = hl
                                else:
                                    self.ref[pe] = hr
                        continue
                    ei = self.ordered[x][i]
                    self.stack_bottom[ei] = self.S[-1] if self.S else None
                    stack[-1] = (ENTER, x, i + 1)
                    y = ei[1]
                    if self.parent_edge[y] == ei:  # tree edge: recurse, then integrate
                        stack.append((INTEGRATE, x, i))
                        stack.append((ENTER, y, 0))
                    else:  # back edge: push its own conflict pair, then integrate
                        self.lowpt_edge[ei] = ei
                        self.S.append(_ConflictPair(right=_Interval(ei, ei)))
                        stack.append((INTEGRATE, x, i))
                else:
                    stack.pop()
                    ei = self.ordered[x][i]
                    if self.lowpt[ei] < self.height[x]:  # ei has a return edge
                        pe = self.parent_edge[x]
                        if i == 0:
                            if pe is not None:
                                self.lowpt_edge[pe] = self.lowpt_edge[ei]
                        else:
                            self._add_constraints(ei, pe)
        except _NotPlanar:
            return False
        return True


def is_planar(g: SimpleGraph, *, find_k5_witness: bool = False) -> PlanarityVerdict:
    """Planarity verdict for an arbitrary simple graph.

    Pipeline: optional K_5-clique probe (only when a witness is requested),
    Euler edge-count bound, then one left-right pass over the whole graph.
    """
    if find_k5_witness:
        clique = g.contains_k5_clique()
        if clique is not None:
            return PlanarityVerdict(False, METHOD_K5_CLIQUE, tuple(clique))
    if not euler_bound_check(g):
        return PlanarityVerdict(False, METHOD_EULER_BOUND)
    lr = _LRTest(g.v, g.adjacency_lists())
    for root in range(g.v):
        if lr.height[root] == -1 and lr.adj[root] and not lr.test(root):
            return PlanarityVerdict(False, METHOD_LEFT_RIGHT)
    return PlanarityVerdict(True, METHOD_LEFT_RIGHT)
