"""Planarity decisions: one linear-time left-right pass over the whole graph.

The left-right test follows Brandes' formulation (DFS orientation, then
conflict-pair constraints on back edges). It needs no block decomposition:
each connected component is oriented and tested from its own DFS root. Only
the verdict is computed, no embedding. The test suite cross-checks it
against an independent quadratic oracle (tests/planarity_oracle.py).

The test's state is flat lists of ints. Orientation numbers each oriented
edge as it creates it (an edge id), and src[e], dst[e] are its endpoints.
lowpt, lowpt2, nesting, ref, lowpt_edge and stack_bottom are indexed by edge
id; parent_edge (an edge id) and the out-edge list are kept per vertex. A
conflict pair is a 4-slot list [left.low, left.high, right.low, right.high].
-1 means "none": no parent edge at a DFS root, no ref, an empty slot of an
interval.
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


def _left_right_planar(adj: list[list[int]]) -> bool:
    """Left-right verdict for the graph with these adjacency lists.

    Each connected component is oriented and tested from its own DFS root,
    its lowest vertex id. Edges of different components never meet, so all
    roots share the per-edge lists, and a component that passes leaves the
    conflict-pair stack empty.
    """
    n = len(adj)
    size = sum(map(len, adj)) // 2  # each edge is oriented once
    height = [-1] * n
    parent_edge = [-1] * n
    out: list[list[int]] = [[] for _ in range(n)]  # tree edges and back edges
    src: list[int] = []
    dst: list[int] = []
    lowpt = [0] * size
    lowpt2 = [0] * size
    nesting = [0] * size
    ref = [-1] * size
    lowpt_edge = [-1] * size
    stack_bottom: list[Optional[list[int]]] = [None] * size
    resume = [0] * n  # position in out[x] of the tree edge being descended
    S: list[list[int]] = []  # conflict pairs [left.low, left.high, right.low, right.high]

    for root in range(n):
        if height[root] != -1 or not adj[root]:
            continue

        # -- phase 1: orientation ----------------------------------------------
        height[root] = 0
        order = [root]
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            x, p, nbrs = stack[-1]
            hx = height[x]
            for y in nbrs:
                if height[y] == -1:
                    e = len(src)
                    src.append(x)
                    dst.append(y)
                    out[x].append(e)
                    parent_edge[y] = e
                    height[y] = hx + 1
                    order.append(y)
                    stack.append((y, x, iter(adj[y])))
                    break
                if height[y] < hx and y != p:  # back edge to an ancestor
                    out[x].append(len(src))
                    src.append(x)
                    dst.append(y)
            else:
                stack.pop()
        if len(order) <= 4:
            continue  # every graph on at most 4 vertices is planar

        # lowpt/lowpt2 per oriented edge, children before parents.
        for x in reversed(order):
            hx = height[x]
            for e in out[x]:
                y = dst[e]
                if parent_edge[y] == e:  # tree edge: fold child edges
                    lp = lp2 = hx
                    for f in out[y]:
                        clp = lowpt[f]
                        if clp < lp:
                            lp2 = lp if lp < lowpt2[f] else lowpt2[f]
                            lp = clp
                        elif clp > lp:
                            if clp < lp2:
                                lp2 = clp
                        elif lowpt2[f] < lp2:
                            lp2 = lowpt2[f]
                else:
                    lp, lp2 = height[y], hx
                lowpt[e] = lp
                lowpt2[e] = lp2
                nesting[e] = 2 * lp + (lp2 < hx)
        by_nesting = nesting.__getitem__
        for x in order:
            out[x].sort(key=by_nesting)

        # -- phase 2: testing --------------------------------------------------
        # The walk keeps no stack: a finished vertex returns along its parent
        # edge, and resume[] says where its parent's out-edge scan stopped.
        x, i = root, 0
        while True:
            ox = out[x]
            if i < len(ox):
                ei = ox[i]
                stack_bottom[ei] = S[-1] if S else None
                y = dst[ei]
                if parent_edge[y] == ei:  # tree edge: descend, integrate ei on return
                    resume[x] = i
                    x, i = y, 0
                    continue
                lowpt_edge[ei] = ei  # back edge: its own conflict pair
                S.append([-1, -1, ei, ei])
            else:
                ei = parent_edge[x]
                if ei == -1:
                    break  # the root is finished
                u = src[ei]
                hu = height[u]
                # Trim back edges ending at u: drop conflict pairs whose
                # lowest return point is u, then cut u out of the top pair.
                while S:
                    ql, qh, rl, rh = S[-1]
                    if ql == -1:
                        low = lowpt[rl]
                    elif rl == -1:
                        low = lowpt[ql]
                    else:
                        low = min(lowpt[ql], lowpt[rl])
                    if low != hu:
                        break
                    S.pop()
                if S:
                    q = S[-1]
                    ql, qh, rl, rh = q
                    while qh != -1 and dst[qh] == u:
                        qh = ref[qh]
                    if qh == -1 and ql != -1:
                        ref[ql] = rl
                        ql = -1
                    while rh != -1 and dst[rh] == u:
                        rh = ref[rh]
                    if rh == -1 and rl != -1:
                        ref[rl] = ql
                        rl = -1
                    q[:] = ql, qh, rl, rh
                if lowpt[ei] < hu:  # ei has a return edge
                    qh = rh = -1
                    if S:
                        qh, rh = S[-1][1], S[-1][3]
                    if qh != -1 and (rh == -1 or lowpt[qh] > lowpt[rh]):
                        ref[ei] = qh
                    else:
                        ref[ei] = rh
                x, i = u, resume[u]

            # Integrate ei, the i-th out-edge of x.
            if lowpt[ei] < height[x]:  # ei has a return edge, so x is no root
                pe = parent_edge[x]
                if i == 0:
                    lowpt_edge[pe] = lowpt_edge[ei]
                else:
                    # Add constraints: merge the return edges of ei into the
                    # right interval of a new pair P ...
                    pll = plh = prl = prh = -1
                    bottom = stack_bottom[ei]
                    lpe = lowpt[pe]
                    while True:
                        ql, qh, rl, rh = S.pop()
                        if ql != -1 or qh != -1:
                            if rl != -1 or rh != -1:
                                return False
                            ql, qh, rl, rh = rl, rh, ql, qh
                        if lowpt[rl] > lpe:
                            if prl == -1 and prh == -1:
                                prh = rh
                            else:
                                ref[prl] = rh
                            prl = rl
                        else:  # align with the parent edge's lowpoint edge
                            ref[rl] = lowpt_edge[pe]
                        if (S[-1] if S else None) is bottom:
                            break
                    # ... and the conflicting return edges of earlier
                    # siblings into its left interval. -1 is a valid list
                    # index, so writes through a slot that may be -1 are
                    # guarded.
                    lei = lowpt[ei]
                    while S:
                        ql, qh, rl, rh = S[-1]
                        l_conflict = qh != -1 and lowpt[qh] > lei
                        r_conflict = rh != -1 and lowpt[rh] > lei
                        if not (l_conflict or r_conflict):
                            break
                        if r_conflict:
                            if l_conflict:
                                return False
                            ql, qh, rl, rh = rl, rh, ql, qh
                        S.pop()
                        if prl != -1:
                            ref[prl] = rh
                        if rl != -1:
                            prl = rl
                        if pll == -1 and plh == -1:
                            plh = qh
                        elif pll != -1:
                            ref[pll] = qh
                        pll = ql
                    if pll != -1 or plh != -1 or prl != -1 or prh != -1:
                        S.append([pll, plh, prl, prh])
            i += 1
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
    return PlanarityVerdict(_left_right_planar(g.adjacency_lists()), METHOD_LEFT_RIGHT)
