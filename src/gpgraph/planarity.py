"""Planarity decisions: one linear-time left-right pass over the whole graph.

The left-right test follows U. Brandes, "The Left-Right Planarity Test"
(2009): DFS orientation, then conflict-pair constraints on back edges. It
needs no block decomposition: each connected component is oriented and
tested from its own DFS root. Only the verdict is computed, no embedding.
The test suite cross-checks it against an independent quadratic oracle
(tests/planarity_oracle.py).

It reads the bitset rows (SimpleGraph.rows), with no adjacency lists;
is_planar counts edges once, for the Euler bound and the per-edge lists.
Every bit is taken from the top of a mask (bit_length() - 1) and cleared
with ^, so no row is negated: -b and ~b copy a whole row into two's
complement. The DFS is therefore the lowest-first DFS of the mirrored
labels i -> n - 1 - i, and the verdict does not depend on the order.

The test's state is flat lists of ints. Orientation numbers each oriented
edge as it creates it (an edge id): dst[e] is its head, and src[e] the tail
of a tree edge. lowpt, lowpt2, nesting and ref are indexed by edge id, and
so is stack_bottom, the height of the conflict-pair stack when a tree edge is
scanned, written for tree edges only; parent_edge (an edge id) and the
out-edge list are kept per vertex. A conflict pair is a 4-slot list
[left.low, left.high, right.low, right.high]. -1 means "none": no parent
edge at a DFS root, the end of a ref chain, an empty slot of an interval.
Only a back edge that is its tail's first out-edge pushes a pair of its
own. A later one is integrated where it is scanned: it seeds the right
interval of the new pair and goes through the same conflict merge as a
tree edge.
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


def _within_euler_bound(v: int, e: int) -> bool:
    return v < 3 or e <= 3 * v - 6


def euler_bound_check(g: SimpleGraph) -> bool:
    """Necessary condition for planarity: e <= 3v - 6 (v >= 3)."""
    return _within_euler_bound(g.v, g.edge_count())


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


def _left_right_planar(rows: list[int], size: int) -> bool:
    """Left-right verdict for the graph with these bitset rows and `size` edges.

    Each connected component is oriented and tested from its own DFS root,
    its highest vertex id, the components in descending order of their
    roots. Edges of different components never meet, so all roots share
    the per-edge lists, and a component that passes leaves the
    conflict-pair stack empty.

    Orientation is one DFS over the bitsets, with no adjacency lists. The
    next tree child of x is the highest bit of rows[x] & unvisited. The back
    edges of y are made when y is discovered, highest endpoint first, from
    rows[y] & visited: in an undirected DFS every neighbour visited before
    y, but its parent, is an ancestor of y. visited is kept beside
    unvisited, its complement, so neither mask is negated. A vertex's
    height is its depth on the DFS stack. When x finishes, each of its
    out-edges has its lowpoints, so they fold into x's parent edge and x's
    out-edges are sorted by nesting depth there.

    Testing walks the out-edges in that order. A tree edge records the
    stack height as its bottom, is descended, and is integrated on return:
    the pairs above its bottom merge into the right interval of a new pair
    P. A back edge after x's first out-edge is integrated at once, with P's
    right interval [ei, ei], or empty when it aligns with x's parent edge.
    Both then merge the conflicting pairs of x's earlier out-edges into P's
    left interval, in one shared loop.
    """
    n = len(rows)
    height = [-1] * n
    parent_edge = [-1] * n
    out: list[list[int]] = [[] for _ in range(n)]  # tree edges and back edges
    src = [0] * size
    dst = [0] * size
    lowpt = [0] * size
    lowpt2 = [0] * size
    nesting = [0] * size
    # ref chains the back edges of one interval, high to low, for the trim
    # walk only. The links only an embedding reads (side, ref of tree edges
    # and of dropped edges, lowpt_edge) are deliberately absent.
    ref = [-1] * size
    stack_bottom = [0] * size  # len(S) when a tree edge is scanned
    resume = [0] * n  # position in out[x] of the tree edge being descended
    S: list[list[int]] = []  # conflict pairs [left.low, left.high, right.low, right.high]
    by_nesting = nesting.__getitem__
    unvisited = (1 << n) - 1
    visited = 0  # the complement of unvisited, kept so no mask is negated
    e = 0  # the next edge id

    while unvisited:
        root = unvisited.bit_length() - 1
        bit = 1 << root
        unvisited ^= bit
        visited ^= bit
        if not rows[root]:
            continue  # an isolated vertex

        # -- phase 1: orientation, lowpoints and nesting order -----------------
        first_edge = e
        height[root] = 0
        stack = [root]
        while True:
            x = stack[-1]
            children = rows[x] & unvisited
            if children:
                y = children.bit_length() - 1
                bit = 1 << y
                unvisited ^= bit
                visited ^= bit
                hy = len(stack)
                height[y] = hy
                src[e] = x
                dst[e] = y
                out[x].append(e)
                parent_edge[y] = e
                e += 1
                stack.append(y)
                back = rows[y] & visited ^ (1 << x)  # visited neighbours but x
                out_y = out[y]
                while back:
                    w = back.bit_length() - 1
                    back ^= 1 << w
                    lp = height[w]
                    dst[e] = w
                    lowpt[e] = lp
                    lowpt2[e] = hy
                    # 2 * lp + 1 gives the same verdicts. Back edges enter out[y]
                    # before tree edges and the sort is stable, so each would only
                    # pass its lowpoint's non-chordal tree edges: 2lp, 2lp, 2lp + 1.
                    nesting[e] = 2 * lp
                    out_y.append(e)
                    e += 1
                continue
            # x is finished: fold its out-edges into its parent edge.
            stack.pop()
            out_x = out[x]
            out_x.sort(key=by_nesting)
            if not stack:
                break  # the root is finished
            hu = len(stack) - 1
            lp = lp2 = hu
            for f in out_x:
                clp = lowpt[f]
                if clp < lp:
                    lp2 = lp if lp < lowpt2[f] else lowpt2[f]
                    lp = clp
                elif clp > lp:
                    if clp < lp2:
                        lp2 = clp
                elif lowpt2[f] < lp2:
                    lp2 = lowpt2[f]
            pe = parent_edge[x]
            lowpt[pe] = lp
            lowpt2[pe] = lp2
            nesting[pe] = 2 * lp + (lp2 < hu)
        if e - first_edge < 9:
            continue  # a graph with fewer than 9 edges is planar: K3,3 has 9, K5 10

        # -- phase 2: testing --------------------------------------------------
        # The walk keeps no stack: a finished vertex returns along its parent
        # edge, and resume[] says where its parent's out-edge scan stopped.
        x, i = root, 0
        while True:
            ox = out[x]
            if i < len(ox):
                ei = ox[i]
                y = dst[ei]
                if parent_edge[y] == ei:  # tree edge: descend, integrate ei on return
                    stack_bottom[ei] = len(S)
                    resume[x] = i
                    x, i = y, 0
                    continue
                # A back edge, so x is no root; ei is its own return edge.
                if i == 0:  # the first out-edge: its pair stays on S
                    S.append([-1, -1, ei, ei])
                    i = 1
                    continue
                # A later back edge is integrated where it is scanned, with no
                # pair pushed and popped: P's right interval is [ei, ei], or
                # empty when ei aligns with the parent edge and is dropped.
                # Seeding [ei, ei] anyway gives the same verdicts. An aligned
                # ei has the least lowpoint at x, so the out-edges before it
                # are non-chordal tree edges of that lowpoint, and every return
                # edge they left on S ends at dst[ei]. The extra pair would sit
                # on the top one of theirs and be trimmed, popped and merged
                # with it, always beside an edge that ends where ei does.
                pll = plh = -1
                prl = prh = ei if lowpt[ei] > lowpt[parent_edge[x]] else -1
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
                    if qh == -1:
                        ql = -1
                    while rh != -1 and dst[rh] == u:
                        rh = ref[rh]
                    if rh == -1:
                        rl = -1
                    q[:] = ql, qh, rl, rh
                x, i = u, resume[u]
                # Integrate the tree edge ei, the i-th out-edge of x; the first
                # one's pairs stay on S.
                if i == 0 or lowpt[ei] >= height[x]:  # or ei has no return edge
                    i += 1
                    continue
                # Add constraints: merge the return edges of ei into the
                # right interval of a new pair P ...
                pll = plh = prl = prh = -1
                bottom = stack_bottom[ei]
                lpe = lowpt[parent_edge[x]]
                while True:
                    ql, qh, rl, rh = S.pop()
                    if ql != -1 or qh != -1:
                        if rl != -1 or rh != -1:
                            return False
                        ql, qh, rl, rh = rl, rh, ql, qh
                    if lowpt[rl] > lpe:  # else it aligns with the parent edge and is dropped
                        if prl == -1 and prh == -1:
                            prh = rh
                        else:
                            ref[prl] = rh
                        prl = rl
                    # This stops where `S[-1] is` the pair on top when ei was
                    # scanned would: no pair below ei's bottom was popped
                    # while its subtree was tested. Those pairs hold only
                    # return edges that end at x or at an ancestor of x. A
                    # trim in the subtree pops only pairs whose lowest edge
                    # ends at the vertex it returns to, a descendant of x. A
                    # merge there for a later out-edge f of a vertex w pops
                    # no deeper than the pair holding the lowest return edge
                    # of w's first out-edge. That pair is above the
                    # bottom, its lowpoint is at most lowpt[f] by the nesting
                    # order, and every edge of a pair under it has a lowpoint
                    # at most that pair's least, so none conflicts with f.
                    if len(S) == bottom:
                        break

            # ... and the conflicting return edges of earlier out-edges of x
            # into its left interval. -1 is a valid list index, so writes
            # through a slot that may be -1 are guarded.
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
    size = g.edge_count()
    if not _within_euler_bound(g.v, size):
        return PlanarityVerdict(False, METHOD_EULER_BOUND)
    return PlanarityVerdict(_left_right_planar(g.rows, size), METHOD_LEFT_RIGHT)
