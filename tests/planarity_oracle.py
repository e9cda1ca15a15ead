"""Independent quadratic planarity oracle for cross-checking is_planar.

A Demoucron-style algorithm (Demoucron, Malgrange and Pertuiset, 1964):
grow a plane subgraph face by face, always embedding a path from a fragment
with the fewest admissible faces. It splits the graph into biconnected
blocks itself, with the public biconnected_components, and embeds each block
separately; is_planar makes no such split. The two must agree on every input.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from gpgraph.graphs import SimpleGraph
from gpgraph.planarity import biconnected_components

ORACLE_VERTEX_LIMIT = 2000


class TooLarge(ValueError):
    def __init__(self, v: int):
        super().__init__(f"oracle is quadratic and capped at {ORACLE_VERTEX_LIMIT} vertices, got {v}")


def _find_cycle(n: int, adj: list[list[int]]) -> Optional[list[int]]:
    parent = [-2] * n
    parent[0] = -1
    stack = [(0, 0)]
    path = [0]
    on_path = [False] * n
    on_path[0] = True
    while stack:
        x, i = stack[-1]
        if i < len(adj[x]):
            stack[-1] = (x, i + 1)
            y = adj[x][i]
            if parent[x] == y:
                continue
            if parent[y] == -2:
                parent[y] = x
                stack.append((y, 0))
                path.append(y)
                on_path[y] = True
            elif on_path[y]:
                return path[path.index(y):]
        else:
            stack.pop()
            z = path.pop()
            on_path[z] = False
    return None


def _demoucron_block(n: int, edges: list[tuple[int, int]]) -> bool:
    """Planarity of one biconnected block by iterative face embedding."""
    if n <= 3:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    edge_set = set()
    for a, b in edges:
        if (a, b) in edge_set or (b, a) in edge_set:
            continue
        edge_set.add((a, b))
        adj[a].append(b)
        adj[b].append(a)

    cycle = _find_cycle(n, adj)
    if cycle is None:
        return True  # forest block (should not occur for real blocks)

    embedded = [False] * n
    for x in cycle:
        embedded[x] = True
    emb_edges = set()
    for i, x in enumerate(cycle):
        y = cycle[(i + 1) % len(cycle)]
        emb_edges.add(frozenset((x, y)))
    faces: list[list[int]] = [list(cycle), list(cycle)]

    while True:
        # Fragments: chords between embedded vertices, and connected pieces
        # of unembedded vertices with their attachment edges.
        fragments: list[tuple[tuple[int, ...], Optional[tuple[int, int]], list[int]]] = []
        for a, b in sorted(edge_set):
            if embedded[a] and embedded[b] and frozenset((a, b)) not in emb_edges:
                fragments.append(((a, b) if a < b else (b, a), (a, b), []))
        comp_seen = [False] * n
        for s in range(n):
            if embedded[s] or comp_seen[s]:
                continue
            interior = []
            attach = set()
            queue = deque([s])
            comp_seen[s] = True
            while queue:
                x = queue.popleft()
                interior.append(x)
                for y in adj[x]:
                    if embedded[y]:
                        attach.add(y)
                    elif not comp_seen[y]:
                        comp_seen[y] = True
                        queue.append(y)
            fragments.append((tuple(sorted(attach)), None, interior))

        if not fragments:
            return True

        face_sets = [set(f) for f in faces]
        best = None  # (admissible count, fragment idx, admissible face idx)
        for fi, (attach, _, _) in enumerate(fragments):
            count = 0
            first_face = -1
            for k, fs in enumerate(face_sets):
                if all(x in fs for x in attach):
                    count += 1
                    if first_face < 0:
                        first_face = k
            if count == 0:
                return False
            if best is None or count < best[0]:
                best = (count, fi, first_face)

        _, fi, face_idx = best
        attach, chord, interior = fragments[fi]

        if chord is not None:
            path = list(chord)
        else:
            # BFS from the smallest attachment through this fragment's
            # interior vertices to any other attachment vertex.
            a = attach[0]
            targets = set(attach[1:])
            prev = {x: -1 for x in interior}
            queue = deque()
            end = None
            for y in sorted(adj[a]):
                if y in prev and prev[y] == -1:
                    prev[y] = a
                    queue.append(y)
            while queue and end is None:
                x = queue.popleft()
                for y in adj[x]:
                    if embedded[y]:
                        if y in targets:
                            end = (x, y)
                            break
                    elif y in prev and prev[y] == -1:
                        prev[y] = x
                        queue.append(y)
            assert end is not None, "fragment must reach a second attachment"
            mid, b = end
            back = [b, mid]
            while back[-1] != a:
                back.append(prev[back[-1]])
            path = list(reversed(back))

        # Embed the path into the chosen face: split its boundary cycle at
        # the path endpoints. Boundaries of a 2-connected plane subgraph are
        # simple cycles, so each endpoint occurs exactly once.
        a, b = path[0], path[-1]
        face = faces[face_idx]
        i, j = face.index(a), face.index(b)
        seg1 = face[i:j + 1] if i <= j else face[i:] + face[:j + 1]
        seg2 = face[j:i + 1] if j <= i else face[j:] + face[:i + 1]
        inner = path[1:-1]
        faces[face_idx] = seg1 + list(reversed(inner))
        faces.append(seg2 + list(inner))
        for x in inner:
            embedded[x] = True
        for x, y in zip(path, path[1:]):
            emb_edges.add(frozenset((x, y)))


def is_planar_oracle(g: SimpleGraph) -> bool:
    """Independent quadratic planarity decision (Demoucron-style).

    Must agree with is_planar on every input; capped at 2000 vertices.
    """
    if g.v > ORACLE_VERTEX_LIMIT:
        raise TooLarge(g.v)
    for verts, edges in biconnected_components(g):
        pos = {x: i for i, x in enumerate(verts)}
        if not _demoucron_block(len(verts), [(pos[a], pos[b]) for a, b in edges]):
            return False
    return True
