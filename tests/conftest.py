"""Shared graph builders and small oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from typing import Optional

import numpy as np

from gpgraph.catalog import build, parse_spec
from gpgraph.graphs import SimpleGraph
from gpgraph.groups import FiniteGroup


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    return SimpleGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> SimpleGraph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return SimpleGraph.from_edges(10, edges)


def grid_graph(rows: int, cols: int) -> SimpleGraph:
    def at(i, j):
        return i * cols + j

    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((at(i, j), at(i, j + 1)))
            if i + 1 < rows:
                edges.append((at(i, j), at(i + 1, j)))
    return SimpleGraph.from_edges(rows * cols, edges)


def wheel_graph(spokes: int) -> SimpleGraph:
    """W_n: a cycle of n vertices plus a hub joined to all of them."""
    edges = [(i, (i + 1) % spokes) for i in range(spokes)]
    edges += [(spokes, i) for i in range(spokes)]
    return SimpleGraph.from_edges(spokes + 1, edges)


def stacked_triangulation(
    n: int, seed: int, *, plant: Optional[str] = None, drop: float = 0.1
) -> SimpleGraph:
    """A seeded graph whose planarity is known from how it is built.

    A random stacked triangulation (Apollonian network) on n >= 3 vertices,
    with a `drop` share of its 3n - 6 edges removed, is planar. plant="k5"
    or plant="k33" then joins 5 or 6 random branch vertices by fresh paths
    of 1 to 4 edges, which plants a subdivided K5 or K3,3 and makes the
    graph non-planar; each path of length L adds L - 1 vertices. Vertex ids
    are shuffled at the end, so DFS order does not follow construction order.
    """
    rng = random.Random(seed)
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2), (0, 1, 2)]  # inner and outer face of the first triangle
    for w in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        faces[i] = (a, b, w)
        faces += [(b, c, w), (a, c, w)]
        edges.update(((a, w), (b, w), (c, w)))
    edges.difference_update(rng.sample(sorted(edges), int(len(edges) * drop)))
    if plant is not None:
        branch_count, pairs = {
            "k5": (5, itertools.combinations(range(5), 2)),
            "k33": (6, itertools.product(range(3), range(3, 6))),
        }[plant]
        branch = rng.sample(range(n), branch_count)
        for i, j in pairs:
            path = [branch[i]] + list(range(n, n + rng.randint(0, 3))) + [branch[j]]
            n += len(path) - 2
            edges.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
    perm = list(range(n))
    rng.shuffle(perm)
    return SimpleGraph.from_edges(n, ((perm[a], perm[b]) for a, b in edges))


def disjoint_union(*graphs: SimpleGraph) -> SimpleGraph:
    """The graphs side by side, each shifted past the vertices before it."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(a + offset, b + offset) for a, b in g.edges()]
        offset += g.v
    return SimpleGraph.from_edges(offset, edges)


def partition_count(k: int) -> int:
    """Number of integer partitions of k (independent DP oracle)."""
    counts = [0] * (k + 1)
    counts[0] = 1
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            counts[total] += counts[total - part]
    return counts[k]


def relabelled_file_group(tmp_path, spec: str, name: str = "relabelled.tbl") -> FiniteGroup:
    """`spec` written as a `file:` table under a relabelling that moves the
    identity off index 0, then loaded back: one table leaf."""
    table = np.array(build(parse_spec(spec)).table)
    perm = np.random.default_rng(7).permutation(len(table))
    if perm[0] == 0:
        perm[[0, 1]] = perm[[1, 0]]
    relabelled = np.empty_like(table)
    relabelled[perm[:, None], perm[None, :]] = perm[table]
    path = tmp_path / name
    path.write_text(f"{len(table)}\n" + "\n".join(" ".join(map(str, r)) for r in relabelled) + "\n")
    return build(parse_spec(f"file:{path}"))
