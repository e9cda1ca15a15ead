"""The three benchmark workloads: seeded inputs, operations and answer checks.

Each workload's `setup(seed, workdir)` returns the list of `Op`s of one pass.
An op's `run` calls gpgraph and returns its output; `check` compares that
output with an answer that does not come from gpgraph and returns an error
message, or None when the output is right. Checks run outside the timed
region.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import gpgraph as gp

import reference as ref

CONVENTIONS = ("strict", "strict-id", "punctured", "full")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    state: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# verify-96: the paper's own command
# ---------------------------------------------------------------------------

VERIFY_MAX_ORDER = 96


def setup_verify(seed: int, workdir: str, max_order: int = VERIFY_MAX_ORDER) -> list[Op]:
    """One op: `gpgraph verify --max-order 96 --json FILE --workers 1`.

    The command has no inputs to draw, so the seed changes nothing here.
    """
    cli = importlib.import_module("gpgraph.cli")
    path = os.path.join(workdir, "verify.json")
    argv = ["verify", "--max-order", str(max_order), "--json", path, "--workers", "1"]
    digests: list[str] = []

    def run():
        if os.path.exists(path):
            os.remove(path)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(path, "rb") as fh:
            return code, fh.read()

    def check(out) -> Optional[str]:
        code, data = out
        digest = hashlib.sha256(data).hexdigest()
        digests.append(digest)
        if code != 0:
            return f"exit code {code}"
        errors = ref.verify_report_errors(json.loads(data))
        if errors:
            return "; ".join(errors)
        if digest != digests[0]:
            return f"canonical JSON changed between repetitions: {digest} != {digests[0]}"
        return None

    return [Op(f"verify --max-order {max_order}", run, check, {"digests": digests})]


# ---------------------------------------------------------------------------
# group-queries: single-group `gpgraph check` queries plus P(G)
# ---------------------------------------------------------------------------

# Each slot lists alternatives; the seed draws one, its convention and, for
# file slots, the relabelling. Alternatives in a slot cost about the same on
# the seed code (within about 7%), so a pass takes about as long for every
# seed. A non-cyclic group has no generator: its vertex sets under the four
# conventions differ by at most the identity, so every convention costs the
# same. Cyclic groups keep to a pair of conventions that agree up to the
# identity.
ANY = CONVENTIONS
WITH_GENERATORS = ("punctured", "full")
WITHOUT_GENERATORS = ("strict", "strict-id")

_CATALOG_SLOTS = (
    # the heavy groups, order 343 to 720
    (("symmetric:6",), ANY),
    (("heisenberg:7",), ANY),
    (("gq:512", "dicyclic:128"), ANY),
    (("elemab:2,9", "abelian:2,2,2,2,2,2,2,2,2"), ANY),
    (("dihedral:360", "product:(symmetric:5)x(cyclic:6)"), ANY),
    (("dihedral:256",), ANY),
    # order 96 to 350
    (("cyclic:122", "cyclic:96", "cyclic:121", "cyclic:97", "cyclic:126"), WITH_GENERATORS),
    (("cyclic:173", "cyclic:131", "cyclic:176", "cyclic:163", "cyclic:129"), WITH_GENERATORS),
    (("cyclic:120", "cyclic:171", "cyclic:183", "cyclic:96", "cyclic:177"), WITHOUT_GENERATORS),
    (("cyclic:156", "cyclic:182", "cyclic:165", "cyclic:202", "cyclic:132"), WITHOUT_GENERATORS),
    (("abelian:50,2", "abelian:36,3", "abelian:62,2", "abelian:28,4", "abelian:60,2"), ANY),
    (("abelian:84,2", "abelian:74,2", "abelian:40,4", "abelian:30,6", "abelian:57,3"), ANY),
    (("abelian:128,2", "abelian:56,4", "abelian:122,2", "abelian:72,3", "abelian:102,2"), ANY),
    (("dihedral:72", "dihedral:75", "dihedral:76"), ANY),
    (("dihedral:119", "dihedral:120", "dihedral:121", "dihedral:115"), ANY),
    (("dihedral:163", "dihedral:136", "dihedral:175", "dihedral:167", "dihedral:133"), ANY),
    (("dicyclic:28", "dicyclic:27", "dicyclic:26", "dicyclic:33"), ANY),
    (("dicyclic:43", "dicyclic:40", "dicyclic:42"), ANY),
    (("dicyclic:54", "dicyclic:56", "dicyclic:53", "dicyclic:63", "dicyclic:48"), ANY),
    (("gq:128", "dicyclic:32"), ANY),
    (("gq:256", "dicyclic:64"), ANY),
    (("heisenberg:5",), ANY),
    (("symmetric:5",), ANY),
    (("product:(dihedral:11)x(cyclic:6)", "product:(dihedral:3)x(cyclic:18)",
      "product:(dihedral:6)x(cyclic:12)", "product:(dihedral:9)x(cyclic:9)",
      "product:(dihedral:13)x(cyclic:5)"), ANY),
    (("product:(dihedral:6)x(cyclic:15)", "product:(dihedral:6)x(abelian:8,2)",
      "product:(dihedral:3)x(abelian:14,2)", "product:(dihedral:10)x(cyclic:10)",
      "product:(dihedral:4)x(abelian:10,2)"), ANY),
    (("product:(dicyclic:10)x(cyclic:4)", "product:(dicyclic:8)x(abelian:2,2)",
      "product:(dicyclic:6)x(cyclic:5)", "product:(dicyclic:3)x(cyclic:11)"), ANY),
    (("product:(dicyclic:2)x(cyclic:22)", "product:(dicyclic:2)x(cyclic:21)",
      "product:(dicyclic:9)x(abelian:4,2)", "product:(dicyclic:5)x(cyclic:9)",
      "product:(dicyclic:3)x(cyclic:17)"), ANY),
    (("product:(gq:16)x(cyclic:12)", "product:(gq:8)x(cyclic:20)",
      "product:(gq:8)x(cyclic:17)", "product:(gq:8)x(cyclic:18)"), ANY),
    (("product:(heisenberg:3)x(abelian:4,2)", "product:(heisenberg:3)x(abelian:6,2)",
      "product:(heisenberg:3)x(cyclic:7)"), ANY),
    (("product:(symmetric:4)x(cyclic:9)", "product:(symmetric:4)x(abelian:6,2)"), ANY),
)

# Slots loaded from `file:` Cayley tables of order <= 256, fully validated.
# Their alternatives also have about the same order, so parsing costs the same.
_FILE_SLOTS = (
    (("cyclic:122", "cyclic:121", "cyclic:126"), WITH_GENERATORS),
    (("elemab:2,7", "abelian:2,2,2,2,2,2,2"), ANY),
    (("elemab:3,5", "abelian:3,3,3,3,3"), ANY),
    (("heisenberg:5",), ANY),
    (("symmetric:5",), ANY),
    (("dihedral:78", "dihedral:79", "dihedral:80", "dihedral:81"), ANY),
    (("dicyclic:40", "dicyclic:42", "dicyclic:43"), ANY),
    (("product:(dihedral:6)x(cyclic:12)", "product:(dihedral:8)x(cyclic:9)"), ANY),
    (("product:(heisenberg:3)x(abelian:4,2)", "product:(heisenberg:3)x(cyclic:7)"), ANY),
    (("product:(gq:8)x(cyclic:18)", "product:(gq:8)x(cyclic:17)"), ANY),
)


def _write_table(spec: tuple, path: str, rng: random.Random) -> None:
    """Cayley table file of `spec` under a seeded relabelling that moves the
    identity off index 0."""
    group = ref.construct(spec)
    labels = list(group.elements)
    rng.shuffle(labels)
    if labels[0] == group.identity:
        swap = rng.randrange(1, len(labels))
        labels[0], labels[swap] = labels[swap], labels[0]
    rows = ref.cayley_rows(group, labels)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {ref.spec_text(spec)}, relabelled\n{len(rows)}\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in rows)


def query(spec_text: str, convention: str) -> dict:
    """The `gpgraph check` path for one group, then P(G) under the same convention."""
    group = gp.build(gp.parse_spec(spec_text))
    conv = gp.VertexConvention.from_flag(convention)
    graph = gp.generalized_power_graph(group, conv)
    complete = graph.is_complete()
    comps = graph.connected_components()
    all_complete = all(graph.induced_subgraph(c).is_complete() for c in comps)
    planar = gp.is_planar(graph).planar
    pg = gp.power_graph(group, conv)
    return {
        "v": graph.v,
        "e": graph.edge_count(),
        "complete": complete,
        "components": len(comps),
        "components_complete": all_complete,
        "planar": planar,
        "pg_v": pg.v,
        "pg_e": pg.edge_count(),
    }


def _query_op(spec: tuple, convention: str, text: str) -> Op:
    op = Op(f"{text} {convention}", lambda: query(text, convention), None)

    def check(out) -> Optional[str]:
        if "answer" not in op.state:
            op.state["answer"] = ref.query_answer(spec, convention)
        want = op.state["answer"]
        wrong = {k: (out[k], v) for k, v in want.items() if out[k] != v}
        # Euler's bound is the part of the planarity verdict checkable here.
        v, e = want["v"], want["e"]
        if v >= 3 and e > 3 * v - 6 and out["planar"]:
            wrong["planar"] = (True, False)
        return f"{op.label}: (got, want) {wrong}" if wrong else None

    op.check = check
    return op


def setup_group_queries(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    slots = [(alts, convs, False) for alts, convs in _CATALOG_SLOTS]
    slots += [(alts, convs, True) for alts, convs in _FILE_SLOTS]
    ops = []
    for i, (alternatives, conventions, from_file) in enumerate(slots):
        text = rng.choice(alternatives)
        spec = ref.parse(text)
        if from_file:
            path = os.path.join(workdir, f"group-{i}.tbl")
            _write_table(spec, path, rng)
            text = f"file:{path}"
        ops.append(_query_op(spec, rng.choice(conventions), text))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# planarity-graphs: is_planar on graphs whose planarity is known by construction
# ---------------------------------------------------------------------------

PLANAR, K5_SUBDIVISION, K33_SUBDIVISION, K5_CLIQUE, OVER_EULER = (
    "planar", "k5-subdivision", "k33-subdivision", "k5-clique", "over-euler")

# Every fourth call asks for a K5 witness; these slots carry the probe.
_PROBE_KINDS = (K5_CLIQUE, PLANAR, K5_SUBDIVISION, K5_CLIQUE, K33_SUBDIVISION,
                PLANAR, K5_CLIQUE, OVER_EULER, PLANAR, K5_CLIQUE)
_PLAIN_KINDS = (PLANAR, K5_SUBDIVISION, PLANAR, K33_SUBDIVISION, PLANAR, K5_SUBDIVISION,
                PLANAR, K33_SUBDIVISION, PLANAR, OVER_EULER) * 3
PLANARITY_OPS = len(_PROBE_KINDS) + len(_PLAIN_KINDS)
MIN_VERTICES, MAX_VERTICES = 200, 2000


def _stacked_triangulation(n: int, rng: random.Random) -> set[tuple[int, int]]:
    """Random Apollonian network on n >= 3 vertices: 3n - 6 edges, planar."""
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2), (0, 1, 2)]  # inner and outer face of the first triangle
    for w in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        faces[i] = (a, b, w)
        faces.append((b, c, w))
        faces.append((a, c, w))
        edges.update(((a, w), (b, w), (c, w)))
    return edges


def _plant(edges: set, n: int, branch_count: int, pairs, rng: random.Random,
           max_len: int) -> int:
    """Join branch vertices of the base graph by fresh paths; returns the new n."""
    branch = rng.sample(range(n), branch_count)
    for i, j in pairs:
        length = rng.randint(1, max_len)
        path = [branch[i]] + list(range(n, n + length - 1)) + [branch[j]]
        n += length - 1
        edges.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
    return n


def _k5_pairs():
    return [(i, j) for i in range(5) for j in range(i + 1, 5)]


def _k33_pairs():
    return [(i, j) for i in range(3) for j in range(3, 6)]


def _graph(kind: str, size: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A graph of about `size` vertices whose planarity is known from `kind`."""
    base = size - 20 if kind in (K5_SUBDIVISION, K33_SUBDIVISION) else size
    edges = _stacked_triangulation(base, rng)
    n = base
    if kind == OVER_EULER:
        extra = 3 * n // 20
        while extra:
            a, b = rng.sample(range(n), 2)
            e = (min(a, b), max(a, b))
            if e not in edges:
                edges.add(e)
                extra -= 1
    else:
        drop = rng.sample(sorted(edges), len(edges) // 10)
        edges.difference_update(drop)
    if kind == K5_SUBDIVISION:
        n = _plant(edges, n, 5, _k5_pairs(), rng, max_len=4)
    elif kind == K33_SUBDIVISION:
        n = _plant(edges, n, 6, _k33_pairs(), rng, max_len=4)
    elif kind == K5_CLIQUE:
        n = _plant(edges, n, 5, _k5_pairs(), rng, max_len=1)
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges)


def _planarity_op(index: int, kind: str, n: int, edges: list[tuple[int, int]]) -> Op:
    graph = gp.SimpleGraph.from_edges(n, edges)
    probe = index % 4 == 3
    expect_planar = kind == PLANAR
    label = f"#{index} {kind} v={n} e={len(edges)}{' k5-probe' if probe else ''}"
    edge_set = set(edges)

    def run():
        return gp.is_planar(graph, find_k5_witness=probe)

    def check(verdict) -> Optional[str]:
        if verdict.planar != expect_planar:
            return f"{label}: planar={verdict.planar}"
        if verdict.witness is not None:
            w = sorted(verdict.witness)
            if len(w) != 5 or any((a, b) not in edge_set for i, a in enumerate(w) for b in w[i + 1:]):
                return f"{label}: witness {w} is not a 5-clique"
        return None

    return Op(label, run, check)


def setup_planarity_graphs(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    kinds = []
    plain = iter(_PLAIN_KINDS)
    probe = iter(_PROBE_KINDS)
    for i in range(PLANARITY_OPS):
        kinds.append(next(probe) if i % 4 == 3 else next(plain))
    # Sizes evenly spread over [200, 2000], assigned in a fixed scrambled order
    # so that size and kind are not correlated.
    step = (MAX_VERTICES - MIN_VERTICES) / (PLANARITY_OPS - 1)
    sizes = [round(MIN_VERTICES + step * ((7 * i) % PLANARITY_OPS)) for i in range(PLANARITY_OPS)]
    ops = []
    for i, (kind, size) in enumerate(zip(kinds, sizes)):
        n, edges = _graph(kind, size, rng)
        ops.append(_planarity_op(i, kind, n, edges))
    return ops


WORKLOADS = {
    "verify-96": setup_verify,
    "group-queries": setup_group_queries,
    "planarity-graphs": setup_planarity_graphs,
}
