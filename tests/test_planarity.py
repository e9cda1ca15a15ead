import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_bipartite,
    complete_graph,
    disjoint_union,
    grid_graph,
    petersen_graph,
    stacked_triangulation,
    wheel_graph,
)
from gpgraph.graphs import SimpleGraph
from gpgraph.planarity import (
    METHOD_EULER_BOUND,
    METHOD_K5_CLIQUE,
    METHOD_LEFT_RIGHT,
    PlanarityVerdict,
    biconnected_components,
    euler_bound_check,
    is_planar,
)
from planarity_oracle import TooLarge, is_planar_oracle

NAMED = [
    ("K4", complete_graph(4), True),
    ("K5", complete_graph(5), False),
    ("K6", complete_graph(6), False),
    ("K33", complete_bipartite(3, 3), False),
    ("K23", complete_bipartite(2, 3), True),
    ("petersen", petersen_graph(), False),
    ("grid5x5", grid_graph(5, 5), True),
    ("W5", wheel_graph(5), True),
    ("W6", wheel_graph(6), True),
    ("W7", wheel_graph(7), True),
    ("W8", wheel_graph(8), True),
    # K3,3 on {2, 3, 5} x {0, 1, 4} plus the chord 0-1: its DFS, which takes
    # the highest vertex first, merges an earlier sibling's left interval,
    # which needs the ref[pll] = qh link.
    ("K33+chord", SimpleGraph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3),
                                             (1, 5), (2, 4), (3, 4), (4, 5)]), False),
]


def random_graph(rng, max_v=30):
    v = rng.randint(1, max_v)
    pairs = list(itertools.combinations(range(v), 2))
    e = rng.randint(0, len(pairs))
    return SimpleGraph.from_edges(v, rng.sample(pairs, e))


class TestNamedGraphs:
    @pytest.mark.parametrize("name,graph,expected", NAMED)
    def test_primary(self, name, graph, expected):
        assert is_planar(graph).planar == expected

    @pytest.mark.parametrize("name,graph,expected", NAMED)
    def test_oracle(self, name, graph, expected):
        assert is_planar_oracle(graph) == expected

    def test_petersen_exercises_lr(self):
        # Triangle-free and within the Euler bound: only the left-right
        # test can reject it.
        g = petersen_graph()
        assert euler_bound_check(g)
        assert g.contains_k5_clique() is None
        assert not is_planar(g).planar


class TestEulerBound:
    def test_examples(self):
        assert not euler_bound_check(complete_graph(5))          # v=5, e=10 > 9
        assert euler_bound_check(complete_graph(4))              # v=4, e=6 = 3v-6
        assert euler_bound_check(SimpleGraph.from_edges(2, [(0, 1)]))

    def test_planar_implies_euler(self):
        rng = random.Random(2024)
        for _ in range(150):
            g = random_graph(rng, max_v=20)
            if is_planar(g).planar:
                assert euler_bound_check(g)


class TestVerdicts:
    def test_euler_method_tag(self):
        verdict = is_planar(complete_graph(20))
        assert not verdict.planar
        assert verdict.method == METHOD_EULER_BOUND
        assert verdict.witness is None

    def test_k5_witness(self):
        verdict = is_planar(complete_graph(7), find_k5_witness=True)
        assert not verdict.planar
        assert verdict.method == METHOD_K5_CLIQUE
        assert verdict.witness is not None and len(verdict.witness) == 5

    def test_witness_only_with_k5_method(self):
        for name, g, expected in NAMED:
            verdict = is_planar(g, find_k5_witness=True)
            if verdict.witness is not None:
                assert verdict.method == METHOD_K5_CLIQUE
                assert not verdict.planar
                assert g.induced_subgraph(list(verdict.witness)).is_complete()

    def test_k5_clique_implies_non_planar(self):
        rng = random.Random(808)
        hits = 0
        for _ in range(80):
            g = random_graph(rng, max_v=16)
            if g.contains_k5_clique() is not None:
                hits += 1
                assert not is_planar(g).planar
        assert hits > 5  # the sample must actually exercise the implication


class TestAgreement:
    def test_seeded_random_agreement(self):
        rng = random.Random(31415)
        for _ in range(250):
            g = random_graph(rng)
            assert is_planar(g).planar == is_planar_oracle(g)

    def test_sparse_random_agreement(self):
        # Within the Euler bound, so every graph reaches the left-right test.
        rng = random.Random(2718)
        for _ in range(300):
            v = rng.randint(5, 13)
            pairs = list(itertools.combinations(range(v), 2))
            g = SimpleGraph.from_edges(v, rng.sample(pairs, rng.randint(v - 1, 3 * v - 6)))
            assert is_planar(g).planar == is_planar_oracle(g)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_agreement(self, data):
        v = data.draw(st.integers(min_value=1, max_value=16))
        pairs = list(itertools.combinations(range(v), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
        g = SimpleGraph.from_edges(v, edges)
        assert is_planar(g).planar == is_planar_oracle(g)

    def test_group_graph_corpus_agreement(self):
        # The graphs this library is for: unions of overlapping cliques with
        # isolated vertices, up to 161 vertices (well under the 200-vertex
        # oracle corpus line).
        from gpgraph.catalog import build, catalog_up_to, parse_spec
        from gpgraph.powergraph import VertexConvention, generalized_power_graph

        for spec in catalog_up_to(64):
            if spec.order() < 2:
                continue
            group = build(spec)
            for conv in (VertexConvention.STRICT, VertexConvention.PUNCTURED):
                graph = generalized_power_graph(group, conv)
                assert is_planar(graph).planar == is_planar_oracle(graph), spec.to_text()

        big = generalized_power_graph(
            build(parse_spec("cyclic:210")), VertexConvention.STRICT
        )
        assert big.v == 161
        assert is_planar(big).planar is False
        assert is_planar_oracle(big) is False


class TestTriangulationCorpus:
    """Graphs whose planarity is known from how they are built.

    A stacked triangulation keeps 90% of its 3n - 6 edges, so from n = 40
    on, even with a K5 or K3,3 planted, it stays within the Euler bound and
    only the left-right test can decide it.
    """

    def test_planar_agree_with_oracle(self):
        for i, n in enumerate(range(40, 121, 10)):
            g = stacked_triangulation(n, 100 + i)
            assert is_planar(g) == PlanarityVerdict(True, METHOD_LEFT_RIGHT), n
            assert is_planar_oracle(g), n

    @pytest.mark.parametrize("plant", ["k5", "k33"])
    def test_planted_agree_with_oracle(self, plant):
        for i, n in enumerate(range(40, 301, 20)):
            g = stacked_triangulation(n, 200 + i, plant=plant)
            assert is_planar(g) == PlanarityVerdict(False, METHOD_LEFT_RIGHT), n
            assert not is_planar_oracle(g), n

    def test_disjoint_union_agrees_with_oracle(self):
        # One left-right pass tests every piece from its own root, the
        # highest piece first; isolated vertices sit between the pieces. In
        # the second union the planted piece has the lowest ids, so it is
        # tested after all the others.
        isolated = SimpleGraph.from_edges(3, [])
        pieces = [stacked_triangulation(n, 300 + n) for n in (85, 70, 55, 40)]
        planar = disjoint_union(*(p for piece in pieces for p in (isolated, piece)))
        planted = disjoint_union(stacked_triangulation(60, 399, plant="k33"), *pieces)
        for graph, expected in ((planar, True), (planted, False)):
            assert is_planar(graph) == PlanarityVerdict(expected, METHOD_LEFT_RIGHT)
            assert is_planar_oracle(graph) == expected

    @pytest.mark.parametrize("n", [500, 1000, 2000])
    @pytest.mark.parametrize("plant", [None, "k5", "k33"])
    def test_big_known_answers(self, n, plant):
        g = stacked_triangulation(n, n + len(plant or ""), plant=plant)
        assert is_planar(g) == PlanarityVerdict(plant is None, METHOD_LEFT_RIGHT)

    def test_big_disjoint_union(self):
        pieces = [stacked_triangulation(n, 7 * n) for n in (500, 700, 900)]
        assert is_planar(disjoint_union(*pieces)) == PlanarityVerdict(True, METHOD_LEFT_RIGHT)
        pieces.insert(1, stacked_triangulation(600, 11, plant="k5"))
        assert is_planar(disjoint_union(*pieces)) == PlanarityVerdict(False, METHOD_LEFT_RIGHT)


class TestBitsetOrientation:
    """The orientation walks the bitset rows: a tree child is the highest
    bit of rows[x] & unvisited, and a vertex's back edges are its visited
    neighbours. These inputs put that reading at word boundaries, across
    the roots of a union, and on a graph without adjacency lists."""

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_word_boundaries_agree_with_oracle(self, n):
        # A planted K5 or K3,3 among the lowest and highest ids keeps n
        # vertices and stays within the Euler bound.
        planar = stacked_triangulation(n, 700 + n)
        low, high = [0, 1, 2], [n - 3, n - 2, n - 1]
        k5 = list(itertools.combinations(low[:2] + high, 2))
        k33 = list(itertools.product(low, high))
        for extra, expected in (([], True), (k5, False), (k33, False)):
            g = SimpleGraph.from_edges(n, set(planar.edges()) | set(extra))
            assert g.v == n
            assert is_planar(g) == PlanarityVerdict(expected, METHOD_LEFT_RIGHT), (n, extra)
            assert is_planar_oracle(g) == expected

    @pytest.mark.parametrize("non_planar_first", [False, True])
    def test_union_roots_see_only_their_own_component(self, non_planar_first):
        # Every piece has more than 4 vertices, and isolated vertices sit
        # between the pieces. K3,3 has exactly the 9 edges below which a
        # component is planar without a test.
        isolated = SimpleGraph.from_edges(2, [])
        planar = [stacked_triangulation(n, 500 + n) for n in (30, 45)]
        for bad in (complete_bipartite(3, 3), petersen_graph(),
                    stacked_triangulation(25, 77, plant="k5")):
            pieces = [bad, *planar] if non_planar_first else [*planar, bad]
            graph = disjoint_union(*(p for piece in pieces for p in (isolated, piece)), isolated)
            assert is_planar(graph) == PlanarityVerdict(False, METHOD_LEFT_RIGHT)
            assert not is_planar_oracle(graph)
        both = disjoint_union(isolated, planar[0], isolated, planar[1], isolated)
        assert is_planar(both) == PlanarityVerdict(True, METHOD_LEFT_RIGHT)
        assert is_planar_oracle(both)

    def test_decides_without_adjacency_lists(self, monkeypatch):
        corpus = [stacked_triangulation(n, 900 + n, plant=plant)
                  for n in (40, 90, 160) for plant in (None, "k5", "k33")]
        expected = [is_planar_oracle(g) for g in corpus]  # the oracle reads adjacency lists
        assert expected == [True, False, False] * 3

        def refuse(self):
            raise AssertionError("is_planar built adjacency lists")

        monkeypatch.setattr(SimpleGraph, "adjacency_lists", refuse)
        for g, planar in zip(corpus, expected):
            assert is_planar(g) == PlanarityVerdict(planar, METHOD_LEFT_RIGHT)


def relabelled(g: SimpleGraph, perm: list[int]) -> SimpleGraph:
    """g with vertex x renamed perm[x]."""
    return SimpleGraph.from_edges(g.v, [(perm[a], perm[b]) for a, b in g.edges()])


RELABEL_CORPUS = NAMED + [
    (f"triangulation{n}+{plant}", stacked_triangulation(n, 600 + n, plant=plant), plant is None)
    for n in (40, 80, 120) for plant in (None, "k5", "k33")
]


class TestRelabelling:
    """A verdict does not depend on the vertex labels, though the DFS does:
    it takes the highest id first, so on the mirror i -> v - 1 - i it makes
    the choices a lowest-first DFS makes on the graph itself."""

    @pytest.mark.parametrize("index", range(len(RELABEL_CORPUS)),
                             ids=[name for name, _, _ in RELABEL_CORPUS])
    def test_mirror_and_random_relabellings(self, index):
        name, graph, expected = RELABEL_CORPUS[index]
        verdict = is_planar(graph)
        assert verdict.planar == expected
        rng = random.Random(4000 + index)
        perms = [list(range(graph.v - 1, -1, -1))]
        perms += [rng.sample(range(graph.v), graph.v) for _ in range(3)]
        for perm in perms:
            assert is_planar(relabelled(graph, perm)) == verdict, (name, perm)


class TestClosureProperties:
    def test_induced_subgraphs_of_planar_stay_planar(self):
        rng = random.Random(99)
        for _ in range(60):
            g = random_graph(rng, max_v=18)
            if not is_planar(g).planar:
                continue
            verts = rng.sample(range(g.v), rng.randint(0, g.v))
            assert is_planar(g.induced_subgraph(verts)).planar

    def test_disjoint_union(self):
        # Every input has several DFS roots, taken from the highest id down.
        # The one-vertex sum glues g2's vertex 0 onto vertex c of g1. The
        # last input's only non-planar component has the lowest ids, so it
        # is the last root tested, after a grid whose test fills the
        # conflict-pair stack.
        rng = random.Random(172)
        non_planar = [complete_graph(5), complete_bipartite(3, 3), petersen_graph()]
        for i in range(40):
            g1 = random_graph(rng, max_v=12)
            g2 = random_graph(rng, max_v=12)
            both = is_planar(g1).planar and is_planar(g2).planar
            union = SimpleGraph.from_edges(
                g1.v + g2.v, g1.edges() + [(a + g1.v, b + g1.v) for a, b in g2.edges()]
            )
            c = rng.randrange(g1.v)
            glue = [c] + list(range(g1.v, g1.v + g2.v - 1))
            one_vertex_sum = SimpleGraph.from_edges(
                g1.v + g2.v - 1, g1.edges() + [(glue[a], glue[b]) for a, b in g2.edges()]
            )
            parts = [non_planar[i % 3], grid_graph(3, 3)]
            parts += [g for g in (g2, g1) if is_planar(g).planar]
            edges, offset = [], 0
            for part in parts:
                edges += [(a + offset, b + offset) for a, b in part.edges()]
                offset += part.v
            last_root_non_planar = SimpleGraph.from_edges(offset, edges)
            for graph, expected in (
                (union, both),
                (one_vertex_sum, both),
                (last_root_non_planar, False),
            ):
                assert is_planar(graph).planar == expected
                assert is_planar_oracle(graph) == expected


class TestOracleLimits:
    def test_too_large(self):
        with pytest.raises(TooLarge):
            is_planar_oracle(SimpleGraph.from_edges(2001, []))

    def test_oracles_import_no_private_names(self):
        # An oracle that borrows a private helper from the code it checks
        # shares that helper's bugs, so the two would agree on wrong answers.
        for path in sorted(Path(__file__).parent.glob("*oracle*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                private = [
                    name for name in names
                    if name.split(".")[0] == "gpgraph"
                    and any(part.startswith("_") for part in name.split("."))
                ]
                assert not private, f"{path.name}:{node.lineno} imports {private}"


class TestBiconnected:
    def test_two_triangles_sharing_a_vertex(self):
        g = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        blocks = biconnected_components(g)
        vert_sets = sorted(sorted(vs) for vs, _ in blocks)
        assert vert_sets == [[0, 1, 2], [2, 3, 4]]

    def test_bridge_is_its_own_block(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        blocks = biconnected_components(g)
        assert sorted(len(es) for _, es in blocks) == [1, 3]

    def test_blocks_partition_edges(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng, max_v=14)
            blocks = biconnected_components(g)
            seen = []
            for _, es in blocks:
                seen.extend(frozenset(e) for e in es)
            assert sorted(seen, key=sorted) == sorted(
                (frozenset(e) for e in g.edges()), key=sorted
            )
            assert len(seen) == len(set(seen))

    def test_isolated_vertices_become_blocks(self):
        g = SimpleGraph.from_edges(3, [])
        assert biconnected_components(g) == [([0], []), ([1], []), ([2], [])]
