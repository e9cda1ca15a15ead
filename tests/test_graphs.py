import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph
from kernel_oracles import components_complete, induced_rows
from gpgraph.catalog import build, catalog_up_to
from gpgraph.graphs import MAX_EDGE_LIST_VERTICES, SimpleGraph, from_edge_list
from gpgraph.groups import IndexOutOfRange
from gpgraph.powergraph import VertexConvention, generalized_power_graph


def random_graph_strategy(max_v=14):
    @st.composite
    def strat(draw):
        v = draw(st.integers(min_value=1, max_value=max_v))
        pairs = list(itertools.combinations(range(v), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
        return SimpleGraph.from_edges(v, edges)

    return strat()


def sparse_graph_strategy(max_v=600):
    """Graphs wider than one byte, up to more than two INDUCED_BANDs of
    vertices, with about as many edges as vertices."""
    @st.composite
    def strat(draw):
        v = draw(st.integers(min_value=9, max_value=max_v))
        rng = random.Random(draw(st.integers(0, 2**32)))
        pairs = {tuple(sorted(rng.sample(range(v), 2))) for _ in range(rng.randrange(2 * v))}
        return SimpleGraph.from_edges(v, pairs)

    return strat()


class TestConstruction:
    def test_wraps_rows(self):
        g = SimpleGraph([0b110, 0b001, 0b001], labels=[4, 5, 6])
        assert (g.v, g.edges(), g.labels) == (3, [(0, 1), (0, 2)], [4, 5, 6])
        assert SimpleGraph([0, 0]).labels == [0, 1]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(1, 1)])

    @pytest.mark.parametrize("v", [0, 1, 7, 8, 9, 257])
    def test_accepts_symmetric(self, v):
        edges = [(a, b) for a, b in itertools.combinations(range(v), 2) if (a * 7 + b) % 3 == 0]
        assert SimpleGraph.from_edges(v, edges).edges() == edges

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            SimpleGraph.from_edges(2, [(0, 5)])

    @pytest.mark.parametrize("edges", [[], [(0, 1)]])
    def test_rejects_negative_vertex_count(self, edges):
        with pytest.raises(ValueError, match="vertex count -3 is negative"):
            SimpleGraph.from_edges(-3, edges)

    def test_label_length(self):
        with pytest.raises(ValueError, match="expected 2 labels"):
            SimpleGraph.from_edges(2, [], labels=[7])


class TestQueries:
    def test_complete_examples(self):
        assert complete_graph(5).is_complete()
        assert not SimpleGraph.from_edges(3, []).is_complete()
        assert SimpleGraph.from_edges(1, []).is_complete()
        assert SimpleGraph.from_edges(0, []).is_complete()

    def test_complete_iff_edge_count(self):
        for v in range(6):
            for k in range(v * (v - 1) // 2 + 1):
                edges = list(itertools.combinations(range(v), 2))[:k]
                g = SimpleGraph.from_edges(v, edges)
                assert g.is_complete() == (g.edge_count() == v * (v - 1) // 2)

    def test_components_examples(self):
        two_triangles = SimpleGraph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert two_triangles.connected_components() == [[0, 1, 2], [3, 4, 5]]
        path = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert len(path.connected_components()) == 1
        edgeless = SimpleGraph.from_edges(7, [])
        assert edgeless.connected_components() == [[i] for i in range(7)]

    def test_components_partition(self):
        g = SimpleGraph.from_edges(9, [(0, 4), (4, 8), (1, 2), (5, 6), (6, 7)])
        comps = g.connected_components()
        flat = [x for c in comps for x in c]
        assert sorted(flat) == list(range(9))
        assert len(flat) == len(set(flat))
        mins = [min(c) for c in comps]
        assert mins == sorted(mins)

    def test_components_complete_examples(self):
        def cliques(v, edges):
            g = SimpleGraph.from_edges(v, edges)
            return components_complete(g, g.connected_components())

        k3 = [(0, 1), (0, 2), (1, 2)]
        assert cliques(6, k3 + [(3, 4), (3, 5), (4, 5)])
        assert not cliques(6, k3 + [(3, 4), (4, 5)])  # K3 + P3
        assert cliques(0, [])
        assert cliques(4, [])

    @given(random_graph_strategy())
    @settings(max_examples=60, deadline=None)
    def test_components_complete_matches_induced_subgraphs(self, g):
        comps = g.connected_components()
        oracle = all(g.induced_subgraph(c).is_complete() for c in comps)
        assert components_complete(g, comps) == oracle

    def test_components_complete_on_group_graphs(self):
        outcomes = set()
        for spec in catalog_up_to(48):
            group = build(spec)
            for conv in VertexConvention:
                g = generalized_power_graph(group, conv)
                comps = g.connected_components()
                oracle = all(g.induced_subgraph(c).is_complete() for c in comps)
                assert components_complete(g, comps) == oracle, (spec.to_text(), conv)
                outcomes.add(oracle)
        assert outcomes == {True, False}

    def test_induced_subgraph(self):
        k5 = complete_graph(5)
        sub = k5.induced_subgraph([0, 2, 4])
        assert sub.v == 3 and sub.is_complete()
        assert sub.labels == [0, 2, 4]
        empty = k5.induced_subgraph([])
        assert empty.v == 0

    def test_induced_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            complete_graph(3).induced_subgraph([0, 9])

    @given(st.one_of(random_graph_strategy(), sparse_graph_strategy()), st.data())
    @settings(max_examples=60, deadline=None)
    def test_induced_preserves_adjacency(self, g, data):
        # Unsorted, with repeats, or empty; wide draws select more rows than
        # one INDUCED_BAND.
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        verts = rng.sample(range(g.v), data.draw(st.integers(0, g.v)))
        if verts:
            verts += rng.choices(verts, k=data.draw(st.integers(0, 3)))
        rng.shuffle(verts)
        sub = g.induced_subgraph(verts)
        kept = sorted(set(verts))
        assert sub.rows == induced_rows(g, verts)
        assert sub.labels == [g.labels[x] for x in kept]
        inside = set(kept)
        assert [(kept[a], kept[b]) for a, b in sub.edges()] == [
            (a, b) for a, b in g.edges() if a in inside and b in inside]

    def test_induced_selects_several_bands(self):
        g = SimpleGraph.from_edges(
            600, [(a, b) for a in range(600) for b in (a * 7 % 600, (a * a + 3) % 600) if a != b])
        for verts in (range(600), range(599, -1, -3), [5, 599, 5, 300, 8, 7]):
            assert g.induced_subgraph(verts).rows == induced_rows(g, verts)

    def test_k5_clique_examples(self):
        assert complete_graph(5).contains_k5_clique() == [0, 1, 2, 3, 4]
        assert complete_graph(4).contains_k5_clique() is None

    @given(random_graph_strategy(max_v=10))
    @settings(max_examples=60, deadline=None)
    def test_k5_clique_matches_brute_force(self, g):
        # Oracle: exhaustive scan over all 5-subsets.
        brute = any(
            all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2))
            for combo in itertools.combinations(range(g.v), 5)
        )
        found = g.contains_k5_clique()
        assert (found is not None) == brute
        if found is not None:
            assert len(found) == 5
            assert g.induced_subgraph(found).is_complete()


class TestTextFormats:
    def test_dot_single_edge(self):
        g = SimpleGraph.from_edges(2, [(0, 1)])
        dot = g.to_dot()
        assert dot.count("--") == 1
        assert dot.startswith("graph G {")

    def test_dot_empty_graph_two_nodes(self):
        dot = SimpleGraph.from_edges(2, []).to_dot()
        assert dot.count(";") == 2
        assert "--" not in dot

    def test_dot_triangle(self):
        assert complete_graph(3).to_dot().count("--") == 3

    def test_dot_uses_labels(self):
        g = SimpleGraph.from_edges(2, [(0, 1)], labels=[7, 9])
        assert "7 -- 9;" in g.to_dot()

    def test_edge_list_round_trip(self):
        g = SimpleGraph.from_edges(5, [(0, 3), (1, 2), (3, 4)])
        again = from_edge_list(g.to_edge_list())
        assert again.v == g.v
        assert again.edges() == g.edges()

    @pytest.mark.parametrize("text, line", [
        ("x\n", "line 1"),
        ("-3\n", "line 1"),
        ("2\n0 5\n", "line 2"),
        ("3\n0 1 2\n", "line 2"),
        ("3\n# comment\n\n0 1\n2\n", "line 5"),
        ("3\n0 b\n", "line 2"),
        ("3\n1 1\n", "line 2"),
        ("3\n0 -1\n", "line 2"),
    ])
    def test_edge_list_errors_name_the_line(self, text, line):
        with pytest.raises(ValueError, match=line):
            from_edge_list(text)

    def test_edge_list_vertex_cap(self):
        with pytest.raises(ValueError, match="line 1"):
            from_edge_list(f"{MAX_EDGE_LIST_VERTICES + 1}\n0 1\n")

    # Arbitrary text, and lines close to the format.
    @given(st.one_of(
        st.text(max_size=60),
        st.lists(st.one_of(
            st.integers(min_value=-3, max_value=12).map(str),
            st.tuples(st.integers(min_value=-2, max_value=12),
                      st.integers(min_value=-2, max_value=12)).map(lambda t: f"{t[0]} {t[1]}"),
            st.sampled_from(["", "# c", "1 2 3", "a b", "99999999999"]),
        ), max_size=8).map("\n".join),
    ))
    @settings(max_examples=400, deadline=None)
    def test_edge_list_fuzz(self, text):
        try:
            g = from_edge_list(text)
        except ValueError:
            return
        assert 0 <= g.v <= MAX_EDGE_LIST_VERTICES
        assert from_edge_list(g.to_edge_list()).edges() == g.edges()
