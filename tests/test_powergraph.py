import itertools
import sys
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from conftest import relabelled_file_group
from gpgraph.catalog import build, catalog_up_to, parse_spec
from gpgraph.graphs import SimpleGraph
from gpgraph.groups import MEMBERSHIP_BAND_CELLS, TABLE_LEAF
from gpgraph.planarity import is_planar
from gpgraph.powergraph import (
    PG_TILE,
    VertexConvention,
    generalized_power_graph,
    power_graph,
    vertex_elements,
)

STRICT = VertexConvention.STRICT
STRICT_ID = VertexConvention.STRICT_WITH_IDENTITY
PUNCTURED = VertexConvention.PUNCTURED
FULL = VertexConvention.FULL


class TestAdjacency:
    # Under FULL the vertex index is the element index.
    def test_z12_examples(self):
        z12 = build(parse_spec("cyclic:12"))
        gp = generalized_power_graph(z12, FULL)
        assert not gp.has_edge(3, 4)   # {0,3,6,9} meets {0,4,8} only at 0
        assert gp.has_edge(2, 3)       # both subgroups contain 6
        assert not oracle.gp_adjacent(z12, 3, 4)
        assert oracle.gp_adjacent(z12, 2, 3)

    def test_identity_never_adjacent(self):
        for spec in ("cyclic:6", "dihedral:4", "gq:8"):
            g = build(parse_spec(spec))
            gp = generalized_power_graph(g, FULL)
            for y in range(1, g.n):
                assert not gp.has_edge(0, y)
                assert not oracle.gp_adjacent(g, 0, y)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_oracle_agreement(self, data):
        spec = data.draw(st.sampled_from(
            ["cyclic:12", "cyclic:16", "abelian:4,2", "dihedral:6", "gq:16",
             "heisenberg:3", "symmetric:4"]))
        g = build(parse_spec(spec))
        gp = generalized_power_graph(g, FULL)
        x = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        y = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        if x == y:
            return
        assert gp.has_edge(x, y) == gp.has_edge(y, x) == oracle.gp_adjacent(g, x, y)


class TestCyclicNumberTheoryOracle:
    @given(n=st.integers(min_value=2, max_value=80))
    @settings(max_examples=40, deadline=None)
    def test_cyclic_gp_matches_gcd_rule(self, n):
        # In Z_n the subgroup lattice is the divisor lattice: <x> has order
        # n/gcd(n,x) and two subgroups intersect in the subgroup whose order
        # is the gcd of theirs. So x ~ y iff gcd(|x|, |y|) > 1.
        import math

        g = build(parse_spec(f"cyclic:{n}"))
        graph = generalized_power_graph(g, PUNCTURED)
        for i, j in itertools.combinations(range(graph.v), 2):
            x, y = graph.labels[i], graph.labels[j]
            ox, oy = n // math.gcd(n, x), n // math.gcd(n, y)
            assert graph.has_edge(i, j) == (math.gcd(ox, oy) > 1)


class TestVertexConventions:
    def test_vertex_sets_for_z12(self):
        z12 = build(parse_spec("cyclic:12"))
        strict = vertex_elements(z12, STRICT)
        strict_id = vertex_elements(z12, STRICT_ID)
        punctured = vertex_elements(z12, PUNCTURED)
        full = vertex_elements(z12, FULL)
        assert strict == [2, 3, 4, 6, 8, 9, 10]  # generators 1,5,7,11 excluded
        assert strict_id == [0] + strict
        assert punctured == list(range(1, 12))
        assert full == list(range(12))
        assert set(strict) <= set(strict_id)
        assert set(strict) <= set(punctured) <= set(full)

    def test_prime_cyclic_strict_is_empty(self):
        for p in (2, 3, 5, 7, 11):
            g = build(parse_spec(f"cyclic:{p}"))
            assert vertex_elements(g, STRICT) == []

    def test_noncyclic_strict_equals_punctured(self):
        for spec in ("abelian:2,2", "dihedral:4", "gq:8", "heisenberg:3"):
            g = build(parse_spec(spec))
            assert vertex_elements(g, STRICT) == vertex_elements(g, PUNCTURED)

    def test_trivial_group_strict_id_is_empty(self):
        g = build(parse_spec("cyclic:1"))
        assert vertex_elements(g, STRICT_ID) == []
        assert vertex_elements(g, FULL) == [0]


class TestGeneralizedPowerGraph:
    def test_q8_punctured_is_k7(self):
        g = generalized_power_graph(build(parse_spec("gq:8")), PUNCTURED)
        assert g.v == 7
        assert g.is_complete()

    def test_d8_punctured_structure(self):
        d8 = build(parse_spec("dihedral:4"))
        g = generalized_power_graph(d8, PUNCTURED)
        comps = g.connected_components()
        assert sorted(len(c) for c in comps) == [1, 1, 1, 1, 3]
        triangle = next(c for c in comps if len(c) == 3)
        assert g.induced_subgraph(triangle).is_complete()
        assert sorted(g.labels[x] for x in triangle) == [1, 2, 3]  # r, r^2, r^3
        assert is_planar(g).planar

    def test_z9_strict_is_k2(self):
        g = generalized_power_graph(build(parse_spec("cyclic:9")), STRICT)
        assert g.v == 2
        assert g.labels == [3, 6]
        assert g.is_complete()

    def test_identity_isolated_under_full(self):
        for spec in ("cyclic:8", "dihedral:4", "abelian:2,2"):
            g = generalized_power_graph(build(parse_spec(spec)), FULL)
            assert g.labels[0] == 0
            assert g.degree(0) == 0

    def test_brute_force_agreement(self):
        # Oracles, pairwise from cyclic subgroup sets walked over the table:
        # GP adjacency is a non-trivial intersection; P adjacency is one
        # subgroup containing the other's generator.
        for spec in catalog_up_to(48):
            group = build(spec)
            subgroups = [set(cyc) for cyc in oracle.cyclic_subgroups(group)]
            for conv in (STRICT, STRICT_ID, PUNCTURED, FULL):
                verts = vertex_elements(group, conv)
                gp = generalized_power_graph(group, conv)
                pg = power_graph(group, conv)
                assert gp.labels == pg.labels == verts
                for i, j in itertools.combinations(range(len(verts)), 2):
                    x, y = verts[i], verts[j]
                    assert gp.has_edge(i, j) == (len(subgroups[x] & subgroups[y]) > 1), (spec, conv, x, y)
                    assert pg.has_edge(i, j) == (y in subgroups[x] or x in subgroups[y]), (spec, conv, x, y)


class TestPowerGraph:
    def test_z4_full_is_k4(self):
        g = power_graph(build(parse_spec("cyclic:4")), FULL)
        assert g.v == 4
        assert g.is_complete()

    def test_klein_punctured_edgeless(self):
        g = power_graph(build(parse_spec("abelian:2,2")), PUNCTURED)
        assert g.v == 3
        assert g.edge_count() == 0

    def test_square_adjacent_to_element(self):
        for spec in ("cyclic:9", "gq:8", "symmetric:4"):
            group = build(parse_spec(spec))
            g = power_graph(group, PUNCTURED)
            pos = {lab: i for i, lab in enumerate(g.labels)}
            for x in range(1, group.n):
                if group.order_of(x) >= 3:
                    sq = group.mul(x, x)
                    assert g.has_edge(pos[x], pos[sq])

    def test_identity_adjacent_to_all_in_p(self):
        g = power_graph(build(parse_spec("cyclic:6")), FULL)
        assert g.degree(0) == 5

    def test_p_edges_subset_of_gp_edges_on_nonidentity(self):
        for spec in ("cyclic:12", "abelian:4,2", "dihedral:6", "gq:16", "symmetric:4"):
            group = build(parse_spec(spec))
            pg = power_graph(group, PUNCTURED)
            gp = generalized_power_graph(group, PUNCTURED)
            for i, j in pg.edges():
                assert gp.has_edge(i, j)


def assert_power_graph_is_pairwise(group, convention):
    """power_graph against the definition, pair by pair, with <x> walked
    over the Cayley table."""
    subgroups = [set(cyc) for cyc in oracle.cyclic_subgroups(group)]
    verts = vertex_elements(group, convention)
    rows = [0] * len(verts)
    for i, j in itertools.combinations(range(len(verts)), 2):
        x, y = verts[i], verts[j]
        if y in subgroups[x] or x in subgroups[y]:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    pg = power_graph(group, convention)
    assert pg.labels == verts, convention
    assert pg.rows == rows, convention


class TestPowerGraphPaths:
    # The membership matrix is made at the vertex set's size through a
    # column map, on a range lo .. n-1 and on the strict vertex sets of a
    # cyclic group, which are no range. Groups past PG_TILE vertices take
    # several tiles of the OR, and several scatter bands.
    def test_relabelled_tables_under_every_convention(self, tmp_path):
        for i, spec in enumerate(("symmetric:4", "dicyclic:5", "cyclic:12", "heisenberg:3",
                                  "product:(dihedral:3)x(cyclic:4)")):
            group = relabelled_file_group(tmp_path, spec, f"relabelled-{i}.tbl")
            assert [leaf.kind for leaf in group.leaves] == [TABLE_LEAF], spec
            for convention in VertexConvention:
                assert_power_graph_is_pairwise(group, convention)

    def test_cyclic_strict_conventions_read_a_column_map(self):
        for n in (1, 2, 7, 12, 30, 64, 360):
            group = build(parse_spec(f"cyclic:{n}"))
            for convention in (STRICT, STRICT_ID):
                verts = vertex_elements(group, convention)
                if n in (12, 30, 64, 360):  # not a range lo .. n-1
                    assert verts != list(range(verts[0], n)), (n, convention)
                assert_power_graph_is_pairwise(group, convention)

    def test_several_tiles_and_bands(self):
        assert 2 * PG_TILE < 600 and MEMBERSHIP_BAND_CELLS // 600 < 600
        for spec in ("dihedral:300", "cyclic:600"):
            group = build(parse_spec(spec))
            for convention in (PUNCTURED, STRICT):
                assert_power_graph_is_pairwise(group, convention)

    def test_peak_is_one_membership_matrix_and_the_result(self):
        # Beyond one n x n boolean matrix and the result, power_graph holds
        # one band of tiles and one scatter band (with slack for their
        # packed rows and indices), so a second n x n copy, such as a gather
        # of the vertex rows out of the whole M or M | M.T made whole, does
        # not fit.
        for spec, convention in (("dihedral:1024", FULL), ("gq:2048", PUNCTURED),
                                 ("cyclic:2048", STRICT)):
            group = build(parse_spec(spec))
            group.powers  # made outside the traced call
            tracemalloc.start()
            try:
                pg = power_graph(group, convention)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            n = group.n
            result = sum(map(sys.getsizeof, pg.rows)) + sys.getsizeof(pg.rows)
            assert peak <= n * n + result + 2 * (n * PG_TILE + 8 * MEMBERSHIP_BAND_CELLS), \
                (spec, peak / (n * n + result))


class TestPGroupStructure:
    def test_gp_transitive_on_pgroups(self):
        # In a p-group, adjacency is transitive on non-identity elements.
        for spec in ("cyclic:16", "abelian:4,2", "gq:16", "heisenberg:3", "abelian:3,3"):
            group = build(parse_spec(spec))
            g = generalized_power_graph(group, PUNCTURED)
            for a, x, b in itertools.permutations(range(g.v), 3):
                if g.has_edge(a, x) and g.has_edge(x, b):
                    assert g.has_edge(a, b)

    def test_pgroup_components_are_cliques(self):
        for spec in ("heisenberg:3", "abelian:3,3", "abelian:2,2,2", "gq:32"):
            group = build(parse_spec(spec))
            g = generalized_power_graph(group, PUNCTURED)
            for comp in g.connected_components():
                assert g.induced_subgraph(comp).is_complete()


class TestAgainstCatalog:
    def test_gp_edge_symmetry_across_catalog(self):
        # SimpleGraph wraps the constructors' rows unchecked; rebuilding them
        # from their own edge list through the checked from_edges gives the
        # same rows only if they are symmetric, loop-free and in range.
        for spec in catalog_up_to(64):
            group = build(spec)
            for conv in VertexConvention:
                for make in (generalized_power_graph, power_graph):
                    g = make(group, conv)
                    assert SimpleGraph.from_edges(g.v, g.edges()).rows == g.rows, \
                        (spec.to_text(), conv, make.__name__)
