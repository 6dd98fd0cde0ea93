import random

import pytest

from conftest import permuted
from indminor.catalog import (
    PatternClass,
    classify,
    is_complete_split,
    is_disjoint_paths,
    is_flower,
    is_generalized_house_or_bull,
    named_graph,
    reconstruct,
)
from indminor.graphs import Graph, GraphError, subdivide_edge
from indminor.oracle import induced_subgraph_search


def kinds(g):
    return [pc.kind for pc in classify(g)]


class TestClassify:
    def test_path_leads_with_disjoint_paths(self):
        assert kinds(named_graph("path_4"))[0] == "disjoint_paths"
        assert "flower" in kinds(named_graph("path_4"))

    def test_k5_minus_is_complete_split(self):
        pc = classify(named_graph("k5_minus"))[0]
        assert pc.kind == "complete_split" and (pc.k, pc.p) == (3, 2)

    def test_gem(self):
        assert kinds(named_graph("gem")) == ["gem"]

    def test_full_house(self):
        assert kinds(named_graph("full_house")) == ["full_house"]

    def test_unsupported_examples(self):
        for name in ("k23", "w4", "prism", "k33"):
            assert kinds(named_graph(name)) == ["unsupported"]

    def test_clique_priority(self):
        assert kinds(named_graph("complete_4"))[0] == "clique"
        assert kinds(named_graph("path_2"))[0] == "disjoint_paths"

    def test_clique_plus_isolated(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        pcs = classify(g)
        match = [pc for pc in pcs if pc.kind == "clique_plus_isolated"]
        assert match and match[0].k == 3

    def test_two_isolated_vertices(self):
        g = Graph.from_edges(2, [])
        assert kinds(g)[0] == "disjoint_paths"
        assert any(pc.kind == "clique_plus_isolated" for pc in classify(g))

    def test_empty_pattern_rejected(self):
        with pytest.raises(GraphError):
            classify(Graph.from_edges(0, []))

    def test_isomorphism_invariance(self):
        rng = random.Random(12345)
        names = [
            "house", "bull", "gem", "full_house", "crown", "k5_minus",
            "k23", "w4", "prism", "k33", "k4", "path_5", "cycle_5",
            "complete_5",
        ]
        for name in names:
            g = named_graph(name)
            base = kinds(g)
            for _ in range(100):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert kinds(permuted(g, perm)) == base


class TestFlower:
    def test_subdivided_star(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        for e in [(0, 1), (0, 2), (0, 3)]:
            g = subdivide_edge(g, e)
        assert is_flower(g).center == 0

    def test_cycle_is_a_flower(self):
        assert is_flower(named_graph("cycle_5")).center == 0

    def test_house_is_not(self):
        assert is_flower(named_graph("house")) is None

    def test_diamond_has_a_sepal(self):
        diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert is_flower(diamond) is not None

    def test_butterfly_is_two_petals(self):
        butterfly = Graph.from_edges(
            5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
        )
        assert is_flower(butterfly).center == 2

    def test_p3_attached_at_middle_fails(self):
        # center adjacent only to the midpoint of a P3: neither sepal nor petal
        g = Graph.from_edges(4, [(0, 2), (1, 2), (2, 3), (3, 0)])
        # vertex 3's removal leaves the path 0-2-1 attached at its middle
        assert is_flower(g) is not None  # but not via center 3
        g2 = Graph.from_edges(5, [(0, 1), (1, 2), (1, 4), (3, 4)])
        assert is_flower(g2) is not None

    def test_closure_under_stamen_petal_subdivision(self):
        cases = [named_graph("cycle_5"), named_graph("bull")]
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        cases.append(star)
        for g in cases:
            pc = is_flower(g)
            if pc is None:
                continue
            center = pc.center
            for e in g.edges():
                # skip sepal edges: both endpoints adjacent to the center
                u, v = e
                if (
                    u != center
                    and v != center
                    and g.has_edge(u, center)
                    and g.has_edge(v, center)
                ):
                    continue
                assert is_flower(subdivide_edge(g, e)) is not None


class TestHouseBull:
    def test_house_roles(self):
        pc = is_generalized_house_or_bull(named_graph("house"))
        assert pc.kind == "generalized_house"
        assert pc.roles == (0, 1, 2, 3, 4) and pc.split is None

    def test_bull_roles(self):
        pc = is_generalized_house_or_bull(named_graph("bull"))
        assert pc.kind == "generalized_bull"
        assert pc.roles == (0, 1, 2, 3, 4) and pc.split == 1

    def test_bull_with_subdivided_horns(self):
        g = named_graph("bull")
        for e in [(1, 3), (2, 4)]:
            g = subdivide_edge(g, e)
        pc = is_generalized_house_or_bull(g)
        assert pc.kind == "generalized_bull"
        assert len(pc.roles) == 7 and pc.split == 2

    def test_long_house(self):
        g = named_graph("house")
        g = subdivide_edge(g, (3, 4))
        pc = is_generalized_house_or_bull(g)
        assert pc.kind == "generalized_house" and len(pc.roles) == 6

    def test_gem_is_neither(self):
        assert is_generalized_house_or_bull(named_graph("gem")) is None


class TestCompleteSplit:
    def test_crown(self):
        pc = is_complete_split(named_graph("crown"))
        assert (pc.k, pc.p) == (2, 3) and pc.parts == ((0, 1), (2, 3, 4))

    def test_k5_minus(self):
        pc = is_complete_split(named_graph("k5_minus"))
        assert (pc.k, pc.p) == (3, 2)

    def test_c4_is_not(self):
        assert is_complete_split(named_graph("cycle_4")) is None

    def test_star(self):
        pc = is_complete_split(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        assert (pc.k, pc.p) == (1, 3)

    def test_clique_splits_off_one_vertex(self):
        pc = is_complete_split(named_graph("complete_4"))
        assert (pc.k, pc.p) == (3, 1)


class TestNamedGraphs:
    def test_gem_shape(self):
        gem = named_graph("gem")
        assert gem.degree(4) == 4 and sorted(gem.degree(v) for v in range(4)) == [
            2, 2, 3, 3,
        ]

    def test_full_house_shape(self):
        fh = named_graph("full_house")
        assert fh.degree(4) == 2 and fh.has_edge(4, 0) and fh.has_edge(4, 1)

    def test_prism_shape(self):
        prism = named_graph("prism")
        assert prism.n == 6 and prism.edge_count == 9
        assert all(prism.degree(v) == 3 for v in range(6))

    def test_parametric(self):
        assert named_graph("path_6").edge_count == 5
        assert named_graph("cycle_6").edge_count == 6
        assert named_graph("complete_6").edge_count == 15
        assert named_graph("k4") == named_graph("complete_4")

    def test_unknown_name(self):
        with pytest.raises(GraphError):
            named_graph("doughnut")
        with pytest.raises(GraphError):
            named_graph("cycle_2")


class TestRoundTrip:
    def test_roles_rebuild_the_pattern(self):
        names = ["house", "bull", "crown", "k5_minus", "complete_4"]
        g = named_graph("bull")
        for e in [(1, 3), (2, 4)]:
            g = subdivide_edge(g, e)
        graphs = [named_graph(n) for n in names] + [g]
        for h in graphs:
            for pc in classify(h):
                rebuilt = reconstruct(pc, h.n)
                if rebuilt is None:
                    continue
                assert rebuilt.n == h.n
                assert rebuilt.edge_count == h.edge_count
                assert induced_subgraph_search(rebuilt, h) is not None
