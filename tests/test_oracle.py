import random

import pytest

from conftest import brute_clique_minor_exists, permuted, rand_graph
from indminor.catalog import named_graph
from indminor.graphs import Graph, GraphError, induced_subgraph, subdivide_edge
from indminor.models import verify_model
from indminor.oracle import (
    SearchCapExceeded,
    clique_minor_test,
    induced_minor_exhaustive,
    induced_subgraph_search,
    iter_induced_minor_models,
    rooted_clique_minor,
)


class TestInducedMinorExhaustive:
    def test_identity(self):
        house = named_graph("house")
        m = induced_minor_exhaustive(house, house)
        assert m is not None and verify_model(m)

    def test_c4_contains_triangle(self):
        # contracting one cycle edge leaves a triangle
        m = induced_minor_exhaustive(named_graph("cycle_4"), named_graph("complete_3"))
        assert m is not None and verify_model(m)

    def test_subdivided_prism_contains_full_house(self):
        host = subdivide_edge(named_graph("prism"), (0, 1))
        m = induced_minor_exhaustive(host, named_graph("full_house"))
        assert m is not None and verify_model(m)

    def test_plain_prism_lacks_full_house(self):
        assert (
            induced_minor_exhaustive(named_graph("prism"), named_graph("full_house"))
            is None
        )

    def test_pattern_larger_than_host(self):
        assert (
            induced_minor_exhaustive(named_graph("path_3"), named_graph("cycle_4"))
            is None
        )

    def test_cap_is_enforced(self):
        with pytest.raises(SearchCapExceeded):
            induced_minor_exhaustive(named_graph("path_20"), named_graph("path_3"))

    def test_witness_is_deterministic(self):
        host, pat = named_graph("cycle_6"), named_graph("complete_3")
        a = induced_minor_exhaustive(host, pat)
        b = induced_minor_exhaustive(host, pat)
        assert a == b

    def test_decision_is_label_invariant(self, atlas):
        rng = random.Random(13)
        pats = [named_graph(n) for n in ("house", "cycle_5", "crown")]
        for g in rng.sample([g for g in atlas if g.n == 7], 40):
            perm = list(range(g.n))
            rng.shuffle(perm)
            g2 = permuted(g, perm)
            for h in pats:
                assert (induced_minor_exhaustive(g, h) is None) == (
                    induced_minor_exhaustive(g2, h) is None
                )

    def test_vertex_deletion_never_creates_containment(self, atlas):
        rng = random.Random(29)
        pats = [named_graph(n) for n in ("cycle_4", "bull", "complete_3")]
        for g in rng.sample([g for g in atlas if g.n in (6, 7)], 30):
            for h in pats:
                full = induced_minor_exhaustive(g, h) is not None
                for v in range(g.n):
                    sub, _ = induced_subgraph(g, set(range(g.n)) - {v})
                    if induced_minor_exhaustive(sub, h) is not None:
                        assert full

    def test_enumeration_yields_valid_distinct_models(self):
        host = named_graph("cycle_6")
        pat = named_graph("complete_3")
        seen = set()
        for m in iter_induced_minor_models(host, pat):
            assert verify_model(m)
            assert m.bags not in seen
            seen.add(m.bags)
        assert seen


class TestInducedSubgraphSearch:
    def test_path_in_cycle(self):
        image = induced_subgraph_search(named_graph("cycle_5"), named_graph("path_4"))
        assert image is not None
        host, pat = named_graph("cycle_5"), named_graph("path_4")
        for u in range(4):
            for v in range(u + 1, 4):
                assert pat.has_edge(u, v) == host.has_edge(image[u], image[v])

    def test_no_induced_path_in_clique(self):
        assert (
            induced_subgraph_search(named_graph("complete_4"), named_graph("path_3"))
            is None
        )

    def test_house_contains_p4(self):
        assert (
            induced_subgraph_search(named_graph("house"), named_graph("path_4"))
            is not None
        )


class TestRootedCliqueMinor:
    def test_triangle_identity(self):
        m = rooted_clique_minor(named_graph("complete_3"), [{0}, {1}, {2}])
        assert m is not None and m.bags == tuple(frozenset({i}) for i in range(3))

    def test_c4_two_roots(self):
        m = rooted_clique_minor(named_graph("cycle_4"), [{0}, {2}])
        assert m is not None and verify_model(m)
        assert {0} <= m.bags[0] and {2} <= m.bags[1]

    def test_c4_three_roots(self):
        m = rooted_clique_minor(named_graph("cycle_4"), [{0}, {1}, {2}])
        assert m is not None and verify_model(m)
        assert m.bags == (frozenset({0, 3}), frozenset({1}), frozenset({2}))

    def test_unsatisfiable_roots(self):
        assert rooted_clique_minor(named_graph("path_4"), [{0}, {3}]) is not None
        assert rooted_clique_minor(Graph.from_edges(3, []), [{0}, {1}]) is None

    def test_overlapping_roots_rejected(self):
        with pytest.raises(GraphError):
            rooted_clique_minor(named_graph("cycle_4"), [{0}, {0}])

    def test_empty_roots_allowed(self):
        m = rooted_clique_minor(named_graph("cycle_4"), [(), ()])
        assert m is not None and verify_model(m)

    def test_agrees_with_clique_test_small(self, atlas):
        rng = random.Random(31)
        sample = [g for g in atlas if g.n <= 6]
        for g in rng.sample(sample, 120):
            for k in (1, 2, 3, 4):
                rooted = rooted_clique_minor(g, [()] * k)
                direct = clique_minor_test(g, k)
                assert (rooted is None) == (direct is None)


class TestCliqueMinor:
    def test_trees_have_no_triangle_minor(self):
        assert clique_minor_test(named_graph("path_6"), 3) is None

    def test_cycle_has_triangle_minor(self):
        m = clique_minor_test(named_graph("cycle_6"), 3)
        assert m is not None and verify_model(m)

    def test_k1_and_k2(self):
        assert clique_minor_test(named_graph("path_2"), 1) is not None
        assert clique_minor_test(Graph.from_edges(0, []), 1) is None
        assert clique_minor_test(Graph.from_edges(3, []), 2) is None
        assert clique_minor_test(named_graph("path_2"), 2) is not None

    def test_fully_subdivided_k4(self):
        g = named_graph("complete_4")
        for e in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
            g = subdivide_edge(g, e)
        m = clique_minor_test(g, 4)
        assert m is not None and verify_model(m)

    def test_c5_has_no_k4_minor(self):
        assert clique_minor_test(named_graph("cycle_5"), 4) is None

    def test_k5_on_itself(self):
        m = clique_minor_test(named_graph("complete_5"), 5)
        assert m is not None and verify_model(m)

    def test_k5_cap(self):
        with pytest.raises(SearchCapExceeded):
            clique_minor_test(named_graph("path_20"), 5)

    def test_k4_agrees_with_brute_force_sample(self, atlas):
        rng = random.Random(37)
        for g in rng.sample(atlas, 120):
            assert (clique_minor_test(g, 4) is not None) == brute_clique_minor_exists(
                g, 4
            )

    def test_k4_witnesses_verify(self, atlas):
        rng = random.Random(41)
        for g in rng.sample([g for g in atlas if g.n == 7], 60):
            m = clique_minor_test(g, 4)
            if m is not None:
                assert verify_model(m)
