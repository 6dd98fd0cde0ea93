import random

import pytest

from conftest import permuted, rand_graph
from indminor.catalog import classify, named_graph
from indminor.graphs import Graph, subdivide_edge
from indminor.models import verify_model
from indminor.oracle import (
    induced_minor_exhaustive,
    induced_subgraph_search,
    iter_induced_minor_models,
)
from indminor.solvers import (
    SolverPreconditionError,
    bounded_bag_search,
    solve_clique,
    solve_clique_plus_isolated,
    solve_complete_split,
    solve_disjoint_paths,
    solve_full_house,
    solve_gem,
    solve_house_bull,
    solve_pt_free,
    solve_snt_single,
)


def gh2_host() -> Graph:
    """A 9-vertex host for the bull with subdivided horns in which every
    model keeps at least two non-trivial bags: a 5-cycle with two 2-vertex
    horns whose bases each clamp onto two consecutive cycle vertices."""
    return Graph.from_edges(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (0, 5), (1, 5), (5, 6), (2, 7), (3, 7), (7, 8)],
    )


def horned_bull() -> Graph:
    g = named_graph("bull")
    for e in [(1, 3), (2, 4)]:
        g = subdivide_edge(g, e)
    return g


class TestDisjointPaths:
    def test_path_in_cycle(self):
        a = solve_disjoint_paths(named_graph("cycle_6"), named_graph("path_5"))
        assert a.contains and verify_model(a.witness)
        assert all(len(b) == 1 for b in a.witness.bags)

    def test_no_induced_p3_in_clique(self):
        assert not solve_disjoint_paths(named_graph("complete_4"), named_graph("path_3")).contains

    def test_house_has_no_induced_two_edges(self):
        two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not solve_disjoint_paths(named_graph("house"), two_k2).contains
        assert induced_minor_exhaustive(named_graph("house"), two_k2) is None

    def test_wrong_pattern_rejected(self):
        with pytest.raises(SolverPreconditionError):
            solve_disjoint_paths(named_graph("cycle_6"), named_graph("cycle_4"))


class TestSntSingle:
    def test_subdivided_star(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        host = star
        for e in [(0, 1), (0, 2), (0, 3)]:
            host = subdivide_edge(host, e)
        a = solve_snt_single(host, star, 0)
        assert a.contains and verify_model(a.witness)

    def test_cycle_in_longer_cycle(self):
        a = solve_snt_single(named_graph("cycle_9"), named_graph("cycle_5"), 0)
        assert a.contains and verify_model(a.witness)

    def test_identity_flower(self):
        butterfly = Graph.from_edges(
            5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
        )
        a = solve_snt_single(butterfly, butterfly, 2)
        assert a.contains

    def test_at_most_one_fat_bag_at_the_center(self):
        rng = random.Random(8)
        c5 = named_graph("cycle_5")
        hits = 0
        for _ in range(60):
            g = rand_graph(8, 0.35, rng)
            a = solve_snt_single(g, c5, 0)
            assert a.contains == (induced_minor_exhaustive(g, c5) is not None)
            if a.witness is not None:
                hits += 1
                for v in range(1, 5):
                    assert len(a.witness.bags[v]) == 1
        assert hits > 3

    def test_no_case(self):
        assert not solve_snt_single(named_graph("path_4"), named_graph("cycle_4"), 0).contains


class TestHouseBull:
    def test_identity(self):
        a = solve_house_bull(named_graph("house"), named_graph("house"))
        assert a.contains and verify_model(a.witness)

    def test_c5_does_not_contain_house(self):
        assert not solve_house_bull(named_graph("cycle_5"), named_graph("house")).contains
        assert induced_minor_exhaustive(named_graph("cycle_5"), named_graph("house")) is None

    def test_two_fat_bag_host(self):
        a = solve_house_bull(gh2_host(), horned_bull())
        assert a.contains and verify_model(a.witness)
        assert sum(1 for b in a.witness.bags if len(b) > 1) >= 2

    def test_bull_in_its_subdivisions(self):
        bull = named_graph("bull")
        host = subdivide_edge(subdivide_edge(bull, (0, 1)), (0, 2))
        a = solve_house_bull(host, bull)
        assert a.contains == (induced_minor_exhaustive(host, bull) is not None)

    def test_wrong_pattern_rejected(self):
        with pytest.raises(SolverPreconditionError):
            solve_house_bull(named_graph("cycle_5"), named_graph("gem"))


class TestCompleteSplit:
    def test_identity(self):
        a = solve_complete_split(named_graph("k5_minus"), named_graph("k5_minus"))
        assert a.contains and verify_model(a.witness)

    def test_crown_not_in_c6(self):
        a = solve_complete_split(named_graph("cycle_6"), named_graph("crown"))
        assert not a.contains
        assert induced_minor_exhaustive(named_graph("cycle_6"), named_graph("crown")) is None

    def test_star_with_interlocked_neighborhoods(self):
        # the clique bag {3,4} serves three leaves whose neighborhoods
        # overlap so that no seed set hits each exactly once
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        host = Graph.from_edges(5, [(3, 4), (3, 0), (4, 1), (3, 2), (4, 2)])
        a = solve_complete_split(host, star)
        assert a.contains and verify_model(a.witness)
        assert induced_minor_exhaustive(host, star) is not None

    def test_subdivided_crown(self):
        host = named_graph("crown")
        for e in [(0, 2), (1, 3)]:
            host = subdivide_edge(host, e)
        a = solve_complete_split(host, named_graph("crown"))
        assert a.contains == (
            induced_minor_exhaustive(host, named_graph("crown")) is not None
        )

    def test_large_clique_side_refused(self):
        s42 = Graph.from_edges(
            6,
            [(i, j) for i in range(4) for j in range(i + 1, 4)]
            + [(i, 4) for i in range(4)]
            + [(i, 5) for i in range(4)],
        )
        with pytest.raises(SolverPreconditionError):
            solve_complete_split(named_graph("complete_6"), s42)


class TestPtFree:
    def test_clique_in_clique(self):
        a = solve_pt_free(named_graph("complete_6"), named_graph("complete_4"), 3)
        assert a.contains and all(len(b) == 1 for b in a.witness.bags)

    def test_c4_identity(self):
        a = solve_pt_free(named_graph("cycle_4"), named_graph("cycle_4"), 4)
        assert a.contains and verify_model(a.witness)

    def test_gem_in_multipartite(self):
        host = Graph.from_edges(
            6, [(u, v) for u in (0, 1) for v in (2, 3, 4, 5)] + [(2, 3), (4, 5)]
        )
        # complete multipartite hosts have no induced P4
        a = solve_pt_free(host, named_graph("gem"), 4)
        assert a.contains == (
            induced_minor_exhaustive(host, named_graph("gem")) is not None
        )

    def test_bag_bound_holds(self):
        rng = random.Random(23)
        gem = named_graph("gem")
        found = 0
        for _ in range(40):
            g = rand_graph(8, 0.55, rng)
            for t in range(2, 9):
                from indminor.graphs import is_pt_free

                if is_pt_free(g, t):
                    break
            else:
                continue
            a = solve_pt_free(g, gem, t)
            assert a.contains == (induced_minor_exhaustive(g, gem) is not None)
            if a.witness is not None:
                found += 1
                for u, bag in enumerate(a.witness.bags):
                    assert len(bag) <= 1 + gem.degree(u) * (t - 2)
        assert found > 3

    def test_precondition_checked(self):
        with pytest.raises(SolverPreconditionError):
            solve_pt_free(named_graph("path_6"), named_graph("path_3"), 4)


class TestBoundedBagSearch:
    def test_caps_restrict_the_search(self):
        host, pat = named_graph("cycle_6"), named_graph("complete_3")
        assert bounded_bag_search(host, pat, [1, 1, 1]) is None
        found = bounded_bag_search(host, pat, [4, 4, 4])
        assert found is not None and verify_model(found)

    def test_complete_when_caps_equal_host(self, atlas):
        rng = random.Random(53)
        pats = [named_graph("house"), named_graph("cycle_4")]
        for g in rng.sample([g for g in atlas if g.n == 6], 40):
            for h in pats:
                mine = bounded_bag_search(g, h, [g.n] * h.n)
                assert (mine is not None) == (
                    induced_minor_exhaustive(g, h) is not None
                )

    def test_intermediate_caps_match_the_narrowest_model(self, atlas):
        pats = [named_graph(name) for name in ("cycle_4", "complete_4", "crown")]
        widths = set()
        for g in [g for g in atlas if g.n in (6, 7)][::6]:
            for h in pats:
                # the widest bag of the model whose widest bag is smallest
                narrowest = min(
                    (max(map(len, m.bags)) for m in iter_induced_minor_models(g, h)),
                    default=None,
                )
                widths.add(narrowest)
                for cap in (1, 2, 3):
                    found = bounded_bag_search(g, h, [cap] * h.n)
                    assert (found is not None) == (
                        narrowest is not None and narrowest <= cap
                    )
                    if found is not None:
                        assert verify_model(found)
                        assert all(len(bag) <= cap for bag in found.bags)
        assert widths == {None, 1, 2, 3}  # every cap decides some host


class TestGem:
    def test_identity(self):
        assert solve_gem(named_graph("gem")).contains

    def test_cycles_never_contain_it(self):
        for n in (5, 6, 9):
            assert not solve_gem(named_graph(f"cycle_{n}")).contains

    def test_dominated_wheel(self):
        wheel6 = Graph.from_edges(
            7, [(i, (i + 1) % 6) for i in range(6)] + [(6, i) for i in range(6)]
        )
        a = solve_gem(wheel6)
        assert a.contains == (
            induced_minor_exhaustive(wheel6, named_graph("gem")) is not None
        )
        if a.witness is not None:
            assert verify_model(a.witness)

    def test_blocks_are_searched_independently(self):
        # two gems sharing one vertex
        gem = named_graph("gem")
        edges = gem.edges() + [(u + 4, v + 4) for u, v in gem.edges()]
        g = Graph.from_edges(9, edges)
        a = solve_gem(g)
        assert a.contains and verify_model(a.witness)


class TestFullHouse:
    def test_prism_cases(self):
        fh = named_graph("full_house")
        prism = named_graph("prism")
        assert not solve_full_house(prism).contains
        yes = solve_full_house(subdivide_edge(prism, (0, 1)))
        assert yes.contains and verify_model(yes.witness)
        assert not solve_full_house(subdivide_edge(prism, (0, 3))).contains

    def test_k33_cases(self):
        k33 = named_graph("k33")
        assert not solve_full_house(k33).contains
        yes = solve_full_house(subdivide_edge(k33, (0, 3)))
        assert yes.contains and verify_model(yes.witness)

    def test_twin_cycle_case(self):
        g = Graph.from_edges(
            6,
            [(0, 1), (1, 2), (2, 3), (3, 0)]
            + [(4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (5, 2)],
        )
        a = solve_full_house(g)
        assert a.contains and verify_model(a.witness)

    def test_single_twin_is_no(self):
        g = Graph.from_edges(
            5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2)]
        )
        a = solve_full_house(g)
        assert not a.contains
        assert induced_minor_exhaustive(g, named_graph("full_house")) is None

    def test_full_attachment_needs_c5(self):
        fh = named_graph("full_house")
        for c in (4, 5):
            edges = [(i, (i + 1) % c) for i in range(c)]
            edges += [(c, i) for i in range(c)] + [(c + 1, i) for i in range(c)]
            g = Graph.from_edges(c + 2, edges)
            a = solve_full_house(g)
            assert a.contains == (c == 5)
            assert a.contains == (induced_minor_exhaustive(g, fh) is not None)


class TestCliqueSolvers:
    def test_clique_route(self):
        a = solve_clique(named_graph("cycle_5"), 3)
        assert a.contains and verify_model(a.witness)
        assert not solve_clique(named_graph("path_5"), 3).contains

    def test_clique_plus_isolated_identity(self):
        h = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        a = solve_clique_plus_isolated(h, h)
        assert a.contains and verify_model(a.witness)

    def test_two_triangles(self):
        h = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        a = solve_clique_plus_isolated(g, h)
        assert a.contains and verify_model(a.witness)

    def test_clique_host_lacks_second_bag(self):
        two_k1 = Graph.from_edges(2, [])
        assert not solve_clique_plus_isolated(named_graph("complete_5"), two_k1).contains

    def test_isolated_vertex_position_respected(self):
        h = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)])  # vertex 0 isolated
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        a = solve_clique_plus_isolated(g, h)
        assert a.contains and verify_model(a.witness)
        assert len(a.witness.bags[0]) == 1


class TestLabelInvariance:
    def test_solvers_ignore_host_labeling(self):
        rng = random.Random(61)
        hosts = [rand_graph(7, 0.4, rng) for _ in range(6)]
        pats = ["house", "crown", "gem", "full_house", "cycle_5"]
        from indminor.cli import DispatchConfig, dispatch

        cfg = DispatchConfig()
        for g in hosts:
            for name in pats:
                h = named_graph(name)
                base = dispatch(g, h, cfg).contains
                for _ in range(3):
                    perm = list(range(g.n))
                    rng.shuffle(perm)
                    assert dispatch(permuted(g, perm), h, cfg).contains == base
