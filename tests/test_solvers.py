import random

import pytest

from conftest import pc_of, permuted, rand_graph
from indminor import solvers
from indminor.catalog import classify, named_graph
from indminor.graphs import Graph, subdivide_edge, touching_component
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
        a = solve_disjoint_paths(
            named_graph("cycle_6"), named_graph("path_5"),
            pc_of(named_graph("path_5"), "disjoint_paths"),
        )
        assert a.contains and verify_model(a.witness)
        assert all(len(b) == 1 for b in a.witness.bags)

    def test_no_induced_p3_in_clique(self):
        assert not solve_disjoint_paths(
            named_graph("complete_4"), named_graph("path_3"),
            pc_of(named_graph("path_3"), "disjoint_paths"),
        ).contains

    def test_house_has_no_induced_two_edges(self):
        two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not solve_disjoint_paths(
            named_graph("house"), two_k2, pc_of(two_k2, "disjoint_paths")
        ).contains
        assert induced_minor_exhaustive(named_graph("house"), two_k2) is None

    def test_wrong_pattern_rejected(self):
        with pytest.raises(SolverPreconditionError):
            solve_disjoint_paths(
                named_graph("cycle_6"), named_graph("cycle_4"),
                pc_of(named_graph("cycle_4"), "disjoint_paths"),
            )


class TestSntSingle:
    def test_subdivided_star(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        host = star
        for e in [(0, 1), (0, 2), (0, 3)]:
            host = subdivide_edge(host, e)
        a = solve_snt_single(host, star, pc_of(star, "flower"))
        assert a.contains and verify_model(a.witness)

    def test_cycle_in_longer_cycle(self):
        a = solve_snt_single(
            named_graph("cycle_9"), named_graph("cycle_5"),
            pc_of(named_graph("cycle_5"), "flower"),
        )
        assert a.contains and verify_model(a.witness)

    def test_identity_flower(self):
        butterfly = Graph.from_edges(
            5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
        )
        a = solve_snt_single(butterfly, butterfly, pc_of(butterfly, "flower"))
        assert a.contains

    def test_at_most_one_fat_bag_at_the_center(self):
        rng = random.Random(8)
        c5 = named_graph("cycle_5")
        hits = 0
        for _ in range(60):
            g = rand_graph(8, 0.35, rng)
            a = solve_snt_single(g, c5, pc_of(c5, "flower"))
            assert a.contains == (induced_minor_exhaustive(g, c5) is not None)
            if a.witness is not None:
                hits += 1
                for v in range(1, 5):
                    assert len(a.witness.bags[v]) == 1
        assert hits > 3

    def test_no_case(self):
        assert not solve_snt_single(
            named_graph("path_4"), named_graph("cycle_4"),
            pc_of(named_graph("cycle_4"), "flower"),
        ).contains

    def test_agrees_with_the_oracle_on_every_small_flower(self, atlas, monkeypatch):
        """Every flower on at most 6 vertices, including those placed last
        at a non-neighbour of the centre and those with sepals, where a
        candidate can lie in the room left for the centre's bag: the exact
        completion call then runs and must reject some candidates."""
        flowers = [
            (h, pc) for h in atlas if h.n <= 6
            for pc in classify(h) if pc.kind == "flower"
        ]
        outcomes = []

        def counted(adj, m, needs):
            comp = touching_component(adj, m, needs)
            outcomes.append(bool(comp))
            return comp

        monkeypatch.setattr(solvers, "touching_component", counted)
        rng = random.Random(59)
        sizes = [5, 6, 7] * 4 + [8, 8, 10]
        for n in sizes:
            g = rand_graph(n, rng.uniform(0.25, 0.6), rng)
            for h, pc in flowers:
                a = solve_snt_single(g, h, pc)
                assert a.contains == (induced_minor_exhaustive(g, h) is not None)
                if a.contains:
                    assert verify_model(a.witness)
        assert len(flowers) == 84
        assert False in outcomes and True in outcomes


class TestHouseBull:
    def test_identity(self):
        a = solve_house_bull(
            named_graph("house"), named_graph("house"),
            pc_of(named_graph("house"), "generalized_house"),
        )
        assert a.contains and verify_model(a.witness)

    def test_c5_does_not_contain_house(self):
        assert not solve_house_bull(
            named_graph("cycle_5"), named_graph("house"),
            pc_of(named_graph("house"), "generalized_house"),
        ).contains
        assert induced_minor_exhaustive(named_graph("cycle_5"), named_graph("house")) is None

    def test_two_fat_bag_host(self):
        a = solve_house_bull(
            gh2_host(), horned_bull(), pc_of(horned_bull(), "generalized_bull")
        )
        assert a.contains and verify_model(a.witness)
        assert sum(1 for b in a.witness.bags if len(b) > 1) >= 2

    def test_bull_in_its_subdivisions(self):
        bull = named_graph("bull")
        host = subdivide_edge(subdivide_edge(bull, (0, 1)), (0, 2))
        a = solve_house_bull(host, bull, pc_of(bull, "generalized_bull"))
        assert a.contains == (induced_minor_exhaustive(host, bull) is not None)

    def test_wrong_pattern_rejected(self):
        with pytest.raises(SolverPreconditionError):
            solve_house_bull(
                named_graph("cycle_5"), named_graph("gem"),
                pc_of(named_graph("gem"), "generalized_house"),
            )


class TestCompleteSplit:
    def test_identity(self):
        a = solve_complete_split(
            named_graph("k5_minus"), named_graph("k5_minus"),
            pc_of(named_graph("k5_minus"), "complete_split"),
        )
        assert a.contains and verify_model(a.witness)

    def test_crown_not_in_c6(self):
        a = solve_complete_split(
            named_graph("cycle_6"), named_graph("crown"),
            pc_of(named_graph("crown"), "complete_split"),
        )
        assert not a.contains
        assert induced_minor_exhaustive(named_graph("cycle_6"), named_graph("crown")) is None

    def test_star_with_interlocked_neighborhoods(self):
        # the only model puts the leaves on the pairwise non-adjacent host
        # vertices 0, 1 and 2 and the centre on the pair {3, 4}: neither of
        # the two alone touches all three leaves
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        host = Graph.from_edges(5, [(3, 4), (3, 0), (4, 1), (3, 2), (4, 2)])
        a = solve_complete_split(host, star, pc_of(star, "complete_split"))
        assert a.contains and verify_model(a.witness)
        assert induced_minor_exhaustive(host, star) is not None

    def test_subdivided_crown(self):
        host = named_graph("crown")
        for e in [(0, 2), (1, 3)]:
            host = subdivide_edge(host, e)
        a = solve_complete_split(
            host, named_graph("crown"), pc_of(named_graph("crown"), "complete_split")
        )
        assert a.contains == (
            induced_minor_exhaustive(host, named_graph("crown")) is not None
        )

    def test_agrees_with_the_oracle_on_every_small_split(self):
        # every clique of at most 3 joined onto at most 3 independent
        # vertices; dispatch sends only K2,3 plus an edge, k5_minus and K3,3
        # plus a triangle to this solver, and the others to the path,
        # clique and flower rows above it
        rng = random.Random(5)
        hosts = [
            rand_graph(rng.randint(4, 9), rng.uniform(0.25, 0.75), rng)
            for _ in range(60)
        ]
        for k in (1, 2, 3):
            for p in (1, 2, 3):
                h = Graph.from_edges(
                    k + p, [(a, b) for a in range(k) for b in range(a + 1, k + p)]
                )
                pc = pc_of(h, "complete_split")
                assert (pc.k, pc.p) == (k, p)
                for g in hosts:
                    a = solve_complete_split(g, h, pc)
                    assert a.contains == (induced_minor_exhaustive(g, h) is not None)
                    assert a.witness is None or verify_model(a.witness)

    def test_large_clique_side_refused(self):
        s42 = Graph.from_edges(
            6,
            [(i, j) for i in range(4) for j in range(i + 1, 4)]
            + [(i, 4) for i in range(4)]
            + [(i, 5) for i in range(4)],
        )
        with pytest.raises(SolverPreconditionError):
            solve_complete_split(
                named_graph("complete_6"), s42, pc_of(s42, "complete_split")
            )


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

    def test_no_k4_minor_is_the_series_parallel_reduction(self, atlas, monkeypatch):
        # property (1) needs no K4 model, so the clique test never runs
        def reached(*args):
            raise AssertionError("full house ran clique_minor_test")

        monkeypatch.setattr(solvers, "clique_minor_test", reached)
        fh = named_graph("full_house")
        prism, k33 = named_graph("prism"), named_graph("k33")
        hosts = [g for g in atlas if g.n <= 6]
        hosts += [prism, subdivide_edge(prism, (0, 1))]
        hosts += [k33, subdivide_edge(k33, (0, 3))]
        for g in hosts:
            a = solve_full_house(g)
            assert a.contains == (induced_minor_exhaustive(g, fh) is not None)

    def test_cycle_twins_keep_at_most_two_twins_on_the_cycle(self, monkeypatch):
        # C8 plus 12 false twins on {0, 2, 4}: returning more than two of
        # them to the cycle side cannot give an induced cycle
        calls = []
        original = solvers.cycle_order
        monkeypatch.setattr(
            solvers, "cycle_order", lambda g, m: calls.append(m) or original(g, m)
        )
        edges = [(i, (i + 1) % 8) for i in range(8)]
        edges += [(8 + t, x) for t in range(12) for x in (0, 2, 4)]
        assert solvers._cycle_twins_partition(Graph.from_edges(20, edges)) is not None
        assert len(calls) < 100


class TestCliqueSolvers:
    def test_clique_route(self):
        a = solve_clique(named_graph("cycle_5"), 3)
        assert a.contains and verify_model(a.witness)
        assert not solve_clique(named_graph("path_5"), 3).contains

    def test_clique_plus_isolated_identity(self):
        h = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        a = solve_clique_plus_isolated(h, h, pc_of(h, "clique_plus_isolated"))
        assert a.contains and verify_model(a.witness)

    def test_two_triangles(self):
        h = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        a = solve_clique_plus_isolated(g, h, pc_of(h, "clique_plus_isolated"))
        assert a.contains and verify_model(a.witness)

    def test_clique_host_lacks_second_bag(self):
        two_k1 = Graph.from_edges(2, [])
        assert not solve_clique_plus_isolated(
            named_graph("complete_5"), two_k1, pc_of(two_k1, "clique_plus_isolated")
        ).contains

    def test_isolated_vertex_position_respected(self):
        h = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)])  # vertex 0 isolated
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        a = solve_clique_plus_isolated(g, h, pc_of(h, "clique_plus_isolated"))
        assert a.contains and verify_model(a.witness)
        assert len(a.witness.bags[0]) == 1


class TestLabelInvariance:
    def test_solvers_ignore_host_labeling(self):
        rng = random.Random(61)
        hosts = [rand_graph(7, 0.4, rng) for _ in range(6)]
        pats = ["house", "crown", "gem", "full_house", "cycle_5"]
        from indminor.cli import dispatch

        for g in hosts:
            for name in pats:
                h = named_graph(name)
                base = dispatch(g, h).contains
                for _ in range(3):
                    perm = list(range(g.n))
                    rng.shuffle(perm)
                    assert dispatch(permuted(g, perm), h).contains == base


def _subdivided_k4() -> Graph:
    host = named_graph("complete_4")
    for e in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        host = subdivide_edge(host, e)
    return host


@pytest.mark.parametrize(
    "solver, kind, host, pattern",
    [
        (solve_disjoint_paths, "disjoint_paths", named_graph("cycle_6"), "house"),
        (solve_clique_plus_isolated, "clique_plus_isolated",
         named_graph("cycle_6"), "complete_3"),
        # K4 is no flower: a one-fat-bag search says "no" on this host,
        # which holds K4 as an induced minor
        (solve_snt_single, "flower", _subdivided_k4(), "complete_4"),
        (solve_house_bull, "generalized_house", named_graph("cycle_6"), "cycle_5"),
        (solve_complete_split, "complete_split", named_graph("cycle_6"), "cycle_5"),
    ],
    ids=["disjoint_paths", "clique_plus_isolated", "snt_single", "house_bull",
         "complete_split"],
)
def test_pattern_class_of_another_kind_rejected(solver, kind, host, pattern):
    h = named_graph(pattern)
    pcs = classify(h)
    assert all(pc.kind != kind for pc in pcs)
    with pytest.raises(SolverPreconditionError):
        solver(host, h, pcs[0])
