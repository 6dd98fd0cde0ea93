import random

import pytest

from conftest import (
    brute_clique_minor_exists,
    connected_subsets,
    permuted,
    rand_graph,
)
from indminor import oracle
from indminor.catalog import classify, named_graph
from indminor.graphs import (
    Graph,
    GraphError,
    complete_graph,
    induced_subgraph,
    subdivide_edge,
)
from indminor.models import verify_model
from indminor.oracle import (
    SearchCapExceeded,
    clique_minor_test,
    induced_minor_exhaustive,
    induced_subgraph_search,
    iter_induced_minor_models,
    iter_premodel_prefixes,
    iter_premodels,
    rooted_clique_minor,
)
from indminor.solvers import _premodel_order


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

    def test_k5_and_k6_agree_with_the_reference(self):
        rng = random.Random(6)
        for _ in range(60):
            g = rand_graph(rng.randint(5, 10), rng.uniform(0.5, 0.9), rng)
            for k in (5, 6):
                m = clique_minor_test(g, k)
                ref = induced_minor_exhaustive(g, complete_graph(k))
                assert (m is None) == (ref is None)
                assert m is None or verify_model(m)

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


# ---------------------------------------------------------------------------
# the premodel engine against a set-based brute force


def _twin_pairs(pattern: Graph, order, free) -> list[tuple[int, int]]:
    """(earlier, later) pairs of ``order`` whose swap preserves the
    pattern's edges and its free pairs."""
    def kind(a, b):
        return (pattern.has_edge(a, b), bool(free[a] >> b & 1))

    return [
        (w, u)
        for i, u in enumerate(order)
        for w in order[:i]
        if all(
            kind(w, z) == kind(u, z) for z in range(pattern.n) if z not in (w, u)
        )
    ]


def _brute_premodels(host: Graph, pattern: Graph, order, free, cap: int):
    """Every assignment of disjoint connected bags of at most ``cap``
    vertices to ``order`` with exact adjacency outside the free pairs, cap-1
    vertices without free partners on vertices of at least their degree, and
    the later of two twins on the bag with the larger least vertex; by
    backtracking over sets, bags tried by (least vertex, size, members)."""
    bags = sorted(
        map(frozenset, connected_subsets(host, cap)),
        key=lambda s: (min(s), len(s), sorted(s)),
    )
    twins = _twin_pairs(pattern, order, free)
    out = []

    def touches(a, b):
        return any(host.has_edge(x, y) for x in a for y in b)

    def extend(i, placed):
        if i == len(order):
            out.append(dict(placed))
            return
        u = order[i]
        taken = set().union(*placed.values()) if placed else set()
        for bag in bags:
            if bag & taken:
                continue
            if cap == 1 and not free[u]:
                if host.degree(min(bag)) < pattern.degree(u):
                    continue
            if any(
                not free[u] >> w & 1 and touches(bag, b) != pattern.has_edge(u, w)
                for w, b in placed.items()
            ):
                continue
            if any(v == u and min(bag) < min(placed[w]) for w, v in twins):
                continue
            placed[u] = bag
            extend(i + 1, placed)
            del placed[u]

    extend(0, {})
    return out


def _as_dicts(host: Graph, order, runs) -> list[dict[int, frozenset[int]]]:
    return [
        {u: frozenset(x for x in range(host.n) if bags[u] >> x & 1) for u in order}
        for bags in runs
    ]


def _key(placed: dict[int, frozenset[int]]) -> tuple:
    return tuple(sorted((u, tuple(sorted(b))) for u, b in placed.items()))


def _star_with_a_free_pair():
    """K_{1,3} whose leaves 1 and 2 may or may not be adjacent: 1 and 2 stay
    twins, the free pair keeps 3 out of their orbit."""
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    return star, [0, 1 << 2, 1 << 1, 0]


def _engine_cases():
    cases = []
    for name in ("cycle_4", "k23", "k33", "crown"):
        h = named_graph(name)
        by_degree = sorted(range(h.n), key=lambda u: (-h.degree(u), u))
        cases.append((h, by_degree, [0] * h.n))
        cases.append((h, by_degree[::-1], [0] * h.n))
    star, free = _star_with_a_free_pair()
    cases.append((star, [1, 3, 0, 2], free))
    house = named_graph("house")
    pc = next(pc for pc in classify(house) if pc.kind == "generalized_house")
    a, u, v, b, c = pc.roles
    house_free = [0] * 5
    house_free[u] = 1 << v | 1 << b
    house_free[v] = house_free[b] = 1 << u
    cases.append((house, [a, u, v, b, c], house_free))
    cases.append((house, [a, u, v, c, b], house_free))
    return cases


class TestPremodelEngine:
    def test_reference_twins_respect_free_pairs(self):
        star, free = _star_with_a_free_pair()
        assert _twin_pairs(star, [1, 2, 3], free) == [(1, 2)]
        assert _twin_pairs(named_graph("k33"), [0, 1, 2], [0] * 6) == [
            (0, 1), (0, 2), (1, 2)
        ]

    def test_singletons_match_brute_force_in_order(self, atlas):
        """Atlas hosts against twin-rich patterns and free pairs: the same
        premodels as the brute force, in the same order."""
        cases = _engine_cases()
        rng = random.Random(53)
        hosts = [g for g in atlas if g.n <= 5]
        hosts += rng.sample([g for g in atlas if g.n > 5], 300)
        total = 0
        for g in hosts:
            for h, order, free in cases:
                if h.n > g.n:
                    continue
                runs = iter_premodels(g, h, order, [1] * h.n, free)
                got = _as_dicts(g, order, runs)
                want = _brute_premodels(g, h, order, free, 1)
                assert got == want
                total += len(got)
        assert total > 1000

    def test_connected_bags_match_brute_force(self, atlas):
        rng = random.Random(43)
        cases = [c for c in _engine_cases() if c[0].n <= 5]
        for g in rng.sample([g for g in atlas if 4 <= g.n <= 6], 60):
            for h, order, free in cases:
                runs = iter_premodels(g, h, order, [2] * h.n, free)
                got = _as_dicts(g, order, runs)
                want = _brute_premodels(g, h, order, free, 2)
                assert sorted(map(_key, got)) == sorted(map(_key, want))
                assert len(got) == len(set(map(_key, got)))

    def test_expanded_prefixes_give_the_premodel_sequence(self, atlas):
        rng = random.Random(47)
        cases = _engine_cases()
        for g in rng.sample([g for g in atlas if g.n >= 5], 80):
            for h, order, free in cases:
                # all singletons, and larger bags before a cap-1 last position
                for cap in (1, 2):
                    caps = [cap] * h.n
                    caps[order[-1]] = 1
                    expanded = []
                    for prefix in iter_premodel_prefixes(g, h, order, caps, free):
                        cands = prefix[order[-1]]
                        assert cands
                        for x in range(g.n):
                            if cands >> x & 1:
                                bags = list(prefix)
                                bags[order[-1]] = 1 << x
                                expanded.append(tuple(bags))
                    assert expanded == list(iter_premodels(g, h, order, caps, free))

    def test_prefixes_need_a_cap_one_last_position(self):
        h = named_graph("cycle_4")
        with pytest.raises(ValueError):
            iter_premodel_prefixes(h, h, [0, 1], [1, 2, 1, 1])
        with pytest.raises(ValueError):
            iter_premodel_prefixes(h, h, [], [1] * 4)

    @pytest.mark.parametrize("name", ["cycle_5", "cycle_6", "bowtie"])
    def test_prefixes_of_a_flower_are_those_with_a_centre_bag(self, name, atlas):
        """With the centre outside ``order``, the forward check drops only
        placements that no connected centre bag completes: the expanded
        prefixes hold every brute-force premodel that has a centre bag, are
        brute-force premodels, and keep their order."""
        if name == "bowtie":  # two triangles on the centre 0: two twin pairs
            h = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        else:
            h = named_graph(name)
        centre = next(pc for pc in classify(h) if pc.kind == "flower").center
        order = _premodel_order(h, centre)
        free = [0] * h.n
        for g in atlas:
            if g.n < h.n:
                continue
            want = _brute_premodels(g, h, order, free, 1)
            index = {_key(p): i for i, p in enumerate(want)}
            got = []
            for prefix in iter_premodel_prefixes(g, h, order, [1] * h.n):
                for x in range(g.n):
                    if prefix[order[-1]] >> x & 1:
                        bags = list(prefix)
                        bags[order[-1]] = 1 << x
                        got.append(tuple(bags))
            seen = [index[_key(p)] for p in _as_dicts(g, order, got)]
            assert seen == sorted(set(seen))
            subsets = [frozenset(s) for s in connected_subsets(g)]
            for i, placed in enumerate(want):
                taken = frozenset().union(*placed.values())
                completes = any(
                    not bag & taken
                    and all(
                        any(g.has_edge(x, y) for x in bag for y in placed[w])
                        == h.has_edge(centre, w)
                        for w in order
                    )
                    for bag in subsets
                )
                assert completes <= (i in seen)

    def test_plans_are_cached_by_value(self):
        h1 = named_graph("cycle_5")
        h2 = Graph.from_edges(5, [(4, 0), (3, 4), (2, 3), (1, 2), (0, 1)])
        assert h1 is not h2 and h1 == h2
        g = named_graph("cycle_5")
        order = [0, 1, 2, 3, 4]
        oracle._walk_plan.cache_clear()
        first = list(iter_premodels(g, h1, order, [1] * 5))
        assert first and list(iter_premodels(g, h2, list(order), [1] * 5)) == first
        info = oracle._walk_plan.cache_info()
        assert (info.currsize, info.hits) == (1, 1)
        assert info.maxsize is not None

    def test_plans_follow_the_callers_lists(self):
        h = named_graph("cycle_5")
        order = [0, 1, 2, 3, 4]
        caps, free = [1] * 5, [0] * 5
        c6, prism = named_graph("cycle_6"), named_graph("prism")
        assert list(iter_premodels(c6, h, order, caps, free)) == []
        caps[2] = 2  # C6 with one edge contracted is C5
        grown = list(iter_premodels(c6, h, order, caps, free))
        assert grown and grown == list(
            iter_premodels(c6, h, [0, 1, 2, 3, 4], [1, 1, 2, 1, 1], [0] * 5)
        )
        assert list(iter_premodels(prism, h, order, caps, free)) == []
        free[0], free[2] = 1 << 2, 1 << 0
        freed = list(iter_premodels(prism, h, order, caps, free))
        assert freed and freed == list(
            iter_premodels(prism, h, order, [1, 1, 2, 1, 1], [4, 0, 1, 0, 0])
        )
