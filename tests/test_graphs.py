import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_nx, induced_path_exists, rand_graph
from indminor.catalog import named_graph
from indminor.graphs import (
    ContractionTrace,
    Graph,
    GraphError,
    GraphParseError,
    biconnected_components,
    closed_neighbor_mask,
    component_masks,
    from_edgelist,
    from_graph6,
    has_touching_component,
    induced_subgraph,
    is_complete_multipartite,
    is_p4_free,
    is_pt_free,
    is_wheel,
    longest_induced_path,
    mask_of,
    neighbor_mask,
    quotient_by_preimages,
    set_of,
    shortest_path_avoiding,
    subdivide_edge,
    to_edgelist,
    touching_component,
    to_graph6,
)
from indminor.oracle import induced_subgraph_search


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return Graph.from_edges(n, edges)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 5)])

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1


class TestNeighborhoods:
    def test_triangle(self):
        assert set_of(neighbor_mask(named_graph("complete_3").adj, 0b1)) == {1, 2}

    def test_path_midpoint(self):
        assert set_of(neighbor_mask(named_graph("path_3").adj, 0b10)) == {0, 2}

    def test_edgeless(self):
        assert neighbor_mask(Graph.from_edges(4, []).adj, 0b1000) == 0

    def test_closed_neighborhood_single(self):
        adj = named_graph("path_4").adj
        assert set_of(closed_neighbor_mask(adj, 0b10)) == {0, 1, 2}

    def test_closed_neighborhood_ends(self):
        adj = named_graph("path_4").adj
        assert set_of(closed_neighbor_mask(adj, 0b1001)) == {0, 1, 2, 3}

    def test_closed_neighborhood_empty(self):
        assert closed_neighbor_mask(named_graph("complete_4").adj, 0) == 0


class TestInducedSubgraph:
    def test_cycle_minus_vertex_is_path(self):
        sub, vmap = induced_subgraph(named_graph("cycle_5"), [0, 1, 2, 3])
        assert sub == named_graph("path_4")
        assert vmap == (0, 1, 2, 3)

    def test_k5_triple_is_triangle(self):
        sub, _ = induced_subgraph(named_graph("complete_5"), [1, 3, 4])
        assert sub == named_graph("complete_3")

    def test_house_minus_apex_is_c4(self):
        house = named_graph("house")  # apex is vertex 0
        sub, _ = induced_subgraph(house, [1, 2, 3, 4])
        assert sub.n == 4 and sub.edge_count == 4
        assert all(sub.degree(v) == 2 for v in range(4))

    def test_identity_is_isomorphic(self):
        g = named_graph("prism")
        sub, vmap = induced_subgraph(g, range(g.n))
        assert sub == g and vmap == tuple(range(g.n))


class TestContraction:
    def test_path_contract(self):
        tr = quotient_by_preimages(named_graph("path_3"), [{0, 1}, {2}])
        assert tr.target == named_graph("path_2")
        assert tr.preimage == (frozenset({0, 1}), frozenset({2}))

    def test_cycle_contract_gives_triangle(self):
        tr = quotient_by_preimages(named_graph("cycle_4"), [{0, 1}, {2}, {3}])
        assert tr.target == named_graph("complete_3")

    def test_k4_contract_merges_parallels(self):
        tr = quotient_by_preimages(named_graph("complete_4"), [{0, 1}, {2}, {3}])
        assert tr.target == named_graph("complete_3")

    def test_non_edge_rejected(self):
        # contracting the non-edge (0, 2) means a disconnected preimage
        with pytest.raises(GraphError):
            quotient_by_preimages(named_graph("path_3"), [{0, 2}, {1}])

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_single_contraction_invariants(self, g):
        edges = g.edges()
        if not edges:
            return
        u, v = edges[0]
        rest = [{w} for w in range(g.n) if w not in (u, v)]
        tr = quotient_by_preimages(g, sorted([{u, v}, *rest], key=min))
        assert tr.target.n == g.n - 1
        covered = set()
        for pre in tr.preimage:
            assert not covered & pre
            covered |= pre
        assert covered == set(range(g.n))


class TestSubdivision:
    def test_triangle_becomes_c4(self):
        g = subdivide_edge(named_graph("complete_3"), (0, 1))
        assert g.n == 4 and g.edge_count == 4
        assert all(sorted(g.degree(v) for v in range(4)) == [2, 2, 2, 2] for _ in [0])

    def test_p2_becomes_p3(self):
        g = subdivide_edge(named_graph("path_2"), (0, 1))
        assert g == Graph.from_edges(3, [(0, 2), (1, 2)])

    def test_subdivided_prism_has_seven_vertices(self):
        g = subdivide_edge(named_graph("prism"), (0, 1))
        assert g.n == 7 and g.degree(6) == 2

    def test_non_edge_rejected(self):
        with pytest.raises(GraphError):
            subdivide_edge(named_graph("path_3"), (0, 2))


class TestComponents:
    @staticmethod
    def components(g):
        return component_masks(g.adj, g.full_mask())

    def test_path_plus_isolated(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        assert self.components(g) == [0b0111, 0b1000]

    def test_cycle_is_connected(self):
        assert len(self.components(named_graph("cycle_6"))) == 1

    def test_edgeless(self):
        assert self.components(Graph.from_edges(3, [])) == [0b001, 0b010, 0b100]

    def test_touching_component_skips_components_missing_a_need(self):
        # components {0,1}, {2,3}, {4}: only {2,3} meets both needs
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        assert touching_component(g.adj, 0b11111, [0b00110, 0b01000]) == 0b01100
        assert touching_component(g.adj, 0b11111, [0b00001, 0b10000]) == 0
        assert has_touching_component(g.adj, 0b11111, [0b00110, 0b01000])
        assert not has_touching_component(g.adj, 0b11111, [0b00001, 0b10000])
        assert touching_component(g.adj, 0b11110, []) == 0b00010
        assert touching_component(g.adj, 0, [0b11111]) == 0
        assert touching_component(g.adj, 0, []) == 0

    def test_touching_component_orders_by_smallest_member_not_seed(self):
        # {1} is seeded first, but {0, 3} has the smaller member
        g = Graph.from_edges(4, [(0, 3)])
        assert touching_component(g.adj, 0b1111, [0b1010]) == 0b1001

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.data())
    def test_touching_component_is_first_qualifying_component(self, g, data):
        masks = st.integers(min_value=0, max_value=g.full_mask())
        m = data.draw(masks)
        needs = data.draw(st.lists(masks, max_size=3))
        expected = next(
            (c for c in component_masks(g.adj, m) if all(c & need for need in needs)),
            0,
        )
        assert touching_component(g.adj, m, needs) == expected
        if needs:  # the early-exit test agrees on whether there is one
            assert has_touching_component(g.adj, m, needs) == bool(expected)


class TestBlocks:
    def test_butterfly(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert biconnected_components(g) == [
            frozenset({0, 1, 2}),
            frozenset({2, 3, 4}),
        ]

    def test_cycle_single_block(self):
        assert biconnected_components(named_graph("cycle_5")) == [
            frozenset(range(5))
        ]

    def test_path_blocks_are_edges(self):
        assert biconnected_components(named_graph("path_4")) == [
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        ]

    def test_blocks_cover_edges_once(self, atlas):
        rng = random.Random(7)
        for g in rng.sample(atlas, 150):
            blocks = biconnected_components(g)
            for u, v in g.edges():
                homes = [b for b in blocks if u in b and v in b]
                assert len(homes) == 1

    def test_matches_networkx(self, atlas):
        import networkx as nx

        rng = random.Random(11)
        for g in rng.sample(atlas, 120):
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges())
            ours = sorted(sorted(b) for b in biconnected_components(g))
            theirs = sorted(sorted(b) for b in nx.biconnected_components(G))
            theirs = [b for b in theirs if len(b) > 1]
            assert ours == theirs


class TestPathFreeness:
    def test_c6(self):
        c6 = named_graph("cycle_6")
        assert is_pt_free(c6, 6)
        assert not is_pt_free(c6, 5)

    def test_p7_contains_itself(self):
        assert not is_pt_free(named_graph("path_7"), 7)

    def test_cliques(self):
        k5 = named_graph("complete_5")
        assert is_pt_free(k5, 3)
        assert not is_pt_free(k5, 2)

    def test_long_path_needs_no_recursion(self):
        path = named_graph("path_1200")
        assert not is_pt_free(path, 1200)
        assert is_pt_free(path, 1201)

    def test_t_must_be_positive(self):
        with pytest.raises(GraphError):
            is_pt_free(named_graph("path_2"), 0)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(min_value=2, max_value=8))
    def test_monotone_in_t(self, g, t):
        if is_pt_free(g, t):
            assert is_pt_free(g, t + 1)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=7), st.integers(min_value=2, max_value=7))
    def test_against_subset_enumeration(self, g, t):
        assert is_pt_free(g, t) == (not induced_path_exists(g, t))

    def test_longest_induced_path_on_atlas(self, atlas):
        # path_8 reaches the cap: an induced P_t for every t <= 8
        for g in [*atlas, named_graph("path_8")]:
            largest = 1
            while largest < 8 and induced_path_exists(g, largest + 1):
                largest += 1
            assert longest_induced_path(g, 8) == largest


class TestCographs:
    def test_examples(self):
        assert is_p4_free(named_graph("cycle_4"))
        assert not is_p4_free(named_graph("path_4"))
        assert not is_p4_free(named_graph("cycle_5"))

    def test_agrees_with_pt_free_on_atlas(self, atlas):
        for g in atlas:
            assert is_p4_free(g) == is_pt_free(g, 4)

    def test_agrees_with_pt_free_on_random_8(self):
        rng = random.Random(20260809)
        for _ in range(600):
            g = rand_graph(8, rng.choice([0.2, 0.4, 0.6, 0.8]), rng)
            assert is_p4_free(g) == is_pt_free(g, 4)

    def test_deep_threshold_graph(self):
        # vertices alternately isolated and dominating: the cotree is a path
        # as long as the graph, deeper than Python's recursion limit
        n = 1500
        adj = [0] * n
        for v in range(1, n, 2):
            adj[v] = (1 << v) - 1
            for u in range(v):
                adj[u] |= 1 << v
        assert is_p4_free(Graph(n, tuple(adj)))


class TestMultipartite:
    def test_c4(self):
        g = named_graph("cycle_4")
        assert is_complete_multipartite(g, g.full_mask()) == [
            frozenset({0, 2}),
            frozenset({1, 3}),
        ]

    def test_k5(self):
        g = named_graph("complete_5")
        parts = is_complete_multipartite(g, g.full_mask())
        assert parts == [frozenset({i}) for i in range(5)]

    def test_p4(self):
        g = named_graph("path_4")
        assert is_complete_multipartite(g, g.full_mask()) is None


class TestWheel:
    def test_w4(self):
        g = named_graph("w4")
        assert is_wheel(g, g.full_mask())

    def test_cycle_with_pendant(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        assert is_wheel(g, g.full_mask())

    def test_k4(self):
        g = named_graph("complete_4")
        assert is_wheel(g, g.full_mask())

    def test_plain_cycle_is_not(self):
        g = named_graph("cycle_5")
        assert not is_wheel(g, g.full_mask())


def test_mask_forms_match_the_induced_subgraph(atlas):
    for g in atlas:
        if g.n > 6:
            continue
        for m in range(1 << g.n):
            sub, vmap = induced_subgraph(g, set_of(m))
            assert is_wheel(g, m) == is_wheel(sub, sub.full_mask())
            parts = is_complete_multipartite(sub, sub.full_mask())
            if parts is not None:
                parts = [frozenset(vmap[x] for x in p) for p in parts]
            assert is_complete_multipartite(g, m) == parts


class TestShortestPathAvoiding:
    def test_forced_detour(self):
        c6 = named_graph("cycle_6")
        assert shortest_path_avoiding(c6, 1 << 0, 1 << 3, 1 << 1) == [0, 5, 4, 3]

    def test_disconnected(self):
        assert shortest_path_avoiding(named_graph("path_4"), 1 << 0, 1 << 3, 1 << 2) is None

    def test_direct_edge(self):
        assert shortest_path_avoiding(named_graph("complete_4"), 1 << 0, 1 << 1) == [0, 1]

    def test_lexicographic_tie_break(self):
        # two shortest routes 0-1-3 and 0-2-3: the smaller middle wins
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert shortest_path_avoiding(g, 1 << 0, 1 << 3) == [0, 1, 3]

    def test_overlap_rejected(self):
        with pytest.raises(GraphError):
            shortest_path_avoiding(named_graph("path_3"), 1 << 0, 1 << 2, 1 << 0)

    @staticmethod
    def brute_shortest_paths(g, sources, targets, allowed):
        """Every shortest source-to-target path inside ``allowed``, by
        enumerating simple paths of growing length."""
        for length in range(len(allowed)):
            found = []
            stack = [[s] for s in sorted(sources)]
            while stack:
                path = stack.pop()
                if len(path) == length + 1:
                    if path[-1] in targets:
                        found.append(path)
                    continue
                for w in allowed - set(path):
                    if g.has_edge(path[-1], w):
                        stack.append(path + [w])
            if found:
                return found
        return []

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.data())
    def test_agrees_with_networkx_and_brute_force(self, g, data):
        import networkx as nx

        vertices = st.sets(st.integers(min_value=0, max_value=g.n - 1), min_size=1)
        sources = data.draw(vertices)
        targets = data.draw(vertices)
        forbidden = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
        forbidden -= sources | targets
        allowed = set(range(g.n)) - forbidden
        path = shortest_path_avoiding(
            g, mask_of(sources), mask_of(targets), mask_of(forbidden)
        )
        sub = nx.Graph()
        sub.add_nodes_from(allowed)
        sub.add_edges_from(e for e in g.edges() if set(e) <= allowed)
        lengths = [
            nx.shortest_path_length(sub, s, t)
            for s in sources
            for t in targets
            if nx.has_path(sub, s, t)
        ]
        if not lengths:
            assert path is None
            return
        assert path is not None and not set(path) & forbidden
        assert len(path) - 1 == min(lengths)
        assert path == min(self.brute_shortest_paths(g, sources, targets, allowed))


class TestGraph6:
    def test_round_trip_atlas_sample(self, atlas):
        rng = random.Random(3)
        for g in rng.sample(atlas, 200):
            assert from_graph6(to_graph6(g)) == g

    def test_matches_networkx_bytes(self, atlas):
        import networkx as nx

        rng = random.Random(5)
        for g in rng.sample(atlas, 100):
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
            assert to_graph6(g) == theirs

    def test_large_size_header(self):
        g = named_graph("path_100")
        enc = to_graph6(g)
        assert enc.startswith("~")
        assert from_graph6(enc) == g

    def test_header_prefix_stripped(self):
        g = named_graph("cycle_5")
        assert from_graph6(">>graph6<<" + to_graph6(g)) == g

    def test_bad_byte(self):
        with pytest.raises(GraphParseError):
            from_graph6("D\x19")

    def test_truncated_body(self):
        with pytest.raises(GraphParseError):
            from_graph6("D")


class TestEdgeList:
    def test_round_trip(self):
        g = named_graph("house")
        assert from_edgelist(to_edgelist(g)) == g

    def test_header_error_mentions_line(self):
        with pytest.raises(GraphParseError, match="line 1"):
            from_edgelist("nonsense here\n")

    def test_body_error_mentions_line(self):
        with pytest.raises(GraphParseError, match="line 3"):
            from_edgelist("3 2\n0 1\n1 9\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphParseError, match="announced"):
            from_edgelist("3 5\n0 1\n")

    @pytest.mark.parametrize(
        "token", ["\u00b2", "--1"], ids=["superscript", "minus-minus"]
    )
    def test_non_decimal_digit_rejected(self, token):
        # tokens that look like integers but that int() rejects
        with pytest.raises(GraphParseError, match="line 2"):
            from_edgelist(f"2 1\n0 {token}\n")

    def test_repeated_edge_rejected(self):
        with pytest.raises(GraphParseError, match="line 3: repeated edge"):
            from_edgelist("3 2\n0 1\n1 0\n")


class TestTraceValidation:
    def test_disconnected_preimage_rejected(self):
        g = named_graph("path_3")
        with pytest.raises(GraphError, match="disconnected"):
            ContractionTrace(
                g,
                named_graph("path_2"),
                (frozenset({0, 2}), frozenset({1})),
            )

    def test_wrong_adjacency_rejected(self):
        g = named_graph("path_3")
        with pytest.raises(GraphError, match="adjacency"):
            ContractionTrace(
                g,
                Graph.from_edges(2, []),
                (frozenset({0, 1}), frozenset({2})),
            )

    def test_missing_cover_needs_deletion_flag(self):
        g = named_graph("path_3")
        with pytest.raises(GraphError, match="cover"):
            ContractionTrace(g, Graph.from_edges(1, []), (frozenset({0}),))
        ContractionTrace(
            g, Graph.from_edges(1, []), (frozenset({0}),), allows_deletions=True
        )
