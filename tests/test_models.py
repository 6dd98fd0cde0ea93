import random

import pytest

from conftest import naive_verify_model, rand_graph, random_quotient_model
from indminor.catalog import named_graph
from indminor.graphs import Graph, GraphError, contract_edges_traced
from indminor.models import (
    Answer,
    Model,
    ModelError,
    answer_yes,
    lift_through_trace,
    shrink_small_degree_bag,
    straighten_path_bags,
    verify_model,
    witness_from_json,
    witness_to_dict,
    witness_to_json,
)


class TestVerify:
    def test_identity_cycle(self):
        c5 = named_graph("cycle_5")
        m = Model.from_bags(c5, c5, [{i} for i in range(5)])
        assert verify_model(m)

    def test_one_contraction(self):
        m = Model.from_bags(
            named_graph("complete_3"), named_graph("cycle_4"), [{0}, {1}, {2, 3}]
        )
        assert verify_model(m)

    def test_missing_adjacency(self):
        m = Model.from_bags(
            named_graph("complete_3"), named_graph("path_3"), [{0}, {1}, {2}]
        )
        assert not verify_model(m)

    def test_extra_adjacency(self):
        m = Model.from_bags(
            named_graph("path_3"), named_graph("complete_3"), [{0}, {1}, {2}]
        )
        assert not verify_model(m)

    def test_disconnected_bag(self):
        m = Model.from_bags(
            named_graph("path_2"), named_graph("path_4"), [{0, 3}, {1}]
        )
        assert not verify_model(m)

    def test_empty_bag(self):
        m = Model.from_bags(named_graph("path_2"), named_graph("path_2"), [{0}, set()])
        assert not verify_model(m)

    def test_out_of_range_raises(self):
        m = Model.from_bags(named_graph("path_2"), named_graph("path_2"), [{0}, {9}])
        with pytest.raises(GraphError):
            verify_model(m)

    def test_agrees_with_naive_on_random_collections(self):
        rng = random.Random(42)
        hits = 0
        for _ in range(10_000):
            host = rand_graph(rng.randint(4, 9), rng.choice([0.2, 0.4, 0.6]), rng)
            k = rng.randint(1, 5)
            pattern = rand_graph(k, 0.5, rng)
            pool = list(range(host.n))
            rng.shuffle(pool)
            bags = []
            for i in range(k):
                take = rng.randint(0, max(0, len(pool) // (k - i + 1)))
                bags.append(set(pool[:take]))
                pool = pool[take:]
            m = Model.from_bags(pattern, host, bags)
            mine = verify_model(m)
            assert mine == naive_verify_model(pattern, host, bags)
            hits += mine
        assert hits > 0  # the sample includes genuine models


class TestShrink:
    def test_degree_one_bag_becomes_singleton(self):
        m = Model.from_bags(named_graph("path_2"), named_graph("path_4"), [{0, 1}, {2}])
        out = shrink_small_degree_bag(m, 0)
        assert out.bags[0] == {1} and verify_model(out)

    def test_degree_zero(self):
        pattern = Graph.from_edges(2, [])
        host = Graph.from_edges(4, [(0, 1)])
        m = Model.from_bags(pattern, host, [{0, 1}, {3}])
        assert shrink_small_degree_bag(m, 0).bags[0] == {0}

    def test_degree_two_keeps_shortest_connector(self):
        # bag {1,2,3,4} joins 0 to 5 both via 1-2 and via 3-4; 1-2 wins
        host = Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5), (1, 3)]
        )
        m = Model.from_bags(named_graph("path_3"), host, [{0}, {1, 2, 3, 4}, {5}])
        assert verify_model(m)
        out = shrink_small_degree_bag(m, 1)
        assert out.bags[1] == {1, 2} and verify_model(out)

    def test_singleton_unchanged(self):
        c4 = named_graph("cycle_4")
        m = Model.from_bags(c4, c4, [{i} for i in range(4)])
        assert shrink_small_degree_bag(m, 2) == m

    def test_high_degree_rejected(self):
        gem = named_graph("gem")
        m = Model.from_bags(gem, gem, [{i} for i in range(5)])
        with pytest.raises(ModelError):
            shrink_small_degree_bag(m, 4)


class TestStraighten:
    def test_path_in_cycle_host(self):
        m = Model.from_bags(
            named_graph("path_4"), named_graph("cycle_7"), [{0}, {1, 2}, {3, 4}, {5}]
        )
        out = straighten_path_bags(m, [0, 1, 2, 3])
        assert verify_model(out)
        assert len(out.bags[1]) == 1 and len(out.bags[2]) == 1
        assert out.bags[0] == m.bags[0]
        assert out.bag_union() <= m.bag_union()

    def test_all_singleton_unchanged(self):
        p4 = named_graph("path_4")
        m = Model.from_bags(p4, p4, [{i} for i in range(4)])
        assert straighten_path_bags(m, [0, 1, 2, 3]) == m

    def test_short_paths_unchanged(self):
        p2, p4 = named_graph("path_2"), named_graph("path_4")
        m = Model.from_bags(p2, p4, [{0, 1}, {2}])
        assert straighten_path_bags(m, [0, 1]) == m
        assert straighten_path_bags(m, [0]) == m

    def test_cycle_pattern_two_passes_leave_one_fat_bag(self):
        m = Model.from_bags(
            named_graph("cycle_4"),
            named_graph("cycle_8"),
            [{0, 1}, {2, 3}, {4, 5}, {6, 7}],
        )
        first = straighten_path_bags(m, [0, 1, 2, 3])
        assert verify_model(first)
        second = straighten_path_bags(first, [2, 3, 0])
        assert verify_model(second)
        assert sum(1 for b in second.bags if len(b) > 1) <= 1

    def test_non_path_rejected(self):
        c4 = named_graph("cycle_4")
        m = Model.from_bags(c4, c4, [{i} for i in range(4)])
        with pytest.raises(ModelError):
            straighten_path_bags(m, [0, 2, 1])
        with pytest.raises(ModelError):
            straighten_path_bags(m, [0, 1, 0])

    def test_randomized_validity_and_shrinkage(self):
        rng = random.Random(99)
        done = 0
        while done < 300:
            m = random_quotient_model(rng)
            if m is None or not verify_model(m):
                continue
            path = _some_inner_path(m.pattern)
            if path is None:
                continue
            out = straighten_path_bags(m, path)
            assert verify_model(out)
            assert out.bag_union() <= m.bag_union()
            for v in range(m.pattern.n):
                if v not in path[1:]:
                    assert out.bags[v] == m.bags[v]
            for v in path[1:-1]:
                assert len(out.bags[v]) == 1
            done += 1


def _some_inner_path(pattern):
    """A pattern path whose internal vertices have degree 2, if any."""
    for a in range(pattern.n):
        for m in range(pattern.n):
            if m == a or pattern.degree(m) != 2 or not pattern.has_edge(a, m):
                continue
            for b in range(pattern.n):
                if b in (a, m) or not pattern.has_edge(m, b):
                    continue
                return [a, m, b]
    return None


class TestLift:
    def test_identity_trace(self):
        c4 = named_graph("cycle_4")
        tr = contract_edges_traced(c4, [])
        m = Model.from_bags(c4, c4, [{i} for i in range(4)])
        assert lift_through_trace(m, tr) == m

    def test_cycle_contraction(self):
        c4 = named_graph("cycle_4")
        tr = contract_edges_traced(c4, [(0, 1)])
        inner = Model.from_bags(
            named_graph("complete_3"), tr.target, [{0}, {1}, {2}]
        )
        lifted = lift_through_trace(inner, tr)
        assert verify_model(lifted)
        assert lifted.bags[0] == {0, 1}

    def test_host_mismatch_rejected(self):
        c4 = named_graph("cycle_4")
        tr = contract_edges_traced(c4, [(0, 1)])
        m = Model.from_bags(c4, c4, [{i} for i in range(4)])
        with pytest.raises(ModelError):
            lift_through_trace(m, tr)

    def test_random_lifts_stay_valid(self):
        rng = random.Random(17)
        done = 0
        while done < 200:
            m = random_quotient_model(rng)
            if m is None or not verify_model(m):
                continue
            host_edges = m.host.edges()
            if not host_edges:
                continue
            picks = rng.sample(host_edges, min(2, len(host_edges)))
            try:
                tr = contract_edges_traced(m.host, picks[:1])
            except GraphError:
                continue
            inner = random_quotient_model(rng, host_n=tr.target.n)
            if inner is None:
                continue
            inner = Model(inner.pattern, tr.target, inner.bags)
            if not verify_model(inner):
                continue
            assert verify_model(lift_through_trace(inner, tr))
            done += 1


class TestAnswer:
    def test_witness_must_verify(self):
        m = Model.from_bags(
            named_graph("complete_3"), named_graph("path_3"), [{0}, {1}, {2}]
        )
        with pytest.raises(ModelError):
            answer_yes(m, "x")

    def test_witness_on_negative_rejected(self):
        c3 = named_graph("complete_3")
        m = Model.from_bags(c3, c3, [{0}, {1}, {2}])
        with pytest.raises(ModelError):
            Answer(False, "x", m)

    def test_certified_flag_requires_bare_positive(self):
        with pytest.raises(ModelError):
            Answer(False, "x", certified_without_witness=True)


class TestWitnessJson:
    def test_schema_and_field_order(self):
        c4 = named_graph("cycle_4")
        m = Model.from_bags(c4, c4, [{i} for i in range(4)])
        text = witness_to_json(m)
        assert text.startswith('{"pattern_n": 4, "host_graph6": ')
        assert list(witness_to_dict(m)) == ["pattern_n", "host_graph6", "bags"]

    def test_round_trip(self):
        m = Model.from_bags(
            named_graph("complete_3"), named_graph("cycle_4"), [{0}, {1}, {2, 3}]
        )
        again = witness_from_json(witness_to_json(m), named_graph("complete_3"))
        assert again == m and verify_model(again)

    def test_bags_sorted_ascending(self):
        m = Model.from_bags(
            named_graph("path_2"), named_graph("path_4"), [{3, 1, 2}, {0}]
        )
        assert witness_to_dict(m)["bags"]["0"] == [1, 2, 3]

    def test_pattern_order_mismatch_rejected(self):
        c4 = named_graph("cycle_4")
        m = Model.from_bags(c4, c4, [{i} for i in range(4)])
        with pytest.raises(ModelError):
            witness_from_json(witness_to_json(m), named_graph("path_3"))

    def test_byte_determinism(self):
        m = Model.from_bags(
            named_graph("complete_3"), named_graph("cycle_4"), [{0}, {1}, {2, 3}]
        )
        assert witness_to_json(m) == witness_to_json(m)
