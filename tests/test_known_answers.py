"""Known answers past the oracle's horizon: hosts whose answer holds by
construction at any size.

k-trees are chordal, and chordal graphs are closed under vertex deletion and
edge contraction, so a pattern with an induced cycle of length at least 4
is never an induced minor of one.  A planted model is a "yes" by
construction; its witness is checked by the set-based reference checker.
A k-tree with k >= 3 has a K4 subgraph, so it holds a K4 model at any size.
"""

import random

import pytest

from conftest import is_chordal, ktree, naive_verify_model, pc_of, planted_host
from indminor import solvers
from indminor.catalog import named_graph
from indminor.models import verify_model
from indminor.oracle import clique_minor_test
from indminor.solvers import solve_clique, solve_house_bull, solve_snt_single

FLOWER_HOLES = ["cycle_4", "cycle_5", "cycle_6"]


def test_chordality_check_rejects_a_hole():
    assert is_chordal(named_graph("cycle_3"))
    assert not is_chordal(named_graph("cycle_4"))
    assert not is_chordal(named_graph("house"))


@pytest.mark.parametrize("k, n", [(2, 40), (2, 80), (3, 40), (3, 80)])
def test_no_hole_pattern_in_a_ktree(k, n):
    g = ktree(random.Random(1000 * k + n), n, k)
    for name in FLOWER_HOLES:
        h = named_graph(name)
        answer = solve_snt_single(g, h, pc_of(h, "flower"))
        assert not answer.contains, name
    house = named_graph("house")
    assert not solve_house_bull(g, house, pc_of(house, "generalized_house")).contains


@pytest.mark.parametrize("k", [2, 3])
def test_no_hole_flower_in_a_200_vertex_ktree(k):
    g = ktree(random.Random(200 + k), 200, k)
    for name in FLOWER_HOLES:
        h = named_graph(name)
        assert not solve_snt_single(g, h, pc_of(h, "flower")).contains, name


def test_flowers_on_chordal_hosts_yield_no_prefix(monkeypatch):
    """The engine's forward check rejects every flower prefix on a chordal
    host, so the completion region is never built.

    cycle_5 and cycle_6 place the path b_1, b_2, ... of the cycle minus its
    centre.  Once b_1 and b_2 are placed, the centre and the rest of the path
    form one group that must touch N(b_1) and N(b_2) inside its region D.
    Only the vertex after b_2 may meet N(b_2), in N(b_2) - N[b_1]; the
    others stay outside N[b_2], and D misses b_1, b_2 and their common
    neighbours.  A shortest path in G[D] from N(b_1) to N(b_2) then closes,
    through b_2 and b_1, an induced cycle of at least 4 vertices, which a
    chordal host does not have.
    """
    calls = []
    region = solvers.touching_region

    def counted(*args):
        calls.append(args)
        return region(*args)

    monkeypatch.setattr(solvers, "touching_region", counted)
    for name in ("cycle_5", "cycle_6"):
        h = named_graph(name)
        pc = pc_of(h, "flower")
        for k in (2, 3):
            for n in (20, 60, 120):
                for seed in range(3):
                    g = ktree(random.Random(seed), n, k)
                    assert not solve_snt_single(g, h, pc).contains
    assert calls == []


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "name, kind, solve",
    [
        ("cycle_5", "flower", solve_snt_single),
        ("house", "generalized_house", solve_house_bull),
        ("bull", "generalized_bull", solve_house_bull),
    ],
)
def test_planted_model_is_found(name, kind, solve, seed):
    h = named_graph(name)
    g, bags = planted_host(random.Random(seed), h, 60)
    assert naive_verify_model(h, g, bags)  # the plant itself is a model
    answer = solve(g, h, pc_of(h, kind))
    assert answer.contains and answer.witness is not None
    assert answer.witness.host == g
    assert naive_verify_model(h, g, answer.witness.bags)


def test_k4_in_a_1100_vertex_3tree():
    # the 3-tree is its own stuck graph and has more vertices than Python's
    # recursion limit, so a search that recursed per vertex could not
    # finish; the search is still exponential, and on some other seeds it
    # takes seconds (ROADMAP item 5)
    g = ktree(random.Random(1), 1100, 3)
    model = clique_minor_test(g, 4)
    assert model is not None
    assert naive_verify_model(model.pattern, g, model.bags)


def test_solve_clique_k4_in_a_200_vertex_3tree():
    answer = solve_clique(ktree(random.Random(203), 200, 3), 4)
    assert answer.contains and verify_model(answer.witness)
