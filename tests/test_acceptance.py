"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The oracle-agreement sweep (criterion 1) is shared with criteria 2 and 4
through a session fixture and parallelized over the available cores.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from itertools import combinations

import pytest

from conftest import (
    SWEEP_PATTERNS,
    brute_clique_minor_exists,
    from_nx,
    pc_of,
    rand_graph,
    random_quotient_model,
)
from indminor.catalog import named_graph
from indminor.cli import dispatch
from indminor.graphs import Graph, from_graph6, is_pt_free, subdivide_edge, to_graph6
from indminor.models import verify_model
from indminor.oracle import (
    clique_minor_test,
    induced_minor_exhaustive,
    induced_subgraph_search,
    iter_induced_minor_models,
)
from indminor.solvers import solve_house_bull
from indminor.models import shrink_small_degree_bag, straighten_path_bags

def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _smallest_pt(g: Graph, cap: int = 8) -> int | None:
    for t in range(2, cap + 1):
        if is_pt_free(g, t):
            return t
    return None


def _sweep_one_host(host_g6: str) -> list[tuple]:
    """dispatch-vs-oracle records for one host against every sweep pattern."""
    host = from_graph6(host_g6)
    out = []
    for name in SWEEP_PATTERNS:
        h = named_graph(name)
        if h.n > host.n:
            continue
        ans = dispatch(host, h)
        oracle = induced_minor_exhaustive(host, h)
        witness_ok = None
        bound_ok = None
        if ans.witness is not None:
            witness_ok = verify_model(ans.witness)
            if ans.method == "ptfree":
                t = _smallest_pt(host)
                bound_ok = t is not None and all(
                    len(bag) <= 1 + h.degree(u) * (t - 2)
                    for u, bag in enumerate(ans.witness.bags)
                )
        out.append(
            (name, host_g6, ans.contains, oracle is not None, ans.method,
             witness_ok, bound_ok)
        )
    return out


def _dispatch_only_host(host_g6: str) -> list[tuple]:
    host = from_graph6(host_g6)
    out = []
    for name in SWEEP_PATTERNS:
        h = named_graph(name)
        if h.n > host.n:
            continue
        ans = dispatch(host, h)
        ok = verify_model(ans.witness) if ans.witness is not None else None
        out.append((name, host_g6, ans.contains, ans.method, ok))
    return out


def _pool():
    return multiprocessing.Pool(processes=max(1, os.cpu_count() or 1))


@pytest.fixture(scope="session")
def sweep(atlas):
    """Criterion 1's sweep: every atlas host against every sweep pattern."""
    hosts = [to_graph6(g) for g in atlas]
    start = time.time()
    with _pool() as pool:
        chunks = pool.map(_sweep_one_host, hosts, chunksize=16)
    elapsed = time.time() - start
    return [rec for chunk in chunks for rec in chunk], elapsed


def test_criterion_1_oracle_agreement_sweep(sweep):
    records, elapsed = sweep
    disagreements = [r for r in records if r[2] != r[3]]
    oracle_routed = [r for r in records if r[4] == "oracle"]
    ok = not disagreements and not oracle_routed and elapsed < 600
    _report(
        1,
        ok,
        f"{len(records)} instances, {len(disagreements)} disagreements, "
        f"{len(oracle_routed)} oracle-routed, {elapsed:.0f}s (budget 600s)",
    )
    assert not disagreements
    assert not oracle_routed  # every pattern reached a specialized solver
    assert elapsed < 600


def test_criterion_2_witness_soundness(sweep):
    records, _ = sweep
    sweep_bad = [r for r in records if r[5] is False]
    sweep_wit = sum(1 for r in records if r[5] is not None)

    rng = random.Random(20260809)
    hosts9 = [
        to_graph6(rand_graph(9, rng.choice([0.2, 0.35, 0.5]), rng))
        for _ in range(500)
    ]
    with _pool() as pool:
        chunks = pool.map(_dispatch_only_host, hosts9, chunksize=8)
    rand_records = [rec for chunk in chunks for rec in chunk]
    rand_bad = [r for r in rand_records if r[4] is False]
    rand_wit = sum(1 for r in rand_records if r[4] is not None)
    ok = not sweep_bad and not rand_bad
    _report(
        2,
        ok,
        f"{sweep_wit} sweep witnesses + {rand_wit} random-host witnesses, "
        f"{len(sweep_bad) + len(rand_bad)} failures",
    )
    assert not sweep_bad and not rand_bad
    assert sweep_wit > 1000 and rand_wit > 500


def _paths_pattern(name: str) -> Graph:
    if name == "p2_p3":
        return Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    return named_graph(name)


def _lemma_0bb_host(host_g6: str) -> list[tuple]:
    host = from_graph6(host_g6)
    out = []
    for name in ("path_2", "path_3", "path_4", "path_5", "path_6", "p2_p3"):
        h = _paths_pattern(name)
        if h.n > host.n:
            continue
        minor = induced_minor_exhaustive(host, h) is not None
        sub = induced_subgraph_search(host, h) is not None
        out.append((name, host_g6, minor, sub))
    return out


def test_criterion_3_path_unions_reduce_to_induced_subgraphs(atlas):
    hosts = [to_graph6(g) for g in atlas]
    with _pool() as pool:
        chunks = pool.map(_lemma_0bb_host, hosts, chunksize=32)
    records = [rec for chunk in chunks for rec in chunk]
    disagreements = [r for r in records if r[2] != r[3]]
    _report(
        3,
        not disagreements,
        f"{len(records)} instances, {len(disagreements)} disagreements",
    )
    assert not disagreements


def test_criterion_4_bag_bound_on_pt_free_routes(sweep):
    records, _ = sweep
    checked = [r for r in records if r[6] is not None]
    violations = [r for r in checked if not r[6]]
    ok = not violations and checked
    _report(
        4,
        bool(ok),
        f"{len(checked)} bounded-bag witnesses checked, "
        f"{len(violations)} bound violations",
    )
    assert checked and not violations


def test_criterion_5_two_fat_bags_host():
    pattern = named_graph("bull")
    for e in [(1, 3), (2, 4)]:
        pattern = subdivide_edge(pattern, e)
    host = Graph.from_edges(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (0, 5), (1, 5), (5, 6), (2, 7), (3, 7), (7, 8)],
    )
    ans = solve_house_bull(host, pattern, pc_of(pattern, "generalized_bull"))
    counts = []
    for m in iter_induced_minor_models(host, pattern):
        assert verify_model(m)
        counts.append(sum(1 for b in m.bags if len(b) > 1))
    ok = ans.contains and counts and min(counts) >= 2
    _report(
        5,
        ok,
        f"solver says {ans.contains}, {len(counts)} models enumerated, "
        f"min non-trivial bags {min(counts) if counts else 'n/a'}",
    )
    assert ans.contains and verify_model(ans.witness)
    assert counts and min(counts) >= 2


def _ci_instance(args: tuple) -> tuple:
    c, tset, i = args
    edges = [(x, (x + 1) % c) for x in range(c)]
    for t in range(i):
        edges += [(c + t, x) for x in tset]
    g = Graph.from_edges(c + i, edges)
    fh = named_graph("full_house")
    ans = dispatch(g, fh)
    oracle = induced_minor_exhaustive(g, fh)
    wok = verify_model(ans.witness) if ans.witness is not None else None
    return (c, tset, i, ans.contains, oracle is not None, wok)


def test_criterion_6_full_house_cases():
    start = time.time()
    fh = named_graph("full_house")
    fixed = []
    for host, expected in [
        (named_graph("prism"), False),
        (subdivide_edge(named_graph("prism"), (0, 1)), True),
        (named_graph("k33"), False),
        (subdivide_edge(named_graph("k33"), (0, 3)), True),
    ]:
        ans = dispatch(host, fh)
        oracle = induced_minor_exhaustive(host, fh) is not None
        fixed.append(ans.contains == expected == oracle)

    instances = [
        (c, tset, i)
        for c in range(3, 8)
        for i in range(1, 4)
        for size in range(0, c + 1)
        for tset in combinations(range(c), size)
    ]
    with _pool() as pool:
        results = pool.map(_ci_instance, instances, chunksize=8)
    disagreements = [r for r in results if r[3] != r[4]]
    bad_wit = [r for r in results if r[5] is False]
    elapsed = time.time() - start
    ok = all(fixed) and not disagreements and not bad_wit and elapsed < 300
    _report(
        6,
        ok,
        f"4 subdivision cases {'ok' if all(fixed) else 'BAD'}, "
        f"{len(results)} cycle+twins instances, {len(disagreements)} "
        f"disagreements, {elapsed:.0f}s (budget 300s)",
    )
    assert all(fixed) and not disagreements and not bad_wit
    assert elapsed < 300


def _k4_host(host_g6: str) -> tuple:
    host = from_graph6(host_g6)
    mine = clique_minor_test(host, 4)
    if mine is not None and not verify_model(mine):
        return (host_g6, None, None, False)
    return (host_g6, mine is not None, brute_clique_minor_exists(host, 4), True)


def test_criterion_7_k4_reduction_equivalence(atlas):
    hosts = [to_graph6(g) for g in atlas]
    with _pool() as pool:
        results = pool.map(_k4_host, hosts, chunksize=32)
    disagreements = [r for r in results if r[1] != r[2]]
    bad_wit = [r for r in results if not r[3]]
    ok = not disagreements and not bad_wit
    _report(
        7,
        ok,
        f"{len(results)} hosts, {len(disagreements)} disagreements against "
        "the brute-force minor enumerator",
    )
    assert not disagreements and not bad_wit


def test_criterion_8_reductions_preserve_validity():
    rng = random.Random(1234)
    shrunk = straightened = 0
    trials = 0
    while trials < 10_000:
        m = random_quotient_model(rng)
        if m is None or not verify_model(m):
            continue
        trials += 1
        low = [u for u in range(m.pattern.n) if m.pattern.degree(u) <= 2]
        if low:
            u = rng.choice(low)
            out = shrink_small_degree_bag(m, u)
            assert verify_model(out)
            assert out.bag_union() <= m.bag_union()
            shrunk += 1
        path = _inner_path(m.pattern, rng)
        if path is not None:
            out = straighten_path_bags(m, path)
            assert verify_model(out)
            assert out.bag_union() <= m.bag_union()
            straightened += 1
    _report(
        8,
        True,
        f"{trials} random models, {shrunk} shrinks and "
        f"{straightened} straightenings stayed valid without growing",
    )
    assert shrunk > 2000 and straightened > 500


def _inner_path(pattern: Graph, rng: random.Random):
    options = []
    for mid in range(pattern.n):
        if pattern.degree(mid) != 2:
            continue
        nbrs = sorted(
            v for v in range(pattern.n) if pattern.has_edge(mid, v)
        )
        options.append([nbrs[0], mid, nbrs[1]])
    return rng.choice(options) if options else None


def _random_equivalence_host(args: tuple) -> list[tuple]:
    host_g6, names = args
    host = from_graph6(host_g6)
    out = []
    for name in names:
        h = named_graph(name)
        ans = dispatch(host, h)
        oracle = induced_minor_exhaustive(host, h)
        out.append((name, host_g6, ans.contains, oracle is not None))
    return out


def test_solver_oracle_equivalence_on_random_hosts():
    """Module property: solver answers match the oracle on 500 random hosts
    with 8 or 9 vertices, patterns cycling over every solver family."""
    rng = random.Random(97531)
    jobs = []
    for i in range(500):
        n = 8 if i % 2 == 0 else 9
        host = rand_graph(n, rng.choice([0.2, 0.35, 0.5]), rng)
        names = [SWEEP_PATTERNS[i % len(SWEEP_PATTERNS)]]
        jobs.append((to_graph6(host), names))
    with _pool() as pool:
        chunks = pool.map(_random_equivalence_host, jobs, chunksize=8)
    records = [rec for chunk in chunks for rec in chunk]
    disagreements = [r for r in records if r[2] != r[3]]
    print(
        f"AUX random-host equivalence: {len(records)} instances, "
        f"{len(disagreements)} disagreements"
    )
    assert not disagreements
