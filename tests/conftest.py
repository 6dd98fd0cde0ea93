"""Shared fixtures and independent reference implementations.

The naive checkers here deliberately avoid the package's bitmask machinery
so that agreement tests compare genuinely different code paths.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from indminor.catalog import PatternClass, classify
from indminor.graphs import Graph, longest_induced_path


# catalog patterns that dispatch sends to a specialized (non-oracle) solver
# on small hosts; parametric families are instantiated at desk sizes
SWEEP_PATTERNS = [
    "path_4", "path_5", "path_6",
    "cycle_4", "cycle_5", "cycle_6",
    "complete_3", "complete_4", "complete_5",
    "house", "bull", "gem", "full_house",
    "crown", "k5_minus", "k23", "w4", "prism", "k33",
]


def pc_of(h: Graph, kind: str) -> PatternClass:
    """The ``PatternClass`` of ``kind`` that ``classify`` finds for ``h``;
    when it finds none, its first class, which a solver of ``kind`` rejects."""
    pcs = classify(h)
    return next((pc for pc in pcs if pc.kind == kind), pcs[0])


def from_nx(G) -> Graph:
    nodes = sorted(G.nodes())
    idx = {v: i for i, v in enumerate(nodes)}
    return Graph.from_edges(len(nodes), [(idx[u], idx[v]) for u, v in G.edges()])


@pytest.fixture(scope="session")
def atlas():
    """All 1253 non-isomorphic graphs on at most 7 vertices."""
    import networkx as nx

    return [from_nx(G) for G in nx.graph_atlas_g()[1:]]


def rand_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def permuted(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# independent reference implementations (sets and dicts, no bitmasks)


def naive_verify_model(pattern: Graph, host: Graph, bags) -> bool:
    """Double-loop model check, independent of indminor.models.verify_model."""
    sets = [set(b) for b in bags]
    if len(sets) != pattern.n:
        return False
    for b in sets:
        if not b:
            return False
        for v in b:
            if not (0 <= v < host.n):
                return False
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                return False
    for b in sets:
        seen = {min(b)}
        frontier = [min(b)]
        while frontier:
            x = frontier.pop()
            for y in b:
                if y not in seen and host.has_edge(x, y):
                    seen.add(y)
                    frontier.append(y)
        if seen != b:
            return False
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            touching = any(
                host.has_edge(x, y) for x in sets[i] for y in sets[j]
            )
            if touching != pattern.has_edge(i, j):
                return False
    return True


def connected_subsets(host: Graph, max_size: int | None = None) -> list[set[int]]:
    out = []
    for size in range(1, (max_size or host.n) + 1):
        for comb in combinations(range(host.n), size):
            s = set(comb)
            seen = {comb[0]}
            stack = [comb[0]]
            while stack:
                x = stack.pop()
                for y in s:
                    if y not in seen and host.has_edge(x, y):
                        seen.add(y)
                        stack.append(y)
            if seen == s:
                out.append(s)
    return out


def brute_clique_minor_exists(host: Graph, k: int) -> bool:
    """Partition-style K_k minor search: choose k disjoint connected subsets,
    pairwise adjacent, bags in ascending order of their minimum vertex."""
    subsets = connected_subsets(host)

    def adjacent(a: set[int], b: set[int]) -> bool:
        return any(host.has_edge(x, y) for x in a for y in b)

    def extend(chosen: list[set[int]], used: set[int]) -> bool:
        if len(chosen) == k:
            return True
        floor = min(chosen[-1]) if chosen else -1
        for s in subsets:
            if min(s) <= floor or s & used:
                continue
            if all(adjacent(s, c) for c in chosen):
                if extend(chosen + [s], used | s):
                    return True
        return False

    return extend([], set())


def induced_path_exists(g: Graph, t: int) -> bool:
    """Induced P_t check by enumerating vertex subsets (reference only)."""
    from itertools import permutations

    if t == 1:
        return g.n >= 1
    for comb in combinations(range(g.n), t):
        for perm in permutations(comb):
            if perm[0] > perm[-1]:
                continue
            ok = True
            for i in range(t):
                for j in range(i + 1, t):
                    want = j == i + 1
                    if g.has_edge(perm[i], perm[j]) != want:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def random_quotient_model(rng: random.Random, host_n: int = 9):
    """A random valid model: random disjoint connected bags in a random host,
    pattern := the quotient those bags induce."""
    from indminor.models import Model

    host = rand_graph(host_n, rng.choice([0.25, 0.4, 0.55]), rng)
    k = rng.randint(2, 5)
    bags: list[set[int]] = []
    used: set[int] = set()
    for _ in range(k):
        free = [v for v in range(host.n) if v not in used]
        if not free:
            break
        seed = rng.choice(free)
        bag = {seed}
        for _ in range(rng.randint(0, 3)):
            frontier = [
                w
                for v in bag
                for w in range(host.n)
                if host.has_edge(v, w) and w not in used and w not in bag
            ]
            if not frontier:
                break
            bag.add(rng.choice(frontier))
        bags.append(bag)
        used |= bag
    if len(bags) < 2:
        return None
    k = len(bags)
    pedges = [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if any(host.has_edge(x, y) for x in bags[i] for y in bags[j])
    ]
    pattern = Graph.from_edges(k, pedges)
    return Model.from_bags(pattern, host, bags)


# ---------------------------------------------------------------------------
# hosts whose answer is known at any size


def is_chordal(g: Graph) -> bool:
    """Maximum cardinality search, then a perfect-elimination check of the
    reversed visit order (Tarjan & Yannakakis 1984); sets, no bitmasks."""
    nbrs = [{w for w in range(g.n) if g.has_edge(v, w)} for v in range(g.n)]
    weight = [0] * g.n
    visited: list[int] = []
    unvisited = set(range(g.n))
    while unvisited:
        v = max(sorted(unvisited), key=lambda w: weight[w])
        visited.append(v)
        unvisited.discard(v)
        for w in nbrs[v] & unvisited:
            weight[w] += 1
    # the reversed visit order must be a perfect elimination order: the
    # neighbours visited before v form a clique, and it suffices that the
    # last visited of them is adjacent to all the others
    position = {v: i for i, v in enumerate(visited)}
    for v in visited:
        earlier = [w for w in nbrs[v] if position[w] < position[v]]
        if not earlier:
            continue
        parent = max(earlier, key=lambda w: position[w])
        if not set(earlier) - {parent} <= nbrs[parent]:
            return False
    return True


def ktree(rng: random.Random, n: int, k: int) -> Graph:
    """A seeded k-tree on ``n`` vertices with shuffled labels: K_{k+1}, then
    each new vertex joins a random k-clique of the graph so far."""
    edges = list(combinations(range(k + 1), 2))
    cliques = list(combinations(range(k + 1), k))
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        edges += [(w, v) for w in base]
        cliques += [tuple(sorted(set(base) - {w})) + (v,) for w in base]
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph.from_edges(n, [(perm[a], perm[b]) for a, b in edges])
    if not is_chordal(g):
        raise AssertionError(f"{k}-tree on {n} vertices is not chordal")
    return g


def planted_host(rng: random.Random, pattern: Graph, n: int) -> tuple[Graph, list[set[int]]]:
    """A sparse ``n``-vertex host holding a model of ``pattern``, and its bags.

    Each bag is a random tree on 1 to 3 vertices; each pattern edge becomes
    one host edge between its bags and no other edge joins two bags.  The
    other vertices form a random spanning tree plus about ``n/2`` edges, and
    each bag vertex gets up to two edges into them.
    """
    sizes = [rng.randint(1, 3) for _ in range(pattern.n)]
    m = sum(sizes)
    bags, edges, start = [], set(), 0
    for s in sizes:
        members = list(range(start, start + s))
        for i in range(1, s):
            edges.add((members[rng.randrange(i)], members[i]))
        bags.append(members)
        start += s
    for a, b in pattern.edges():
        edges.add((rng.choice(bags[a]), rng.choice(bags[b])))
    base = list(range(m, n))
    for i in range(1, len(base)):
        edges.add((base[rng.randrange(i)], base[i]))
    while len(edges) < (n - 1) + n // 2:
        a, b = sorted(rng.sample(base, 2))
        edges.add((a, b))
    for x in range(m):
        for y in rng.sample(base, rng.randint(0, 2)):
            edges.add((x, y))
    perm = list(range(n))
    rng.shuffle(perm)
    host = Graph.from_edges(n, [(perm[a], perm[b]) for a, b in edges])
    return host, [{perm[x] for x in bag} for bag in bags]


def induced_p8_host(rng: random.Random, n: int, p: float) -> Graph:
    """A seeded host on ``n >= 8`` vertices with an induced P8: the chordless
    path 0..7, every pair with a vertex beyond it joined with probability
    ``p``, labels shuffled."""
    edges = [(i, i + 1) for i in range(7)]
    edges += [
        (i, j) for i in range(n) for j in range(max(i + 1, 8), n)
        if rng.random() < p
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph.from_edges(n, [(perm[a], perm[b]) for a, b in edges])
    if longest_induced_path(g, 8) < 8:
        raise AssertionError(f"{n}-vertex host has no induced P8")
    return g
