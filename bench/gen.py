"""Seeded host and pattern generators with self-checks.

Nothing here imports ``indminor``: graphs are plain ``(n, edges)`` data and
every structural claim a generator makes (chordal, K4-minor-free, a grid, a
valid planted model) is re-proved by an independent check in
:mod:`reference` before a query is built from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Host:
    """A simple undirected graph on ``0..n-1`` with neighbour sets."""

    n: int
    adj: tuple[frozenset[int], ...]

    @staticmethod
    def from_edges(n: int, edges) -> Host:
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u},{v}) for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        return Host(n, tuple(frozenset(s) for s in adj))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def relabel(self, perm: list[int]) -> Host:
        return Host.from_edges(self.n, [(perm[u], perm[v]) for u, v in self.edges()])


# Sweep patterns of the acceptance suite, defined here independently of the
# package's catalog.  Each is an edge list on 0..k-1.
PATTERNS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {}


def _def(name: str, k: int, edges) -> None:
    PATTERNS[name] = (k, tuple(sorted((min(a, b), max(a, b)) for a, b in edges)))


for _k in (4, 5, 6):
    _def(f"path_{_k}", _k, [(i, i + 1) for i in range(_k - 1)])
    _def(f"cycle_{_k}", _k, [(i, (i + 1) % _k) for i in range(_k)])
for _k in (3, 4, 5):
    _def(f"complete_{_k}", _k, combinations(range(_k), 2))
_def("house", 5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
_def("bull", 5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
_def("gem", 5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])
_def("full_house", 5, list(combinations(range(4), 2)) + [(4, 0), (4, 1)])
_def("crown", 5, [(0, 1)] + [(c, i) for c in (0, 1) for i in (2, 3, 4)])
_def("k5_minus", 5, [e for e in combinations(range(5), 2) if e != (3, 4)])
_def("k23", 5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
_def("w4", 5, [(0, 1), (1, 2), (2, 3), (3, 0)] + [(4, i) for i in range(4)])
_def("prism", 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
_def("k33", 6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])

SWEEP_PATTERNS = tuple(PATTERNS)


def pattern_host(name: str) -> Host:
    k, edges = PATTERNS[name]
    return Host.from_edges(k, edges)


def _shuffled(rng: random.Random, g: Host) -> tuple[Host, list[int]]:
    """``g`` under a random relabelling, and the old->new vertex map."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm), perm


# ---------------------------------------------------------------------------
# small random hosts


def random_small(rng: random.Random, n: int, p: float) -> Host:
    return Host.from_edges(
        n, [(a, b) for a, b in combinations(range(n), 2) if rng.random() < p]
    )


# ---------------------------------------------------------------------------
# structured hosts


def ktree_edges(rng: random.Random, n: int, k: int) -> list[tuple[int, int]]:
    """A random k-tree on ``0..n-1`` in insertion order (n > k)."""
    edges = list(combinations(range(k + 1), 2))
    cliques = [tuple(c) for c in combinations(range(k + 1), k)]
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        edges += [(u, v) for u in base]
        cliques += [tuple(x for x in base if x != drop) + (v,) for drop in base]
    return edges


def ktree(rng: random.Random, n: int, k: int) -> Host:
    return _shuffled(rng, Host.from_edges(n, ktree_edges(rng, n, k)))[0]


def series_parallel(rng: random.Random, n: int) -> Host:
    """A connected partial 2-tree: a 2-tree with random non-bridge edges dropped."""
    g = Host.from_edges(n, ktree_edges(rng, n, 2))
    adj = [set(s) for s in g.adj]
    for u, v in g.edges():
        if rng.random() < 0.35:
            adj[u].discard(v)
            adj[v].discard(u)
            if not _connected(adj, u, v):
                adj[u].add(v)
                adj[v].add(u)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return _shuffled(rng, Host.from_edges(n, edges))[0]


def _connected(adj, s: int, t: int) -> bool:
    seen = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        if x == t:
            return True
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False


def grid(rng: random.Random, n: int) -> tuple[Host, dict[int, tuple[int, int]]]:
    """``n`` vertices laid out row-major on a grid about ``sqrt(n)`` wide (the
    last row may be partial), relabelled, with each vertex's coordinates."""
    cols = max(2, round(n ** 0.5))
    edges = []
    for v in range(n):
        if (v + 1) % cols and v + 1 < n:
            edges.append((v, v + 1))
        if v + cols < n:
            edges.append((v, v + cols))
    g, perm = _shuffled(rng, Host.from_edges(n, edges))
    return g, {perm[v]: divmod(v, cols) for v in range(n)}


def cycle_with_twins(rng: random.Random, n: int) -> Host:
    """A cycle on about two thirds of the vertices; every other vertex is a
    false twin (same neighbours, non-adjacent) of a random cycle vertex."""
    m = max(4, 2 * n // 3)
    edges = [(i, (i + 1) % m) for i in range(m)]
    for t in range(m, n):
        x = rng.randrange(m)
        edges += [(t, (x - 1) % m), (t, (x + 1) % m)]
    return _shuffled(rng, Host.from_edges(n, edges))[0]


def random_sparse(rng: random.Random, n: int) -> Host:
    """A random spanning tree plus about ``n/2`` extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return _shuffled(rng, Host.from_edges(n, sorted(edges)))[0]


def base_host(rng: random.Random, kind: str, n: int) -> Host:
    if kind == "sparse":
        return random_sparse(rng, n)
    if kind == "grid":
        return grid(rng, n)[0]
    if kind == "ktree":
        return ktree(rng, n, rng.choice((2, 3)))
    if kind == "cycle_twins":
        return cycle_with_twins(rng, n)
    raise ValueError(f"unknown base kind {kind!r}")


def planted(
    rng: random.Random, pattern: str, base_kind: str, n: int
) -> tuple[Host, list[frozenset[int]]]:
    """A host on ``n`` vertices holding a model of ``pattern``, and its bags.

    Each bag is a random tree on 1 to 3 fresh vertices; each pattern edge
    becomes one host edge between its two bags, and no other edge joins two
    bags.  The remaining vertices form a ``base_kind`` host, and each model
    vertex gets up to two random edges into it, which a model may ignore
    because base vertices are deleted.
    """
    k, pedges = PATTERNS[pattern]
    sizes = [rng.randint(1, 3) for _ in range(k)]
    m = sum(sizes)
    base = base_host(rng, base_kind, n - m)
    edges = [(u + m, v + m) for u, v in base.edges()]
    bags, start = [], 0
    for s in sizes:
        members = list(range(start, start + s))
        for i in range(1, s):
            edges.append((members[rng.randrange(i)], members[i]))
        bags.append(members)
        start += s
    for a, b in pedges:
        edges.append((rng.choice(bags[a]), rng.choice(bags[b])))
    for x in range(m):
        for y in rng.sample(range(m, n), rng.randint(0, 2)):
            edges.append((x, y))
    g, perm = _shuffled(rng, Host.from_edges(n, edges))
    return g, [frozenset(perm[x] for x in bag) for bag in bags]
