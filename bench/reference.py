"""Independent correctness checks: no code here comes from ``indminor``.

* :func:`model_ok` checks a witness with set loops over the benchmark's own
  copy of host and pattern.
* :func:`is_chordal`, :func:`reduces_series_parallel` and
  :func:`is_grid_layout` re-prove what the generators claim.
* :func:`brute_verdicts` decides every sweep pattern on a host with at most
  nine vertices by enumerating families of disjoint connected vertex sets.
"""

from __future__ import annotations

from itertools import combinations, permutations

from gen import PATTERNS, Host


def model_ok(pattern: Host, host: Host, bags) -> bool:
    """Bags non-empty, disjoint, in range, connected, and adjacent exactly
    when their pattern vertices are."""
    sets = [set(b) for b in bags]
    if len(sets) != pattern.n:
        return False
    seen: set[int] = set()
    for b in sets:
        if not b or b & seen or any(not (0 <= v < host.n) for v in b):
            return False
        seen |= b
        start = next(iter(b))
        reached, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for y in host.adj[x] & b:
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        if reached != b:
            return False
    for i, j in combinations(range(pattern.n), 2):
        touching = any(host.adj[x] & sets[j] for x in sets[i])
        if touching != (j in pattern.adj[i]):
            return False
    return True


def is_chordal(g: Host) -> bool:
    """Maximum cardinality search, then check the reverse visit order is a
    perfect elimination order (Tarjan and Yannakakis 1984)."""
    weight = [0] * g.n
    order: list[int] = []
    placed = [False] * g.n
    for _ in range(g.n):
        v = max((u for u in range(g.n) if not placed[u]), key=lambda u: weight[u])
        placed[v] = True
        order.append(v)
        for w in g.adj[v]:
            if not placed[w]:
                weight[w] += 1
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [w for w in g.adj[v] if pos[w] < pos[v]]
        if earlier:
            parent = max(earlier, key=pos.__getitem__)
            if not set(earlier) - {parent} <= g.adj[parent]:
                return False
    return True


def reduces_series_parallel(g: Host) -> bool:
    """Delete vertices of degree <= 1 and bypass vertices of degree 2 until
    stuck; the graph has no K4 minor iff nothing is left (Duffin 1965)."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    low = [v for v in adj if len(adj[v]) <= 2]
    while low:
        v = low.pop()
        if v not in adj or len(adj[v]) > 2:
            continue
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u].discard(v)
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)
        low.extend(u for u in nbrs if len(adj[u]) <= 2)
    return not adj


def is_grid_layout(g: Host, coords: dict[int, tuple[int, int]]) -> bool:
    """Distinct coordinates, and an edge exactly between coordinates at
    Manhattan distance one: a subgraph of the plane grid, hence planar."""
    if sorted(coords) != list(range(g.n)) or len(set(coords.values())) != g.n:
        return False
    at = {xy: v for v, xy in coords.items()}
    for v, (r, c) in coords.items():
        want = {at[p] for p in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)) if p in at}
        if g.adj[v] != want:
            return False
    return True


# ---------------------------------------------------------------------------
# brute-force reference verdicts for small hosts


def _pair_bit(i: int, j: int) -> int:
    """Bit of the pair ``i < j`` in the colex order, so that the code of a
    graph's first ``j`` vertices is a prefix of the code of all of them."""
    return 1 << (j * (j - 1) // 2 + i)


def _labelled_codes(name: str) -> set[int]:
    """Adjacency codes of every vertex labelling of pattern ``name``."""
    k, edges = PATTERNS[name]
    out = set()
    for perm in permutations(range(k)):
        code = 0
        for a, b in edges:
            i, j = sorted((perm[a], perm[b]))
            code |= _pair_bit(i, j)
        out.add(code)
    return out


_CODES = {name: _labelled_codes(name) for name in PATTERNS}


def brute_verdicts(g: Host, names=tuple(PATTERNS)) -> dict[str, bool]:
    """Which of ``names`` are induced minors of ``g``.

    A model is a family of disjoint connected bags whose quotient is the
    pattern.  Families are built bag by bag in increasing order of each
    bag's smallest vertex; the quotient's adjacency code grows by one
    column per bag, and a family is extended only while its code is a
    labelled induced subgraph of a pattern not found yet.
    """
    n = g.n
    if n > 12:
        raise ValueError("the brute-force reference is meant for tiny hosts")
    adjm = [sum(1 << w for w in g.adj[v]) for v in range(n)]
    by_min: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        reach, frontier = 1 << low, 1 << low
        while frontier:
            grown = 0
            for v in range(n):
                if frontier >> v & 1:
                    grown |= adjm[v]
            frontier = grown & mask & ~reach
            reach |= frontier
        if reach == mask:
            nbr = 0
            for v in range(n):
                if mask >> v & 1:
                    nbr |= adjm[v]
            by_min[low].append((mask, nbr & ~mask))

    todo = {name for name in names if PATTERNS[name][0] <= n}
    found = {name: False for name in names}
    maxk = max((PATTERNS[name][0] for name in todo), default=0)
    state: dict = {}

    def refresh() -> None:
        # full[j]: code -> patterns on j vertices; prefix[j]: codes of the
        # first j vertices of some labelling of a pattern still to find
        full: list[dict[int, list[str]]] = [dict() for _ in range(maxk + 1)]
        prefix: list[set[int]] = [set() for _ in range(maxk + 1)]
        for name in todo:
            k = PATTERNS[name][0]
            for code in _CODES[name]:
                full[k].setdefault(code, []).append(name)
                for j in range(1, k + 1):
                    prefix[j].add(code & ((1 << (j * (j - 1) // 2)) - 1))
        state["full"], state["prefix"] = full, prefix

    def extend(nbrs: list[int], used: int, code: int, after: int) -> bool:
        j = len(nbrs)
        if j == maxk:
            return False
        for v in range(after + 1, n):
            if used >> v & 1:
                continue
            for mask, nbr in by_min[v]:
                if mask & used:
                    continue
                c = code
                for i, other in enumerate(nbrs):
                    if other & mask:
                        c |= _pair_bit(i, j)
                if c not in state["prefix"][j + 1]:
                    continue
                hit = state["full"][j + 1].get(c)
                if hit:
                    for name in hit:
                        found[name] = True
                        todo.discard(name)
                    if not todo:
                        return True
                    refresh()
                    if c not in state["prefix"][j + 1]:
                        continue
                nbrs.append(nbr)
                done = extend(nbrs, used | mask, c, v)
                nbrs.pop()
                if done:
                    return True
        return False

    if todo:
        refresh()
        extend([], 0, 0, -1)
    return found
