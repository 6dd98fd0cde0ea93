"""Recognition of tractable pattern families and named pattern constructors.

Patterns are small and fixed, so every recognizer works by exhaustive role
labeling; ties are broken toward the smallest role tuple and the resulting
classification is isomorphism-invariant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, GraphError, bits, complete_graph, component_masks
from .oracle import induced_subgraph_search

KIND_ORDER = (
    "disjoint_paths",
    "clique",
    "clique_plus_isolated",
    "flower",
    "generalized_house",
    "generalized_bull",
    "complete_split",
    "gem",
    "full_house",
    "unsupported",
)


@dataclass(frozen=True)
class PatternClass:
    """One family membership of a pattern, with its role labeling.

    ``roles`` for houses/bulls is ``(a, u, v, b_1, ..., b_r)``; ``split``
    is the bull's missing-edge position ``s`` (``None`` for houses).
    ``parts`` for complete splits is ``(clique_vertices, independent_vertices)``.
    """

    kind: str
    k: int | None = None
    p: int | None = None
    center: int | None = None
    roles: tuple[int, ...] | None = None
    split: int | None = None
    parts: tuple[tuple[int, ...], ...] | None = None


def induces_path(g: Graph, comp: int) -> list[int] | None:
    """Vertex order of the path induced by component mask ``comp``, if any."""
    members = list(bits(comp))
    if len(members) == 1:
        return members
    ends = []
    for v in members:
        d = (g.adj[v] & comp).bit_count()
        if d > 2:
            return None
        if d == 1:
            ends.append(v)
    if len(ends) != 2:
        return None
    order = [min(ends)]
    seen = 1 << order[0]
    while len(order) < len(members):
        nxt = g.adj[order[-1]] & comp & ~seen
        if not nxt:
            return None
        w = nxt & -nxt
        order.append(w.bit_length() - 1)
        seen |= w
    return order


def is_disjoint_paths(h: Graph) -> bool:
    return all(
        induces_path(h, comp) is not None
        for comp in component_masks(h.adj, h.full_mask())
    )


def _clique_order(h: Graph) -> int | None:
    if h.n >= 1 and h.edge_count == h.n * (h.n - 1) // 2:
        return h.n
    return None


def _clique_plus_isolated(h: Graph) -> int | None:
    comps = component_masks(h.adj, h.full_mask())
    if len(comps) != 2:
        return None
    sizes = sorted(c.bit_count() for c in comps)
    if sizes[0] != 1:
        return None
    big = max(comps, key=lambda c: (c.bit_count(), -(c & -c)))
    k = big.bit_count() if big.bit_count() > 1 else 1
    inside = [v for v in bits(big)]
    for v in inside:
        if (h.adj[v] & big).bit_count() != k - 1:
            return None
    return k


def is_flower(h: Graph) -> int | None:
    """Smallest vertex whose removal leaves qualifying paths, else ``None``.

    Each remaining path must be a sepal (3 vertices, complete to the
    center), or touch the center only at its extremities (petal: both,
    stamen: one, or not at all).
    """
    for u in range(h.n):
        rest = h.full_mask() & ~(1 << u)
        ok = True
        for comp in component_masks(h.adj, rest):
            order = induces_path(h, comp)
            if order is None:
                ok = False
                break
            attach = [v for v in order if h.adj[u] >> v & 1]
            if len(order) == 3 and len(attach) == 3:
                continue  # sepal
            endpoints = {order[0], order[-1]}
            if not set(attach) <= endpoints:
                ok = False
                break
        if ok:
            return u
    return None


def _house_bull_edges(
    n: int, roles: Sequence[int], split: int | None
) -> set[tuple[int, int]]:
    a, u, v = roles[0], roles[1], roles[2]
    chain = list(roles[3:])
    r = len(chain)
    edges = {(a, u), (a, v), (u, v), (u, chain[0]), (v, chain[-1])}
    for i in range(r - 1):
        if split is not None and i == split - 1:
            continue
        edges.add((chain[i], chain[i + 1]))
    return {(min(x, y), max(x, y)) for x, y in edges}


def is_generalized_house_or_bull(h: Graph) -> PatternClass | None:
    """Exhaustive role labeling for the triangle-with-attached-path shapes.

    A house is a triangle ``a,u,v`` with ``b`` on ``u``, ``c`` on ``v`` and a
    path from ``b`` to ``c`` through fresh degree-2 vertices; a bull is the
    same with one path edge missing.  Smallest qualifying role tuple wins.
    """
    n = h.n
    if n < 5:
        return None
    hedges = {(min(x, y), max(x, y)) for x, y in h.edges()}
    for a in range(n):
        if h.degree(a) != 2:
            continue
        for u in bits(h.adj[a]):
            for v in bits(h.adj[a]):
                if u == v or not h.has_edge(u, v):
                    continue
                if h.degree(u) != 3 or h.degree(v) != 3:
                    continue
                b = next(iter(set(bits(h.adj[u])) - {a, v}))
                c = next(iter(set(bits(h.adj[v])) - {a, u}))
                if b == c or b in (a, u, v) or c in (a, u, v):
                    continue
                rest = h.full_mask() & ~((1 << a) | (1 << u) | (1 << v))
                comps = component_masks(h.adj, rest)
                paths = [induces_path(h, comp) for comp in comps]
                if any(p is None for p in paths):
                    continue
                if len(comps) == 1:
                    (path,) = paths
                    if path[0] == c and path[-1] == b:
                        path = path[::-1]
                    if path[0] != b or path[-1] != c:
                        continue
                    roles = (a, u, v, *path)
                    if _house_bull_edges(n, roles, None) == hedges:
                        return PatternClass("generalized_house", roles=roles)
                elif len(comps) == 2:
                    pb = next((p for p in paths if b in (p[0], p[-1])), None)
                    pc = next((p for p in paths if c in (p[0], p[-1])), None)
                    if pb is None or pc is None or pb is pc:
                        continue
                    if pb[0] != b:
                        pb = pb[::-1]
                    if pc[-1] != c:
                        pc = pc[::-1]
                    roles = (a, u, v, *pb, *pc)
                    s = len(pb)
                    if _house_bull_edges(n, roles, s) == hedges:
                        return PatternClass(
                            "generalized_bull", roles=roles, split=s
                        )
    return None


def is_complete_split(h: Graph) -> tuple[int, int, tuple[tuple[int, ...], ...]] | None:
    """``(k, p, (clique, independent))`` when ``h`` is a complete join of a
    clique onto an independent set, with both sides non-empty."""
    n = h.n
    universal = [v for v in range(n) if h.degree(v) == n - 1]
    rest = [v for v in range(n) if h.degree(v) != n - 1]
    if universal and rest:
        for x in rest:
            if any(h.has_edge(x, y) for y in rest if y > x):
                return None
        return len(universal), len(rest), (tuple(universal), tuple(rest))
    if not rest and n >= 2:
        # a clique splits as clique of n-1 plus one independent vertex
        return n - 1, 1, (tuple(range(n - 1)), (n - 1,))
    return None


_GEM = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
_FULL_HOUSE = Graph.from_edges(
    5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)]
)


def isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test for small graphs: equal order, size and degree
    sequence, then an induced copy of ``b`` in ``a``."""
    return (
        a.n == b.n
        and a.edge_count == b.edge_count
        and sorted(a.adj[v].bit_count() for v in range(a.n))
        == sorted(b.adj[v].bit_count() for v in range(b.n))
        and induced_subgraph_search(a, b) is not None
    )


def classify(h: Graph) -> list[PatternClass]:
    """All families ``h`` belongs to, in dispatch priority order.

    ``complete_split`` entries are reported for any clique size; the solver
    gate (clique side at most 3) is applied downstream.  ``unsupported`` is
    returned alone when nothing matches.
    """
    if h.n < 1:
        raise GraphError("patterns need at least one vertex")
    out: list[PatternClass] = []
    if is_disjoint_paths(h):
        out.append(PatternClass("disjoint_paths"))
    k = _clique_order(h)
    if k is not None:
        out.append(PatternClass("clique", k=k))
    k = _clique_plus_isolated(h)
    if k is not None:
        out.append(PatternClass("clique_plus_isolated", k=k))
    center = is_flower(h)
    if center is not None:
        out.append(PatternClass("flower", center=center))
    hb = is_generalized_house_or_bull(h)
    if hb is not None:
        out.append(hb)
    cs = is_complete_split(h)
    if cs is not None:
        out.append(PatternClass("complete_split", k=cs[0], p=cs[1], parts=cs[2]))
    if isomorphic(h, _GEM):
        out.append(PatternClass("gem"))
    if isomorphic(h, _FULL_HOUSE):
        out.append(PatternClass("full_house"))
    if not out:
        out.append(PatternClass("unsupported"))
    return out


def reconstruct(pc: PatternClass, n: int) -> Graph | None:
    """Rebuild a graph from role data, for round-trip checks."""
    if pc.kind in ("generalized_house", "generalized_bull"):
        return Graph.from_edges(n, sorted(_house_bull_edges(n, pc.roles, pc.split)))
    if pc.kind == "complete_split":
        clique, indep = pc.parts
        edges = [(a, b) for i, a in enumerate(clique) for b in clique[i + 1 :]]
        edges += [(a, b) for a in clique for b in indep]
        return Graph.from_edges(n, [(min(a, b), max(a, b)) for a, b in edges])
    if pc.kind == "clique":
        return complete_graph(n)
    return None


# ---------------------------------------------------------------------------
# named constructors

_PARAMETRIC = re.compile(r"^(path|cycle|complete)_(\d+)$")


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


_FIXED = {
    # roles (a, u, v, b, c) = (0, 1, 2, 3, 4)
    "house": lambda: Graph.from_edges(
        5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)]
    ),
    "bull": lambda: Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
    "gem": lambda: _GEM,
    "full_house": lambda: _FULL_HOUSE,
    # clique {0,1} joined onto independent {2,3,4}
    "crown": lambda: Graph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    ),
    "k5_minus": lambda: Graph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    ),
    "k23": lambda: Graph.from_edges(
        5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    ),
    "w4": lambda: Graph.from_edges(
        5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 4), (3, 4)]
    ),
    # triangles 0,1,2 and 3,4,5 with the matching 0-3, 1-4, 2-5
    "prism": lambda: Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    ),
    "k33": lambda: Graph.from_edges(
        6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
    ),
    "k4": lambda: complete_graph(4),
}


def named_graph(name: str) -> Graph:
    """A catalog graph by name; parametric forms: path_n, cycle_n, complete_n."""
    if name in _FIXED:
        return _FIXED[name]()
    m = _PARAMETRIC.match(name)
    if m:
        builder = {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph}
        return builder[m.group(1)](int(m.group(2)))
    raise GraphError(f"unknown catalog graph {name!r}")
