"""Recognition of tractable pattern families and named pattern constructors.

Patterns are small and fixed, so every recognizer works by exhaustive role
labeling; ties are broken toward the smallest role tuple and the resulting
classification is isomorphism-invariant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .graphs import Graph, GraphError, bits, complete_graph, component_masks
from .oracle import induced_subgraph_search

@dataclass(frozen=True)
class PatternClass:
    """One family membership of a pattern, with its role labeling.

    ``roles`` for houses/bulls is ``(a, u, v, b_1, ..., b_r)``; ``split``
    is the bull's missing-edge position ``s`` (``None`` for houses).
    ``parts`` for complete splits is ``(clique_vertices, independent_vertices)``
    and for a clique plus an isolated vertex ``(clique_vertices, (isolated,))``.
    ``center`` is a flower's centre.  Every recognizer of the table that
    :func:`classify` walks returns its family's class with these roles, the
    only ones the family solvers read.
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


def is_disjoint_paths(h: Graph) -> PatternClass | None:
    if all(
        induces_path(h, comp) is not None
        for comp in component_masks(h.adj, h.full_mask())
    ):
        return PatternClass("disjoint_paths")
    return None


def _clique(h: Graph) -> PatternClass | None:
    if h.n >= 1 and h.edge_count == h.n * (h.n - 1) // 2:
        return PatternClass("clique", k=h.n)
    return None


def _clique_plus_isolated(h: Graph) -> PatternClass | None:
    comps = component_masks(h.adj, h.full_mask())
    if len(comps) != 2:
        return None
    # the larger component is the clique, or the lower of two single vertices
    iso, big = sorted(comps, key=lambda c: (c.bit_count(), -(c & -c)))
    k = big.bit_count()
    if iso.bit_count() != 1 or any(
        (h.adj[v] & big).bit_count() != k - 1 for v in bits(big)
    ):
        return None
    return PatternClass(
        "clique_plus_isolated", k=k, parts=(tuple(bits(big)), tuple(bits(iso)))
    )


def is_flower(h: Graph) -> PatternClass | None:
    """The flower class whose ``center`` is the smallest vertex whose removal
    leaves qualifying paths, else ``None``.

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
            return PatternClass("flower", center=u)
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


def is_complete_split(h: Graph) -> PatternClass | None:
    """The complete-split class, with ``k``, ``p`` and ``parts = (clique,
    independent)``, when ``h`` is a complete join of a clique onto an
    independent set, with both sides non-empty."""
    n = h.n
    universal = [v for v in range(n) if h.degree(v) == n - 1]
    rest = [v for v in range(n) if h.degree(v) != n - 1]
    if not rest and n >= 2:
        # a clique splits as clique of n-1 plus one independent vertex
        universal, rest = universal[:-1], universal[-1:]
    if not universal or not rest:
        return None
    for x in rest:
        if any(h.has_edge(x, y) for y in rest if y > x):
            return None
    return PatternClass(
        "complete_split", k=len(universal), p=len(rest),
        parts=(tuple(universal), tuple(rest)),
    )


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


def _isomorphic_to(kind: str, graph: Graph) -> Callable[[Graph], PatternClass | None]:
    """The recognizer of the single pattern ``graph``, as class ``kind``."""
    return lambda h: PatternClass(kind) if isomorphic(h, graph) else None


# one recognizer per family, in the order of the family rows of cli.ROUTES
_RECOGNIZERS = (
    is_disjoint_paths,
    _clique,
    _clique_plus_isolated,
    is_flower,
    is_generalized_house_or_bull,
    is_complete_split,
    _isomorphic_to("gem", _GEM),
    _isomorphic_to("full_house", _FULL_HOUSE),
)


def classify(h: Graph) -> list[PatternClass]:
    """All families ``h`` belongs to, in the row order of ``cli.ROUTES``.

    ``complete_split`` entries are reported for any clique size; the solver
    gate (clique side at most 3) is a guard of its route.  ``unsupported`` is
    returned alone when nothing matches.
    """
    if h.n < 1:
        raise GraphError("patterns need at least one vertex")
    out = [pc for recognize in _RECOGNIZERS if (pc := recognize(h)) is not None]
    return out or [PatternClass("unsupported")]


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
