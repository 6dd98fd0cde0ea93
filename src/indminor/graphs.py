"""Immutable simple undirected graphs on dense integer vertex ids.

Adjacency is stored as one Python int bitmask per vertex, which keeps the
enumeration-heavy solvers fast and makes set algebra (intersection, union,
neighborhood sweeps) single arithmetic operations.  Python ints are
arbitrary-width, so the same representation covers every graph size this
package targets (desk scale, up to ~10^3 vertices).

Iteration order is ascending vertex index everywhere so that search results
and witnesses are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Malformed graph data or an out-of-range vertex."""


class GraphParseError(GraphError):
    """Unparseable graph6 or edge-list input; message carries the position."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph: ``n`` vertices ``0..n-1``, bitmask adjacency.

    ``adj[v]`` is the open-neighborhood bitmask of ``v``.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.adj) != self.n:
            raise GraphError(f"adjacency length {len(self.adj)} != n={self.n}")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"vertex {v} has a neighbor out of range")
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        if n < 0:
            raise GraphError("negative vertex count")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self.adj[v].bit_count()

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range for n={self.n}")


@dataclass(frozen=True)
class ContractionTrace:
    """Record of how ``target`` arises from ``source`` by edge contractions.

    ``preimage[t]`` is the set of source vertices merged into target vertex
    ``t``.  When ``allows_deletions`` is set, source vertices may be absent
    from every preimage (they were deleted before contracting); otherwise the
    preimages partition the source vertex set.
    """

    source: Graph
    target: Graph
    preimage: tuple[frozenset[int], ...]
    allows_deletions: bool = False

    def __post_init__(self) -> None:
        if len(self.preimage) != self.target.n:
            raise GraphError("preimage count != target vertex count")
        seen = 0
        for t, pre in enumerate(self.preimage):
            m = mask_of(pre)
            if not m:
                raise GraphError(f"empty preimage for target vertex {t}")
            if m & ~self.source.full_mask():
                raise GraphError(f"preimage of {t} out of source range")
            if m & seen:
                raise GraphError("preimages overlap")
            if not is_connected_mask(self.source.adj, m):
                raise GraphError(f"preimage of target vertex {t} is disconnected")
            seen |= m
        if not self.allows_deletions and seen != self.source.full_mask():
            raise GraphError("preimages do not cover the source graph")
        for t in range(self.target.n):
            nbr_t = neighbor_mask(self.source.adj, mask_of(self.preimage[t]))
            for s in range(t + 1, self.target.n):
                touching = bool(nbr_t & mask_of(self.preimage[s]))
                if touching != self.target.has_edge(t, s):
                    raise GraphError(
                        f"target adjacency of ({t},{s}) disagrees with preimages"
                    )


# ---------------------------------------------------------------------------
# mask-level helpers shared by the operations below and by the other modules


def neighbor_mask(adj: Sequence[int], m: int) -> int:
    """Open neighborhood of the vertex set ``m`` (excludes ``m`` itself)."""
    out = 0
    mm = m
    while mm:
        low = mm & -mm
        out |= adj[low.bit_length() - 1]
        mm ^= low
    return out & ~m


def closed_neighbor_mask(adj: Sequence[int], m: int) -> int:
    """Closed neighborhood of the vertex set ``m`` (includes ``m``)."""
    out = m
    mm = m
    while mm:
        low = mm & -mm
        out |= adj[low.bit_length() - 1]
        mm ^= low
    return out


def is_connected_mask(adj: Sequence[int], m: int) -> bool:
    """Whether ``m`` is non-empty and induces a connected subgraph."""
    if not m:
        return False
    start = m & -m
    reached = start
    frontier = start
    while frontier:
        grown = 0
        f = frontier
        while f:
            low = f & -f
            grown |= adj[low.bit_length() - 1]
            f ^= low
        grown &= m & ~reached
        reached |= grown
        frontier = grown
    return reached == m


def component_masks(adj: Sequence[int], m: int) -> list[int]:
    """Connected components of the subgraph induced by mask ``m``,
    ordered by smallest member."""
    comps = []
    rest = m
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            grown = 0
            f = frontier
            while f:
                low = f & -f
                grown |= adj[low.bit_length() - 1]
                f ^= low
            grown &= rest & ~comp
            comp |= grown
            frontier = grown
        comps.append(comp)
        rest &= ~comp
    return comps


# ---------------------------------------------------------------------------
# structural operations


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``s`` plus the new->old vertex map (ascending)."""
    keep = sorted(set(s))
    for v in keep:
        g.check_vertex(v)
    index = {old: new for new, old in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u in keep
        for v in bits(g.adj[u])
        if v in index and u < v
    ]
    return Graph.from_edges(len(keep), edges), tuple(keep)


def quotient_by_preimages(
    g: Graph, preimages: Sequence[Iterable[int]], allows_deletions: bool = False
) -> ContractionTrace:
    """Contract each preimage set of ``g`` to one vertex; validates the trace."""
    pre = tuple(frozenset(p) for p in preimages)
    owner: dict[int, int] = {}
    for t, p in enumerate(pre):
        for v in p:
            owner[v] = t
    k = len(pre)
    edges = set()
    for u, v in g.edges():
        tu, tv = owner.get(u), owner.get(v)
        if tu is not None and tv is not None and tu != tv:
            edges.add((min(tu, tv), max(tu, tv)))
    target = Graph.from_edges(k, sorted(edges))
    return ContractionTrace(g, target, pre, allows_deletions)


def contract_edges_traced(
    g: Graph, edge_list: Sequence[tuple[int, int]]
) -> ContractionTrace:
    """Contract the listed edges left to right, returning the full trace.

    Each pair names an edge of the *current* (progressively contracted)
    graph.  A contraction merges the two endpoints into the smaller-index
    one, after which vertices are relabeled densely; parallel edges and
    loops of the quotient are dropped (simple-graph semantics).
    """
    groups: list[frozenset[int]] = [frozenset({v}) for v in range(g.n)]
    current = g
    for u, v in edge_list:
        current.check_vertex(u)
        current.check_vertex(v)
        if not current.has_edge(u, v):
            raise GraphError(f"({u},{v}) is not an edge of the current graph")
        a, b = min(u, v), max(u, v)
        groups[a] = groups[a] | groups[b]
        del groups[b]
        groups.sort(key=min)
        current = quotient_by_preimages(g, groups).target
    return quotient_by_preimages(g, groups)


def subdivide_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Replace edge ``e`` by a path through a fresh degree-2 vertex ``n``."""
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"({u},{v}) is not an edge")
    w = g.n
    edges = [edge for edge in g.edges() if edge != (min(u, v), max(u, v))]
    edges += [(u, w), (v, w)]
    return Graph.from_edges(g.n + 1, edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets, ordered by smallest vertex."""
    return [set_of(m) for m in component_masks(g.adj, g.full_mask())]


def biconnected_components(g: Graph) -> list[frozenset[int]]:
    """The blocks of ``g`` (maximal 2-connected subgraphs and bridges).

    Every edge lies in exactly one block; articulation vertices appear in
    every block they join.  Isolated vertices belong to no block.  Blocks
    are returned sorted by their vertex tuples.  Iterative Hopcroft-Tarjan.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    blocks: list[frozenset[int]] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int]] = []
        # (vertex, parent, neighbor iterator)
        call: list[tuple[int, int, Iterator[int]]] = [(root, -1, bits(g.adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while call:
            v, parent, it = call[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    call.append((w, v, bits(g.adj[w])))
                    advanced = True
                    break
                if w != parent and disc[w] < disc[v]:
                    stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            call.pop()
            if call:
                pv = call[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    members: set[int] = set()
                    while stack:
                        a, b = stack.pop()
                        members.update((a, b))
                        if (a, b) == (pv, v):
                            break
                    blocks.append(frozenset(members))
    return sorted(blocks, key=sorted)


def is_pt_free(g: Graph, t: int) -> bool:
    """True iff ``g`` has no induced path on ``t`` vertices.

    Exhaustive DFS over induced-path extensions: a path ``p_1..p_k`` grows by
    a neighbor of ``p_k`` that avoids the neighborhoods of ``p_1..p_{k-1}``.
    Exact; intended for bounded ``t`` and desk-scale graphs.
    """
    if t < 1:
        raise GraphError("t must be positive")
    if t == 1:
        return g.n == 0
    adj = g.adj

    def extend(last: int, used: int, blocked: int, length: int) -> bool:
        # blocked = union of N[p_1..p_{k-1}]; candidates keep the path induced
        if length == t:
            return True
        cand = adj[last] & ~used & ~blocked
        nb = blocked | adj[last] | (1 << last)
        for w in bits(cand):
            if extend(w, used | (1 << w), nb, length + 1):
                return True
        return False

    for v in range(g.n):
        if extend(v, 1 << v, 0, 1):
            return False
    return True


def is_p4_free(g: Graph) -> bool:
    """Cograph test by complement-reducibility (independent of is_pt_free).

    A graph is P4-free iff every induced subgraph on two or more vertices is
    disconnected or has a disconnected complement.  The parts still to split
    wait on an explicit stack, so deep cotrees (threshold graphs) need no
    recursion.
    """
    full = g.full_mask()
    co_adj = [~row & full & ~(1 << v) for v, row in enumerate(g.adj)]
    stack = [full]
    while stack:
        mask = stack.pop()
        if mask.bit_count() <= 1:
            continue
        parts = component_masks(g.adj, mask)
        if len(parts) == 1:
            parts = component_masks(co_adj, mask)
            if len(parts) == 1:
                return False
        stack.extend(parts)
    return True


def is_complete_multipartite(g: Graph) -> list[frozenset[int]] | None:
    """The parts of ``g`` when non-adjacency (over distinct vertices) is
    transitive, i.e. when ``g`` is complete multipartite; ``None`` otherwise.

    Parts are ordered by smallest member.  The empty graph yields no parts.
    """
    full = g.full_mask()
    part_of = [-1] * g.n
    parts: list[int] = []
    for v in range(g.n):
        if part_of[v] != -1:
            continue
        part = ~g.adj[v] & full & ~(1 << v) | (1 << v)
        for u in bits(part):
            their = ~g.adj[u] & full & ~(1 << u) | (1 << u)
            if their != part:
                return None
            part_of[u] = len(parts)
        parts.append(part)
    return [set_of(p) for p in parts]


def is_wheel(g: Graph) -> bool:
    """True iff ``g`` is a cycle plus one vertex adjacent to >= 1 cycle vertex.

    The hub need only touch the cycle once, so e.g. a cycle with a pendant
    vertex qualifies.
    """
    if g.n < 4:
        return False
    for hub in range(g.n):
        if g.adj[hub] == 0:
            continue
        rim = g.full_mask() & ~(1 << hub)
        if cycle_order(g, rim) is not None:
            return True
    return False


def cycle_order(g: Graph, m: int) -> list[int] | None:
    """The vertices of ``m`` in cyclic order when they induce a cycle, else
    ``None``; the order starts at the smallest vertex and steps to its
    smaller cycle neighbour."""
    members = list(bits(m))
    if len(members) < 3:
        return None
    for v in members:
        if (g.adj[v] & m).bit_count() != 2:
            return None
    order = [members[0]]
    seen = 1 << members[0]
    while True:
        nxt = g.adj[order[-1]] & m & ~seen
        if not nxt:
            break
        w = (nxt & -nxt).bit_length() - 1
        order.append(w)
        seen |= 1 << w
    if len(order) != len(members):
        return None
    return order


def shortest_path_avoiding(
    g: Graph,
    sources: Iterable[int],
    targets: Iterable[int],
    forbidden: Iterable[int] = (),
) -> list[int] | None:
    """Lexicographically smallest shortest path between the sets, or ``None``.

    The path runs in ``g`` minus ``forbidden``; sources and targets must not
    meet ``forbidden``.  A vertex in both sets gives a length-0 path.
    """
    src = mask_of(sources)
    tgt = mask_of(targets)
    bad = mask_of(forbidden)
    if not src or not tgt:
        raise GraphError("sources and targets must be non-empty")
    if src & bad or tgt & bad:
        raise GraphError("sources/targets overlap the forbidden set")
    allowed = g.full_mask() & ~bad
    # distances to the target set, then a greedy smallest-vertex walk
    dist = {v: 0 for v in bits(tgt & allowed)}
    frontier = tgt & allowed
    d = 0
    while frontier:
        d += 1
        nxt = neighbor_mask(g.adj, frontier) & allowed
        nxt &= ~mask_of(dist)
        for v in bits(nxt):
            dist[v] = d
        frontier = nxt
    best = None
    for v in bits(src):
        if v in dist and (best is None or dist[v] < dist[best] or
                          (dist[v] == dist[best] and v < best)):
            best = v
    if best is None:
        return None
    path = [best]
    while dist[path[-1]] > 0:
        here = path[-1]
        for w in bits(g.adj[here] & allowed):
            if dist.get(w, -1) == dist[here] - 1:
                path.append(w)
                break
    return path


# ---------------------------------------------------------------------------
# serialization


def to_graph6(g: Graph) -> str:
    """Encode in graph6: size header then column-major upper-triangle bits."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise GraphError("graph too large for this graph6 encoder")
    bitstream: list[int] = []
    for j in range(1, n):
        for i in range(j):
            bitstream.append(1 if g.adj[i] >> j & 1 else 0)
    while len(bitstream) % 6:
        bitstream.append(0)
    body = []
    for k in range(0, len(bitstream), 6):
        val = 0
        for b in bitstream[k : k + 6]:
            val = val << 1 | b
        body.append(chr(val + 63))
    return head + "".join(body)


def from_graph6(text: str) -> Graph:
    """Decode a graph6 line (an optional ``>>graph6<<`` header is stripped)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :].strip()
    if not s:
        raise GraphParseError("empty graph6 input")
    vals = []
    for pos, ch in enumerate(s):
        code = ord(ch)
        if not (63 <= code <= 126):
            raise GraphParseError(f"invalid graph6 byte at position {pos}")
        vals.append(code - 63)
    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    elif len(vals) >= 4 and vals[1] < 63:
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    elif len(vals) >= 8:
        n = 0
        for v in vals[2:8]:
            n = n << 6 | v
        body = vals[8:]
    else:
        raise GraphParseError("truncated graph6 size header")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphParseError(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}"
        )
    stream: list[int] = []
    for v in body:
        for s6 in (5, 4, 3, 2, 1, 0):
            stream.append(v >> s6 & 1)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if stream[idx]:
                edges.append((i, j))
            idx += 1
    if any(stream[idx:]):
        raise GraphParseError("nonzero padding bits in graph6 body")
    return Graph.from_edges(n, edges)


def to_edgelist(g: Graph) -> str:
    """Plain text: an ``n m`` header line then one ``u v`` line per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def from_edgelist(text: str) -> Graph:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphParseError("line 1: missing 'n m' header")
    head = lines[0].split()
    if len(head) != 2 or not all(p.lstrip("-").isdigit() for p in head):
        raise GraphParseError("line 1: header must be two integers 'n m'")
    n, m = int(head[0]), int(head[1])
    edges = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
            raise GraphParseError(f"line {lineno}: expected 'u v'")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex out of range 0..{n-1}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop {u}")
        edges.append((u, v))
    if len(edges) != m:
        raise GraphParseError(f"header announced {m} edges, found {len(edges)}")
    try:
        return Graph.from_edges(n, edges)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from exc
