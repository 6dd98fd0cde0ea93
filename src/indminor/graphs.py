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


class InvariantViolation(RuntimeError):
    """A claim a theorem guarantees failed to hold: an implementation bug."""


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


def _grow(adj: Sequence[int], seed: int, m: int) -> int:
    """The union of the components of ``G[m]`` that meet ``seed`` (``seed``
    a submask of ``m``), grown breadth first."""
    comp = frontier = seed
    while frontier:
        grown = 0
        f = frontier
        while f:
            low = f & -f
            grown |= adj[low.bit_length() - 1]
            f ^= low
        grown &= m & ~comp
        comp |= grown
        frontier = grown
    return comp


def is_connected_mask(adj: Sequence[int], m: int) -> bool:
    """Whether ``m`` is non-empty and induces a connected subgraph."""
    return m != 0 and _grow(adj, m & -m, m) == m


def component_masks(adj: Sequence[int], m: int) -> list[int]:
    """Connected components of the subgraph induced by mask ``m``,
    ordered by smallest member."""
    comps = []
    rest = m
    while rest:
        comp = _grow(adj, rest & -rest, rest)
        comps.append(comp)
        rest &= ~comp
    return comps


def touching_component(adj: Sequence[int], m: int, needs: Sequence[int]) -> int:
    """The component of ``G[m]`` with the smallest member among those that
    meet every mask in ``needs``, or 0 when there is none.

    Only the components that meet ``needs[0]`` are grown, one from each
    still unreached vertex of ``m & needs[0]``, and each is tested with
    ``comp & need``; the rest of ``G[m]`` is never visited.  With no
    ``needs`` this is the component of the smallest member of ``m``.
    """
    if not needs:
        return _grow(adj, m & -m, m) if m else 0
    rest = needs[1:]
    best = 0
    seeds = m & needs[0]
    while seeds:
        comp = _grow(adj, seeds & -seeds, m)
        seeds &= ~comp
        if all(comp & need for need in rest) and (
            not best or comp & -comp < best & -best
        ):
            best = comp
    return best


def touching_region(adj: Sequence[int], m: int, needs: Sequence[int]) -> int:
    """The union of the components of ``G[m]`` that meet every mask in
    ``needs`` (all of ``m`` when there are none).

    Grows the same components as :func:`touching_component`, those seeded
    from ``m & needs[0]``, and keeps every one that qualifies.
    """
    if not needs:
        return m
    rest = needs[1:]
    region = 0
    seeds = m & needs[0]
    while seeds:
        comp = _grow(adj, seeds & -seeds, m)
        seeds &= ~comp
        if all(comp & need for need in rest):
            region |= comp
    return region


def has_touching_component(
    adj: Sequence[int], m: int, needs: Sequence[int]
) -> bool:
    """Whether some component of ``G[m]`` meets every mask in ``needs``
    (at least one).

    Grows the components seeded from ``m & needs[0]``, breadth first, and
    stops as soon as the one being grown meets every need.
    """
    seeds = m & needs[0]
    while seeds:
        comp = frontier = seeds & -seeds
        missing = [t for t in needs[1:] if not t & comp]
        while missing:
            grown = 0
            f = frontier
            while f:
                low = f & -f
                grown |= adj[low.bit_length() - 1]
                f ^= low
            grown &= m & ~comp
            if not grown:
                break
            comp |= grown
            frontier = grown
            missing = [t for t in missing if not t & grown]
        else:
            return True
        seeds &= ~comp
    return False


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
    g: Graph, preimages: Sequence[Iterable[int]]
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
    return ContractionTrace(g, target, pre)


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


def longest_induced_path(g: Graph, cap: int) -> int:
    """Vertex count of a longest induced path in ``g``, capped at ``cap``.

    Exhaustive DFS over induced-path extensions: a path ``p_1..p_k`` grows by
    a neighbor of ``p_k`` outside the closed neighborhoods of
    ``p_1..p_{k-1}``.  Paths wait on an explicit stack, so no recursion limit
    applies, and the search stops at the first path of ``cap`` vertices.
    """
    adj = g.adj
    best = min(g.n, 1)
    if best >= cap:
        return cap
    for v in range(g.n):
        # one entry per path vertex: (untried extensions of the path ending
        # there, union of the closed neighborhoods of the path so far)
        stack = [(adj[v], adj[v] | 1 << v)]
        while stack:
            cand, blocked = stack[-1]
            if not cand:
                stack.pop()
                continue
            w = cand & -cand
            stack[-1] = (cand ^ w, blocked)
            if len(stack) >= best:
                best = len(stack) + 1
                if best >= cap:
                    return cap
            nw = adj[w.bit_length() - 1]
            stack.append((nw & ~blocked, blocked | nw | w))
    return best


def is_pt_free(g: Graph, t: int) -> bool:
    """True iff ``g`` has no induced path on ``t`` vertices."""
    if t < 1:
        raise GraphError("t must be positive")
    return g.n < t or longest_induced_path(g, t) < t


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


def is_complete_multipartite(g: Graph, m: int) -> list[frozenset[int]] | None:
    """The parts of ``G[m]`` when non-adjacency (over distinct vertices) is
    transitive, i.e. when ``G[m]`` is complete multipartite; ``None``
    otherwise.

    Parts are ordered by smallest member.  The empty mask yields no parts.
    """
    parts: list[int] = []
    left = m
    while left:
        part = m & ~g.adj[(left & -left).bit_length() - 1]
        for u in bits(part):
            if m & ~g.adj[u] != part:
                return None
        parts.append(part)
        left &= ~part
    return [set_of(p) for p in parts]


def is_wheel(g: Graph, m: int) -> bool:
    """True iff ``G[m]`` is a cycle plus one vertex adjacent to >= 1 cycle
    vertex.

    The hub need only touch the cycle once, so e.g. a cycle with a pendant
    vertex qualifies.
    """
    if m.bit_count() < 4:
        return False
    for hub in bits(m):
        if g.adj[hub] & m and cycle_order(g, m & ~(1 << hub)) is not None:
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
    g: Graph, sources: int, targets: int, forbidden: int = 0
) -> list[int] | None:
    """Lexicographically smallest shortest path between the vertex masks
    ``sources`` and ``targets``, as a vertex list from a source, or ``None``.

    The path runs in ``g`` minus the mask ``forbidden``; sources and targets
    must not meet ``forbidden``.  A vertex in both masks gives a length-0
    path.  Breadth-first layers grow from ``targets`` inside a ``reached``
    mask and stop at the first layer that meets ``sources``; the walk back
    takes the smallest source of that layer and then, layer by layer, the
    smallest neighbour one step closer.
    """
    if not sources or not targets:
        raise GraphError("sources and targets must be non-empty")
    if (sources | targets) & forbidden:
        raise GraphError("sources/targets overlap the forbidden set")
    adj = g.adj
    allowed = g.full_mask() & ~forbidden
    layers = [targets & allowed]
    reached = layers[0]
    while not layers[-1] & sources:
        nxt = neighbor_mask(adj, layers[-1]) & allowed & ~reached
        if not nxt:
            return None
        reached |= nxt
        layers.append(nxt)
    here = layers[-1] & sources
    here &= -here
    path = [here.bit_length() - 1]
    for layer in reversed(layers[:-1]):
        step = adj[path[-1]] & layer
        path.append((step & -step).bit_length() - 1)
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
    if len(head) != 2 or not all(p.removeprefix("-").isdecimal() for p in head):
        raise GraphParseError("line 1: header must be two integers 'n m'")
    n, m = int(head[0]), int(head[1])
    edges = set()
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2 or not all(p.removeprefix("-").isdecimal() for p in parts):
            raise GraphParseError(f"line {lineno}: expected 'u v'")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex out of range 0..{n-1}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop {u}")
        if (min(u, v), max(u, v)) in edges:
            raise GraphParseError(f"line {lineno}: repeated edge {u} {v}")
        edges.add((min(u, v), max(u, v)))
    if len(edges) != m:
        raise GraphParseError(f"header announced {m} edges, found {len(edges)}")
    try:
        return Graph.from_edges(n, edges)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from exc
