"""Exact search procedures: the exhaustive reference and the premodel engine.

:func:`induced_minor_exhaustive` (through ``_iter_models``) is the
reference that the tests hold every solver against.  It assigns each host
vertex, in ascending order, either to one pattern bag or to "deleted",
pruning on the way:

* a host edge between two bags whose pattern vertices are non-adjacent kills
  the branch immediately (exact-adjacency violation);
* a bag split into components one of which has no neighbor among the still
  unassigned vertices can never reconnect;
* more empty bags than unassigned vertices, or more missing pattern
  adjacencies than the remaining vertices could create, end the branch.

Its first-found witnesses are deterministic because vertices are processed
ascending and labels are tried in ascending order with "deleted" last.

:func:`iter_premodels` is the engine under the polynomial solvers.  The
paper's algorithms guess a premodel of small bags, mostly single vertices,
and complete the few fat bags by connectivity; the engine does the
guessing.  It places pattern vertices one at a time in a given order, and
the candidates of the next vertex form one host mask: the unused vertices,
cut down to the neighborhoods of the adjacent placed bags and outside the
closed neighborhoods of the non-adjacent ones.  Singleton bags are the set
bits of that mask in ascending order; larger bags are connected sets grown
from a root inside it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .graphs import (
    ContractionTrace,
    Graph,
    GraphError,
    bits,
    complete_graph,
    component_masks,
    is_connected_mask,
    mask_of,
    neighbor_mask,
    set_of,
)
from .models import Model, lift_through_trace

DEFAULT_MAX_HOST = 12


class SearchCapExceeded(RuntimeError):
    """The instance exceeds the configured exhaustive-search size cap."""


def _pattern_twin_classes(pattern: Graph, pinned: set[int]) -> list[list[int]]:
    """Groups of interchangeable (twin) pattern vertices, pinned ones left out.

    Two pattern vertices are interchangeable when swapping them is an
    automorphism, i.e. their neighborhoods agree outside the pair.  Mutually
    overlapping pairs generate the full symmetric group on a class, so bags
    of a class may be forced to open in ascending order.
    """
    h = pattern.n
    parent = list(range(h))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in range(h):
        if p in pinned:
            continue
        for q in range(p + 1, h):
            if q in pinned:
                continue
            if pattern.adj[p] & ~(1 << q) == pattern.adj[q] & ~(1 << p):
                parent[find(p)] = find(q)
    groups: dict[int, list[int]] = {}
    for p in range(h):
        if p not in pinned:
            groups.setdefault(find(p), []).append(p)
    return [sorted(g) for g in groups.values() if len(g) > 1]


def _iter_models(
    host: Graph,
    pattern: Graph,
    forced: Sequence[int | None] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every bag-mask tuple forming a model, in deterministic order.

    ``forced[v]``, when given, pins host vertex ``v`` to that bag.  Bags of
    unpinned twin pattern vertices are interchangeable and are forced to
    open in ascending order (each model is enumerated once per canonical
    labeling).
    """
    n, h = host.n, pattern.n
    if h == 0:
        yield ()
        return
    if h > n:
        return
    hadj, padj = host.adj, pattern.adj
    label: list[int | None] = [None] * n
    bagmask = [0] * h
    realized = [0] * h
    pinned = {p for p in (forced or []) if p is not None}
    earlier_twins: list[list[int]] = [[] for _ in range(h)]
    for group in _pattern_twin_classes(pattern, pinned):
        for i, p in enumerate(group):
            earlier_twins[p] = group[:i]
    state = {"unrealized": pattern.edge_count, "empty": h}
    maxdeg = max((padj[p].bit_count() for p in range(h)), default=0)
    pattern_edges = pattern.edges()
    full = (1 << n) - 1

    def assign(v: int, p: int) -> list[tuple[int, int]] | None:
        """Try labeling v with bag p; return realized-adjacency undo log."""
        nb = hadj[v] & ((1 << v) - 1)
        for u in bits(nb):
            q = label[u]
            if q is not None and q >= 0 and q != p and not padj[p] >> q & 1:
                return None
        gained: list[tuple[int, int]] = []
        for u in bits(nb):
            q = label[u]
            if q is None or q < 0 or q == p:
                continue
            if not realized[p] >> q & 1:
                realized[p] |= 1 << q
                realized[q] |= 1 << p
                gained.append((p, q))
                state["unrealized"] -= 1
        if bagmask[p] == 0:
            state["empty"] -= 1
        bagmask[p] |= 1 << v
        label[v] = p
        return gained

    def undo(v: int, p: int, gained: list[tuple[int, int]]) -> None:
        label[v] = None
        bagmask[p] &= ~(1 << v)
        if bagmask[p] == 0:
            state["empty"] += 1
        for a, b in gained:
            realized[a] &= ~(1 << b)
            realized[b] &= ~(1 << a)
            state["unrealized"] += 1

    def viable(v: int, p: int) -> bool:
        future = full & ~((1 << (v + 1)) - 1)
        comps = component_masks(hadj, bagmask[p])
        if len(comps) > 1:
            for comp in comps:
                if not neighbor_mask(hadj, comp) & future:
                    return False
        remaining = n - v - 1
        if state["empty"] > remaining:
            return False
        if state["unrealized"] > maxdeg * remaining:
            return False
        return True

    def feasible(v: int) -> bool:
        """Global cut: inside host[future + bags], no bag may be split
        across components and unrealized pattern edges need a shared one."""
        region = full & ~((1 << (v + 1)) - 1)
        for bm in bagmask:
            region |= bm
        comps = component_masks(hadj, region)
        if len(comps) == 1:
            return True
        where = [-1] * h
        for p in range(h):
            bm = bagmask[p]
            if not bm:
                continue
            seed = bm & -bm
            for i, c in enumerate(comps):
                if c & seed:
                    if bm & ~c:
                        return False
                    where[p] = i
                    break
        for p, q in pattern_edges:
            if realized[p] >> q & 1:
                continue
            if where[p] != -1 and where[q] != -1 and where[p] != where[q]:
                return False
        return True

    def walk(v: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            if state["empty"] == 0 and state["unrealized"] == 0:
                if all(is_connected_mask(hadj, bm) for bm in bagmask):
                    yield tuple(bagmask)
            return
        want = forced[v] if forced is not None else None
        if want is None:
            # try deleting first so the first-found model is lean
            label[v] = -1
            remaining = n - v - 1
            if state["empty"] <= remaining and feasible(v):
                yield from walk(v + 1)
            label[v] = None
        choices: Iterable[int] = range(h) if want is None else (want,)
        for p in choices:
            if bagmask[p] == 0 and any(bagmask[q] == 0 for q in earlier_twins[p]):
                continue
            gained = assign(v, p)
            if gained is None:
                continue
            if viable(v, p) and feasible(v):
                yield from walk(v + 1)
            undo(v, p, gained)

    yield from walk(0)


def iter_induced_minor_models(host: Graph, pattern: Graph) -> Iterator[Model]:
    """All induced-minor models of ``pattern`` in ``host`` (no size cap),
    one representative per relabeling orbit of twin pattern vertices.

    Bag statistics (sizes, counts of non-trivial bags) are invariant under
    twin relabeling, so orbit representatives suffice for such checks.
    """
    for masks in _iter_models(host, pattern):
        yield Model(pattern, host, tuple(set_of(m) for m in masks))


def induced_minor_exhaustive(
    host: Graph, pattern: Graph, max_host: int = DEFAULT_MAX_HOST
) -> Model | None:
    """First induced-minor model under the deterministic order, or ``None``.

    Exact; refuses hosts above ``max_host`` instead of truncating the search.
    """
    if host.n > max_host:
        raise SearchCapExceeded(
            f"host has {host.n} vertices, exhaustive cap is {max_host}"
        )
    for model in iter_induced_minor_models(host, pattern):
        return model
    return None


def _connected_sets(adj: Sequence[int], allowed: int, cap: int) -> Iterator[int]:
    """Every connected vertex set of at most ``cap`` vertices inside
    ``allowed``, once each.

    ESU (Wernicke, IEEE/ACM TCBB 2006): a set is grown from its smallest
    vertex, and a vertex above that root joins the extension frontier only
    when it neighbors the newest member and no earlier one.  Roots ascend;
    each root's sets come out depth first.
    """
    above = allowed
    while above:
        root = above & -above
        above ^= root
        yield root
        if cap == 1:
            continue
        r = root.bit_length() - 1
        # (set, extension frontier, closed neighborhood of the set)
        stack = [(root, adj[r] & above, adj[r] | root)]
        while stack:
            sub, ext, seen = stack[-1]
            if not ext:
                stack.pop()
                continue
            w = ext & -ext
            ext ^= w
            stack[-1] = (sub, ext, seen)
            grown = sub | w
            yield grown
            if len(stack) + 1 < cap:
                nw = adj[w.bit_length() - 1]
                stack.append((grown, ext | (nw & above & ~seen), seen | nw))


def iter_premodels(
    host: Graph,
    pattern: Graph,
    order: Sequence[int],
    caps: Sequence[int],
    free: Sequence[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every assignment of disjoint connected bags to the pattern
    vertices in ``order``, as a tuple of host masks indexed by pattern vertex
    (0 for the vertices outside ``order``).

    The bag of ``u`` has at most ``caps[u]`` vertices.  Two placed bags are
    adjacent exactly when their pattern vertices are, except for the pairs
    marked in ``free``: ``free[u]`` is a mask of pattern vertices whose
    adjacency to ``u`` is neither required nor forbidden (symmetric, like
    the pattern's adjacency).

    Vertices are placed in ``order``.  Singleton bags are tried in ascending
    host order, so assignments of cap-1 vertices come out in lexicographic
    order along ``order``.  A cap-1 vertex with no free partner is taken to
    keep its single vertex in every completion, so that vertex needs at
    least the pattern degree.  Larger bags are the connected sets of the
    candidate mask (:func:`_connected_sets`) that touch every adjacent
    placed bag.
    """
    hadj, padj = host.adj, pattern.adj
    bags = [0] * pattern.n
    k = len(order)
    if k == 0:
        yield tuple(bags)
        return
    if any(caps[u] < 1 for u in order):
        return
    degree_masks: dict[int, int] = {}
    # per position: the cap, the placed vertices the bag must touch and must
    # avoid, and the host vertices it may occupy
    levels = []
    for i, u in enumerate(order):
        mates = free[u] if free is not None else 0
        touch, avoid = [], []
        for w in order[:i]:
            if mates >> w & 1:
                continue
            (touch if padj[u] >> w & 1 else avoid).append(w)
        room = host.full_mask()
        if caps[u] == 1 and not mates:
            d = padj[u].bit_count()
            if d not in degree_masks:
                degree_masks[d] = mask_of(
                    x for x in range(host.n) if hadj[x].bit_count() >= d
                )
            room = degree_masks[d]
        levels.append((caps[u], touch, avoid, room))
    nbr = [0] * pattern.n  # open neighborhood of each placed bag
    used = [0] * k  # host vertices taken before each position

    def candidates(i: int) -> int | Iterator[int]:
        cap, touch, avoid, room = levels[i]
        allowed = room & ~used[i]
        for w in avoid:
            allowed &= ~(nbr[w] | bags[w])
        if cap == 1:
            for w in touch:
                allowed &= nbr[w]
            return allowed
        needs = [nbr[w] for w in touch]
        return (
            m for m in _connected_sets(hadj, allowed, cap)
            if all(m & t for t in needs)
        )

    pending: list[int | Iterator[int]] = [0] * k
    pending[0] = candidates(0)
    i = 0
    while i >= 0:
        u = order[i]
        c = pending[i]
        if c.__class__ is int:
            bag = c & -c
            pending[i] = c ^ bag
        else:
            bag = next(c, 0)
        if not bag:
            bags[u] = 0
            i -= 1
            continue
        bags[u] = bag
        if bag & (bag - 1):
            nbr[u] = neighbor_mask(hadj, bag)
        else:
            nbr[u] = hadj[bag.bit_length() - 1]
        if i + 1 == k:
            yield tuple(bags)
            continue
        i += 1
        used[i] = used[i - 1] | bag
        pending[i] = candidates(i)


def induced_subgraph_search(
    host: Graph, pattern: Graph
) -> tuple[int, ...] | None:
    """Injective map realizing ``pattern`` as an induced subgraph, or ``None``.

    The premodel engine with every cap 1, pattern vertices by descending
    degree; exact.  The returned tuple maps pattern vertex ``u`` to host
    vertex ``map[u]``.
    """
    h = pattern.n
    if h > host.n:
        return None
    order = sorted(range(h), key=lambda u: (-pattern.adj[u].bit_count(), u))
    for bags in iter_premodels(host, pattern, order, [1] * h):
        return tuple(b.bit_length() - 1 for b in bags)
    return None


def rooted_clique_minor(
    host: Graph, roots: Sequence[Iterable[int]]
) -> Model | None:
    """A model of ``K_k`` in ``host`` whose bag ``i`` contains ``roots[i]``.

    For complete patterns, minor and induced-minor models coincide, so the
    result is a valid :class:`Model`.  Root sets may be empty (an unrooted
    bag); they must be pairwise disjoint.  Exact backtracking, exponential in
    the worst case; meant for desk-scale hosts.
    """
    k = len(roots)
    if k < 1:
        raise GraphError("at least one root set required")
    forced: list[int | None] = [None] * host.n
    seen = 0
    for i, r in enumerate(roots):
        m = mask_of(r)
        if m & ~host.full_mask():
            raise GraphError("root vertex out of range")
        if m & seen:
            raise GraphError("root sets overlap")
        seen |= m
        for v in bits(m):
            forced[v] = i
    pattern = complete_graph(k)
    for masks in _iter_models(host, pattern, forced):
        return Model(pattern, host, tuple(set_of(m) for m in masks))
    return None


def _find_cycle(g: Graph) -> list[int] | None:
    """Vertices of some cycle, in cyclic order; deterministic DFS."""
    parent = [-2] * g.n
    for root in range(g.n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        stack = [(root, iter(bits(g.adj[root])))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if parent[w] == -2:
                    parent[w] = v
                    stack.append((w, iter(bits(g.adj[w]))))
                    advanced = True
                    break
                if w != parent[v]:
                    # back edge closes a cycle through the tree path v..w
                    cyc = [v]
                    x = v
                    while x != w:
                        x = parent[x]
                        cyc.append(x)
                    return cyc
            if not advanced:
                stack.pop()
    return None


def _series_parallel_reduce(
    g: Graph,
) -> tuple[Graph, tuple[frozenset[int], ...]] | None:
    """Exhaustively delete degree-<=1 vertices and bypass degree-2 vertices.

    Returns the stuck graph (minimum degree >= 3) with the preimage sets of
    its vertices, or ``None`` when the graph reduces away completely, which
    happens exactly when it has no K_4 minor.
    """
    alive = set(range(g.n))
    adj = {v: set(bits(g.adj[v])) for v in range(g.n)}
    group = {v: {v} for v in range(g.n)}
    while True:
        low = None
        for v in sorted(alive):
            if len(adj[v]) <= 2:
                low = v
                break
        if low is None:
            break
        nbrs = sorted(adj[low])
        if len(nbrs) <= 1:
            for u in nbrs:
                adj[u].discard(low)
            alive.discard(low)
            del adj[low], group[low]
        else:
            a, b = nbrs
            keep = min(a, b)
            group[keep] |= group[low]
            adj[a].add(b)
            adj[b].add(a)
            adj[a].discard(low)
            adj[b].discard(low)
            alive.discard(low)
            del adj[low], group[low]
    if not alive:
        return None
    keep = sorted(alive)
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u in keep for v in adj[u] if u < v]
    stuck = Graph.from_edges(len(keep), edges)
    preimages = tuple(frozenset(group[v]) for v in keep)
    return stuck, preimages


def clique_minor_test(
    host: Graph, k: int, max_host: int = DEFAULT_MAX_HOST
) -> Model | None:
    """A model of ``K_k`` in ``host`` or ``None``; exact.

    k <= 2 is a direct check, k = 3 finds a cycle and splits it into three
    arcs, k = 4 runs the series-parallel reduction (stuck with minimum degree
    >= 3 iff a K_4 minor exists) and recovers a witness on the stuck graph,
    k >= 5 delegates to the rooted search under the size cap.
    """
    if k < 1:
        raise GraphError("k must be positive")
    if k == 1:
        if host.n == 0:
            return None
        return Model.from_bags(complete_graph(1), host, [{0}])
    if k == 2:
        for u in range(host.n):
            if host.adj[u]:
                v = next(bits(host.adj[u]))
                return Model.from_bags(complete_graph(2), host, [{u}, {v}])
        return None
    if k == 3:
        cyc = _find_cycle(host)
        if cyc is None:
            return None
        bags = [{cyc[0]}, {cyc[1]}, set(cyc[2:])]
        return Model.from_bags(complete_graph(3), host, bags)
    if k == 4:
        reduced = _series_parallel_reduce(host)
        if reduced is None:
            return None
        stuck, preimages = reduced
        inner = rooted_clique_minor(stuck, [(), (), (), ()])
        assert inner is not None  # min degree >= 3 guarantees a K_4 minor
        trace = ContractionTrace(host, stuck, preimages, allows_deletions=True)
        return lift_through_trace(inner, trace)
    if host.n > max_host:
        raise SearchCapExceeded(
            f"k={k} clique search needs the exhaustive engine; host has "
            f"{host.n} vertices, cap is {max_host}"
        )
    return rooted_clique_minor(host, [()] * k)
