"""Exact search procedures: the exhaustive reference and the premodel engine.

:func:`induced_minor_exhaustive` (through ``_iter_models``) is the
reference that the tests hold every solver against; besides it, only
:func:`rooted_clique_minor` runs ``_iter_models``, and no solver calls
either, so the reference shares no search code with what it checks.  It
assigns each host vertex, in ascending order, either to one pattern bag or
to "deleted", pruning on the way:

* a host edge between two bags whose pattern vertices are non-adjacent kills
  the branch immediately (exact-adjacency violation);
* a bag split into components one of which has no neighbor among the still
  unassigned vertices can never reconnect;
* more empty bags than unassigned vertices, or more missing pattern
  adjacencies than the remaining vertices could create, end the branch.

Its first-found witnesses are deterministic because vertices are processed
ascending and labels are tried in ascending order with "deleted" last.

:func:`iter_premodels` is the engine, and it runs every search of the
production path; with every cap at least the host size
(:func:`bounded_bag_search`) it is an exact induced-minor test.  The
paper's algorithms guess a premodel of small bags, mostly single vertices,
and complete the few fat bags by connectivity; the engine does the
guessing.  It places pattern vertices one at a time in a given order, and
the candidates of the next vertex form one host mask: the unused vertices,
cut down to the neighborhoods of the adjacent placed bags and outside the
closed neighborhoods of the non-adjacent ones.  Singleton bags are the set
bits of that mask in ascending order; larger bags are connected sets grown
from a root inside it.

Forward check: after each placement with at least two positions left, the
unplaced pattern vertices that non-free pattern edges join into a group
must still have room: the union of their candidate regions must hold a
connected set touching every placed bag the group is joined to
(Haralick & Elliott, "Increasing tree search efficiency for constraint
satisfaction problems", Artificial Intelligence 1980).  A placement that
fails has no extension, so for a full order the check changes what the walk
visits, not what it yields; pattern vertices outside the order count as
bags the caller completes.  The tables of the walk and of the check depend only on the
pattern, the order, the caps and the free pairs, and are built once per
such key in a bounded cache.

Twin rule: when swapping two pattern vertices of the same cap preserves the
pattern and the free pairs, only the assignment in which the later one's
bag lies above the lowest vertex of the earlier one's bag is made, one mask
cut per position.  It is the first of the two in the enumeration order, so
callers whose completion is symmetric under the swap keep their first
witness.

:func:`iter_premodel_prefixes` is the same walk stopped one level early
when the last vertex of the order has cap 1: it yields each placement of
the others with the whole candidate mask in the last vertex's entry, and
expanding those masks bit by bit gives the sequence of
:func:`iter_premodels`.  A solver
whose completion depends mostly on the prefix can then test all candidates
of a prefix with a few mask operations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .graphs import (
    ContractionTrace,
    Graph,
    GraphError,
    InvariantViolation,
    bits,
    complete_graph,
    component_masks,
    has_touching_component,
    is_connected_mask,
    mask_of,
    neighbor_mask,
    set_of,
)
from .models import Model, lift_through_trace

# the most host vertices the exhaustive search takes on
MAX_ORACLE_HOST = 12


class SearchCapExceeded(RuntimeError):
    """The instance exceeds the exhaustive-search size cap."""


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


def induced_minor_exhaustive(host: Graph, pattern: Graph) -> Model | None:
    """First induced-minor model under the deterministic order, or ``None``.

    Exact; refuses hosts above :data:`MAX_ORACLE_HOST` instead of truncating
    the search.
    """
    if host.n > MAX_ORACLE_HOST:
        raise SearchCapExceeded(
            f"host has {host.n} vertices, exhaustive cap is {MAX_ORACLE_HOST}"
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


@lru_cache(maxsize=256)
def _walk_plan(
    padj: tuple[int, ...],
    order: tuple[int, ...],
    caps: tuple[int, ...],
    mates: tuple[int, ...],
) -> tuple[tuple, tuple]:
    """The host-independent tables of :func:`_walk_premodels`, built once
    per pattern, order, caps and free pairs.

    ``levels[i]`` holds, for position ``i``: the cap, the placed vertices
    the bag must touch and must avoid, the pattern degree its single host
    vertex needs (0 for none), and its latest earlier twin (-1 for none).

    ``checks[i]`` holds the forward-check groups tested after position ``i``
    is placed, when at least two positions remain.  A group is a component
    of the unplaced pattern vertices (those later in ``order`` and those
    outside it) under the non-free pattern edges; its needs are the placed
    vertices joined to it by a non-free edge, and only groups with two or
    more needs are kept.  A group is ``(size, members, needs)``, and each
    member is the ``(avoid, touch, twin)`` that bounds its region; a member
    whose region always lies inside another's is left out.
    """
    n = len(padj)
    position = {u: i for i, u in enumerate(order)}
    levels = []
    for i, u in enumerate(order):
        pu, mu, bu = padj[u], mates[u], 1 << u
        touch, avoid = [], []
        twin = -1
        for w in order[:i]:
            bw = 1 << w
            if (
                padj[w] & ~bu == pu & ~bw
                and mates[w] & ~bu == mu & ~bw
                and caps[w] == caps[u]
            ):
                twin = w
            if not mu & bw:
                (touch if pu & bw else avoid).append(w)
        degree = pu.bit_count() if caps[u] == 1 and not mu else 0
        levels.append((caps[u], tuple(touch), tuple(avoid), degree, twin))
    checks = []
    for i in range(len(order)):
        groups = []
        placed = order[: i + 1]
        unplaced = (1 << n) - 1 & ~mask_of(placed) if i + 2 < len(order) else 0
        while unplaced:
            group = frontier = unplaced & -unplaced
            while frontier:  # grow along the non-free pattern edges
                v = frontier.bit_length() - 1
                grown = padj[v] & ~mates[v] & unplaced & ~group
                group |= grown
                frontier = (frontier ^ (1 << v)) | grown
            unplaced &= ~group
            members = list(bits(group))
            needs = tuple(
                w for w in placed
                if any(padj[m] >> w & 1 and not mates[m] >> w & 1 for m in members)
            )
            if len(needs) < 2:
                continue
            regions = []
            for m in members:
                avoid = tuple(
                    w for w in placed if not (padj[m] | mates[m]) >> w & 1
                )
                touch, twin = (), -1
                if m in position:
                    _, level_touch, _, _, level_twin = levels[position[m]]
                    if caps[m] == 1:
                        touch = tuple(w for w in level_touch if w in placed)
                    if level_twin in placed:
                        twin = level_twin
                regions.append((avoid, touch, twin))
            regions.sort(key=lambda r: len(r[0]) + len(r[1]) + (r[2] >= 0))
            kept: list[tuple] = []
            for avoid, touch, twin in regions:
                if not any(
                    set(ka) <= set(avoid) and set(kt) <= set(touch)
                    and kw in (-1, twin)
                    for ka, kt, kw in kept
                ):
                    kept.append((avoid, touch, twin))
            groups.append((len(members), tuple(kept), needs))
        checks.append(tuple(groups))
    return tuple(levels), tuple(checks)


def _walk_premodels(
    host: Graph,
    pattern: Graph,
    order: Sequence[int],
    caps: Sequence[int],
    free: Sequence[int] | None,
    whole_last: bool,
) -> Iterator[tuple[int, ...]]:
    """The walk of :func:`iter_premodels` over the tables of
    :func:`_walk_plan`; with ``whole_last`` the last vertex of ``order``
    (cap 1) takes its whole non-empty candidate mask in one step, as
    :func:`iter_premodel_prefixes` yields it.

    Forward check: after placing position ``i`` with at least two positions
    left, each check group's region ``D`` is the union of its members'
    regions: the unused host vertices outside the closed neighbourhoods of
    the placed non-neighbours, above the placed twin's lowest vertex, and,
    for a cap-1 member, inside every placed neighbour's neighbourhood.  The
    placement is dropped when ``D`` has fewer vertices than the group, or
    when no component of ``G[D]`` meets the neighbourhood of every need.
    Regions only shrink as bags are placed, so in any extension each bag of
    the group lies inside its member's region, and their union is connected
    and touches every need; a dropped placement has no extension.
    """
    hadj = host.adj
    bags = [0] * pattern.n
    k = len(order)
    if k == 0:
        yield tuple(bags)
        return
    mates = tuple(free) if free is not None else (0,) * pattern.n
    plan_levels, checks = _walk_plan(pattern.adj, tuple(order), tuple(caps), mates)
    if any(level[0] < 1 for level in plan_levels):
        return
    whole = k - 1 if whole_last else -1
    full = host.full_mask()
    degree_masks: dict[int, int] = {0: full}
    levels = []
    for cap, touch, avoid, degree, twin in plan_levels:
        if degree not in degree_masks:
            degree_masks[degree] = mask_of(
                x for x in range(host.n) if hadj[x].bit_count() >= degree
            )
        levels.append((cap, touch, avoid, degree_masks[degree], twin))
    nbr = [0] * pattern.n  # open neighborhood of each placed bag
    closed = [0] * pattern.n  # closed neighborhood of each placed bag
    used = [0] * k  # host vertices taken before each position

    def candidates(i: int) -> int | Iterator[int]:
        cap, touch, avoid, room, twin = levels[i]
        allowed = room & ~used[i]
        for w in avoid:
            allowed &= ~closed[w]
        if twin >= 0:
            allowed &= -((bags[twin] & -bags[twin]) << 1)
        if cap == 1:
            for w in touch:
                allowed &= nbr[w]
            if i == whole:
                return iter((allowed,) if allowed else ())
            return allowed
        needs = [nbr[w] for w in touch]
        return (
            m for m in _connected_sets(hadj, allowed, cap)
            if all(m & t for t in needs)
        )

    def extendable(groups: tuple, space: int) -> bool:
        for size, members, needs in groups:
            region = 0
            for avoid, touch, twin in members:
                r = space
                for w in avoid:
                    r &= ~closed[w]
                for w in touch:
                    r &= nbr[w]
                if twin >= 0:
                    r &= -((bags[twin] & -bags[twin]) << 1)
                region |= r
            if region.bit_count() < size:
                return False
            touched = [nbr[w] for w in needs]
            for t in touched:
                if not region & t:
                    return False
            if not has_touching_component(hadj, region, touched):
                return False
        return True

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
        if i + 1 == k:
            yield tuple(bags)
            continue
        if bag & (bag - 1):
            nbr[u] = neighbor_mask(hadj, bag)
        else:
            nbr[u] = hadj[bag.bit_length() - 1]
        closed[u] = nbr[u] | bag
        if checks[i] and not extendable(checks[i], full & ~(used[i] | bag)):
            continue
        i += 1
        used[i] = used[i - 1] | bag
        pending[i] = candidates(i)


def iter_premodel_prefixes(
    host: Graph,
    pattern: Graph,
    order: Sequence[int],
    caps: Sequence[int],
    free: Sequence[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """:func:`iter_premodels` stopped one level early: for every placement of
    ``order[:-1]`` that some premodel extends, in the same order, yield the
    tuple of bags whose entry for the last vertex of ``order`` is the mask of
    all its admissible single host vertices instead of one of them.

    The last position must have cap 1.  Expanding each mask bit by bit, in
    ascending order, gives exactly the sequence of :func:`iter_premodels`;
    a caller that completes premodels can instead test a whole mask at once
    against what depends on the prefix alone.

    The forward check of :func:`iter_premodels` runs on the placements of
    every position but the last two; the last vertex's candidate mask, and
    the caller's test of each prefix, do the rest.  Pattern vertices outside
    ``order`` take part in the check as connected bags of any size with
    exact adjacency, as a flower's centre is completed, so a dropped prefix
    is one that no such completion extends.
    """
    if not order or caps[order[-1]] != 1:
        raise ValueError("the last vertex of order needs cap 1")
    return _walk_premodels(host, pattern, order, caps, free, True)


def iter_premodels(
    host: Graph,
    pattern: Graph,
    order: Sequence[int],
    caps: Sequence[int],
    free: Sequence[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every assignment of disjoint connected bags to the pattern
    vertices in ``order``, one per twin orbit, as a tuple of host masks
    indexed by pattern vertex (0 for the vertices outside ``order``).

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

    Forward check: after each placement that leaves at least two positions,
    every group of unplaced pattern vertices joined by non-free edges, and
    joined to two or more placed bags, must find inside the union of its
    members' candidate regions at least one vertex per member and a
    connected set that touches each of those placed bags; otherwise the
    placement is dropped.  Regions only shrink as the walk goes on, so a
    dropped placement has no extension, and for a full ``order`` the output
    is the same with the check as without it.  Pattern vertices outside
    ``order`` count as unplaced: the check assumes the caller completes them
    as connected bags, disjoint from the others, with exact adjacency to
    every bag outside the free pairs, and a dropped placement is one that
    no such completion extends.

    Twin rule: ``w`` earlier in ``order`` and ``u`` are twins when they have
    the same cap and swapping them preserves the pattern's adjacency and
    ``free``.  Swapping their bags then maps assignments to assignments, so
    only the one in which every vertex of ``u``'s bag lies above the lowest
    vertex of ``w``'s bag is yielded.  That one comes first in the order
    above, so a caller whose completion is invariant under the swap finds
    the same first completing assignment as without the rule.

    :func:`iter_premodel_prefixes` runs the same walk but places all the
    candidates of a cap-1 last vertex at once.
    """
    return _walk_premodels(host, pattern, order, caps, free, False)


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


def bounded_bag_search(
    host: Graph, pattern: Graph, caps: Sequence[int]
) -> Model | None:
    """Exhaustive search over disjoint connected bags with per-vertex size
    caps, exact adjacency forward-checked against placed bags.

    The premodel engine with pattern vertices by descending degree: with
    every cap 1 the first witness is the lexicographically smallest
    singleton model along that order; larger bags are connected sets grown
    from ascending roots, depth first.  Deterministic; complete when every
    cap is at least ``host.n``.  The walk is iterative, so no host size
    reaches Python's recursion limit.
    """
    hn = pattern.n
    if hn > host.n:
        return None
    order = sorted(range(hn), key=lambda u: (-pattern.adj[u].bit_count(), u))
    for bags in iter_premodels(host, pattern, order, caps):
        return Model(pattern, host, tuple(set_of(m) for m in bags))
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


def series_parallel_reduce(
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


def clique_minor_test(host: Graph, k: int) -> Model | None:
    """A model of ``K_k`` in ``host`` or ``None``; exact.

    k <= 2 is a direct check, k = 3 finds a cycle and splits it into three
    arcs, k = 4 runs the series-parallel reduction (stuck with minimum degree
    >= 3 iff a K_4 minor exists) and takes the first model that
    :func:`bounded_bag_search` with full caps finds on the stuck graph, and
    k >= 5 is the same full-caps search on the host, refused with
    :class:`SearchCapExceeded` above :data:`MAX_ORACLE_HOST` vertices.  For
    a complete pattern, minor and induced-minor models coincide.
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
        reduced = series_parallel_reduce(host)
        if reduced is None:
            return None
        stuck, preimages = reduced
        inner = bounded_bag_search(stuck, complete_graph(4), [stuck.n] * 4)
        if inner is None:
            raise InvariantViolation("min degree >= 3 but no K_4 minor found")
        trace = ContractionTrace(host, stuck, preimages, allows_deletions=True)
        return lift_through_trace(inner, trace)
    if host.n > MAX_ORACLE_HOST:
        raise SearchCapExceeded(
            f"host has {host.n} vertices, exhaustive cap is {MAX_ORACLE_HOST}"
        )
    return bounded_bag_search(host, complete_graph(k), [host.n] * k)
