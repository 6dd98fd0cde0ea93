"""One decision procedure per tractable pattern family.

The solvers for path unions, cliques plus an isolated vertex, flowers,
houses and bulls, and complete splits take ``(g, h, pc)``, where ``pc`` is
the :class:`~indminor.catalog.PatternClass` that the catalog recognised for
``h``.  They read every role (centre, chain, sides) from ``pc``, recognise
nothing themselves, and raise :class:`SolverPreconditionError` on a ``pc``
of another family.

Every solver returns an :class:`~indminor.models.Answer`; positive answers
carry a witness model unless they come from a decomposition-theorem branch,
in which case ``certified_without_witness`` is set (or a bounded witness
search is attempted).  Constructed witnesses are re-verified when the Answer
is built; a verification failure raises and signals an implementation bug,
never a "no".
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

from . import catalog
from .catalog import PatternClass
from .graphs import (
    ContractionTrace,
    Graph,
    InvariantViolation,
    biconnected_components,
    bits,
    closed_neighbor_mask,
    component_masks,
    cycle_order,
    induced_subgraph,
    is_complete_multipartite,
    is_p4_free,
    is_wheel,
    longest_induced_path,
    mask_of,
    neighbor_mask,
    quotient_by_preimages,
    set_of,
    shortest_path_avoiding,
    touching_component,
    touching_region,
)
from .models import Answer, Model, answer_no, answer_yes, lift_through_trace
from .oracle import (
    MAX_ORACLE_HOST,
    bounded_bag_search,
    clique_minor_test,
    induced_subgraph_search,
    iter_premodel_prefixes,
    iter_premodels,
    series_parallel_reduce,
)


class SolverPreconditionError(ValueError):
    """The pattern/host does not meet the solver's documented precondition."""


def _require_kind(pc: PatternClass, *kinds: str) -> None:
    if pc.kind not in kinds:
        raise SolverPreconditionError(
            f"pattern class {pc.kind} is not of kind {' or '.join(kinds)}"
        )


def _remap_model(m: Model, host: Graph, vmap: Sequence[int]) -> Model:
    """Reinterpret a model over an induced subgraph as one over ``host``."""
    return Model(
        m.pattern, host, tuple(frozenset(vmap[x] for x in bag) for bag in m.bags)
    )


# ---------------------------------------------------------------------------
# disjoint unions of paths


def solve_disjoint_paths(g: Graph, h: Graph, pc: PatternClass) -> Answer:
    """Containment for path unions: induced minor iff induced subgraph."""
    _require_kind(pc, "disjoint_paths")
    if h.n > g.n:
        return answer_no("disjoint_paths")
    image = induced_subgraph_search(g, h)
    if image is None:
        return answer_no("disjoint_paths")
    witness = Model.from_bags(h, g, [{x} for x in image])
    return answer_yes(witness, "disjoint_paths")


# ---------------------------------------------------------------------------
# patterns needing one non-trivial bag


def _premodel_order(h: Graph, skip: int) -> list[int]:
    """Assignment order over V(h) minus ``skip``: prefer vertices adjacent to
    an already-ordered one so exactness pruning bites early."""
    rest = [v for v in range(h.n) if v != skip]
    order: list[int] = []
    placed = 0
    while rest:
        pick = next((v for v in rest if h.adj[v] & placed), rest[0])
        order.append(pick)
        placed |= 1 << pick
        rest.remove(pick)
    return order


def solve_snt_single(g: Graph, h: Graph, pc: PatternClass) -> Answer:
    """Decide containment for a flower, which needs at most one fat bag, at
    its centre ``u = pc.center``.

    Enumerates injective singleton premodels of ``V(h) - u`` with exact
    adjacency.  The bag of ``u`` must be a component of the host minus the
    neighbours' vertices and the closed neighbourhoods of the non-neighbours'
    vertices, and it must touch every neighbour's vertex; the witness takes
    the first such component in smallest-member order, found by one
    :func:`~indminor.graphs.touching_component` call.

    The premodels come one prefix at a time
    (:func:`~indminor.oracle.iter_premodel_prefixes`): every vertex but the
    last one ``x`` of the order is placed, and the entry of ``x`` is the
    mask of its candidates ``c``.  The prefix alone fixes ``room``, the host
    minus what its vertices block, and ``region``, the union of the
    components of ``room`` that touch every placed neighbour's vertex
    (:func:`~indminor.graphs.touching_region`).  Placing ``x`` only shrinks
    ``room`` and adds needs, so the bag of ``u`` is a component of
    ``region`` minus what ``c`` blocks, and an empty region rejects the
    whole prefix.  When ``x`` is a neighbour of ``u``, the bag must also
    touch N(c), so one mask test rejects every candidate with no neighbour
    in ``region``; this covers every candidate inside ``room`` but outside
    ``region``, and one outside ``room`` that passes the test blocks
    nothing of ``region`` and always completes.  The candidates that are
    left get the exact ``touching_component`` call inside ``region``, in
    ascending order, and the first that completes gives the witness, so
    the premodel and the bag are those of a one-by-one walk over the whole
    host.

    The centre lies outside the order, so the engine's forward check drops
    every placement after which the centre and the unplaced vertices have
    no connected room that touches the placed bags they are joined to.  On a
    chordal host that is every placement of the first two vertices of
    cycle_5 and cycle_6: a connected set touching both, outside their common
    neighbours, would close an induced cycle of length at least 4.
    """
    _require_kind(pc, "flower")
    if h.n > g.n:
        return answer_no("snt_single")
    u = pc.center
    adj = g.adj
    full = g.full_mask()
    order = _premodel_order(h, u)
    if not order:  # the centre alone: its bag is the first component
        return answer_yes(
            Model(h, g, (set_of(touching_component(adj, full, ())),)), "snt_single"
        )
    *placed, x = order
    ys = [w for w in placed if h.adj[u] >> w & 1]
    zs = [w for w in placed if not h.adj[u] >> w & 1]
    x_is_neighbour = h.adj[u] >> x & 1
    for bags in iter_premodel_prefixes(g, h, order, [1] * h.n):
        room = full
        needs = []
        for y in ys:
            room &= ~bags[y]
            needs.append(adj[bags[y].bit_length() - 1])
        for z in zs:
            room &= ~(bags[z] | adj[bags[z].bit_length() - 1])
        region = touching_region(adj, room, needs)
        if not region:
            continue
        for c in bits(bags[x]):
            if x_is_neighbour:
                if not adj[c] & region:
                    continue
                comp = touching_component(adj, region & ~(1 << c), needs + [adj[c]])
            else:
                comp = touching_component(adj, region & ~(adj[c] | 1 << c), needs)
            if comp:
                witness = Model(h, g, tuple(
                    set_of(comp) if w == u else frozenset({c}) if w == x
                    else set_of(bag)
                    for w, bag in enumerate(bags)
                ))
                return answer_yes(witness, "snt_single")
    return answer_no("snt_single")


# ---------------------------------------------------------------------------
# generalized houses and bulls


def solve_house_bull(g: Graph, h: Graph, pc: PatternClass) -> Answer:
    """Decide containment for a triangle-plus-attached-path pattern.

    For each singleton premodel realizing the two anchor paths (all pattern
    edges except u-v and u-b, all non-edges exact), the host is restricted
    by deleting the closed neighborhoods of the interior chain vertices.
    Then either some component can serve as the whole bag of ``u``, or a
    u-to-b path is fixed, and for each neighbor ``y_c`` of c's vertex a
    shortest v-path plus a connector path complete the two fat bags.

    The whole-bag component is one :func:`~indminor.graphs.touching_component`
    call, which grows only the components that meet the neighbourhood of
    b's vertex; the paths come from mask-based
    :func:`~indminor.graphs.shortest_path_avoiding` searches.

    A house's premodels are placed in the order ``a, u, v`` and then the
    chain from ``c`` back to ``b``: ``c`` must touch ``v``'s vertex, each
    later chain vertex the one before it, and ``b``, free with ``u`` and
    so constrained by no earlier placement, comes last.  A bull keeps the
    order ``a, u, v``, the chain up to its split, then the rest reversed.
    """
    _require_kind(pc, "generalized_house", "generalized_bull")
    if h.n > g.n:
        return answer_no("house_bull")
    a, u, v = pc.roles[0], pc.roles[1], pc.roles[2]
    chain = list(pc.roles[3:])
    b, c = chain[0], chain[-1]
    interior = chain[1:-1]  # neighborhoods removed around all of these

    # premodel adjacency requirements: exact everywhere except u-v and u-b
    free = [0] * h.n
    free[u] = 1 << v | 1 << b
    free[v] = free[b] = 1 << u
    if pc.kind == "generalized_bull":
        order = [a, u, v] + chain[: pc.split] + chain[pc.split :][::-1]
    else:
        order = [a, u, v] + chain[::-1]
    adj = g.adj
    full = g.full_mask()

    def try_premodel(x: list[int]) -> Model | None:
        xa, xu, xv, xb, xc = x[a], x[u], x[v], x[b], x[c]
        blocked = 0
        for w in interior:
            blocked |= adj[x[w]] | (1 << x[w])
        blocked &= ~((1 << xb) | (1 << xc))
        gp = full & ~blocked  # the restricted host G'
        # (iii) a whole component as the bag of u
        n_xc = (adj[xc] | (1 << xc)) & gp
        avoid = n_xc | (1 << xa) | (1 << xb) | (1 << xv)
        # seeded from b's vertex: its chain neighbour's closed neighbourhood
        # is cut away, so it has the fewest neighbours left to grow from
        comp = touching_component(adj, gp & ~avoid, (adj[xb], adj[xa], adj[xv]))
        if comp:
            bags = [
                set_of(comp) if w == u else frozenset({x[w]})
                for w in range(h.n)
            ]
            return Model(h, g, tuple(bags))
        # (iv) commit to some u-b path; its interior joins the bag of u
        allowed_ub = gp & ~((1 << xa) | (1 << xv)) & ~n_xc
        p_ub = shortest_path_avoiding(
            g, 1 << xu, 1 << xb, full & ~(allowed_ub | (1 << xb) | (1 << xu))
        )
        if p_ub is None:
            return None
        xu0 = mask_of(p_ub[:-1])  # x_u plus the interior of the path
        # (v) for each neighbor of c's vertex, a v-path plus a connector
        allowed_v = gp & ~(adj[xb] | (1 << xb) | (1 << xa) | (1 << xc)) & ~xu0
        for y_c in bits(adj[xc] & allowed_v):
            p_v = shortest_path_avoiding(g, 1 << xv, 1 << y_c, full & ~allowed_v)
            if p_v is None:
                continue
            pv_mask = mask_of(p_v)
            bag_u = xu0
            if not neighbor_mask(adj, pv_mask) & xu0:
                allowed_w = gp & ~(
                    pv_mask | adj[xc] | (1 << xa) | (1 << xb) | (1 << xc)
                )
                sources = adj[y_c] & allowed_w & ~xu0
                if not sources:
                    continue
                conn = shortest_path_avoiding(
                    g, sources, xu0, full & ~(allowed_w | sources)
                )
                if conn is None:
                    continue
                bag_u = xu0 | mask_of(conn)
            bags = []
            for w in range(h.n):
                if w == u:
                    bags.append(set_of(bag_u))
                elif w == v:
                    bags.append(set_of(pv_mask))
                else:
                    bags.append(frozenset({x[w]}))
            return Model(h, g, tuple(bags))
        return None

    for bags in iter_premodels(g, h, order, [1] * h.n, free):
        witness = try_premodel([bag.bit_length() - 1 for bag in bags])
        if witness is not None:
            return answer_yes(witness, "house_bull")
    return answer_no("house_bull")


# ---------------------------------------------------------------------------
# complete split patterns


def solve_complete_split(g: Graph, h: Graph, pc: PatternClass) -> Answer:
    """Decide containment for a clique (size <= 3) joined onto an
    independent set.

    One engine walk: the independent vertices as pairwise non-adjacent
    single host vertices, then the clique vertices as connected sets of any
    size that touch every placed bag.  Singletons suffice on the independent
    side because it has at most three neighbours: a minimal connected part
    of its bag touching every clique bag is a subdivided star with at most
    three legs, so the centre stays as the bag and each leg joins the
    clique bag it reaches, which stays connected and meets no other
    independent bag.
    """
    _require_kind(pc, "complete_split")
    if pc.k > 3:
        raise SolverPreconditionError(
            "complete split solver only covers clique side k <= 3"
        )
    if h.n > g.n:
        return answer_no("complete_split")
    clique_vs, indep_vs = pc.parts
    caps = [1 if v in indep_vs else g.n for v in range(h.n)]
    for bags in iter_premodels(g, h, [*indep_vs, *clique_vs], caps):
        return answer_yes(Model(h, g, tuple(map(set_of, bags))), "complete_split")
    return answer_no("complete_split")


# ---------------------------------------------------------------------------
# hosts without long induced paths


def solve_pt_free(g: Graph, h: Graph, t: int) -> Answer:
    """Exact containment on hosts with no induced path on ``t`` vertices.

    ``t`` is an upper bound: one longest-induced-path search, capped at
    ``t``, raises :class:`SolverPreconditionError` when it reaches ``t`` and
    otherwise measures the least ``s = max(2, longest + 1)`` with the host
    P_s-free.  In such hosts a minimal model uses bags of size at most
    ``1 + deg(u) * (s - 2)`` per pattern vertex ``u``, so bounded-bag
    backtracking under those caps is complete.  No host has an induced path
    on more vertices than it has, so ``t = g.n + 1`` is always admissible and
    makes this an exact test on any host.
    """
    witness = _pt_free_model(g, h, t)
    if witness is None:
        return answer_no("ptfree")
    return answer_yes(witness, "ptfree")


def _pt_free_model(g: Graph, h: Graph, t: int) -> Model | None:
    """The unverified witness of :func:`solve_pt_free`, or ``None``."""
    longest = longest_induced_path(g, t)
    if longest >= t:
        raise SolverPreconditionError(f"host has an induced path on {t} vertices")
    s = max(2, longest + 1)
    caps = [1 + h.adj[u].bit_count() * (s - 2) for u in range(h.n)]
    return bounded_bag_search(g, h, caps)


# ---------------------------------------------------------------------------
# decomposition-theorem solvers: gem and full house


def _structure_branch(gb: Graph, pattern: Graph) -> Model | bool:
    """A yes concluded from a decomposition theorem: on a block of at most
    :data:`~indminor.oracle.MAX_ORACLE_HOST` vertices, the witness of the
    bounded-bag search with full caps, which is exact; on a larger block,
    one with bags of at most 3 vertices, else ``True`` (certified without
    one)."""
    if gb.n <= MAX_ORACLE_HOST:
        found = bounded_bag_search(gb, pattern, [gb.n] * pattern.n)
        if found is None:
            raise InvariantViolation("the structure theorem promised a model")
        return found
    for cap in (1, 2, 3):
        found = bounded_bag_search(gb, pattern, [cap] * pattern.n)
        if found is not None:
            return found
    return True


def _block_subgraphs(g: Graph, minimum: int) -> list[tuple[Graph, tuple[int, ...]]]:
    out = []
    for block in biconnected_components(g):
        if len(block) >= minimum:
            out.append(induced_subgraph(g, sorted(block)))
    return out


def _solve_by_blocks(g: Graph, pattern: Graph, method: str, decide: Callable) -> Answer:
    """Decide a 2-connected pattern by ``decide(block, pattern)`` per block,
    which returns an unverified witness over the block, ``True`` for a yes
    certified without one, or ``False``: the first witness, remapped into
    ``g`` and verified there, else any bare positive, else no."""
    certified = False
    for gb, vmap in _block_subgraphs(g, 5):
        found = decide(gb, pattern)
        if isinstance(found, Model):
            return answer_yes(_remap_model(found, g, vmap), method)
        certified = certified or found
    if certified:
        return Answer(True, method, None, certified_without_witness=True)
    return answer_no(method)


def solve_gem(g: Graph) -> Answer:
    """Decide containment of the gem (P4 plus a dominating vertex).

    Per 2-connected block: look for at most six vertices whose removal
    leaves only cographs and paths with degree-2 interiors.  If none exist
    the block contains the gem by the decomposition theorem; otherwise long
    path components are contracted to P3, making the block free of induced
    P28, and the bounded-bag solver decides exactly.
    """
    return _solve_by_blocks(g, catalog.named_graph("gem"), "gem", _gem_block)


def _gem_block(gb: Graph, gem: Graph) -> Model | bool:
    found_x = None
    verts = list(range(gb.n))
    for size in range(0, 7):
        for xs in combinations(verts, size):
            if _gem_structure_ok(gb, mask_of(xs)):
                found_x = xs
                break
        if found_x is not None:
            break
    if found_x is None:
        return _structure_branch(gb, gem)
    trace = _contract_long_paths(gb, mask_of(found_x))
    try:
        found = _pt_free_model(trace.target, gem, 28)
    except SolverPreconditionError as exc:
        raise InvariantViolation("contraction left an induced P28") from exc
    if found is None:
        return False
    return lift_through_trace(found, trace)


def _gem_structure_ok(gb: Graph, xs: int) -> bool:
    for comp in component_masks(gb.adj, gb.full_mask() & ~xs):
        sub, vmap = induced_subgraph(gb, set_of(comp))
        path = catalog.induces_path(gb, comp)
        if path is not None and all(
            gb.degree(w) == 2 for w in path[1:-1]
        ):
            continue
        if is_p4_free(sub):
            continue
        return False
    return True


def _contract_long_paths(gb: Graph, xs: int) -> ContractionTrace:
    preimages: list[frozenset[int]] = []
    merged = 0
    for comp in component_masks(gb.adj, gb.full_mask() & ~xs):
        path = catalog.induces_path(gb, comp)
        if (
            path is not None
            and len(path) >= 4
            and all(gb.degree(w) == 2 for w in path[1:-1])
        ):
            inner = frozenset(path[1:-1])
            preimages.append(inner)
            merged |= mask_of(inner)
    for v in range(gb.n):
        if not merged >> v & 1:
            preimages.append(frozenset({v}))
    preimages.sort(key=min)
    return quotient_by_preimages(gb, preimages)


def solve_full_house(g: Graph) -> Answer:
    """Decide containment of the full house (K4 plus a vertex on two of it).

    Per 2-connected block, the four decomposition properties are tested in
    order: no K4 minor; subdivision of K4/K33/prism; wheel-plus-complete-
    multipartite partition (then the host has no long induced path and the
    bounded-bag solver decides); cycle-plus-twins partition (decided by a
    direct characterization).  When none holds, the block contains the
    pattern by the decomposition theorem.
    """
    return _solve_by_blocks(
        g, catalog.named_graph("full_house"), "fullhouse", _full_house_block
    )


def _full_house_block(gb: Graph, fh: Graph) -> Model | bool:
    # (1) no K4 minor: nothing containing K4 can appear
    if series_parallel_reduce(gb) is None:
        return False
    # (2) subdivisions of K4, K33 and the prism
    sub = _subdivision_structure(gb)
    if sub is not None:
        base_kind, branches = sub
        if base_kind == "k4":
            return False
        if base_kind == "k33":
            chosen = next((br for br in branches if br[2]), None)
        else:  # prism: only subdivided triangle edges matter
            chosen = next(
                (br for br in branches if br[2] and _common_base_neighbor(branches, br)),
                None,
            )
        if chosen is None:
            return False
        return _subdivision_witness(gb, fh, branches, chosen)
    # (3) wheel + complete multipartite partition: the wheel part has at most
    # 5 vertices and an induced path meets a complete multipartite graph in
    # runs of at most 3 vertices, so an induced path has at most
    # 5 + 6 * 3 = 23 vertices and the block is P24-free
    if _has_wheel_multipartite_partition(gb):
        try:
            found = _pt_free_model(gb, fh, 24)
        except SolverPreconditionError as exc:
            raise InvariantViolation("the partition left an induced P24") from exc
        return False if found is None else found
    # (4) cycle + false-twin independent set partition
    part = _cycle_twins_partition(gb)
    if part is not None:
        cycle, twins, hood = part
        yes = len(twins) >= 2 and (
            (hood != mask_of(cycle) and len(cycle) >= 4 and hood.bit_count() >= 3)
            or (hood == mask_of(cycle) and len(cycle) >= 5)
        )
        if not yes:
            return False
        return _cycle_twins_witness(gb, fh, cycle, twins, hood)
    # no property holds: the decomposition theorem forces containment
    return _structure_branch(gb, fh)


def _subdivision_structure(gb: Graph):
    """Decompose a subdivided cubic base graph: branches between corners.

    Returns ``(kind, branches)`` where each branch is
    ``(corner1, corner2, interior tuple)``, or ``None`` when the block is
    not a subdivision of K4, K33 or the prism.
    """
    corners = [v for v in range(gb.n) if gb.degree(v) >= 3]
    if any(gb.degree(v) not in (2, 3) for v in range(gb.n)):
        return None
    if len(corners) not in (4, 6):
        return None
    corner_set = set(corners)
    branches = []
    seen_half = set()
    for start in corners:
        for first in bits(gb.adj[start]):
            if (start, first) in seen_half:
                continue
            interior = []
            prev, here = start, first
            while here not in corner_set:
                interior.append(here)
                nxt = [w for w in bits(gb.adj[here]) if w != prev]
                if len(nxt) != 1:
                    return None
                prev, here = here, nxt[0]
            seen_half.add((start, first))
            seen_half.add((here, prev))
            if here == start:
                return None  # a branch looping back makes no simple base
            branches.append((start, here, tuple(interior)))
    pairs = [(min(c1, c2), max(c1, c2)) for c1, c2, _ in branches]
    if len(pairs) != len(set(pairs)):
        return None  # parallel branches: base is a multigraph
    index = {c: i for i, c in enumerate(sorted(corner_set))}
    base = Graph.from_edges(
        len(corners), [(index[c1], index[c2]) for c1, c2, _ in branches]
    )
    for kind, named in (("k4", "k4"), ("k33", "k33"), ("prism", "prism")):
        if catalog.isomorphic(base, catalog.named_graph(named)):
            return kind, branches
    return None


def _common_base_neighbor(branches, br) -> bool:
    """Whether a branch's corners lie on a common triangle of the base."""
    c1, c2, _ = br
    nb1 = {a if b == c1 else b for a, b, _ in branches if c1 in (a, b)}
    nb2 = {a if b == c2 else b for a, b, _ in branches if c2 in (a, b)}
    return bool((nb1 & nb2) - {c1, c2})


def _subdivision_witness(gb: Graph, fh: Graph, branches, chosen) -> Model:
    """Shrink to the base plus one subdivision vertex, solve there, lift.

    The chosen branch keeps a single merged interior vertex; every other
    subdivided branch has its interior absorbed into its smaller corner
    (several branches may feed the same corner).
    """
    absorb: dict[int, set[int]] = {}
    kept: frozenset[int] | None = None
    absorbed = 0
    for br in branches:
        c1, c2, interior = br
        if not interior:
            continue
        if br == chosen:
            kept = frozenset(interior)
        else:
            absorb.setdefault(min(c1, c2), set()).update(interior)
        absorbed |= mask_of(interior)
    preimages: list[frozenset[int]] = [kept] if kept is not None else []
    for v in range(gb.n):
        if absorbed >> v & 1:
            continue
        preimages.append(frozenset(absorb.get(v, set()) | {v}))
    return _quotient_witness(gb, fh, preimages, "one subdivided edge hosts a model")


def _quotient_witness(g: Graph, h: Graph, preimages: list, promise: str) -> Model:
    """Contract ``preimages`` (at most 7 sets), search the quotient with the
    full-caps bounded-bag search, which is exact, and lift; no model there
    breaks ``promise``, an invariant."""
    preimages.sort(key=min)
    trace = quotient_by_preimages(g, preimages)
    q = trace.target
    core_model = bounded_bag_search(q, h, [q.n] * h.n)
    if core_model is None:
        raise InvariantViolation(promise)
    return lift_through_trace(core_model, trace)


def _has_wheel_multipartite_partition(gb: Graph) -> bool:
    full = gb.full_mask()
    for size in (4, 5):
        for ws in combinations(range(gb.n), size):
            m = mask_of(ws)
            if is_wheel(gb, m) and is_complete_multipartite(gb, full & ~m) is not None:
                return True
    return False


def _cycle_twins_partition(gb: Graph):
    """A partition into an induced spanning cycle plus independent false
    twins with one shared neighborhood, or ``None``.

    Candidate twin classes are the maximal equal-neighborhood classes;
    members may also sit on the cycle, so every way of returning at most
    two of them to the cycle side is tried.
    """
    classes: dict[int, list[int]] = {}
    for v in range(gb.n):
        classes.setdefault(gb.adj[v], []).append(v)
    for hood in sorted(classes):
        members = classes[hood]
        # at most two members lie on the cycle: three false twins there would
        # give each of their two shared cycle neighbours three cycle neighbours
        for keep in range(max(1, len(members) - 2), len(members) + 1):
            for twins in combinations(members, keep):
                cyc_mask = gb.full_mask() & ~mask_of(twins)
                order = cycle_order(gb, cyc_mask)
                if order is not None:
                    return order, list(twins), hood
    return None


def _cycle_twins_witness(
    gb: Graph, fh: Graph, cycle: list[int], twins: list[int], hood: int
) -> Model:
    """Shrink the cycle to 4 or 5 arc vertices plus two twins, solve, lift."""
    i1, i2 = sorted(twins)[:2]
    keep = sorted(set(cycle) | {i1, i2})
    sub, vmap = induced_subgraph(gb, keep)
    inv = {old: new for new, old in enumerate(vmap)}
    cyc = [inv[x] for x in cycle]
    hood_sub = mask_of(inv[x] for x in bits(hood))
    if hood == mask_of(cycle):
        arcs = _split_cycle(cyc, hood_sub, 5, anchor=None)
    else:
        anchor = next(w for w in cyc if not hood_sub >> w & 1)
        arcs = _split_cycle(cyc, hood_sub, 4, anchor=anchor)
    preimages = [frozenset(arc) for arc in arcs]
    preimages.append(frozenset({inv[i1]}))
    preimages.append(frozenset({inv[i2]}))
    lifted = _quotient_witness(
        sub, fh, preimages, "the characterization promised a model"
    )
    return _remap_model(lifted, gb, vmap)


def _split_cycle(
    cyc: list[int], hood: int, parts: int, anchor: int | None
) -> list[list[int]]:
    """Split a cycle order into contiguous arcs.

    With an anchor: the anchor is its own neighborhood-free arc and the rest
    splits into ``parts - 1`` arcs each containing an attached vertex.
    Without: ``parts`` arcs, attachment everywhere.
    """
    if anchor is None:
        cuts = min(parts, len(cyc))
        base = [[] for _ in range(cuts)]
        for i, w in enumerate(cyc):
            base[min(i, cuts - 1)].append(w)
        return base
    k = cyc.index(anchor)
    rest = cyc[k + 1 :] + cyc[:k]
    marks = [i for i, w in enumerate(rest) if hood >> w & 1]
    # cut after the first and second attached vertices
    c1, c2 = marks[0], marks[1]
    return [
        [anchor],
        rest[: c1 + 1],
        rest[c1 + 1 : c2 + 1],
        rest[c2 + 1 :],
    ]


# ---------------------------------------------------------------------------
# cliques and clique-plus-isolated-vertex patterns


def solve_clique(g: Graph, k: int) -> Answer:
    """Containment of a complete pattern reduces to minor containment."""
    witness = clique_minor_test(g, k)
    if witness is None:
        return answer_no("clique_minor")
    return answer_yes(witness, "clique_minor")


def solve_clique_plus_isolated(g: Graph, h: Graph, pc: PatternClass) -> Answer:
    """Containment of K_k plus one isolated vertex: pick the isolated bag's
    vertex x, then look for a K_k minor avoiding N[x]."""
    _require_kind(pc, "clique_plus_isolated")
    clique_vs, (iso,) = pc.parts
    k = len(clique_vs)
    for x in range(g.n):
        rest = sorted(set_of(g.full_mask() & ~closed_neighbor_mask(g.adj, 1 << x)))
        if len(rest) < k:
            continue
        sub, vmap = induced_subgraph(g, rest)
        inner = clique_minor_test(sub, k)
        if inner is None:
            continue
        bags: list[frozenset[int]] = [frozenset()] * h.n
        for i, hv in enumerate(clique_vs):
            bags[hv] = frozenset(vmap[y] for y in inner.bags[i])
        bags[iso] = frozenset({x})
        return answer_yes(Model(h, g, tuple(bags)), "clique_plus_isolated")
    return answer_no("clique_plus_isolated")
