"""One decision procedure per tractable pattern family.

Every solver returns an :class:`~indminor.models.Answer`; positive answers
carry a witness model unless they come from a decomposition-theorem branch,
in which case ``certified_without_witness`` is set (or a bounded witness
search is attempted).  Constructed witnesses are re-verified when the Answer
is built; a verification failure raises and signals an implementation bug,
never a "no".
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from . import catalog
from .catalog import PatternClass, classify
from .graphs import (
    ContractionTrace,
    Graph,
    biconnected_components,
    bits,
    closed_neighbor_mask,
    component_masks,
    cycle_order,
    induced_subgraph,
    is_complete_multipartite,
    is_p4_free,
    is_pt_free,
    is_wheel,
    mask_of,
    neighbor_mask,
    quotient_by_preimages,
    set_of,
    shortest_path_avoiding,
)
from .models import Answer, Model, answer_no, answer_yes, lift_through_trace
from .oracle import (
    DEFAULT_MAX_HOST,
    clique_minor_test,
    induced_minor_exhaustive,
    induced_subgraph_search,
    iter_premodels,
    rooted_clique_minor,
)


class SolverPreconditionError(ValueError):
    """The pattern/host does not meet the solver's documented precondition."""


def _first_class(h: Graph, kinds: tuple[str, ...]) -> PatternClass:
    for pc in classify(h):
        if pc.kind in kinds:
            return pc
    raise SolverPreconditionError(f"pattern is not in families {kinds}")


def _remap_model(m: Model, host: Graph, vmap: Sequence[int]) -> Model:
    """Reinterpret a model over an induced subgraph as one over ``host``."""
    return Model(
        m.pattern, host, tuple(frozenset(vmap[x] for x in bag) for bag in m.bags)
    )


# ---------------------------------------------------------------------------
# disjoint unions of paths


def solve_disjoint_paths(g: Graph, h: Graph) -> Answer:
    """Containment for path unions: induced minor iff induced subgraph."""
    if not catalog.is_disjoint_paths(h):
        raise SolverPreconditionError("pattern is not a disjoint union of paths")
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


def solve_snt_single(g: Graph, h: Graph, u: int) -> Answer:
    """Decide containment for a pattern needing at most one fat bag (at ``u``).

    Enumerates injective singleton premodels of ``V(h) - u`` with exact
    adjacency, then looks for a component of the host minus the premodel's
    forbidden region that can serve as the bag of ``u``: it must avoid the
    closed neighborhoods of the non-neighbors' bags and touch every
    neighbor's bag.
    """
    h.check_vertex(u)
    if h.n > g.n:
        return answer_no("snt_single")
    nbr_u = h.adj[u]
    for bags in iter_premodels(g, h, _premodel_order(h, u), [1] * h.n):
        y_mask = z_mask = 0
        for w, bag in enumerate(bags):
            if nbr_u >> w & 1:
                y_mask |= bag
            else:
                z_mask |= bag
        blocked = y_mask | closed_neighbor_mask(g.adj, z_mask)
        for comp in component_masks(g.adj, g.full_mask() & ~blocked):
            if not y_mask & ~neighbor_mask(g.adj, comp):
                witness = Model(h, g, tuple(
                    set_of(comp) if w == u else set_of(bag)
                    for w, bag in enumerate(bags)
                ))
                return answer_yes(witness, "snt_single")
    return answer_no("snt_single")


# ---------------------------------------------------------------------------
# generalized houses and bulls


def solve_house_bull(g: Graph, h: Graph, pc: PatternClass | None = None) -> Answer:
    """Decide containment for a triangle-plus-attached-path pattern.

    For each singleton premodel realizing the two anchor paths (all pattern
    edges except u-v and u-b, all non-edges exact), the host is restricted
    by deleting the closed neighborhoods of the interior chain vertices.
    Then either some component can serve as the whole bag of ``u``, or a
    u-to-b path is fixed, and for each neighbor ``y_c`` of c's vertex a
    shortest v-path plus a connector path complete the two fat bags.
    """
    if pc is None:
        pc = _first_class(h, ("generalized_house", "generalized_bull"))
    if pc.kind not in ("generalized_house", "generalized_bull"):
        raise SolverPreconditionError("pattern is not a generalized house/bull")
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
        order = [a, u, v] + chain
    full = g.full_mask()

    def try_premodel(x: list[int]) -> Model | None:
        xa, xu, xv, xb, xc = x[a], x[u], x[v], x[b], x[c]
        blocked = 0
        for w in interior:
            blocked |= g.adj[x[w]] | (1 << x[w])
        blocked &= ~((1 << xb) | (1 << xc))
        gp = full & ~blocked  # the restricted host G'
        # (iii) a whole component as the bag of u
        n_xc = (g.adj[xc] | (1 << xc)) & gp
        avoid = n_xc | (1 << xa) | (1 << xb) | (1 << xv)
        for comp in component_masks(g.adj, gp & ~avoid):
            reach = neighbor_mask(g.adj, comp)
            if reach >> xa & 1 and reach >> xb & 1 and reach >> xv & 1:
                bags = [
                    set_of(comp) if w == u else frozenset({x[w]})
                    for w in range(h.n)
                ]
                return Model(h, g, tuple(bags))
        # (iv) commit to some u-b path; its interior joins the bag of u
        allowed_ub = gp & ~((1 << xa) | (1 << xv)) & ~n_xc
        p_ub = shortest_path_avoiding(
            g, {xu}, {xb}, set_of(full & ~(allowed_ub | (1 << xb) | (1 << xu)))
        )
        if p_ub is None:
            return None
        xu0 = mask_of(p_ub[:-1])  # x_u plus the interior of the path
        # (v) for each neighbor of c's vertex, a v-path plus a connector
        allowed_v = gp & ~(g.adj[xb] | (1 << xb) | (1 << xa) | (1 << xc)) & ~xu0
        for y_c in bits(g.adj[xc] & allowed_v):
            p_v = shortest_path_avoiding(
                g, {xv}, {y_c}, set_of(full & ~allowed_v)
            )
            if p_v is None:
                continue
            pv_mask = mask_of(p_v)
            bag_u = xu0
            if not neighbor_mask(g.adj, pv_mask) & xu0:
                allowed_w = gp & ~(
                    pv_mask | g.adj[xc] | (1 << xa) | (1 << xb) | (1 << xc)
                )
                sources = g.adj[y_c] & allowed_w & ~xu0
                if not sources:
                    continue
                conn = shortest_path_avoiding(
                    g,
                    set_of(sources),
                    set_of(xu0),
                    set_of(full & ~(allowed_w | sources)),
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


def solve_complete_split(g: Graph, h: Graph, pc: PatternClass | None = None) -> Answer:
    """Decide containment for a clique (size <= 3) joined onto an
    independent set.

    Independent-side premodels are injective pairwise non-adjacent
    singletons; for each, small disjoint seed sets (one per clique vertex,
    each touching every independent bag's neighborhood) root an exact
    clique-minor search in the remaining host.
    """
    if pc is None:
        pc = _first_class(h, ("complete_split",))
    k, p = pc.k, pc.p
    if k > 3:
        raise SolverPreconditionError(
            "complete split solver only covers clique side k <= 3"
        )
    if h.n > g.n:
        return answer_no("complete_split")
    clique_vs, indep_vs = pc.parts
    n = g.n

    for premodel in iter_premodels(g, h, indep_vs, [1] * h.n):
        prem = [premodel[v].bit_length() - 1 for v in indep_vs]
        if prem != sorted(prem):
            continue  # independent vertices are twins: take each set once
        x_mask = mask_of(prem)
        rest_vertices = [x for x in range(n) if not x_mask >> x & 1]
        sub, vmap = induced_subgraph(g, rest_vertices)
        inv = {old: new for new, old in enumerate(vmap)}
        nbrs = [set(bits(g.adj[x])) - set(prem) for x in prem]
        if any(not s for s in nbrs):
            continue
        pool = sorted(set().union(*nbrs))
        seeds = [
            s
            for size in range(1, p + 1)
            for s in combinations(pool, size)
            if all(any(x in nb for x in s) for nb in nbrs)
        ]
        for zs in combinations(seeds, k):
            flat = [x for z in zs for x in z]
            if len(set(flat)) != len(flat):
                continue
            roots = [[inv[x] for x in z] for z in zs]
            inner = rooted_clique_minor(sub, roots)
            if inner is None:
                continue
            bags: list[frozenset[int]] = [frozenset()] * h.n
            for i, hv in enumerate(clique_vs):
                bags[hv] = frozenset(vmap[y] for y in inner.bags[i])
            for j, hv in enumerate(indep_vs):
                bags[hv] = frozenset({prem[j]})
            return answer_yes(Model(h, g, tuple(bags)), "complete_split")
    return answer_no("complete_split")


# ---------------------------------------------------------------------------
# bounded-bag backtracking and hosts without long induced paths


def bounded_bag_search(
    host: Graph, pattern: Graph, caps: Sequence[int]
) -> Model | None:
    """Exhaustive search over disjoint connected bags with per-vertex size
    caps, exact adjacency forward-checked against placed bags.

    The premodel engine with pattern vertices by descending degree: with
    every cap 1 the first witness is the lexicographically smallest
    singleton model along that order; larger bags are connected sets grown
    from ascending roots, depth first.  Deterministic; complete when every
    cap is at least ``host.n``.
    """
    hn = pattern.n
    if hn > host.n:
        return None
    order = sorted(range(hn), key=lambda u: (-pattern.adj[u].bit_count(), u))
    for bags in iter_premodels(host, pattern, order, caps):
        return Model(pattern, host, tuple(set_of(m) for m in bags))
    return None


def solve_pt_free(g: Graph, h: Graph, t: int) -> Answer:
    """Exact containment on hosts with no induced path on ``t`` vertices.

    In such hosts a minimal model uses bags of size at most
    ``1 + deg(u) * (t - 2)`` per pattern vertex ``u``, so bounded-bag
    backtracking is complete.
    """
    if not is_pt_free(g, t):
        raise SolverPreconditionError(f"host has an induced path on {t} vertices")
    caps = [1 + h.adj[u].bit_count() * (t - 2) for u in range(h.n)]
    witness = bounded_bag_search(g, h, caps)
    if witness is None:
        return answer_no("ptfree")
    return answer_yes(witness, "ptfree")


# ---------------------------------------------------------------------------
# decomposition-theorem solvers: gem and full house


def _structure_branch_witness(
    gb: Graph, pattern: Graph, require_witness: bool, max_oracle: int
) -> Model | None:
    """Witness search for a yes concluded from a decomposition theorem."""
    if gb.n <= max_oracle:
        found = induced_minor_exhaustive(gb, pattern, max_oracle)
        assert found is not None  # the structure theorem guarantees a model
        return found
    caps = [1, 2, 3]
    if require_witness:
        caps.append(gb.n)  # complete search; containment is already certain
    for cap in caps:
        found = bounded_bag_search(gb, pattern, [cap] * pattern.n)
        if found is not None:
            return found
    return None


def _block_subgraphs(g: Graph, minimum: int) -> list[tuple[Graph, tuple[int, ...]]]:
    out = []
    for block in biconnected_components(g):
        if len(block) >= minimum:
            out.append(induced_subgraph(g, sorted(block)))
    return out


def solve_gem(
    g: Graph, require_witness: bool = False, max_oracle: int = DEFAULT_MAX_HOST
) -> Answer:
    """Decide containment of the gem (P4 plus a dominating vertex).

    Per 2-connected block: look for at most six vertices whose removal
    leaves only cographs and paths with degree-2 interiors.  If none exist
    the block contains the gem by the decomposition theorem; otherwise long
    path components are contracted to P3, making the block free of induced
    P28, and the bounded-bag solver decides exactly.
    """
    gem = catalog.named_graph("gem")
    certified = False
    for gb, vmap in _block_subgraphs(g, 5):
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
            witness = _structure_branch_witness(gb, gem, require_witness, max_oracle)
            if witness is not None:
                return answer_yes(_remap_model(witness, g, vmap), "gem")
            certified = True
            continue
        trace = _contract_long_paths(gb, mask_of(found_x))
        gprime = trace.target
        if not is_pt_free(gprime, 28):
            raise RuntimeError("induced-path bound violated after contraction")
        ans = solve_pt_free(gprime, gem, 28)
        if ans.contains:
            lifted = lift_through_trace(ans.witness, trace)
            return answer_yes(_remap_model(lifted, g, vmap), "gem")
    if certified:
        return Answer(True, "gem", None, certified_without_witness=True)
    return answer_no("gem")


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


def solve_full_house(
    g: Graph, require_witness: bool = False, max_oracle: int = DEFAULT_MAX_HOST
) -> Answer:
    """Decide containment of the full house (K4 plus a vertex on two of it).

    Per 2-connected block, the four decomposition properties are tested in
    order: no K4 minor; subdivision of K4/K33/prism; wheel-plus-complete-
    multipartite partition (then the host has no long induced path and the
    bounded-bag solver decides); cycle-plus-twins partition (decided by a
    direct characterization).  When none holds, the block contains the
    pattern by the decomposition theorem.
    """
    fh = catalog.named_graph("full_house")
    certified = False
    for gb, vmap in _block_subgraphs(g, 5):
        ans = _full_house_block(gb, fh, require_witness, max_oracle)
        if ans.contains and ans.witness is not None:
            return answer_yes(_remap_model(ans.witness, g, vmap), "fullhouse")
        if ans.contains:
            certified = True
    if certified:
        return Answer(True, "fullhouse", None, certified_without_witness=True)
    return answer_no("fullhouse")


def _full_house_block(
    gb: Graph, fh: Graph, require_witness: bool, max_oracle: int
) -> Answer:
    # (1) no K4 minor: nothing containing K4 can appear
    if clique_minor_test(gb, 4) is None:
        return answer_no("fullhouse")
    # (2) subdivisions of K4, K33 and the prism
    sub = _subdivision_structure(gb)
    if sub is not None:
        base_kind, branches, corner_map = sub
        if base_kind == "k4":
            return answer_no("fullhouse")
        if base_kind == "k33":
            chosen = next((br for br in branches if br[2]), None)
        else:  # prism: only subdivided triangle edges matter
            chosen = next(
                (br for br in branches if br[2] and _common_base_neighbor(branches, br)),
                None,
            )
        if chosen is None:
            return answer_no("fullhouse")
        witness = _subdivision_witness(gb, fh, branches, chosen)
        return answer_yes(witness, "fullhouse")
    # (3) wheel + complete multipartite partition: no long induced paths
    if _has_wheel_multipartite_partition(gb):
        if is_pt_free(gb, 24):
            return solve_pt_free(gb, fh, 24)
        found = induced_minor_exhaustive(gb, fh, max_oracle)
        if found is None:
            return answer_no("fullhouse")
        return answer_yes(found, "fullhouse")
    # (4) cycle + false-twin independent set partition
    part = _cycle_twins_partition(gb)
    if part is not None:
        cycle, twins, hood = part
        yes = len(twins) >= 2 and (
            (hood != mask_of(cycle) and len(cycle) >= 4 and hood.bit_count() >= 3)
            or (hood == mask_of(cycle) and len(cycle) >= 5)
        )
        if not yes:
            return answer_no("fullhouse")
        witness = _cycle_twins_witness(gb, fh, cycle, twins, hood)
        return answer_yes(witness, "fullhouse")
    # no property holds: the decomposition theorem forces containment
    witness = _structure_branch_witness(gb, fh, require_witness, max_oracle)
    if witness is not None:
        return answer_yes(witness, "fullhouse")
    return Answer(True, "fullhouse", None, certified_without_witness=True)


def _subdivision_structure(gb: Graph):
    """Decompose a subdivided cubic base graph: branches between corners.

    Returns ``(kind, branches, corner_map)`` where each branch is
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
            return kind, branches, index
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
    preimages.sort(key=min)
    trace = quotient_by_preimages(gb, preimages)
    core_model = induced_minor_exhaustive(trace.target, fh)
    assert core_model is not None  # one subdivided edge always hosts a model
    return lift_through_trace(core_model, trace)


def _has_wheel_multipartite_partition(gb: Graph) -> bool:
    if gb.n < 4:
        return False
    for size in (4, 5):
        if size > gb.n:
            continue
        for ws in combinations(range(gb.n), size):
            wheel_part, _ = induced_subgraph(gb, ws)
            if not is_wheel(wheel_part):
                continue
            rest = sorted(set(range(gb.n)) - set(ws))
            other, _ = induced_subgraph(gb, rest)
            if is_complete_multipartite(other) is not None:
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
        for keep in range(1, len(members) + 1):
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
    preimages.sort(key=min)
    trace = quotient_by_preimages(sub, preimages)
    core_model = induced_minor_exhaustive(trace.target, fh)
    assert core_model is not None  # the characterization guarantees a model
    lifted = lift_through_trace(core_model, trace)
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


def solve_clique(g: Graph, k: int, max_oracle: int = DEFAULT_MAX_HOST) -> Answer:
    """Containment of a complete pattern reduces to minor containment."""
    witness = clique_minor_test(g, k, max_oracle)
    if witness is None:
        return answer_no("clique_minor")
    return answer_yes(witness, "clique_minor")


def solve_clique_plus_isolated(
    g: Graph, h: Graph, max_oracle: int = DEFAULT_MAX_HOST
) -> Answer:
    """Containment of K_k plus one isolated vertex: pick the isolated bag's
    vertex x, then look for a K_k minor avoiding N[x]."""
    comps = component_masks(h.adj, h.full_mask())
    singles = [c for c in comps if c.bit_count() == 1]
    others = [c for c in comps if c.bit_count() > 1]
    if others:
        if len(others) != 1 or len(singles) != 1:
            raise SolverPreconditionError("pattern is not a clique plus K_1")
        clique_vs = sorted(set_of(others[0]))
        iso = next(bits(singles[0]))
    elif len(singles) == 2:
        clique_vs, iso = [0], 1
    else:
        raise SolverPreconditionError("pattern is not a clique plus K_1")
    k = len(clique_vs)
    if h.edge_count != k * (k - 1) // 2:
        raise SolverPreconditionError("pattern is not a clique plus K_1")
    for x in range(g.n):
        rest = sorted(set_of(g.full_mask() & ~closed_neighbor_mask(g.adj, 1 << x)))
        if len(rest) < k:
            continue
        sub, vmap = induced_subgraph(g, rest)
        inner = clique_minor_test(sub, k, max_oracle)
        if inner is None:
            continue
        bags: list[frozenset[int]] = [frozenset()] * h.n
        for i, hv in enumerate(clique_vs):
            bags[hv] = frozenset(vmap[y] for y in inner.bags[i])
        bags[iso] = frozenset({x})
        return answer_yes(Model(h, g, tuple(bags)), "clique_plus_isolated")
    return answer_no("clique_plus_isolated")
