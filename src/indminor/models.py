"""Induced-minor models, verification, and bag reductions.

A model assigns every pattern vertex a non-empty connected bag of host
vertices, with bags pairwise disjoint and adjacent exactly when the pattern
vertices are adjacent.  Everything here is immutable; operations return new
values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graphs import (
    ContractionTrace,
    Graph,
    GraphError,
    bits,
    from_graph6,
    is_connected_mask,
    mask_of,
    neighbor_mask,
    set_of,
    shortest_path_avoiding,
    to_graph6,
)


class ModelError(ValueError):
    """Structurally invalid model data (not a failed verification)."""


@dataclass(frozen=True)
class Model:
    """A witness that ``pattern`` is an induced minor of ``host``."""

    pattern: Graph
    host: Graph
    bags: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if len(self.bags) != self.pattern.n:
            raise ModelError("one bag per pattern vertex required")

    @staticmethod
    def from_bags(
        pattern: Graph, host: Graph, bags: Sequence[Iterable[int]]
    ) -> Model:
        return Model(pattern, host, tuple(frozenset(b) for b in bags))

    def bag_masks(self) -> list[int]:
        return [mask_of(b) for b in self.bags]

    def bag_union(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.bags:
            out.update(b)
        return frozenset(out)


@dataclass(frozen=True)
class Answer:
    """Outcome of a containment decision.

    ``witness`` is present only for verified positive answers;
    ``certified_without_witness`` marks positives concluded from a
    decomposition theorem without an explicit model.
    """

    contains: bool
    method: str
    witness: Model | None = None
    certified_without_witness: bool = False

    def __post_init__(self) -> None:
        if self.witness is not None:
            if not self.contains:
                raise ModelError("witness attached to a negative answer")
            if not verify_model(self.witness):
                raise ModelError("witness fails verification")
        if self.certified_without_witness and (
            not self.contains or self.witness is not None
        ):
            raise ModelError("certified_without_witness requires a bare positive")


def answer_yes(witness: Model, method: str) -> Answer:
    return Answer(True, method, witness)


def answer_no(method: str) -> Answer:
    return Answer(False, method)


def verify_model(m: Model) -> bool:
    """Check both model invariants with O(|V(host)|^2) adjacency probes.

    Raises :class:`~indminor.graphs.GraphError` when a bag references an
    out-of-range host vertex; every other defect yields ``False``.
    """
    host, pattern = m.host, m.pattern
    full = host.full_mask()
    masks = []
    seen = 0
    for bag in m.bags:
        bm = mask_of(bag)
        if bm & ~full:
            raise GraphError("bag references an out-of-range host vertex")
        if not bm or bm & seen:
            return False
        seen |= bm
        masks.append(bm)
    owner = [-1] * host.n
    for u, bm in enumerate(masks):
        if not is_connected_mask(host.adj, bm):
            return False
        for v in bits(bm):
            owner[v] = u
    touched = [0] * pattern.n
    for x in range(host.n):
        if owner[x] == -1:
            continue
        for y in bits(host.adj[x]):
            if owner[y] != -1:
                touched[owner[x]] |= 1 << owner[y]
    for u in range(pattern.n):
        if touched[u] & ~(1 << u) != pattern.adj[u]:
            return False
    return True


def _replace_bag(m: Model, u: int, new_bag: Iterable[int]) -> Model:
    bags = list(m.bags)
    bags[u] = frozenset(new_bag)
    return Model(m.pattern, m.host, tuple(bags))


def shrink_small_degree_bag(m: Model, u: int) -> Model:
    """Shrink bag ``u`` to a minimal one; pattern degree of ``u`` must be <= 2.

    Degree 0 or 1 leaves a singleton; degree 2 leaves the lexicographically
    smallest shortest path inside the old bag joining the two neighbor bags.
    The result is again a valid model, unchanged outside ``u``.
    """
    deg = m.pattern.degree(u)
    if deg > 2:
        raise ModelError(f"pattern vertex {u} has degree {deg} > 2")
    host = m.host
    bag = mask_of(m.bags[u])
    nbrs = list(bits(m.pattern.adj[u]))
    if deg == 0:
        keep = bag & -bag
        return _replace_bag(m, u, set_of(keep))
    attach = []
    for v in nbrs:
        reach = neighbor_mask(host.adj, mask_of(m.bags[v])) & bag
        attach.append(reach)
    if deg == 1:
        keep = attach[0] & -attach[0]
        return _replace_bag(m, u, set_of(keep))
    forbidden = set_of(host.full_mask() & ~bag)
    path = shortest_path_avoiding(
        host, set_of(attach[0]), set_of(attach[1]), forbidden
    )
    assert path is not None  # the bag is connected and touches both sides
    return _replace_bag(m, u, path)


def _path_in_pattern(pattern: Graph, p: Sequence[int]) -> None:
    if len(p) != len(set(p)):
        raise ModelError("path vertices must be distinct")
    for a, b in zip(p, p[1:]):
        if not pattern.has_edge(a, b):
            raise ModelError(f"({a},{b}) is not a pattern edge")
    for v in p[1:-1]:
        if pattern.degree(v) != 2:
            raise ModelError(f"internal path vertex {v} must have degree 2")


def straighten_path_bags(m: Model, p: Sequence[int]) -> Model:
    """Make the internal bags of pattern path ``p`` trivial.

    ``p`` lists pattern vertices; its internal vertices must have pattern
    degree 2 (the extremities may be adjacent, covering cycles).  The result
    is a valid model whose bag union is contained in the input's; bags
    outside ``p`` and the bag of the first extremity are unchanged, only the
    last extremity's bag may grow.  Paths with no internal vertices are
    returned unchanged.
    """
    _path_in_pattern(m.pattern, p)
    if len(p) <= 2:
        return m
    host = m.host
    a, b = p[0], p[-1]
    internals = list(p[1:-1])
    k = len(internals)

    # Phase 1: shrink every internal bag to a shortest connector until stable.
    current = m
    changed = True
    while changed:
        changed = False
        for v in internals:
            shrunk = shrink_small_degree_bag(current, v)
            if shrunk.bags[v] != current.bags[v]:
                current = shrunk
                changed = True

    # At the fixpoint each internal bag is an induced path with a unique
    # attachment vertex toward each neighboring bag, so their union is an
    # induced path from a neighbor of bag a to a neighbor of bag b.
    union = 0
    for v in internals:
        union |= mask_of(current.bags[v])
    start = neighbor_mask(host.adj, mask_of(current.bags[a])) & union
    end = neighbor_mask(host.adj, mask_of(current.bags[b])) & union
    forbidden = set_of(host.full_mask() & ~union)
    walk = shortest_path_avoiding(host, set_of(start), set_of(end), forbidden)
    assert walk is not None and len(walk) >= k

    bags = list(current.bags)
    for i, v in enumerate(internals):
        bags[v] = frozenset({walk[i]})
    bags[b] = frozenset(current.bags[b] | set(walk[k:]))
    return Model(m.pattern, host, tuple(bags))


def lift_through_trace(m: Model, tr: ContractionTrace) -> Model:
    """Rewrite a model over ``tr.target`` as a model over ``tr.source``.

    Each bag becomes the union of the preimages of its vertices; validity is
    preserved because preimages are connected and the trace's adjacency is
    exact.
    """
    if m.host != tr.target:
        raise ModelError("model host does not match the trace target")
    bags = []
    for bag in m.bags:
        lifted: set[int] = set()
        for t in bag:
            lifted.update(tr.preimage[t])
        bags.append(frozenset(lifted))
    return Model(m.pattern, tr.source, tuple(bags))


# ---------------------------------------------------------------------------
# witness serialization


def witness_to_dict(m: Model) -> dict:
    return {
        "pattern_n": m.pattern.n,
        "host_graph6": to_graph6(m.host),
        "bags": {str(u): sorted(bag) for u, bag in enumerate(m.bags)},
    }


def witness_to_json(m: Model) -> str:
    """Fixed field order, ascending arrays; byte-deterministic."""
    return json.dumps(witness_to_dict(m), sort_keys=False, separators=(", ", ": "))


def witness_from_dict(data: Mapping, pattern: Graph) -> Model:
    try:
        n = int(data["pattern_n"])
        host = from_graph6(data["host_graph6"])
        raw = data["bags"]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed witness object: {exc}") from exc
    if n != pattern.n:
        raise ModelError(f"witness pattern_n={n} != pattern order {pattern.n}")
    bags = []
    for u in range(n):
        try:
            bags.append(frozenset(int(x) for x in raw[str(u)]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed bag for pattern vertex {u}") from exc
    return Model(pattern, host, tuple(bags))


def witness_from_json(text: str, pattern: Graph) -> Model:
    return witness_from_dict(json.loads(text), pattern)
