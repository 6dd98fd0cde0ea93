"""Command-line front end: parse graphs, classify the pattern, dispatch.

One table, :data:`ROUTES`, orders every route, and :func:`dispatch` walks
it once, top to bottom.  The last row is the one exact fallback, the
bounded-bag search: it decides every host of at most
:data:`~indminor.oracle.MAX_ORACLE_HOST` vertices and every larger host
without an induced path on :data:`T_PROBE` vertices.

Exit codes: 0 = decided (JSON on stdout), 1 = malformed input or an
internal error (a message on stderr), 2 = unsupported instance (no family
route applies, the host has more than 12 vertices and an induced P8).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .catalog import classify, named_graph
from .graphs import (
    Graph,
    GraphError,
    InvariantViolation,
    from_edgelist,
    from_graph6,
)
from .models import Answer, ModelError, witness_to_dict
from .oracle import MAX_ORACLE_HOST, SearchCapExceeded
from .solvers import (
    SolverPreconditionError,
    solve_clique,
    solve_clique_plus_isolated,
    solve_complete_split,
    solve_disjoint_paths,
    solve_full_house,
    solve_gem,
    solve_house_bull,
    solve_pt_free,
    solve_snt_single,
)

if TYPE_CHECKING:
    import argparse

# on hosts above the cap, the fallback needs no induced path on this many vertices
T_PROBE = 8


class UnsupportedInstance(Exception):
    """Honest refusal: no exact procedure applies at this input size."""


def _pt_free_route(g: Graph, h: Graph) -> Answer | None:
    t = g.n + 1 if g.n <= MAX_ORACLE_HOST else T_PROBE
    try:
        return solve_pt_free(g, h, t)
    except SolverPreconditionError:
        return None


# The only ordering of routes: dispatch walks the rows top to bottom.  Each is
# (classify kinds served, or () for a row that applies to every pattern;
#  guard(g, pc), or None when the row always applies;
#  solver(g, h, pc), which answers or returns None to pass to the next row).
# ``pc`` is the PatternClass of ``classify(h)`` whose kind picked the row
# (None for a row with no kinds); a family solver reads every role from it
# and recognises nothing itself.  The family rows are in the order of
# catalog's recognizers, so classify lists kinds in row order.
# Solvers are looked up by name at call time, so rebinding a module
# attribute (as the bench tracer does) reaches every route.
ROUTES = (
    (("disjoint_paths",), None, lambda g, h, pc: solve_disjoint_paths(g, h, pc)),
    (("clique",), lambda g, pc: pc.k <= 4 or g.n <= MAX_ORACLE_HOST,
     lambda g, h, pc: solve_clique(g, pc.k)),
    (("clique_plus_isolated",), lambda g, pc: pc.k <= 4 or g.n <= MAX_ORACLE_HOST,
     lambda g, h, pc: solve_clique_plus_isolated(g, h, pc)),
    (("flower",), None, lambda g, h, pc: solve_snt_single(g, h, pc)),
    (("generalized_house", "generalized_bull"), None,
     lambda g, h, pc: solve_house_bull(g, h, pc)),
    (("complete_split",), lambda g, pc: pc.k <= 3,
     lambda g, h, pc: solve_complete_split(g, h, pc)),
    (("gem",), None, lambda g, h, pc: solve_gem(g)),
    (("full_house",), None, lambda g, h, pc: solve_full_house(g)),
    ((), None, lambda g, h, pc: _pt_free_route(g, h)),
)


def dispatch(g: Graph, h: Graph) -> Answer:
    """Decide by the first row of :data:`ROUTES` that answers.

    The rows are walked once, top to bottom.  A row applies when one of its
    kinds is among ``classify(h)``, or it has no kinds, and its guard holds;
    its solver answers or returns ``None`` to pass.  The family rows come
    first; the last row is the one exact fallback, the bounded-bag search,
    which passes only when the host has more than
    :data:`~indminor.oracle.MAX_ORACLE_HOST` vertices and an induced path on
    :data:`T_PROBE` vertices; then no row has answered, and
    :class:`UnsupportedInstance` is raised (``imc`` exit 2).  A pattern with
    no vertices raises :class:`~indminor.graphs.GraphError`.
    """
    if h.n < 1:
        raise GraphError("patterns need at least one vertex")
    if h.n > g.n:
        return Answer(False, "degenerate")
    found = {pc.kind: pc for pc in classify(h)}
    for kinds, guard, solve in ROUTES:
        pc = next((found[kind] for kind in kinds if kind in found), None)
        if (kinds and pc is None) or (guard is not None and not guard(g, pc)):
            continue
        answer = solve(g, h, pc)
        if answer is not None:
            return answer
    raise UnsupportedInstance(
        f"no polynomial route applies: the host has more than {MAX_ORACLE_HOST} "
        f"vertices ({g.n}) and an induced P{T_PROBE}"
    )


def _load_graph(path: str, fmt: str | None) -> Graph:
    text = Path(path).read_text()
    if fmt is None:
        fmt = "graph6" if path.endswith(".g6") else "edgelist"
    if fmt == "graph6":
        return from_graph6(text)
    return from_edgelist(text)


def _build_parser() -> argparse.ArgumentParser:
    # imported here, not at module level, so that importing the package and
    # calling dispatch stay off argparse's import cost
    import argparse

    ap = argparse.ArgumentParser(
        prog="imc",
        description="Decide whether a pattern graph is an induced minor of a "
        "host graph, emitting a checkable witness model.",
    )
    pat = ap.add_mutually_exclusive_group(required=True)
    pat.add_argument("--pattern", help="catalog pattern name (e.g. house, gem)")
    pat.add_argument("--pattern-file", help="pattern graph file")
    ap.add_argument("--graph", required=True, help="host graph file")
    ap.add_argument(
        "--format",
        choices=["graph6", "edgelist"],
        help="input format (default: by extension, .g6 means graph6)",
    )
    return ap


def run(argv: list[str]) -> int:
    """Parse arguments, decide, print the JSON result; returns the exit code."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.pattern is not None:
            pattern = named_graph(args.pattern)
        else:
            pattern = _load_graph(args.pattern_file, args.format)
        host = _load_graph(args.graph, args.format)
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        answer = dispatch(host, pattern)
    except UnsupportedInstance as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except (
        SolverPreconditionError,
        SearchCapExceeded,
        GraphError,
        ModelError,
        InvariantViolation,
        RecursionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "contains": answer.contains,
        "method": answer.method,
        "witness": witness_to_dict(answer.witness) if answer.witness else None,
        "certified_without_witness": answer.certified_without_witness,
    }
    import json

    print(json.dumps(payload, sort_keys=False, separators=(", ", ": ")))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
