"""Command-line front end: parse graphs, classify the pattern, dispatch.

Exit codes: 0 = decided (JSON on stdout), 1 = malformed input or internal
error, 2 = unsupported instance (pattern outside the tractable families and
host too large for the exhaustive search).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .catalog import classify, named_graph
from .graphs import (
    Graph,
    GraphError,
    GraphParseError,
    from_edgelist,
    from_graph6,
    is_pt_free,
)
from .models import Answer, witness_to_dict
from .oracle import SearchCapExceeded, induced_minor_exhaustive
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


class UnsupportedInstance(Exception):
    """Honest refusal: no exact procedure applies at this input size."""


@dataclass
class DispatchConfig:
    algorithm: str = "auto"
    max_oracle_size: int = 12
    require_witness: bool = False
    t_probe: int = 8


def _probe_pt_free(g: Graph, t_probe: int) -> int | None:
    for t in range(2, t_probe + 1):
        if is_pt_free(g, t):
            return t
    return None


def dispatch(g: Graph, h: Graph, config: DispatchConfig | None = None) -> Answer:
    """Route to the first applicable solver, in family priority order.

    Patterns outside every family fall back to hosts without long induced
    paths, then to the exhaustive oracle under the size cap, and otherwise
    raise :class:`UnsupportedInstance`.
    """
    config = config or DispatchConfig()
    if config.algorithm != "auto":
        return _forced(g, h, config)
    if h.n > g.n:
        return Answer(False, "degenerate")
    for pc in classify(h):
        kind = pc.kind
        if kind == "disjoint_paths":
            return solve_disjoint_paths(g, h)
        if kind == "clique":
            if pc.k <= 4 or g.n <= config.max_oracle_size:
                return solve_clique(g, pc.k, config.max_oracle_size)
            continue
        if kind == "clique_plus_isolated":
            if pc.k <= 4 or g.n <= config.max_oracle_size:
                return solve_clique_plus_isolated(g, h, config.max_oracle_size)
            continue
        if kind == "flower":
            return solve_snt_single(g, h, pc.center)
        if kind in ("generalized_house", "generalized_bull"):
            return solve_house_bull(g, h, pc)
        if kind == "complete_split":
            if pc.k <= 3:
                return solve_complete_split(g, h, pc)
            continue
        if kind == "gem":
            return solve_gem(g, config.require_witness, config.max_oracle_size)
        if kind == "full_house":
            return solve_full_house(g, config.require_witness, config.max_oracle_size)
        break  # unsupported: try the host-restricted fallbacks
    t = _probe_pt_free(g, config.t_probe)
    if t is not None:
        return solve_pt_free(g, h, t)
    if g.n <= config.max_oracle_size:
        witness = induced_minor_exhaustive(g, h, config.max_oracle_size)
        if witness is None:
            return Answer(False, "oracle")
        return Answer(True, "oracle", witness)
    raise UnsupportedInstance(
        "pattern lies outside the tractable families and the host exceeds "
        f"the exhaustive-search cap ({config.max_oracle_size} vertices)"
    )


def _forced(g: Graph, h: Graph, config: DispatchConfig) -> Answer:
    alg = config.algorithm
    if alg == "oracle":
        if g.n > config.max_oracle_size:
            raise UnsupportedInstance(
                f"host exceeds --max-oracle-size {config.max_oracle_size}"
            )
        witness = induced_minor_exhaustive(g, h, config.max_oracle_size)
        return Answer(witness is not None, "oracle", witness)
    if alg == "snt":
        for pc in classify(h):
            if pc.kind == "flower":
                return solve_snt_single(g, h, pc.center)
        raise SolverPreconditionError("--algorithm snt needs a flower pattern")
    if alg == "house-bull":
        return solve_house_bull(g, h)
    if alg == "split":
        return solve_complete_split(g, h)
    if alg == "ptfree":
        t = _probe_pt_free(g, config.t_probe)
        if t is None:
            raise SolverPreconditionError(
                f"--algorithm ptfree: host is not P_t-free for any t <= "
                f"{config.t_probe}"
            )
        return solve_pt_free(g, h, t)
    if alg == "gem":
        return solve_gem(g, config.require_witness, config.max_oracle_size)
    if alg == "fullhouse":
        return solve_full_house(g, config.require_witness, config.max_oracle_size)
    raise SolverPreconditionError(f"unknown algorithm {alg!r}")


def _load_graph(path: str, fmt: str | None) -> Graph:
    text = Path(path).read_text()
    if fmt is None:
        fmt = "graph6" if path.endswith(".g6") else "edgelist"
    if fmt == "graph6":
        return from_graph6(text)
    return from_edgelist(text)


def _build_parser() -> argparse.ArgumentParser:
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
    ap.add_argument(
        "--algorithm",
        default="auto",
        choices=[
            "auto",
            "oracle",
            "snt",
            "house-bull",
            "split",
            "ptfree",
            "gem",
            "fullhouse",
        ],
    )
    ap.add_argument("--max-oracle-size", type=int, default=12)
    ap.add_argument(
        "--require-witness",
        action="store_true",
        help="force a witness search in structure-theorem branches",
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
    except (GraphParseError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    config = DispatchConfig(
        algorithm=args.algorithm,
        max_oracle_size=args.max_oracle_size,
        require_witness=args.require_witness,
    )
    try:
        answer = dispatch(host, pattern, config)
    except UnsupportedInstance as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except (SolverPreconditionError, SearchCapExceeded, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "contains": answer.contains,
        "method": answer.method,
        "witness": witness_to_dict(answer.witness) if answer.witness else None,
        "certified_without_witness": answer.certified_without_witness,
    }
    print(json.dumps(payload, sort_keys=False, separators=(", ", ": ")))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
