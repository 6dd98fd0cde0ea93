"""Benchmark of ``indminor``: time to verdict and decided share.

Usage, from the repository root::

    python3 bench/run.py --workload small_mix --seed 1 --seconds 35 --trace 0

One process, one thread.  Each query is ``indminor.cli.dispatch(host,
pattern)`` under a one-second in-process deadline; its verdict is checked
against a known answer (planted model, closed host class, or the brute-force
reference) and every witness against an independent model checker.  Passes
of the workload run until their query time fills ``--seconds`` (a pass is
started only if one of average length would still fit; one always runs).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs passes for
half the time, each query untraced and then again traced, and prints the
per-layer metrics.  The last line of output is one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 1.0
SETUP_REPEATS = 15
IMC_REPEATS = 5
METHODS = (
    "degenerate", "disjoint_paths", "clique_minor", "clique_plus_isolated",
    "snt_single", "house_bull", "complete_split", "gem", "fullhouse", "ptfree",
    "oracle",
)

sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import probes  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from runner import QueryRunner  # noqa: E402


class Record(NamedTuple):
    """What the metrics need of one query; the answer itself is dropped so
    that memory does not grow with the number of passes."""

    outcome: str
    seconds: float
    method: str | None
    witness: bool


def _load_package():
    if not (SRC / "indminor" / "__init__.py").is_file():
        sys.exit(f"error: no indminor sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import indminor.cli
    import indminor.graphs

    return indminor.cli, indminor.graphs.Graph


class Bench:
    def __init__(self, workload: str, seed: int):
        self.cli, self.Graph = _load_package()
        self.build = workloads.WORKLOADS[workload]
        self.seed = seed
        # looked up per call, so that a traced query goes through the wrapper
        self.runner = QueryRunner(
            lambda g, h: self.cli.dispatch(g, h), self.cli.UnsupportedInstance, DEADLINE_S
        )
        self.patterns = {
            name: self.Graph.from_edges(k, edges) for name, (k, edges) in gen.PATTERNS.items()
        }
        self.wrong: list[str] = []
        self.errors: list[str] = []

    def graph(self, host: gen.Host):
        return self.Graph.from_edges(host.n, host.edges())

    def self_check(self) -> None:
        """An overrunning call is a timeout, the timer is left disarmed, and
        the next query decides correctly."""

        def spin(g, h):
            while True:
                pass

        probe = QueryRunner(spin, self.cli.UnsupportedInstance, 0.02)
        try:
            overrun = probe.run(None, None)
        finally:
            probe.close()
        armed = signal.getitimer(signal.ITIMER_REAL)
        p3 = gen.Host.from_edges(3, [(0, 1), (1, 2)])
        follow = self.runner.run(self.graph(p3), self.patterns["complete_3"])
        if overrun.outcome != "timeout" or armed != (0.0, 0.0) or follow.outcome != "no":
            raise RuntimeError(
                f"deadline self-check failed: {overrun.outcome}, timer {armed}, "
                f"then {follow.outcome}"
            )

    def check(self, query: workloads.Query, result) -> None:
        """Record a wrong verdict or witness; errors are recorded as such."""
        if result.outcome == "error":
            self.errors.append(f"{query.cell}/{query.pattern}: {result.error}")
            return
        if result.outcome not in ("yes", "no"):
            return
        answer = result.answer
        problem = None
        if answer.contains != query.expect:
            problem = f"said {result.outcome}, expected {'yes' if query.expect else 'no'}"
        elif answer.contains and answer.witness is not None:
            w = answer.witness
            if not (_same(w.host, query.host) and _same(w.pattern, gen.pattern_host(query.pattern))
                    and reference.model_ok(gen.pattern_host(query.pattern), query.host, w.bags)):
                problem = "witness fails the independent check"
        elif answer.contains and not answer.certified_without_witness:
            problem = "yes without witness or certificate"
        if problem:
            self.wrong.append(f"{query.cell}/{query.pattern}: {problem}")

    def run_query(self, query: workloads.Query, g, records: list[Record]) -> float:
        """Run and check one query, append its record; returns its time."""
        result = self.runner.run(g, self.patterns[query.pattern])
        self.check(query, result)
        answer = result.answer
        records.append(Record(
            result.outcome, result.seconds, answer and answer.method,
            answer is not None and answer.witness is not None,
        ))
        return result.seconds

    def run_pass(self, index: int, records: list[Record], trace=None) -> float:
        """Run pass ``index``, building each query's graph just before it
        runs, so that a pass is never held in memory whole; returns the
        summed query time.  With ``trace``, a (recorder, records) pair, each
        query runs again at once under the span recorder, so that a drift of
        machine speed does not read as tracing overhead."""
        took = 0.0
        for query in self.build(self.seed, index):
            g = self.graph(query.host)
            took += self.run_query(query, g, records)
            if trace is not None:
                rec, traced = trace
                restore = spans.install(rec)
                try:
                    self.run_query(query, g, traced)
                finally:
                    restore()
                rec.end_query()
        return took

    def run_for(self, seconds: float, trace=None):
        """Run passes until their query time fills ``seconds``: another pass
        starts only if one of average length still fits.  Returns the
        records and the query seconds."""
        records, spent, index = [], 0.0, 0
        while index == 0 or spent * (index + 1) / index <= seconds:
            # keep the benchmark's own objects out of the program's collections
            gc.collect()
            gc.freeze()
            spent += self.run_pass(index, records, trace)
            index += 1
        return records, spent


def _same(graph, host: gen.Host) -> bool:
    """The package graph has exactly ``host``'s vertices and edges."""
    return graph.n == host.n and all(
        {w for w in range(host.n) if row >> w & 1} == host.adj[v]
        for v, row in enumerate(graph.adj)
    )


def _decided(record: Record) -> bool:
    return record.outcome in ("yes", "no")


def end_to_end(records: list[Record]) -> dict[str, float]:
    times = [r.seconds * 1000 if _decided(r) else DEADLINE_S * 1000 for r in records]
    decided = [r for r in records if _decided(r)]
    yes = [r for r in decided if r.outcome == "yes"]
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "decided_share": len(decided) / len(records),
        "verdict_p50_ms": statistics.median(times),
        "verdict_p90_ms": cuts[8],
        # over the time of decided queries only, so timeouts do not set it
        "queries_per_s": len(decided) / sum(r.seconds for r in decided) if decided else 0.0,
        # vacuously 1 when no query answered yes (closed_no)
        "witness_share": sum(r.witness for r in yes) / len(yes) if yes else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


E2E_UNITS = {
    "decided_share": "ratio", "verdict_p50_ms": "ms", "verdict_p90_ms": "ms",
    "queries_per_s": "1/s", "witness_share": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
}


def census(records: list[Record]) -> dict[str, int]:
    out = {"outcome.timeout": 0, "outcome.refused": 0, "outcome.error": 0}
    out.update({f"method.{m}": 0 for m in METHODS})
    out["method.other"] = 0
    for r in records:
        if _decided(r):
            key = f"method.{r.method}"
            out[key if key in out else "method.other"] += 1
        else:
            out[f"outcome.{r.outcome}"] += 1
    return out


def per_layer(bench: Bench, workload: str, seconds: float):
    """Per-layer metrics from running every query of a half-length run
    twice, untraced and then traced; returns (metrics, records of both)."""
    rec = spans.Recorder()
    traced: list[Record] = []
    plain, _ = bench.run_for(seconds / 2, (rec, traced))
    OUT.mkdir(exist_ok=True)
    rec.dump(OUT / f"spans-{workload}-{bench.seed}.tsv")

    metrics: dict[str, tuple[float, str]] = {}
    for name, (ms, calls, hits) in rec.totals().items():
        if name != "graphs.Graph":
            metrics[f"{name}.ms"] = (ms, "ms")
        metrics[f"{name}.calls"] = (calls, "count")
        if name in spans.HIT_RATIO:
            metrics[f"{name}.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    for name, count in census(traced).items():
        metrics[name] = (count, "count")
    metrics["trace.queries_per_s"] = (end_to_end(traced)["queries_per_s"], "1/s")
    # traced over untraced time of the queries decided in both runs, which is
    # untraced over traced throughput on them (0 if there are none)
    both = [(p, t) for p, t in zip(plain, traced) if _decided(p) and _decided(t)]
    plain_s = sum(p.seconds for p, _ in both)
    metrics["trace.overhead"] = (sum(t.seconds for _, t in both) / plain_s if both else 0.0, "x")
    host = gen.random_small(random.Random("imc"), 9, 0.5)
    expect = reference.brute_verdicts(host, ("house",))["house"]
    metrics["cli.imc.p50_ms"] = (probes.imc_ms(SRC, OUT, host, "house", expect, IMC_REPEATS), "ms")
    return metrics, plain + traced


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = Bench(args.workload, args.seed)
    try:
        bench.self_check()
        if args.trace:
            metrics, records = per_layer(bench, args.workload, args.seconds)
        else:
            records, _ = bench.run_for(args.seconds)
            metrics = {k: (v, E2E_UNITS[k]) for k, v in end_to_end(records).items()}
            metrics["setup_s"] = (probes.setup_seconds(SRC, SETUP_REPEATS), "s")
    finally:
        bench.runner.close()

    failed = len(bench.wrong) + len(bench.errors)
    print(f"workload {args.workload}  seed {args.seed}  queries {len(records)}  "
          f"failed_share {failed / len(records):.4f}")
    for line in bench.wrong + bench.errors:
        print(f"  FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not bench.wrong and not bench.errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
