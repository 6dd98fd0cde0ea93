"""Span recorder for the traced run.

:func:`install` wraps the named public functions of ``indminor``'s modules
and rebinds the wrapper in every module namespace that holds the original,
so calls through ``from .graphs import induced_subgraph`` are seen too.  Each
wrapper opens a span on entry and closes it in ``finally``; a layer's time is
its self time, the span minus its child spans.  Spans are kept in memory and
written out by :meth:`Recorder.dump` when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array

# module -> functions wrapped; every per-layer ``<module>.<function>`` metric
# comes from this table
LAYERS = {
    "catalog": ("classify",),
    "cli": ("dispatch",),
    "graphs": (
        "induced_subgraph", "is_pt_free", "is_p4_free", "biconnected_components",
        "quotient_by_preimages", "shortest_path_avoiding",
    ),
    "oracle": (
        "induced_subgraph_search", "rooted_clique_minor", "clique_minor_test",
        "induced_minor_exhaustive",
    ),
    "solvers": (
        "solve_snt_single", "solve_house_bull", "bounded_bag_search", "solve_gem",
        "solve_full_house", "solve_complete_split", "solve_clique",
        "solve_clique_plus_isolated", "solve_pt_free", "solve_disjoint_paths",
    ),
    "models": ("verify_model",),
}
# layers whose useful outcome is a non-None result
HIT_RATIO = ("oracle.rooted_clique_minor", "solvers.bounded_bag_search")
MAX_SPANS = 200_000


class Recorder:
    """Open spans on a stack; per-layer totals are exact, raw spans are kept
    up to ``MAX_SPANS`` and the rest only counted."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.hits: list[int] = []
        self.stack: list[list[int]] = []  # [name, start, child_ns, span id]
        self.query = 0
        self.next_id = 0
        self.dropped = 0
        self.truncated = 0
        self.spans = {f: array("q") for f in ("id", "parent", "name", "query", "start", "end")}

    def register(self, name: str) -> int:
        """The index of layer ``name``; a layer installed again keeps its totals."""
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.self_ns.append(0)
        self.calls.append(0)
        self.hits.append(0)
        return len(self.names) - 1

    def open(self, idx: int) -> None:
        self.stack.append([idx, time.perf_counter_ns(), 0, self.next_id])
        self.next_id += 1

    def close(self, hit: bool) -> None:
        end = time.perf_counter_ns()
        idx, start, child, sid = self.stack.pop()
        dur = end - start
        self.self_ns[idx] += dur - child
        self.calls[idx] += 1
        self.hits[idx] += hit
        parent = -1
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][3]
        if len(self.spans["id"]) < MAX_SPANS:
            for field, value in zip(
                ("id", "parent", "name", "query", "start", "end"),
                (sid, parent, idx, self.query, start, end),
            ):
                self.spans[field].append(value)
        else:
            self.dropped += 1

    def end_query(self) -> None:
        """Close spans a deadline left open, so the next query starts clean."""
        while self.stack:
            self.truncated += 1
            self.close(False)
        self.query += 1

    def totals(self) -> dict[str, tuple[float, int, int]]:
        """``name -> (self ms, calls, hits)``."""
        return {
            name: (self.self_ns[i] / 1e6, self.calls[i], self.hits[i])
            for i, name in enumerate(self.names)
        }

    def dump(self, path) -> None:
        cols = ("id", "parent", "name", "query", "start", "end")
        with open(path, "w") as out:
            out.write(f"# spans kept {len(self.spans['id'])} dropped {self.dropped} "
                      f"truncated by deadline {self.truncated}\n")
            out.write("\t".join(cols) + "\n")
            for row in zip(*(self.spans[c] for c in cols)):
                out.write("\t".join(self.names[v] if c == "name" else str(v)
                                    for c, v in zip(cols, row)) + "\n")


def _wrap(fn, rec: Recorder, idx: int):
    def traced(*args, **kwargs):
        rec.open(idx)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.close(result is not None)

    traced.__wrapped__ = fn
    return traced


def install(rec: Recorder):
    """Wrap every layer function and count ``Graph`` constructions; returns
    an undo function that restores the original bindings."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "indminor" or name.startswith("indminor."))]
    undo = []
    for short, funcs in LAYERS.items():
        home = sys.modules[f"indminor.{short}"]
        for func in funcs:
            original = getattr(home, func)
            wrapper = _wrap(original, rec, rec.register(f"{short}.{func}"))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))

    graph_cls = sys.modules["indminor.graphs"].Graph
    post_init = graph_cls.__post_init__
    built = rec.register("graphs.Graph")

    def counted(self):
        rec.calls[built] += 1
        post_init(self)

    graph_cls.__post_init__ = counted
    undo.append((graph_cls, "__post_init__", post_init))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
