import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import indminor
from conftest import SWEEP_PATTERNS, induced_p8_host, rand_graph
from indminor import cli, graphs, oracle, solvers
from indminor.catalog import classify, named_graph
from indminor.cli import ROUTES, UnsupportedInstance, dispatch, run
from indminor.graphs import (
    Graph,
    InvariantViolation,
    subdivide_edge,
    to_edgelist,
    to_graph6,
)
from indminor.models import ModelError, verify_model, witness_from_dict
from indminor.oracle import MAX_ORACLE_HOST, induced_minor_exhaustive


# patterns that no family row serves: only the bounded-bag fallback decides them
UNROUTED = [
    named_graph("k23"),
    named_graph("w4"),
    named_graph("prism"),
    named_graph("k33"),
    # kite: a diamond plus a pendant at a degree-2 vertex
    Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4)]),
    # K4 plus a pendant vertex
    Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]),
    # K2,3 plus one edge inside the 3-side
    Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]),
]


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


class TestDispatch:
    def test_routing_examples(self):
        g = named_graph("cycle_6")
        assert dispatch(g, named_graph("house")).method == "house_bull"
        assert dispatch(g, named_graph("crown")).method == "complete_split"
        assert dispatch(g, named_graph("path_4")).method == "disjoint_paths"
        assert dispatch(g, named_graph("cycle_4")).method == "snt_single"
        assert dispatch(g, named_graph("complete_3")).method == "clique_minor"
        assert dispatch(g, named_graph("gem")).method == "gem"
        assert dispatch(g, named_graph("full_house")).method == "fullhouse"

    def test_unsupported_pattern_small_host_probes_paths(self):
        # every 7-vertex host has no induced P8, so the bounded-bag solver runs
        a = dispatch(named_graph("cycle_7"), named_graph("w4"))
        assert a.method == "ptfree" and not a.contains

    def test_unsupported_pattern_oracle_window(self):
        # long induced paths within the cap: the bounded-bag search is exact
        host = named_graph("cycle_12")
        a = dispatch(host, named_graph("w4"))
        assert a.method == "ptfree" and not a.contains
        # one vertex more is past the cap
        assert MAX_ORACLE_HOST == 12
        with pytest.raises(UnsupportedInstance, match="more than 12 vertices"):
            dispatch(named_graph("cycle_13"), named_graph("w4"))

    def test_unsupported_error(self):
        host = named_graph("path_30")
        with pytest.raises(UnsupportedInstance):
            dispatch(host, named_graph("w4"))

    def test_degenerate_size(self):
        a = dispatch(named_graph("path_3"), named_graph("cycle_6"))
        assert not a.contains and a.method == "degenerate"

    def test_fallback_searches_induced_paths_once(self, monkeypatch):
        calls = []
        for module in (graphs, cli, solvers):
            if hasattr(module, "longest_induced_path"):
                original = getattr(module, "longest_induced_path")
                monkeypatch.setattr(
                    module, "longest_induced_path",
                    lambda g, cap, f=original: calls.append(cap) or f(g, cap),
                )
        a = dispatch(named_graph("cycle_7"), named_graph("w4"))
        assert a.method == "ptfree" and len(calls) == 1

    # (host size, edge probability, seed): hosts on which the exhaustive
    # search finishes within about two seconds for all seven patterns
    @pytest.mark.parametrize(
        "n, p, seed",
        [(8, 0.5, 0), (9, 0.3, 3), (10, 0.7, 0), (11, 0.5, 2), (12, 0.6, 2)],
    )
    def test_fallback_is_exact_up_to_the_cap_despite_an_induced_p8(self, n, p, seed):
        g = induced_p8_host(random.Random(seed), n, p)
        for h in UNROUTED:
            assert [pc.kind for pc in classify(h)] == ["unsupported"]
            a = dispatch(g, h)
            assert a.method == "ptfree"
            assert a.contains == (induced_minor_exhaustive(g, h) is not None)
            assert a.witness is None or verify_model(a.witness)

    def test_no_route_runs_the_exhaustive_reference(self, atlas, monkeypatch):
        # the reference stays independent of what the tests hold against it
        def reached(*args, **kwargs):
            raise AssertionError("a route ran oracle._iter_models")

        monkeypatch.setattr(oracle, "_iter_models", reached)
        rng = random.Random(17)
        hosts = [g for g in atlas if g.n <= 6]
        hosts += [rand_graph(n, rng.uniform(0.35, 0.65), rng) for n in (10, 11, 12)]
        # full-house properties (2) and (4) contract and search a quotient
        hosts += [
            subdivide_edge(named_graph("prism"), (0, 1)),
            subdivide_edge(named_graph("k33"), (0, 3)),
        ]
        for g in hosts:
            for name in SWEEP_PATTERNS:
                dispatch(g, named_graph(name))


class TestRoutes:
    def test_classified_kinds_have_one_row_in_row_order(self, atlas):
        rows = [kinds for kinds, *_ in ROUTES]
        for h in [*atlas, *map(named_graph, SWEEP_PATTERNS)]:
            found = [pc.kind for pc in classify(h) if pc.kind != "unsupported"]
            serving = [
                [i for i, kinds in enumerate(rows) if kind in kinds]
                for kind in found
            ]
            assert all(len(s) == 1 for s in serving)
            assert [s[0] for s in serving] == sorted(s[0] for s in serving)

    @pytest.mark.parametrize(
        "kind, pattern",
        [
            ("flower", "cycle_4"),
            ("generalized_house", "house"),
            ("complete_split", "crown"),
            ("gem", "gem"),
            ("full_house", "full_house"),
            (None, "w4"),
        ],
        ids=[
            "snt-cycle_4", "house-bull-house", "split-crown", "gem-gem",
            "fullhouse-full_house", "ptfree-w4",
        ],
    )
    def test_forced_route_decides_its_family(self, kind, pattern):
        # the row of ``kind`` (None: the fallback) run directly, without its
        # guard and without the rows above it
        g, h = named_graph("cycle_6"), named_graph(pattern)
        _kinds, _guard, solve = next(
            row for row in ROUTES if (kind in row[0] if kind else not row[0])
        )
        pc = next((pc for pc in classify(h) if pc.kind == kind), None)
        a = solve(g, h, pc)
        assert a.contains == (induced_minor_exhaustive(g, h) is not None)
        assert a.witness is None or verify_model(a.witness)

    def test_bench_tracer_layers_exist(self):
        # bench/run.py --trace 1 wraps these names; a rename must fail here
        path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        missing = [
            f"{module}.{name}"
            for module, names in spans.LAYERS.items()
            for name in names
            if not hasattr(importlib.import_module(f"indminor.{module}"), name)
        ]
        assert not missing
        # spans.py also counts Graph constructions through this hook
        assert hasattr(graphs.Graph, "__post_init__")


class TestRun:
    def test_basic_graph6(self, files, capsys):
        gpath = files("g.g6", to_graph6(named_graph("cycle_6")) + "\n")
        code = run(["--pattern", "house", "--graph", gpath])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "contains", "method", "witness", "certified_without_witness",
        ]
        assert payload["contains"] is False and payload["method"] == "house_bull"

    def test_positive_with_witness(self, files, capsys):
        host = named_graph("cycle_9")
        gpath = files("g.g6", to_graph6(host))
        code = run(["--pattern", "cycle_5", "--graph", gpath])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["contains"] is True
        w = witness_from_dict(payload["witness"], named_graph("cycle_5"))
        assert verify_model(w)

    def test_edgelist_and_pattern_file(self, files, capsys):
        gpath = files("g.edges", to_edgelist(named_graph("cycle_6")))
        hpath = files("h.edges", to_edgelist(named_graph("path_4")))
        code = run(["--pattern-file", hpath, "--graph", gpath])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["contains"] is True

    def test_explicit_format_flag(self, files, capsys):
        gpath = files("weird.dat", to_graph6(named_graph("cycle_5")))
        code = run(["--pattern", "path_3", "--graph", gpath, "--format", "graph6"])
        assert code == 0

    def test_malformed_input_exit_1(self, files, capsys):
        gpath = files("bad.edges", "3 1\n0 9\n")
        code = run(["--pattern", "house", "--graph", gpath])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_decimal_digit_exit_1_without_traceback(self, files, capsys):
        gpath = files("bad.edges", "2 1\n0 \u00b2\n")
        assert run(["--pattern", "house", "--graph", gpath]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2") and "Traceback" not in err

    def test_missing_file_exit_1(self, capsys):
        assert run(["--pattern", "house", "--graph", "/nonexistent.g6"]) == 1

    def test_unknown_pattern_exit_1(self, files, capsys):
        gpath = files("g.g6", to_graph6(named_graph("cycle_5")))
        assert run(["--pattern", "pentagon", "--graph", gpath]) == 1

    def test_unsupported_exit_2(self, files, capsys):
        gpath = files("g.g6", to_graph6(named_graph("path_30")))
        code = run(["--pattern", "w4", "--graph", gpath])
        assert code == 2
        assert "unsupported" in capsys.readouterr().err

    def test_undecodable_host_exit_1(self, tmp_path, capsys):
        gpath = tmp_path / "g.edges"
        gpath.write_bytes(b"\xff\xfe3 1\n0 1\n")
        assert run(["--pattern", "house", "--graph", str(gpath)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_module_entry_point_prints_no_warning(self):
        src = str(Path(indminor.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "indminor.cli", "--help"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0 and "--graph" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize(
        "host, code",
        [("cycle_12", 0), ("cycle_13", 2)],
        ids=["auto-cycle_12-0", "auto-cycle_13-2"],
    )
    def test_w4_at_the_host_size_cap(self, files, capsys, host, code):
        gpath = files("g.g6", to_graph6(named_graph(host)))
        assert run(["--pattern", "w4", "--graph", gpath]) == code
        out = capsys.readouterr()
        if code == 0:
            payload = json.loads(out.out)
            assert payload["method"] == "ptfree" and payload["contains"] is False
        else:
            assert out.out == ""
            assert "more than 12 vertices (13) and an induced P8" in out.err

    def test_algorithm_flag_is_gone_exit_1(self, files, capsys):
        gpath = files("g.g6", to_graph6(named_graph("cycle_6")))
        assert run(["--pattern", "gem", "--graph", gpath, "--algorithm", "snt"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("mode", ["auto"])
    def test_empty_pattern_exit_1_in_every_mode(self, files, capsys, mode):
        ppath = files("e0.txt", "0 0\n")
        gpath = files("p3.txt", "3 2\n0 1\n1 2\n")
        assert run(["--pattern-file", ppath, "--graph", gpath]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "at least one vertex" in out.err

    @pytest.mark.parametrize(
        "error",
        [
            ModelError("bad bag"),
            InvariantViolation("broken promise"),
            RecursionError("maximum recursion depth exceeded"),
        ],
    )
    def test_internal_error_exit_1_without_traceback(
        self, files, capsys, monkeypatch, error
    ):
        def broken(*args):
            raise error

        monkeypatch.setattr(cli, "solve_house_bull", broken)
        gpath = files("g.g6", to_graph6(named_graph("cycle_6")))
        assert run(["--pattern", "house", "--graph", gpath]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(error) in err
        assert "Traceback" not in err

    def test_byte_determinism(self, files, capsys):
        gpath = files("g.g6", to_graph6(named_graph("cycle_9")))
        run(["--pattern", "cycle_5", "--graph", gpath])
        first = capsys.readouterr().out
        run(["--pattern", "cycle_5", "--graph", gpath])
        assert capsys.readouterr().out == first

    def test_gem_host_yields_witness(self, files, capsys):
        gpath = files("g.g6", to_graph6(named_graph("gem")))
        code = run(["--pattern", "gem", "--graph", gpath])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        w = witness_from_dict(payload["witness"], named_graph("gem"))
        assert verify_model(w)
