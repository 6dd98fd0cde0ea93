import json

import pytest

from indminor.catalog import named_graph
from indminor.cli import DispatchConfig, UnsupportedInstance, dispatch, run
from indminor.graphs import to_edgelist, to_graph6
from indminor.models import verify_model, witness_from_dict


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
        host = named_graph("cycle_12")  # long induced paths, within oracle cap
        a = dispatch(host, named_graph("w4"))
        assert a.method == "oracle" and not a.contains

    def test_unsupported_error(self):
        host = named_graph("path_30")
        with pytest.raises(UnsupportedInstance):
            dispatch(host, named_graph("w4"))

    def test_degenerate_size(self):
        a = dispatch(named_graph("path_3"), named_graph("cycle_6"))
        assert not a.contains and a.method == "degenerate"


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

    def test_forced_oracle(self, files, capsys):
        gpath = files("g.g6", to_graph6(named_graph("cycle_6")))
        code = run(["--pattern", "house", "--graph", gpath, "--algorithm", "oracle"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["method"] == "oracle"

    def test_forced_mismatch_exit_1(self, files, capsys):
        gpath = files("g.g6", to_graph6(named_graph("cycle_6")))
        assert run(["--pattern", "gem", "--graph", gpath, "--algorithm", "snt"]) == 1

    def test_byte_determinism(self, files, capsys):
        gpath = files("g.g6", to_graph6(named_graph("cycle_9")))
        run(["--pattern", "cycle_5", "--graph", gpath])
        first = capsys.readouterr().out
        run(["--pattern", "cycle_5", "--graph", gpath])
        assert capsys.readouterr().out == first

    def test_require_witness_flag_accepted(self, files, capsys):
        gpath = files("g.g6", to_graph6(named_graph("gem")))
        code = run(["--pattern", "gem", "--graph", gpath, "--require-witness"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["witness"] is not None
