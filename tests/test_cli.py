import argparse
import itertools
import json
import sys
import time
from pathlib import Path

import pytest

from bergesat import cli, saturation
from bergesat.cli import main
from bergesat.core import missing_edges, parse_hypergraph

# every --help text, recorded at COLUMNS=80 under the Python minor version named
GOLDEN_HELP = json.loads((Path(__file__).parent / "golden_help.json").read_text())
TIGHT_CYCLE_FILE = "n 5\n0 1 2\n0 1 4\n0 3 4\n1 2 3\n2 3 4\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture
def tight_cycle_path(tmp_path, capsys):
    path = tmp_path / "c34.hg"
    code, payload, _ = run_json(
        capsys, "gen", "c", "--k", "3", "--ell", "4", "-o", str(path)
    )
    assert code == 0
    return path


@pytest.fixture
def s21_path(tmp_path, capsys):
    path = tmp_path / "s21.hg"
    code, payload, _ = run_json(
        capsys, "gen", "s", "--n", "21", "--k", "3", "--ell", "4", "-o", str(path)
    )
    assert code == 0 and payload["edge_count"] == 21
    return path


@pytest.fixture
def k4_path(tmp_path):
    path = tmp_path / "k4.g"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    return path


@pytest.fixture
def c5_path(tmp_path):
    path = tmp_path / "c5.g"
    path.write_text("0 1\n1 2\n2 3\n3 4\n0 4\n")
    return path


class TestGen:
    def test_tight_cycle_bytes(self, tight_cycle_path):
        assert tight_cycle_path.read_text() == TIGHT_CYCLE_FILE

    def test_labels_sidecar(self, tmp_path, capsys):
        out = tmp_path / "c.hg"
        labels = tmp_path / "c.labels"
        code, _, _ = run(
            capsys, "gen", "c", "--k", "4", "--ell", "5",
            "-o", str(out), "--labels", str(labels),
        )
        assert code == 0
        lines = labels.read_text().splitlines()
        assert lines[0] == "C(1) 0" and lines[-1] == "D(1) 5"

    def test_gen_s_reports_blocks(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys, "gen", "s", "--n", "20", "--k", "3", "--ell", "4",
            "-o", str(tmp_path / "s.hg"),
        )
        assert code == 0
        assert (payload["a"], payload["b"]) == (6, 2)
        assert payload["edge_count"] == 21

    def test_gen_mindeg(self, tmp_path, capsys, k4_path):
        out = tmp_path / "h.hg"
        code, payload, _ = run_json(
            capsys, "gen", "mindeg", "--n", "12", "--k", "3",
            "--graph", str(k4_path), "-o", str(out),
        )
        assert code == 0 and payload["edge_count"] == 10
        assert len(parse_hypergraph(out.read_text()).edges) == 10

    def test_gen_feedback_with_set(self, tmp_path, capsys, k4_path):
        out = tmp_path / "hf.hg"
        code, payload, _ = run_json(
            capsys, "gen", "feedback", "--n", "13", "--k", "3", "--a", "2",
            "--graph", str(k4_path), "--feedback-set", "0,1", "-o", str(out),
        )
        assert code == 0 and payload["edge_count"] == 11

    def test_gen_feedback_with_a_repeated_vertex_is_input_error(self, tmp_path, capsys, c5_path):
        out = tmp_path / "hf.hg"
        code, _, err = run(
            capsys, "gen", "feedback", "--n", "20", "--k", "3", "--a", "2",
            "--graph", str(c5_path), "--feedback-set", "0,0", "-o", str(out),
        )
        assert code == 2 and "repeats vertex 0" in err
        assert not out.exists()

    def test_gen_too_small_is_input_error(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "gen", "s", "--n", "6", "--k", "3", "--ell", "4",
            "-o", str(tmp_path / "x.hg"),
        )
        assert code == 2 and "error" in err


class TestCheck:
    def test_contains_triangle(self, capsys, tmp_path, tight_cycle_path):
        g = tmp_path / "k3.g"
        g.write_text("0 1\n0 2\n1 2\n")
        code, payload, _ = run_json(
            capsys, "check", "contains",
            "--graph", str(g), "--hgraph", str(tight_cycle_path),
            "--require-core", "0,1,2",
        )
        assert code == 0 and payload["contains"]
        assert payload["witness"].startswith("core: 0->0 1->1 2->2")

    def test_contains_failure_exit_one(self, capsys, tmp_path, tight_cycle_path, k4_path):
        code, payload, _ = run_json(
            capsys, "check", "contains",
            "--graph", str(k4_path), "--hgraph", str(tight_cycle_path),
        )
        assert code == 1 and not payload["contains"]

    @pytest.mark.parametrize("flag, value", [
        ("--require-core", "99"), ("--require-core", "-1"), ("--require-edge", "5,5,6"),
    ])
    def test_contains_malformed_constraint_exit_two(self, capsys, s21_path, c5_path,
                                                    flag, value):
        code, out, err = run(
            capsys, "check", "contains",
            "--graph", str(c5_path), "--hgraph", str(s21_path), flag, value,
        )
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("flag, value", [
        ("--require-edge", "0,1,3"),  # a 3-set but not an edge
        ("--require-core", "0,1,2,3,4,5"),  # more vertices than C5 has
        ("--require-core", "5,6"),  # no C5 covers both
    ])
    def test_contains_unsatisfiable_constraint_exit_one(self, capsys, s21_path, c5_path,
                                                        flag, value):
        code, payload, _ = run_json(
            capsys, "check", "contains",
            "--graph", str(c5_path), "--hgraph", str(s21_path), flag, value,
        )
        assert code == 1 and payload == {"contains": False, "witness": None}

    def test_empty_pattern(self, capsys, tmp_path):
        # an edgeless pattern file parses to the pattern with no vertices,
        # which every host holds and no missing set adds a copy of
        g, h = tmp_path / "empty.g", tmp_path / "h.hg"
        g.write_text("")
        h.write_text("n 4\n0 1 2\n")
        files = ("--graph", str(g), "--hgraph", str(h))
        assert run_json(capsys, "check", "contains", *files)[:2] == (
            0, {"contains": True, "witness": "core: \n"})
        assert run_json(capsys, "check", "free", *files)[:2] == (
            1, {"is_free": False, "witness": "core: \n"})
        assert run_json(capsys, "check", "contains", *files, "--require-edge", "0,1,2")[:2] == (
            1, {"contains": False, "witness": None})
        code, payload, _ = run_json(capsys, "check", "saturated", *files, "--k", "3")
        assert code == 1 and not payload["saturated"]
        assert payload["violations_sat"] == [[0, 1, 3], [0, 2, 3], [1, 2, 3]]

    def test_free(self, capsys, tight_cycle_path, k4_path):
        code, payload, _ = run_json(
            capsys, "check", "free",
            "--graph", str(k4_path), "--hgraph", str(tight_cycle_path),
        )
        assert code == 0 and payload["is_free"]

    def test_saturated_exit_zero(self, capsys, s21_path):
        code, payload, _ = run_json(
            capsys, "check", "saturated",
            "--hgraph", str(s21_path), "--clique", "4", "--k", "3", "--jobs", "2",
        )
        assert code == 0
        assert payload["saturated"] and payload["is_free"]
        assert payload["mode"] == "full"
        assert payload["checked_missing"] == 1309

    def test_saturated_failure_exit_one(self, capsys, tmp_path):
        broken = tmp_path / "broken.hg"
        broken.write_text("n 5\n0 1 2\n0 1 4\n0 3 4\n1 2 3\n")
        code, payload, _ = run_json(
            capsys, "check", "saturated",
            "--hgraph", str(broken), "--clique", "4", "--k", "3",
        )
        assert code == 1 and payload["violations_sat"]

    def test_saturated_orbits(self, capsys, s21_path):
        code, payload, _ = run_json(
            capsys, "check", "saturated",
            "--hgraph", str(s21_path), "--clique", "4", "--k", "3", "--orbits",
        )
        assert code == 0
        assert payload["mode"] == "orbits" and not payload["saturated"]
        assert payload["reduction_factor"] > 1

    def test_saturated_sampled(self, capsys, s21_path):
        code, payload, _ = run_json(
            capsys, "check", "saturated",
            "--hgraph", str(s21_path), "--clique", "4", "--k", "3",
            "--sample", "25", "--seed", "3",
        )
        assert code == 0
        assert payload["mode"] == "sampled"
        assert payload["sample_count"] == 25 and payload["sample_seed"] == 3

    def test_negative_sample_exit_two(self, capsys, s21_path):
        code, out, err = run(
            capsys, "check", "saturated",
            "--hgraph", str(s21_path), "--clique", "4", "--k", "3", "--sample", "-1",
        )
        assert code == 2 and not out
        assert err == "error: sample must be at least 0\n"

    def test_jobs_below_one_exit_two(self, capsys, s21_path):
        code, out, err = run(
            capsys, "check", "saturated",
            "--hgraph", str(s21_path), "--clique", "4", "--k", "3", "--jobs", "0",
        )
        assert code == 2 and not out
        assert err == "error: jobs must be at least 1\n"

    def test_sample_past_the_cap_exit_two(self, capsys, tmp_path):
        empty = tmp_path / "empty.hg"
        empty.write_text("n 1000\n")
        code, out, err = run(
            capsys, "check", "saturated",
            "--hgraph", str(empty), "--clique", "4", "--k", "3", "--sample", "1000001",
        )
        assert code == 2 and not out
        assert err == "error: sample 1000001 exceeds the cap of 1000000\n"

    def test_clique_larger_than_the_host_is_answered_at_once(self, capsys, s21_path):
        # no K_1000 fits in 21 vertices, so no missing triple creates one
        start = time.perf_counter()
        code, payload, _ = run_json(
            capsys, "check", "saturated",
            "--hgraph", str(s21_path), "--clique", "1000", "--k", "3",
        )
        assert time.perf_counter() - start < 10
        assert code == 1 and payload["is_free"] and not payload["saturated"]
        missing = [list(t) for t in missing_edges(parse_hypergraph(s21_path.read_text()), 3)]
        assert payload["violations_sat"] == missing
        assert payload["checked_missing"] == len(missing)


class TestVerifyLemma:
    def test_pairs_good(self, capsys, tight_cycle_path):
        code, payload, err = run_json(
            capsys, "verify-lemma", "pairs-good",
            "--hgraph", str(tight_cycle_path), "--ell", "4",
        )
        assert code == 0
        assert payload["good"] == payload["checked"] == 10
        assert "10/10" in err

    def test_cores(self, capsys, tight_cycle_path):
        code, payload, _ = run_json(
            capsys, "verify-lemma", "cores",
            "--hgraph", str(tight_cycle_path), "--ell", "4",
        )
        assert code == 0 and payload["failures"] == []

    def test_failing_lemma_exit_one(self, capsys, tmp_path):
        path = tmp_path / "single.hg"
        path.write_text("0 1 2\n")
        code, payload, _ = run_json(
            capsys, "verify-lemma", "pairs-good", "--hgraph", str(path), "--ell", "4",
        )
        assert code == 1 and payload["good"] == 0

    def test_clique_larger_than_the_host_fails_every_pair(self, capsys, s21_path):
        start = time.perf_counter()
        code, payload, _ = run_json(
            capsys, "verify-lemma", "pairs-good", "--hgraph", str(s21_path), "--ell", "1000",
        )
        assert time.perf_counter() - start < 10
        assert code == 1 and payload["checked"] == 210 and payload["good"] == 0
        assert payload["failures"] == [list(p) for p in itertools.combinations(range(21), 2)]


class TestInvariants:
    def test_five_cycle_json(self, capsys, tmp_path):
        g = tmp_path / "c5.g"
        g.write_text("0 1\n1 2\n2 3\n3 4\n0 4\n")
        code, out, _ = run(capsys, "invariants", "--graph", str(g))
        assert code == 0
        assert json.loads(out) == {
            "alpha": 2, "beta": 3, "delta": 2,
            "girth": 5, "feedback": 1, "feedback_set": [0],
        }

    def test_acyclic_girth_marker(self, capsys, tmp_path):
        g = tmp_path / "p4.g"
        g.write_text("0 1\n1 2\n2 3\n")
        code, payload, _ = run_json(capsys, "invariants", "--graph", str(g))
        assert code == 0 and payload["girth"] == "acyclic"


class TestSearch:
    def test_minsat(self, capsys):
        code, payload, _ = run_json(
            capsys, "search", "minsat",
            "--n", "5", "--k", "3", "--clique", "3", "--max-m", "3",
        )
        assert code == 0 and payload["m_star"] == 2
        witness = parse_hypergraph(payload["witness"])
        assert len(witness.edges) == 2

    def test_minsat_not_found(self, capsys):
        code, payload, _ = run_json(
            capsys, "search", "minsat",
            "--n", "6", "--k", "3", "--clique", "3", "--max-m", "2",
        )
        assert code == 1 and payload["m_star"] is None

    @pytest.mark.parametrize("bound", [["--k", "3", "--max-m", "-1"], ["--k", "0", "--max-m", "3"]],
                             ids=["negative-max-m", "k-zero"])
    def test_minsat_bad_bounds_exit_2(self, capsys, bound):
        code, out, err = run(capsys, "search", "minsat", "--n", "5", "--clique", "3", *bound)
        assert code == 2 and out == "" and "hyperedge" not in err

    def test_minsat_isomorph_reject_is_inert(self, capsys, tmp_path):
        g = tmp_path / "c4.g"
        g.write_text("0 1\n1 2\n2 3\n0 3\n")
        argv = ["search", "minsat", "--n", "5", "--k", "3", "--graph", str(g), "--max-m", "4"]
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--isomorph-reject") == plain

    def test_greedy(self, capsys, tmp_path, k4_path, tight_cycle_path):
        out = tmp_path / "done.hg"
        code, payload, _ = run_json(
            capsys, "search", "greedy",
            "--hgraph", str(tight_cycle_path), "--graph", str(k4_path),
            "--k", "3", "-o", str(out),
        )
        assert code == 0
        assert payload["edges_after"] == payload["edges_before"] + payload["edges_added"]
        assert out.exists()


class TestContract:
    def test_byte_identical_stdout(self, capsys, s21_path):
        argv = ["check", "saturated", "--hgraph", str(s21_path),
                "--clique", "4", "--k", "3"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_jobs_do_not_change_stdout(self, capsys, s21_path):
        base = ["check", "saturated", "--hgraph", str(s21_path),
                "--clique", "4", "--k", "3"]
        _, one, _ = run(capsys, *base, "--jobs", "1")
        _, eight, _ = run(capsys, *base, "--jobs", "8")
        assert one == eight

    def test_unknown_flag_exit_two(self, capsys):
        code, _, _ = run(capsys, "invariants", "--nope", "x")
        assert code == 2

    def test_malformed_file_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.g"
        bad.write_text("0 0\n")
        code, _, err = run(capsys, "invariants", "--graph", str(bad))
        assert code == 2 and "line 1" in err

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, "invariants", "--graph", str(tmp_path / "nope.g"))
        assert code == 2

    @pytest.fixture
    def long_path(self, tmp_path):
        """A 1,500-vertex path as a pattern and as a host of 2-edges: a search
        for it recurses past Python's stack limit."""
        n = 1500
        path_edges = "".join(f"{i} {i + 1}\n" for i in range(n - 1))
        g = tmp_path / "path.g"
        g.write_text(path_edges)
        hg = tmp_path / "path.hg"
        hg.write_text(f"n {n}\n" + path_edges)
        return str(g), str(hg)

    def test_too_deep_search_exit_two(self, capsys, long_path):
        g, hg = long_path
        code, out, err = run(capsys, "check", "contains", "--graph", g, "--hgraph", hg)
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_too_deep_greedy_exit_two(self, capsys, tmp_path, long_path):
        g, hg = long_path
        done = tmp_path / "done.hg"
        code, out, err = run(capsys, "search", "greedy", "--hgraph", hg, "--graph", g,
                             "--k", "2", "-o", str(done))
        assert code == 2 and out == "" and err.startswith("error: ") and "recursion" in err
        assert not done.exists()

    def test_greedy_on_fewer_vertices_than_k_exit_two(self, capsys, tmp_path, k4_path):
        hg = tmp_path / "two.hg"
        hg.write_text("n 2\n")
        done = tmp_path / "done.hg"
        code, out, err = run(capsys, "search", "greedy", "--hgraph", str(hg),
                             "--graph", str(k4_path), "--k", "3", "-o", str(done))
        assert (code, out, err) == (2, "", "error: hypergraph has 2 < k=3 vertices\n")
        assert not done.exists()

    def test_uncertified_greedy_exit_two(self, capsys, monkeypatch, tmp_path, k4_path,
                                         tight_cycle_path):
        # the certificate's orbit walk reports a violation
        monkeypatch.setattr(saturation._Scan, "first", lambda scan: iter([(0, 1, 2)]))
        code, out, err = run(capsys, "search", "greedy",
                             "--hgraph", str(tight_cycle_path), "--graph", str(k4_path),
                             "--k", "3", "-o", str(tmp_path / "done.hg"))
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_internal_runtime_error_not_hidden(self, capsys, monkeypatch):
        def broken(path):
            raise RuntimeError("internal fault")

        monkeypatch.setattr(cli, "_read_graph", broken)
        with pytest.raises(RuntimeError, match="internal fault"):
            cli.main(["invariants", "--graph", "unread.g"])

    def test_interrupt_exit_two(self, capsys, monkeypatch):
        def interrupted(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_read_graph", interrupted)
        code, out, err = run(capsys, "invariants", "--graph", "unread.g")
        assert code == 2 and out == "" and err == "error: interrupted\n"


def _command_paths(parser, prefix=()):
    yield " ".join(prefix)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _command_paths(child, prefix + (name,))


class TestHelp:
    def test_every_command_has_a_golden_text(self):
        assert sorted(_command_paths(cli._build_parser())) == sorted(GOLDEN_HELP["help"])

    @pytest.mark.skipif(
        "%d.%d" % sys.version_info[:2] != GOLDEN_HELP["python"],
        reason="argparse formats help differently across Python minor versions",
    )
    @pytest.mark.parametrize("command", sorted(GOLDEN_HELP["help"]))
    def test_help_text_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", str(GOLDEN_HELP["columns"]))
        code, out, _ = run(capsys, *command.split(), "--help")
        assert code == 0 and out == GOLDEN_HELP["help"][command]

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()
