"""Tests for the command-line interface."""

import io
import sys

import pytest

from repro.cli import build_parser, main
from repro.constraints.parser import dumps_constraints


@pytest.fixture
def constraint_file(tmp_path, simple_system):
    path = tmp_path / "system.constraints"
    path.write_text(dumps_constraints(simple_system))
    return str(path)


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(
        """
        int g;
        int *gp = &g;
        int *identity(int *p) { return p; }
        int *(*fp)(int *) = &identity;
        int main() {
            int *q = fp(gp);
            return 0;
        }
        """
    )
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_basic(self, constraint_file, capsys):
        code, out, err = run_cli(["solve", constraint_file], capsys)
        assert code == 0
        assert "p -> {x}" in out
        assert "lcd+hcd" in err

    def test_algorithm_choice(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["solve", constraint_file, "--algorithm", "ht"], capsys
        )
        assert code == 0
        assert "p -> {x}" in out

    def test_with_ovs(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["solve", constraint_file, "--opt", "ovs"], capsys
        )
        assert code == 0
        assert "p -> {x}" in out

    def test_stats_flag(self, constraint_file, capsys):
        code, out, _ = run_cli(["solve", constraint_file, "--stats"], capsys)
        assert "propagations" in out

    def test_all_flag_shows_empty(self, constraint_file, capsys):
        _, without_all, _ = run_cli(["solve", constraint_file], capsys)
        _, with_all, _ = run_cli(["solve", constraint_file, "--all"], capsys)
        assert len(with_all.splitlines()) >= len(without_all.splitlines())

    def test_bdd_representation(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["solve", constraint_file, "--pts", "bdd"], capsys
        )
        assert code == 0
        assert "p -> {x}" in out

    def test_shared_representation(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["solve", constraint_file, "--pts", "shared"], capsys
        )
        assert code == 0
        assert "p -> {x}" in out

    def test_shared_matches_bitmap_output(self, constraint_file, capsys):
        _, bitmap_out, _ = run_cli(["solve", constraint_file], capsys)
        _, shared_out, _ = run_cli(
            ["solve", constraint_file, "--pts", "shared"], capsys
        )
        assert shared_out == bitmap_out

    def test_shared_stats_counters(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["solve", constraint_file, "--pts", "shared", "--stats"], capsys
        )
        assert code == 0
        assert "intern_live_nodes" in out

    def test_opt_stages_identical_output(self, constraint_file, capsys):
        _, none_out, _ = run_cli(
            ["solve", constraint_file, "--opt", "none"], capsys
        )
        for stage in ("ovs", "hvn", "hu"):
            code, out, _ = run_cli(
                ["solve", constraint_file, "--opt", stage], capsys
            )
            assert code == 0
            assert out == none_out, stage

    def test_opt_stats_summary(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["solve", constraint_file, "--opt", "hu", "--stats"], capsys
        )
        assert code == 0
        assert "opt_stage: hu" in out
        assert "opt_vars_merged" in out
        assert "[hu:" in out  # the human-readable offline summary line


class TestAnalyze:
    def test_query(self, c_file, capsys):
        code, out, _ = run_cli(
            ["analyze", c_file, "--query", "main::q"], capsys
        )
        assert code == 0
        assert "main::q -> {g}" in out

    def test_unknown_query(self, c_file, capsys):
        code, out, err = run_cli(
            ["analyze", c_file, "--query", "nope"], capsys
        )
        assert code == 0
        assert "unknown variable" in err

    def test_callgraph(self, c_file, capsys):
        code, out, _ = run_cli(["analyze", c_file, "--callgraph"], capsys)
        assert "indirect call sites" in out
        assert "identity" in out

    def test_default_lists_pointers(self, c_file, capsys):
        code, out, _ = run_cli(["analyze", c_file], capsys)
        assert "gp -> {g}" in out


class TestGenerate:
    def test_to_stdout(self, capsys):
        code, out, _ = run_cli(
            ["generate", "emacs", "--scale", "512"], capsys
        )
        assert code == 0
        assert "base" in out or "copy" in out

    def test_to_file_roundtrips(self, tmp_path, capsys):
        target = tmp_path / "w.constraints"
        code, _, err = run_cli(
            ["generate", "linux", "--scale", "512", "-o", str(target)], capsys
        )
        assert code == 0
        from repro.constraints.parser import read_constraints

        with open(target) as handle:
            system = read_constraints(handle)
        assert len(system) > 0

    def test_rejects_unknown_benchmark(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "doom"])


class TestCompareAndStats:
    def test_compare(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["compare", constraint_file, "--algorithms", "naive,lcd"], capsys
        )
        assert code == 0
        assert "naive" in out and "lcd" in out
        assert "propagations" in out

    def test_stats(self, constraint_file, capsys):
        code, out, _ = run_cli(["stats", constraint_file], capsys)
        assert code == 0
        assert "variables:" in out
        assert "OVS:" in out
        assert "HVN:" in out
        assert "HU:" in out

    def test_verify_accepts_optimized_run(self, constraint_file, capsys):
        code, out, _ = run_cli(
            ["verify", constraint_file, "--algorithms", "lcd+hcd",
             "--pts", "int", "--opt", "hu", "--sanitize"],
            capsys,
        )
        assert code == 0
        assert "ACCEPT" in out
        assert "REJECT" not in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_lists_solvers(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        out = capsys.readouterr().out
        assert "lcd+hcd" in out


class TestJsonAndDot:
    def test_solve_json(self, constraint_file, capsys):
        import json

        code, out, _ = run_cli(["solve", constraint_file, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["points_to"]["p"] == ["x"]

    def test_dot_output(self, constraint_file, capsys):
        code, out, _ = run_cli(["dot", constraint_file], capsys)
        assert code == 0
        assert out.startswith("digraph constraints {")
        assert '"p"' in out and "->" in out

    def test_dot_with_solution_labels(self, constraint_file, capsys):
        code, out, _ = run_cli(["dot", constraint_file, "--solve"], capsys)
        assert code == 0
        assert "{x" in out  # points-to annotation present


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(["solve", "/nonexistent/file.constraints"], capsys)
        assert code == 1
        assert "error:" in err

    def test_malformed_constraint_file(self, tmp_path, capsys):
        path = tmp_path / "bad.constraints"
        path.write_text("var a\nbogus directive\n")
        code, _, err = run_cli(["solve", str(path)], capsys)
        assert code == 1
        assert "line 2" in err

    def test_unknown_algorithm(self, constraint_file, capsys):
        code, _, err = run_cli(
            ["solve", constraint_file, "--algorithm", "magic"], capsys
        )
        assert code == 1
        assert "unknown algorithm" in err

    def test_syntax_error_in_c_source(self, tmp_path, capsys):
        path = tmp_path / "broken.c"
        path.write_text("int main( {")
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == 1
        assert "error:" in err

    def test_analyze_field_mode_flag(self, tmp_path, capsys):
        path = tmp_path / "s.c"
        path.write_text(
            "struct s { int *f; int *g; };\n"
            "int main() { int x; struct s v; v.f = &x; int *r = v.g; return 0; }\n"
        )
        code, out_insens, _ = run_cli(
            ["analyze", str(path), "--query", "main::r"], capsys
        )
        assert code == 0 and "main::x" in out_insens
        code, out_sens, _ = run_cli(
            ["analyze", str(path), "--query", "main::r", "--field-mode", "sensitive"],
            capsys,
        )
        assert code == 0 and "main::r -> {}" in out_sens
