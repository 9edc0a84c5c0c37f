"""The solution-sharing contract: one set object per distinct set.

Solvers hand every variable of a class the same native set; export,
HU re-expansion and k-CFA projection keep that sharing, and every
renderer does its per-set work once per distinct object.  These tests
pin the contract down: validation still covers every distinct set,
no stage mints more set objects than the solver converged to, and the
memoized renderers print exactly what a plain per-variable renderer
prints.
"""

import json

import pytest

from repro.analysis.export import PointeeNames, solution_text_lines, solution_to_json
from repro.analysis.solution import PointsToSolution
from repro.cli import main
from repro.constraints.parser import dumps_constraints, loads_constraints
from repro.solvers.registry import make_solver
from repro.workloads import generate_workload


def _distinct(solution):
    return len({id(pts) for _, pts in solution.items()})


def _native_sets(solver):
    graph = solver.graph
    return len(
        {
            id(graph.pts_of(var))
            for var in range(solver.system.num_vars)
            if len(graph.pts_of(var))
        }
    )


class TestValidation:
    @pytest.mark.parametrize("bad, culprit", [([3, 40], 40), ([-1, 3], -1)])
    @pytest.mark.parametrize("holders", [(0,), (19,), (0, 7, 19), tuple(range(20))])
    def test_shared_bad_set_is_rejected(self, bad, culprit, holders):
        """The range check runs once per distinct set object, so it must
        fire wherever the shared bad set sits in the iteration order."""
        good = [1, 2]
        mapping = {var: good for var in range(20)}
        for var in holders:
            mapping[var] = bad
        with pytest.raises(ValueError, match=f"pointee id {culprit} in pts"):
            PointsToSolution(mapping, num_vars=20, num_locs=20)

    def test_variable_range_checked_for_shared_sets(self):
        shared = [1]
        with pytest.raises(ValueError, match="variable id 5"):
            PointsToSolution({0: shared, 5: shared}, num_vars=5)

    def test_shared_input_becomes_one_frozenset(self):
        shared = [2, 1]
        solution = PointsToSolution({0: shared, 1: shared, 2: [1, 2]}, num_vars=3)
        assert solution.points_to(0) is solution.points_to(1)
        assert solution.points_to(0) == solution.points_to(2) == {1, 2}

    def test_shared_empty_input_is_dropped(self):
        empty = []
        solution = PointsToSolution({0: empty, 1: empty, 2: [0]}, num_vars=3)
        assert solution.non_empty_count() == 1
        assert dict(solution.items()) == {2: frozenset({0})}

    def test_expand_shares_per_distinct_set(self):
        shared = [0, 1]
        solution = PointsToSolution({0: shared, 1: shared}, num_vars=4)
        expanded = solution.expand([0, 1, 0, 1], loc_members={1: [1, 3]})
        assert expanded.points_to(0) == {0, 1, 3}
        assert _distinct(expanded) == 1


@pytest.fixture(scope="module")
def workloads():
    return {
        name: generate_workload(name, scale=1 / 512, seed=1)
        for name in ("wine", "linux")
    }


class TestPipelineSharing:
    @pytest.mark.parametrize("pts", ["bitmap", "shared", "bdd", "int"])
    @pytest.mark.parametrize("k_cs", [0, 1])
    def test_no_stage_mints_sets(self, workloads, pts, k_cs):
        """export -> HU expand -> projection never holds more distinct set
        objects than the solver's distinct native sets."""
        for name, system in workloads.items():
            solver = make_solver(system, "lcd+hcd", pts=pts, opt="hu", k_cs=k_cs)
            solution = solver.solve()
            native = _native_sets(solver)
            assert _distinct(solver.context_solution()) <= native, name
            assert _distinct(solution) <= native, name


def _reference_text(system, solution):
    lines = []
    for var in range(system.num_vars):
        pointees = solution.points_to(var)
        if pointees:
            names = ", ".join(sorted(system.name_of(p) for p in pointees))
            lines.append(f"{system.name_of(var)} -> {{{names}}}")
    return lines


def _reference_json(system, solution):
    points_to = {
        system.name_of(var): sorted(system.name_of(p) for p in solution.points_to(var))
        for var in range(system.num_vars)
        if solution.points_to(var)
    }
    return json.dumps(
        {"num_vars": system.num_vars, "points_to": points_to},
        indent=2,
        sort_keys=True,
    )


class TestRenderers:
    @pytest.mark.parametrize("pts", ["bitmap", "int"])
    def test_cli_output_matches_reference(self, workloads, pts, tmp_path, capsys):
        for name, generated in workloads.items():
            path = tmp_path / f"{name}.cons"
            path.write_text(dumps_constraints(generated))
            system = loads_constraints(path.read_text())
            solver = make_solver(system, "lcd+hcd", pts=pts, opt="hu")
            solution = solver.solve()
            # HU location merging is what re-expansion has to undo.
            assert solver.stats.opt.locations_merged > 0, name

            assert main(["solve", str(path), "--pts", pts]) == 0
            out = capsys.readouterr().out
            assert out == "".join(
                line + "\n" for line in _reference_text(system, solution)
            ), name
            assert main(["solve", str(path), "--pts", pts, "--json"]) == 0
            out = capsys.readouterr().out
            assert out == _reference_json(system, solution) + "\n", name

    @pytest.mark.parametrize("indent", [None, 0, 2, 4])
    @pytest.mark.parametrize("include_empty", [False, True])
    def test_json_matches_json_dumps(self, workloads, indent, include_empty):
        system = workloads["wine"]
        solution = make_solver(system, "lcd+hcd", opt="hu").solve()
        points_to = {
            system.name_of(var): sorted(
                system.name_of(p) for p in solution.points_to(var)
            )
            for var in range(system.num_vars)
            if include_empty or solution.points_to(var)
        }
        expected = json.dumps(
            {"num_vars": system.num_vars, "points_to": points_to},
            indent=indent,
            sort_keys=True,
        )
        assert solution_to_json(
            system, solution, include_empty=include_empty, indent=indent
        ) == expected

    def test_text_lines_include_empty(self, workloads):
        system = workloads["linux"]
        solution = make_solver(system, "lcd+hcd").solve()
        lines = list(solution_text_lines(system, solution, include_empty=True))
        assert len(lines) == system.num_vars
        assert sum(not line.endswith("{}") for line in lines) == solution.non_empty_count()

    def test_pointee_names_memoized_by_identity(self):
        calls = []

        def name_of(loc):
            calls.append(loc)
            return f"n{loc}"

        names = PointeeNames(name_of)
        shared = frozenset({2, 1})
        assert names.names(shared) == ["n1", "n2"]
        assert names.text(shared) == "{n1, n2}"
        assert names.names(shared) is names.names(shared)
        assert len(calls) == 2
        assert names.text(frozenset({1, 2})) == "{n1, n2}"
