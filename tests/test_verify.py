"""The verification layer: certifier, sanitizer, and solution validation.

The certifier must accept every registered solver's output (zero false
rejections — the solvers provably agree, so a rejection here would be a
certifier bug) and reject corrupted solutions in the right direction:
missing facts are soundness violations, invented facts are spurious with
a missing-derivation witness.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_system
from repro.analysis.solution import PointsToSolution
from repro.points_to.interface import FAMILY_KINDS
from repro.solvers.registry import available_solvers, make_solver, solve
from repro.verify import certify
from repro.workloads import generate_workload

ALGORITHMS = available_solvers()


def _drop_fact(solution, system):
    """Copy of ``solution`` with one fact removed (unsound candidate)."""
    mapping = {
        var: set(solution.points_to(var)) for var in range(system.num_vars)
    }
    for var in sorted(mapping):
        if mapping[var]:
            mapping[var].pop()
            return PointsToSolution(mapping, system.num_vars, system.names)
    return None


def _add_fact(solution, system):
    """Copy of ``solution`` with one invented fact (imprecise candidate)."""
    mapping = {
        var: set(solution.points_to(var)) for var in range(system.num_vars)
    }
    universe = set(range(system.num_vars))
    for var in range(system.num_vars):
        missing = universe - mapping.get(var, set())
        if missing:
            mapping.setdefault(var, set()).add(min(missing))
            return PointsToSolution(mapping, system.num_vars, system.names)
    return None


class TestCertifierAccepts:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_solver_on_fixtures(self, simple_system, cycle_system, algorithm):
        for system in (simple_system, cycle_system):
            report = certify(system, solve(system, algorithm))
            assert report.ok, report.summary(system)
            assert report.claimed_facts == report.derived_facts

    @pytest.mark.parametrize("pts", list(FAMILY_KINDS))
    def test_every_family(self, simple_system, pts):
        report = certify(simple_system, solve(simple_system, "lcd+hcd", pts=pts))
        assert report.ok, report.summary(simple_system)

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_workloads(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        for algorithm in ("naive", "ht", "pkh", "lcd+hcd", "wave"):
            report = certify(system, solve(system, algorithm))
            assert report.ok, (algorithm, report.summary(system))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_systems_zero_false_rejections(self, seed):
        system = random_system(seed)
        report = certify(system, solve(system, "lcd+hcd"))
        assert report.ok, report.summary(system)


class TestCertifierRejects:
    def test_missing_fact_is_unsound(self, simple_system):
        solution = solve(simple_system, "naive")
        broken = _drop_fact(solution, simple_system)
        assert broken is not None
        report = certify(simple_system, broken)
        assert not report.sound
        assert report.violations

    def test_extra_fact_is_spurious_with_witness(self, simple_system):
        solution = solve(simple_system, "naive")
        broken = _add_fact(solution, simple_system)
        assert broken is not None
        report = certify(simple_system, broken)
        assert not report.precise
        assert report.spurious
        fact = report.spurious[0]
        # The witness starts at the reported fact and every chain entry
        # really is claimed by the broken solution.
        assert fact.witness[0] == (fact.var, fact.loc)
        for var, loc in fact.witness:
            assert loc in broken.points_to(var)
        assert fact.terminal in ("unsupported", "circular")

    def test_steensgaard_imprecision_detected(self):
        system = generate_workload("emacs", scale=1 / 512, seed=2)
        report = certify(system, solve(system, "steensgaard"))
        # Steensgaard over-approximates but never under-approximates.
        assert report.sound
        assert not report.precise

    @given(st.integers(0, 5_000))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_corruptions_always_caught(self, seed):
        system = random_system(seed)
        solution = solve(system, "naive")
        dropped = _drop_fact(solution, system)
        if dropped is not None:
            assert not certify(system, dropped).sound
        added = _add_fact(solution, system)
        if added is not None:
            report = certify(system, added)
            assert not report.ok

    def test_num_vars_mismatch_raises(self, simple_system):
        foreign = PointsToSolution({}, simple_system.num_vars + 1)
        with pytest.raises(ValueError):
            certify(simple_system, foreign)


class TestSolutionValidation:
    """Satellite: PointsToSolution rejects out-of-range pointees."""

    def test_negative_pointee_rejected(self):
        with pytest.raises(ValueError, match="pointee"):
            PointsToSolution({0: [-1]}, 3)

    def test_pointee_beyond_num_locs_rejected(self):
        with pytest.raises(ValueError, match="pointee"):
            PointsToSolution({0: [5]}, 3)
        with pytest.raises(ValueError, match="pointee"):
            PointsToSolution({0: [2]}, 3, num_locs=2)

    def test_num_locs_defaults_to_num_vars(self):
        solution = PointsToSolution({0: [2]}, 3)
        assert solution.num_locs == 3
        assert solution.points_to(0) == frozenset([2])

    def test_expand_preserves_num_locs(self):
        solution = PointsToSolution({0: [1]}, 2, num_locs=2)
        assert solution.expand([0, 0]).num_locs == 2

    def test_out_of_range_variable_still_rejected(self):
        with pytest.raises(ValueError, match="variable"):
            PointsToSolution({7: [0]}, 3)


class TestSanitizerCleanRuns:
    """--sanitize must never fire on the (correct) shipped solvers."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fixtures_clean(self, simple_system, cycle_system, algorithm):
        for system in (simple_system, cycle_system):
            solver = make_solver(system, algorithm, sanitize=True)
            assert solver.solve() == solve(system, "naive")
            assert solver.stats.verify is not None
            assert solver.stats.verify.final_checks == 1

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_workloads_clean(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        reference = solve(system, "naive")
        for algorithm in ("lcd", "lcd+hcd", "hcd", "wave"):
            solver = make_solver(system, algorithm, sanitize=True)
            assert solver.solve() == reference, algorithm

    def test_verify_counters_in_stats_dict(self, simple_system):
        solver = make_solver(simple_system, "lcd+hcd", sanitize=True)
        solver.solve()
        data = solver.stats.as_dict()
        assert "verify_invariant_checks" in data
        assert data["verify_invariant_checks"] > 0
        assert data["verify_collapse_checks"] == solver.stats.verify.collapse_checks

    def test_sanitize_off_keeps_stats_clean(self, simple_system):
        solver = make_solver(simple_system, "lcd+hcd")
        solver.solve()
        assert solver.stats.verify is None
        assert "verify_invariant_checks" not in solver.stats.as_dict()

    @given(st.integers(0, 5_000))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_systems_clean_under_sanitize(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive")
        for algorithm in ("lcd", "lcd+hcd", "pkh", "wave"):
            assert solve(system, algorithm, sanitize=True) == reference
