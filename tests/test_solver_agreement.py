"""Integration: every algorithm and representation computes one solution.

This is the repository's core correctness property (and the paper's
"without impacting precision" claim): the naive Figure-1 baseline is the
semantic reference; HT, PKH, BLQ, LCD, HCD and every +HCD combination,
over both points-to representations, must agree with it exactly — as must
solving after OVS preprocessing, modulo expansion.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_system
from repro.contexts import K_LEVELS
from repro.points_to.interface import FAMILY_KINDS
from repro.preprocess.hvn import OPT_STAGES
from repro.preprocess.ovs import offline_variable_substitution
from repro.solvers.registry import available_solvers, solve
from repro.workloads import generate_workload
from strategies import constraint_systems, k_levels, opt_stages, pts_families

ALGORITHMS = available_solvers()
GRAPH_ALGORITHMS = [a for a in ALGORITHMS if not a.startswith("blq")]


class TestFixedSystems:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_simple_system(self, simple_system, algorithm):
        assert solve(simple_system, algorithm) == solve(simple_system, "naive")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cycle_system(self, cycle_system, algorithm):
        assert solve(cycle_system, algorithm) == solve(cycle_system, "naive")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("pts", list(FAMILY_KINDS))
    def test_all_representations(self, simple_system, algorithm, pts):
        assert solve(simple_system, algorithm, pts=pts) == solve(simple_system, "naive")

    def test_scc_heavy_system(self):
        """Nested copy cycles through loads/stores: the collapse-heavy
        case for the wave solver's sweep-then-propagate rounds."""
        from repro.constraints.builder import ConstraintBuilder

        b = ConstraintBuilder()
        vs = [b.var(f"v{i}") for i in range(30)]
        objs = [b.var(f"o{i}") for i in range(6)]
        for i, obj in enumerate(objs):
            b.address_of(vs[i * 5], obj)
        for ring in range(5):  # five 6-variable copy rings
            members = vs[ring * 6 : ring * 6 + 6]
            for src, dst in zip(members, members[1:] + members[:1]):
                b.assign(dst, src)
        for i in range(0, 28, 4):  # cross-ring indirection
            b.store(vs[i], vs[i + 2])
            b.load(vs[i + 1], vs[i])
        system = b.build()
        reference = solve(system, "naive")
        for algorithm in ("wave", "wave+hcd"):
            for pts in FAMILY_KINDS:
                assert solve(system, algorithm, pts=pts) == reference, (
                    algorithm, pts,
                )


class TestRandomizedDifferential:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_graph_algorithms_agree(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive")
        for algorithm in GRAPH_ALGORITHMS:
            result = solve(system, algorithm)
            assert result == reference, (algorithm, result.diff(reference))

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_blq_agrees(self, seed):
        system = random_system(seed, max_vars=15, max_constraints=35)
        reference = solve(system, "naive")
        for algorithm in ("blq", "blq+hcd"):
            result = solve(system, algorithm)
            assert result == reference, (algorithm, result.diff(reference))

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bdd_representation_agrees(self, seed):
        system = random_system(seed, max_vars=15, max_constraints=35)
        reference = solve(system, "naive")
        for algorithm in ("lcd", "lcd+hcd", "ht", "pkh"):
            result = solve(system, algorithm, pts="bdd")
            assert result == reference, (algorithm, result.diff(reference))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ovs_preserves_every_algorithm(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive")
        ovs = offline_variable_substitution(system)
        for algorithm in ("naive", "lcd+hcd", "ht+hcd", "pkh+hcd"):
            result = ovs.expand(solve(ovs.reduced, algorithm))
            assert result == reference, (algorithm, result.diff(reference))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_worklist_strategies_agree(self, seed):
        from repro.solvers.registry import make_solver

        system = random_system(seed)
        reference = solve(system, "naive")
        for strategy in ("fifo", "lifo", "lrf", "divided-lrf", "divided-fifo"):
            solver = make_solver(system, "lcd", worklist=strategy)
            assert solver.solve() == reference, strategy


class TestSharedFamily:
    """The hash-consed family must be *bit-identical* to bitmaps: same
    solver, same input, same solution, for every registered algorithm."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_solver_on_fixtures(self, simple_system, cycle_system, algorithm):
        for system in (simple_system, cycle_system):
            assert solve(system, algorithm, pts="shared") == solve(
                system, algorithm, pts="bitmap"
            ), algorithm

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_workloads_bit_identical(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        reference = solve(system, "naive", pts="bitmap")
        for algorithm in ("lcd", "hcd", "lcd+hcd", "wave"):
            assert solve(system, algorithm, pts="shared") == reference, algorithm

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_systems_agree(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive")
        for algorithm in ("lcd", "lcd+hcd", "ht", "pkh", "hcd", "wave"):
            result = solve(system, algorithm, pts="shared")
            assert result == reference, (algorithm, result.diff(reference))

    @given(system=constraint_systems(), pts=pts_families)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_systems_across_families(self, system, pts):
        """Hypothesis-shrinkable differential over all three families."""
        assert solve(system, "lcd+hcd", pts=pts) == solve(system, "naive")

    def test_shared_stats_populated(self):
        from repro.solvers.registry import make_solver

        system = generate_workload("emacs", scale=1 / 512, seed=2)
        solver = make_solver(system, "lcd+hcd", pts="shared")
        solver.solve()
        stats = solver.stats
        assert stats.intern is not None
        assert stats.intern.live_nodes >= 1  # at least the pinned empty set
        assert stats.intern.peak_nodes >= stats.intern.live_nodes
        assert "intern_union_memo_hits" in stats.as_dict()
        # Sharing: far fewer canonical values than set handles.
        assert stats.intern.live_nodes < solver.family.sets_made


class TestIntFamily:
    """The bignum family runs the fused word-parallel kernel, which takes
    different code paths through every solver — so its bar is the same as
    ``shared``'s: *bit-identical* to bitmaps for every algorithm."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_solver_on_fixtures(self, simple_system, cycle_system, algorithm):
        for system in (simple_system, cycle_system):
            assert solve(system, algorithm, pts="int") == solve(
                system, algorithm, pts="bitmap"
            ), algorithm

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_workloads_bit_identical(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        reference = solve(system, "naive", pts="bitmap")
        for algorithm in ("lcd", "hcd", "lcd+hcd", "pkh", "pkh03", "wave"):
            assert solve(system, algorithm, pts="int") == reference, algorithm

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_systems_agree(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive")
        for algorithm in ("lcd", "lcd+hcd", "ht", "pkh", "hcd", "wave"):
            result = solve(system, algorithm, pts="int")
            assert result == reference, (algorithm, result.diff(reference))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_difference_propagation_agrees(self, seed):
        """Difference mode computes prev-set deltas per family: one
        bignum diff (``int``), a block-level bitmap diff (``bitmap``) or
        the element path (``shared``); exercise each across its
        consumers."""
        from repro.solvers.registry import _BASE_SOLVERS

        system = random_system(seed)
        reference = solve(system, "naive")
        for pts in ("bitmap", "shared", "int"):
            for algorithm in ("naive", "pkh", "hcd"):
                solver = _BASE_SOLVERS[algorithm](
                    system, pts=pts, difference_propagation=True
                )
                assert solver.solve() == reference, (algorithm, pts)

    def test_int_stats_populated(self):
        from repro.solvers.registry import make_solver

        system = generate_workload("emacs", scale=1 / 512, seed=2)
        solver = make_solver(system, "lcd+hcd", pts="int")
        solver.solve()
        stats = solver.stats
        assert stats.intern is not None
        assert stats.intern.live_nodes >= 1  # at least the pinned empty set
        assert stats.intern.peak_nodes >= stats.intern.live_nodes
        assert "intern_union_memo_hits" in stats.as_dict()
        assert stats.pts_memory_bytes > 0
        # Sharing: far fewer canonical values than set handles.
        assert stats.intern.live_nodes < solver.family.sets_made

    def test_sanitized_run_accepts(self):
        from repro.solvers.registry import make_solver

        system = generate_workload("wine", scale=1 / 512, seed=2)
        reference = solve(system, "naive", pts="bitmap")
        solver = make_solver(system, "lcd+hcd", pts="int", sanitize=True)
        assert solver.solve() == reference
        assert solver.stats.verify is not None
        assert solver.stats.verify.intern_checks >= 1


class TestMetamorphic:
    @given(st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_adding_redundant_constraint_never_shrinks(self, seed):
        """Monotonicity: adding a constraint can only grow the solution."""
        from repro.constraints.model import Constraint, ConstraintKind

        system = random_system(seed)
        if system.num_vars < 2:
            return
        before = solve(system, "lcd+hcd")
        extra = Constraint(ConstraintKind.COPY, 0, system.num_vars - 1)
        grown = system.with_constraints(list(system.constraints) + [extra])
        after = solve(grown, "lcd+hcd")
        for var in range(system.num_vars):
            assert before.points_to(var) <= after.points_to(var)

    @given(st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_duplicate_constraints_are_noops(self, seed):
        system = random_system(seed)
        doubled = system.with_constraints(
            list(system.constraints) + list(system.constraints)
        )
        assert solve(doubled, "lcd+hcd") == solve(system, "lcd+hcd")

    @given(st.integers(0, 5_000))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_constraint_order_irrelevant(self, seed):
        import random as random_module

        system = random_system(seed)
        shuffled_constraints = list(system.constraints)
        random_module.Random(seed).shuffle(shuffled_constraints)
        shuffled = system.with_constraints(shuffled_constraints)
        assert solve(shuffled, "lcd+hcd") == solve(system, "lcd+hcd")


class TestParallelWave:
    """The parallel wave solver is gone; its one real advantage, the
    block-level bitmap difference, now lives in the shared propagate
    step that ``wave`` runs. Its workload checks stay, held to ``wave``."""

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_workloads_bit_identical(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        reference = solve(system, "naive")
        for algorithm in ("wave", "wave+hcd"):
            for pts in FAMILY_KINDS:
                assert solve(system, algorithm, pts=pts, opt="none") == reference, (
                    algorithm, pts,
                )


class TestWorkloadAgreement:
    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_profiles_agree_at_small_scale(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        reference = solve(system, "naive")
        for algorithm in ("ht", "pkh", "lcd", "hcd", "lcd+hcd"):
            assert solve(system, algorithm) == reference, algorithm

    def test_blq_on_workload(self):
        system = generate_workload("emacs", scale=1 / 512, seed=2)
        assert solve(system, "blq") == solve(system, "naive")

class TestOptStages:
    """The offline pipeline (--opt) must be invisible in the results:
    every stage, under every algorithm and family, yields the exact
    solution of the unoptimized system after expansion."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("stage", OPT_STAGES)
    def test_every_solver_every_stage(
        self, simple_system, cycle_system, algorithm, stage
    ):
        for system in (simple_system, cycle_system):
            assert solve(system, algorithm, opt=stage) == solve(
                system, "naive"
            ), (algorithm, stage)

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_workloads_bit_identical(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        reference = solve(system, "naive", opt="none")
        for stage in ("ovs", "hvn", "hu"):
            for algorithm in ("lcd", "hcd", "lcd+hcd", "ht", "pkh", "wave"):
                assert (
                    solve(system, algorithm, opt=stage) == reference
                ), (name, algorithm, stage)

    @pytest.mark.parametrize("pts", list(FAMILY_KINDS))
    def test_all_families_under_hu(self, simple_system, pts):
        assert solve(simple_system, "lcd+hcd", pts=pts, opt="hu") == solve(
            simple_system, "naive"
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_systems_agree(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive")
        for stage in ("hvn", "hu"):
            for algorithm in ("naive", "lcd+hcd", "ht+hcd", "pkh+hcd", "wave"):
                result = solve(system, algorithm, opt=stage)
                assert result == reference, (
                    algorithm, stage, result.diff(reference),
                )

    @given(system=constraint_systems(), stage=opt_stages, pts=pts_families)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_systems_stage_family_grid(self, system, stage, pts):
        """Hypothesis-shrinkable differential over stages x families."""
        assert solve(system, "lcd+hcd", pts=pts, opt=stage) == solve(
            system, "naive"
        )

    def test_opt_stats_populated(self):
        from repro.solvers.registry import make_solver

        system = generate_workload("emacs", scale=1 / 512, seed=2)
        solver = make_solver(system, "lcd+hcd", opt="hu")
        solver.solve()
        stats = solver.stats
        assert stats.opt is not None
        assert stats.opt.stage == "hu"
        assert stats.opt.vars_merged > 0
        assert stats.opt.constraints_deleted > 0
        assert stats.opt.passes >= 1
        data = stats.as_dict()
        assert data["opt_stage"] == "hu"
        assert data["opt_vars_merged"] == stats.opt.vars_merged
        # Unoptimized runs carry no opt_* keys at all.
        plain = make_solver(system, "lcd+hcd")
        plain.solve()
        assert "opt_stage" not in plain.stats.as_dict()


class TestContextSensitivity:
    """k-CFA (--k-cs) composes with everything: at any fixed k, every
    algorithm, points-to family and offline stage solves the *same*
    context-expanded system, so all must stay bit-identical — and the
    projected k-sensitive solution must be pointwise contained in the
    insensitive one (the paper's precision order)."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("k", K_LEVELS)
    def test_every_solver_every_k(self, call_system, algorithm, k):
        reference = solve(call_system, "naive", k_cs=k)
        assert solve(call_system, algorithm, k_cs=k) == reference, (algorithm, k)

    @pytest.mark.parametrize("pts", list(FAMILY_KINDS))
    @pytest.mark.parametrize("stage", ("none", "hu"))
    def test_family_and_opt_grid_at_k1(self, call_system, pts, stage):
        reference = solve(call_system, "naive", k_cs=1)
        assert (
            solve(call_system, "lcd+hcd", pts=pts, opt=stage, k_cs=1)
            == reference
        ), (pts, stage)

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_workloads_bit_identical_at_k1(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        reference = solve(system, "naive", k_cs=1)
        for algorithm in ("lcd", "hcd", "lcd+hcd", "ht", "pkh", "wave"):
            for stage in ("none", "hu"):
                assert (
                    solve(system, algorithm, opt=stage, k_cs=1) == reference
                ), (algorithm, stage)

    @pytest.mark.parametrize("name", ["emacs", "wine"])
    def test_workloads_monotone_precision(self, name):
        system = generate_workload(name, scale=1 / 512, seed=2)
        by_k = {k: solve(system, "lcd+hcd", k_cs=k) for k in K_LEVELS}
        for k_fine, k_coarse in ((1, 0), (2, 1)):
            for var in range(system.num_vars):
                assert by_k[k_fine].points_to(var) <= by_k[k_coarse].points_to(
                    var
                ), (name, k_fine, k_coarse, system.name_of(var))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_systems_agree_at_k1(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive", k_cs=1)
        for algorithm in ("lcd+hcd", "ht+hcd", "pkh", "hcd", "wave", "blq"):
            result = solve(system, algorithm, k_cs=1)
            assert result == reference, (algorithm, result.diff(reference))

    @given(system=constraint_systems(), k=k_levels, stage=opt_stages,
           pts=pts_families)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_systems_k_stage_family_grid(self, system, k, stage, pts):
        """Hypothesis-shrinkable differential over k x stages x families."""
        assert solve(system, "lcd+hcd", pts=pts, opt=stage, k_cs=k) == solve(
            system, "naive", k_cs=k
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_systems_monotone_precision(self, seed):
        """Soundness + precision order: pts at k=1 never exceeds k=0."""
        system = random_system(seed)
        insensitive = solve(system, "lcd+hcd")
        sensitive = solve(system, "lcd+hcd", k_cs=1)
        for var in range(system.num_vars):
            assert sensitive.points_to(var) <= insensitive.points_to(var), (
                system.name_of(var)
            )
