"""Deep property tests over compositionally generated systems.

These complement ``test_solver_agreement`` (seed-based) with shrinkable
inputs: when an invariant breaks, hypothesis reports a *minimal*
constraint system.
"""

from hypothesis import HealthCheck, given, settings

from repro.constraints.parser import dumps_constraints, loads_constraints
from repro.preprocess.hcd_offline import hcd_offline_analysis
from repro.preprocess.hvn import preprocess_system
from repro.solvers.hcd import HCDSolver
from repro.solvers.lcd import LCDSolver
from repro.solvers.registry import solve
from strategies import constraint_systems

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestSolverInvariants:
    @given(constraint_systems())
    @settings(max_examples=60, **COMMON)
    def test_all_graph_solvers_agree(self, system):
        reference = solve(system, "naive")
        for algorithm in ("lcd", "lcd+hcd", "hcd", "pkh", "pkh+hcd", "pkh03", "ht"):
            assert solve(system, algorithm) == reference, algorithm

    @given(constraint_systems(max_plain_vars=8, max_constraints=15))
    @settings(max_examples=25, **COMMON)
    def test_blq_agrees(self, system):
        assert solve(system, "blq") == solve(system, "naive")

    @given(constraint_systems(max_plain_vars=8, max_constraints=15))
    @settings(max_examples=25, **COMMON)
    def test_bdd_representation_agrees(self, system):
        assert solve(system, "lcd+hcd", pts="bdd") == solve(system, "naive")

    @given(constraint_systems())
    @settings(max_examples=40, **COMMON)
    def test_solution_is_a_fixpoint(self, system):
        """Directly check the Table-1 semantics of the computed solution."""
        from repro.constraints.model import ConstraintKind

        solution = solve(system, "lcd+hcd")
        max_offset = system.max_offset

        def shifted(locs, k):
            return {
                loc + k for loc in locs if k == 0 or max_offset[loc] >= k
            }

        for c in system.constraints:
            if c.kind is ConstraintKind.BASE:
                assert c.src in solution.points_to(c.dst)
            elif c.kind is ConstraintKind.COPY:
                assert solution.points_to(c.src) <= solution.points_to(c.dst)
            elif c.kind is ConstraintKind.LOAD:
                for v in shifted(solution.points_to(c.src), c.offset):
                    assert solution.points_to(v) <= solution.points_to(c.dst), c
            elif c.kind is ConstraintKind.STORE:
                for v in shifted(solution.points_to(c.dst), c.offset):
                    assert solution.points_to(c.src) <= solution.points_to(v), c
            else:  # OFFS
                assert shifted(solution.points_to(c.src), c.offset) <= (
                    solution.points_to(c.dst)
                ), c

    @given(constraint_systems())
    @settings(max_examples=40, **COMMON)
    def test_steensgaard_overapproximates(self, system):
        andersen = solve(system, "naive")
        steens = solve(system, "steensgaard")
        for var in range(system.num_vars):
            assert andersen.points_to(var) <= steens.points_to(var)


class TestPreprocessInvariants:
    @given(constraint_systems())
    @settings(max_examples=40, **COMMON)
    def test_ovs_preserves_solution(self, system):
        ovs = preprocess_system(system, "ovs")
        assert ovs.expand(solve(ovs.reduced, "lcd+hcd")) == solve(system, "naive")

    @given(constraint_systems())
    @settings(max_examples=40, **COMMON)
    def test_hcd_offline_pairs_reference_valid_nodes(self, system):
        result = hcd_offline_analysis(system)
        for var, pairs in result.pairs.items():
            assert 0 <= var < system.num_vars
            for offset, partner in pairs:
                assert 0 <= partner < system.num_vars
                assert offset >= 0

    @given(constraint_systems())
    @settings(max_examples=30, **COMMON)
    def test_roundtrip_through_text_format(self, system):
        again = loads_constraints(dumps_constraints(system))
        assert solve(again, "naive") == solve(system, "naive")


class TestStatsInvariants:
    @given(constraint_systems())
    @settings(max_examples=30, **COMMON)
    def test_hcd_never_searches(self, system):
        solver = HCDSolver(system)
        solver.solve()
        assert solver.stats.nodes_searched == 0

    @given(constraint_systems())
    @settings(max_examples=30, **COMMON)
    def test_collapse_counters_consistent(self, system):
        solver = LCDSolver(system)
        solver.solve()
        assert solver.stats.nodes_collapsed == solver.graph.collapsed_node_count()
        assert solver.stats.nodes_collapsed <= system.num_vars

    @given(constraint_systems())
    @settings(max_examples=30, **COMMON)
    def test_memory_accounting_nonnegative(self, system):
        solver = LCDSolver(system)
        solver.solve()
        assert solver.stats.pts_memory_bytes >= 0
        assert solver.stats.graph_memory_bytes >= 0
