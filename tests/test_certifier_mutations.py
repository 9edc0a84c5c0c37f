"""Mutation testing: every seeded solver bug must be caught.

Each mutant below plants a realistic implementation bug in a solver —
a dropped rule, a broken collapse, a set replaced instead of unioned, a
corrupted intern table.  The verification layer must catch every one:
wrong *solutions* by the certifier (soundness or precision, as
appropriate), wrong *intermediate state* by the sanitizer's
InvariantViolation with the expected invariant name.  A mutant that
slips through all checks is a hole in the verification layer.
"""

import pytest

from repro.constraints.builder import ConstraintBuilder
from repro.solvers.lcd import LCDSolver
from repro.solvers.naive import NaiveSolver
from repro.solvers.registry import make_solver, solve
from repro.verify import InvariantViolation, certify


# ----------------------------------------------------------------------
# Mutants: wrong solutions (caught by the certifier)
# ----------------------------------------------------------------------


class SkipLoadSolver(NaiveSolver):
    """Bug: load constraints are never resolved."""

    def _apply_complex(self, loads, stores, offs, locs, push):
        super()._apply_complex([], stores, offs, locs, push)


class SkipStoreSolver(NaiveSolver):
    """Bug: store constraints are never resolved."""

    def _apply_complex(self, loads, stores, offs, locs, push):
        super()._apply_complex(loads, [], offs, locs, push)


class FirstSuccessorOnlySolver(NaiveSolver):
    """Bug: propagation reaches only the lowest-numbered successor."""

    def propagate(self, node, push):
        graph = self.graph
        pts = graph.pts_of(node)
        for succ in sorted(graph.successors(node))[:1]:
            self.stats.propagations += 1
            if graph.pts_of(succ).ior_and_test(pts):
                push(succ)


class DroppedFactExport(NaiveSolver):
    """Bug: the export loses one fact of the computed fixpoint."""

    def _export_solution(self):
        solution = super()._export_solution()
        mapping = {
            var: set(solution.points_to(var))
            for var in range(self.system.num_vars)
        }
        for var in sorted(mapping):
            if mapping[var]:
                mapping[var].pop()
                break
        from repro.analysis.solution import PointsToSolution

        return PointsToSolution(mapping, self.system.num_vars, self.system.names)


class InventedFactExport(NaiveSolver):
    """Bug: the export invents a fact the fixpoint never derived."""

    def _export_solution(self):
        solution = super()._export_solution()
        mapping = {
            var: set(solution.points_to(var))
            for var in range(self.system.num_vars)
        }
        universe = set(range(self.system.num_vars))
        for var in range(self.system.num_vars):
            missing = universe - mapping.get(var, set())
            if missing:
                mapping.setdefault(var, set()).add(min(missing))
                break
        from repro.analysis.solution import PointsToSolution

        return PointsToSolution(mapping, self.system.num_vars, self.system.names)


class OffsetUncheckedSolver(NaiveSolver):
    """Bug: offset constraints skip the block-layout validity check."""

    def _apply_complex(self, loads, stores, offs, locs, push):
        graph = self.graph
        for dst, offset in offs:
            dst_rep = graph.find(dst)
            dst_pts = graph.pts[dst_rep]
            changed = False
            for loc in locs:
                shifted = loc + offset
                if shifted < self.system.num_vars and dst_pts.add(shifted):
                    changed = True
            if changed:
                push(dst_rep)
        super()._apply_complex(loads, stores, [], locs, push)


class TestCertifierCatchesMutants:
    def test_skipped_load_rule_is_unsound(self, simple_system):
        report = certify(simple_system, SkipLoadSolver(simple_system).solve())
        assert not report.sound
        assert any(
            v.constraint.kind.value == "load" for v in report.violations
        )

    def test_skipped_store_rule_is_unsound(self, simple_system):
        report = certify(simple_system, SkipStoreSolver(simple_system).solve())
        assert not report.sound

    def test_dropped_propagation_is_unsound(self, simple_system):
        mutant = FirstSuccessorOnlySolver(simple_system)
        report = certify(simple_system, mutant.solve())
        assert not report.sound

    def test_dropped_export_fact_is_unsound(self, simple_system):
        report = certify(simple_system, DroppedFactExport(simple_system).solve())
        assert not report.sound

    def test_invented_export_fact_is_spurious(self, simple_system):
        report = certify(simple_system, InventedFactExport(simple_system).solve())
        assert not report.precise
        fact = report.spurious[0]
        assert fact.witness[0] == (fact.var, fact.loc)
        assert fact.terminal in ("unsupported", "circular")

    def test_bogus_hcd_pair_is_imprecise(self, simple_system):
        # Seeds the classic HCD failure mode: an offline pair that was
        # never actually pointer-equivalent, collapsing q with p's
        # pointees.  The fixpoint stays sound (collapse only over-
        # approximates) but gains facts the least model lacks.
        solver = make_solver(simple_system, "lcd+hcd")
        p, q = 0, 1
        solver._hcd_pairs.setdefault(p, []).append((0, q))
        report = certify(simple_system, solver.solve())
        assert report.sound
        assert not report.precise

    def test_unchecked_offset_is_imprecise(self):
        b = ConstraintBuilder()
        f = b.function("f", params=["a"])
        p, q, g, h = (b.var(n) for n in "pqgh")
        b.address_of(p, f.node)
        b.address_of(p, g)
        b.offset_assign(q, p, 1)
        system = b.build()
        reference = solve(system, "naive")
        mutant_solution = OffsetUncheckedSolver(system).solve()
        assert mutant_solution != reference  # the bug changed the output
        report = certify(system, mutant_solution)
        assert not report.precise

    def test_bad_offline_variable_merge_is_caught(self):
        # Seeds the classic HVN failure mode: the offline stage merges
        # two variables that are *not* pointer-equivalent, so after
        # expansion one of them reports the other's points-to set.  The
        # certifier checks the expanded solution against the original
        # constraints, so the missing fact surfaces as unsoundness.
        b = ConstraintBuilder()
        p, q, x, y, u = (b.var(n) for n in "pqxyu")
        b.address_of(p, x)
        b.address_of(q, y)
        b.assign(u, q)
        system = b.build()
        solver = make_solver(system, "lcd+hcd", opt="hu")
        sub = solver.preprocess.substitution
        assert sub.var_to_rep[q] != sub.var_to_rep[p]  # lattice got it right
        sub.var_to_rep[q] = sub.var_to_rep[p]  # plant the bad merge
        report = certify(system, solver.solve())
        assert not report.ok
        assert not report.sound

    def test_bad_offline_location_merge_is_caught(self):
        # The location-equivalence analogue: folding two locations that
        # do not co-occur makes expansion inflate every set holding the
        # representative — spurious facts the least model lacks.
        b = ConstraintBuilder()
        p, q, x, y = (b.var(n) for n in "pqxy")
        b.address_of(p, x)
        b.address_of(q, y)
        system = b.build()
        solver = make_solver(system, "lcd+hcd", opt="hu")
        sub = solver.preprocess.substitution
        assert not sub.loc_members  # the lattice did not merge x with y
        sub.loc_members[x] = (x, y)
        report = certify(system, solver.solve())
        assert not report.ok
        assert not report.precise

    def test_optimized_solver_certifies(self, simple_system):
        # Control: unmutated optimized runs are accepted for every stage.
        for opt in ("ovs", "hvn", "hu"):
            solver = make_solver(simple_system, "lcd+hcd", opt=opt)
            assert certify(simple_system, solver.solve()).ok, opt

    def test_unmutated_solver_certifies(self, simple_system):
        # Control: the same checks accept the correct base solver.
        assert certify(simple_system, NaiveSolver(simple_system).solve()).ok


# ----------------------------------------------------------------------
# Mutants: corrupted solver state (caught by the sanitizer)
# ----------------------------------------------------------------------


class ShrinkingSolver(NaiveSolver):
    """Bug: one points-to set is replaced (not unioned) mid-run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._shrunk = False

    def propagate(self, node, push):
        super().propagate(node, push)
        rep = self.graph.find(node)
        if not self._shrunk and len(self.graph.pts[rep]):
            self.graph.pts[rep] = self.family.make()
            self._shrunk = True


class InternCorruptingSolver(LCDSolver):
    """Bug: an int-family canonical value drifts from its interning key."""

    def _run(self):
        solution = super()._run()
        table = self.family.table
        value = next(v for v in table._by_value if v)
        canon, node_id = table._by_value[value]
        table._by_value[value] = (canon | 1 << (self.system.num_vars + 17), node_id)
        return solution


class TestSanitizerCatchesMutants:
    def test_stale_loser_state_after_collapse(self, cycle_system):
        solver = make_solver(cycle_system, "lcd", sanitize=True)
        graph = solver.graph
        original = graph.collapse

        def buggy_collapse(members):
            member_list = [graph.find(m) for m in list(members)]
            pre_reps = set(member_list)
            rep, merged = original(member_list)
            if merged:
                for old in pre_reps:  # bug: loser keeps (new) state
                    if old != rep:
                        graph.pts[old].add(0)
                        break
            return rep, merged

        graph.collapse = buggy_collapse
        with pytest.raises(InvariantViolation) as exc:
            solver.solve()
        assert exc.value.invariant == "stale-loser-state"

    def test_shrinking_set_breaks_monotonicity(self, cycle_system):
        mutant = ShrinkingSolver(cycle_system, worklist="fifo", sanitize=True)
        with pytest.raises(InvariantViolation) as exc:
            mutant.solve()
        assert exc.value.invariant == "monotone-pts"

    def test_lcd_retrigger_detected(self):
        # Disabling the once-per-edge refinement IS the seeded bug: the
        # paper's set R is what stops coincidentally-equal sets from
        # re-triggering a search on the same edge.
        b = ConstraintBuilder()
        s, w, x, u, v = (b.var(n) for n in "swxuv")
        o1, o2, o3 = (b.var(f"o{i}") for i in (1, 2, 3))
        b.address_of(s, o1)
        b.address_of(w, o2)
        b.address_of(x, o3)
        for src in (s, w, x):
            b.assign(u, src)
            b.assign(v, src)
        b.assign(v, u)
        system = b.build()

        # Control: with the refinement on, the sanitizer stays quiet.
        clean = LCDSolver(system, worklist="lifo", sanitize=True)
        assert certify(system, clean.solve()).ok

        mutant = LCDSolver(
            system, worklist="lifo", once_per_edge=False, sanitize=True
        )
        with pytest.raises(InvariantViolation) as exc:
            mutant.solve()
        assert exc.value.invariant == "lcd-retrigger"

    def test_intern_corruption_detected(self, simple_system):
        mutant = InternCorruptingSolver(simple_system, pts="int", sanitize=True)
        with pytest.raises(InvariantViolation) as exc:
            mutant.solve()
        assert exc.value.invariant == "intern-canonicity"
