"""Tests for Offline Variable Substitution, the ``--opt ovs`` stage."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_system
from repro.constraints.builder import ConstraintBuilder
from repro.constraints.model import ConstraintKind
from repro.preprocess.hvn import preprocess_system
from repro.solvers.registry import solve


class TestBasicMerging:
    def test_copy_chain_collapses(self):
        """t1 = p; t2 = t1; q = t2 — all pointer-equivalent to p."""
        b = ConstraintBuilder()
        p, x = b.var("p"), b.var("x")
        b.address_of(p, x)
        t1, t2, q = b.var("t1"), b.var("t2"), b.var("q")
        b.assign(t1, p)
        b.assign(t2, t1)
        b.assign(q, t2)
        result = preprocess_system(b.build(), "ovs")
        rep = result.substitution.var_to_rep
        assert rep[t1] == rep[t2] == rep[q]
        # The three copies collapse to at most one onto the class rep.
        assert len(result.reduced) <= 2

    def test_same_base_merges(self):
        b = ConstraintBuilder()
        x = b.var("x")
        p, q = b.var("p"), b.var("q")
        b.address_of(p, x)
        b.address_of(q, x)
        result = preprocess_system(b.build(), "ovs")
        assert result.substitution.var_to_rep[q] == p
        assert len(result.reduced) == 1  # one base constraint survives

    def test_different_bases_not_merged(self):
        b = ConstraintBuilder()
        p, q = b.var("p"), b.var("q")
        b.address_of(p, b.var("x"))
        b.address_of(q, b.var("y"))
        result = preprocess_system(b.build(), "ovs")
        rep = result.substitution.var_to_rep
        assert rep[p] != rep[q]

    def test_empty_variables_share_class(self):
        b = ConstraintBuilder()
        a, c = b.var("a"), b.var("c")
        d = b.var("d")
        b.assign(a, c)  # all provably empty
        result = preprocess_system(b.build(), "ovs")
        rep = result.substitution.var_to_rep
        assert rep[c] == rep[d]
        assert len(result.reduced) == 0  # the dead copy is dropped

    def test_copy_cycle_merges(self):
        b = ConstraintBuilder()
        x = b.var("x")
        p, q, r = b.var("p"), b.var("q"), b.var("r")
        b.address_of(p, x)
        b.assign(q, p)
        b.assign(r, q)
        b.assign(p, r)
        result = preprocess_system(b.build(), "ovs")
        rep = result.substitution.var_to_rep
        assert rep[p] == rep[q] == rep[r]


class TestProtection:
    def test_address_taken_never_merged(self):
        b = ConstraintBuilder()
        x, y = b.var("x"), b.var("y")
        p = b.var("p")
        b.address_of(p, x)
        b.address_of(p, y)
        b.assign(x, p)
        b.assign(y, p)  # x and y get identical flow but are address-taken
        result = preprocess_system(b.build(), "ovs")
        assert result.substitution.var_to_rep[x] == x
        assert result.substitution.var_to_rep[y] == y

    def test_function_block_never_merged(self):
        b = ConstraintBuilder()
        f = b.function("f", params=["a"])
        p = b.var("p")
        b.assign(f.params[0], p)
        b.assign(b.var("q"), p)
        result = preprocess_system(b.build(), "ovs")
        assert result.substitution.var_to_rep[f.params[0]] == f.params[0]

    def test_loaded_values_not_overmerged(self):
        """Loads through different pointers must stay distinct."""
        b = ConstraintBuilder()
        p, q = b.var("p"), b.var("q")
        b.address_of(p, b.var("x"))
        b.address_of(q, b.var("y"))
        u, v = b.var("u"), b.var("v")
        b.load(u, p)
        b.load(v, q)
        result = preprocess_system(b.build(), "ovs")
        rep = result.substitution.var_to_rep
        assert rep[u] != rep[v]


class TestDeadConstraintElimination:
    def test_load_through_empty_pointer_dropped(self):
        b = ConstraintBuilder()
        empty, dst = b.var("empty"), b.var("dst")
        b.load(dst, empty)
        result = preprocess_system(b.build(), "ovs")
        assert len(result.reduced) == 0

    def test_store_through_empty_pointer_dropped(self):
        b = ConstraintBuilder()
        empty, src = b.var("empty"), b.var("src")
        b.address_of(src, b.var("x"))
        b.store(empty, src)
        result = preprocess_system(b.build(), "ovs")
        assert all(c.kind is not ConstraintKind.STORE for c in result.reduced)

    def test_duplicates_deduped(self):
        b = ConstraintBuilder()
        p, x = b.var("p"), b.var("x")
        for _ in range(5):
            b.address_of(p, x)
        result = preprocess_system(b.build(), "ovs")
        assert len(result.reduced) == 1


class TestSolutionPreservation:
    def test_simple_system_preserved(self, simple_system):
        result = preprocess_system(simple_system, "ovs")
        direct = solve(simple_system, "naive")
        reduced = result.expand(solve(result.reduced, "naive"))
        assert reduced == direct

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_random_systems_preserved(self, seed):
        system = random_system(seed)
        result = preprocess_system(system, "ovs")
        direct = solve(system, "naive")
        reduced = result.expand(solve(result.reduced, "naive"))
        assert reduced == direct, reduced.diff(direct)

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_reduction_never_grows(self, seed):
        system = random_system(seed)
        result = preprocess_system(system, "ovs")
        assert len(result.reduced) <= len(system)
        assert 0.0 <= result.reduction_ratio <= 1.0

    def test_workload_reduction_in_paper_ballpark(self):
        from repro.workloads import generate_workload

        system = generate_workload("emacs", scale=1 / 128, seed=1)
        result = preprocess_system(system, "ovs")
        # Paper: 60-77% across benchmarks; the synthetic stand-in should
        # land in a generous band around that.
        assert 0.45 <= result.reduction_ratio <= 0.9

    def test_merged_count_and_expand(self):
        b = ConstraintBuilder()
        p, x = b.var("p"), b.var("x")
        b.address_of(p, x)
        q = b.var("q")
        b.assign(q, p)
        result = preprocess_system(b.build(), "ovs")
        assert result.merged_count() == 1
        solution = result.expand(solve(result.reduced, "naive"))
        assert solution.points_to(q) == frozenset({x})
