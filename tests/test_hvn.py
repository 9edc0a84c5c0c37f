"""Unit tests for the offline HVN/HU optimization stage.

Covers the lattice rules (ADR-label interning, copy-chain collapse, the
HU-only union merges), provably-empty-pointer deletion, sound store
arming, location equivalence, the substitution-map contract, and the
pipeline dispatcher — each against the semantic ground truth: solving
the reduced system and expanding must reproduce the naive solution of
the original system exactly.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_system
from repro.constraints.builder import ConstraintBuilder
from repro.constraints.model import ConstraintKind
from repro.metrics.reporting import format_opt_summary
from repro.preprocess import hvn
from repro.preprocess.hvn import (
    _MAX_ROUNDS,
    OPT_STAGES,
    PreprocessResult,
    SubstitutionMap,
    hvn_reduce,
    live_var_count,
    preprocess_system,
)
from repro.preprocess.ovs import offline_variable_substitution
from repro.solvers.registry import make_solver, solve
from repro.workloads import generate_workload
from strategies import constraint_systems, opt_stages


def _check_preserves(system, stage):
    """The semantic contract: reduced-solve + expand == original-solve."""
    reference = solve(system, "naive")
    pre = preprocess_system(system, stage)
    result = pre.expand(solve(pre.reduced, "naive"))
    assert result == reference, (stage, result.diff(reference))
    return pre


# ----------------------------------------------------------------------
# Pipeline dispatcher
# ----------------------------------------------------------------------


class TestDispatcher:
    def test_stage_order(self):
        assert OPT_STAGES == ("none", "ovs", "hvn", "hu")

    def test_unknown_stage_rejected(self, simple_system):
        with pytest.raises(ValueError, match="unknown optimization stage"):
            preprocess_system(simple_system, "turbo")

    def test_none_is_identity(self, simple_system):
        pre = preprocess_system(simple_system, "none")
        assert pre.reduced is simple_system
        assert pre.substitution.is_identity()
        assert pre.constraints_deleted() == 0
        assert pre.reduction_ratio == 0.0
        solution = solve(simple_system, "naive")
        assert pre.expand(solution) == solution

    def test_ovs_stage_matches_ovs_module(self, simple_system):
        pre = preprocess_system(simple_system, "ovs")
        ovs = offline_variable_substitution(simple_system)
        assert len(pre.reduced) == len(ovs.reduced)
        assert pre.substitution.var_to_rep == list(ovs.var_to_rep)
        assert pre.stage == "ovs"

    def test_hvn_reduce_rejects_bad_mode(self, simple_system):
        with pytest.raises(ValueError, match="mode must be"):
            hvn_reduce(simple_system, mode="ovs")

    @pytest.mark.parametrize("stage", OPT_STAGES)
    def test_every_stage_preserves_fixtures(
        self, simple_system, cycle_system, stage
    ):
        for system in (simple_system, cycle_system):
            _check_preserves(system, stage)


# ----------------------------------------------------------------------
# Lattice rules
# ----------------------------------------------------------------------


class TestLatticeRules:
    def test_adr_labels_interned(self):
        """``p = &x`` and ``q = &x`` give p and q the same label."""
        b = ConstraintBuilder()
        p, q, x, u = (b.var(n) for n in "pqxu")
        b.address_of(p, x)
        b.address_of(q, x)
        b.assign(u, q)  # keep q live in the reduced system
        system = b.build()
        pre = _check_preserves(system, "hvn")
        sub = pre.substitution
        assert sub.var_to_rep[q] == sub.var_to_rep[p]

    def test_copy_chain_collapses(self):
        """a -> b -> c all carry pts(a): one node survives."""
        b = ConstraintBuilder()
        a, c, d, x = (b.var(n) for n in "acdx")
        b.address_of(a, x)
        b.assign(c, a)
        b.assign(d, c)
        system = b.build()
        pre = _check_preserves(system, "hvn")
        sub = pre.substitution
        assert sub.var_to_rep[c] == sub.var_to_rep[a]
        assert sub.var_to_rep[d] == sub.var_to_rep[a]
        # Only the BASE constraint can survive.
        assert len(pre.reduced) == 1

    def test_hu_proves_union_merges_hvn_cannot(self):
        """``c`` receives copies of both a and b with pts(a) ⊆ pts(b):
        HU evaluates the union and merges c with b; HVN, hashing opaque
        value numbers, cannot."""
        b = ConstraintBuilder()
        a, c, d, e, x, y = (b.var(n) for n in "acdexy")
        b.address_of(a, x)
        b.address_of(d, x)
        b.address_of(d, y)
        b.assign(c, a)
        b.assign(c, d)
        b.assign(e, d)
        system = b.build()

        hu = _check_preserves(system, "hu")
        assert hu.substitution.var_to_rep[c] == hu.substitution.var_to_rep[d]
        assert hu.substitution.var_to_rep[e] == hu.substitution.var_to_rep[d]

        hvn = _check_preserves(system, "hvn")
        # Pure single-source inheritance still merges e with d...
        assert hvn.substitution.var_to_rep[e] == hvn.substitution.var_to_rep[d]
        # ...but the two-source union does not hash equal under HVN.
        assert hvn.substitution.var_to_rep[c] != hvn.substitution.var_to_rep[d]

    def test_empty_pointer_constraints_deleted(self):
        """Loads/stores through a provably-empty pointer are deleted."""
        b = ConstraintBuilder()
        p, q, r, s, x = (b.var(n) for n in "pqrsx")
        b.address_of(s, x)
        b.load(r, p)  # p can never point anywhere
        b.store(q, s)  # neither can q
        system = b.build()
        pre = _check_preserves(system, "hu")
        kinds = {c.kind for c in pre.reduced.constraints}
        assert ConstraintKind.LOAD not in kinds
        assert ConstraintKind.STORE not in kinds
        assert pre.constraints_deleted() == 2

    def test_armed_store_flows_through(self):
        """A store through a provably-nonempty pointer must still reach
        the loads reading the same location (exactness of the armed-store
        edge), and the reduced system must solve to the same model."""
        b = ConstraintBuilder()
        p, q, r, x, y = (b.var(n) for n in "pqrxy")
        b.address_of(p, x)
        b.address_of(q, y)
        b.store(p, q)  # *p = q  =>  x ⊇ {y}
        b.load(r, p)  # r = *p  =>  r ⊇ pts(x) ⊇ {y}
        system = b.build()
        pre = _check_preserves(system, "hu")
        reference = solve(system, "naive")
        assert reference.points_to(r) == frozenset({y})
        # The store is live and must survive the rewrite.
        kinds = [c.kind for c in pre.reduced.constraints]
        assert ConstraintKind.STORE in kinds

    def test_location_equivalence_merges_and_expands(self):
        """Locations occurring in exactly the same sets fold to one id;
        expansion restores the full class in every points-to set."""
        b = ConstraintBuilder()
        p, q, x, y = (b.var(n) for n in "pqxy")
        b.address_of(p, x)
        b.address_of(p, y)
        b.assign(q, p)
        system = b.build()
        pre = _check_preserves(system, "hu")
        assert pre.locations_merged() == 1
        (members,) = pre.substitution.loc_members.values()
        assert set(members) == {x, y}
        expanded = pre.expand(solve(pre.reduced, "naive"))
        assert expanded.points_to(p) == frozenset({x, y})
        assert expanded.points_to(q) == frozenset({x, y})

    def test_block_members_never_move(self):
        """Function/object-block nodes are addressed by offset arithmetic:
        neither pointer- nor location-merging may touch them."""
        b = ConstraintBuilder()
        fn = b.function("f", params=["a", "b"])
        blk = b.object_block("s", fields=["f0", "f1"])
        p = b.var("p")
        b.address_of(p, fn.node)
        b.address_of(p, blk.node)
        system = b.build()
        pre = _check_preserves(system, "hu")
        sub = pre.substitution
        for node in range(fn.node, fn.node + 3):
            assert sub.var_to_rep[node] == node
        for node in range(blk.node, blk.node + 2):
            assert sub.var_to_rep[node] == node
        assert not sub.loc_members


# ----------------------------------------------------------------------
# Substitution map and result shapes
# ----------------------------------------------------------------------


class TestSubstitutionMap:
    def test_identity_constructor(self):
        sub = SubstitutionMap.identity(4)
        assert sub.is_identity()
        assert sub.merged_var_count() == 0
        assert sub.merged_location_count() == 0

    def test_counters(self):
        sub = SubstitutionMap([0, 0, 2, 2], {2: (2, 3)})
        assert not sub.is_identity()
        assert sub.merged_var_count() == 2
        assert sub.merged_location_count() == 1

    def test_result_counters_consistent(self, simple_system):
        pre = preprocess_system(simple_system, "hu")
        assert isinstance(pre, PreprocessResult)
        assert pre.constraints_deleted() == len(pre.original) - len(pre.reduced)
        assert 0.0 <= pre.reduction_ratio <= 1.0
        assert pre.merged_count() == pre.substitution.merged_var_count()
        assert 1 <= pre.passes <= _MAX_ROUNDS
        assert pre.offline_seconds >= 0.0

    def test_live_var_count(self, simple_system):
        assert live_var_count(simple_system) == 5
        pre = preprocess_system(simple_system, "hu")
        assert live_var_count(pre.reduced) <= live_var_count(simple_system)


# ----------------------------------------------------------------------
# Property tests: preservation on random and generated systems
# ----------------------------------------------------------------------


class TestPreservation:
    @given(st.integers(0, 10_000))
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_systems_all_stages(self, seed):
        system = random_system(seed)
        reference = solve(system, "naive")
        for stage in ("ovs", "hvn", "hu"):
            pre = preprocess_system(system, stage)
            result = pre.expand(solve(pre.reduced, "naive"))
            assert result == reference, (stage, result.diff(reference))
            assert len(pre.reduced) <= len(pre.original)

    @given(system=constraint_systems(), stage=opt_stages)
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_generated_systems_shrinkable(self, system, stage):
        _check_preserves(system, stage)

    @pytest.mark.parametrize("name", ["emacs", "wine", "linux"])
    def test_workload_reduction_monotone(self, name):
        """The pipeline is ordered by strength: each stage leaves at most
        as many live nodes as the one before it."""
        system = generate_workload(name, scale=1 / 512, seed=1)
        nodes = {}
        for stage in OPT_STAGES:
            pre = preprocess_system(system, stage)
            nodes[stage] = live_var_count(pre.reduced)
            _check_preserves(system, stage)
        assert nodes["ovs"] <= nodes["none"]
        assert nodes["hvn"] <= nodes["ovs"]
        assert nodes["hu"] <= nodes["hvn"]


# ----------------------------------------------------------------------
# Reduction power, label width and the round bound
# ----------------------------------------------------------------------

#: ``(passes, merged_count(), locations_merged(), len(reduced))`` per
#: profile and mode at 1/128, seed 1.  A change that proves fewer merges
#: stays sound, so the solution-equality tests cannot see it; these can.
PINNED_REDUCTION = {
    ("emacs", "hvn"): (4, 518, 8, 67),
    ("emacs", "hu"): (4, 534, 13, 26),
    ("wine", "hvn"): (6, 4089, 161, 173),
    ("wine", "hu"): (5, 4096, 161, 157),
    ("linux", "hvn"): (4, 3111, 93, 359),
    ("linux", "hu"): (5, 3142, 99, 273),
}


def _block_member_ids(system):
    members = set()
    for info in system.functions.values():
        members.update(range(info.node, info.node + info.block_size))
    for block in system.object_blocks.values():
        members.update(range(block.node, block.node + block.block_size))
    return members


class TestReductionPower:
    @pytest.mark.parametrize("name,mode", sorted(PINNED_REDUCTION))
    def test_pinned_reduction(self, name, mode):
        system = generate_workload(name, scale=1 / 128, seed=1)
        pre = hvn_reduce(system, mode)
        measured = (
            pre.passes, pre.merged_count(), pre.locations_merged(), len(pre.reduced)
        )
        assert measured == PINNED_REDUCTION[name, mode]
        assert pre.converged

    @pytest.mark.parametrize("mode", ["hvn", "hu"])
    def test_labels_fit_the_live_universe(self, mode, monkeypatch):
        """Every label bit is drawn from the round's live universe:
        address-taken locations, protected variables, ref nodes (and
        value numbers under HVN) — not from the variable id space."""
        system = generate_workload("wine", scale=1 / 128, seed=1)
        blocks = _block_member_ids(system)
        passes = []
        label_pass = hvn._label_pass

        def spy(rows, *args):
            labelled = label_pass(rows, *args)
            passes.append((rows, labelled))
            return labelled

        monkeypatch.setattr(hvn, "_label_pass", spy)
        pre = hvn_reduce(system, mode)
        assert len(passes) == pre.passes
        for rows, labelled in passes:
            locations = {src for kind, _, src, _ in rows if kind == hvn._BASE}
            universe = len(locations) + len(locations | blocks) + labelled.ref_count
            if mode == "hvn":
                universe += labelled.value_numbers
            assert universe < system.num_vars
            widest = max(label.bit_length() for label in labelled.labels)
            assert widest <= universe

    def test_converged_reported(self):
        system = generate_workload("wine", scale=1 / 512, seed=1)
        pre = hvn_reduce(system, "hu")
        assert pre.converged
        assert pre.passes < _MAX_ROUNDS
        solver = make_solver(system, "lcd+hcd", opt="hu")
        data = solver.stats.as_dict()
        assert data["opt_converged"] is True
        assert "round bound" not in format_opt_summary(data)

    def test_stop_at_round_bound_reported(self, monkeypatch):
        """A cascade cut at the bound is still sound, and says so."""
        monkeypatch.setattr(hvn, "_MAX_ROUNDS", 1)
        system = generate_workload("wine", scale=1 / 512, seed=1)
        pre = hvn_reduce(system, "hu")
        assert pre.passes == 1
        assert not pre.converged
        reference = solve(system, "naive")
        assert pre.expand(solve(pre.reduced, "naive")) == reference
        solver = make_solver(system, "lcd+hcd", opt="hu")
        data = solver.stats.as_dict()
        assert data["opt_converged"] is False
        assert "1 passes (stopped at the round bound)" in format_opt_summary(data)
