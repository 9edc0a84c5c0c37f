"""Tests for the Pearce-Kelly dynamic topological order and PKH03."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_system
from repro.graph.topo_order import DynamicTopologicalOrder
from repro.solvers.pkh03 import PKH03Solver
from repro.solvers.registry import solve


class GraphHarness:
    """Tiny adjacency wrapper for exercising the order structure."""

    def __init__(self, size):
        self.succ = {i: set() for i in range(size)}
        self.pred = {i: set() for i in range(size)}
        self.topo = DynamicTopologicalOrder(size)

    def add(self, src, dst):
        result = self.topo.add_edge(
            src, dst, lambda n: self.succ[n], lambda n: self.pred[n]
        )
        if result is None:
            self.succ[src].add(dst)
            self.pred[dst].add(src)
        return result

    def check(self):
        assert self.topo.is_topological(
            self.succ.keys(), lambda n: self.succ[n]
        )


class TestDynamicOrder:
    def test_consistent_edge_is_free(self):
        g = GraphHarness(4)
        before = g.topo.visited
        assert g.add(0, 3) is None
        assert g.topo.visited == before  # no search performed
        g.check()

    def test_violating_edge_reorders(self):
        g = GraphHarness(4)
        assert g.add(3, 0) is None  # violation: must permute
        assert g.topo.visited > 0
        g.check()
        assert g.topo.order_of(3) < g.topo.order_of(0)

    def test_cycle_detected(self):
        g = GraphHarness(3)
        assert g.add(0, 1) is None
        assert g.add(1, 2) is None
        result = g.add(2, 0)
        assert result is not None
        forward, backward = result
        members = (forward & backward) | {2, 0}
        assert members == {0, 1, 2}

    def test_two_cycle(self):
        g = GraphHarness(2)
        assert g.add(0, 1) is None
        result = g.add(1, 0)
        assert result is not None
        forward, backward = result
        assert (forward & backward) | {1, 0} == {0, 1}

    def test_chain_of_violations(self):
        g = GraphHarness(6)
        for src, dst in [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]:
            assert g.add(src, dst) is None
            g.check()

    def test_diamond_no_false_cycle(self):
        g = GraphHarness(4)
        for src, dst in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            assert g.add(src, dst) is None
        g.check()

    def test_set_order_and_consistent(self):
        topo = DynamicTopologicalOrder(2)
        topo.set_order(0, 10)
        topo.set_order(1, 5)
        assert not topo.consistent(0, 1)
        assert topo.consistent(1, 0)

    def test_grow(self):
        topo = DynamicTopologicalOrder(2)
        topo.grow(5)
        assert topo.order_of(4) == 4
        with pytest.raises(ValueError):
            topo.grow(1)

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40))
    @settings(max_examples=80)
    def test_order_invariant_maintained(self, edges):
        """After arbitrary acyclic-accepted insertions, order holds."""
        g = GraphHarness(10)
        for src, dst in edges:
            if src == dst:
                continue
            g.add(src, dst)  # cycles are reported, not inserted
        g.check()

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40))
    @settings(max_examples=80)
    def test_cycle_reports_are_real(self, edges):
        """Any reported cycle member set really is mutually reachable."""
        import networkx as nx

        g = GraphHarness(10)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(10))
        for src, dst in edges:
            if src == dst:
                continue
            result = g.add(src, dst)
            if result is not None:
                forward, backward = result
                members = (forward & backward) | {src, dst}
                probe = graph.copy()
                probe.add_edge(src, dst)
                # all members lie on a cycle through the new edge
                for member in members:
                    assert nx.has_path(probe, dst, member)
                    assert nx.has_path(probe, member, src)
            else:
                graph.add_edge(src, dst)


class TestPKH03Solver:
    def test_matches_reference(self, simple_system, cycle_system):
        for system in (simple_system, cycle_system):
            assert solve(system, "pkh03") == solve(system, "naive")

    def test_collapses_initial_cycle(self, cycle_system):
        solver = PKH03Solver(cycle_system)
        solver.solve()
        assert solver.stats.nodes_collapsed == 2

    def test_complete_like_pkh(self):
        from repro.solvers.pkh import PKHSolver
        from repro.workloads import generate_workload

        system = generate_workload("emacs", scale=1 / 256, seed=4)
        eager = PKH03Solver(system)
        eager.solve()
        periodic = PKHSolver(system)
        periodic.solve()
        assert eager.stats.nodes_collapsed == periodic.stats.nodes_collapsed

    @given(st.integers(0, 2_000))
    @settings(max_examples=30, deadline=None)
    def test_random_agreement(self, seed):
        system = random_system(seed)
        assert solve(system, "pkh03") == solve(system, "naive")

    def test_hcd_composition(self):
        from repro.workloads import generate_workload

        system = generate_workload("emacs", scale=1 / 256, seed=9)
        assert solve(system, "pkh03+hcd") == solve(system, "naive")
