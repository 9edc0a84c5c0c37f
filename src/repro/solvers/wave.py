"""Wave Propagation (Pereira & Berlin, CGO 2009) — follow-on extension.

The best-known successor to the paper's algorithms: like PKH it
alternates full-graph SCC collapsing with processing, but propagation
happens as a single *wave* — one pass over the acyclic graph in
topological order, each node forwarding only the **difference** between
its current and previously-propagated points-to set — and complex
constraints are then resolved in a batch against cached difference sets.
The result is a solver with no per-node worklist at all:

```
repeat
    collapse SCCs; order the DAG topologically
    wave: for n in topo order: pts(succ) |= (pts(n) - prev(n)); prev(n) = pts(n)
    resolve all complex constraints against their unprocessed pointees
until nothing changed
```

The wave pass is :meth:`GraphSolver.propagate` in difference mode,
called on each representative in topological order; this module adds
only the collapse-and-order sweep and the batch resolution phase.

Included here because it is built directly on this paper's foundations
(its evaluation uses LCD/HCD as baselines) and slots into the same
harness — see ``benchmarks/bench_16_ablation_aggressiveness.py`` for
where it lands on the detection-aggressiveness spectrum.
"""

from __future__ import annotations

from typing import List

from repro.analysis.solution import PointsToSolution
from repro.graph.scc import tarjan_scc
from repro.solvers.base import GraphSolver


class WaveSolver(GraphSolver):
    """Round-based wave propagation with batch constraint resolution."""

    name = "wave"

    def __init__(self, *args, **kwargs) -> None:
        # Wave propagation *is* difference propagation: the flag makes
        # resolve_complex record freshly inserted edges, which the next
        # wave flushes with the full set (a difference-only wave would
        # never move already-propagated facts across a new edge).
        kwargs["difference_propagation"] = True
        super().__init__(*args, **kwargs)

    def _run(self) -> PointsToSolution:
        graph = self.graph
        changed = True
        while changed:
            self.stats.iterations += 1
            changed = False

            # The wave: one difference-propagation pass in topological
            # order, each node through the shared propagate step.
            flag = _ChangeFlag()
            for node in self._sweep_and_collapse():
                self.propagate(node, flag)

            # Batch constraint resolution: every representative with
            # complex constraints (or pending cross-resolution jobs)
            # processes its not-yet-seen pointees.
            for node in list(graph.rep_nodes()):
                node = graph.find(node)
                if self.hcd_enabled:
                    node = self.hcd_check(node, flag)
                if (
                    graph.loads[node]
                    or graph.stores[node]
                    or graph.offs[node]
                    or graph.pending_complex[node]
                ):
                    before = self.stats.edges_added
                    self.resolve_complex(node, flag)
                    if self.stats.edges_added != before:
                        changed = True
            if flag.changed:
                changed = True

        return self._export_solution()

    def _sweep_and_collapse(self) -> List[int]:
        """Collapse every cycle; return representatives sources-first."""
        graph = self.graph
        reps = list(graph.rep_nodes())
        self.stats.nodes_searched += len(reps)

        def successors(node: int):
            return list(graph.successors(node))

        push = _ChangeFlag()  # pending jobs are drained by the batch phase
        components = tarjan_scc(reps, successors)
        order: List[int] = []
        for component in reversed(components):  # sources first
            if len(component) >= 2:
                order.append(self.collapse_nodes(component, push))
            else:
                order.append(component[0])
        return order


class _ChangeFlag:
    """A push-callback that just remembers whether it was invoked."""

    __slots__ = ("changed",)

    def __init__(self) -> None:
        self.changed = False

    def __call__(self, _node: int) -> None:
        self.changed = True
