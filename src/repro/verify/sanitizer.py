"""Solver-invariant sanitizer (``--sanitize`` mode).

The certifier checks *solutions*; the sanitizer checks *solver state
while it evolves*.  ``make_solver(..., sanitize=True)`` installs a
:class:`Sanitizer` whose hooks the solvers call at their
collapse/propagate boundaries:

- **rep consistency** — after every SCC/HCD collapse, each merged
  member resolves to the surviving representative and every loser's
  state shell (points-to set, successor set, constraint index, pending
  jobs) has been released;
- **monotone growth** — a node's points-to set never shrinks between
  propagation visits (inclusion analysis is monotone; a shrink means a
  set was replaced, not unioned);
- **LCD trigger discipline** — the same edge never re-triggers a lazy
  cycle search (the paper's once-per-edge refinement, which bounds
  LCD's overhead);
- **intern canonicity** — for the ``int`` points-to family, every
  canonical bignum still equals its interning key, no two values share
  an id, and every memoized result carries the id the table assigns its
  value (a corrupted canonical entry silently corrupts *every* variable
  aliasing it).

Each failure raises :class:`InvariantViolation` carrying the solver
name, the invariant, and the relevant state context — the input that
produced it is what :mod:`repro.verify.reduce` then shrinks.

Check counts land on ``SolverStats.verify`` (:class:`VerifyStats`,
``verify_*`` keys in ``stats.as_dict()``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Set, Tuple


class InvariantViolation(AssertionError):
    """A solver invariant broke mid-run.

    ``invariant`` is a stable machine-checkable name (used by the
    mutation-testing harness), ``context`` whatever solver state makes
    the failure actionable.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        solver: str = "?",
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.invariant = invariant
        self.solver = solver
        self.context = dict(context or {})
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
        suffix = f" [{detail}]" if detail else ""
        super().__init__(f"[{solver}] invariant {invariant!r}: {message}{suffix}")


@dataclass
class VerifyStats:
    """Sanitizer counters for one solver run (``verify_*`` in stats)."""

    collapse_checks: int = 0
    monotone_checks: int = 0
    lcd_checks: int = 0
    intern_checks: int = 0
    final_checks: int = 0

    @property
    def invariant_checks(self) -> int:
        return (
            self.collapse_checks
            + self.monotone_checks
            + self.lcd_checks
            + self.intern_checks
            + self.final_checks
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "collapse_checks": self.collapse_checks,
            "monotone_checks": self.monotone_checks,
            "lcd_checks": self.lcd_checks,
            "intern_checks": self.intern_checks,
            "final_checks": self.final_checks,
            "invariant_checks": self.invariant_checks,
        }


class Sanitizer:
    """Invariant checks over one solver's evolving state.

    Holds only weak knowledge of the solver (duck-typed ``graph`` /
    ``family`` attributes) so it works for every registered algorithm;
    hooks that do not apply to a solver are simply never called.
    """

    def __init__(self, solver) -> None:
        self.solver = solver
        if solver.stats.verify is None:
            solver.stats.verify = VerifyStats()
        self.stats: VerifyStats = solver.stats.verify
        #: Per-representative points-to cardinality floor (monotonicity).
        self._size_floor: Dict[int, int] = {}
        #: Edges that already triggered a lazy cycle search.
        self._lcd_triggered: Set[Tuple[int, int]] = set()

    def _fail(self, invariant: str, message: str, **context: Any) -> None:
        raise InvariantViolation(
            invariant,
            message,
            solver=getattr(self.solver, "full_name", self.solver.name),
            context=context,
        )

    # ------------------------------------------------------------------
    # Collapse boundary
    # ------------------------------------------------------------------

    def after_collapse(
        self, rep: int, members: Iterable[int], old_reps: Iterable[int]
    ) -> None:
        """Union-find rep consistency after an SCC/HCD collapse."""
        graph = self.solver.graph
        self.stats.collapse_checks += 1
        for member in members:
            found = graph.find(member)
            if found != rep:
                self._fail(
                    "rep-consistency",
                    "collapsed member does not resolve to the representative",
                    member=member,
                    rep=rep,
                    found=found,
                )
        floor = self._size_floor.get(rep, 0)
        for old in old_reps:
            if old == rep:
                continue
            floor = max(floor, self._size_floor.pop(old, 0))
            if (
                len(graph.pts[old])
                or len(graph.succ[old])
                or graph.loads[old]
                or graph.stores[old]
                or graph.offs[old]
                or graph.pending_complex[old]
            ):
                self._fail(
                    "stale-loser-state",
                    "collapse left state on a merged-away node",
                    loser=old,
                    rep=rep,
                    pts=len(graph.pts[old]),
                    succ=len(graph.succ[old]),
                )
        rep_size = len(graph.pts[rep])
        if rep_size < floor:
            self._fail(
                "monotone-pts",
                "collapse shrank the representative's points-to set",
                rep=rep,
                size=rep_size,
                floor=floor,
            )
        self._size_floor[rep] = rep_size

    # ------------------------------------------------------------------
    # Propagate boundary
    # ------------------------------------------------------------------

    def check_monotone(self, node: int) -> None:
        """Points-to cardinality never shrinks between visits."""
        graph = self.solver.graph
        rep = graph.find(node)
        size = len(graph.pts[rep])
        self.stats.monotone_checks += 1
        floor = self._size_floor.get(rep, 0)
        if size < floor:
            self._fail(
                "monotone-pts",
                "points-to set shrank between propagation visits",
                node=node,
                rep=rep,
                size=size,
                floor=floor,
            )
        self._size_floor[rep] = size

    # ------------------------------------------------------------------
    # LCD trigger discipline
    # ------------------------------------------------------------------

    def on_lcd_trigger(self, edge: Tuple[int, int]) -> None:
        """The same edge must never re-trigger a lazy cycle search."""
        self.stats.lcd_checks += 1
        if edge in self._lcd_triggered:
            self._fail(
                "lcd-retrigger",
                "lazy cycle detection re-triggered on an already-searched edge",
                edge=edge,
            )
        self._lcd_triggered.add(edge)

    # ------------------------------------------------------------------
    # Intern-table canonicity (int family)
    # ------------------------------------------------------------------

    def check_intern(self) -> None:
        """Canonicity for the ``int`` family's bignum intern table.

        Content uniqueness is structural (the table is keyed by value),
        so the live invariants are: every canonical object still equals
        its key, ids are never shared between distinct values, and every
        memoized result resolves to the same id the canonical table
        would assign its value.
        """
        family = getattr(self.solver, "family", None)
        table = getattr(family, "table", None)
        if table is None:
            return
        self.stats.intern_checks += 1
        ids_seen: Set[int] = set()
        for value, (canon, node_id) in list(table._by_value.items()):
            if canon != value:
                self._fail(
                    "intern-canonicity",
                    "canonical bignum no longer equals its interning key",
                    node_id=node_id,
                    key_bits=value.bit_count(),
                    actual_bits=canon.bit_count(),
                )
            if node_id in ids_seen:
                self._fail(
                    "intern-uniqueness",
                    "two live canonical bignums share one id",
                    node_id=node_id,
                )
            ids_seen.add(node_id)
        for memo in (table._union_memo, table._add_memo, table._offset_memo):
            for bits, node_id in list(memo.values()):
                entry = table._by_value.get(bits)
                if entry is not None and entry[1] != node_id:
                    self._fail(
                        "intern-canonicity",
                        "memoized result disagrees with the canonical table",
                        node_id=node_id,
                        canonical_id=entry[1],
                    )

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------

    def final_check(self) -> None:
        """Whole-state sweep after the fixpoint: union-find idempotence,
        released loser shells, intern canonicity."""
        self.stats.final_checks += 1
        graph = getattr(self.solver, "graph", None)
        if graph is not None:
            for node in range(graph.num_vars):
                rep = graph.find(node)
                if graph.find(rep) != rep:
                    self._fail(
                        "rep-consistency",
                        "find() is not idempotent at the fixpoint",
                        node=node,
                        rep=rep,
                    )
                if rep != node and (len(graph.pts[node]) or len(graph.succ[node])):
                    self._fail(
                        "stale-loser-state",
                        "merged-away node still owns state at the fixpoint",
                        loser=node,
                        rep=rep,
                    )
        self.check_intern()
