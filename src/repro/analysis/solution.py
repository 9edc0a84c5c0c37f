"""The points-to solution produced by every solver.

A solution maps each program variable to the set of abstract locations it
may point to.  Whatever a solver did internally — collapsing cycles,
substituting pointer-equivalent variables offline, storing the relation in
one big BDD — the exported solution is always expressed per *original*
variable, which is what makes solver outputs directly comparable (the
repo's core correctness property: every algorithm computes the same
solution).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.points_to.interface import PointsToSet


class PointsToSolution:
    """Immutable per-variable points-to map."""

    def __init__(
        self,
        points_to: Mapping[int, Iterable[int]],
        num_vars: int,
        names: Optional[Sequence[str]] = None,
        num_locs: Optional[int] = None,
        backing: Optional[Mapping[int, "PointsToSet"]] = None,
    ) -> None:
        """``num_locs`` bounds the pointee ids (defaults to ``num_vars``,
        since locations live in the same id space as variables).  A
        pointee outside ``[0, num_locs)`` means the producing solver
        corrupted a set, so it is rejected here rather than surfacing as
        a nonsense fact in a downstream client.

        ``backing`` optionally maps variables to the solver's own
        representation-native sets (bitmap/shared/BDD); :meth:`intersects`
        answers through their native AND instead of a Python-level scan.
        Backing never affects equality, hashing or the frozenset queries —
        it is a query accelerator, not part of the solution's value."""
        self._num_vars = num_vars
        self._backing: Optional[Dict[int, "PointsToSet"]] = (
            dict(backing) if backing is not None else None
        )
        self._num_locs = num_locs if num_locs is not None else num_vars
        self._names = tuple(names) if names is not None else None
        self._points_to: Dict[int, FrozenSet[int]] = {}
        # Converged solutions are heavily duplicated: solvers hand every
        # variable of a class the same set object.  Freeze and range-check
        # each distinct non-empty input object once and share the result
        # (empty inputs are dropped, so they are never memoized).  Every
        # memo value holds its input, so no keyed id() is reused while
        # the memo is alive.
        memo: Dict[int, Tuple[Iterable[int], FrozenSet[int]]] = {}
        for var, locs in points_to.items():
            if not 0 <= var < num_vars:
                raise ValueError(f"variable id {var} out of range")
            hit = memo.get(id(locs))
            if hit is None:
                frozen = self._checked(var, locs)
                if not frozen:
                    continue
                hit = memo[id(locs)] = (locs, frozen)
            self._points_to[var] = hit[1]

    def _checked(self, var: int, locs: Iterable[int]) -> FrozenSet[int]:
        """``locs`` frozen, after bound-checking it (min/max at C speed)."""
        frozen = frozenset(locs)
        if frozen:
            low, high = min(frozen), max(frozen)
            if low < 0 or high >= self._num_locs:
                bad = low if low < 0 else high
                raise ValueError(
                    f"pointee id {bad} in pts({var}) outside "
                    f"[0, {self._num_locs})"
                )
        return frozen

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_locs(self) -> int:
        return self._num_locs

    def points_to(self, var: int) -> FrozenSet[int]:
        """Locations ``var`` may point to (empty frozenset if none)."""
        if not 0 <= var < self._num_vars:
            raise ValueError(f"variable id {var} out of range")
        return self._points_to.get(var, frozenset())

    def intersects(self, a: int, b: int) -> bool:
        """True when ``pts(a)`` and ``pts(b)`` share a location.

        The may-alias primitive.  When the producing solver attached its
        native sets (``backing``), the test is one representation-level
        AND — word-parallel bitmap blocks or a single BDD conjunction;
        otherwise it falls back to ``frozenset.isdisjoint`` (still C
        speed, but walks hash entries rather than words).
        """
        set_a = self.points_to(a)
        if not set_a:
            return False
        set_b = self.points_to(b)
        if not set_b:
            return False
        if self._backing is not None:
            native_a = self._backing.get(a)
            native_b = self._backing.get(b)
            if native_a is not None and native_b is not None:
                return native_a.intersects(native_b)
        return not set_a.isdisjoint(set_b)

    def items(self) -> Iterable[tuple]:
        """The non-empty ``(var, pointee frozenset)`` pairs, unordered —
        the bulk-access path (one dict walk, no per-variable calls)."""
        return self._points_to.items()

    def name_of(self, var: int) -> str:
        if self._names is not None:
            return self._names[var]
        return f"v{var}"

    def by_name(self, names: Sequence[str]) -> Dict[str, FrozenSet[str]]:
        """Human-readable view: variable name -> set of pointee names."""
        return {
            names[var]: frozenset(names[loc] for loc in self.points_to(var))
            for var in range(self._num_vars)
        }

    def non_empty_count(self) -> int:
        """Number of variables with a non-empty points-to set."""
        return len(self._points_to)

    def total_size(self) -> int:
        """Sum of points-to set sizes — the solution's raw volume."""
        return sum(len(s) for s in self._points_to.values())

    def average_size(self) -> float:
        """Average points-to set size over pointers with non-empty sets."""
        if not self._points_to:
            return 0.0
        return self.total_size() / len(self._points_to)

    # ------------------------------------------------------------------
    # Comparison and transformation
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointsToSolution):
            return NotImplemented
        return self._num_vars == other._num_vars and self._points_to == other._points_to

    def __hash__(self) -> int:
        return hash((self._num_vars, frozenset(self._points_to.items())))

    def __repr__(self) -> str:
        return (
            f"PointsToSolution(vars={self._num_vars}, "
            f"pointers={self.non_empty_count()}, total={self.total_size()})"
        )

    def diff(self, other: "PointsToSolution") -> Dict[int, Dict[str, FrozenSet[int]]]:
        """Per-variable differences against another solution (for debugging).

        Returns ``{var: {"only_self": ..., "only_other": ...}}`` for each
        variable whose sets differ.
        """
        result: Dict[int, Dict[str, FrozenSet[int]]] = {}
        for var in range(max(self._num_vars, other._num_vars)):
            mine = self.points_to(var) if var < self._num_vars else frozenset()
            theirs = other.points_to(var) if var < other._num_vars else frozenset()
            if mine != theirs:
                result[var] = {"only_self": mine - theirs, "only_other": theirs - mine}
        return result

    def expand(
        self,
        var_to_rep: Sequence[int],
        loc_members: Optional[Mapping[int, Sequence[int]]] = None,
    ) -> "PointsToSolution":
        """Undo an offline substitution.

        ``var_to_rep[v]`` names the representative that carried ``v``'s
        solution during solving; each variable receives its
        representative's set.

        ``loc_members`` additionally undoes *location* merging: it maps
        each merged location representative to the full class of original
        locations it stood for inside points-to sets, so every occurrence
        of the representative expands back into its members.  Location
        classes are disjoint, so expansion preserves set intersection —
        :meth:`intersects` through a native backing stays valid.
        """
        if len(var_to_rep) != self._num_vars:
            raise ValueError("substitution map length != variable count")
        points_to = self._points_to
        if loc_members:
            # Expand each distinct compressed set object once; every
            # representative holding it shares the expanded result.
            memo: Dict[int, FrozenSet[int]] = {}
            for compressed in points_to.values():
                if id(compressed) in memo:
                    continue
                full = compressed
                if not compressed.isdisjoint(loc_members):
                    grown = set(compressed)
                    for loc in compressed:
                        members = loc_members.get(loc)
                        if members is not None:
                            grown.update(members)
                    full = frozenset(grown)
                memo[id(compressed)] = full
            points_to = {rep: memo[id(pts)] for rep, pts in points_to.items()}
        empty: FrozenSet[int] = frozenset()
        expanded = {
            var: points_to.get(var_to_rep[var], empty)
            for var in range(self._num_vars)
        }
        backing: Optional[Dict[int, "PointsToSet"]] = None
        if self._backing is not None:
            # Native sets keep compressed contents, which stays sound for
            # intersects(): compressed sets hold only class representatives
            # and classes are disjoint, so two expanded sets share a
            # location exactly when the compressed ones do.
            backing = {}
            for var in range(self._num_vars):
                native = self._backing.get(var_to_rep[var])
                if native is not None:
                    backing[var] = native
        return PointsToSolution(
            expanded, self._num_vars, self._names, num_locs=self._num_locs,
            backing=backing,
        )
