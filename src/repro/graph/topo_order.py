"""Dynamic topological ordering (Pearce & Kelly).

Support for the *original* Pearce-Kelly-Hankin solver (SCAM 2003), which
the paper discusses as the "too aggressive" end of the design space:
"the algorithm dynamically maintains a topological ordering of the
constraint graph.  Only a newly-inserted edge that violates the current
ordering could possibly create a cycle, so only in this case are cycle
detection and topological re-ordering performed."

This is the PK algorithm: on inserting ``x -> y`` with ``ord[y] < ord[x]``
(an order violation), a forward search from ``y`` and a backward search
from ``x``, both restricted to the *affected region* (order values between
``ord[y]`` and ``ord[x]``), either witness a cycle (``x`` is forward-
reachable from ``y``) or provide exactly the nodes whose order values must
be permuted to restore topological order.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set, Tuple

Successors = Callable[[int], Iterable[int]]
Predecessors = Callable[[int], Iterable[int]]


class CycleFound(Exception):
    """Raised internally when the forward search reaches the edge source."""


class DynamicTopologicalOrder:
    """Maintains a priority per node that is topological w.r.t. edges.

    Nodes are integers; the structure is oblivious to node collapsing —
    after a merge, simply stop asking about the dead node.  ``visited``
    counts nodes touched by the searches (the solver's
    ``nodes_searched`` overhead metric).
    """

    def __init__(self, size: int) -> None:
        self._ord: List[int] = list(range(size))
        self.visited = 0

    def order_of(self, node: int) -> int:
        return self._ord[node]

    def set_order(self, node: int, value: int) -> None:
        """Assign an order value directly (initial-order construction)."""
        self._ord[node] = value

    def consistent(self, src: int, dst: int) -> bool:
        """Whether edge ``src -> dst`` respects the current order."""
        return self._ord[src] < self._ord[dst]

    def grow(self, new_size: int) -> None:
        old = len(self._ord)
        if new_size < old:
            raise ValueError("cannot shrink the order")
        self._ord.extend(range(old, new_size))

    def add_edge(
        self,
        src: int,
        dst: int,
        successors: Successors,
        predecessors: Predecessors,
    ) -> Optional[Tuple[Set[int], Set[int]]]:
        """Account for a new edge ``src -> dst``.

        Returns ``None`` if the order was already consistent or was
        restored by a permutation; returns ``(forward, backward)`` —
        the affected-region search results — when the edge closes a
        cycle.  The cycle's members are
        ``(forward & backward) | {src, dst}``.
        """
        lower = self._ord[dst]
        upper = self._ord[src]
        if lower >= upper:
            return None  # order already consistent

        # Forward search from dst, restricted to ord <= upper.
        forward: Set[int] = set()
        stack = [dst]
        hit_source = False
        while stack:
            node = stack.pop()
            if node in forward:
                continue
            forward.add(node)
            self.visited += 1
            for succ in successors(node):
                if succ == src:
                    hit_source = True
                if succ not in forward and self._ord[succ] <= upper:
                    stack.append(succ)

        if hit_source or src in forward:
            # Cycle: also compute the backward region so the caller can
            # recover the member set.
            backward = self._backward(src, lower, predecessors)
            return forward, backward

        # No cycle: permute the affected region to restore order.
        backward = self._backward(src, lower, predecessors)
        self._reorder(forward, backward)
        return None

    def _backward(self, src: int, lower: int, predecessors: Predecessors) -> Set[int]:
        backward: Set[int] = set()
        stack = [src]
        while stack:
            node = stack.pop()
            if node in backward:
                continue
            backward.add(node)
            self.visited += 1
            for pred in predecessors(node):
                if pred not in backward and self._ord[pred] >= lower:
                    stack.append(pred)
        return backward

    def _reorder(self, forward: Set[int], backward: Set[int]) -> None:
        """PK reordering: backward region first, then forward region,
        reusing the same pool of order values in sorted position."""
        affected = sorted(forward | backward, key=self._ord.__getitem__)
        slots = sorted(self._ord[node] for node in affected)
        sequence = sorted(backward, key=self._ord.__getitem__) + sorted(
            forward - backward, key=self._ord.__getitem__
        )
        for node, slot in zip(sequence, slots):
            self._ord[node] = slot

    def is_topological(self, nodes: Iterable[int], successors: Successors) -> bool:
        """Check the invariant (test hook): every edge goes up in order."""
        for node in nodes:
            for succ in successors(node):
                if succ != node and self._ord[succ] <= self._ord[node]:
                    return False
        return True
