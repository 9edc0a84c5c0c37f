"""Bignum ("intset") points-to sets: one Python int per set.

The fourth representation, and the one the certifier already proved out
(``verify/certifier.py`` re-derives the least model with plain ints at a
fraction of solve cost).  Every set is a thin handle onto a canonical
arbitrary-precision integer interned in the family's
:class:`~repro.datastructs.intern_table.IntInternTable`:

- union/subset/difference/intersection are single word-parallel bignum
  expressions (``|``, ``&~``, ``&``) executed in C, not per-block dict
  probes;
- interning gives equal values one int object and a monotone id, so
  ``same_as`` — the Lazy Cycle Detection trigger — hits a pointer
  comparison first, and the table's union/add/offset memos turn repeated
  propagation steps into dict hits (the MDE operation-dedup direction);
- ``copy`` is free: the handle shares the immutable canonical int until
  a mutation re-points it.

The family also carries the certifier's deref union-cache trick for the
fused solver kernel: :meth:`IntPointsToFamily.deref_union` folds the
points-to sets of freshly-discovered pointees into a per-constraint
accumulated union, so a load ``x = *p`` applies one cached whole-set
union to ``x`` instead of one union per pointee.

Memory accounting is liveness-based and value-deduplicated: the family
weakly tracks every live handle and charges each distinct backing int
once (by object identity — canonicalization makes equal values the same
object), plus the table's bookkeeping.  That keeps the books consistent
across backing switches: when a handle's value is re-interned after an
eviction, or a :class:`SparseBitmap` is promoted word-parallel via
:func:`~repro.datastructs.intset.bits_from_sparse_bitmap`, the next
accounting pass simply sums what is live — nothing is double- or
stale-counted.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.datastructs.intern_table import (
    DEFAULT_MEMO_CAPACITY,
    InternStats,
    IntInternTable,
)
from repro.datastructs.intset import (
    IntBitSet,
    bits_from_iter,
    int_memory_bytes,
    iter_bits,
)
from repro.points_to.interface import PointsToFamily


class IntPointsToSet:
    """A points-to set handle onto one canonical interned bignum."""

    __slots__ = ("bits", "node_id", "_table", "__weakref__")

    def __init__(self, table: IntInternTable, bits: int, node_id: int) -> None:
        self._table = table
        self.bits = bits
        self.node_id = node_id

    def add(self, loc: int) -> bool:
        bits, node_id = self._table.with_added(self.bits, self.node_id, loc)
        if node_id == self.node_id:
            return False
        self.bits = bits
        self.node_id = node_id
        return True

    def ior_and_test(self, other: "IntPointsToSet") -> bool:
        if other.node_id == self.node_id:
            # Same interned value: the union is a no-op.
            return False
        bits, node_id = self._table.union(
            self.bits, self.node_id, other.bits, other.node_id
        )
        if node_id == self.node_id:
            return False
        self.bits = bits
        self.node_id = node_id
        return True

    def ior_bits_and_test(self, bits: int, node_id: int) -> bool:
        """Fused-kernel entry: union a canonical ``(bits, id)`` pair in."""
        if node_id == self.node_id:
            return False
        merged_bits, merged_id = self._table.union(
            self.bits, self.node_id, bits, node_id
        )
        if merged_id == self.node_id:
            return False
        self.bits = merged_bits
        self.node_id = merged_id
        return True

    def contains(self, loc: int) -> bool:
        return bool((self.bits >> loc) & 1)

    def intersects(self, other: "IntPointsToSet") -> bool:
        return bool(self.bits & other.bits)

    def same_as(self, other: "IntPointsToSet") -> bool:
        # Canonical values alias one object; `is` catches the common case
        # before any digit comparison.  ids may differ for equal values
        # only after a table eviction, so fall through to value equality.
        return self.bits is other.bits or self.bits == other.bits

    def copy(self) -> "IntPointsToSet":
        return self._table_family_copy()

    def _table_family_copy(self) -> "IntPointsToSet":
        return IntPointsToSet(self._table, self.bits, self.node_id)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __repr__(self) -> str:
        return f"IntPointsToSet(id={self.node_id}, {sorted(self)!r})"


class IntPointsToFamily(PointsToFamily):
    """One int intern table shared by every set of a solver run."""

    name = "int"
    constant_time_equality = True
    #: Signals the solvers' fused word-parallel propagate kernel.
    fused_kernel = True

    def __init__(self, memo_capacity: int = DEFAULT_MEMO_CAPACITY) -> None:
        self.table = IntInternTable(memo_capacity=memo_capacity)
        #: Handles ever created (numerator of the dedup ratio).
        self.sets_made = 0
        #: Live handles, tracked weakly for value-deduplicated accounting.
        self._live: "weakref.WeakSet[IntPointsToSet]" = weakref.WeakSet()
        #: (kind, constraint index) -> accumulated deref union (bits, id).
        #: The certifier's deref-cache: monotone per-constraint unions of
        #: dereferenced sets, grown as new pointees surface.
        self._deref_cache: Dict[Tuple[str, int], Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Factory
    # ------------------------------------------------------------------

    def make(self) -> IntPointsToSet:
        self.sets_made += 1
        made = IntPointsToSet(self.table, 0, self.table.empty_id)
        self._live.add(made)
        return made

    def make_from(self, locs: Iterable[int]) -> IntPointsToSet:
        return self.make_from_bits(bits_from_iter(locs))

    def make_from_bits(self, bits: int) -> IntPointsToSet:
        """A set born whole from a raw bignum (fused-kernel deltas)."""
        self.sets_made += 1
        canon, node_id = self.table.intern(bits)
        made = IntPointsToSet(self.table, canon, node_id)
        self._live.add(made)
        return made

    def make_scratch(self) -> IntBitSet:
        """Solver scratch state (done-sets, prev-sets) in kernel layout,
        so the fused path diffs them against points-to sets bit-wise."""
        return IntBitSet()

    # ------------------------------------------------------------------
    # Fused-kernel services
    # ------------------------------------------------------------------

    def deref_union(
        self, cache_key: Tuple[str, int], fresh: Iterable[Tuple[int, int]]
    ) -> Tuple[int, int]:
        """Accumulated union of dereferenced sets for one constraint.

        ``fresh`` yields the canonical ``(bits, id)`` pairs of pointees
        not seen by this constraint before; the cache carries the union
        of everything seen so far, so a load applies one whole-set union
        per visit no matter how many pointees ever flowed through it.
        Cache hits are semantically invisible: the accumulated value is
        always the exact union of the sets folded in.
        """
        bits, node_id = self._deref_cache.get(cache_key, (0, self.table.empty_id))
        for other_bits, other_id in fresh:
            bits, node_id = self.table.union(bits, node_id, other_bits, other_id)
        self._deref_cache[cache_key] = (bits, node_id)
        return bits, node_id

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Bytes of distinct live backing values plus table bookkeeping.

        Dedup is by backing-object identity: canonicalization aliases
        equal values to one int, so a thousand handles on one value cost
        one bignum.  Summing over *live* handles (not table entries)
        keeps the count consistent through backing switches — evicted
        table entries whose value is still referenced stay counted, and
        dead intermediates are never charged.
        """
        seen: Dict[int, int] = {}
        for handle in self._live:
            bits = handle.bits
            seen.setdefault(id(bits), int_memory_bytes(bits))
        return sum(seen.values()) + self.table.table_overhead_bytes()

    def intern_stats(self) -> Optional[InternStats]:
        return self.table.stats_snapshot()
