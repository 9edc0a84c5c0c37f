"""GCC-style sparse bitmap.

The paper's bitmap-based implementations take their points-to set
representation from the GCC 4.1.1 compiler (``bitmap.c``): a sorted sequence
of *elements*, each covering a fixed-width window of the index space and
holding one machine word bit-vector per window.  Only windows containing at
least one set bit are materialized, so the structure is compact for both
dense clusters and sparse outliers.

This module reproduces that design in Python.  Each element covers
``BITS_PER_BLOCK`` consecutive indices and stores its bits in a single Python
integer.  Elements live in a dict keyed by block index; the dict plays the
role of GCC's sorted linked list (Python dicts give O(1) lookup, and we sort
keys only on ordered iteration).

The operation profile matters more than the container: the hot loop of every
bitmap-based solver is ``ior_and_test`` (destructive union that reports
whether anything changed), which GCC calls ``bitmap_ior_into``.  We keep the
element count and a cached population count so that equality checks — the
trigger condition of Lazy Cycle Detection — are cheap.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Number of bits covered by one element.  GCC uses 2 words x 64 bits = 128
#: on 64-bit hosts; we follow suit.
BITS_PER_BLOCK = 128

_BLOCK_MASK = (1 << BITS_PER_BLOCK) - 1


class SparseBitmap:
    """A set of non-negative integers stored as a sparse bitmap.

    Supports the standard set protocol (``in``, ``len``, iteration,
    comparison) plus the destructive union primitives the solvers need.

    >>> s = SparseBitmap([1, 200, 3])
    >>> sorted(s)
    [1, 3, 200]
    >>> s.add(4096)
    True
    >>> 4096 in s
    True
    """

    __slots__ = ("_blocks", "_count")

    def __init__(self, items: Optional[Iterable[int]] = None) -> None:
        self._blocks: Dict[int, int] = {}
        self._count: int = 0
        if items is not None:
            for item in items:
                self.add(item)

    # ------------------------------------------------------------------
    # Single-bit operations
    # ------------------------------------------------------------------

    def add(self, item: int) -> bool:
        """Set bit ``item``.  Return ``True`` if the bit was newly set."""
        if item < 0:
            raise ValueError(f"sparse bitmap holds non-negative ints, got {item}")
        block_index, bit = divmod(item, BITS_PER_BLOCK)
        mask = 1 << bit
        word = self._blocks.get(block_index, 0)
        if word & mask:
            return False
        self._blocks[block_index] = word | mask
        self._count += 1
        return True

    def discard(self, item: int) -> bool:
        """Clear bit ``item``.  Return ``True`` if the bit had been set."""
        if item < 0:
            return False
        block_index, bit = divmod(item, BITS_PER_BLOCK)
        word = self._blocks.get(block_index)
        if word is None:
            return False
        mask = 1 << bit
        if not word & mask:
            return False
        word &= ~mask
        if word:
            self._blocks[block_index] = word
        else:
            del self._blocks[block_index]
        self._count -= 1
        return True

    def __contains__(self, item: int) -> bool:
        if item < 0:
            return False
        block_index, bit = divmod(item, BITS_PER_BLOCK)
        word = self._blocks.get(block_index)
        return word is not None and bool(word & (1 << bit))

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------

    def ior_and_test(self, other: "SparseBitmap") -> bool:
        """Destructive union: ``self |= other``.  Return ``True`` on change.

        This is the propagation primitive (GCC's ``bitmap_ior_into``): the
        solvers' inner loop is ``pts(z) |= pts(n)`` followed by a changed
        test, and fusing the two avoids a second pass.
        """
        if other is self or not other._count:
            return False
        changed = False
        blocks = self._blocks
        for block_index, other_word in other._blocks.items():
            word = blocks.get(block_index, 0)
            merged = word | other_word
            if merged != word:
                blocks[block_index] = merged
                self._count += _popcount(merged) - _popcount(word)
                changed = True
        return changed

    def ior(self, other: "SparseBitmap") -> None:
        """Destructive union without the changed test."""
        self.ior_and_test(other)

    def iand(self, other: "SparseBitmap") -> bool:
        """Destructive intersection.  Return ``True`` on change."""
        changed = False
        for block_index in list(self._blocks):
            word = self._blocks[block_index]
            other_word = other._blocks.get(block_index, 0)
            merged = word & other_word
            if merged != word:
                changed = True
                if merged:
                    self._blocks[block_index] = merged
                else:
                    del self._blocks[block_index]
                self._count += _popcount(merged) - _popcount(word)
        return changed

    def difference_update(self, other: "SparseBitmap") -> bool:
        """Destructive difference: ``self -= other``.  Return ``True`` on change."""
        changed = False
        for block_index, other_word in other._blocks.items():
            word = self._blocks.get(block_index)
            if word is None:
                continue
            merged = word & ~other_word
            if merged != word:
                changed = True
                if merged:
                    self._blocks[block_index] = merged
                else:
                    del self._blocks[block_index]
                self._count += _popcount(merged) - _popcount(word)
        return changed

    def intersects(self, other: "SparseBitmap") -> bool:
        """Return ``True`` if the two bitmaps share any bit."""
        small, large = (
            (self, other) if len(self._blocks) <= len(other._blocks) else (other, self)
        )
        for block_index, word in small._blocks.items():
            other_word = large._blocks.get(block_index)
            if other_word is not None and word & other_word:
                return True
        return False

    def same_as(self, other: "SparseBitmap") -> bool:
        """Set equality, cheapest checks first.

        Identity, then the cached population counts (so unequal sets are
        rejected without touching a single block), then block contents.
        This is the bitmap family's LCD trigger condition.
        """
        if other is self:
            return True
        return self._count == other._count and self._blocks == other._blocks

    def issubset(self, other: "SparseBitmap") -> bool:
        if self._count > other._count:
            return False
        for block_index, word in self._blocks.items():
            other_word = other._blocks.get(block_index, 0)
            if word & ~other_word:
                return False
        return True

    def difference_iter(self, other: "SparseBitmap") -> Iterator[int]:
        """Yield elements of ``self`` that are not in ``other``, ascending.

        Used by incremental ("difference propagation") solver variants and
        by the BLQ incrementalization when extracting newly discovered
        points-to facts.
        """
        for block_index in sorted(self._blocks):
            word = self._blocks[block_index] & ~other._blocks.get(block_index, 0)
            base = block_index * BITS_PER_BLOCK
            while word:
                low = word & -word
                yield base + low.bit_length() - 1
                word ^= low

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        for block_index in sorted(self._blocks):
            word = self._blocks[block_index]
            base = block_index * BITS_PER_BLOCK
            while word:
                low = word & -word
                yield base + low.bit_length() - 1
                word ^= low

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseBitmap):
            return self.same_as(other)
        if isinstance(other, (set, frozenset)):
            return self._count == len(other) and all(item in self for item in other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:  # pragma: no cover - explicit unhashability
        raise TypeError("SparseBitmap is mutable and unhashable")

    def __repr__(self) -> str:
        preview: List[int] = []
        for item in self:
            preview.append(item)
            if len(preview) > 8:
                return f"SparseBitmap({preview[:8]}... {self._count} items)"
        return f"SparseBitmap({preview})"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def copy(self) -> "SparseBitmap":
        clone = SparseBitmap()
        clone._blocks = dict(self._blocks)
        clone._count = self._count
        return clone

    def content_key(self) -> Tuple[Tuple[int, int], ...]:
        """Hashable canonical form: sorted ``(block_index, word)`` pairs.

        Two bitmaps hold the same elements iff their content keys are
        equal — the interning key of ``datastructs.intern_table``.
        """
        return tuple(sorted(self._blocks.items()))

    def clear(self) -> None:
        self._blocks.clear()
        self._count = 0

    def min(self) -> int:
        """Smallest element.  Raises ``ValueError`` on an empty bitmap."""
        if not self._blocks:
            raise ValueError("min() of an empty SparseBitmap")
        block_index = min(self._blocks)
        word = self._blocks[block_index]
        low = word & -word
        return block_index * BITS_PER_BLOCK + low.bit_length() - 1

    def max(self) -> int:
        """Largest element.  Raises ``ValueError`` on an empty bitmap."""
        if not self._blocks:
            raise ValueError("max() of an empty SparseBitmap")
        block_index = max(self._blocks)
        word = self._blocks[block_index]
        return block_index * BITS_PER_BLOCK + word.bit_length() - 1

    @property
    def block_count(self) -> int:
        """Number of materialized elements — the memory-accounting unit."""
        return len(self._blocks)

    def memory_bytes(self) -> int:
        """Analytic memory footprint, modelled on GCC's element layout.

        Each GCC bitmap element is two 64-bit words of payload plus two
        pointers and an index: 5 x 8 = 40 bytes.  The head adds one element's
        worth of bookkeeping.
        """
        return 40 * (len(self._blocks) + 1)


def _popcount(word: int) -> int:
    return bin(word).count("1")


# Python >= 3.10 has int.bit_count, which is substantially faster.
if hasattr(int, "bit_count"):  # pragma: no branch

    def _popcount(word: int) -> int:  # noqa: F811 - intentional fast path
        return word.bit_count()
