"""Bignum-backed bitsets: one arbitrary-precision integer per set.

The verification layer's certifier (``verify/certifier.py``) re-derives
the least Andersen model at a fraction of solve cost by storing every
points-to set as a single Python ``int`` and doing subset/union/
difference as word-parallel ``&``, ``|``, ``&~`` — one interpreter
dispatch per *operation* instead of one per block (sparse bitmaps) or
per element (builtin sets).  This module promotes that engine from the
checker to the solvers: :class:`IntBitSet` is a mutable set over the
same representation exposing the slice of the :class:`SparseBitmap` API
the solver machinery consumes, so the graph's difference-processing
state (processed-pointee sets, difference-propagation ``prev`` sets)
can switch backing per points-to family.

The representation trade-off versus the GCC element layout: a bignum is
*dense* from bit 0 to its highest set bit, so it loses on sets holding a
few huge outliers — but location ids are variable ids, bounded by the
constraint system's variable count, and Andersen points-to sets cluster
densely in that space.  At one 64-bit word per 64 locations the constant
factor beats one dict probe per 128-bit block by a wide margin.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

#: Modelled bytes of the CPython ``int`` object header (type pointer,
#: refcount, digit count) charged per live bignum.
INT_HEADER_BYTES = 28

_WORD_BITS = 64


def bits_from_iter(locs: Iterable[int]) -> int:
    """Pack an iterable of non-negative ints into one bignum bitset."""
    bits = 0
    for loc in locs:
        bits |= 1 << loc
    return bits


def bits_from_sparse_bitmap(bitmap) -> int:
    """Word-parallel promotion of a :class:`SparseBitmap` to a bignum.

    Each materialized block is shifted into place whole — no per-element
    decoding — which is the ``bitmap -> intset`` backing-switch path.
    """
    from repro.datastructs.sparse_bitmap import BITS_PER_BLOCK

    bits = 0
    for block_index, word in bitmap._blocks.items():
        bits |= word << (block_index * BITS_PER_BLOCK)
    return bits


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def int_memory_bytes(bits: int) -> int:
    """Modelled footprint of one bignum bitset: header plus payload words."""
    return INT_HEADER_BYTES + 8 * ((bits.bit_length() + _WORD_BITS - 1) // _WORD_BITS)


class IntBitSet:
    """A mutable set of non-negative integers stored as one bignum.

    API-compatible with the slice of :class:`SparseBitmap` the solver
    shell uses for its difference-processing state (``complex_done``,
    ``prev_pts``, the HCD done-sets): membership, ``add``/``discard``,
    destructive union/intersection/difference, ``copy`` and ascending
    iteration.  The fused solver kernel reaches through ``.bits`` to run
    whole-set operations as single bignum expressions.
    """

    __slots__ = ("bits",)

    def __init__(self, items: Optional[Iterable[int]] = None) -> None:
        self.bits = 0
        if items is not None:
            for item in items:
                if item < 0:
                    raise ValueError(
                        f"int bitset holds non-negative ints, got {item}"
                    )
                self.bits |= 1 << item

    @classmethod
    def from_bits(cls, bits: int) -> "IntBitSet":
        made = cls()
        made.bits = bits
        return made

    # ------------------------------------------------------------------
    # Single-bit operations
    # ------------------------------------------------------------------

    def add(self, item: int) -> bool:
        if item < 0:
            raise ValueError(f"int bitset holds non-negative ints, got {item}")
        mask = 1 << item
        if self.bits & mask:
            return False
        self.bits |= mask
        return True

    def discard(self, item: int) -> bool:
        if item < 0:
            return False
        mask = 1 << item
        if not self.bits & mask:
            return False
        self.bits ^= mask
        return True

    def __contains__(self, item: int) -> bool:
        return item >= 0 and bool((self.bits >> item) & 1)

    # ------------------------------------------------------------------
    # Bulk operations (word-parallel)
    # ------------------------------------------------------------------

    def ior_and_test(self, other: "IntBitSet") -> bool:
        merged = self.bits | other.bits
        if merged == self.bits:
            return False
        self.bits = merged
        return True

    def ior(self, other: "IntBitSet") -> None:
        self.bits |= other.bits

    def iand(self, other: "IntBitSet") -> bool:
        merged = self.bits & other.bits
        if merged == self.bits:
            return False
        self.bits = merged
        return True

    def difference_update(self, other: "IntBitSet") -> bool:
        merged = self.bits & ~other.bits
        if merged == self.bits:
            return False
        self.bits = merged
        return True

    def intersects(self, other: "IntBitSet") -> bool:
        return bool(self.bits & other.bits)

    def same_as(self, other: "IntBitSet") -> bool:
        return self.bits == other.bits

    def difference_iter(self, other: "IntBitSet") -> Iterator[int]:
        return iter_bits(self.bits & ~other.bits)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntBitSet):
            return self.bits == other.bits
        if isinstance(other, (set, frozenset)):
            return self.bits == bits_from_iter(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:  # pragma: no cover - explicit unhashability
        raise TypeError("IntBitSet is mutable and unhashable")

    def __repr__(self) -> str:
        preview: List[int] = []
        for item in self:
            preview.append(item)
            if len(preview) > 8:
                return f"IntBitSet({preview[:8]}... {len(self)} items)"
        return f"IntBitSet({preview})"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def copy(self) -> "IntBitSet":
        clone = IntBitSet()
        clone.bits = self.bits
        return clone

    def clear(self) -> None:
        self.bits = 0

    def min(self) -> int:
        if not self.bits:
            raise ValueError("min() of an empty IntBitSet")
        return (self.bits & -self.bits).bit_length() - 1

    def max(self) -> int:
        if not self.bits:
            raise ValueError("max() of an empty IntBitSet")
        return self.bits.bit_length() - 1

    def memory_bytes(self) -> int:
        return int_memory_bytes(self.bits)
