"""Protocol shared by all points-to set representations."""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, runtime_checkable


@runtime_checkable
class PointsToSet(Protocol):
    """A mutable set of abstract location ids.

    Implementations must make ``same_as`` cheap — it is the trigger
    condition of Lazy Cycle Detection and runs on every propagation.
    """

    def add(self, loc: int) -> bool:
        """Insert ``loc``; return ``True`` if it was new."""

    def ior_and_test(self, other: "PointsToSet") -> bool:
        """Union ``other`` into self; return ``True`` on change.

        ``other`` is always from the same family.
        """

    def contains(self, loc: int) -> bool:
        """Membership test."""

    def intersects(self, other: "PointsToSet") -> bool:
        """True when the two sets share any location (same family).

        The representation-native AND — word-parallel on bitmap blocks,
        one ``apply_and`` on BDDs — without materializing the
        intersection.  This is the alias-query primitive.
        """

    def same_as(self, other: "PointsToSet") -> bool:
        """Set equality with another set of the same family."""

    def copy(self) -> "PointsToSet":
        """An independent copy."""

    def __iter__(self) -> Iterator[int]:
        """Iterate the member locations (ascending)."""

    def __len__(self) -> int:
        """Cardinality."""


class PointsToFamily:
    """Factory and accounting scope for one representation.

    A *family* owns whatever shared state the representation needs (the BDD
    family shares one manager across every set, which is where the memory
    savings come from) and knows how to account memory for the sets it
    made.
    """

    #: Short name used by the solver registry and the benchmarks.
    name: str = "abstract"

    #: True when ``same_as`` is O(1) (canonical representations: BDD node
    #: ids, interned ``int`` values).  Solvers use it to gate equality
    #: fast paths that would cost a scan on plain bitmaps.
    constant_time_equality: bool = False

    #: True when the family supports the solvers' fused word-parallel
    #: propagate kernel (whole-set bignum diffs; the ``int`` family).
    fused_kernel: bool = False

    def make(self) -> PointsToSet:
        raise NotImplementedError

    def make_scratch(self):
        """Solver-side scratch set (processed-pointee and difference-
        propagation state), in whatever layout diffs cheapest against
        this family's points-to sets.  Defaults to a sparse bitmap."""
        from repro.datastructs.sparse_bitmap import SparseBitmap

        return SparseBitmap()

    def make_from(self, locs: Iterable[int]) -> PointsToSet:
        """A set holding exactly ``locs``.

        Families with canonicalization overhead per mutation override
        this to build the value in one step (the solvers' difference
        sets are born whole, never grown).
        """
        made = self.make()
        for loc in locs:
            made.add(loc)
        return made

    def memory_bytes(self) -> int:
        """Total bytes attributable to the sets created by this family."""
        raise NotImplementedError

    def intern_stats(self):
        """Hash-consing counters (``int`` family only), else ``None``."""
        return None


#: Registered representation names, in the benchmarks' comparison order.
FAMILY_KINDS = ("bitmap", "bdd", "int")


def make_family(kind: str, num_locs: int) -> PointsToFamily:
    """Build a points-to family: ``"bitmap"``, ``"bdd"`` or ``"int"``.

    ``num_locs`` bounds the location ids the sets will hold (the BDD family
    sizes its domain from it; the other families ignore it).
    """
    # Imported here to avoid a cycle with the implementation modules.
    from repro.points_to.bdd_set import BDDPointsToFamily
    from repro.points_to.bitmap_set import BitmapPointsToFamily
    from repro.points_to.intset import IntPointsToFamily

    if kind == "bitmap":
        return BitmapPointsToFamily()
    if kind == "bdd":
        return BDDPointsToFamily(num_locs)
    if kind == "int":
        return IntPointsToFamily()
    raise ValueError(
        f"unknown points-to representation {kind!r} "
        f"(want one of {', '.join(repr(k) for k in FAMILY_KINDS)})"
    )
