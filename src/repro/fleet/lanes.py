"""Bit-lane planes for fleet-scale batched simulation.

A *plane* holds one Boolean per fleet instance as a plain Python int:
bit ``i`` of the plane is the value for lane ``i``.  Evaluating a
compiled reaction kernel then becomes a straight-line sequence of
``&``/``|``/``^`` operations on planes — SIMD-within-a-register over the
whole fleet at once, where CPython's big-int bitwise ops run one C loop
over thousands of lanes.

A block of ``n`` lanes has the lane mask ``(1 << n) - 1``.  The
complement of a plane is always computed as ``plane ^ mask`` (never
``~plane``): it keeps planes non-negative and free of bits beyond the
last lane, so popcounts and digests need no re-masking.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["LaneCounter", "select"]


def select(cond: int, then: int, other: int) -> int:
    """Lane-wise multiplexer: ``then`` where ``cond`` is set, else ``other``.

    ``f ^ ((f ^ t) & c)`` — two XORs and one AND.
    """
    return other ^ ((other ^ then) & cond)


class LaneCounter:
    """A per-lane event counter held as bit planes (LSB-first ripple carry).

    ``add(plane)`` increments the counter of every lane whose bit is set.
    The carry chain is walked only while the carry plane is non-zero, so
    an increment is O(1) amortized; the counter grows a plane exactly
    when some lane's count crosses a power of two.
    """

    def __init__(self, lanes: int):
        self.n = lanes
        self.planes: List[int] = []

    def add(self, plane: int) -> None:
        if not plane:
            return
        carry = plane
        for i, p in enumerate(self.planes):
            self.planes[i] = p ^ carry
            carry = p & carry
            if not carry:
                return
        self.planes.append(carry)

    def lane(self, lane: int) -> int:
        """The count of one lane."""
        return sum(((p >> lane) & 1) << i for i, p in enumerate(self.planes))

    def total(self) -> int:
        """Sum of all lane counts."""
        # bin().count rather than int.bit_count, which needs Python 3.10.
        return sum(bin(p).count("1") << i for i, p in enumerate(self.planes))

    def lanes(self, count: Optional[int] = None) -> List[int]:
        """Counts of the first ``count`` lanes (all lanes by default)."""
        n = self.n if count is None else count
        return [self.lane(lane) for lane in range(n)]
