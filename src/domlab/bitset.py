"""Vertex sets as int bitmasks.

Every subset of vertices in domlab is a plain Python int: bit v is set iff
vertex v is a member. Python ints are arbitrary precision, so the same code
serves any n; the package is tuned for the small-n regime (n <= 64-ish).
"""

from __future__ import annotations

from typing import Iterable, Iterator

VertexSet = int


def bitmask(vertices: Iterable[int]) -> VertexSet:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: VertexSet) -> Iterator[int]:
    """Yield set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members(mask: VertexSet) -> list[int]:
    """Sorted list of vertex ids in the set."""
    return list(iter_bits(mask))

