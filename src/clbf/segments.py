"""Road segmentation and the geometry of admissible segment sequences.

A road [0, road_length_m) is split into ``count`` equal half-open
fragments, indexed 1..count outward from the roadside unit, which sits in
fragment 1. A sequence of fragment indices (listed nearest-the-RSU first)
is admissible when it starts at 1, never decreases, and never jumps by
more than one fragment per step. Those are exactly the segment sequences a
packet can collect while being relayed inward hop by hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

__all__ = [
    "CoverageError",
    "ResourceCapError",
    "SegmentDictionary",
    "count_valid_sequences",
    "enumerate_valid_sequences",
    "is_valid_sequence",
]

ENUMERATION_CAP = 10_000_000


class CoverageError(ValueError):
    """A coordinate falls outside the segmented road."""


class ResourceCapError(RuntimeError):
    """An enumeration would exceed its guard cap."""


# Bytes one input-sized array may hold: a batch of the simulation engine
# (`_batch.BATCH_BYTES`) or a filter unpacked to one byte per bit
# (`BloomFilter.contains_hashes`); past it, ResourceCapError.
BUDGET_BYTES = 1 << 26


@dataclass(frozen=True)
class SegmentDictionary:
    """Uniform fragmentation of a road into equal half-open intervals."""

    road_length_m: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"segment count {self.count} must be >= 1")
        if not self.road_length_m > 0:
            raise ValueError(f"road length {self.road_length_m} must be positive")

    @property
    def segment_length_m(self) -> float:
        return self.road_length_m / self.count

    def locate(self, coordinate_m: float) -> int:
        """1-based index of the fragment containing ``coordinate_m``."""
        if not 0 <= coordinate_m < self.road_length_m:
            raise CoverageError(
                f"coordinate {coordinate_m} outside [0, {self.road_length_m})"
            )
        idx = int(coordinate_m // self.segment_length_m) + 1
        # float division can land exactly on the upper boundary; clamp back
        return min(idx, self.count)


def is_valid_sequence(sequence: Sequence[int], num_segments: int) -> bool:
    """True iff the sequence could be collected on an inward relay chain.

    Starts at fragment 1, is non-decreasing, and each step differs by at
    most one. Anything empty or out of range is invalid.
    """
    if num_segments < 1:
        raise ValueError(f"segment count {num_segments} must be >= 1")
    if not sequence or sequence[0] != 1:
        return False
    prev = sequence[0]
    for cur in sequence[1:]:
        if cur - prev not in (0, 1):
            return False
        prev = cur
    return 1 <= prev <= num_segments


def enumerate_valid_sequences(num_segments: int, length: int) -> list[tuple[int, ...]]:
    """All admissible sequences of the given length, lexicographic order.

    Raises ResourceCapError when there are more than `ENUMERATION_CAP`.
    """
    total = count_valid_sequences(num_segments, length)
    if total > ENUMERATION_CAP:
        raise ResourceCapError(
            f"{total} sequences exceed the enumeration cap of {ENUMERATION_CAP}"
        )
    return list(_walk(num_segments, length))


def _walk(num_segments: int, length: int) -> Iterator[tuple[int, ...]]:
    if length < 1:
        return
    stack: list[int] = [1]
    while stack:
        if len(stack) == length:
            yield tuple(stack)
            # backtrack to the deepest position that can still step up
            while stack:
                last = stack.pop()
                if stack and last == stack[-1] and last < num_segments:
                    stack.append(last + 1)
                    break
        else:
            stack.append(stack[-1])


def count_valid_sequences(num_segments: int, length: int) -> int:
    """Exact count of admissible sequences: sum_i C(length-1, i-1).

    ``i`` is the highest fragment reached; choosing which of the length-1
    steps are the i-1 upward ones determines the sequence.
    """
    if num_segments < 1:
        raise ValueError(f"segment count {num_segments} must be >= 1")
    if length < 1:
        raise ValueError(f"sequence length {length} must be >= 1")
    return sum(comb(length - 1, i - 1) for i in range(1, min(num_segments, length) + 1))
