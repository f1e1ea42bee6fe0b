"""A sorted, coalescing integer interval set.

Used by the block device to track which free blocks are already zeroed
(DaxVM's asynchronous pre-zeroing, §IV-E) and by tests as a reference
structure.  Intervals are half-open ``[start, end)`` over integers.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Tuple


class IntervalSet:
    """Non-overlapping, sorted, auto-coalescing intervals."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(zip(self._starts, self._ends))

    @property
    def total(self) -> int:
        """Total integers covered."""
        return sum(e - s for s, e in self)

    def copy(self) -> "IntervalSet":
        twin = IntervalSet()
        twin._starts = list(self._starts)
        twin._ends = list(self._ends)
        return twin

    # -- mutation -----------------------------------------------------------
    def add(self, start: int, end: int) -> None:
        """Insert [start, end), merging any overlapping intervals."""
        if start >= end:
            return
        i = bisect.bisect_left(self._ends, start)
        j = bisect.bisect_right(self._starts, end)
        if i < j:
            start = min(start, self._starts[i])
            end = max(end, self._ends[j - 1])
        del self._starts[i:j]
        del self._ends[i:j]
        self._starts.insert(i, start)
        self._ends.insert(i, end)

    def remove(self, start: int, end: int) -> int:
        """Delete [start, end); returns how many integers were removed."""
        if start >= end:
            return 0
        removed = 0
        i = bisect.bisect_left(self._ends, start + 1)
        new_starts: List[int] = []
        new_ends: List[int] = []
        j = i
        while j < len(self._starts) and self._starts[j] < end:
            s, e = self._starts[j], self._ends[j]
            overlap_start = max(s, start)
            overlap_end = min(e, end)
            if overlap_start < overlap_end:
                removed += overlap_end - overlap_start
                if s < overlap_start:
                    new_starts.append(s)
                    new_ends.append(overlap_start)
                if overlap_end < e:
                    new_starts.append(overlap_end)
                    new_ends.append(e)
            else:
                new_starts.append(s)
                new_ends.append(e)
            j += 1
        self._starts[i:j] = new_starts
        self._ends[i:j] = new_ends
        return removed

    # -- queries -----------------------------------------------------------
    def overlap(self, start: int, end: int) -> int:
        """How many integers of [start, end) are covered."""
        if start >= end:
            return 0
        covered = 0
        i = bisect.bisect_left(self._ends, start + 1)
        while i < len(self._starts) and self._starts[i] < end:
            covered += (min(self._ends[i], end)
                        - max(self._starts[i], start))
            i += 1
        return covered

    def contains(self, point: int) -> bool:
        return self.overlap(point, point + 1) == 1

    def check_invariants(self) -> None:
        prev_end = None
        for s, e in self:
            assert s < e, "empty interval stored"
            if prev_end is not None:
                assert s > prev_end, "overlapping or adjacent intervals"
            prev_end = e
