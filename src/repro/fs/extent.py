"""Per-file extent maps: logical block -> physical block runs.

The extent tree is the file system's index from file offsets to device
blocks.  It is also where huge-page eligibility is decided: a 2 MB
region of a file can be mapped with a PMD leaf only when a single
extent covers it with matching 2 MB alignment on both the logical and
physical side — exactly the property fragmentation destroys on an aged
image (§III-C, §V-B of the paper).
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

from repro.errors import InvalidArgumentError
from repro.fs.block import BLOCKS_PER_PMD


class Extent:
    """A contiguous mapping of file blocks onto device blocks."""

    __slots__ = ("logical", "physical", "length")

    def __init__(self, logical: int, physical: int, length: int):
        if length <= 0:
            raise InvalidArgumentError("extent length must be positive")
        self.logical = logical
        self.physical = physical
        self.length = length

    @property
    def logical_end(self) -> int:
        return self.logical + self.length

    def physical_for(self, logical_block: int) -> int:
        if not self.logical <= logical_block < self.logical_end:
            raise InvalidArgumentError(
                f"block {logical_block} outside extent")
        return self.physical + (logical_block - self.logical)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Extent L{self.logical}->P{self.physical} x{self.length}>"


class ExtentTree:
    """Sorted extent list with append/truncate/lookup operations."""

    def __init__(self) -> None:
        self._extents: List[Extent] = []
        self._logical_starts: List[int] = []

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[Extent]:
        return iter(self._extents)

    @property
    def block_count(self) -> int:
        # Extents are dense from block 0 (``check_invariants``), so the
        # tail's end is the count.
        if not self._extents:
            return 0
        tail = self._extents[-1]
        return tail.logical + tail.length

    def copy(self) -> "ExtentTree":
        twin = ExtentTree()
        twin._extents = [Extent(e.logical, e.physical, e.length)
                         for e in self._extents]
        twin._logical_starts = list(self._logical_starts)
        return twin

    # -- mutation -----------------------------------------------------------
    def append(self, physical: int, length: int) -> Extent:
        """Map the next ``length`` file blocks onto ``physical``.

        Merges with the tail extent when physically contiguous (files
        grow densely at the end — the property DaxVM's bottom-up file
        tables exploit, §IV-A1).
        """
        logical = self.block_count
        if self._extents:
            tail = self._extents[-1]
            if tail.physical + tail.length == physical:
                tail.length += length
                return tail
        extent = Extent(logical, physical, length)
        self._extents.append(extent)
        self._logical_starts.append(logical)
        return extent

    def replace_block(self, logical_block: int, new_physical: int) -> int:
        """Point one file block at a replacement device block.

        The media-error remap path: the extent covering the block is
        split (up to three ways) so the single bad block can be
        re-pointed without disturbing its neighbours.  Returns the old
        physical block.  The logical layout stays dense, so huge-page
        geometry elsewhere in the file is untouched — only the split
        region loses PMD eligibility, exactly as a remapped extent
        does on ext4/NOVA.
        """
        idx = bisect.bisect_right(self._logical_starts, logical_block) - 1
        if idx < 0 or logical_block >= self._extents[idx].logical_end:
            raise InvalidArgumentError(
                f"replace_block: block {logical_block} is a hole")
        extent = self._extents[idx]
        old_physical = extent.physical_for(logical_block)
        before = logical_block - extent.logical
        after = extent.logical_end - (logical_block + 1)
        pieces: List[Extent] = []
        if before > 0:
            pieces.append(Extent(extent.logical, extent.physical, before))
        pieces.append(Extent(logical_block, new_physical, 1))
        if after > 0:
            pieces.append(Extent(logical_block + 1,
                                 extent.physical + before + 1, after))
        self._extents[idx:idx + 1] = pieces
        self._logical_starts[idx:idx + 1] = [e.logical for e in pieces]
        return old_physical

    def truncate_to(self, nblocks: int) -> List[Tuple[int, int]]:
        """Shrink the file to ``nblocks``; returns freed (phys, len) runs."""
        freed: List[Tuple[int, int]] = []
        while self._extents and self.block_count > nblocks:
            tail = self._extents[-1]
            excess = self.block_count - nblocks
            if tail.length <= excess:
                freed.append((tail.physical, tail.length))
                self._extents.pop()
                self._logical_starts.pop()
            else:
                keep = tail.length - excess
                freed.append((tail.physical + keep, excess))
                tail.length = keep
        return freed

    # -- lookup ---------------------------------------------------------------
    def find(self, logical_block: int) -> Optional[Extent]:
        idx = bisect.bisect_right(self._logical_starts, logical_block) - 1
        if idx < 0:
            return None
        extent = self._extents[idx]
        if logical_block < extent.logical_end:
            return extent
        return None

    def physical_block(self, logical_block: int) -> Optional[int]:
        extent = self.find(logical_block)
        return None if extent is None else extent.physical_for(logical_block)

    # -- huge-page geometry ---------------------------------------------------
    def pmd_capable(self, logical_block: int) -> bool:
        """Can the 2 MB region containing this block use a PMD leaf?

        Requires one extent to cover the whole aligned 512-block run
        with logical and physical alignment in agreement.
        """
        region_start = (logical_block // BLOCKS_PER_PMD) * BLOCKS_PER_PMD
        extent = self.find(region_start)
        if extent is None:
            return False
        # ``logical_end``/``physical_for`` inlined: every demand fault
        # region asks this, and ``find`` already bounds the extent.
        logical = extent.logical
        if logical + extent.length < region_start + BLOCKS_PER_PMD:
            return False
        physical_start = extent.physical + (region_start - logical)
        return physical_start % BLOCKS_PER_PMD == 0

    def huge_coverage(self) -> float:
        """Fraction of the file's blocks in PMD-capable 2 MB regions."""
        total = self.block_count
        if total == 0:
            return 0.0
        covered = 0
        regions = -(-total // BLOCKS_PER_PMD)
        for region in range(regions):
            start = region * BLOCKS_PER_PMD
            if (start + BLOCKS_PER_PMD <= total
                    and self.pmd_capable(start)):
                covered += BLOCKS_PER_PMD
        return covered / total

    def check_invariants(self) -> None:
        """Extents must be sorted, non-overlapping and dense."""
        expected_logical = 0
        for extent in self._extents:
            assert extent.logical == expected_logical, "logical gap"
            assert extent.length > 0
            expected_logical = extent.logical_end
        assert self._logical_starts == [e.logical for e in self._extents]
