"""The PMem block device and its extent-based free-space allocator.

Blocks are 4 KB and map 1:1 onto PMem frames (block ``b`` is frame
``base_frame + b``), so a file's extent map directly yields the
physical frames that DAX mappings and DaxVM file tables point at.

The allocator is a first-fit extent allocator with address-ordered
coalescing — deliberately simple but *honest about fragmentation*: it
prefers contiguous, 2 MB-aligned carving when asked (the huge-page
friendly path), and after the Geriatrix-style aging of
:mod:`repro.fs.aging` has churned it, large aligned extents become
scarce and the huge-page coverage of new files drops.  That emergent
scarcity is what drives every "aged image" result in the paper.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from repro.errors import NoSpaceError

BLOCK_SIZE = 4096
BLOCKS_PER_PMD = (2 << 20) // BLOCK_SIZE  # 512


class FreeExtent:
    """A contiguous run of free blocks."""

    __slots__ = ("start", "length")

    def __init__(self, start: int, length: int):
        self.start = start
        self.length = length

    @property
    def end(self) -> int:
        return self.start + self.length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Free {self.start}+{self.length}>"


class BlockDevice:
    """A PMem-backed block device with extent allocation."""

    def __init__(self, size_bytes: int, base_frame: int = 1 << 30,
                 frame_map=None):
        if size_bytes % BLOCK_SIZE:
            raise ValueError("device size must be block aligned")
        self.total_blocks = size_bytes // BLOCK_SIZE
        self.base_frame = base_frame
        #: Optional non-linear block->frame map (an interleaved NUMA
        #: placement, repro.topology.InterleaveMap).  ``None`` keeps
        #: the historical linear ``base_frame + block`` layout.
        self.frame_map = frame_map
        #: Free extents sorted by start block.
        self._free: List[FreeExtent] = [FreeExtent(0, self.total_blocks)]
        self._starts: List[int] = [0]
        self.free_blocks = self.total_blocks
        #: (nblocks, align) requests known to have no contiguous fit;
        #: cleared on free.  Keeps repeated chunked allocations cheap.
        self._contig_fail_hint: set = set()
        #: Next-fit goal cursor (index into the free list).
        self._cursor = 0
        #: Blocks with uncorrectable media errors (the pmem badblocks
        #: list).  Consulted by the FS read/append paths; maintained by
        #: repro.faults arming, ``memory_failure()`` poisoning and the
        #: clear-poison path.  Empty in ordinary runs.
        self.badblocks: set = set()
        #: Blocks permanently retired after an error (never returned
        #: to the free pool again).  Capacity lost to media wear.
        self.quarantined: set = set()

    def copy(self) -> "BlockDevice":
        """An independent device with this one's allocator state and
        badblocks, over the same frames."""
        twin = object.__new__(BlockDevice)
        twin.__dict__.update(self.__dict__)
        twin._free = [FreeExtent(e.start, e.length) for e in self._free]
        twin._starts = list(self._starts)
        twin._contig_fail_hint = set(self._contig_fail_hint)
        twin.badblocks = set(self.badblocks)
        twin.quarantined = set(self.quarantined)
        return twin

    # -- helpers -------------------------------------------------------------
    def frame_of(self, block: int) -> int:
        """The physical frame number backing a block."""
        if self.frame_map is not None:
            return self.frame_map.frame_of(block)
        return self.base_frame + block

    def frames_of(self, block: int, count: int) -> Sequence[int]:
        """Frames backing ``count`` consecutive blocks from ``block``."""
        if self.frame_map is not None:
            frame_of = self.frame_map.frame_of
            return [frame_of(b) for b in range(block, block + count)]
        base = self.base_frame + block
        return range(base, base + count)

    def block_of(self, frame: int) -> int:
        """Inverse of :meth:`frame_of` (needed when metadata blocks
        are freed by frame number)."""
        if self.frame_map is not None:
            return self.frame_map.block_of(frame)
        return frame - self.base_frame

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self.free_blocks

    @property
    def utilization(self) -> float:
        return self.used_blocks / self.total_blocks

    # -- media errors (badblocks list) --------------------------------------
    def mark_bad(self, block: int) -> None:
        """Record an uncorrectable error against a block."""
        if not 0 <= block < self.total_blocks:
            raise ValueError(f"badblock {block} outside device")
        self.badblocks.add(block)

    def clear_bad(self, block: int) -> None:
        """Clear-poison succeeded: the block is serviceable again."""
        self.badblocks.discard(block)

    def is_bad(self, block: int) -> bool:
        return block in self.badblocks

    def quarantine(self, block: int) -> None:
        """Permanently retire an in-use block after a remap.

        The block leaves the badblocks list (its error has been dealt
        with) and joins the quarantined set; :meth:`free` will never
        return it to the free pool, so the allocator can never hand it
        to another file.
        """
        self.badblocks.discard(block)
        self.quarantined.add(block)

    # -- allocation ---------------------------------------------------------
    #: Extents inspected around the goal cursor when hunting for an
    #: aligned contiguous fit (models ext4 mballoc's goal-local search:
    #: it does not scan the whole disk for alignment).
    GOAL_WINDOW = 32

    def alloc(self, nblocks: int, align: int = 1,
              prefer_contiguous: bool = True) -> List[Tuple[int, int]]:
        """Allocate ``nblocks``; returns [(start, length), ...] extents.

        Next-fit with a goal cursor: tries one contiguous (optionally
        aligned) extent within a bounded window around the cursor,
        then falls back to stitching together whatever extents follow.
        On a fresh image the cursor sits in one giant aligned extent,
        so large files get full huge-page coverage; on an aged image
        coverage becomes a partial, position-dependent mix — exactly
        the non-determinism the paper reports (§III, Fig. 1a).
        """
        if nblocks <= 0:
            raise ValueError("nblocks must be positive")
        if nblocks > self.free_blocks:
            raise NoSpaceError(
                f"need {nblocks} blocks, {self.free_blocks} free")

        if prefer_contiguous:
            got = self._alloc_contiguous(nblocks, align,
                                         BlockDevice.GOAL_WINDOW)
            if got is not None:
                return [got]

        # Piecewise: consume extents from the cursor onward.
        result: List[Tuple[int, int]] = []
        remaining = nblocks
        while remaining > 0:
            if not self._free:
                for start, length in result:
                    self._insert_free(start, length)
                raise NoSpaceError("allocator inconsistency")
            i = self._cursor % len(self._free)
            extent = self._free[i]
            take = min(remaining, extent.length)
            result.append((extent.start, take))
            self._carve(i, extent.start, take)
            remaining -= take
        self.free_blocks -= nblocks
        return result

    def _alloc_contiguous(self, nblocks: int, align: int,
                          window: int) -> Optional[Tuple[int, int]]:
        """Next-fit search for one aligned run, bounded by ``window``."""
        count = len(self._free)
        if count == 0:
            return None
        full_scan = window >= count
        if full_scan and (nblocks, align) in self._contig_fail_hint:
            return None
        i = self._cursor % count
        for _ in range(min(window, count)):
            extent = self._free[i]
            aligned_start = -(-extent.start // align) * align
            waste = aligned_start - extent.start
            if extent.length - waste >= nblocks:
                self._carve(i, aligned_start, nblocks)
                self._cursor = i
                self.free_blocks -= nblocks
                return (aligned_start, nblocks)
            i = (i + 1) % count
        self._cursor = i
        if full_scan:
            self._contig_fail_hint.add((nblocks, align))
        return None

    def _carve(self, index: int, start: int, length: int) -> None:
        """Remove [start, start+length) from the free extent at index.

        The extent is trimmed in place; only a carve from its middle
        inserts (the tail piece), and only an exact fit deletes.
        """
        extent = self._free[index]
        end = start + length
        before = start - extent.start
        after = extent.start + extent.length - end
        if before > 0:
            extent.length = before
            if after > 0:
                self._free.insert(index + 1, FreeExtent(end, after))
                self._starts.insert(index + 1, end)
        elif after > 0:
            extent.start = end
            extent.length = after
            self._starts[index] = end
        else:
            del self._free[index]
            del self._starts[index]

    # -- freeing ------------------------------------------------------------
    def free(self, start: int, length: int) -> None:
        """Return a run of blocks, coalescing with neighbours.

        Quarantined blocks inside the run stay retired: the run is
        split around them and only the healthy sub-runs come back.
        """
        if length <= 0:
            raise ValueError("length must be positive")
        retired = sorted(b for b in self.quarantined
                         if start <= b < start + length)
        if retired:
            cursor = start
            for block in retired:
                if block > cursor:
                    self._insert_free(cursor, block - cursor,
                                      coalesce=True)
                cursor = block + 1
            if start + length > cursor:
                self._insert_free(cursor, start + length - cursor,
                                  coalesce=True)
            self.free_blocks += length - len(retired)
        else:
            self._insert_free(start, length, coalesce=True)
            self.free_blocks += length
        self._contig_fail_hint.clear()

    def _insert_free(self, start: int, length: int,
                     coalesce: bool = False) -> None:
        idx = bisect.bisect_left(self._starts, start)
        if coalesce:
            # Merge with predecessor?
            if idx > 0 and self._free[idx - 1].end == start:
                prev = self._free[idx - 1]
                prev.length += length
                # Merge with successor too?
                if idx < len(self._free) and self._free[idx].start == prev.end:
                    prev.length += self._free[idx].length
                    del self._free[idx]
                    del self._starts[idx]
                return
            # Merge with successor?
            if idx < len(self._free) and self._free[idx].start == start + length:
                nxt = self._free[idx]
                del self._starts[idx]
                nxt.start = start
                nxt.length += length
                self._starts.insert(idx, start)
                return
        self._free.insert(idx, FreeExtent(start, length))
        self._starts.insert(idx, start)

    def free_overlap(self, start: int, length: int) -> int:
        """How many blocks of ``[start, start+length)`` are free.

        Zero for any run a live extent references — the crash recovery
        checker uses this to assert block bitmaps stay consistent with
        the extent trees.
        """
        end = start + length
        idx = max(bisect.bisect_right(self._starts, start) - 1, 0)
        overlap = 0
        while idx < len(self._free) and self._free[idx].start < end:
            extent = self._free[idx]
            overlap += max(0, min(extent.end, end) - max(extent.start, start))
            idx += 1
        return overlap

    # -- fragmentation metrics ----------------------------------------------
    def free_extent_count(self) -> int:
        return len(self._free)

    def huge_capable_free_blocks(self) -> int:
        """Free blocks inside 2 MB-aligned, 2 MB-sized free runs."""
        total = 0
        for extent in self._free:
            aligned = -(-extent.start // BLOCKS_PER_PMD) * BLOCKS_PER_PMD
            usable = extent.end - aligned
            if usable >= BLOCKS_PER_PMD:
                total += (usable // BLOCKS_PER_PMD) * BLOCKS_PER_PMD
        return total

    def huge_coverage_potential(self) -> float:
        """Fraction of free space allocatable as aligned 2 MB chunks."""
        if self.free_blocks == 0:
            return 0.0
        return self.huge_capable_free_blocks() / self.free_blocks

    def check_invariants(self) -> None:
        """Validate allocator bookkeeping (used by property tests)."""
        total = 0
        prev_end = -1
        for extent, start in zip(self._free, self._starts):
            assert extent.start == start
            assert extent.length > 0
            assert extent.start > prev_end, "overlapping/uncoalesced extents"
            assert extent.end <= self.total_blocks
            prev_end = extent.end - 1
            total += extent.length
        assert total == self.free_blocks
        for block in self.quarantined:
            assert self.free_overlap(block, 1) == 0, \
                f"quarantined block {block} returned to the free pool"
