"""Software dirty-page tracking (the page-cache tag tree).

With DAX-mmap the kernel still needs to know which file regions user
space dirtied so fsync/msync can flush the right CPU cache lines
(§III-A4).  Linux implements this by write-protecting clean pages and
tagging the page-cache radix tree on the resulting permission faults;
sync re-protects everything, restarting the cycle.  The tracker below
is that tag tree: per inode, the set of dirty *granules* — 4 KB for
the baseline, 2 MB (or coarser) for DaxVM mappings (§IV-D).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Set

from repro.fs.vfs import Inode

PAGE_SIZE = 4096


class DirtyTracker:
    """Per-inode dirty granule tags."""

    def __init__(self) -> None:
        self._dirty: Dict[int, Set[int]] = defaultdict(set)
        #: Bytes actually written per inode number since its last
        #: collect (bounds flush write-back).  A write adds to it in
        #: place: ``bytes_written[inode.number] += nbytes``.
        self.bytes_written: Dict[int, float] = defaultdict(float)
        #: Granules collected by an in-flight msync (the *sync epoch*):
        #: popped from the dirty set but not yet re-protected/flushed.
        #: Empty while no epoch is open, so writers test it before
        #: scanning for races.
        self.syncing: Dict[int, Set[int]] = {}
        #: Granules written concurrently with the epoch; re-marked dirty
        #: when the epoch ends so the next sync flushes them.
        self._deferred: Dict[int, Set[int]] = defaultdict(set)
        self.tags_written = 0

    def mark(self, inode: Inode, granule_index: int) -> bool:
        """Tag a granule dirty; returns True if newly dirty."""
        tags = self._dirty[inode.number]
        if granule_index in tags:
            return False
        tags.add(granule_index)
        self.tags_written += 1
        return True

    def dirty_count(self, inode: Inode) -> int:
        return len(self._dirty.get(inode.number, ()))

    def collect(self, inode: Inode) -> Set[int]:
        """Return and clear the inode's dirty tags (sync path)."""
        tags = self._dirty.pop(inode.number, set())
        self.bytes_written.pop(inode.number, None)
        return tags

    # -- sync epochs (msync in flight) ---------------------------------
    def begin_sync(self, inode: Inode) -> Set[int]:
        """Open a sync epoch: collect the dirty tags, remember them.

        Between ``begin_sync`` and ``end_sync`` the granules being
        flushed are neither tagged dirty nor yet re-protected — a write
        racing the sync lands *after* the flush swept the lines, so it
        must be re-marked dirty after the epoch, not swallowed.
        """
        tags = self.collect(inode)
        self.syncing[inode.number] = tags
        return tags

    def in_sync(self, inode: Inode, granule_index: int) -> bool:
        """Is this granule being flushed by an in-flight msync?"""
        return granule_index in self.syncing.get(inode.number, ())

    def remark_after_sync(self, inode: Inode, granule_index: int) -> None:
        """Queue a racing write's granule for re-tagging at epoch end."""
        self._deferred[inode.number].add(granule_index)

    def remark_racing(self, inode: Inode, lo: int, hi: int) -> None:
        """:meth:`remark_after_sync` every granule in ``lo..hi`` that an
        in-flight msync is flushing (one call per written window)."""
        syncing = self.syncing.get(inode.number)
        if syncing:
            for granule_index in range(lo, hi + 1):
                if granule_index in syncing:
                    self._deferred[inode.number].add(granule_index)

    def end_sync(self, inode: Inode) -> None:
        """Close the epoch; re-mark granules written during it."""
        self.syncing.pop(inode.number, None)
        for granule_index in self._deferred.pop(inode.number, ()):
            self.mark(inode, granule_index)

    def written_bytes(self, inode: Inode) -> float:
        return self.bytes_written.get(inode.number, 0.0)

    def drop(self, inode: Inode) -> None:
        """Discard tags without flushing (unlink/eviction)."""
        self._dirty.pop(inode.number, None)
        self.bytes_written.pop(inode.number, None)
        self.syncing.pop(inode.number, None)
        self._deferred.pop(inode.number, None)
