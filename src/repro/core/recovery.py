"""Mount-time recovery of persistent file tables.

Paper §IV-A1: persistent file tables are updated inside the file
system's journal transaction (ext4) or before the log commit (NOVA);
their PTEs are flushed on write and reuse the commit's fence.  After a
crash, replaying open transactions recovers incomplete PTEs — a table
can only ever lag or lead its inode's extent map by the contents of
one uncommitted transaction, and recovery walks both back into sync.

:meth:`RecoveryLog.recover_all` is that mount-time replay.  The power
failure itself is modelled by :mod:`repro.crash`: the persistence
domain discards what was not durable and rolls torn transactions back
on a :class:`~repro.crash.image.StorageImage`, and its
:class:`~repro.crash.checker.RecoveryChecker` mounts the image through
this module.  Volatile tables simply vanish with DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.filetable import PAGES_PER_PMD, FileTableManager
from repro.fs.vfs import Inode, VFS
from repro.obs import Counter


@dataclass
class RecoveryReport:
    """What a mount-time recovery pass found and fixed."""

    inodes_scanned: int = 0
    tables_intact: int = 0
    tables_repaired: int = 0
    ptes_replayed: int = 0
    repaired_paths: List[str] = field(default_factory=list)


class RecoveryLog:
    """Mount-time replay: re-sync persistent tables with extent maps."""

    def __init__(self, vfs: VFS, manager: FileTableManager):
        self.vfs = vfs
        self.manager = manager

    def recover_inode(self, inode: Inode,
                      report: RecoveryReport) -> None:
        report.inodes_scanned += 1
        table = inode.persistent_file_table
        if table is None:
            # Policy may want one (the file is large): rebuild lazily
            # on first mmap; nothing to replay now.
            return
        expected = inode.extents.block_count
        if table.filled_pages == expected:
            report.tables_intact += 1
            return
        if table.filled_pages > expected:
            # The table leads the extent map (transaction torn after
            # the table flush): truncate it back.
            table.truncate(expected)
        missing_before = expected - table.filled_pages
        self.manager.fs.stats.add(
            Counter.DAXVM_RECOVERY_PTES, max(0, missing_before))
        table.extend(self.manager.fs)
        report.tables_repaired += 1
        report.ptes_replayed += max(0, missing_before)
        report.repaired_paths.append(inode.path)

    def recover_all(self) -> RecoveryReport:
        """The mount-time scan over every inode.

        Iterates in inode-number order — the order a real mount scan
        walks the inode table — so recovery reports are stable across
        runs regardless of path names, and usable in golden files.
        """
        report = RecoveryReport()
        for inode in self.vfs.inodes():
            self.recover_inode(inode, report)
        return report


def verify_table_consistency(inode: Inode) -> bool:
    """Invariant check: every filled translation of the inode's
    persistent table matches the extents.

    The recovery pass's post-condition: the table covers exactly the
    extent map, each PTE holds the frame of its file page's block, and
    each PMD huge leaf sits on a huge-capable region and holds the
    frame of the region's first block.
    """
    table = inode.persistent_file_table
    if table is None:
        # Nothing durable to disagree with the extents: a volatile
        # table dies with DRAM and is rebuilt from them on cold open.
        return True
    extents = inode.extents
    if table.filled_pages != extents.block_count:
        return False
    device = table._allocator.device
    for region, frame in table.huge_frames.items():
        start = region * PAGES_PER_PMD
        if not extents.pmd_capable(start) or \
                frame != device.frame_of(extents.physical_block(start)):
            return False
    # PTEs run by run: each extent's file pages (extents never
    # overlap), one PTE node at a time, against the frames of the
    # blocks they map.  A PTE that no run reaches sits over a hole.
    nodes = table.pte_nodes
    unchecked = sum(len(node.entries) for node in nodes.values())
    for extent in extents:
        first = page = extent.logical
        last = first + extent.length
        while page < last:
            region, idx = divmod(page, PAGES_PER_PMD)
            stop = min(last, page - idx + PAGES_PER_PMD)
            node = nodes.get(region)
            if node is not None:
                entry_at = node.entries.get
                for frame in device.frames_of(
                        extent.physical + page - first, stop - page):
                    entry = entry_at(idx)
                    if entry is not None:
                        if entry.frame != frame:
                            return False
                        unchecked -= 1
                    idx += 1
            page = stop
    return unchecked == 0
