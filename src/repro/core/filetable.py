"""Pre-populated file tables (paper §IV-A).

A file table is a forest of shared page-table fragments owned by the
file system that translates *file offsets* to PMem physical addresses:

* per 2 MB region, either a shared **PTE node** (512 entries built
  bottom-up as the file grows) or, when the region's extent geometry
  is huge-page capable, just the **frame of a PMD huge leaf**;
* per 1 GB, a shared **PMD node** whose slots point at the regions'
  PTE nodes / huge leaves, enabling PUD-level attachment for files
  above 1 GB.

Tables are **volatile** (DRAM; rebuilt on cold open, destroyed on
inode-cache eviction) for files up to 32 KB, and **persistent** (PMem
metadata blocks; flushed with batched cache-line write-backs, crash
consistent via the FS journal/log) for larger files.  The manager
subscribes to the FS block (de)allocation hooks, so tables stay in
sync with the extent tree, and to the inode-cache hooks for the
volatile lifecycle.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.config import CostModel
from repro.errors import SimulationError
from repro.fs.base import FileSystem
from repro.fs.block import BLOCK_SIZE, BlockDevice
from repro.fs.vfs import Inode
from repro.mem.physmem import Medium, PhysicalMemory
from repro.obs import Counter
from repro.paging.flags import PageFlags
from repro.paging.pagetable import (
    ENTRIES_PER_NODE,
    PMD_LEVEL,
    PTE_LEVEL,
    Entry,
    PageTableNode,
)
from repro.sim.stats import Stats

PAGES_PER_PMD = 512
PAGES_PER_PUD = 512 * 512
PTES_PER_CACHE_LINE = 8


class _DeviceFrameAllocator:
    """Adapter: allocate page-table frames from PMem metadata blocks."""

    def __init__(self, device: BlockDevice, fs: Optional[FileSystem] = None):
        self.device = device
        self.fs = fs

    def alloc_frame(self, medium: Medium) -> int:
        if medium is not Medium.PMEM:
            raise SimulationError("device allocator only serves PMem")
        runs = self.device.alloc(1)
        if self.fs is not None and self.fs.persistence is not None:
            self.fs.persistence.note_block_alloc(runs)
        return self.device.frame_of(runs[0][0])

    def free_frame(self, frame: int) -> None:
        block = self.device.block_of(frame)
        self.device.free(block, 1)
        if self.fs is not None and self.fs.persistence is not None:
            self.fs.persistence.note_block_free(block, 1)


class _DramFrameAllocator:
    """Adapter: allocate page-table frames from DRAM.

    Volatile file tables are placed on the node hosting the file's
    data (``node``), so walks from threads near the file stay local;
    ``None`` keeps the legacy node-0 allocation.
    """

    def __init__(self, physmem: PhysicalMemory,
                 node: Optional[int] = None):
        self.physmem = physmem
        self.node = node

    def alloc_frame(self, medium: Medium) -> int:
        return self.physmem.alloc_frame(Medium.DRAM, node=self.node)

    def free_frame(self, frame: int) -> None:
        self.physmem.free_frame(frame)


class FileTable:
    """The pre-populated table of one file."""

    def __init__(self, inode: Inode, medium: Medium, allocator,
                 costs: CostModel):
        self.inode = inode
        self.medium = medium
        self._allocator = allocator
        self.costs = costs
        #: region index -> shared PTE node for 4 KB-mapped regions.
        self.pte_nodes: Dict[int, PageTableNode] = {}
        #: region index -> base frame, for huge-capable regions.
        self.huge_frames: Dict[int, int] = {}
        #: GB index -> shared PMD node (built for PUD-level attach).
        self.pmd_nodes: Dict[int, PageTableNode] = {}
        #: File pages whose translations have been filled so far.
        self.filled_pages = 0
        self.node_count = 0
        self.ptes_filled = 0

    def copy(self, inode: Inode, allocator) -> "FileTable":
        """This table for ``inode`` (a copy of its inode), its nodes
        copied and freshly allocated ones taken from ``allocator``."""
        twin = FileTable(inode, self.medium, allocator, self.costs)
        twin.pte_nodes = {region: _copy_node(node)
                          for region, node in self.pte_nodes.items()}
        twin.huge_frames = dict(self.huge_frames)
        twin.pmd_nodes = {gb: _copy_node(node)
                          for gb, node in self.pmd_nodes.items()}
        for region, node in twin.pte_nodes.items():
            # The GB-level slot points at the region's PTE node: at the
            # copy's, not at the original's.
            slots = twin.pmd_nodes[region // ENTRIES_PER_NODE].entries
            slot = region % ENTRIES_PER_NODE
            slots[slot] = Entry(frame=slots[slot].frame,
                                flags=slots[slot].flags, child=node)
        twin.filled_pages = self.filled_pages
        twin.node_count = self.node_count
        twin.ptes_filled = self.ptes_filled
        return twin

    # -- construction --------------------------------------------------------
    def _new_node(self, level: int) -> PageTableNode:
        frame = self._allocator.alloc_frame(self.medium)
        self.node_count += 1
        return PageTableNode(level, frame, self.medium, shared=True)

    def extend(self, fs: FileSystem) -> float:
        """Fill translations for pages appended since the last call.

        Fills run by run: a region that may map huge gets one PMD leaf;
        otherwise each stretch of pages inside one extent and one 2 MB
        region takes one ``fs.frames_for_run`` lookup, and its PTEs are
        written slot by slot.  A hole in the extents raises
        :class:`SimulationError` naming the inode and the file page.
        Returns the cycles the triggering FS operation must be charged
        (PTE fills, plus cache-line flushes for persistent tables).
        """
        inode = self.inode
        total_pages = inode.extents.block_count
        if total_pages <= self.filled_pages:
            return 0.0
        domain = fs.persistence
        if domain is not None and self.medium is Medium.PMEM:
            # Persistent-table fills are clwb'd as they are written
            # (§IV-A1) but only fence-ordered with the journal commit;
            # a rolled-back transaction truncates the table back, and
            # mount-time recovery re-extends it from the extent tree.
            domain.meta_store(
                "filetable-extend", domain.track(inode),
                8 * (total_pages - self.filled_pages), flushed=True,
                undo=partial(_undo_extend, self.filled_pages))
        cycles = 0.0
        new_ptes = 0
        nodes_before = self.node_count
        rw = PageFlags.rw()
        page = self.filled_pages
        while page < total_pages:
            region = page // PAGES_PER_PMD
            region_start = region * PAGES_PER_PMD
            region_end = region_start + PAGES_PER_PMD
            if (page == region_start and region_end <= total_pages
                    and fs.pmd_capable(inode, region_start)):
                frame = fs.frame_for_page(inode, region_start)
                self.huge_frames[region] = frame
                self._pmd_slot(region, Entry(
                    frame=frame, flags=rw | PageFlags.HUGE))
                cycles += self.costs.filetable_pte_fill
                page = region_end
                continue
            node = self.pte_nodes.get(region)
            if node is None:
                node = self._new_node(PTE_LEVEL)
                self.pte_nodes[region] = node
                self._pmd_slot(region, Entry(frame=node.frame, flags=rw,
                                             child=node))
            entries = node.entries
            stop = min(region_end, total_pages)
            while page < stop:
                frames = fs.frames_for_run(inode, page, stop - page)
                if not frames:
                    raise SimulationError(
                        f"{inode.path} (inode {inode.number}): file table "
                        f"fill hit a hole at file page {page}")
                slot = page - region_start
                for frame in frames:
                    entries[slot] = Entry(frame=frame, flags=rw)
                    slot += 1
                page += len(frames)
                new_ptes += len(frames)
        self.filled_pages = total_pages
        self.ptes_filled += new_ptes
        cycles += new_ptes * self.costs.filetable_pte_fill
        # New table nodes: a frame allocation each — a metadata block
        # from the device for persistent tables, a DRAM page otherwise.
        new_nodes = self.node_count - nodes_before
        if self.medium is Medium.PMEM:
            cycles += new_nodes * self.costs.block_alloc
        else:
            cycles += new_nodes * 300.0
        if self.medium is Medium.PMEM and new_ptes:
            # Persistence: flush the dirtied PTE cache lines, batched
            # at cache-line granularity (8 PTEs per line, §IV-A1).
            lines = math.ceil(new_ptes / PTES_PER_CACHE_LINE)
            cycles += lines * self.costs.filetable_clwb_line
        return cycles

    def _pmd_slot(self, region: int, entry: Entry) -> None:
        """Record a region's entry in its GB-level shared PMD node."""
        gb = region // ENTRIES_PER_NODE
        node = self.pmd_nodes.get(gb)
        if node is None:
            node = self._new_node(PMD_LEVEL)
            self.pmd_nodes[gb] = node
        node.entries[region % ENTRIES_PER_NODE] = entry

    # -- shrink / destroy ------------------------------------------------
    def truncate(self, new_pages: int) -> float:
        """Drop translations beyond ``new_pages``; returns cycles."""
        cycles = 0.0
        dropped = 0
        for region in sorted(list(self.pte_nodes) + list(self.huge_frames),
                             reverse=True):
            region_start = region * PAGES_PER_PMD
            if region_start >= new_pages:
                if region in self.huge_frames:
                    del self.huge_frames[region]
                    dropped += 1
                node = self.pte_nodes.pop(region, None)
                if node is not None:
                    dropped += len(node.entries)
                    node.entries.clear()
                    self._allocator.free_frame(node.frame)
                    self.node_count -= 1
                gb = region // ENTRIES_PER_NODE
                pmd = self.pmd_nodes.get(gb)
                if pmd is not None:
                    pmd.entries.pop(region % ENTRIES_PER_NODE, None)
                    if not pmd.entries:
                        self._allocator.free_frame(pmd.frame)
                        self.node_count -= 1
                        del self.pmd_nodes[gb]
            elif region in self.pte_nodes:
                node = self.pte_nodes[region]
                for idx in [i for i in node.entries
                            if region_start + i >= new_pages]:
                    del node.entries[idx]
                    dropped += 1
        self.filled_pages = min(self.filled_pages, new_pages)
        cycles += dropped * self.costs.filetable_pte_fill
        if self.medium is Medium.PMEM and dropped:
            cycles += (math.ceil(dropped / PTES_PER_CACHE_LINE)
                       * self.costs.filetable_clwb_line)
        return cycles

    def destroy(self) -> None:
        """Free every node (volatile teardown / unlink)."""
        for node in list(self.pte_nodes.values()) + list(
                self.pmd_nodes.values()):
            self._allocator.free_frame(node.frame)
        self.pte_nodes.clear()
        self.pmd_nodes.clear()
        self.huge_frames.clear()
        self.node_count = 0
        self.filled_pages = 0

    # -- queries -----------------------------------------------------------
    @property
    def storage_bytes(self) -> int:
        """Bytes of (DRAM or PMem) occupied by this table's nodes."""
        return self.node_count * BLOCK_SIZE

    @property
    def regions(self) -> int:
        return -(-self.filled_pages // PAGES_PER_PMD)

    def region_entry(self, region: int) -> Optional[Tuple[str, object]]:
        """('huge', frame) or ('pte', node) for an attached region."""
        if region in self.huge_frames:
            return ("huge", self.huge_frames[region])
        node = self.pte_nodes.get(region)
        if node is not None:
            return ("pte", node)
        return None

    def region_runs(self, region: int) -> List[Tuple[int, int, int]]:
        """Coalesced ``(page_idx, base_frame, npages)`` runs of a region.

        ``page_idx`` is region-relative.  A huge region is one 512-page
        run; a 4 KB region yields one run per contiguous extent of
        frames.  This is the populate-on-attach fallback for
        translation schemes without shareable fragments: hashed inserts
        every page of every run, range translation inserts one entry
        per run — so run count (i.e. image fragmentation from
        ``fs.aging``) is exactly what those schemes pay for.
        """
        entry = self.region_entry(region)
        if entry is None:
            return []
        kind, payload = entry
        if kind == "huge":
            return [(0, payload, PAGES_PER_PMD)]
        runs: List[Tuple[int, int, int]] = []
        for idx in sorted(payload.entries):
            frame = payload.entries[idx].frame
            if runs:
                last_idx, last_frame, npages = runs[-1]
                if idx == last_idx + npages and \
                        frame == last_frame + npages:
                    runs[-1] = (last_idx, last_frame, npages + 1)
                    continue
            runs.append((idx, frame, 1))
        return runs


def _copy_node(node: PageTableNode) -> PageTableNode:
    # Entries are shared: table maintenance replaces an entry, it never
    # edits one in place.
    twin = PageTableNode(node.level, node.frame, node.medium,
                         shared=node.shared)
    twin.entries = dict(node.entries)
    return twin


def _undo_extend(old_filled: int, machine, rec) -> None:
    """Rollback of a persistent-table fill: truncate the inode's table
    back to the pages it held before."""
    table = machine.persistence.inodes[rec.ino].persistent_file_table
    table.truncate(old_filled)


class FileTableManager:
    """Builds, maintains and migrates file tables for one file system."""

    def __init__(self, fs: FileSystem, physmem: PhysicalMemory,
                 costs: CostModel, stats: Stats,
                 table_node: Optional[int] = None):
        self.fs = fs
        self.physmem = physmem
        self.costs = costs
        self.stats = stats
        #: ``table_node`` places volatile (DRAM) tables near the file
        #: data's socket; persistent tables inherit the device's own
        #: placement through its metadata blocks.
        self._dram_alloc = _DramFrameAllocator(physmem, node=table_node)
        self._pmem_alloc = _DeviceFrameAllocator(fs.device, fs)
        fs.alloc_hooks.append(self._on_alloc)
        fs.free_hooks.append(self._on_free)
        fs.vfs.inode_cache.load_hooks.append(self._on_inode_load)
        fs.vfs.inode_cache.evict_hooks.append(self._on_inode_evict)

    # -- policy ---------------------------------------------------------------
    def _wants_persistent(self, inode: Inode) -> bool:
        # "Volatile tables for files smaller than a threshold (32 KB),
        # persistent for larger" — 32 KB itself persists.
        return (inode.extents.block_count * BLOCK_SIZE
                >= self.costs.filetable_volatile_max)

    def table_for(self, inode: Inode) -> Optional[FileTable]:
        """The table mmap should attach: volatile if present, else
        persistent."""
        if inode.volatile_file_table is not None:
            return inode.volatile_file_table
        return inode.persistent_file_table

    def ensure(self, inode: Inode) -> Tuple[FileTable, float]:
        """Get or build the inode's table; returns (table, cycles)."""
        table = self.table_for(inode)
        if table is not None and table.filled_pages >= \
                inode.extents.block_count:
            return table, 0.0
        if table is None:
            if self._wants_persistent(inode):
                table = FileTable(inode, Medium.PMEM, self._pmem_alloc,
                                  self.costs)
                inode.persistent_file_table = table
            else:
                table = FileTable(inode, Medium.DRAM, self._dram_alloc,
                                  self.costs)
                inode.volatile_file_table = table
        cycles = table.extend(self.fs)
        return table, cycles

    # -- FS hooks -----------------------------------------------------------
    def _on_alloc(self, inode: Inode, runs: List[Tuple[int, int]]
                  ) -> float:
        _table, cycles = self.ensure(inode)
        # Crossing the 32 KB policy line upgrades volatile->persistent.
        if (inode.volatile_file_table is not None
                and self._wants_persistent(inode)
                and inode.persistent_file_table is None):
            persistent = FileTable(inode, Medium.PMEM, self._pmem_alloc,
                                   self.costs)
            inode.persistent_file_table = persistent
            cycles += persistent.extend(self.fs)
            volatile = inode.volatile_file_table
            volatile.destroy()
            inode.volatile_file_table = None
        return cycles

    def _on_free(self, inode: Inode, freed: List[Tuple[int, int]]
                 ) -> float:
        cycles = 0.0
        new_pages = inode.extents.block_count
        for table in (inode.volatile_file_table,
                      inode.persistent_file_table):
            if table is not None:
                cycles += table.truncate(new_pages)
        return cycles

    # -- inode cache hooks ------------------------------------------------
    def _on_inode_load(self, inode: Inode) -> float:
        """Cold open: rebuild the volatile table if policy wants one.

        Returns the build cycles; the open() that faulted the inode in
        is charged for the rebuild (§IV-A1 volatile table lifecycle).
        """
        if (inode.persistent_file_table is None
                and inode.volatile_file_table is None
                and inode.extents.block_count > 0
                and not self._wants_persistent(inode)):
            table = FileTable(inode, Medium.DRAM, self._dram_alloc,
                              self.costs)
            inode.volatile_file_table = table
            cycles = table.extend(self.fs)
            self.stats.add(Counter.DAXVM_VOLATILE_REBUILDS)
            return cycles
        return 0.0

    def _on_inode_evict(self, inode: Inode) -> None:
        if inode.volatile_file_table is not None:
            inode.volatile_file_table.destroy()
            inode.volatile_file_table = None
            self.stats.add(Counter.DAXVM_VOLATILE_EVICTIONS)

    # -- migration (Table III rule) ------------------------------------------
    def migrate_to_dram(self, inode: Inode) -> float:
        """Copy a persistent table into DRAM; returns build cycles.

        After migration both tables are maintained (§IV-A1); mmap
        prefers the volatile copy.
        """
        persistent = inode.persistent_file_table
        if persistent is None or inode.volatile_file_table is not None:
            return 0.0
        volatile = FileTable(inode, Medium.DRAM, self._dram_alloc,
                             self.costs)
        inode.volatile_file_table = volatile
        cycles = volatile.extend(self.fs)
        self.stats.add(Counter.DAXVM_TABLE_MIGRATIONS)
        return cycles

    # -- reporting -----------------------------------------------------------
    def storage_report(self, inodes: List[Inode]) -> Dict[str, int]:
        """PMem/DRAM bytes held by the given inodes' tables (§V-B)."""
        pmem = dram = 0
        for inode in inodes:
            if inode.persistent_file_table is not None:
                pmem += inode.persistent_file_table.storage_bytes
            if inode.volatile_file_table is not None:
                dram += inode.volatile_file_table.storage_bytes
        return {"pmem_bytes": pmem, "dram_bytes": dram}
