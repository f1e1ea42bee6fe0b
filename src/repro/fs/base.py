"""Shared file-system machinery: allocation, zeroing, syscall paths.

Concrete file systems (:class:`~repro.fs.ext4.Ext4Dax`,
:class:`~repro.fs.nova.Nova`) differ in exactly the dimensions the
paper exploits (§III-B, §V-B Appends):

* whether the **write syscall path zeroes** newly allocated blocks
  (ext4-DAX does, conservatively; NOVA does not),
* whether **fallocate zeroes** (both must, for secure DAX mmap),
* the **metadata update discipline** (journal vs per-inode log), and
* whether a **MAP_SYNC write fault** must commit metadata synchronously
  (ext4: yes — the Fig. 9c bottleneck; NOVA: no-op).

The base class also owns the two hook points DaxVM plugs into: block
(de)allocation hooks for file-table maintenance, and a free
interceptor for asynchronous pre-zeroing.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from repro.config import CostModel
from repro.errors import InvalidArgumentError
from repro.fs.block import BLOCK_SIZE, BLOCKS_PER_PMD, BlockDevice
from repro.fs.intervals import IntervalSet
from repro.fs.vfs import VFS, DaxFile, Inode
from repro.mem.latency import MemoryModel
from repro.mem.physmem import Medium
from repro.obs import Counter, CostDomain, charge
from repro.sim.stats import Stats

#: (inode, [(phys_block, length), ...]) — fired after (de)allocation.
#: A hook may return cycles for the file system to charge to the
#: operation (DaxVM file-table maintenance is paid by the FS op that
#: triggered it — the §V-B "latency overheads" accounting).
BlockHook = Callable[[Inode, List[Tuple[int, int]]], Optional[float]]
#: Intercepts frees: receives runs, returns True if it took ownership.
FreeInterceptor = Callable[[List[Tuple[int, int]]], bool]


def _undo_create(path: str, machine, rec) -> None:
    machine.vfs.forget(path)


def _undo_unlink(path: str, machine, rec) -> None:
    machine.vfs.restore(path, machine.persistence.inodes[rec.ino])


def _undo_size(old_size: int, machine, rec) -> None:
    machine.persistence.inodes[rec.ino].size = old_size


def _undo_extent_append(before: int, machine, rec) -> None:
    # Rolled-back allocation: the bitmap update was in the same
    # transaction, so the blocks come back as free space.
    domain = machine.persistence
    for start, length in domain.inodes[rec.ino].extents.truncate_to(before):
        machine.device.free(start, length)
        domain.note_block_free(start, length)


def _undo_truncate(old_size: int, machine, rec) -> None:
    # truncate_to pops extents tail-first; re-append reversed to
    # restore the original logical order.
    inode = machine.persistence.inodes[rec.ino]
    for start, length in reversed(rec.runs):
        inode.extents.append(start, length)
    rec.runs.clear()
    inode.size = old_size


def _free_truncated(machine, rec) -> None:
    for start, length in rec.runs:
        machine.device.free(start, length)
        machine.persistence.note_block_free(start, length)


class FileSystem:
    """Base PMem file system with DAX syscall paths."""

    name = "fs"
    #: Does the write() syscall zero freshly allocated blocks?
    zeroes_on_write_path = True
    #: Does fallocate() zero (required for secure DAX mmap appends)?
    zeroes_on_fallocate = True
    #: Does a MAP_SYNC write fault need a synchronous metadata commit?
    mapsync_needs_commit = True

    def __init__(self, device: BlockDevice, vfs: VFS, costs: CostModel,
                 mem: MemoryModel, stats: Stats):
        self.device = device
        self.vfs = vfs
        self.costs = costs
        self.mem = mem
        self.stats = stats
        #: Free blocks known to already contain zeroes.
        self.zeroed = IntervalSet()
        self.alloc_hooks: List[BlockHook] = []
        self.free_hooks: List[BlockHook] = []
        self.free_interceptor: Optional[FreeInterceptor] = None
        #: Generators run (``yield from``) before an inode's blocks are
        #: reclaimed — DaxVM forces deferred unmaps synchronously here
        #: (the file-system race guard of §IV-C).
        self.free_barriers: List[Callable[[Inode], object]] = []
        #: Wired by System; used for device bandwidth contention.
        self.engine = None
        #: Huge-page (PMD) mappings allowed?  Fig. 6 turns them off.
        self.allow_huge = True
        #: Optional :class:`repro.crash.PersistenceDomain`; when attached
        #: every metadata mutation and data store is shadowed with its
        #: durability state (volatile/flushed/fenced) for crash-point
        #: exploration.  ``None`` in ordinary performance runs.
        self.persistence = None
        #: Optional :class:`repro.faults.MediaFaults`; when attached the
        #: read/append paths advance its fault clock and consult the
        #: device badblocks list (remapping or clearing on error).
        #: ``None`` in ordinary performance runs — the paths then skip
        #: the scan entirely and charge nothing.
        self.faults = None

    def _device_wait(self, nbytes: int, write: bool) -> float:
        """Extra cycles from aggregate PMem bandwidth contention on a
        transfer of ``nbytes`` one way."""
        if self.engine is None:
            return 0.0
        return self.mem.device_delay(nbytes, write, self.engine.now)

    def _data_medium(self, inode: Inode, offset: int, nbytes: int,
                     write: bool) -> Medium:
        """Where this file range's data lives.  Without a tier overlay
        that is the device medium (PMem — the pre-tiering model, bit
        for bit); with one, the overlay decides and the access is
        tagged for the tiering daemon's hotness scan.  A range spanning
        tiers is priced at its first page's placement (the granule is
        2 MB, far above the syscall sizes the sweeps use)."""
        tiers = self.mem.tiers
        if tiers is None:
            return Medium.PMEM
        first = offset // BLOCK_SIZE
        last = (offset + max(nbytes, 1) - 1) // BLOCK_SIZE
        tiers.note_touch(inode, first, last, write=write)
        return tiers.medium_for(inode, first)

    # ------------------------------------------------------------------
    # open/close.
    # ------------------------------------------------------------------
    def open(self, path: str, create: bool = False):
        """Open (optionally creating) a file; returns a DaxFile."""
        yield charge(CostDomain.SYSCALL, "open",
                     self.costs.syscall_crossing)
        if create and path not in self.vfs:
            self._persist_create(path)
            inode = self.vfs.create(path)
            yield from self._metadata_update()
        else:
            inode = self.vfs.lookup(path)
        warm, hook_cycles = self.vfs.inode_cache.lookup(inode)
        cost = self.costs.vfs_open_warm + hook_cycles
        if not warm:
            cost += self.costs.vfs_open_cold_extra
            self.stats.add(Counter.VFS_COLD_OPENS)
        else:
            self.stats.add(Counter.VFS_WARM_OPENS)
        yield charge(CostDomain.SYSCALL, "vfs-open", cost)
        return DaxFile(inode, self)

    def close(self, file: DaxFile):
        file._check_open()
        file.closed = True
        yield charge(CostDomain.SYSCALL, "close",
                     self.costs.syscall_crossing + self.costs.vfs_close)

    # ------------------------------------------------------------------
    # Data syscalls.
    # ------------------------------------------------------------------
    def read(self, file: DaxFile, offset: int, nbytes: int,
             random_access: bool = False):
        """read() into a DRAM user buffer: kernel copy from PMem.

        ``random_access`` charges the PMem first-access latency a
        non-sequential read pays before the copy streams.
        """
        file._check_open()
        if offset + nbytes > file.inode.size:
            nbytes = max(0, file.inode.size - offset)
        yield charge(CostDomain.SYSCALL, "read",
                     self.costs.syscall_crossing)
        if nbytes == 0:
            return 0
        if self.faults is not None:
            yield from self._media_scan(file.inode, offset, nbytes,
                                        write=False)
        extents = self._extents_touched(file.inode, offset, nbytes)
        lookup = self.costs.extent_lookup * extents
        src = self._data_medium(file.inode, offset, nbytes, write=False)
        copy = self.mem.memcpy(nbytes, src, Medium.DRAM, kernel=True)
        if random_access:
            copy += self.mem.load_latency(src)
        copy = max(copy, self._device_wait(nbytes, False))
        yield charge(CostDomain.SYSCALL, "extent-lookup", lookup)
        yield charge(CostDomain.COPY, "read-copy", copy)
        self.stats.add(Counter.FS_READ_BYTES, nbytes)
        return nbytes

    def write(self, file: DaxFile, offset: int, nbytes: int):
        """write() from a DRAM user buffer: nt-store copy to PMem.

        Extends the file (allocating blocks) when the write passes EOF.
        """
        file._check_open()
        if nbytes <= 0:
            raise InvalidArgumentError("write size must be positive")
        yield charge(CostDomain.SYSCALL, "write",
                     self.costs.syscall_crossing)
        new_end = offset + nbytes
        if new_end > file.inode.block_count * BLOCK_SIZE:
            needed = -(-new_end // BLOCK_SIZE) - file.inode.block_count
            yield from self._allocate(file.inode, needed,
                                      zero=self.zeroes_on_write_path)
        if self.faults is not None:
            yield from self._media_scan(file.inode, offset, nbytes,
                                        write=True)
        extents = self._extents_touched(file.inode, offset, nbytes)
        lookup = self.costs.extent_lookup * extents
        dst = self._data_medium(file.inode, offset, nbytes, write=True)
        copy = self.mem.memcpy(nbytes, Medium.DRAM, dst,
                               kernel=True, ntstore=True)
        copy = max(copy, self._device_wait(nbytes, True))
        yield charge(CostDomain.SYSCALL, "extent-lookup", lookup)
        yield charge(CostDomain.COPY, "write-copy", copy)
        if self.persistence is not None:
            self.persistence.data_store(file.inode.number, nbytes, nt=True)
        if new_end > file.inode.size:
            self._persist_size(file.inode, new_end)
        file.inode.size = max(file.inode.size, new_end)
        yield from self._metadata_update()
        self.stats.add(Counter.FS_WRITE_BYTES, nbytes)
        return nbytes

    def fallocate(self, file: DaxFile, new_size: int):
        """Reserve blocks up to ``new_size`` (zeroing per FS policy)."""
        file._check_open()
        yield charge(CostDomain.SYSCALL, "fallocate",
                     self.costs.syscall_crossing)
        needed = -(-new_size // BLOCK_SIZE) - file.inode.block_count
        if needed > 0:
            yield from self._allocate(file.inode, needed,
                                      zero=self.zeroes_on_fallocate)
            yield from self._metadata_update()
        if new_size > file.inode.size:
            self._persist_size(file.inode, new_size)
        file.inode.size = max(file.inode.size, new_size)

    def fsync(self, file: DaxFile):
        """fsync after write() syscalls: the data is already durable
        (nt-stores), so only metadata needs committing."""
        file._check_open()
        yield charge(CostDomain.SYSCALL, "fsync",
                     self.costs.syscall_crossing)
        upto = (self.persistence.cursor()
                if self.persistence is not None else None)
        yield from self._commit_sync()
        if upto is not None:
            self.persistence.sync_data(file.inode.number, upto)
        self.stats.add(Counter.FS_FSYNC_CALLS)

    def truncate(self, file: DaxFile, new_size: int):
        file._check_open()
        yield charge(CostDomain.SYSCALL, "truncate",
                     self.costs.syscall_crossing)
        yield from self._truncate_inode(file.inode, new_size)

    def unlink(self, path: str):
        yield charge(CostDomain.SYSCALL, "unlink",
                     self.costs.syscall_crossing)
        inode = self.vfs.lookup(path)
        yield from self._truncate_inode(inode, 0)
        self._persist_unlink(path, inode)
        self.vfs.remove(path)
        yield from self._metadata_update()

    # ------------------------------------------------------------------
    # Mapping support (used by the VM layer and DaxVM).
    # ------------------------------------------------------------------
    def frame_for_page(self, inode: Inode, page_index: int) -> Optional[int]:
        """Physical frame backing file page ``page_index`` (or None)."""
        block = inode.extents.physical_block(page_index)
        if block is None:
            return None
        return self.device.frame_of(block)

    def frames_for_run(self, inode: Inode, page_index: int,
                       count: int) -> Sequence[int]:
        """Frames backing up to ``count`` file pages from ``page_index``.

        One extent lookup for the whole run: the run stops where the
        extent holding ``page_index`` ends, and is empty on a hole.
        Page ``page_index + i`` maps to element ``i``, exactly as
        :meth:`frame_for_page` would return it.
        """
        extent = inode.extents.find(page_index)
        if extent is None:
            return ()
        remaining = extent.logical + extent.length - page_index
        if count > remaining:
            count = remaining
        return self.device.frames_of(
            extent.physical + (page_index - extent.logical), count)

    def pmd_capable(self, inode: Inode, page_index: int) -> bool:
        """May the 2 MB region holding this page map as a huge page?"""
        return self.allow_huge and inode.extents.pmd_capable(page_index)

    def fault_lookup_cost(self, inode: Inode) -> float:
        """Extent-tree lookup cycles a DAX fault pays for this file."""
        n = len(inode.extents)
        return self.costs.fault_extent_lookup * (1.0 + math.log2(n + 1))

    def mapsync_fault(self):
        """Metadata work a MAP_SYNC write fault must perform."""
        if self.mapsync_needs_commit:
            yield from self._commit_sync()
        else:
            yield charge(CostDomain.JOURNAL, "mapsync-noop", 0.0)

    # ------------------------------------------------------------------
    # Internals shared by subclasses.
    # ------------------------------------------------------------------
    def _allocate(self, inode: Inode, nblocks: int, zero: bool):
        """Allocate blocks, charge zeroing, fire DaxVM hooks.

        Allocation proceeds in 2 MB chunks, each attempting an aligned
        contiguous extent first (mballoc-style goal allocation), so a
        file's huge-page coverage degrades *gradually* with free-space
        fragmentation instead of all-or-nothing.
        """
        runs: List[Tuple[int, int]] = []
        remaining = nblocks
        while remaining > 0:
            chunk = min(remaining, BLOCKS_PER_PMD)
            align = BLOCKS_PER_PMD if chunk == BLOCKS_PER_PMD else 1
            runs.extend(self.device.alloc(chunk, align=align))
            remaining -= chunk
        self._persist_extent_append(inode, runs)
        for start, length in runs:
            inode.extents.append(start, length)
        yield charge(CostDomain.SYSCALL, "block-alloc",
                     self.costs.block_alloc * len(runs))
        self.stats.add(Counter.FS_BLOCKS_ALLOCATED, nblocks)
        if zero:
            dirty = 0
            for start, length in runs:
                pre = self.zeroed.remove(start, start + length)
                dirty += length - pre
            if dirty:
                cost = self.mem.zero(dirty * BLOCK_SIZE)
                cost = max(cost, self._device_wait(dirty * BLOCK_SIZE, True))
                self.stats.add(Counter.FS_ZEROING_CYCLES, cost)
                self.stats.add(Counter.FS_BLOCKS_ZEROED_SYNC, dirty)
                yield charge(CostDomain.ZEROING, "sync-zero", cost)
        else:
            for start, length in runs:
                self.zeroed.remove(start, start + length)
        hook_cycles = 0.0
        for hook in self.alloc_hooks:
            hook_cycles += hook(inode, runs) or 0.0
        if hook_cycles:
            self.stats.add(Counter.FS_FILETABLE_MAINTENANCE_CYCLES,
                           hook_cycles)
            yield charge(CostDomain.FILETABLE, "alloc-hooks", hook_cycles)

    def _truncate_inode(self, inode: Inode, new_size: int):
        for barrier in self.free_barriers:
            yield from barrier(inode)
        new_blocks = -(-new_size // BLOCK_SIZE)
        deferred = self._persist_truncate(inode, new_blocks, new_size)
        freed = inode.extents.truncate_to(new_blocks)
        inode.size = min(inode.size, new_size)
        if not freed:
            return
        yield charge(CostDomain.SYSCALL, "block-free",
                     self.costs.block_free * len(freed))
        self.stats.add(Counter.FS_BLOCKS_FREED, sum(l for _s, l in freed))
        hook_cycles = 0.0
        for hook in self.free_hooks:
            hook_cycles += hook(inode, freed) or 0.0
        if hook_cycles:
            self.stats.add(Counter.FS_FILETABLE_MAINTENANCE_CYCLES,
                           hook_cycles)
            yield charge(CostDomain.FILETABLE, "free-hooks", hook_cycles)
        if deferred is not None:
            # Freed blocks must stay allocated until the truncate record
            # is durable (jbd2 defers frees to transaction commit, else
            # a crash could hand live data to another file).
            deferred.extend(freed)
        elif self.free_interceptor is not None and self.free_interceptor(freed):
            self.stats.add(Counter.FS_FREES_INTERCEPTED, len(freed))
        else:
            for start, length in freed:
                self.device.free(start, length)
        yield from self._metadata_update()

    # ------------------------------------------------------------------
    # Persistence-domain shadowing (crash-point exploration).
    #
    # Each helper is a no-op without an attached domain.  Records are
    # created *before* the in-memory mutation they shadow, so a crash at
    # the record's own transition observes the pre-mutation state.  The
    # ``undo`` actions implement logical rollback of uncommitted
    # transactions; ``on_durable`` defers block frees to commit.  Both
    # capture values only (module-level functions below) and act on the
    # machine the domain hands them, so a rollback applied to a copy of
    # the storage never reaches the live machine.
    # ------------------------------------------------------------------
    def _persist_create(self, path: str) -> None:
        if self.persistence is None:
            return
        self.persistence.meta_store("create", None, 256,
                                    undo=partial(_undo_create, path))

    def _persist_unlink(self, path: str, inode: Inode) -> None:
        domain = self.persistence
        if domain is None:
            return
        domain.meta_store("unlink", domain.track(inode), 256,
                          undo=partial(_undo_unlink, path))

    def _persist_size(self, inode: Inode, new_size: int) -> None:
        domain = self.persistence
        if domain is None:
            return
        domain.meta_store("inode-size", domain.track(inode), 16,
                          undo=partial(_undo_size, inode.size))

    def _persist_extent_append(self, inode: Inode,
                               runs: List[Tuple[int, int]]) -> None:
        domain = self.persistence
        if domain is None or not runs:
            return
        domain.note_block_alloc(runs)
        total = sum(length for _start, length in runs)
        domain.meta_store(
            "extent-append", domain.track(inode), 8 * total,
            undo=partial(_undo_extent_append, inode.extents.block_count))

    def _persist_truncate(self, inode: Inode, new_blocks: int,
                          new_size: int) -> Optional[List[Tuple[int, int]]]:
        """Returns the record's run list, to be filled with the freed
        runs; the frees wait until the record is durable."""
        domain = self.persistence
        if domain is None:
            return None
        if inode.extents.block_count <= new_blocks and inode.size <= new_size:
            return None
        rec = domain.meta_store("truncate", domain.track(inode), 64,
                                undo=partial(_undo_truncate, inode.size),
                                on_durable=_free_truncated)
        rec.runs = []
        return rec.runs

    # ------------------------------------------------------------------
    # Media-error handling (repro.faults; every helper is unreachable
    # without an attached MediaFaults, so ordinary runs charge nothing).
    # ------------------------------------------------------------------
    def _media_scan(self, inode: Inode, offset: int, nbytes: int,
                    write: bool):
        """Consult the badblocks list over one read/append window.

        Advances the fault clock by one touch (which may arm a UE on
        the first touched block or inject a stall/bandwidth window),
        then handles every bad block found: a full-block nt-store
        overwrite clears the error in place (the DAX clear-poison
        path); anything else remaps the block to a fresh allocation
        and quarantines the bad one.  Read-path remaps lose the
        block's previous contents — the loss is *accounted*
        (``faults.bytes_lost``), never silent.
        """
        faults = self.faults
        first = offset // BLOCK_SIZE
        last = (offset + max(nbytes, 1) - 1) // BLOCK_SIZE
        touched: List[Tuple[int, int]] = []
        for logical in range(first, last + 1):
            physical = inode.extents.physical_block(logical)
            if physical is not None:
                touched.append((logical, physical))
        stall = faults.block_touch("write" if write else "read", inode,
                                   [phys for _lb, phys in touched])
        if stall:
            # The stall freezes the whole device: every other live
            # thread's core absorbs the window as stolen cycles,
            # attributed to the stall (not the shootdown bucket).
            if self.engine is not None:
                self.engine.broadcast_interrupt(
                    stall, CostDomain.FAULTS, "stall-stolen")
            yield charge(CostDomain.FAULTS, "device-stall", stall)
        if not self.device.badblocks:
            return
        bad = [(lb, phys) for lb, phys in touched
               if self.device.is_bad(phys)]
        if not bad:
            return
        yield charge(CostDomain.FAULTS, "media-error",
                     self.costs.media_error_handle * len(bad))
        for logical, physical in bad:
            covered = (write
                       and offset <= logical * BLOCK_SIZE
                       and offset + nbytes >= (logical + 1) * BLOCK_SIZE)
            if covered:
                # The whole block is being rewritten with nt-stores:
                # the driver's clear-poison path scrubs it in place and
                # drops it from the badblocks list.
                self.device.clear_bad(physical)
                faults.note_cleared(physical)
                yield charge(CostDomain.FAULTS, "clear-poison",
                             self.costs.clear_poison_per_block)
            else:
                yield from self._remap_bad_block(
                    inode, logical, physical, data_lost=not write)

    def _remap_bad_block(self, inode: Inode, logical: int, physical: int,
                         data_lost: bool):
        """Relocate one bad block and permanently retire the old one."""
        runs = self.device.alloc(1, prefer_contiguous=True)
        new_physical = runs[0][0]
        inode.extents.replace_block(logical, new_physical)
        self.device.quarantine(physical)
        self.zeroed.remove(new_physical, new_physical + 1)
        yield charge(CostDomain.FAULTS, "ue-remap",
                     self.costs.media_remap_per_block
                     + self.costs.block_alloc)
        # DaxVM file tables hold direct PTEs to the old frame; rewrite
        # them from the remapped page onward so walks can never reach
        # the quarantined block.
        fixup = 0.0
        for table in (inode.volatile_file_table,
                      inode.persistent_file_table):
            if table is not None:
                fixup += table.truncate(logical)
                fixup += table.extend(self)
        if fixup:
            self.stats.add(Counter.FS_FILETABLE_MAINTENANCE_CYCLES, fixup)
            yield charge(CostDomain.FILETABLE, "remap-fixup", fixup)
        self.faults.note_remapped(physical, new_physical,
                                  BLOCK_SIZE if data_lost else 0)

    def _extents_touched(self, inode: Inode, offset: int,
                         nbytes: int) -> int:
        first = offset // BLOCK_SIZE
        last = (offset + nbytes - 1) // BLOCK_SIZE
        count = 0
        block = first
        while block <= last:
            extent = inode.extents.find(block)
            count += 1
            if extent is None:
                break
            block = extent.logical_end
        return max(1, count)

    # Metadata disciplines, overridden by subclasses. ------------------
    def _metadata_update(self):
        raise NotImplementedError

    def _commit_sync(self):
        raise NotImplementedError
