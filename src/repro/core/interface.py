"""The DaxVM system-call interface: ``daxvm_mmap`` / ``daxvm_munmap``.

This facade composes the five DaxVM mechanisms behind a POSIX-relaxed
interface (paper §IV-F):

* mappings are silently rounded to the attachment granularity (2 MB
  PMD slots; 1 GB PUD slots for files above 1 GB) — more of the file
  than requested may become visible;
* three new flags: ``MAP_EPHEMERAL`` (heap-allocated, no memory-op
  support), ``MAP_UNMAP_ASYNC`` (deferred batched unmapping) and
  ``MAP_NO_MSYNC`` (drop all kernel dirty tracking; msync no-ops);
* partial mprotect/mremap fail; whole-mapping variants work unless the
  mapping is ephemeral; madvise is unsupported.

Costs: a DaxVM mmap is O(1)-ish — one attachment per 2 MB/1 GB slot
instead of one fault per page — and an ephemeral mmap takes
``mmap_sem`` only as a reader.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import CostModel
from repro.core.async_unmap import AsyncUnmapper
from repro.core.ephemeral import EphemeralHeap
from repro.core.filetable import FileTableManager
from repro.core.monitor import MMUMonitor
from repro.core.prezero import PreZeroDaemon
from repro.errors import InvalidArgumentError, NotSupportedError
from repro.fs.base import FileSystem
from repro.fs.vfs import Inode
from repro.mem.latency import MemoryModel
from repro.mem.physmem import PhysicalMemory
from repro.paging.flags import PageFlags
from repro.obs import Counter, CostDomain, charge
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.vm.mm import MMStruct
from repro.vm.vma import (
    EPHEMERAL_BIT,
    NO_MSYNC_BIT,
    PAGE_SIZE,
    SHARED_BIT,
    SYNC_BIT,
    UNMAP_ASYNC_BIT,
    VMA,
    WRITE_BIT,
    MapFlags,
    Protection,
)

PMD_SIZE = 2 << 20
PUD_SIZE = 1 << 30
PAGES_PER_PMD = PMD_SIZE // PAGE_SIZE


class DaxVM:
    """Per-process DaxVM state and entry points."""

    def __init__(self, engine: Engine, mm: MMStruct, fs: FileSystem,
                 physmem: PhysicalMemory, mem: MemoryModel,
                 costs: CostModel, stats: Stats,
                 filetables: FileTableManager,
                 batch_pages: Optional[int] = None):
        self.engine = engine
        self.mm = mm
        self.fs = fs
        self.costs = costs
        self.stats = stats
        #: The file-table manager is FS-wide; processes share it.
        self.filetables = filetables
        self.ephemeral = EphemeralHeap(engine, mm, costs, stats)
        self.unmapper = AsyncUnmapper(engine, mm, costs, stats,
                                      batch_pages)
        fs.free_barriers.append(self.unmapper.force_sync_for_inode)
        self.prezero = PreZeroDaemon(engine, fs, costs, mem, stats)
        self.monitor = MMUMonitor(engine, costs, stats, self.filetables)
        self.mem = mem
        self.physmem = physmem

    # ------------------------------------------------------------------
    # daxvm_mmap.
    # ------------------------------------------------------------------
    def mmap(self, inode: Inode, offset: int = 0,
             length: Optional[int] = None,
             prot: Protection = Protection.rw(),
             flags: MapFlags = MapFlags.SHARED):
        """Map a file through its pre-populated tables.  Generator;
        returns the VMA (``vma.user_addr`` maps the requested offset).
        """
        bits = flags._value_
        if not bits & SHARED_BIT:
            raise NotSupportedError(
                "daxvm_mmap currently supports shared mappings only")
        if bits & NO_MSYNC_BIT and not bits & SYNC_BIT:
            raise InvalidArgumentError(
                "MAP_NO_MSYNC must be combined with MAP_SYNC")
        if length is None:
            length = max(inode.size - offset, PAGE_SIZE)
        yield charge(CostDomain.SYSCALL, "daxvm-mmap",
                     self.costs.syscall_crossing)

        table, build_cycles = self.filetables.ensure(inode)
        if build_cycles:
            yield charge(CostDomain.FILETABLE, "table-build", build_cycles)

        # Silent rounding to the attachment granularity (§IV-A2).
        granule = PUD_SIZE if length > PUD_SIZE else PMD_SIZE
        lo = (offset // granule) * granule
        hi = -(-(offset + length) // granule) * granule
        file_span = max(table.filled_pages * PAGE_SIZE, PAGE_SIZE)
        hi = min(hi, -(-file_span // granule) * granule)
        hi = max(hi, lo + granule)
        span = hi - lo

        ephemeral = bits & EPHEMERAL_BIT != 0
        if ephemeral:
            yield from self.mm.mmap_sem.acquire_read()
            start = yield from self.ephemeral.allocate(span, align=granule)
        else:
            yield from self.mm.mmap_sem.acquire_write()
            yield charge(CostDomain.SYSCALL, "vma-alloc",
                         self.costs.vma_alloc)
            start = self.mm.layout.allocate(span, align=granule)

        vma = VMA(start, start + span, inode, lo, prot, flags)
        vma.fs = self.fs
        vma.mm = self.mm
        vma.fully_populated = True
        vma.leaf_medium = self.mm.scheme.effective_leaf_medium(table.medium)
        vma.dirty_granule = granule
        vma.user_addr = start + (offset - lo)
        attach_cost = self._attach(vma, table, granule)
        yield charge(CostDomain.FILETABLE, "attach", attach_cost)
        inode.i_mmap.append(vma)
        if self.mm.guest is not None:
            self.mm.guest.note_mapping(vma)

        if ephemeral:
            self.ephemeral.record(vma)
            yield from self.mm.mmap_sem.release_read()
        else:
            self.mm.vmas[start] = vma
            yield from self.mm.mmap_sem.release_write()
        self.stats.add(Counter.DAXVM_MMAP_CALLS)
        return vma

    def _attach(self, vma: VMA, table, granule: int) -> float:
        """Make the file table visible through the process's MMU.

        Radix schemes splice the shared fragments in (the paper's O(1)
        attach); schemes without shareable structures populate their
        own tables here, at whatever per-entry cost their design
        honestly pays.
        """
        tracks = vma.tracks_dirty
        base_flags = (PageFlags.ro() if tracks or
                      not vma.prot._value_ & WRITE_BIT else PageFlags.rw())
        scheme = self.mm.scheme
        first_region = vma.file_offset // PMD_SIZE
        num_regions = vma.length // PMD_SIZE
        cost = 0.0
        if granule == PUD_SIZE:
            # PUD-level: one attachment per GB-level shared PMD node.
            first_gb = vma.file_offset // PUD_SIZE
            for i, gb in enumerate(range(first_gb,
                                         first_gb + vma.length // PUD_SIZE)):
                vaddr = vma.start + i * PUD_SIZE
                gb_cost, attachment = scheme.attach_gb(
                    vaddr, table, gb, base_flags)
                if attachment is None:
                    continue
                vma.attachments.append(attachment)
                cost += gb_cost
        else:
            for i in range(num_regions):
                region = first_region + i
                vaddr = vma.start + i * PMD_SIZE
                region_cost, attachment = scheme.attach_region(
                    vaddr, table, region, base_flags)
                if attachment is None:
                    continue
                vma.attachments.append(attachment)
                cost += region_cost
        # Huge regions drive the TLB model regardless of attach level.
        for region, _frame in table.huge_frames.items():
            if first_region <= region < first_region + num_regions:
                vma.huge_regions.add(region - first_region)
        # Pages actually translated through this mapping (for zombie
        # accounting and shootdown sizing).
        span_pages = min(table.filled_pages - first_region * PAGES_PER_PMD,
                         vma.length // PAGE_SIZE)
        vma.mapped_pages = max(0, span_pages)
        self.stats.add(Counter.DAXVM_ATTACHMENTS, len(vma.attachments))
        return cost

    # ------------------------------------------------------------------
    # daxvm_munmap.
    # ------------------------------------------------------------------
    def munmap(self, vma: VMA):
        """Unmap (possibly deferred).  Generator."""
        yield charge(CostDomain.SYSCALL, "daxvm-munmap",
                     self.costs.syscall_crossing)
        if vma.flags._value_ & UNMAP_ASYNC_BIT:
            releaser = (self._release_ephemeral if vma.is_ephemeral
                        else self._release_regular)
            yield from self.unmapper.defer(vma, releaser)
        else:
            yield from self._sync_unmap(vma)
        self.stats.add(Counter.DAXVM_MUNMAP_CALLS)

    def _sync_unmap(self, vma: VMA):
        pages = self.mm.scheme.clear_range(vma.start, vma.length)
        yield charge(CostDomain.FILETABLE, "detach",
                     self.mm.scheme.detach_cost(len(vma.attachments)))
        if pages:
            yield from self.mm.shootdowns.flush(
                self.mm._initiator_core(), self.mm.active_cores, pages)
        if vma.inode is not None and vma in vma.inode.i_mmap:
            vma.inode.i_mmap.remove(vma)
        if vma.is_ephemeral:
            yield from self._release_ephemeral(vma)
        else:
            yield from self._release_regular(vma)

    def _release_ephemeral(self, vma: VMA):
        yield from self.ephemeral.free(vma)

    def _release_regular(self, vma: VMA):
        yield from self.mm.mmap_sem.acquire_write()
        self.mm.vmas.pop(vma.start, None)
        self.mm.layout.free(vma.start, vma.length,
                            align=PUD_SIZE if vma.length > PUD_SIZE
                            else PMD_SIZE)
        yield from self.mm.mmap_sem.release_write()

    # ------------------------------------------------------------------
    # Restricted POSIX operations (§IV-F).
    # ------------------------------------------------------------------
    def mprotect(self, vma: VMA, offset: int, length: int,
                 prot: Protection):
        """Only whole-mapping protection changes are allowed."""
        if vma.is_ephemeral:
            raise NotSupportedError("mprotect on MAP_EPHEMERAL mapping")
        if offset != 0 or length < vma.length:
            raise NotSupportedError("partial mprotect on a DaxVM mapping")
        yield charge(CostDomain.SYSCALL, "daxvm-mprotect",
                     self.costs.syscall_crossing)
        yield from self.mm.mmap_sem.acquire_write()
        flags = (PageFlags.rw() if prot & Protection.WRITE
                 else PageFlags.ro())
        # Permissions live at the attachment level: one entry per slot.
        for vaddr, _level, _payload in vma.attachments:
            self.mm.scheme.protect_range(vaddr, PMD_SIZE, flags)
        yield charge(CostDomain.FILETABLE, "reprotect-attachments",
                     len(vma.attachments) * self.costs.pmd_attach)
        vma.prot = prot
        yield from self.mm.shootdowns.flush(
            self.mm._initiator_core(), self.mm.active_cores,
            len(vma.attachments) * PAGES_PER_PMD, force_full=True)
        yield from self.mm.mmap_sem.release_write()

    def mremap(self, vma: VMA, new_length: int):
        if vma.is_ephemeral:
            raise NotSupportedError("mremap on MAP_EPHEMERAL mapping")
        yield from self.mm.mremap(vma, new_length)

    def madvise(self, vma: VMA, advice: str):
        raise NotSupportedError("madvise targets volatile memory "
                                "management; DaxVM does not support it")

    def msync(self, vma: VMA):
        """msync: 2 MB-granule flush, or a no-op under MAP_NO_MSYNC."""
        yield from self.mm.msync(vma)

    # ------------------------------------------------------------------
    # Monitor-driven table migration (§IV-A1).
    # ------------------------------------------------------------------
    def monitor_check(self, vmas: List[VMA]):
        """Run the Table III rule over the given mappings; on trigger,
        migrate their tables to DRAM and re-point the attachments.
        Generator (charges the detach/attach walk, not the background
        table build)."""
        inodes = []
        for vma in vmas:
            if vma.inode is not None and vma.inode not in inodes:
                inodes.append(vma.inode)
        build_cycles = self.monitor.check(inodes)
        if build_cycles <= 0:
            yield charge(CostDomain.FILETABLE, "monitor-no-trigger", 0.0)
            return False
        # Swap each mapping's attachments to the volatile tables.  The
        # migration target is spec-driven: the present medium with the
        # cheapest leaf walk (DRAM on every machine that has it — the
        # Table III rule exists precisely because walk_leaf_dram is the
        # floor of the walk-cost column).
        fast_medium = min(self.physmem.media_present(),
                          key=lambda m: self.mem.specs[m].walk_leaf)
        swap_cost = 0.0
        for vma in vmas:
            table = self.filetables.table_for(vma.inode)
            if table is None or table.medium is not fast_medium:
                continue
            # clear_range detaches shared fragments and clears huge
            # leaves alike.
            self.mm.scheme.clear_range(vma.start, vma.length)
            vma.attachments.clear()
            vma.huge_regions.clear()
            granule = PUD_SIZE if vma.length > PUD_SIZE else PMD_SIZE
            swap_cost += self._attach(vma, table, granule)
            vma.leaf_medium = self.mm.scheme.effective_leaf_medium(
                fast_medium)
        yield charge(CostDomain.FILETABLE, "table-migration-swap",
                     swap_cost * 2)  # detach walk + attach walk
        yield from self.mm.shootdowns.flush(
            self.mm._initiator_core(), self.mm.active_cores,
            self.costs.full_flush_threshold + 1, force_full=True)
        return True
