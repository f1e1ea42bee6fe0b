"""``MMStruct`` — the simulated Linux memory manager for one process.

This is the baseline whose inherent costs §III of the paper dissects:

* one global ``mmap_sem`` reader/writer semaphore serialising every
  address-space operation (writers: mmap/munmap; readers: faults);
* a red-black tree recording every VMA;
* demand paging — each first touch of a page takes a fault that
  installs a PTE (or a PMD leaf when extent geometry allows);
* software dirty tracking — shared writable file pages start
  write-protected; the first store takes a permission fault that tags
  the page-cache tree (plus, under MAP_SYNC on ext4, a synchronous
  journal commit);
* synchronous munmap with IPI TLB shootdowns to every core running
  the process.

DaxVM (in :mod:`repro.core`) subclasses none of this; it *composes*
with it, replacing exactly the pieces the paper replaces and leaving
the rest (the semaphore, the VMA tree for non-ephemeral mappings, the
shootdown controller) shared — which is what lets the benchmarks turn
individual optimisations on and off (Fig. 8a's incremental bars).

Cost-fidelity note: operations touching few pages are simulated as
true per-page events through the semaphore (preserving lock contention
across threads); bulk operations over many pages aggregate their
per-page costs into one event under a single semaphore hold, which is
exact for the single-threaded large-file workloads that use them.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.config import CostModel
from repro.errors import (
    AddressSpaceError,
    InvalidArgumentError,
    NotSupportedError,
    PoisonedPageError,
)
from repro.fs.base import FileSystem
from repro.fs.vfs import Inode
from repro.mem.latency import MemoryModel
from repro.mem.physmem import Medium, PhysicalMemory
from repro.paging.pagetable import PMD_LEVEL
from repro.paging.flags import PageFlags
from repro.paging.schemes import make_scheme
from repro.obs import Counter, CostDomain, charge, charge_span
from repro.obs.counters import counter_key
from repro.paging.tlb import AccessPattern, ShootdownController, TLBModel
from repro.paging.walker import PageWalker
from repro.sim.engine import Engine
from repro.sim.locks import RWSemaphore
from repro.sim.stats import Stats
from repro.vm.dirty import DirtyTracker
from repro.vm.layout import AddressSpaceLayout
from repro.vm.rbtree import RBTree
from repro.vm.vma import PAGE_SIZE, VMA, MapFlags, Protection

PMD_SIZE = 2 << 20
PAGES_PER_PMD = PMD_SIZE // PAGE_SIZE
#: Above this many pending faults, aggregate them into one bulk event.
BULK_FAULT_THRESHOLD = 64

#: Counter keys pre-resolved for the demand-fault and mapped-access
#: paths: these fire once per fault or access, and the ``Stats.add``
#: call frame plus enum lookup are measurable at millions of events
#: per sweep.
_VM_FAULTS_KEY = counter_key(Counter.VM_FAULTS)
_VM_PTE_FAULTS_KEY = counter_key(Counter.VM_PTE_FAULTS)
_VM_HUGE_FAULTS_KEY = counter_key(Counter.VM_HUGE_FAULTS)
_VM_DIRTY_FAULTS_KEY = counter_key(Counter.VM_DIRTY_FAULTS)
_VM_UNTRACKED_WRITES_KEY = counter_key(Counter.VM_UNTRACKED_WRITES)
_VM_ACCESS_BYTES_KEY = counter_key(Counter.VM_ACCESS_BYTES)
_VM_TLB_MISSES_KEY = counter_key(Counter.VM_TLB_MISSES)
_VM_WALK_CYCLES_KEY = counter_key(Counter.VM_WALK_CYCLES)
_VIRT_NESTED_WALK_CYCLES_KEY = counter_key(Counter.VIRT_NESTED_WALK_CYCLES)
_NUMA_LOCAL_ACCESSES_KEY = counter_key(Counter.NUMA_LOCAL_ACCESSES)
_NUMA_LOCAL_BYTES_KEY = counter_key(Counter.NUMA_LOCAL_BYTES)
_NUMA_REMOTE_ACCESSES_KEY = counter_key(Counter.NUMA_REMOTE_ACCESSES)
_NUMA_REMOTE_BYTES_KEY = counter_key(Counter.NUMA_REMOTE_BYTES)


def huge_covered_pages(huge_regions: Set[int], first_page: int,
                       npages: int) -> int:
    """How many of the pages ``first_page .. first_page+npages-1`` lie
    in a 2 MB region installed as a PMD leaf — counted per region, not
    per page."""
    end = first_page + npages
    covered = 0
    for region in range(first_page // PAGES_PER_PMD,
                        (end - 1) // PAGES_PER_PMD + 1):
        if region in huge_regions:
            base = region * PAGES_PER_PMD
            covered += (min(end, base + PAGES_PER_PMD)
                        - max(first_page, base))
    return covered


def pending_granules(writable: Set[int], lo: int, hi: int) -> List[int]:
    """The granules of ``lo..hi`` not yet write-enabled, ascending.

    A dirty granule is never smaller than a page (4 KB, 2 MB or 1 GB),
    so consecutive pages of a window fall in the same or the next
    granule: the window's granules are exactly the range ``lo..hi``.
    """
    return [g for g in range(lo, hi + 1) if g not in writable]


class MMStruct:
    """One process's memory manager."""

    def __init__(self, engine: Engine, costs: CostModel,
                 physmem: PhysicalMemory, mem: MemoryModel, stats: Stats,
                 aslr_seed: int = 0, name: str = "mm",
                 topology=None, home_node: int = 0,
                 scheme: str = "radix4"):
        self.engine = engine
        self.costs = costs
        self.physmem = physmem
        self.mem = mem
        self.stats = stats
        self.name = name
        #: repro.topology.MachineTopology (duck-typed; None = uniform)
        #: and the process's home socket: private page tables allocate
        #: there, and it is the fallback accessor node.
        self.topology = topology
        self.home_node = home_node
        #: The process's translation architecture.  ``radix4`` *is* the
        #: pre-refactor ``PageTable`` (same allocation order, same
        #: costs); the alternative MMUs plug in behind the same hooks.
        self.scheme = make_scheme(scheme, physmem, costs, Medium.DRAM,
                                  node=home_node)
        self.mmap_sem = RWSemaphore(engine, costs, f"{name}.mmap_sem")
        #: The trap-entry charge is a constant; the engine only reads
        #: effects, so one shared instance serves every demand fault.
        self._fault_entry_charge = charge(CostDomain.FAULT, "fault-entry",
                                          costs.fault_entry)
        self.vmas = RBTree()
        self.layout = AddressSpaceLayout(aslr_seed)
        self.page_cache = DirtyTracker()
        self.walker = PageWalker(costs)
        self.tlb = TLBModel(costs, costs.machine)
        self.shootdowns = ShootdownController(engine, costs, stats,
                                              topology=topology)
        #: Cores currently running this process's threads (cpumask).
        self.active_cores: Set[int] = set()
        #: :class:`repro.virt.GuestAddressSpace` when this mm *is* a
        #: guest under a hypervisor; ``None`` (bare machine) skips
        #: every virt hook.  A pass-through guest installs the hook
        #: but yields nothing, keeping the event stream bit-identical.
        self.guest = None

    @property
    def page_table(self):
        """Back-compat alias: the scheme *is* the translation structure.

        Under ``radix4``/``radix5`` this is a real
        :class:`~repro.paging.pagetable.PageTable`; the other schemes
        expose the same mapping primitives.
        """
        return self.scheme

    # ------------------------------------------------------------------
    # Thread registration (cpumask maintenance).
    # ------------------------------------------------------------------
    def register_thread(self, core_index: int) -> None:
        self.active_cores.add(core_index)

    def _initiator_core(self) -> int:
        current = self.engine.current
        return current.core.index if current is not None else 0

    def _numa_info(self, vma: VMA, first_page: int,
                   medium: Medium = Medium.PMEM):
        """(latency factor, bandwidth factor, target node, is-remote)
        for the running thread touching a mapping on a multi-socket
        machine (``access`` skips the call on uniform ones).
        ``medium`` is where the data actually resides (the device's
        native medium unless a tier overlay promoted it)."""
        frame = None
        if vma.fs is not None and vma.inode is not None:
            try:
                frame = vma.fs.frame_for_page(
                    vma.inode, vma.file_page(first_page))
            except Exception:
                frame = None  # hole/ephemeral: fall back to uniform
        return self.mem.numa_factors(
            self._initiator_core(), frame, medium)

    # ------------------------------------------------------------------
    # VMA lookup.
    # ------------------------------------------------------------------
    def find_vma(self, addr: int) -> Optional[VMA]:
        hit = self.vmas.floor(addr)
        if hit is None:
            return None
        vma = hit[1]
        return vma if vma.contains(addr) else None

    # ------------------------------------------------------------------
    # mmap / munmap.
    # ------------------------------------------------------------------
    def mmap(self, fs: FileSystem, inode: Inode, offset: int, length: int,
             prot: Protection, flags: MapFlags):
        """Map ``length`` bytes of a file; returns the VMA."""
        if length <= 0:
            raise InvalidArgumentError("mmap length must be positive")
        length = -(-length // PAGE_SIZE) * PAGE_SIZE
        yield charge(CostDomain.SYSCALL, "mmap",
                     self.costs.syscall_crossing)
        yield from self.mmap_sem.acquire_write()
        yield charge(CostDomain.SYSCALL, "vma-alloc", self.costs.vma_alloc)
        start = self.layout.allocate(length)
        vma = VMA(start, start + length, inode, offset, prot, flags)
        vma.fs = fs
        vma.mm = self
        self.vmas.insert(start, vma)
        inode.i_mmap.append(vma)
        if self.guest is not None:
            self.guest.note_mapping(vma)
        yield from self.mmap_sem.release_write()
        if flags & MapFlags.POPULATE:
            # mm_populate runs after the map is installed, holding the
            # semaphore only as a reader (as Linux does).
            yield from self._populate(
                vma, 0, vma.num_pages, write=bool(prot & Protection.WRITE))
        self.stats.add(Counter.VM_MMAP_CALLS)
        return vma

    def munmap(self, vma: VMA):
        """Synchronously unmap a VMA (the POSIX-faithful path)."""
        yield charge(CostDomain.SYSCALL, "munmap",
                     self.costs.syscall_crossing)
        yield from self.mmap_sem.acquire_write()
        yield from self._teardown_locked(vma)
        yield from self.mmap_sem.release_write()
        self.stats.add(Counter.VM_MUNMAP_CALLS)

    def _teardown_locked(self, vma: VMA, flush: bool = True):
        """Clear translations, flush TLBs, drop the VMA (sem held)."""
        pages = self.scheme.clear_range(vma.start, vma.length)
        teardown = pages * self.costs.pte_teardown
        teardown += self.scheme.detach_cost(len(vma.attachments))
        yield charge(CostDomain.SYSCALL, "pte-teardown",
                     teardown + self.costs.vma_free)
        if flush and pages + len(vma.attachments) > 0:
            flush_pages = pages + len(vma.attachments) * PAGES_PER_PMD
            yield from self.shootdowns.flush(
                self._initiator_core(), self.active_cores, flush_pages)
        self._drop_vma(vma)

    def _drop_vma(self, vma: VMA) -> None:
        self.vmas.delete(vma.start)
        if vma.inode is not None and vma in vma.inode.i_mmap:
            vma.inode.i_mmap.remove(vma)
        self.layout.free(vma.start, vma.length)
        vma.populated.clear()
        vma.writable.clear()
        vma.huge_regions.clear()

    # ------------------------------------------------------------------
    # Demand paging.
    # ------------------------------------------------------------------
    def _pmd_eligible(self, vma: VMA, region: int) -> bool:
        """May the 2 MB region ``region`` of the VMA map as one PMD leaf?

        Requires vaddr and file alignment, a PMD-capable extent, no
        4 KB PTE already in the region, and no poisoned frame in it.
        """
        vaddr_region = vma.start + region * PMD_SIZE
        region_first_page = region * PAGES_PER_PMD
        file_region_page = vma.file_offset // PAGE_SIZE + region_first_page
        faults = self.mem.faults
        return (
            vaddr_region % PMD_SIZE == 0
            and vaddr_region + PMD_SIZE <= vma.end
            and file_region_page % PAGES_PER_PMD == 0
            and vma.fs.pmd_capable(vma.inode, file_region_page)
            and vma.populated.isdisjoint(
                range(region_first_page, region_first_page + PAGES_PER_PMD))
            # A PMD leaf must never cover a poisoned frame — the region
            # falls back to 4 KB PTEs so the poisoned page alone traps.
            and not (faults is not None
                     and faults.poisoned_in(
                         vma.inode, file_region_page,
                         file_region_page + PAGES_PER_PMD - 1)))

    def _install_run(self, vma: VMA, first_page: int, npages: int,
                     writable: bool) -> Tuple[float, int]:
        """Install translations for the unpopulated pages of a window.

        Returns ``(cycles, installs)``: one install per PMD leaf or
        4 KB PTE.  A 2 MB region decides PMD eligibility once, at its
        first missing page; once a 4 KB PTE lands in it, the rest of
        the region is 4 KB too.  4 KB pages go in as runs: one extent
        lookup and one ``map_run`` per stretch of missing pages inside
        one extent and one region.  Costs still accumulate page by
        page, in page order (``n * per`` is not bit-equal to ``n``
        additions of ``per``).  A hole raises ``InvalidArgumentError``
        and a poisoned frame SIGBUS at the same page, with the same
        partial state, as a page-at-a-time install would.
        """
        if vma.fully_populated:
            return 0.0, 0
        fs: FileSystem = vma.fs
        inode = vma.inode
        populated = vma.populated
        huge_regions = vma.huge_regions
        faults = self.mem.faults
        scheme = self.scheme
        counters = self.stats.counters
        flags = PageFlags.rw() if writable else PageFlags.ro()
        file_base = vma.file_offset // PAGE_SIZE
        # The extents cannot change while the semaphore is held and
        # nothing yields, so one lookup cost holds for the window.
        lookup = fs.fault_lookup_cost(inode)
        pte_cost = self.costs.fault_dax_pte + lookup
        cost = 0.0
        installs = 0
        page = first_page
        end = first_page + npages
        while page < end:
            region = page // PAGES_PER_PMD
            stop = (region + 1) * PAGES_PER_PMD
            if stop > end:
                stop = end
            if region in huge_regions:
                page = stop
                continue
            while page < stop and page in populated:
                page += 1
            if page == stop:
                continue
            if self._pmd_eligible(vma, region):
                frame = fs.frame_for_page(
                    inode, file_base + region * PAGES_PER_PMD)
                scheme.map_page(vma.start + region * PMD_SIZE, frame, flags,
                                PMD_LEVEL)
                huge_regions.add(region)
                counters[_VM_HUGE_FAULTS_KEY] += 1.0
                cost += self.costs.fault_dax_pmd + lookup
                installs += 1
                page = stop
                continue
            while page < stop:
                # The run of missing pages from ``page`` ends at the
                # next populated page, the region's end or the extent's.
                run_end = page + 1
                if run_end < stop:
                    if populated.isdisjoint(range(run_end, stop)):
                        run_end = stop
                    else:
                        while run_end not in populated:
                            run_end += 1
                frames = fs.frames_for_run(inode, file_base + page,
                                           run_end - page)
                if not frames:
                    raise InvalidArgumentError(
                        f"{inode.path}: fault beyond allocated blocks "
                        f"(file page {file_base + page})")
                poisoned = None
                if faults is not None:
                    # Raced arming: a frame went bad after the pre-lock
                    # check.  The pages before it still install.
                    for i, frame in enumerate(frames):
                        if faults.poisoned_frame(frame):
                            poisoned = frame
                            frames = frames[:i]
                            break
                n = len(frames)
                if n:
                    vaddr = vma.start + page * PAGE_SIZE
                    if n == 1:
                        # Every single-page demand fault lands here:
                        # ``map_run`` of one frame is ``map_page``,
                        # without the run bookkeeping.
                        scheme.map_page(vaddr, frames[0], flags)
                        populated.add(page)
                    else:
                        scheme.map_run(vaddr, frames, flags)
                        populated.update(range(page, page + n))
                    counters[_VM_PTE_FAULTS_KEY] += n
                    for _ in frames:
                        cost += pte_cost
                    installs += n
                if poisoned is not None:
                    self._raise_sigbus(inode, poisoned, file_base + page + n)
                page += n
                while page < stop and page in populated:
                    page += 1
        return cost, installs

    def fault(self, vma: VMA, page: int, write: bool):
        """One demand fault, fully simulated through the semaphore."""
        yield self._fault_entry_charge
        faults = self.mem.faults
        if faults is not None and vma.inode is not None:
            # Poison check *before* taking mmap_sem: the common SIGBUS
            # path must not leave the semaphore held when it raises.
            file_page = vma.file_page(page)
            hit = faults.find_poisoned(vma.inode, file_page, file_page)
            if hit is not None:
                self._raise_sigbus(vma.inode, hit[0], hit[1])
        yield from self.mmap_sem.acquire_read()
        cost = 0.0
        try:
            install, _installs = self._install_run(
                vma, page, 1, writable=not vma.tracks_dirty)
        except (InvalidArgumentError, PoisonedPageError):
            yield from self.mmap_sem.release_read()
            raise
        cost += install
        if write and vma.tracks_dirty:
            cost += yield from self._dirty_fault_locked(vma, page)
        yield charge(CostDomain.FAULT, "fault-install", cost)
        yield from self.mmap_sem.release_read()
        self.stats.counters[_VM_FAULTS_KEY] += 1.0

    def _dirty_fault_locked(self, vma: VMA, page: int):
        """Write-protect fault: tag page cache, maybe commit metadata."""
        granule = vma.dirty_granule or PAGE_SIZE
        gindex = (vma.file_offset + page * PAGE_SIZE) // granule
        track_key = gindex
        if track_key in vma.writable:
            if self.page_cache.in_sync(vma.inode, gindex):
                # The PTE is still writable only because an in-flight
                # msync has not reprotected it yet; this write lands
                # after that sync's flush swept the lines, so the
                # granule must come back dirty *after* the sync epoch.
                self.page_cache.remark_after_sync(vma.inode, gindex)
            return 0.0
        vma.writable.add(track_key)
        self.page_cache.mark(vma.inode, gindex)
        cost = self.costs.dirty_track_per_page
        self.stats.counters[_VM_DIRTY_FAULTS_KEY] += 1.0
        if vma.flags & MapFlags.SYNC:
            fs: FileSystem = vma.fs
            yield from fs.mapsync_fault()
        return cost

    def _populate(self, vma: VMA, first_page: int, npages: int,
                  write: bool):
        """Bulk PTE installation under one read hold of ``mmap_sem``.

        Used by MAP_POPULATE and by bulk demand faulting; charges the
        per-page fault body (no trap entry for populate).  Returns the
        number of install events (huge installs cover 512 pages each),
        so demand-fault callers can charge one trap per event.  A hole
        or a poisoned frame drops the hold before its error propagates.
        """
        yield from self.mmap_sem.acquire_read()
        try:
            cost, installs = self._install_run(
                vma, first_page, npages,
                writable=write and not vma.tracks_dirty)
        except (InvalidArgumentError, PoisonedPageError):
            yield from self.mmap_sem.release_read()
            raise
        yield charge(CostDomain.FAULT, "bulk-install", cost)
        yield from self.mmap_sem.release_read()
        return installs

    # ------------------------------------------------------------------
    # The data access path used by every workload.
    # ------------------------------------------------------------------
    def access(self, vma: VMA, offset: int, length: int, *,
               write: bool = False,
               pattern: AccessPattern = AccessPattern.SEQUENTIAL,
               ops: Optional[int] = None,
               data_cached: bool = False,
               ntstore: bool = True,
               copy: bool = False,
               touch_bytes: Optional[int] = None):
        """Access ``[offset, offset+length)`` of a mapping.

        Performs demand faulting for unpopulated pages, write-protect
        (dirty-tracking) faults for tracked writable mappings, charges
        the data movement itself, and charges TLB miss costs.

        ``ops`` — for RANDOM pattern: the number of random operations
        of size ``length`` issued within the VMA window starting at
        ``offset`` (default 1 sequential pass).  ``touch_bytes`` lets a
        caller touch less data than the faulted window (e.g. a 1 KB
        write into a 4 KB page).  ``copy=True`` models memcpy between
        the mapping and a DRAM buffer (the database access idiom of
        Figs. 1c/5) instead of in-place scanning; with ``write=True``
        and ``ntstore=False`` the stores stay in the cache and
        durability is deferred to a later sync.
        """
        if length <= 0:
            raise InvalidArgumentError("access length must be positive")
        first_page = offset // PAGE_SIZE
        last_page = (offset + length - 1) // PAGE_SIZE
        npages = last_page - first_page + 1
        # Bytes moved: priced, dirty-tagged and counted alike.
        nbytes = touch_bytes if touch_bytes is not None else length
        num_ops = ops or 1
        total_bytes = nbytes * num_ops
        mem = self.mem
        inode = vma.inode
        tracked = write and vma.tracks_dirty

        # -- media faults (before any translation is touched) -------------
        if mem.faults is not None and inode is not None:
            yield from self._media_map_check(vma, first_page, last_page,
                                             write=write)

        # -- hypervisor intercept (post-copy page pulls) -------------------
        if self.guest is not None:
            yield from self.guest.on_access(vma, first_page, last_page,
                                            write=write)

        # -- demand faults ------------------------------------------------
        if vma.fully_populated:
            missing = []
        else:
            # A page is populated when its 2 MB region is a PMD leaf or
            # it holds a 4 KB PTE; this scan runs for every access.
            populated = vma.populated
            huge_regions = vma.huge_regions
            missing = [p for p in range(first_page, last_page + 1)
                       if p // PAGES_PER_PMD not in huge_regions
                       and p not in populated]
        if missing:
            if len(missing) <= BULK_FAULT_THRESHOLD:
                for page in missing:
                    yield from self.fault(vma, page, write=False)
            else:
                installs = yield from self._populate(
                    vma, first_page, npages, write=False)
                yield charge(CostDomain.FAULT, "fault-entry",
                             self.costs.fault_entry * installs)
                self.stats.counters[_VM_FAULTS_KEY] += installs

        # -- dirty-tracking write faults -----------------------------------
        if tracked:
            granule = vma.dirty_granule or PAGE_SIZE
            base = vma.file_offset
            lo = (base + first_page * PAGE_SIZE) // granule
            hi = (base + last_page * PAGE_SIZE) // granule
            # The common case — one granule, already write-enabled —
            # takes no fault and needs no generator.
            if lo != hi or lo not in vma.writable:
                yield from self._write_track(vma, first_page, lo, hi)
            self.page_cache.add_bytes(inode, total_bytes)
        elif write:
            self.stats.counters[_VM_UNTRACKED_WRITES_KEY] += 1.0

        # -- data movement ---------------------------------------------------
        # The tier overlay (when attached) may have migrated this
        # window off the device's native medium; `None` — the default —
        # resolves to PMem, reproducing the pre-tiering model exactly.
        tiers = mem.tiers
        if tiers is None or inode is None:
            data_medium = Medium.PMEM
        else:
            data_medium = tiers.medium_for(inode, vma.file_page(first_page))
            tiers.note_touch(inode, vma.file_page(first_page),
                             vma.file_page(last_page), write=write)
        topology = self.topology
        if topology is None or topology.num_nodes == 1:
            numa = None
        else:
            numa = self._numa_info(vma, first_page, data_medium)
        lat_f, bw_f, target_node, numa_remote = numa or (1.0, 1.0, 0, False)

        # Price at the access's NUMA factors.  A remote access prices
        # the uniform-factor variant too: the difference is the UPI
        # tax, ledgered separately so perf breakdowns can show it.
        rand = pattern is AccessPattern.RANDOM
        prices = []
        for lat_factor, bw_factor in (((lat_f, bw_f), (1.0, 1.0))
                                      if numa_remote else ((lat_f, bw_f),)):
            if write and copy:
                cycles = mem.memcpy(nbytes, Medium.DRAM, data_medium,
                                    ntstore=ntstore, bw_factor=bw_factor)
            elif write:
                cycles = mem.stream_write(nbytes, data_medium,
                                          ntstore=ntstore, node=target_node,
                                          bw_factor=bw_factor)
            elif copy:
                cycles = mem.memcpy(nbytes, data_medium, Medium.DRAM,
                                    bw_factor=bw_factor)
                if rand:
                    cycles += mem.load_latency(data_medium,
                                               factor=lat_factor)
            elif rand:
                cycles = (mem.load_latency(data_medium, factor=lat_factor)
                          + mem.stream_read(nbytes, data_medium,
                                            cached=data_cached,
                                            node=target_node,
                                            bw_factor=bw_factor))
            else:
                cycles = mem.stream_read(nbytes, data_medium,
                                         cached=data_cached, node=target_node,
                                         bw_factor=bw_factor)
            prices.append(cycles * num_ops)
        data = prices[0]
        numa_extra = data - prices[1] if numa_remote else 0.0

        # -- device bandwidth contention ------------------------------------
        # Only media sharing the PMem DIMM pools contend there; data a
        # tier overlay moved to DRAM/CXL rides its own channel.
        if not data_cached and mem.specs[data_medium].device_pooled:
            wait = mem.device_delay(
                0 if write else total_bytes,
                total_bytes if write else 0, self.engine.now,
                node=target_node)
            data = max(data, wait)

        # -- TLB misses --------------------------------------------------------
        tlb_cost = self._tlb_cost(vma, first_page, npages, pattern,
                                  num_ops, nbytes, leaf_factor=lat_f)
        # One yield for the whole burst: there is no kernel code
        # between these charges, so span-merging them is bit-identical
        # (the engine interprets span entries with per-entry arithmetic).
        moved = (CostDomain.COPY if copy else CostDomain.USERSPACE,
                 "data-access", data - numa_extra)
        walk = (CostDomain.WALK, "tlb-walk", tlb_cost)
        if numa_extra:
            yield charge_span(
                (moved, (CostDomain.NUMA, "remote-access", numa_extra), walk))
        else:
            yield charge_span((moved, walk))

        # -- durability shadowing and sync-epoch races ----------------------
        if write and inode is not None:
            if tracked:  # ``granule`` was set by the write-track step
                self.page_cache.remark_racing(
                    inode, (vma.file_offset + offset) // granule,
                    (vma.file_offset + offset + length - 1) // granule)
            domain = mem.persistence
            if domain is not None:
                domain.data_store(inode.number, total_bytes, nt=ntstore)
        counters = self.stats.counters
        counters[_VM_ACCESS_BYTES_KEY] += total_bytes
        if numa is not None:
            if numa_remote:
                counters[_NUMA_REMOTE_ACCESSES_KEY] += num_ops
                counters[_NUMA_REMOTE_BYTES_KEY] += total_bytes
            else:
                counters[_NUMA_LOCAL_ACCESSES_KEY] += num_ops
                counters[_NUMA_LOCAL_BYTES_KEY] += total_bytes

    # ------------------------------------------------------------------
    # Media-fault handling (repro.faults).
    # ------------------------------------------------------------------
    def _raise_sigbus(self, inode: Inode, frame: int, file_page: int):
        """Deliver the simulated SIGBUS for a poisoned mapped page."""
        faults = self.mem.faults
        faults.note_sigbus()
        raise PoisonedPageError(
            f"{inode.path}: SIGBUS touching poisoned file page "
            f"{file_page} (frame {frame:#x})",
            frame=frame, inode=inode.number, path=inode.path,
            file_page=file_page)

    def _media_map_check(self, vma: VMA, first_page: int, last_page: int,
                         write: bool):
        """Advance the fault clock for one mapped-access window.

        A UE arming here models the machine check a real load takes on
        a dead line: ``memory_failure()`` tears the frame out of every
        address space, then the access itself gets SIGBUS.  Poison left
        by earlier touches also SIGBUSes before any data moves.
        """
        faults = self.mem.faults
        inode = vma.inode
        first_fp = vma.file_page(first_page)
        last_fp = vma.file_page(last_page)
        stall, armed = faults.map_touch(
            "map-write" if write else "map-read", inode, first_fp,
            last_fp, allow_ue=not vma.fully_populated)
        if stall:
            # Device-wide freeze: other live threads' cores absorb the
            # window as FAULTS/stall-stolen (see Engine.broadcast_interrupt).
            self.engine.broadcast_interrupt(
                stall, CostDomain.FAULTS, "stall-stolen")
            yield charge(CostDomain.FAULTS, "device-stall", stall)
        if armed is not None:
            yield from self.memory_failure(inode, armed[1], armed[0])
        hit = faults.find_poisoned(inode, first_fp, last_fp)
        if hit is not None:
            self._raise_sigbus(inode, hit[0], hit[1])

    def memory_failure(self, inode: Inode, file_page: int, frame: int):
        """The kernel poison handler (``mm/memory-failure.c``).

        Unmaps the poisoned frame from *every* process mapping the
        file — one shootdown over the union of the owners' cpumasks —
        so no stale translation can reach the dead line; subsequent
        touches fault and receive SIGBUS.  A PMD leaf covering the
        frame is torn down whole: the region's surviving pages fault
        back in as 4 KB PTEs (the poison check in ``_pmd_eligible``
        keeps the region from going huge again).
        """
        ptes = 0
        flush_cores: Set[int] = set(self.active_cores)
        for mapping in inode.i_mmap:
            if mapping.fully_populated:
                # DaxVM file-table attachment: its translations live in
                # the shared file table, handled by the FS remap path;
                # arming (`allow_ue`) never poisons these mappings.
                continue
            page = file_page - mapping.file_offset // PAGE_SIZE
            if not 0 <= page < mapping.num_pages:
                continue
            mm = mapping.mm if mapping.mm is not None else self
            vaddr = mapping.start + page * PAGE_SIZE
            cleared = mm.scheme.clear_range(vaddr, PAGE_SIZE)
            if not cleared:
                continue
            ptes += cleared
            mapping.populated.discard(page)
            mapping.huge_regions.discard(page // PAGES_PER_PMD)
            if mm is not self:
                flush_cores |= mm.active_cores
        faults = self.mem.faults
        faults.note_memory_failure(ptes)
        yield charge(CostDomain.FAULTS, "memory-failure",
                     self.costs.memory_failure_base
                     + ptes * self.costs.pte_teardown)
        if ptes:
            yield from self.shootdowns.flush(
                self._initiator_core(), flush_cores, ptes)

    def _write_track(self, vma: VMA, first_page: int, lo: int, hi: int):
        """Take write-protect faults for the untracked granules among
        ``lo..hi``, the granules of a window starting at ``first_page``."""
        pending = pending_granules(vma.writable, lo, hi)
        if not pending:
            return
        granule = vma.dirty_granule or PAGE_SIZE
        if len(pending) <= BULK_FAULT_THRESHOLD:
            for gindex in pending:
                page = (gindex * granule - vma.file_offset) // PAGE_SIZE
                page = max(first_page, page)
                yield self._fault_entry_charge
                yield from self.mmap_sem.acquire_read()
                cost = yield from self._dirty_fault_locked(vma, page)
                yield charge(CostDomain.FAULT, "dirty-track", cost)
                yield from self.mmap_sem.release_read()
                self.stats.counters[_VM_FAULTS_KEY] += 1.0
        else:
            yield from self.mmap_sem.acquire_read()
            cost = len(pending) * (self.costs.fault_entry
                                   + self.costs.dirty_track_per_page)
            for gindex in pending:
                vma.writable.add(gindex)
                self.page_cache.mark(vma.inode, gindex)
            counters = self.stats.counters
            counters[_VM_DIRTY_FAULTS_KEY] += len(pending)
            counters[_VM_FAULTS_KEY] += len(pending)
            if vma.flags & MapFlags.SYNC:
                fs: FileSystem = vma.fs
                if fs.mapsync_needs_commit:
                    yield charge(CostDomain.JOURNAL, "mapsync-commit",
                                 len(pending) * self.costs.journal_commit)
                    fs.stats.add(Counter.JOURNAL_SYNC_COMMITS,
                                 len(pending))
            yield charge(CostDomain.FAULT, "dirty-track", cost)
            yield from self.mmap_sem.release_read()

    def _tlb_cost(self, vma: VMA, first_page: int, npages: int,
                  pattern: AccessPattern, num_ops: int,
                  op_bytes: int, leaf_factor: float = 1.0) -> float:
        """TLB miss cycles for an access window.

        ``leaf_factor`` is the NUMA latency multiplier on PMem-resident
        leaf reads: a persistent file table lives on the file's socket,
        so remote mappings pay the cross-socket penalty on every walk.
        DRAM-resident (process-private) tables sit on the home node and
        stay at factor 1.
        """
        leaf_medium = vma.leaf_medium
        if leaf_medium is not Medium.PMEM:
            leaf_factor = 1.0
        # Split the window into huge-covered and 4 KB-covered pages.
        huge_pages = (huge_covered_pages(vma.huge_regions, first_page, npages)
                      if vma.huge_regions else 0)
        small_pages = npages - huge_pages
        huge_fraction = huge_pages / npages if npages else 0.0

        if pattern is AccessPattern.SEQUENTIAL and num_ops == 1:
            misses_small = small_pages
            misses_huge = max(1, huge_pages // PAGES_PER_PMD) if huge_pages else 0
        else:
            footprint = npages * PAGE_SIZE
            total = self.tlb.random_op_misses(num_ops, op_bytes,
                                              PAGE_SIZE, footprint)
            misses_small = total * (1 - huge_fraction)
            hfoot = huge_pages * PAGE_SIZE
            misses_huge = (self.tlb.random_op_misses(
                int(num_ops * huge_fraction) or 0, op_bytes, PMD_SIZE, hfoot)
                if huge_fraction else 0)
        # Schemes whose TLB entries span more than one page (the
        # range MMU: one entry per contiguous run) cap the per-page
        # miss count here; radix/hashed return it unchanged.
        misses_small = self.scheme.coalesce_tlb_misses(
            misses_small, vma.start + first_page * PAGE_SIZE,
            npages)
        walk_small = self.scheme.walk_cost(self.walker, pattern, leaf_medium,
                                           leaf_factor=leaf_factor)
        cost = misses_small * walk_small
        if misses_huge:
            # Skipping a zero term is bit-exact: every walk cost is a
            # finite float, so ``cost + 0 * walk`` equals ``cost``.
            cost += misses_huge * self.scheme.huge_walk_cost(self.walker)
        guest = self.guest
        if guest is not None and guest.nested:
            # Two-dimensional (guest-over-host) walk pricing: the same
            # misses, each walking both trees.  The surcharge over the
            # native walk is tracked so perf tables can show the
            # virtualisation tax; the cycles stay in the walk domain
            # (they *are* walk cycles).
            nested = (misses_small * self.scheme.nested_walk_cost(
                          self.walker, pattern, leaf_medium,
                          leaf_factor=leaf_factor)
                      + misses_huge
                      * self.scheme.nested_huge_walk_cost(self.walker))
            self.stats.counters[_VIRT_NESTED_WALK_CYCLES_KEY] += nested - cost
            cost = nested
        counters = self.stats.counters
        counters[_VM_TLB_MISSES_KEY] += misses_small + misses_huge
        counters[_VM_WALK_CYCLES_KEY] += cost
        return cost

    # ------------------------------------------------------------------
    # Sync operations.
    # ------------------------------------------------------------------
    def msync(self, vma: VMA):
        """Flush the mapping's dirty granules and restart tracking."""
        yield charge(CostDomain.SYSCALL, "msync",
                     self.costs.syscall_crossing)
        if vma.flags & MapFlags.NO_MSYNC:
            # DaxVM nosync mode: msync is a no-op (§IV-D).
            self.stats.add(Counter.VM_MSYNC_NOOP)
            return
        granule = vma.dirty_granule or PAGE_SIZE
        inode = vma.inode
        domain = self.mem.persistence
        upto = (domain.cursor()
                if domain is not None and inode is not None else None)
        written = self.page_cache.written_bytes(inode)
        # Open a sync epoch: between collecting the tags here and the
        # reprotect below, racing writes find their PTEs still writable
        # and must be re-marked dirty after the epoch closes.
        dirty = self.page_cache.begin_sync(inode)
        # Every line of a dirty granule must be swept with clwb, but
        # only lines actually written generate write-back traffic.
        swept_lines = len(dirty) * granule / 64
        writeback = min(written, len(dirty) * granule)
        flush_cost = (swept_lines * self.costs.clwb_issue_per_line
                      + self.mem.clwb_flush(int(writeback)))
        # Write-protect again for every process mapping the file.  The
        # reprotect touches *every* owner's page tables, so the
        # shootdown must reach the union of their active cores — an
        # IPI only to the caller's cpumask would leave stale writable
        # TLB entries live in the other processes.  Only the granules
        # this sync collected are reprotected; granules dirtied by
        # writes racing the epoch keep their writable PTEs and their
        # (re-marked) dirty tags.
        reprotect = 0.0
        protected_pages = 0
        flush_cores: Set[int] = set(self.active_cores)
        for mapping in inode.i_mmap:
            synced = mapping.writable & dirty
            if not synced:
                continue
            if mapping.mm is not None:
                flush_cores |= mapping.mm.active_cores
            protected_pages += len(synced) * (
                (mapping.dirty_granule or PAGE_SIZE) // PAGE_SIZE)
            reprotect += len(synced) * self.costs.pte_teardown
            mapping.writable -= synced
        yield charge(CostDomain.COPY, "msync-flush", flush_cost)
        yield charge(CostDomain.SYSCALL, "msync-reprotect", reprotect)
        if protected_pages:
            yield from self.shootdowns.flush(
                self._initiator_core(), flush_cores, protected_pages)
        self.page_cache.end_sync(inode)
        if upto is not None:
            # msync returned: the stores issued before it are promised
            # durable — flush, fence and acknowledge them.
            domain.sync_data(inode.number, upto)
        self.stats.add(Counter.VM_MSYNC_CALLS)
        self.stats.add(Counter.VM_MSYNC_FLUSHED, len(dirty))

    # ------------------------------------------------------------------
    # Other POSIX memory operations (baseline supports them fully).
    # ------------------------------------------------------------------
    def mprotect(self, vma: VMA, offset: int, length: int,
                 prot: Protection):
        if vma.is_ephemeral:
            raise NotSupportedError("mprotect on an ephemeral mapping")
        yield charge(CostDomain.SYSCALL, "mprotect",
                     self.costs.syscall_crossing)
        yield from self.mmap_sem.acquire_write()
        first = offset // PAGE_SIZE
        npages = -(-length // PAGE_SIZE)
        flags = (PageFlags.rw() if prot & Protection.WRITE
                 else PageFlags.ro())
        changed = self.scheme.protect_range(
            vma.start + first * PAGE_SIZE, npages * PAGE_SIZE, flags)
        yield charge(CostDomain.SYSCALL, "mprotect-ptes",
                     changed * self.costs.pte_teardown
                     + self.costs.vma_alloc)
        vma.prot = prot
        yield from self.shootdowns.flush(
            self._initiator_core(), self.active_cores, max(changed, 1))
        yield from self.mmap_sem.release_write()
        self.stats.add(Counter.VM_MPROTECT_CALLS)

    def fork(self, child: "MMStruct"):
        """Duplicate this address space into ``child`` (fork()).

        Holds the semaphore as a writer (Table IV, set D) and copies
        every VMA plus its installed translations.  Shared file
        mappings stay shared (both mm's PTEs point at the same PMem
        frames); DaxVM attachments are *not* duplicated — a forked
        child re-establishes them with daxvm_mmap, which is O(1)
        anyway (and is what the paper's multi-process servers do).
        """
        yield charge(CostDomain.SYSCALL, "fork",
                     self.costs.syscall_crossing)
        yield from self.mmap_sem.acquire_write()
        copy_cost = 0.0
        for start, vma in list(self.vmas.items()):
            if vma.is_ephemeral or vma.attachments:
                continue
            clone = VMA(vma.start, vma.end, vma.inode, vma.file_offset,
                        vma.prot, vma.flags)
            clone.fs = vma.fs
            clone.mm = child
            clone.dirty_granule = vma.dirty_granule
            clone.leaf_medium = vma.leaf_medium
            child.vmas.insert(start, clone)
            child.layout.allocated_bytes += clone.length
            if vma.inode is not None:
                vma.inode.i_mmap.append(clone)
            copy_cost += self.costs.vma_alloc
            # Copy installed translations (write-protected in both
            # address spaces so dirty tracking restarts cleanly).
            fs: FileSystem = vma.fs
            for page in vma.populated:
                frame = fs.frame_for_page(vma.inode, vma.file_page(page))
                child.scheme.map_page(
                    vma.start + page * PAGE_SIZE, frame, PageFlags.ro())
                clone.populated.add(page)
                copy_cost += self.costs.pte_teardown
            for region in vma.huge_regions:
                frame = fs.frame_for_page(
                    vma.inode, vma.file_page(region * PAGES_PER_PMD))
                child.scheme.map_page(
                    vma.start + region * PMD_SIZE, frame,
                    PageFlags.ro(), PMD_LEVEL)
                clone.huge_regions.add(region)
                copy_cost += self.costs.pte_teardown
            vma.writable.clear()
        yield charge(CostDomain.COPY, "fork-copy", copy_cost)
        yield from self.mmap_sem.release_write()
        self.stats.add(Counter.VM_FORKS)
        return child

    def mremap(self, vma: VMA, new_length: int):
        """Grow/shrink a mapping in place (whole-mapping resize)."""
        if vma.is_ephemeral:
            raise NotSupportedError("mremap on an ephemeral mapping")
        new_length = -(-new_length // PAGE_SIZE) * PAGE_SIZE
        yield charge(CostDomain.SYSCALL, "mremap",
                     self.costs.syscall_crossing)
        yield from self.mmap_sem.acquire_write()
        yield charge(CostDomain.SYSCALL, "vma-alloc", self.costs.vma_alloc)
        if new_length < vma.length:
            drop_start = vma.start + new_length
            pages = self.scheme.clear_range(
                drop_start, vma.length - new_length)
            yield charge(CostDomain.SYSCALL, "pte-teardown",
                         pages * self.costs.pte_teardown)
            if pages:
                yield from self.shootdowns.flush(
                    self._initiator_core(), self.active_cores, pages)
            vma.populated = {p for p in vma.populated
                             if p < new_length // PAGE_SIZE}
            # Return the dropped tail to the layout so later mmaps can
            # reuse it and teardown frees exactly what stays mapped.
            self.layout.free(drop_start, vma.length - new_length)
        elif new_length > vma.length:
            # Growing in place is only legal if the extension is still
            # free in the layout; reserve it (or fail, as Linux does
            # without MREMAP_MAYMOVE) before moving the VMA's end, or a
            # later mmap could allocate overlapping addresses.
            if not self.layout.reserve_range(vma.end,
                                             new_length - vma.length):
                yield from self.mmap_sem.release_write()
                raise AddressSpaceError(
                    f"mremap: cannot grow [{vma.start:#x}, {vma.end:#x}) "
                    f"in place; the range above it is already in use")
        vma.end = vma.start + new_length
        yield from self.mmap_sem.release_write()
        self.stats.add(Counter.VM_MREMAP_CALLS)
