"""Machine and cost-model configuration for the DaxVM reproduction.

Everything the simulator charges for — memory latencies, bandwidths,
syscall crossings, fault handling, TLB shootdowns, journal commits — is
declared here as one calibrated, documented constant.  Keeping every
number in a single frozen dataclass makes calibration auditable: the
benchmarks under ``benchmarks/`` only check *shapes* (who wins and by
roughly what factor), and any retuning happens in this file alone.

Units: time is measured in CPU cycles on a fixed-frequency clock
(:attr:`MachineConfig.freq_hz`, 2.7 GHz as in the paper's Cascade Lake
testbed); sizes are bytes.  Bandwidths are stated in bytes/second and
converted to cycles/byte via :meth:`CostModel.cycles_per_byte`.

Sources for the constants:

* The paper itself (Section V): 2.7 GHz, 16 cores/socket, Table II
  page-walk cycles, the 33-page full-flush threshold, the 32 KB
  volatile/persistent file-table threshold, the 200-cycle / 5 % monitor
  rule, the 64 MB/s pre-zeroing throttle.
* Yang et al., "An Empirical Guide to the Behavior and Use of Scalable
  Persistent Memory" (FAST'20), which the paper cites for Optane DCPMM
  latency/bandwidth and for nt-stores doubling the bandwidth of
  cache-line write-back flushes.
* Amit et al. (EuroSys'20) for IPI/TLB-shootdown costs (the paper cites
  "up to thousands of cycles").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class MachineConfig:
    """Static description of the simulated machine (one socket)."""

    num_cores: int = 16
    freq_hz: float = 2.7e9
    dram_bytes: int = 94 << 30
    pmem_bytes: int = 384 << 30
    #: Capacity a CXL-expander node carries when ``--node-kinds``
    #: configures one (zero capacity exists nowhere by default).
    cxl_bytes: int = 256 << 30
    #: Capacity an NT-interleave/far-memory node carries when
    #: configured.
    far_bytes: int = 96 << 30

    #: Base (4 KB) page and the x86-64 huge page sizes.
    page_size: int = 4096
    pmd_size: int = 2 << 20
    pud_size: int = 1 << 30

    #: Data TLB capacity, entries (typical Cascade Lake L2 STLB).
    tlb_entries_4k: int = 1536
    tlb_entries_2m: int = 1536

    def cycles_from_seconds(self, seconds: float) -> float:
        return seconds * self.freq_hz

    def seconds_from_cycles(self, cycles: float) -> float:
        return cycles / self.freq_hz


@dataclass(frozen=True)
class CostModel:
    """Calibrated per-operation costs, in cycles unless stated otherwise."""

    machine: MachineConfig = dataclasses.field(default_factory=MachineConfig)

    # ------------------------------------------------------------------
    # Raw memory access latencies (idle, per cache line / element).
    # ------------------------------------------------------------------
    #: Random-access load latency from DRAM (~81 ns, FAST'20).
    dram_load_latency: float = 220.0
    #: Random-access load latency from Optane PMem (~305 ns, FAST'20).
    pmem_load_latency: float = 825.0
    #: Latency of an L1/L2-resident load (data recently copied/touched).
    cache_load_latency: float = 10.0

    # ------------------------------------------------------------------
    # Streaming bandwidths (single thread), bytes/second.
    # ------------------------------------------------------------------
    #: Sequential AVX-512 read bandwidth out of PMem (user space;
    #: FAST'20 measures ~6.5 GB/s single-threaded sequential).
    pmem_read_bw: float = 6.5e9
    #: Sequential read bandwidth out of DRAM.
    dram_read_bw: float = 12.0e9
    #: nt-store (streaming write) bandwidth into PMem.
    pmem_ntstore_bw: float = 2.2e9
    #: Write bandwidth into PMem via regular stores + clwb/sfence
    #: flushes.  FAST'20: nt-stores roughly double flush bandwidth.
    pmem_clwb_bw: float = 1.1e9
    #: Store bandwidth into DRAM.
    dram_write_bw: float = 9.0e9
    #: Aggregate PMem device read bandwidth (3 DCPMM DIMMs ~6.6 GB/s
    #: each, FAST'20) — the shared ceiling multithreaded runs hit.
    pmem_total_read_bw: float = 19.8e9
    #: Aggregate PMem device write bandwidth.
    pmem_total_write_bw: float = 7.5e9
    #: Kernel copy bandwidth (rep-mov style copy, no AVX-512: the
    #: kernel avoids vector registers across the syscall boundary —
    #: §III-C, Vectorization).
    kernel_copy_ratio: float = 0.70

    # ------------------------------------------------------------------
    # The CXL-expander and far-memory tiers (ROADMAP item 3).  Fed into
    # the MediumSpec registry (repro.mem.tiers); never read by the
    # DRAM/PMem paths, so DRAM+PMem-only configs are untouched.
    # ------------------------------------------------------------------
    #: Random load from a CXL 2.0 memory expander (~2.5x local DRAM,
    #: ~205 ns — the latency band CXLRAMSim v1.0 calibrates against).
    cxl_load_latency: float = 560.0
    #: Single-thread sequential read over the x8 CXL link.
    cxl_read_bw: float = 9.0e9
    #: nt-store streaming bandwidth into the expander.
    cxl_ntstore_bw: float = 5.0e9
    #: Leaf PTE line read from CXL-resident tables on a page walk.
    walk_leaf_cxl: float = 530.0
    #: Random load from an NT-interleave/far-memory node: remote-socket
    #: DRAM over UPI, ~1.8x local ("Emulating Hybrid Memory on NUMA
    #: Hardware").
    far_load_latency: float = 400.0
    #: Sequential read from the far node (~60 % of local DRAM).
    far_read_bw: float = 7.2e9
    #: Streaming store bandwidth into the far node.
    far_write_bw: float = 5.4e9
    #: Leaf PTE line read from far-memory tables.
    walk_leaf_far: float = 145.0
    #: Tiering daemon: scan cost per tracked 2 MB granule (hotness
    #: list walk + counter reset), charged to the tiering domain.
    tiering_scan_granule: float = 130.0

    # ------------------------------------------------------------------
    # Kernel crossing / syscall / VFS costs.
    # ------------------------------------------------------------------
    #: User->kernel->user crossing for one syscall.
    syscall_crossing: float = 700.0
    #: Path lookup + fd setup for open() with a warm dentry cache.
    vfs_open_warm: float = 900.0
    #: Extra cost of a cold open: allocate VFS inode, read FS metadata.
    vfs_open_cold_extra: float = 2600.0
    #: close() teardown.
    vfs_close: float = 450.0
    #: Per-extent lookup in the file system extent tree (read path).
    extent_lookup: float = 180.0
    #: Extent-tree lookup cost inside a DAX fault, per log2(extents):
    #: big (especially aged) files have deep, cache-cold extent trees,
    #: so their faults are several times dearer than a small file's —
    #: the file-indexing overhead §VII's related work (ctFS, HashFS)
    #: targets, and the reason Fig. 5's mmap trails read/write while
    #: Fig. 4's small-file mmap is only ~20-30 % behind.
    fault_extent_lookup: float = 500.0

    # ------------------------------------------------------------------
    # Virtual-memory operation costs (outside lock waiting, which the
    # DES simulates explicitly).
    # ------------------------------------------------------------------
    #: Find a free virtual range + allocate/insert a VMA (rb-tree work).
    vma_alloc: float = 950.0
    #: Remove a VMA and free its bookkeeping.
    vma_free: float = 500.0
    #: Fixed cost of taking a page fault: trap, walk VMA tree, return.
    fault_entry: float = 750.0
    #: DAX fault body: FS block lookup + PTE install for one 4 KB page.
    fault_dax_pte: float = 450.0
    #: DAX fault body for one 2 MB PMD huge page.
    fault_dax_pmd: float = 900.0
    #: Extra work when a write fault must mark a page dirty in the page
    #: cache radix tree (software dirty tracking).
    dirty_track_per_page: float = 500.0
    #: Per-PTE teardown cost during munmap (clear + accounting).
    pte_teardown: float = 55.0
    #: Per-PMD attach/detach cost for DaxVM file-table splicing.
    pmd_attach: float = 260.0
    #: Building one PTE in a file table (volatile).
    filetable_pte_fill: float = 28.0
    #: Extra cost per cache line of persistent file-table PTEs
    #: (clwb + ordering amortised over 8 PTEs per line).
    filetable_clwb_line: float = 360.0
    #: Issue cost of one clwb instruction on a clean line (a sync of a
    #: coarse granule must sweep every line in it, but only actually
    #: dirty lines generate write-back traffic).
    clwb_issue_per_line: float = 4.0

    # ------------------------------------------------------------------
    # TLB / shootdown costs.
    # ------------------------------------------------------------------
    #: Local single-page invlpg.
    tlb_invlpg: float = 220.0
    #: Local full TLB flush (write to CR3).
    tlb_full_flush: float = 600.0
    #: Initiator fixed cost to send one IPI round and wait for acks.
    ipi_base: float = 1800.0
    #: Additional initiator cost per responding core (APIC broadcast
    #: keeps the per-target increment modest).
    ipi_per_core: float = 250.0
    #: Cycles stolen from each responding core's running thread.
    ipi_responder: float = 700.0
    #: Linux batches per-page invalidations up to this many pages, then
    #: prefers one full flush (x86 tlb_single_page_flush_ceiling).
    full_flush_threshold: int = 33
    #: Average TLB refill penalty per entry discarded by a full flush,
    #: charged lazily to subsequent execution.
    tlb_refill_penalty: float = 40.0
    #: Live (hot) entries a full flush realistically costs refills for.
    full_flush_hot_entries: int = 64

    # ------------------------------------------------------------------
    # Page-walk model (calibrated against Table II of the paper:
    # seq/rand 4 KB access, average walk = 28/111 cycles with DRAM
    # tables and 103/821 cycles with PMem tables).
    # ------------------------------------------------------------------
    #: Expected cost of the three upper walk levels under sequential
    #: access (paging-structure caches absorb almost everything).
    walk_upper_seq: float = 18.0
    #: ... and under random access over a large footprint.
    walk_upper_rand: float = 31.0
    #: Reading the leaf (PTE) cache line from DRAM on a walk.
    walk_leaf_dram: float = 80.0
    #: Reading the leaf cache line from PMem (persistent file tables).
    walk_leaf_pmem: float = 790.0
    #: Probability the leaf line misses the caches under sequential
    #: access: one miss per cache line of 8 consecutive PTEs.
    walk_leaf_miss_seq: float = 0.125
    #: ... and under random access (every walk reads the leaf).
    walk_leaf_miss_rand: float = 1.0
    #: Average walk cost when the leaf is a huge (PMD) entry in the
    #: process's private DRAM tables.
    walk_huge: float = 16.0

    # ------------------------------------------------------------------
    # Alternative translation architectures (repro.paging.schemes).
    # ``radix4`` uses only the Table II parameters above; the three
    # alternative MMUs add their own knobs so `sweep mmu` can price
    # each design honestly and cache keys change when they do.
    # ------------------------------------------------------------------
    #: radix5/LA57: expected cost of the 5th (extra upper) walk level
    #: under sequential access (paging-structure caches absorb most)...
    walk5_upper_extra_seq: float = 6.0
    #: ... and under random access over a large footprint.
    walk5_upper_extra_rand: float = 10.0
    #: hashed/inverted: hash + tag-compare chain per lookup (the walk
    #: is the same for sequential and random access — no leaf
    #: locality in an inverted table).
    hashed_walk_compute: float = 24.0
    #: hashed: average probes per lookup at the steady-state load
    #: factor; each probe reads one bucket line from DRAM.
    hashed_probe_avg: float = 1.25
    #: hashed: insert one translation (probe chain + entry write).
    #: DaxVM attach pays this *per page* — no shareable fragments.
    hashed_insert: float = 180.0
    #: range/segment: fixed lookup overhead (segment registers, range
    #: TLB probe) ...
    range_walk_base: float = 14.0
    #: ... plus this per binary-search step over the range table.
    range_walk_step: float = 9.0
    #: range: insert one range entry (sorted-table surgery + possible
    #: neighbour merge).  DaxVM attach pays this per contiguous run.
    range_insert: float = 420.0

    # ------------------------------------------------------------------
    # File system costs.
    # ------------------------------------------------------------------
    #: Allocate one extent in the block allocator (ext4 mballoc-like).
    block_alloc: float = 1900.0
    #: Free one extent.
    block_free: float = 900.0
    #: Journal transaction begin/commit pair for a metadata update.
    journal_commit: float = 9000.0
    #: NOVA log append (inode log entry + flush).
    nova_log_append: float = 2300.0
    #: memset-zero bandwidth into PMem with nt-stores.
    pmem_zero_bw: float = 2.4e9
    #: Default DaxVM pre-zeroing throttle, bytes/second (paper: 64 MB/s
    #: is the evaluated throttle; the kthread is rate limited).
    prezero_throttle_bw: float = 64.0e6

    # ------------------------------------------------------------------
    # Media-error handling costs (repro.faults; charged only when a
    # fault plan is armed on the machine).
    # ------------------------------------------------------------------
    #: Kernel handling of one uncorrectable error report: MCE/ARS
    #: notification plus the pmem badblocks-list update.
    media_error_handle: float = 25000.0
    #: Remap one bad block inside an extent: replacement allocation,
    #: extent-tree surgery and bitmap/metadata updates.
    media_remap_per_block: float = 6000.0
    #: ``memory_failure()`` base cost: rmap walk setup, page poison
    #: bookkeeping and the hwpoison entry swap (per-PTE teardown is
    #: charged on top via ``pte_teardown``).
    memory_failure_base: float = 180000.0
    #: Driver clear-poison path per block: the ioctl/ARS round plus the
    #: fenced nt-store overwrite that scrubs the line.
    clear_poison_per_block: float = 40000.0

    # ------------------------------------------------------------------
    # Guest VMs and post-copy live migration (repro.virt; charged only
    # when a hypervisor is attached).  The link numbers model a
    # dedicated inter-machine migration channel (RDMA-class NIC or a
    # cross-socket interconnect lane); nested-walk pricing reuses the
    # Table II walk constants through TranslationScheme.nested_walk_cost.
    # ------------------------------------------------------------------
    #: Hypervisor exit + world-switch overhead charged per guest
    #: access window that traps into the host (post-copy pulls,
    #: degraded remote access).
    vmexit_cost: float = 1200.0
    #: One-way propagation latency of the migration link, cycles
    #: (~1.5 us: an RDMA round between adjacent racks).
    migrate_link_latency: float = 4000.0
    #: Streaming bandwidth of the migration link, bytes/second.
    migrate_link_bw: float = 3.0e9
    #: Minimal device state shipped during the pause (vCPU registers,
    #: device model, the guest-physical map — not the pages).
    migrate_handover_bytes: int = 256 << 10
    #: Downtime budget for the pause phase, cycles; the audit flags a
    #: migration whose booked downtime exceeds this (~2 ms).
    migrate_downtime_budget: float = 5.4e6
    #: A demand pull that stalls longer than this is timed out and
    #: retried (seeded in-sim backoff).
    migrate_pull_timeout: float = 300000.0
    #: Retry ladder: base backoff for attempt ``n`` is
    #: ``migrate_retry_backoff * 2**n`` cycles, jittered by the seed.
    migrate_retry_backoff: float = 20000.0
    #: Pulls that still stall after this many retries flip the job
    #: into degraded mode (then abort-and-rollback).
    migrate_max_pull_retries: int = 3
    #: Degraded mode prices unpulled-page accesses as remote accesses
    #: across the link at this latency multiplier over a local PMem
    #: load (the guest limps, it does not lose data).
    migrate_degraded_factor: float = 4.0
    #: Degraded accesses tolerated before the job aborts and rolls
    #: back to the source.
    migrate_degraded_budget: int = 64
    #: Pages the background prefetch kthread pulls per batch.
    migrate_prefetch_batch: int = 16
    #: Idle cycles the prefetch kthread sleeps between batches.
    migrate_prefetch_interval: float = 150000.0

    # ------------------------------------------------------------------
    # DaxVM policies (paper Sections IV-A..IV-E).
    # ------------------------------------------------------------------
    #: Files up to this size keep volatile (DRAM) file tables.
    filetable_volatile_max: int = 32 << 10
    #: Monitor rule (Table III): migrate persistent tables to DRAM when
    #: the average walk exceeds this many cycles ...
    monitor_walk_cycles: float = 200.0
    #: ... and page walks consume more than this fraction of runtime.
    monitor_mmu_overhead: float = 0.05
    #: Zombie-page threshold for asynchronous munmap batching.
    async_unmap_batch_pages: int = 33
    #: Ephemeral heap region granularity.
    ephemeral_region_bytes: int = 1 << 30

    # ------------------------------------------------------------------
    # Synchronisation primitive costs (uncontended; contention is
    # simulated by the DES, not modelled as a constant).
    # ------------------------------------------------------------------
    lock_uncontended: float = 60.0
    atomic_rmw: float = 45.0
    #: Cache-line bounce when a contended lock word moves between cores.
    lock_bounce: float = 320.0

    # ------------------------------------------------------------------
    # Derived helpers.
    # ------------------------------------------------------------------
    def cycles_per_byte(self, bandwidth_bytes_per_s: float) -> float:
        """Convert a bandwidth into a per-byte cycle cost."""
        return self.machine.freq_hz / bandwidth_bytes_per_s

    def copy_cycles(self, nbytes: int, bandwidth_bytes_per_s: float,
                    startup: float = 90.0) -> float:
        """Cycles to move ``nbytes`` at the given bandwidth."""
        # ``cycles_per_byte`` inlined: every priced data movement lands
        # here, and the expression is the same.
        return startup + nbytes * (self.machine.freq_hz
                                   / bandwidth_bytes_per_s)

    def replace(self, **changes) -> "CostModel":
        """Return a copy with the given fields overridden."""
        return dataclasses.replace(self, **changes)

    def to_stable_dict(self) -> dict:
        """Every calibrated constant (machine included) as plain data."""
        return dataclasses.asdict(self)


#: Default, paper-calibrated cost model used throughout the package.
DEFAULT_COSTS = CostModel()
DEFAULT_MACHINE = DEFAULT_COSTS.machine


# ---------------------------------------------------------------------------
# NUMA cross-socket penalties (defaults for repro.topology).
#
# Sources: Yang et al. (FAST'20) measure remote-socket Optane loads at
# ~2-3x local latency and remote streaming bandwidth at roughly half
# of local (reads) to a third (stores); "Emulating Hybrid Memory on
# NUMA Hardware" builds its emulation on the same DRAM asymmetries
# (~1.6-1.8x latency over UPI).  Cross-socket IPIs add the UPI hop to
# the APIC round trip (Amit et al., EuroSys'20 report thousands of
# cycles end to end).
# ---------------------------------------------------------------------------
#: Remote / local DRAM load-latency ratio across the UPI link.
NUMA_REMOTE_DRAM_LATENCY = 1.7
#: Remote / local Optane load-latency ratio.
NUMA_REMOTE_PMEM_LATENCY = 2.3
#: Remote / local DRAM streaming-bandwidth ratio.
NUMA_REMOTE_DRAM_BW = 0.60
#: Remote / local Optane streaming-bandwidth ratio.
NUMA_REMOTE_PMEM_BW = 0.45
#: Remote / local CXL-expander load-latency ratio (an extra switch
#: hop; the link itself already dominates).
NUMA_REMOTE_CXL_LATENCY = 1.4
#: Remote / local CXL-expander streaming-bandwidth ratio.
NUMA_REMOTE_CXL_BW = 0.70
#: Remote / local far-memory load-latency ratio (a second UPI hop).
NUMA_REMOTE_FAR_LATENCY = 1.3
#: Remote / local far-memory streaming-bandwidth ratio.
NUMA_REMOTE_FAR_BW = 0.70
#: Extra initiator cycles per cross-socket IPI target.
NUMA_IPI_CROSS_SOCKET_EXTRA = 900.0


# ---------------------------------------------------------------------------
# Media presets beyond Optane (paper §VI: DaxVM is relevant for any
# byte-addressable storage — CXL memory-semantic SSDs, future NVM).
# ---------------------------------------------------------------------------
def optane_costs() -> CostModel:
    """The paper's testbed: Intel Optane DCPMM (the default)."""
    return CostModel()


def cxl_flash_costs() -> CostModel:
    """A CXL memory-semantic SSD (§VI: e.g. Samsung's announcement).

    Flash-backed load latency is several microseconds uncached, with a
    large on-device DRAM cache absorbing most hits; streaming
    bandwidths ride the CXL link.  Software costs (faults, locks,
    shootdowns) are unchanged — which is the paper's §VI point: the
    *relative* weight of VM overheads only grows as media get nearer.
    """
    return CostModel(
        pmem_load_latency=4200.0,      # ~1.5 us effective random load
        pmem_read_bw=8.0e9,            # CXL x8 link-ish streaming
        pmem_ntstore_bw=3.0e9,
        pmem_clwb_bw=1.5e9,
        pmem_total_read_bw=24.0e9,
        pmem_total_write_bw=9.0e9,
        pmem_zero_bw=3.0e9,
        walk_leaf_pmem=2400.0,         # table walks into the device
    )


def fast_nvm_costs() -> CostModel:
    """A hypothetical near-DRAM persistent memory (future NVM).

    With media latency approaching DRAM, the software stack becomes
    essentially the whole cost of file access — DaxVM's elimination of
    paging and VM serialisation matters *more*, not less.
    """
    return CostModel(
        pmem_load_latency=300.0,
        pmem_read_bw=11.0e9,
        pmem_ntstore_bw=8.0e9,
        pmem_clwb_bw=4.0e9,
        pmem_total_read_bw=40.0e9,
        pmem_total_write_bw=25.0e9,
        pmem_zero_bw=8.0e9,
        walk_leaf_pmem=160.0,
    )


MEDIA_PRESETS = {
    "optane": optane_costs,
    "cxl-flash": cxl_flash_costs,
    "fast-nvm": fast_nvm_costs,
}
