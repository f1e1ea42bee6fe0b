"""Typed counter names replacing the untyped string-counter style.

Every counter the kernel bumps is declared here once; ``Stats`` accepts
either a :class:`Counter` member or a plain string (external consumers —
benches, JSON readers — keep using the string values, which are the
enum values verbatim, so ``r.counters["vm.faults"]`` still works).

Declaring a counter buys three things: typos become ``AttributeError``
at import time instead of silently-zero counters at read time, grep
finds every producer and consumer of a metric through one symbol, and
the taxonomy below documents what the simulator can be asked.
"""

from __future__ import annotations

import enum


class Counter(enum.Enum):
    """Every event counter the kernel layers may bump."""

    # -- TLB / shootdowns (paging/tlb.py) ---------------------------------
    TLB_FULL_FLUSHES = "tlb.full_flushes"
    TLB_RANGE_FLUSHES = "tlb.range_flushes"
    TLB_PAGES_INVALIDATED = "tlb.pages_invalidated"
    TLB_IPIS = "tlb.ipis"
    TLB_SHOOTDOWNS = "tlb.shootdowns"

    # -- VFS / file systems (fs/) -----------------------------------------
    VFS_COLD_OPENS = "vfs.cold_opens"
    VFS_WARM_OPENS = "vfs.warm_opens"
    FS_READ_BYTES = "fs.read_bytes"
    FS_WRITE_BYTES = "fs.write_bytes"
    FS_FSYNC_CALLS = "fs.fsync_calls"
    FS_BLOCKS_ALLOCATED = "fs.blocks_allocated"
    FS_ZEROING_CYCLES = "fs.zeroing_cycles"
    FS_BLOCKS_ZEROED_SYNC = "fs.blocks_zeroed_sync"
    FS_FILETABLE_MAINTENANCE_CYCLES = "fs.filetable_maintenance_cycles"
    FS_BLOCKS_FREED = "fs.blocks_freed"
    FS_FREES_INTERCEPTED = "fs.frees_intercepted"
    NOVA_LOG_APPENDS = "nova.log_appends"
    JOURNAL_BATCHED_UPDATES = "journal.batched_updates"
    JOURNAL_SYNC_COMMITS = "journal.sync_commits"

    # -- Virtual memory (vm/mm.py, vm/dirty.py) ---------------------------
    VM_MMAP_CALLS = "vm.mmap_calls"
    VM_MUNMAP_CALLS = "vm.munmap_calls"
    VM_MPROTECT_CALLS = "vm.mprotect_calls"
    VM_MREMAP_CALLS = "vm.mremap_calls"
    VM_MSYNC_CALLS = "vm.msync_calls"
    VM_MSYNC_FLUSHED = "vm.msync_flushed"
    VM_MSYNC_NOOP = "vm.msync_noop"
    VM_FAULTS = "vm.faults"
    VM_PTE_FAULTS = "vm.pte_faults"
    VM_HUGE_FAULTS = "vm.huge_faults"
    VM_DIRTY_FAULTS = "vm.dirty_faults"
    VM_UNTRACKED_WRITES = "vm.untracked_writes"
    VM_ACCESS_BYTES = "vm.access_bytes"
    VM_TLB_MISSES = "vm.tlb_misses"
    VM_WALK_CYCLES = "vm.walk_cycles"
    VM_FORKS = "vm.forks"

    # -- DaxVM core (core/) ------------------------------------------------
    DAXVM_MMAP_CALLS = "daxvm.mmap_calls"
    DAXVM_MUNMAP_CALLS = "daxvm.munmap_calls"
    DAXVM_ATTACHMENTS = "daxvm.attachments"
    DAXVM_VOLATILE_REBUILDS = "daxvm.volatile_rebuilds"
    DAXVM_VOLATILE_EVICTIONS = "daxvm.volatile_evictions"
    DAXVM_TABLE_MIGRATIONS = "daxvm.table_migrations"
    DAXVM_EPHEMERAL_ALLOCS = "daxvm.ephemeral_allocs"
    DAXVM_EPHEMERAL_REGION_RECYCLES = "daxvm.ephemeral_region_recycles"
    DAXVM_PREZERO_QUEUED_BLOCKS = "daxvm.prezero_queued_blocks"
    DAXVM_BLOCKS_PREZEROED = "daxvm.blocks_prezeroed"
    DAXVM_UNMAPS_DEFERRED = "daxvm.unmaps_deferred"
    DAXVM_ZOMBIE_REAPS = "daxvm.zombie_reaps"
    DAXVM_ZOMBIE_PAGES_REAPED = "daxvm.zombie_pages_reaped"
    DAXVM_FORCED_SYNC_UNMAPS = "daxvm.forced_sync_unmaps"
    DAXVM_RECOVERY_PTES = "daxvm.recovery_ptes"

    # -- NUMA (topology-aware runs only; never bumped on one node) --------
    NUMA_LOCAL_ACCESSES = "numa.local_accesses"
    NUMA_REMOTE_ACCESSES = "numa.remote_accesses"
    NUMA_LOCAL_BYTES = "numa.local_bytes"
    NUMA_REMOTE_BYTES = "numa.remote_bytes"
    NUMA_CROSS_IPIS = "numa.cross_socket_ipis"
    NUMA_CROSS_IPI_CYCLES = "numa.cross_socket_ipi_cycles"

    # -- Crash exploration (crash/) ---------------------------------------
    CRASH_RECOVERY_CYCLES = "crash.recovery_cycles"
    CRASH_INVARIANT_VIOLATIONS = "crash.invariant_violations"
    CRASH_STORES_LOST = "crash.stores_lost"
    CRASH_RECORDS_REPLAYED = "crash.records_replayed"
    CRASH_TXNS_ROLLED_BACK = "crash.txns_rolled_back"
    CRASH_ORPHAN_BLOCKS_RECLAIMED = "crash.orphan_blocks_reclaimed"

    # -- Media-fault injection (faults/) ----------------------------------
    FAULTS_UE_ARMED = "faults.ue_armed"
    FAULTS_UE_REMAPPED = "faults.ue_remapped"
    FAULTS_UE_CLEARED = "faults.ue_cleared"
    FAULTS_SIGBUS_DELIVERED = "faults.sigbus_delivered"
    FAULTS_MEMORY_FAILURES = "faults.memory_failures"
    FAULTS_PTES_UNMAPPED = "faults.ptes_unmapped"
    FAULTS_BLOCKS_QUARANTINED = "faults.blocks_quarantined"
    FAULTS_BYTES_LOST = "faults.bytes_lost"
    FAULTS_BW_WINDOWS = "faults.bw_windows"
    FAULTS_STALL_EPISODES = "faults.stall_episodes"
    FAULTS_CLEAR_POISON_CALLS = "faults.clear_poison_calls"

    # -- Hot/cold tiering daemon (tiering/) -------------------------------
    TIERING_SCANS = "tiering.scans"
    TIERING_PROMOTED_PAGES = "tiering.promoted_pages"
    TIERING_DEMOTED_PAGES = "tiering.demoted_pages"
    TIERING_MIGRATED_BYTES = "tiering.migrated_bytes"
    TIERING_WRITEBACK_BYTES = "tiering.writeback_bytes"
    TIERING_SHOOTDOWNS = "tiering.shootdowns"

    # -- Multi-tenant consolidation (tenancy/) ----------------------------
    # Machine-wide totals; the per-tenant split uses namespaced string
    # counters (``tenant.<name>.requests`` …) on the same Stats object.
    TENANCY_REQUESTS = "tenancy.requests"
    TENANCY_THINK_CYCLES = "tenancy.think_cycles"
    TENANCY_THROTTLE_CYCLES = "tenancy.cpu_throttle_cycles"
    TENANCY_QUOTA_SCANS = "tenancy.quota_scans"
    TENANCY_BW_THROTTLE_CYCLES = "tenancy.bw_throttle_cycles"
    TENANCY_ANTAGONIST_PAGES = "tenancy.antagonist_pages_dirtied"

    # -- Guest VMs and live migration (virt/) -----------------------------
    VIRT_GUEST_ACCESSES = "virt.guest_accesses"
    VIRT_NESTED_WALK_CYCLES = "virt.nested_walk_cycles"
    VIRT_MIGRATIONS_STARTED = "virt.migrations_started"
    VIRT_MIGRATIONS_COMPLETED = "virt.migrations_completed"
    VIRT_MIGRATIONS_ABORTED = "virt.migrations_aborted"
    VIRT_DOWNTIME_CYCLES = "virt.downtime_cycles"
    VIRT_PAGES_PULLED = "virt.pages_pulled"
    VIRT_PREFETCHED_PAGES = "virt.prefetched_pages"
    VIRT_PULL_RETRIES = "virt.pull_retries"
    VIRT_PULL_POISONED = "virt.pull_poisoned"
    VIRT_DEGRADED_ACCESSES = "virt.degraded_accesses"

    # -- Baselines ---------------------------------------------------------
    LATR_LAZY_INVALIDATIONS = "latr.lazy_invalidations"

    def __str__(self) -> str:  # pragma: no cover - display aid
        return self.value

    # Members are singletons; identity hashing skips Enum.__hash__'s
    # Python-level indirection on every Stats.add.
    __hash__ = object.__hash__


#: Member → string key, precomputed: ``Counter.X.value`` goes through
#: enum's DynamicClassAttribute descriptor, too slow for Stats.add.
_COUNTER_KEYS = {member: member.value for member in Counter}


def counter_key(name: object) -> str:
    """Normalize a Counter member or raw string to the string key."""
    return _COUNTER_KEYS.get(name, name)  # type: ignore[arg-type,return-value]
