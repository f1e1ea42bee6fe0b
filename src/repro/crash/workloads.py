"""Audit workloads: small, deterministic drivers for the durability audits.

An audit workload is a plain callable ``fn(system)`` that runs a short
mix of durability-relevant operations to completion.  The crash
injector runs it twice — once unarmed to count persistence-state
transitions, then once copying the storage at every selected point —
and the fault injector once per armed site, so the workloads here are
deliberately tiny compared to the performance workloads in
``repro.workloads``: a few hundred transitions each, covering every
durability path the checker knows how to verify:

* extending ``write()`` + ``fsync()`` — extent appends, size updates
  and acked journal commits (the surface the skip-fence bug fixture
  attacks);
* ``mmap()`` + stores + ``msync()`` — acked data flushes through the
  dirty-tracking sync epoch;
* DaxVM ``mmap`` of a large-enough file — persistent per-extent page
  tables whose fills ride the journal transaction of the extent
  append they translate.  A torn transaction rolls the fill back with
  the append, so every mounted table equals its extent map and
  ``RecoveryLog`` finds it intact; its repair branch is not reached
  from here (DESIGN.md §9);
* the KV store — MAP_SYNC acked commits, WAL rolls (unlink+create)
  and memtable flushes to fresh SSTables;
* append-then-read — FS *reads*, whose partial-block UEs exercise the
  extent remap and quarantine path.

:data:`CRASH_WORKLOADS` is the one registry: the crash, media-fault
and migration audits, ``sweep faults`` and the CLI's ``--workload``
choices all go through :func:`audit_workload`.  The module also holds
what every audit shares: :class:`AuditInjector` (the workload lookup
and the replica build) and :class:`AuditSummary` (the report shape).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.analysis.results import RunResult
from repro.errors import InvalidArgumentError
from repro.system import System
from repro.workloads.kvstore import Interface, KVConfig, PmemKVStore
from repro.workloads.syncbench import SyncConfig, SyncDiscipline, run_sync


def _append_fsync_phase(system: System, writes: int = 24,
                        write_bytes: int = 16 << 10,
                        syncs_every: int = 4) -> None:
    """Extending writes with periodic fsync: every write appends an
    extent run and bumps the inode size inside a journal transaction;
    every fsync seals and commits it with an application ack."""
    fs = system.fs

    def appender():
        f = yield from fs.open("/crash-append", create=True)
        for i in range(writes):
            yield from fs.write(f, i * write_bytes, write_bytes)
            if i % syncs_every == syncs_every - 1:
                yield from fs.fsync(f)
        yield from fs.close(f)

    system.spawn(appender(), core=0, name="crash-append")
    system.run()


def syncbench_crash(system: System) -> None:
    """Three durability phases over one mounted image.

    Later phases run against the files (and journal state) the earlier
    ones left behind, so a crash in phase 3 still exercises recovery of
    phase-1 metadata.
    """
    _append_fsync_phase(system)
    # mmap + cached stores + msync: acked data through the sync epoch.
    run_sync(system, SyncConfig(
        file_size=1 << 20, op_size=1 << 10, ops_per_sync=4,
        num_syncs=16, discipline=SyncDiscipline.MMAP_FSYNC))
    # DaxVM + msync over a >=32 KB file: persistent per-extent page
    # tables are built and their PTE fills ride journal commits, so a
    # torn commit rolls a fill back with its extent append.
    run_sync(system, SyncConfig(
        file_size=1 << 20, op_size=1 << 12, ops_per_sync=2,
        num_syncs=6, discipline=SyncDiscipline.DAXVM_FSYNC))


def kvstore_crash(system: System) -> None:
    """The paper's pmem KV store, shrunk until every structural event
    (WAL roll, memtable flush, SSTable map) happens within ~50 puts.

    MAP_SYNC write faults ack a journal commit per faulted page, so
    nearly every put is a durability point the checker must honour.
    """
    cfg = KVConfig(record_size=4 << 10,
                   memtable_limit=64 << 10,
                   sstable_size=256 << 10,
                   wal_size=128 << 10,
                   interface=Interface.MMAP,
                   seed=11)
    process = system.new_process("kvcrash")
    store = PmemKVStore(system, process, cfg)

    def worker():
        yield from store.start()
        for i in range(48):
            yield from store.put()
            if i % 8 == 5:
                yield from store.get()
        yield from store.scan(4)

    system.spawn(worker(), core=0, name="kv-crash", process=process)
    system.run()


def readbench_crash(system: System) -> None:
    """Append-then-read: the only touch mix the other workloads lack
    is FS *reads*, whose partial-block UEs exercise the extent remap
    and quarantine path (a full-block write clears in place
    instead)."""
    fs = system.fs

    def io():
        f = yield from fs.open("/faults-read", create=True)
        for i in range(16):
            yield from fs.write(f, i * (16 << 10), 16 << 10)
        yield from fs.fsync(f)
        for i in range(32):
            offset = (i % 16) * (16 << 10) + 1024
            yield from fs.read(f, offset, 4 << 10)
        yield from fs.close(f)

    system.spawn(io(), core=0, name="faults-read")
    system.run()


#: Every audit workload, by name (``fn(system)`` runs it to the end).
CRASH_WORKLOADS: Dict[str, Callable[[System], None]] = {
    "syncbench": syncbench_crash,
    "kvstore": kvstore_crash,
    "readbench": readbench_crash,
}


def audit_workload(name: str) -> Callable[[System], None]:
    """The registered workload called ``name``."""
    fn = CRASH_WORKLOADS.get(name)
    if fn is None:
        raise InvalidArgumentError(
            f"unknown audit workload {name!r}; known: "
            f"{sorted(CRASH_WORKLOADS)}")
    return fn


class AuditInjector:
    """What the crash and fault injectors share: the workload, looked
    up by name, its seed, and the build of every replica it runs on."""

    def __init__(self, factory: Callable[[], System], workload: str,
                 seed: int):
        self.factory = factory
        self.workload = audit_workload(workload)
        self.workload_name = workload
        self.seed = seed
        self._freq = 2.7e9

    def _build(self, faults=None, domain=None) -> System:
        """A fresh replica with ``domain`` (a persistence domain) and
        ``faults`` (a media-fault model) attached when given.  A fresh
        machine names its runs from 0, so the k-th transition or touch
        of every replica is the probe's k-th."""
        system = self.factory()
        if domain is not None:
            system.attach_persistence(domain)
        if faults is not None:
            system.attach_faults(faults)
        self._freq = system.costs.machine.freq_hz
        return system


class AuditSummary:
    """The report shape every audit shares.

    A summary gives ``to_state()``, ``cycles`` (the recovery or
    handling work its audit charged) and ``freq_hz``; ``domain`` names
    its cost domain, which is also its counters' namespace.  A
    one-workload summary holds ``outcomes`` and locates each outcome's
    violations by the attribute ``locator`` names.
    """

    domain = ""
    locator = ""

    @property
    def label(self) -> str:
        return f"{self.domain}:{self.workload}/seed{self.seed}"

    @property
    def points_explored(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> List[str]:
        return [f"{self.locator} {getattr(outcome, self.locator)}: {v}"
                for outcome in self.outcomes for v in outcome.violations]

    def to_result(self) -> RunResult:
        """Shape the audit like any other run: operations are the
        explored points, cycles the domain's work, counters the
        numeric fields of ``to_state()``."""
        cycles = self.cycles
        counters = {f"{self.domain}.{key}": float(value)
                    for key, value in self.to_state().items()
                    if isinstance(value, (int, float))}
        return RunResult(label=self.label, cycles=cycles,
                         operations=float(self.points_explored),
                         counters=counters, domains={self.domain: cycles},
                         freq_hz=self.freq_hz)


__all__ = ["AuditInjector", "AuditSummary", "CRASH_WORKLOADS",
           "audit_workload"]
