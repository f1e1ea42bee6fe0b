"""Crash workloads: small, deterministic drivers for crash-point sweeps.

A crash workload is a plain callable ``fn(system)`` that runs a short
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
  and memtable flushes to fresh SSTables.

Register new workloads with :func:`crash_workload`; the CLI and the
``sweep crash`` experiment both look them up in :data:`CRASH_WORKLOADS`.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.system import System
from repro.workloads.kvstore import Interface, KVConfig, PmemKVStore
from repro.workloads.syncbench import SyncConfig, SyncDiscipline, run_sync

CRASH_WORKLOADS: Dict[str, Callable[[System], None]] = {}


def crash_workload(name: str):
    """Decorator: register a crash workload under ``name``."""
    def register(fn: Callable[[System], None]):
        CRASH_WORKLOADS[name] = fn
        return fn
    return register


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


@crash_workload("syncbench")
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


@crash_workload("kvstore")
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


__all__ = ["CRASH_WORKLOADS", "crash_workload", "syncbench_crash",
           "kvstore_crash"]
