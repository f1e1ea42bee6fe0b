"""Durability/sync microbenchmark (paper Fig. 6).

Sequential writes over a mapped (or open) file with a sync after every
``ops_per_sync`` operations.  Four disciplines:

* ``write+fsync`` — write() syscalls persist data with nt-stores; the
  fsync only commits metadata.
* ``mmap+fsync``  — memcpy with *cached* stores; fsync must flush the
  dirty pages' cache lines (tracked at 4 KB by write-protect faults),
  then re-protect, restarting the fault cycle.
* ``daxvm+fsync`` — same, but dirty tracking at 2 MB granularity:
  fewer faults, coarser (sometimes wasteful) flushes — the trade the
  paper calls out for sub-2 MB sync intervals.
* ``mmap-user`` / ``daxvm-nosync`` — nt-stores, no sync calls; with
  default mmap the kernel still takes dirty-tracking faults it never
  benefits from; DaxVM's nosync mode drops them (§IV-D).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.analysis.results import RunResult
from repro.system import Process, System
from repro.vm.vma import MapFlags, Protection
from repro.workloads.common import Measurement
from repro.workloads.filegen import create_files


class SyncDiscipline(enum.Enum):
    WRITE_FSYNC = "write+fsync"
    MMAP_FSYNC = "mmap+fsync"
    DAXVM_FSYNC = "daxvm+fsync"
    MMAP_USER = "mmap-user"
    DAXVM_NOSYNC = "daxvm-nosync"


@dataclass
class SyncConfig:
    """One sync experiment (scaled from the paper's 10 GB file)."""

    file_size: int = 1 << 30
    op_size: int = 1 << 10
    ops_per_sync: int = 16
    num_syncs: int = 250
    discipline: SyncDiscipline = SyncDiscipline.WRITE_FSYNC


def _worker(system: System, process: Process, cfg: SyncConfig, path: str):
    f = yield from system.fs.open(path)
    d = cfg.discipline
    vma = None
    if d in (SyncDiscipline.MMAP_FSYNC, SyncDiscipline.MMAP_USER):
        vma = yield from process.mm.mmap(
            system.fs, f.inode, 0, cfg.file_size, Protection.rw(),
            MapFlags.SHARED)
    elif d is SyncDiscipline.DAXVM_FSYNC:
        vma = yield from process.daxvm.mmap(
            f.inode, 0, cfg.file_size, Protection.rw(),
            MapFlags.SHARED | MapFlags.SYNC)
    elif d is SyncDiscipline.DAXVM_NOSYNC:
        vma = yield from process.daxvm.mmap(
            f.inode, 0, cfg.file_size, Protection.rw(),
            MapFlags.SHARED | MapFlags.SYNC | MapFlags.NO_MSYNC)
    base = vma.user_addr - vma.start if vma is not None else 0

    # Everything the op loop reads is fixed for the run.
    syscalls = d is SyncDiscipline.WRITE_FSYNC
    # fsync disciplines buffer in the cache; user-space durability
    # disciplines stream with nt-stores.
    nt = d in (SyncDiscipline.MMAP_USER, SyncDiscipline.DAXVM_NOSYNC)
    # daxvm-nosync's msync is a no-op by contract; mmap-user never syncs.
    msyncs = d in (SyncDiscipline.MMAP_FSYNC, SyncDiscipline.DAXVM_FSYNC,
                   SyncDiscipline.DAXVM_NOSYNC)
    write = system.fs.write
    access = process.mm.access
    op_size = cfg.op_size
    wrap = cfg.file_size - op_size
    offset = 0
    for _sync in range(cfg.num_syncs):
        for _op in range(cfg.ops_per_sync):
            if syscalls:
                yield from write(f, offset, op_size)
            else:
                yield from access(vma, base + offset, op_size, write=True,
                                  copy=True, ntstore=nt)
            offset = (offset + op_size) % wrap
        if syscalls:
            yield from system.fs.fsync(f)
        elif msyncs:
            yield from process.mm.msync(vma)

    if d is SyncDiscipline.DAXVM_FSYNC or d is SyncDiscipline.DAXVM_NOSYNC:
        yield from process.daxvm.munmap(vma)
    elif vma is not None:
        yield from process.mm.munmap(vma)
    yield from system.fs.close(f)


def run_sync(system: System, cfg: SyncConfig) -> RunResult:
    run_id = system.run_id("sync")
    # The paper turns huge pages off for this experiment, to stress
    # the comparison with DaxVM's fixed 2 MB flush granularity.
    system.fs.allow_huge = False
    process = system.new_process(f"sync{run_id}")
    if cfg.discipline in (SyncDiscipline.DAXVM_FSYNC,
                          SyncDiscipline.DAXVM_NOSYNC):
        system.daxvm_for(process)
    inodes = create_files(system, [cfg.file_size], prefix=f"/sync{run_id}")
    path = inodes[0].path

    measure = Measurement(system)
    measure.start()
    system.spawn(_worker(system, process, cfg, path), core=0,
                 name="sync-worker", process=process)
    system.run()
    ops = cfg.num_syncs * cfg.ops_per_sync
    return measure.finish(cfg.discipline.value, operations=ops,
                          bytes_processed=ops * cfg.op_size)


__all__ = ["SyncConfig", "SyncDiscipline", "run_sync"]
