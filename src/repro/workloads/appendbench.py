"""Append microbenchmark (paper Fig. 7, both ext4-DAX and NOVA).

A memory-mapped append must fallocate new blocks — which the FS has to
zero for security — then map and store into them; a write() append
streams nt-stores directly (zeroing only where the FS is conservative,
i.e. ext4).  DaxVM's asynchronous pre-zeroing removes the zeroing from
the MM path; nosync mode removes the dirty-tracking faults on top.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.analysis.results import RunResult
from repro.paging.tlb import AccessPattern
from repro.system import Process, System
from repro.vm.vma import MapFlags, Protection
from repro.workloads.common import Measurement


class AppendVariant(enum.Enum):
    WRITE = "write"
    MMAP = "mmap"
    #: File tables + kernel dirty tracking, no pre-zeroing.
    DAXVM = "daxvm"
    DAXVM_PREZERO = "daxvm+prezero"
    DAXVM_PREZERO_NOSYNC = "daxvm+prezero+nosync"


@dataclass
class AppendConfig:
    append_size: int = 256 << 10
    #: Each append lands on its own fresh empty file (single-op
    #: appends, as in the paper), repeated for averaging.
    num_appends: int = 50
    variant: AppendVariant = AppendVariant.WRITE


def _append_once(system: System, process: Process, cfg: AppendConfig,
                 path: str):
    v = cfg.variant
    span = system.trace.span("append")
    span.__enter__()
    f = yield from system.fs.open(path, create=True)
    if v is AppendVariant.WRITE:
        yield from system.fs.write(f, 0, cfg.append_size)
    else:
        yield from system.fs.fallocate(f, cfg.append_size)
        if v is AppendVariant.MMAP:
            vma = yield from process.mm.mmap(
                system.fs, f.inode, 0, cfg.append_size, Protection.rw(),
                MapFlags.SHARED)
        else:
            flags = MapFlags.SHARED | MapFlags.SYNC
            if v is AppendVariant.DAXVM_PREZERO_NOSYNC:
                flags |= MapFlags.NO_MSYNC
            vma = yield from process.daxvm.mmap(
                f.inode, 0, cfg.append_size, Protection.rw(), flags)
        yield from process.mm.access(
            vma, vma.user_addr - vma.start, cfg.append_size, write=True,
            pattern=AccessPattern.SEQUENTIAL, ntstore=True)
        if v is AppendVariant.MMAP:
            yield from process.mm.munmap(vma)
        else:
            yield from process.daxvm.munmap(vma)
    yield from system.fs.close(f)
    span.__exit__(None, None, None)


def run_append(system: System, cfg: AppendConfig) -> RunResult:
    run_id = system.run_id("app")
    process = system.new_process(f"app{run_id}")
    uses_daxvm = cfg.variant not in (AppendVariant.WRITE,
                                     AppendVariant.MMAP)
    if uses_daxvm:
        dax = system.daxvm_for(process)
        if cfg.variant in (AppendVariant.DAXVM_PREZERO,
                           AppendVariant.DAXVM_PREZERO_NOSYNC):
            dax.prezero.prezero_all_free()
        else:
            # File tables without pre-zeroing: disable interception so
            # fallocate zeroes synchronously.
            system.fs.free_interceptor = None
            system.fs.zeroed = type(system.fs.zeroed)()

    def worker():
        for i in range(cfg.num_appends):
            yield from _append_once(system, process, cfg,
                                    f"/app{run_id}/f{i}")

    measure = Measurement(system)
    measure.start()
    system.spawn(worker(), core=0, name="append-worker", process=process)
    system.run()
    return measure.finish(cfg.variant.value, operations=cfg.num_appends,
                          bytes_processed=cfg.num_appends * cfg.append_size)


__all__ = ["AppendConfig", "AppendVariant", "run_append"]
