"""The ephemeral (read-once) file-access microbenchmark.

Paper Figs. 1a, 1b and 4: open many files, read each file's content
once (summing it at 8-byte granularity), close it.  With system calls
the data is copied into a private DRAM buffer and processed from the
cache; with memory mapping it is processed in place from PMem, paying
demand faults, TLB misses and unmap shootdowns — unless DaxVM's file
tables, ephemeral heap and asynchronous unmapping remove those costs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List

from repro.analysis.results import RunResult
from repro.mem.physmem import Medium
from repro.obs import CostDomain, charge
from repro.system import Process, System
from repro.vm.vma import MapFlags, Protection
from repro.workloads.common import DaxVMOptions, Interface, Measurement, spread
from repro.workloads.filegen import create_file_set, drop_caches

_run_counter = itertools.count()


@dataclass
class EphemeralConfig:
    """One ephemeral-access experiment."""

    file_size: int = 32 << 10
    num_files: int = 1000
    num_threads: int = 1
    interface: Interface = Interface.READ
    daxvm: DaxVMOptions = field(default_factory=DaxVMOptions.full)
    #: Pin worker threads to one NUMA socket's cores (``None`` keeps
    #: the historical core-per-thread layout; ignored on one node).
    pin_node: "int | None" = None


def _read_one(system: System, path: str, size: int):
    """open + read + process-from-cache + close."""
    f = yield from system.fs.open(path)
    yield from system.fs.read(f, 0, size)
    yield charge(CostDomain.USERSPACE, "stream-process",
                 system.mem.stream_read(size, Medium.DRAM, cached=True))
    yield from system.fs.close(f)


def _mmap_one(system: System, process: Process, path: str, size: int,
              populate: bool):
    flags = MapFlags.SHARED
    if populate:
        flags |= MapFlags.POPULATE
    f = yield from system.fs.open(path)
    vma = yield from process.mm.mmap(system.fs, f.inode, 0, size,
                                     Protection.READ, flags)
    yield from process.mm.access(vma, 0, size)
    yield from process.mm.munmap(vma)
    yield from system.fs.close(f)


def _daxvm_one(system: System, process: Process, path: str, size: int,
               opts: DaxVMOptions):
    f = yield from system.fs.open(path)
    vma = yield from process.daxvm.mmap(f.inode, 0, size,
                                        Protection.READ, opts.flags())
    delta = vma.user_addr - vma.start
    yield from process.mm.access(vma, delta, size)
    yield from process.daxvm.munmap(vma)
    yield from system.fs.close(f)


def _worker(system: System, process: Process, cfg: EphemeralConfig,
            paths: List[str]):
    for path in paths:
        if cfg.interface is Interface.READ:
            yield from _read_one(system, path, cfg.file_size)
        elif cfg.interface is Interface.MMAP:
            yield from _mmap_one(system, process, path, cfg.file_size,
                                 populate=False)
        elif cfg.interface is Interface.MMAP_POPULATE:
            yield from _mmap_one(system, process, path, cfg.file_size,
                                 populate=True)
        else:
            yield from _daxvm_one(system, process, path, cfg.file_size,
                                  cfg.daxvm)


def run_ephemeral(system: System, cfg: EphemeralConfig) -> RunResult:
    """Create the file set, then measure the read-once phase."""
    run_id = next(_run_counter)
    prefix = f"/eph{run_id}"
    process = system.new_process(f"eph{run_id}")
    if cfg.interface is Interface.DAXVM and process.daxvm is None:
        system.daxvm_for(process)

    inodes = create_file_set(system, cfg.num_files, cfg.file_size,
                             prefix=prefix)
    # Drop the inode cache before measuring: files are opened once,
    # so cold opens are the realistic condition.
    drop_caches(system)

    paths = [inode.path for inode in inodes]
    shard_sizes = spread(len(paths), cfg.num_threads)
    pinned = (system.topology.cores_of_node(cfg.pin_node)
              if cfg.pin_node is not None
              and system.topology.num_nodes > 1 else None)
    measure = Measurement(system)
    measure.start()
    offset = 0
    for t in range(cfg.num_threads):
        shard = paths[offset:offset + shard_sizes[t]]
        offset += shard_sizes[t]
        core = pinned[t % len(pinned)] if pinned else t
        system.spawn(_worker(system, process, cfg, shard),
                     core=core, name=f"eph-w{t}", process=process)
    system.run()
    label = (cfg.interface.value if cfg.interface is not Interface.DAXVM
             else f"daxvm[{_opts_label(cfg.daxvm)}]")
    return measure.finish(label, operations=len(paths),
                          bytes_processed=len(paths) * cfg.file_size)


def _opts_label(opts: DaxVMOptions) -> str:
    parts = []
    if opts.ephemeral:
        parts.append("eph")
    if opts.unmap_async:
        parts.append("async")
    if opts.nosync:
        parts.append("nosync")
    return "+".join(parts) or "tables"


__all__ = ["EphemeralConfig", "run_ephemeral"]
