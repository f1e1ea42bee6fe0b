"""The ephemeral (read-once) file-access microbenchmark.

Paper Figs. 1a, 1b and 4: open many files, read each file's content
once (summing it at 8-byte granularity), close it.  With system calls
the data is copied into a private DRAM buffer and processed from the
cache; with memory mapping it is processed in place from PMem, paying
demand faults, TLB misses and unmap shootdowns — unless DaxVM's file
tables, ephemeral heap and asynchronous unmapping remove those costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.analysis.results import RunResult
from repro.mem.physmem import Medium
from repro.obs import CostDomain, charge
from repro.system import Process, System
from repro.vm.vma import MapFlags, Protection
from repro.workloads.common import (
    DaxVMOptions,
    Interface,
    Measurement,
    map_file,
    spread,
    unmap_file,
)
from repro.workloads.filegen import create_file_set, drop_caches


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


def _map_one(system: System, process: Process, path: str, size: int,
             interface: Interface, daxvm_flags: MapFlags):
    f = yield from system.fs.open(path)
    vma = yield from map_file(process, f.inode, size, Protection.READ,
                              interface, daxvm_flags)
    yield from process.mm.access(vma, vma.user_addr - vma.start, size)
    yield from unmap_file(process, vma, interface)
    yield from system.fs.close(f)


def _worker(system: System, process: Process, cfg: EphemeralConfig,
            paths: List[str]):
    size = cfg.file_size
    if cfg.interface is Interface.READ:
        for path in paths:
            yield from _read_one(system, path, size)
        return
    daxvm_flags = cfg.daxvm.flags()
    for path in paths:
        yield from _map_one(system, process, path, size, cfg.interface,
                            daxvm_flags)


def run_ephemeral(system: System, cfg: EphemeralConfig) -> RunResult:
    """Create the file set, then measure the read-once phase."""
    run_id = system.run_id("eph")
    prefix = f"/eph{run_id}"
    process = system.new_process(f"eph{run_id}")
    if cfg.interface is Interface.DAXVM:
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
