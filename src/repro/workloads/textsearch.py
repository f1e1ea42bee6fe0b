"""Text search over a source tree (paper Fig. 9a — ag / Silver Searcher).

``ag`` maps each file, scans it for a pattern, and unmaps it; with
read() it first copies the file into a private buffer.  The file set
mimics the Linux source tree: ~68 K small files plus a few large git
pack files (scaled down, see :func:`repro.workloads.filegen.
linux_tree_sizes`).  Search compute is a per-byte SIMD scan cost on
top of the data movement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.analysis.results import RunResult
from repro.fs.vfs import Inode
from repro.mem.physmem import Medium
from repro.obs import CostDomain, charge
from repro.system import Process, System
from repro.vm.vma import MapFlags, Protection
from repro.workloads.common import (
    DaxVMOptions,
    Interface,
    Measurement,
    map_file,
    unmap_file,
)
from repro.workloads.filegen import create_files, drop_caches, linux_tree_sizes

#: SIMD pattern-scan cost per byte, on top of fetching the data.
SEARCH_CYCLES_PER_BYTE = 0.05


@dataclass
class TextSearchConfig:
    num_files: int = 1500
    total_bytes: int = 192 << 20
    num_threads: int = 1
    interface: Interface = Interface.READ
    daxvm: DaxVMOptions = field(default_factory=DaxVMOptions.full)
    seed: int = 7


def _search_one(system: System, process: Process, cfg: TextSearchConfig,
                inode: Inode, daxvm_flags: MapFlags):
    size = max(inode.size, 1)
    f = yield from system.fs.open(inode.path)
    if cfg.interface is Interface.READ:
        yield from system.fs.read(f, 0, size)
        yield charge(CostDomain.USERSPACE, "pattern-scan",
                     system.mem.stream_read(size, Medium.DRAM, cached=True)
                     + size * SEARCH_CYCLES_PER_BYTE)
    else:
        vma = yield from map_file(process, f.inode, size, Protection.READ,
                                  cfg.interface, daxvm_flags)
        yield from process.mm.access(vma, vma.user_addr - vma.start, size)
        yield charge(CostDomain.USERSPACE, "pattern-scan",
                     size * SEARCH_CYCLES_PER_BYTE)
        yield from unmap_file(process, vma, cfg.interface)
    yield from system.fs.close(f)


def _worker(system: System, process: Process, cfg: TextSearchConfig,
            inodes: List[Inode]):
    daxvm_flags = cfg.daxvm.flags()
    for inode in inodes:
        yield from _search_one(system, process, cfg, inode, daxvm_flags)


def run_textsearch(system: System, cfg: TextSearchConfig) -> RunResult:
    run_id = system.run_id("ag")
    process = system.new_process(f"ag{run_id}")
    if cfg.interface is Interface.DAXVM:
        system.daxvm_for(process)
    sizes = linux_tree_sizes(cfg.num_files, seed=cfg.seed,
                             total_bytes=cfg.total_bytes)
    inodes = create_files(system, sizes, prefix=f"/src{run_id}")
    drop_caches(system)

    # Byte-balanced shards (ag uses a work queue; greedy assignment of
    # largest-first gets the same effect without simulating the queue).
    shards: List[List[Inode]] = [[] for _ in range(cfg.num_threads)]
    loads = [0] * cfg.num_threads
    for inode in sorted(inodes, key=lambda i: i.size, reverse=True):
        t = loads.index(min(loads))
        shards[t].append(inode)
        loads[t] += inode.size
    measure = Measurement(system)
    measure.start()
    for t in range(cfg.num_threads):
        system.spawn(_worker(system, process, cfg, shards[t]), core=t,
                     name=f"ag-w{t}", process=process)
    system.run()
    total = sum(sizes)
    return measure.finish(cfg.interface.value, operations=len(inodes),
                          bytes_processed=total)


__all__ = ["TextSearchConfig", "run_textsearch", "SEARCH_CYCLES_PER_BYTE"]
