"""Apache webserver model (paper Figs. 8a and 8b).

Apache's ``mpm_event`` workers serve a static page per request by
memory-mapping the file, copying its content into the socket, and
unmapping — a mmap/munmap pair per request, which is what flattens its
scaling on default DAX-mmap.  With ``read()`` the page is copied twice
(PMem -> user buffer -> socket) but no VM locks are taken.

The model serves ``requests`` HTTP requests across ``num_workers``
workers — threads of one process by default, or one process per worker
(``multiprocess=True``, the paper's multi-processing discussion) —
from a pool of same-sized webpages, hot in the inode cache as on a
real server.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.results import RunResult
from repro.baselines.latr import LatrUnmapper
from repro.mem.physmem import Medium
from repro.obs import CostDomain, charge
from repro.system import Process, System
from repro.vm.vma import MapFlags, Protection
from repro.workloads.common import DaxVMOptions, Measurement, spread
from repro.workloads.filegen import create_file_set


class ServerInterface(enum.Enum):
    READ = "read"
    MMAP = "mmap"
    MMAP_POPULATE = "populate"
    #: MAP_POPULATE + LATR lazy shootdowns (the Fig. 8a comparison).
    MMAP_LATR = "latr"
    #: MAP_POPULATE + DaxVM's batched asynchronous unmapping alone
    #: (no O(1) mmap) — the configuration the paper reports beating
    #: LATR by ~12 %.
    MMAP_ASYNC = "mmap+async"
    DAXVM = "daxvm"


#: Per-request CPU work outside file access: HTTP parsing, socket
#: syscalls, connection handling (~20 us — the reason a webserver
#: is CPU-bound rather than PMem-bandwidth-bound at 16 cores).
REQUEST_OVERHEAD_CYCLES = 55_000.0
#: Network-stack per-byte work (skb handling, checksums) paid by
#: every interface when pushing the page into the socket.
SOCKET_CYCLES_PER_BYTE = 0.5


@dataclass
class ApacheConfig:
    page_size: int = 32 << 10
    #: Distinct webpages served round-robin (the paper uses several to
    #: avoid serving from a hot processor cache).
    num_pages: int = 96
    num_workers: int = 1
    requests: int = 2000
    interface: ServerInterface = ServerInterface.READ
    daxvm: DaxVMOptions = field(default_factory=DaxVMOptions.full)
    #: One process per worker instead of one multithreaded process.
    multiprocess: bool = False
    #: Zombie batch level for DaxVM async unmapping (§V-C ablation).
    batch_pages: Optional[int] = None


def _serve_request(system: System, process: Process, cfg: ApacheConfig,
                   path: str, latr: Optional[LatrUnmapper],
                   async_unmapper=None):
    """One HTTP request: fetch the page, push it to the socket."""
    iface = cfg.interface
    span = system.trace.span("apache.request")
    span.__enter__()
    yield charge(CostDomain.USERSPACE, "http-handling",
                 REQUEST_OVERHEAD_CYCLES
                 + cfg.page_size * SOCKET_CYCLES_PER_BYTE)
    f = yield from system.fs.open(path)
    if iface is ServerInterface.READ:
        # Copy 1: PMem -> user buffer (kernel).  Copy 2: buffer ->
        # socket (from the cache).
        yield from system.fs.read(f, 0, cfg.page_size)
        yield charge(CostDomain.USERSPACE, "socket-copy",
                     system.mem.memcpy(cfg.page_size, Medium.DRAM,
                                       Medium.DRAM))
    elif iface is ServerInterface.DAXVM:
        vma = yield from process.daxvm.mmap(
            f.inode, 0, cfg.page_size, Protection.READ,
            cfg.daxvm.flags())
        yield from process.mm.access(vma, vma.user_addr - vma.start,
                                     cfg.page_size, copy=True)
        yield from process.daxvm.munmap(vma)
    else:
        flags = MapFlags.SHARED
        if iface in (ServerInterface.MMAP_POPULATE,
                     ServerInterface.MMAP_LATR,
                     ServerInterface.MMAP_ASYNC):
            flags |= MapFlags.POPULATE
        vma = yield from process.mm.mmap(system.fs, f.inode, 0,
                                         cfg.page_size, Protection.READ,
                                         flags)
        yield from process.mm.access(vma, vma.user_addr - vma.start,
                                     cfg.page_size, copy=True)
        if iface is ServerInterface.MMAP_LATR:
            yield from latr.munmap(vma)
        elif iface is ServerInterface.MMAP_ASYNC:
            vma.mapped_pages = len(vma.populated) + 512 * len(
                vma.huge_regions)
            yield from async_unmapper.defer(
                vma, _regular_releaser(process))
        else:
            yield from process.mm.munmap(vma)
    yield from system.fs.close(f)
    span.__exit__(None, None, None)


def _regular_releaser(process: Process):
    """Virtual-address release for deferred regular (mm-table) VMAs."""
    def release(vma):
        yield from process.mm.mmap_sem.acquire_write()
        process.mm.vmas.pop(vma.start, None)
        process.mm.layout.free(vma.start, vma.length)
        yield from process.mm.mmap_sem.release_write()
    return release


def _worker(system: System, process: Process, cfg: ApacheConfig,
            paths: List[str], worker_id: int, count: int,
            latr: Optional[LatrUnmapper], async_unmapper=None):
    for i in range(count):
        path = paths[(worker_id * 31 + i) % len(paths)]
        yield from _serve_request(system, process, cfg, path, latr,
                                  async_unmapper)


def run_apache(system: System, cfg: ApacheConfig) -> RunResult:
    """Create the page set, warm it, then measure request serving."""
    run_id = system.run_id("apache")
    inodes = create_file_set(system, cfg.num_pages, cfg.page_size,
                             prefix=f"/htdocs{run_id}")
    paths = [inode.path for inode in inodes]

    processes: List[Process] = []
    if cfg.multiprocess:
        for w in range(cfg.num_workers):
            processes.append(system.new_process(f"apache{run_id}.{w}"))
    else:
        processes = [system.new_process(f"apache{run_id}")] \
            * cfg.num_workers

    unique = []
    for process in processes:
        if process not in unique:
            unique.append(process)
    for process in unique:
        if cfg.interface is ServerInterface.DAXVM:
            system.daxvm_for(process, batch_pages=cfg.batch_pages)

    latr_by_process = {}
    if cfg.interface is ServerInterface.MMAP_LATR:
        for process in unique:
            latr_by_process[id(process)] = LatrUnmapper(
                system.engine, process.mm, system.costs, system.stats)
    async_by_process = {}
    if cfg.interface is ServerInterface.MMAP_ASYNC:
        from repro.core.async_unmap import AsyncUnmapper
        for process in unique:
            async_by_process[id(process)] = AsyncUnmapper(
                system.engine, process.mm, system.costs, system.stats,
                cfg.batch_pages)

    shard = spread(cfg.requests, cfg.num_workers)
    measure = Measurement(system)
    measure.start()
    for w in range(cfg.num_workers):
        process = processes[w]
        latr = latr_by_process.get(id(process))
        aunmap = async_by_process.get(id(process))
        system.spawn(
            _worker(system, process, cfg, paths, w, shard[w], latr,
                    aunmap),
            core=w, name=f"apache-w{w}", process=process)
    system.run()
    label = (cfg.interface.value if cfg.interface is not ServerInterface.DAXVM
             else f"daxvm[{cfg.daxvm!r}]")
    return measure.finish(label, operations=cfg.requests,
                          bytes_processed=cfg.requests * cfg.page_size)


__all__ = ["ApacheConfig", "ServerInterface", "run_apache"]
