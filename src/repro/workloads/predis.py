"""P-Redis boot/availability experiment (paper Fig. 9b).

P-Redis keeps its key-value cache and index hash table in PMem files.
On restart the server maps both and serves gets with loads — but with
baseline lazy mmap the first touch of every page faults, so throughput
climbs slowly through a warm-up period; MAP_POPULATE moves all of that
cost to startup (a multi-second boot stall); DaxVM's O(1) attachment
delivers full throughput instantly.

The run records a throughput timeline (windowed ops/s vs time since
boot), which is the exact shape Fig. 9b plots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.analysis.results import RunResult, Series
from repro.paging.tlb import AccessPattern
from repro.obs import CostDomain, charge
from repro.system import Process, System
from repro.vm.vma import Protection
from repro.workloads.common import (
    DaxVMOptions,
    Interface,
    Measurement,
    map_file,
)
from repro.workloads.filegen import create_files

#: The cache and index stay mapped for the whole run: long-lived
#: DaxVM mappings, neither ephemeral nor unmapped asynchronously.
_DAXVM = DaxVMOptions(ephemeral=False, unmap_async=False)


@dataclass
class PRedisConfig:
    """Scaled from the paper's 60 GB cache of 16 KB values."""

    cache_size: int = 1 << 30
    value_size: int = 16 << 10
    index_size: int = 32 << 20
    num_gets: int = 60000
    #: Gets per throughput sample window.
    window: int = 2000
    interface: Interface = Interface.MMAP
    seed: int = 99


@dataclass
class PRedisResult:
    run: RunResult
    #: (seconds since boot, ops/s in window) samples.
    timeline: Series = field(default_factory=lambda: Series("throughput"))
    boot_seconds: float = 0.0


def _server(system: System, process: Process, cfg: PRedisConfig,
            cache_path: str, index_path: str, result: PRedisResult,
            boot_t0: float):
    rng = random.Random(cfg.seed)
    freq = system.costs.machine.freq_hz

    # ---- boot: open and map the cache and index ----------------------
    cache = yield from system.fs.open(cache_path)
    index = yield from system.fs.open(index_path)
    daxvm_flags = _DAXVM.flags()
    cache_vma = yield from map_file(process, cache.inode, cfg.cache_size,
                                    Protection.rw(), cfg.interface,
                                    daxvm_flags)
    index_vma = yield from map_file(process, index.inode, cfg.index_size,
                                    Protection.rw(), cfg.interface,
                                    daxvm_flags)
    result.boot_seconds = (system.engine.now - boot_t0) / freq

    # ---- serve gets ------------------------------------------------------
    slots = cfg.cache_size // cfg.value_size
    index_pages = cfg.index_size // 4096
    window_start = system.engine.now
    served = 0
    cache_base = cache_vma.user_addr - cache_vma.start
    index_base = index_vma.user_addr - index_vma.start
    for i in range(cfg.num_gets):
        # Index probe: one random 64 B bucket read.
        bucket_page = rng.randrange(index_pages)
        yield from process.mm.access(
            index_vma, index_base + bucket_page * 4096, 64,
            pattern=AccessPattern.RANDOM)
        # Value fetch: copy the value out to the client buffer.
        slot = rng.randrange(slots)
        yield from process.mm.access(
            cache_vma, cache_base + slot * cfg.value_size,
            cfg.value_size, pattern=AccessPattern.RANDOM, copy=True)
        # Protocol/response handling.
        yield charge(CostDomain.USERSPACE, "protocol-handling", 3000.0)
        served += 1
        if served % cfg.window == 0:
            now = system.engine.now
            ops_s = cfg.window / ((now - window_start) / freq)
            result.timeline.add((now - boot_t0) / freq, ops_s)
            window_start = now
            if cfg.interface is Interface.DAXVM:
                # The MMU monitor's periodic tick (Table III).
                yield from process.daxvm.monitor_check(
                    [cache_vma, index_vma])


def run_predis(system: System, cfg: PRedisConfig) -> PRedisResult:
    run_id = system.run_id("predis")
    process = system.new_process(f"predis{run_id}")
    if cfg.interface is Interface.DAXVM:
        system.daxvm_for(process)
    inodes = create_files(system, [cfg.cache_size, cfg.index_size],
                          prefix=f"/predis{run_id}")
    # Server restart: cold caches.
    system.vfs.inode_cache.evict_all()

    result = PRedisResult(run=None)  # type: ignore[arg-type]
    measure = Measurement(system)
    measure.start()
    boot_t0 = system.engine.now
    system.spawn(_server(system, process, cfg, inodes[0].path,
                         inodes[1].path, result, boot_t0),
                 core=0, name="predis-server", process=process)
    system.run()
    result.run = measure.finish(cfg.interface.value,
                                operations=cfg.num_gets,
                                bytes_processed=cfg.num_gets
                                * cfg.value_size)
    return result


__all__ = ["PRedisConfig", "PRedisResult", "run_predis"]
