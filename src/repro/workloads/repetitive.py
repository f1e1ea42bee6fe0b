"""Repetitive access over one large file (paper Figs. 1c and 5).

The database idiom: map (or open) a big file once, then issue millions
of small reads/overwrites — sequential or random — using ``memcpy``
with AVX-512 loads and nt-stores.  System calls pay a crossing per op;
mappings pay demand faults, dirty-tracking faults and TLB misses, with
the leaf-medium of the page tables (Table II) setting the TLB price.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.analysis.results import RunResult
from repro.paging.tlb import AccessPattern
from repro.system import Process, System
from repro.vm.vma import Protection
from repro.workloads.common import (
    DaxVMOptions,
    Interface,
    Measurement,
    map_file,
    unmap_file,
)
from repro.workloads.filegen import create_files


@dataclass
class RepetitiveConfig:
    """One repetitive-access experiment."""

    #: Scaled stand-in for the paper's 100 GB file.
    file_size: int = 1 << 30
    op_size: int = 4096
    num_ops: int = 20000
    pattern: AccessPattern = AccessPattern.SEQUENTIAL
    write: bool = False
    interface: Interface = Interface.READ
    daxvm: DaxVMOptions = field(default_factory=lambda: DaxVMOptions(
        ephemeral=False, unmap_async=False))
    #: Run the DaxVM MMU monitor every N ops (0 = off); on irregular
    #: access it migrates persistent file tables to DRAM (§IV-A1).
    monitor_every: int = 0
    #: Huge (PMD) mappings on the file system; Tables II and III turn
    #: them off to measure 4 KB PTE walks, as the paper does.
    allow_huge: bool = True
    seed: int = 42


def _offsets(cfg: RepetitiveConfig):
    """The op offset stream (aligned to op size)."""
    slots = max(1, cfg.file_size // cfg.op_size)
    if cfg.pattern is AccessPattern.SEQUENTIAL:
        for i in range(cfg.num_ops):
            yield (i % slots) * cfg.op_size
    else:
        rng = random.Random(cfg.seed)
        for _ in range(cfg.num_ops):
            yield rng.randrange(slots) * cfg.op_size


def _syscall_worker(system: System, cfg: RepetitiveConfig, path: str):
    f = yield from system.fs.open(path)
    rand = cfg.pattern is AccessPattern.RANDOM
    for offset in _offsets(cfg):
        if cfg.write:
            yield from system.fs.write(f, offset, cfg.op_size)
        else:
            yield from system.fs.read(f, offset, cfg.op_size,
                                      random_access=rand)
    yield from system.fs.close(f)


def _mapped_worker(system: System, process: Process, cfg: RepetitiveConfig,
                   path: str):
    f = yield from system.fs.open(path)
    prot = Protection.rw() if cfg.write else Protection.READ
    vma = yield from map_file(process, f.inode, cfg.file_size, prot,
                              cfg.interface, cfg.daxvm.flags(cfg.write))
    base = vma.user_addr - vma.start
    for i, offset in enumerate(_offsets(cfg)):
        yield from process.mm.access(
            vma, base + offset, cfg.op_size, write=cfg.write,
            pattern=cfg.pattern, copy=True, ntstore=True)
        if cfg.monitor_every and (i + 1) % cfg.monitor_every == 0 \
                and process.daxvm is not None:
            yield from process.daxvm.monitor_check([vma])
    yield from unmap_file(process, vma, cfg.interface)
    yield from system.fs.close(f)


def run_repetitive(system: System, cfg: RepetitiveConfig) -> RunResult:
    """Create the big file, then measure the op phase."""
    run_id = system.run_id("rep")
    system.fs.allow_huge = cfg.allow_huge
    process = system.new_process(f"rep{run_id}")
    if cfg.interface is Interface.DAXVM:
        system.daxvm_for(process)
    inodes = create_files(system, [cfg.file_size], prefix=f"/rep{run_id}")
    path = inodes[0].path

    measure = Measurement(system)
    measure.start()
    if cfg.interface is Interface.READ:
        system.spawn(_syscall_worker(system, cfg, path), core=0,
                     name="rep-syscall", process=process)
    else:
        system.spawn(_mapped_worker(system, process, cfg, path), core=0,
                     name="rep-mapped", process=process)
    system.run()
    mode = "write" if cfg.write else "read"
    label = f"{cfg.interface.value}-{mode}-{cfg.pattern.value}"
    return measure.finish(label, operations=cfg.num_ops,
                          bytes_processed=cfg.num_ops * cfg.op_size)


__all__ = ["RepetitiveConfig", "run_repetitive"]
