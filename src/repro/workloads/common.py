"""Shared workload vocabulary: interfaces, DaxVM options, mapping,
measurement.

Every evaluation figure compares some subset of:

* ``READ``/``WRITE`` system-call file access,
* default ``MMAP`` (lazy demand faulting),
* ``MMAP_POPULATE`` (MAP_POPULATE pre-faulting), and
* ``DAXVM`` with a configuration of its optional flags —
  Fig. 8a's incremental bars are just different
  :class:`DaxVMOptions` settings.

:func:`map_file` and :func:`unmap_file` are the one place that picks
the kernel call for a mapped interface.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.analysis.results import RunResult
from repro.fs.vfs import Inode
from repro.system import Process, System
from repro.vm.vma import VMA, MapFlags, Protection


class Interface(enum.Enum):
    """How a workload reaches file data."""

    READ = "read"
    MMAP = "mmap"
    MMAP_POPULATE = "populate"
    DAXVM = "daxvm"


@dataclass(frozen=True)
class DaxVMOptions:
    """Which optional DaxVM mechanisms a mapping uses.

    The defaults are the full paper configuration; Fig. 8a's
    incremental study turns them on one at a time.
    """

    #: MAP_EPHEMERAL: allocate from the ephemeral heap.
    ephemeral: bool = True
    #: MAP_UNMAP_ASYNC: defer and batch unmapping.
    unmap_async: bool = True
    #: MAP_SYNC: synchronous-metadata DAX semantics for writes.
    sync: bool = True
    #: MAP_NO_MSYNC (requires sync): drop kernel dirty tracking.
    nosync: bool = False

    def flags(self, write: bool = False) -> MapFlags:
        flags = MapFlags.SHARED
        if self.ephemeral:
            flags |= MapFlags.EPHEMERAL
        if self.unmap_async:
            flags |= MapFlags.UNMAP_ASYNC
        if write and self.sync:
            flags |= MapFlags.SYNC
        if write and self.nosync:
            flags |= MapFlags.SYNC | MapFlags.NO_MSYNC
        return flags

    @staticmethod
    def filetables_only() -> "DaxVMOptions":
        """O(1) mmap alone (Fig. 8a first DaxVM bar)."""
        return DaxVMOptions(ephemeral=False, unmap_async=False)

    @staticmethod
    def with_ephemeral() -> "DaxVMOptions":
        return DaxVMOptions(ephemeral=True, unmap_async=False)

    @staticmethod
    def full() -> "DaxVMOptions":
        return DaxVMOptions(ephemeral=True, unmap_async=True)


def map_file(process: Process, inode: Inode, size: int, prot: Protection,
             interface: Interface, daxvm_flags: MapFlags,
             flags: MapFlags = MapFlags.SHARED):
    """Map ``size`` bytes of ``inode`` from offset 0 the way
    ``interface`` does: ``daxvm.mmap`` with ``daxvm_flags`` for DAXVM,
    else ``mm.mmap`` with ``flags`` (plus MAP_POPULATE for
    MMAP_POPULATE).  The VMA's data sits at ``vma.user_addr -
    vma.start`` past its start.

    Returns the kernel call's generator rather than wrapping it, so a
    mapping resumes through no extra frame.
    """
    if interface is Interface.DAXVM:
        return process.daxvm.mmap(inode, 0, size, prot, daxvm_flags)
    if interface is Interface.MMAP_POPULATE:
        flags |= MapFlags.POPULATE
    return process.mm.mmap(process.system.fs, inode, 0, size, prot, flags)


def unmap_file(process: Process, vma: VMA, interface: Interface):
    """Unmap a :func:`map_file` mapping; returns the kernel call's
    generator."""
    if interface is Interface.DAXVM:
        return process.daxvm.munmap(vma)
    return process.mm.munmap(vma)


class Measurement:
    """Delta-based measurement of a phase of simulated execution."""

    def __init__(self, system: System):
        self.system = system
        self._t0 = 0.0
        self._snap: Dict[str, float] = {}
        self._domains: Dict[str, float] = {}

    def start(self) -> None:
        self._t0 = self.system.engine.now
        self._snap = self.system.stats.snapshot()
        self._domains = self.system.engine.ledger.domains()

    def finish(self, label: str, operations: float,
               bytes_processed: float = 0.0) -> RunResult:
        now = self.system.engine.now
        counters = {}
        for key, value in self.system.stats.snapshot().items():
            delta = value - self._snap.get(key, 0.0)
            if delta:
                counters[key] = delta
        domains = {}
        for key, value in self.system.engine.ledger.domains().items():
            delta = value - self._domains.get(key, 0.0)
            if delta:
                domains[key] = delta
        percentiles = {key: hist.summary()
                       for key, hist in self.system.stats.timings.items()}
        return RunResult(
            label=label,
            cycles=now - self._t0,
            operations=operations,
            bytes_processed=bytes_processed,
            counters=counters,
            domains=domains,
            percentiles=percentiles,
            freq_hz=self.system.costs.machine.freq_hz,
        )


def spread(total: int, shards: int) -> list:
    """Split ``total`` items into ``shards`` nearly equal counts."""
    base, extra = divmod(total, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]
