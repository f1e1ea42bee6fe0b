"""A Pmem-RocksDB-like key-value store (paper Fig. 9c substrate).

Intel's Pmem-RocksDB places write-ahead logs and SSTables on PMem,
memory-maps them, and writes with nt-stores, managing durability from
user space (no msync).  The model reproduces the parts that the
paper's evaluation exercises:

* an in-DRAM **memtable** absorbing puts;
* a mapped **WAL**: every put appends one record with nt-stores; full
  WALs are rolled, and files are **recycled** to avoid fresh block
  allocation (and hence zeroing) where possible;
* **SSTables**: memtable flushes allocate (fallocate → zeroing policy
  applies), map and sequentially write a new SSTable, which stays
  mapped to serve reads;
* reads check the memtable, then fetch a random 4 KB record from a
  mapped SSTable.

Interfaces: baseline mmap uses MAP_SYNC (required for safe user-space
durability on ext4 — the source of the per-page synchronous journal
commits that dominate Fig. 9c on an aged image), optionally with
MAP_POPULATE; DaxVM tracks at 2 MB (10x fewer faults) and optionally
drops tracking entirely (nosync).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.fs.vfs import DaxFile
from repro.mem.physmem import Medium
from repro.obs import CostDomain, charge
from repro.paging.tlb import AccessPattern
from repro.system import Process, System
from repro.vm.vma import MapFlags, Protection, VMA
from repro.workloads.common import (
    DaxVMOptions,
    Interface,
    map_file,
    unmap_file,
)

#: Baseline mapping flags: user-space durability on ext4 needs
#: MAP_SYNC.
_MMAP_FLAGS = MapFlags.SHARED | MapFlags.SYNC


@dataclass
class KVConfig:
    record_size: int = 4096
    memtable_limit: int = 8 << 20
    #: One memtable flush fills one SSTable.
    sstable_size: int = 8 << 20
    wal_size: int = 8 << 20
    interface: Interface = Interface.MMAP
    daxvm: DaxVMOptions = field(default_factory=lambda: DaxVMOptions(
        ephemeral=False, unmap_async=False))
    seed: int = 5


class PmemKVStore:
    """One store instance bound to a process."""

    def __init__(self, system: System, process: Process, cfg: KVConfig):
        self.system = system
        self.process = process
        self.cfg = cfg
        self.root = f"/kv{system.run_id('kv')}"
        self.rng = random.Random(cfg.seed)
        self.memtable_bytes = 0
        self.record_count = 0
        self.sstables: List[Tuple[DaxFile, VMA]] = []
        self.wal: Optional[Tuple[DaxFile, VMA]] = None
        #: The WAL mapping's address base, fixed per roll.
        self._wal_base = 0
        self.wal_offset = 0
        self._wal_pool: List[DaxFile] = []
        self._file_seq = 0
        self.flushes = 0
        self.wal_rolls = 0
        #: DaxVM mapping flags, fixed for the store's life.
        self._daxvm_flags = cfg.daxvm.flags(write=True)
        #: Memtable insert: skiplist walk + record copy in DRAM.  The
        #: cost model is frozen and pricing is pure, so every put
        #: yields this one charge.
        self._memtable_insert = charge(
            CostDomain.USERSPACE, "memtable-insert",
            900.0 + system.mem.memcpy(cfg.record_size, Medium.DRAM,
                                      Medium.DRAM))

    # -- lifecycle -----------------------------------------------------------
    def start(self):
        yield from self._roll_wal()

    def _new_file(self, kind: str, size: int):
        self._file_seq += 1
        path = f"{self.root}/{kind}{self._file_seq:05d}"
        f = yield from self.system.fs.open(path, create=True)
        yield from self.system.fs.fallocate(f, size)
        return f

    def _roll_wal(self):
        if self.wal is not None:
            f, vma = self.wal
            yield from unmap_file(self.process, vma, self.cfg.interface)
            # Rolled WAL files are recycled (Pmem-RocksDB behaviour).
            self._wal_pool.append(f)
            self.wal_rolls += 1
        if self._wal_pool:
            f = self._wal_pool.pop()
        else:
            f = yield from self._new_file("wal", self.cfg.wal_size)
        vma = yield from map_file(self.process, f.inode, self.cfg.wal_size,
                                  Protection.rw(), self.cfg.interface,
                                  self._daxvm_flags, _MMAP_FLAGS)
        self.wal = (f, vma)
        self._wal_base = vma.user_addr - vma.start
        self.wal_offset = 0

    # -- operations ---------------------------------------------------------
    def put(self):
        """Insert/update one record."""
        cfg = self.cfg
        if self.wal_offset + cfg.record_size > cfg.wal_size:
            yield from self._roll_wal()
        yield from self.process.mm.access(
            self.wal[1], self._wal_base + self.wal_offset,
            cfg.record_size, write=True)
        self.wal_offset += cfg.record_size
        yield self._memtable_insert
        self.memtable_bytes += cfg.record_size
        self.record_count += 1
        if self.memtable_bytes >= cfg.memtable_limit:
            yield from self.flush_memtable()

    def flush_memtable(self):
        """Write the memtable out as a new mapped SSTable."""
        cfg = self.cfg
        f = yield from self._new_file("sst", cfg.sstable_size)
        vma = yield from map_file(self.process, f.inode, cfg.sstable_size,
                                  Protection.rw(), cfg.interface,
                                  self._daxvm_flags, _MMAP_FLAGS)
        yield from self.process.mm.access(
            vma, vma.user_addr - vma.start, self.memtable_bytes, write=True,
            pattern=AccessPattern.SEQUENTIAL, ntstore=True)
        self.sstables.append((f, vma))
        self.memtable_bytes = 0
        self.flushes += 1

    def get(self):
        """Point read of one record."""
        cfg = self.cfg
        # Memtable probe.
        yield charge(CostDomain.USERSPACE, "memtable-probe", 600.0)
        total = max(self.record_count, 1)
        memtable_records = self.memtable_bytes // cfg.record_size
        if self.rng.random() < memtable_records / total or \
                not self.sstables:
            yield charge(CostDomain.USERSPACE, "memtable-copy",
                         self.system.mem.memcpy(
                             cfg.record_size, Medium.DRAM, Medium.DRAM))
            return
        _f, vma = self.rng.choice(self.sstables)
        slots = cfg.sstable_size // cfg.record_size
        offset = self.rng.randrange(slots) * cfg.record_size
        # Index block lookup + record copy out.
        yield charge(CostDomain.USERSPACE, "index-lookup", 1200.0)
        yield from self.process.mm.access(
            vma, vma.user_addr - vma.start + offset, cfg.record_size,
            pattern=AccessPattern.RANDOM, copy=True)

    def scan(self, records: int = 8):
        """Range scan: sequential records from a random position."""
        cfg = self.cfg
        if not self.sstables:
            yield from self.get()
            return
        _f, vma = self.rng.choice(self.sstables)
        slots = cfg.sstable_size // cfg.record_size
        start = self.rng.randrange(max(1, slots - records))
        yield charge(CostDomain.USERSPACE, "index-lookup", 1200.0)
        yield from self.process.mm.access(
            vma, vma.user_addr - vma.start + start * cfg.record_size,
            records * cfg.record_size,
            pattern=AccessPattern.SEQUENTIAL, copy=True)

    def read_modify_write(self):
        yield from self.get()
        yield from self.put()


__all__ = ["KVConfig", "PmemKVStore"]
