"""Remaining coverage: PageFlags semantics, Translation geometry,
shootdown stats, RunResult counters in workloads, Interface plumbing."""

import pytest

from repro.config import DEFAULT_COSTS
from repro.mem.physmem import Medium, PhysicalMemory
from repro.paging.flags import PageFlags
from repro.paging.pagetable import (
    PMD_LEVEL,
    PTE_LEVEL,
    PageTable,
    Translation,
)
from repro.system import System
from repro.vm.vma import MapFlags, Protection


def test_pageflags_helpers():
    rw = PageFlags.rw()
    ro = PageFlags.ro()
    assert rw.writable and rw.present
    assert not ro.writable and ro.present
    assert not PageFlags.NONE.present


def test_pageflags_status_bits_carry_through_combine():
    leaf = PageFlags.rw() | PageFlags.DIRTY | PageFlags.HUGE
    gate = PageFlags.ro()
    eff = gate.combine(leaf)
    assert eff & PageFlags.DIRTY
    assert eff & PageFlags.HUGE
    assert not eff.writable


def test_translation_page_size():
    t4k = Translation(1, PageFlags.rw(), PTE_LEVEL, [Medium.DRAM])
    t2m = Translation(1, PageFlags.rw(), PMD_LEVEL, [Medium.DRAM])
    assert t4k.page_size == 4096
    assert t2m.page_size == 2 << 20


def test_pagetable_fragment_roots():
    pm = PhysicalMemory(1 << 30, 1 << 30)
    frag = PageTable(pm, Medium.PMEM, root_level=PTE_LEVEL, shared=True)
    assert frag.root.level == PTE_LEVEL
    assert frag.root.shared
    assert frag.root.medium is Medium.PMEM


def test_daxvm_mmap_default_length_covers_file():
    system = System(device_bytes=1 << 30)
    proc = system.new_process()
    dax = system.daxvm_for(proc)

    def flow():
        f = yield from system.fs.open("/x", create=True)
        yield from system.fs.write(f, 0, 3 << 20)
        vma = yield from dax.mmap(f.inode)  # no explicit length
        return vma

    thread = system.spawn(flow(), core=0, process=proc)
    system.run()
    vma = thread.result
    assert vma.length >= 3 << 20


def test_walk_cost_uses_leaf_medium():
    from repro.paging.tlb import AccessPattern
    from repro.paging.walker import PageWalker

    walker = PageWalker(DEFAULT_COSTS)
    assert walker.walk_cost(AccessPattern.RANDOM, Medium.PMEM, PTE_LEVEL) > \
        walker.walk_cost(AccessPattern.RANDOM, Medium.DRAM, PTE_LEVEL)


def test_msync_on_clean_mapping_is_cheap():
    system = System(device_bytes=1 << 30)
    proc = system.new_process()

    def flow():
        f = yield from system.fs.open("/x", create=True)
        yield from system.fs.write(f, 0, 64 << 10)
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 64 << 10,
                                      Protection.rw(), MapFlags.SHARED)
        t0 = system.engine.now
        yield from proc.mm.msync(vma)
        return system.engine.now - t0

    thread = system.spawn(flow(), core=0, process=proc)
    system.run()
    # Nothing dirty: just the syscall and bookkeeping.
    assert thread.result < 5 * DEFAULT_COSTS.syscall_crossing


def test_access_rejects_nonpositive_length():
    from repro.errors import InvalidArgumentError

    system = System(device_bytes=1 << 30)
    proc = system.new_process()

    def flow():
        f = yield from system.fs.open("/x", create=True)
        yield from system.fs.write(f, 0, 4096)
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 4096,
                                      Protection.READ, MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 0)

    thread = system.spawn(flow(), core=0, process=proc)
    with pytest.raises(InvalidArgumentError):
        system.run()


def test_interface_enum_round_trip():
    from repro.workloads import Interface

    assert Interface("read") is Interface.READ
    assert {i.value for i in Interface} == \
        {"read", "mmap", "populate", "daxvm"}
