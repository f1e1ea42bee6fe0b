"""Unit tests for the x86-64 radix page tables."""

import pytest

from repro.errors import AddressSpaceError, SegmentationFault
from repro.mem.physmem import Medium, PhysicalMemory
from repro.paging.flags import PageFlags
from repro.paging.pagetable import (
    PMD_LEVEL,
    PTE_LEVEL,
    PUD_LEVEL,
    Entry,
    PageTable,
    PageTableNode,
    level_index,
    level_shift,
    level_size,
)

PMD = 2 << 20


@pytest.fixture
def pm():
    return PhysicalMemory(1 << 30, 1 << 30)


@pytest.fixture
def pt(pm):
    return PageTable(pm)


def test_level_geometry():
    assert level_shift(PTE_LEVEL) == 12
    assert level_shift(PMD_LEVEL) == 21
    assert level_size(PTE_LEVEL) == 4096
    assert level_size(PMD_LEVEL) == 2 << 20
    assert level_size(PUD_LEVEL) == 1 << 30
    assert level_index(0x201000, PTE_LEVEL) == 1
    assert level_index(0x40000000, PUD_LEVEL) == 1


def test_map_and_translate(pt):
    pt.map_page(0x1000, 777, PageFlags.rw())
    tr = pt.translate(0x1000)
    assert tr.frame == 777
    assert tr.flags.writable
    assert tr.leaf_level == PTE_LEVEL
    assert tr.page_size == 4096


def test_translate_hole_faults(pt):
    with pytest.raises(SegmentationFault):
        pt.translate(0xDEAD000)


def test_unmap_page(pt):
    pt.map_page(0x1000, 1, PageFlags.rw())
    assert pt.clear_range(0x1000, 4096) == 1
    with pytest.raises(SegmentationFault):
        pt.translate(0x1000)
    assert pt.clear_range(0x1000, 4096) == 0  # already gone


def test_huge_page_mapping(pt):
    pt.map_page(PMD, 512, PageFlags.rw(), PMD_LEVEL)
    tr = pt.translate(PMD)
    assert tr.leaf_level == PMD_LEVEL
    assert tr.flags & PageFlags.HUGE
    # Offsets within the huge page resolve to consecutive frames.
    tr2 = pt.translate(PMD + 5 * 4096)
    assert tr2.frame == 512 + 5


def test_huge_mapping_requires_alignment(pt):
    with pytest.raises(AddressSpaceError):
        pt.map_page(0x1000, 1, PageFlags.rw(), PMD_LEVEL)


def test_interior_nodes_freed_on_unmap(pm):
    pt = PageTable(pm)
    before = pm.region(Medium.DRAM).allocated_frames
    pt.map_page(0x1000, 1, PageFlags.rw())
    assert pm.region(Medium.DRAM).allocated_frames > before
    pt.clear_range(0x1000, 4096)
    assert pm.region(Medium.DRAM).allocated_frames == before


def test_permissions_combine_minimum():
    ro_at_pmd = PageFlags.ro().combine(PageFlags.rw())
    assert not ro_at_pmd.writable
    assert ro_at_pmd.present
    rw = PageFlags.rw().combine(PageFlags.rw())
    assert rw.writable


def test_attach_fragment_and_translate(pm, pt):
    # Build a shared PTE fragment (a DaxVM file table region).
    frame = pm.alloc_frame(Medium.PMEM)
    fragment = PageTableNode(PTE_LEVEL, frame, Medium.PMEM, shared=True)
    for i in range(8):
        fragment.entries[i] = Entry(frame=1000 + i, flags=PageFlags.rw())

    created = pt.attach_fragment(PMD, fragment, PageFlags.ro())
    assert created >= 1
    tr = pt.translate(PMD + 3 * 4096)
    assert tr.frame == 1003
    # Per-process permissions: RO at the attachment gates the RW PTE.
    assert not tr.flags.writable
    # The walk saw the fragment's PMem residency at the leaf.
    assert tr.level_media[-1] is Medium.PMEM


def test_attach_requires_alignment(pm, pt):
    fragment = PageTableNode(PTE_LEVEL, pm.alloc_frame(Medium.DRAM),
                             Medium.DRAM, shared=True)
    with pytest.raises(AddressSpaceError):
        pt.attach_fragment(PMD + 4096, fragment, PageFlags.rw())


def test_attach_slot_conflict(pm, pt):
    frag1 = PageTableNode(PTE_LEVEL, pm.alloc_frame(Medium.DRAM),
                          Medium.DRAM, shared=True)
    frag2 = PageTableNode(PTE_LEVEL, pm.alloc_frame(Medium.DRAM),
                          Medium.DRAM, shared=True)
    pt.attach_fragment(PMD, frag1, PageFlags.rw())
    with pytest.raises(AddressSpaceError):
        pt.attach_fragment(PMD, frag2, PageFlags.rw())


def test_clear_range_counts_pages(pt):
    for i in range(10):
        pt.map_page(0x10000 + i * 4096, i, PageFlags.rw())
    pages = pt.clear_range(0x10000, 10 * 4096)
    assert pages == 10


def test_clear_range_detaches_shared_subtrees(pm, pt):
    fragment = PageTableNode(PTE_LEVEL, pm.alloc_frame(Medium.PMEM),
                             Medium.PMEM, shared=True)
    for i in range(20):
        fragment.entries[i] = Entry(frame=i, flags=PageFlags.rw())
    pt.attach_fragment(PMD, fragment, PageFlags.rw())
    pages = pt.clear_range(PMD, 2 << 20)
    assert pages == 20  # the fragment's population
    assert len(fragment.entries) == 20  # not cleared, only detached


def test_clear_range_huge_leaf(pt):
    pt.map_page(PMD, 512, PageFlags.rw(), PMD_LEVEL)
    pages = pt.clear_range(PMD, 2 << 20)
    assert pages == 512


def test_protect_range(pt):
    for i in range(4):
        pt.map_page(i * 4096, i, PageFlags.rw())
    changed = pt.protect_range(0, 4 * 4096, PageFlags.ro())
    assert changed == 4
    assert not pt.translate(0).flags.writable


def test_destroy_frees_everything_but_shared(pm):
    pt = PageTable(pm)
    baseline = pm.region(Medium.DRAM).allocated_frames
    shared_frame = pm.alloc_frame(Medium.PMEM)
    fragment = PageTableNode(PTE_LEVEL, shared_frame, Medium.PMEM,
                             shared=True)
    fragment.entries[0] = Entry(frame=9, flags=PageFlags.rw())
    pt.map_page(0x5000, 5, PageFlags.rw())
    pt.attach_fragment(PMD, fragment, PageFlags.rw())
    pt.destroy()
    # All private DRAM nodes gone (the root itself was pre-baseline).
    assert pm.region(Medium.DRAM).allocated_frames == baseline - 1
    pmem_before = pm.region(Medium.PMEM).allocated_frames
    assert pmem_before == 1  # the shared fragment survives
