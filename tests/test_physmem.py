"""Unit tests for physical memory regions and frame accounting."""

import pytest

from repro.errors import MemoryError_
from repro.mem.physmem import Medium, PhysicalMemory, Region


def test_frame_allocation_and_reuse():
    region = Region(Medium.DRAM, 16 * 4096)
    frames = [region.alloc_frame() for _ in range(4)]
    assert len(set(frames)) == 4
    region.free_frame(frames[0])
    assert region.alloc_frame() == frames[0]  # freelist reuse


def test_region_exhaustion():
    region = Region(Medium.DRAM, 2 * 4096)
    region.alloc_frame()
    region.alloc_frame()
    with pytest.raises(MemoryError_):
        region.alloc_frame()


def test_peak_tracking():
    region = Region(Medium.PMEM, 8 * 4096)
    frames = [region.alloc_frame() for _ in range(3)]
    for frame in frames:
        region.free_frame(frame)
    assert region.allocated_frames == 0
    assert region.peak_frames == 3
    assert region.peak_bytes == 3 * 4096


def test_double_free_raises():
    region = Region(Medium.DRAM, 8 * 4096)
    frame = region.alloc_frame()
    region.free_frame(frame)
    before = region.allocated_frames
    with pytest.raises(MemoryError_):
        region.free_frame(frame)
    # The failed free must not corrupt the accounting or the freelist.
    assert region.allocated_frames == before
    assert region.alloc_frame() == frame


def test_freeing_a_never_allocated_frame_raises():
    region = Region(Medium.PMEM, 8 * 4096, base_frame=100)
    region.alloc_frame()
    with pytest.raises(MemoryError_):
        region.free_frame(105)  # in range, but never handed out
    with pytest.raises(MemoryError_):
        region.free_frame(99)  # below the region entirely


def test_media_are_distinguishable_by_frame_number():
    pm = PhysicalMemory(dram_bytes=1 << 20, pmem_bytes=1 << 20)
    dram_frame = pm.alloc_frame(Medium.DRAM)
    pmem_frame = pm.alloc_frame(Medium.PMEM)
    assert pm.medium_of(dram_frame) is Medium.DRAM
    assert pm.medium_of(pmem_frame) is Medium.PMEM
    assert pmem_frame >= pm.region(Medium.PMEM).base_frame


def test_free_routes_to_owning_region():
    pm = PhysicalMemory(dram_bytes=1 << 20, pmem_bytes=1 << 20)
    frame = pm.alloc_frame(Medium.PMEM)
    before = pm.region(Medium.PMEM).allocated_frames
    pm.free_frame(frame)
    assert pm.region(Medium.PMEM).allocated_frames == before - 1
