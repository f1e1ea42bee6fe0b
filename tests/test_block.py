"""Block device / extent allocator tests, including property checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoSpaceError
from repro.fs.block import BLOCKS_PER_PMD, BlockDevice


def test_basic_alloc_free_cycle():
    dev = BlockDevice(1 << 20)  # 256 blocks
    runs = dev.alloc(10)
    assert sum(l for _s, l in runs) == 10
    assert dev.free_blocks == 246
    for start, length in runs:
        dev.free(start, length)
    assert dev.free_blocks == 256
    dev.check_invariants()


def test_alloc_rejects_bad_sizes():
    dev = BlockDevice(1 << 20)
    with pytest.raises(ValueError):
        dev.alloc(0)
    with pytest.raises(NoSpaceError):
        dev.alloc(10_000)


def test_aligned_allocation_on_fresh_device():
    dev = BlockDevice(16 << 20)
    runs = dev.alloc(BLOCKS_PER_PMD, align=BLOCKS_PER_PMD)
    assert len(runs) == 1
    assert runs[0][0] % BLOCKS_PER_PMD == 0


def test_piecewise_fallback_when_fragmented():
    dev = BlockDevice(1 << 20)
    # Fragment: allocate everything then free alternate small runs.
    dev.alloc(256)
    for start in range(0, 256, 8):
        dev.free(start, 4)
    dev.check_invariants()
    runs = dev.alloc(16)
    assert len(runs) > 1
    assert sum(l for _s, l in runs) == 16


def test_coalescing_both_sides():
    dev = BlockDevice(1 << 20)
    dev.alloc(256)
    dev.free(10, 5)
    dev.free(20, 5)
    dev.free(15, 5)  # bridges the two
    assert dev.free_extent_count() == 1
    assert [(e.start, e.length) for e in dev._free] == [(10, 15)]
    dev.check_invariants()


def test_frame_mapping():
    dev = BlockDevice(1 << 20, base_frame=1000)
    assert dev.frame_of(5) == 1005


def test_huge_metrics():
    dev = BlockDevice(8 << 20)  # 2048 blocks = 4 PMDs
    assert dev.huge_capable_free_blocks() == 2048
    assert dev.huge_coverage_potential() == 1.0
    dev.alloc(1)  # chip one block off the front
    assert dev.huge_capable_free_blocks() == 3 * BLOCKS_PER_PMD


def test_goal_cursor_wanders():
    """Next-fit: successive small allocations don't all camp at the
    first hole."""
    dev = BlockDevice(4 << 20)
    dev.alloc(1024)
    for start in range(0, 1024, 16):
        dev.free(start, 8)
    starts = [dev.alloc(4)[0][0] for _ in range(8)]
    assert len(set(starts)) == len(starts)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 64), min_size=1, max_size=60))
def test_property_alloc_free_conservation(sizes):
    """Total blocks are conserved and invariants hold under churn."""
    dev = BlockDevice(1 << 20)
    live = []
    for i, size in enumerate(sizes):
        if size <= dev.free_blocks:
            live.append(dev.alloc(size))
        if i % 3 == 2 and live:
            for start, length in live.pop(0):
                dev.free(start, length)
        dev.check_invariants()
    allocated = sum(l for runs in live for _s, l in runs)
    assert dev.free_blocks + allocated == dev.total_blocks


class _DelInsertDevice(BlockDevice):
    """Reference allocator: the original ``_carve``, which deletes the
    free extent and re-inserts whatever pieces remain."""

    def _carve(self, index, start, length):
        extent = self._free[index]
        before = start - extent.start
        after = extent.end - (start + length)
        del self._free[index]
        del self._starts[index]
        if before > 0:
            self._insert_free(extent.start, before)
        if after > 0:
            self._insert_free(start + length, after)


def _allocator_state(dev):
    return ([(e.start, e.length) for e in dev._free], list(dev._starts),
            dev._cursor, dev.free_blocks)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 700),
              st.sampled_from([1, 8, BLOCKS_PER_PMD]), st.booleans()),
    st.tuples(st.just("free"), st.integers(0, 1 << 16))),
    min_size=1, max_size=80))
def test_property_in_place_carve_matches_del_insert(ops):
    """Trimming free extents in place leaves the free list, its start
    index and the goal cursor exactly where delete-and-insert did."""
    dev = BlockDevice(16 << 20)
    ref = _DelInsertDevice(16 << 20)
    live = []
    for op in ops:
        if op[0] == "alloc":
            _, size, align, contiguous = op
            if size > dev.free_blocks:
                continue
            runs = dev.alloc(size, align=align, prefer_contiguous=contiguous)
            assert ref.alloc(size, align=align,
                             prefer_contiguous=contiguous) == runs
            live.extend(runs)
        elif live:
            start, length = live.pop(op[1] % len(live))
            dev.free(start, length)
            ref.free(start, length)
        dev.check_invariants()
        assert _allocator_state(dev) == _allocator_state(ref)
