"""Cross-cutting hypothesis property tests on core invariants.

(Additional structure-specific property tests live next to their
units: rb-tree, interval set, block allocator, extent tree.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_COSTS
from repro.errors import SegmentationFault
from repro.fs.block import BlockDevice
from repro.fs.extent import ExtentTree
from repro.mem.physmem import Medium, PhysicalMemory
from repro.paging.flags import PageFlags
from repro.paging.pagetable import PageTable
from repro.vm.layout import AddressSpaceLayout


# ---------------------------------------------------------------------------
# Page table vs a dict model.
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 200)),
                max_size=100))
def test_pagetable_matches_dict_model(ops):
    pm = PhysicalMemory(1 << 30, 1 << 30)
    pt = PageTable(pm)
    model = {}
    for do_map, page in ops:
        vaddr = page * 4096
        if do_map:
            if page not in model:
                pt.map_page(vaddr, 1000 + page, PageFlags.rw())
                model[page] = 1000 + page
        else:
            assert pt.clear_range(vaddr, 4096) == (1 if page in model
                                                   else 0)
            model.pop(page, None)
    for page in range(201):
        if page in model:
            assert pt.translate(page * 4096).frame == model[page]
        else:
            try:
                pt.translate(page * 4096)
                assert False, "translated a hole"
            except SegmentationFault:
                pass


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=60))
def test_pagetable_frame_accounting_balances(pages):
    """After unmapping everything, all interior frames are freed."""
    pm = PhysicalMemory(1 << 30, 1 << 30)
    pt = PageTable(pm)
    baseline = pm.region(Medium.DRAM).allocated_frames
    unique = sorted(set(pages))
    for page in unique:
        pt.map_page(page * 4096, page, PageFlags.rw())
    for page in unique:
        pt.clear_range(page * 4096, 4096)
    assert pm.region(Medium.DRAM).allocated_frames == baseline


# ---------------------------------------------------------------------------
# Address-space layout: no overlaps ever.
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 64), min_size=1, max_size=60),
       st.integers(0, 1 << 16))
def test_layout_never_hands_out_overlaps(sizes, seed):
    layout = AddressSpaceLayout(aslr_seed=seed)
    live = []
    for i, npages in enumerate(sizes):
        size = npages * 4096
        addr = layout.allocate(size)
        for start, end in live:
            assert addr + size <= start or addr >= end, "overlap!"
        live.append((addr, addr + size))
        if i % 4 == 3 and live:
            start, end = live.pop(0)
            layout.free(start, end - start)


# ---------------------------------------------------------------------------
# Extent tree lookups agree with a flat model.
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 300)),
                min_size=1, max_size=25))
def test_extent_lookup_matches_flat_model(appends):
    tree = ExtentTree()
    flat = []
    for phys, length in appends:
        tree.append(phys, length)
        flat.extend(range(phys, phys + length))
    for logical in range(0, len(flat), max(1, len(flat) // 37)):
        assert tree.physical_block(logical) == flat[logical]
    assert tree.physical_block(len(flat)) is None


# ---------------------------------------------------------------------------
# FS-level conservation: alloc/free through chunked allocation.
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 1500), min_size=1, max_size=20),
       st.integers(0, 10_000))
def test_chunked_alloc_free_conservation(sizes, seed):
    """The FileSystem-style 2 MB-chunked allocation pattern conserves
    blocks and never corrupts the free list."""
    dev = BlockDevice(64 << 20)
    files = []
    for nblocks in sizes:
        if nblocks > dev.free_blocks:
            continue
        runs = []
        remaining = nblocks
        while remaining > 0:
            chunk = min(remaining, 512)
            align = 512 if chunk == 512 else 1
            runs.extend(dev.alloc(chunk, align=align))
            remaining -= chunk
        files.append(runs)
        dev.check_invariants()
    total_live = sum(l for runs in files for _s, l in runs)
    assert dev.free_blocks + total_live == dev.total_blocks
    for runs in files:
        for start, length in runs:
            dev.free(start, length)
    dev.check_invariants()
    assert dev.free_blocks == dev.total_blocks


# ---------------------------------------------------------------------------
# Cost-model sanity under arbitrary byte counts.
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1 << 28))
def test_cost_functions_are_positive_and_monotone(nbytes):
    from repro.mem.latency import MemoryModel

    mem = MemoryModel(DEFAULT_COSTS)
    read = mem.stream_read(nbytes, Medium.PMEM)
    assert read > 0
    assert mem.stream_read(nbytes + 4096, Medium.PMEM) >= read
    assert mem.clwb_flush(nbytes) > mem.stream_write(nbytes, Medium.PMEM)
