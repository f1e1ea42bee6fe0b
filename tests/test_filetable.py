"""File-table tests: construction, policy, lifecycle, migration, and
the run-based fill against the page-at-a-time fill it replaced."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_COSTS
from repro.core.filetable import (
    PAGES_PER_PMD,
    PTES_PER_CACHE_LINE,
    FileTable,
)
from repro.errors import SimulationError
from repro.fs.block import BLOCK_SIZE
from repro.fs.extent import ExtentTree
from repro.fs.vfs import Inode
from repro.mem.physmem import Medium
from repro.paging.flags import PageFlags
from repro.paging.pagetable import PTE_LEVEL, Entry
from repro.system import System

PAGE = 4096


def run(system, gen):
    thread = system.spawn(gen, core=0)
    system.run()
    return thread.result


def make_file(system, size, path="/f"):
    def flow():
        f = yield from system.fs.open(path, create=True)
        yield from system.fs.write(f, 0, size)
        yield from system.fs.close(f)
        return f.inode

    return run(system, flow())


def test_small_files_get_volatile_tables(system):
    manager = system.filetables  # registers hooks
    inode = make_file(system, 16 << 10)
    table = manager.table_for(inode)
    assert table is not None
    assert table.medium is Medium.DRAM
    assert inode.persistent_file_table is None
    assert table.filled_pages == 4


def test_large_files_get_persistent_tables(system):
    manager = system.filetables
    inode = make_file(system, 1 << 20)
    table = manager.table_for(inode)
    assert table.medium is Medium.PMEM
    assert inode.volatile_file_table is None
    assert table.filled_pages == 256


def test_growth_across_policy_line_upgrades(system):
    manager = system.filetables

    def flow():
        f = yield from system.fs.open("/grow", create=True)
        yield from system.fs.write(f, 0, 16 << 10)   # volatile
        assert f.inode.volatile_file_table is not None
        yield from system.fs.write(f, 16 << 10, 48 << 10)  # crosses 32K
        return f.inode

    inode = run(system, flow())
    assert inode.volatile_file_table is None
    assert inode.persistent_file_table is not None
    assert inode.persistent_file_table.filled_pages == 16


def test_volatile_table_destroyed_on_eviction_and_rebuilt(system):
    manager = system.filetables
    inode = make_file(system, 16 << 10)
    system.vfs.inode_cache.evict_all()
    assert inode.volatile_file_table is None

    def reopen():
        f = yield from system.fs.open("/f")
        yield from system.fs.close(f)

    run(system, reopen())
    assert inode.volatile_file_table is not None
    assert system.stats.get("daxvm.volatile_rebuilds") == 1


def test_persistent_table_survives_eviction(system):
    manager = system.filetables
    inode = make_file(system, 1 << 20)
    system.vfs.inode_cache.evict_all()
    assert inode.persistent_file_table is not None
    assert manager.table_for(inode).filled_pages == 256


def test_persistent_tables_consume_pmem_metadata_blocks(system):
    manager = system.filetables
    before = system.device.free_blocks
    inode = make_file(system, 2 << 20)
    used = before - system.device.free_blocks
    # 512 data blocks + at least one table node (huge-capable regions
    # may collapse the PTE level, but PMD nodes still exist).
    assert used >= 512 + 1
    assert inode.persistent_file_table.storage_bytes >= BLOCK_SIZE


def test_huge_capable_regions_use_pmd_leaves(system):
    manager = system.filetables
    inode = make_file(system, 4 << 20)
    table = manager.table_for(inode)
    assert len(table.huge_frames) == 2
    assert not table.pte_nodes  # fully huge on a fresh image
    assert table.region_entry(0)[0] == "huge"


def test_fragmented_file_mixes_huge_and_pte_regions(aged_system):
    manager = aged_system.filetables

    def flow():
        f = yield from aged_system.fs.open("/big", create=True)
        yield from aged_system.fs.write(f, 0, 32 << 20)
        return f.inode

    inode = run(aged_system, flow())
    table = manager.table_for(inode)
    assert table.pte_nodes  # some regions are 4K-mapped
    assert table.filled_pages == 32 << 20 >> 12


def test_truncate_shrinks_table(system):
    manager = system.filetables
    inode = make_file(system, 1 << 20)

    def flow():
        f = yield from system.fs.open("/f")
        yield from system.fs.truncate(f, 16 << 10)

    run(system, flow())
    table = manager.table_for(inode)
    assert table.filled_pages == 4


def test_unlink_drops_table_nodes(system):
    manager = system.filetables
    make_file(system, 1 << 20)
    before = system.device.free_blocks

    def flow():
        yield from system.fs.unlink("/f")

    run(system, flow())
    # Data blocks and table metadata blocks all return.
    assert system.device.free_blocks > before


def test_migration_builds_volatile_copy(system):
    manager = system.filetables
    inode = make_file(system, 1 << 20)
    cycles = manager.migrate_to_dram(inode)
    assert cycles > 0
    assert inode.volatile_file_table is not None
    assert inode.volatile_file_table.medium is Medium.DRAM
    # Both tables are maintained after migration (§IV-A1).
    assert inode.persistent_file_table is not None
    # mmap prefers the volatile copy.
    assert manager.table_for(inode).medium is Medium.DRAM
    # Idempotent.
    assert manager.migrate_to_dram(inode) == 0.0


def test_persistent_build_costs_more_than_volatile(system):
    """§V-B: persistent tables pay cache-line flushes on construction."""
    manager = system.filetables
    system.fs.allow_huge = False
    small = make_file(system, 16 << 10, path="/v")   # volatile
    big = make_file(system, 1 << 20, path="/p")       # persistent
    vol = manager.table_for(small)
    per = manager.table_for(big)
    assert vol.medium is Medium.DRAM
    assert per.medium is Medium.PMEM
    # Persistent construction pays clwb per line on top of PTE fills.
    assert per.costs.filetable_clwb_line > vol.costs.filetable_pte_fill


def test_storage_report(system):
    manager = system.filetables
    a = make_file(system, 16 << 10, path="/a")
    b = make_file(system, 1 << 20, path="/b")
    report = manager.storage_report([a, b])
    assert report["dram_bytes"] >= BLOCK_SIZE
    assert report["pmem_bytes"] >= BLOCK_SIZE


# ---------------------------------------------------------------------------
# The run-based fill against the page-at-a-time fill it replaced.
# ---------------------------------------------------------------------------
def _reference_extend(table, fs):
    """The page-at-a-time ``FileTable.extend``: one extent lookup per
    page, a hole written as an empty leaf.  Test-only reference."""
    inode = table.inode
    total_pages = inode.extents.block_count
    if total_pages <= table.filled_pages:
        return 0.0
    cycles = 0.0
    new_ptes = 0
    nodes_before = table.node_count
    page = table.filled_pages
    while page < total_pages:
        region = page // PAGES_PER_PMD
        region_start = region * PAGES_PER_PMD
        if (page == region_start
                and region_start + PAGES_PER_PMD <= total_pages
                and fs.pmd_capable(inode, region_start)):
            frame = fs.frame_for_page(inode, region_start)
            table.huge_frames[region] = frame
            table._pmd_slot(region, Entry(
                frame=frame, flags=PageFlags.rw() | PageFlags.HUGE))
            cycles += table.costs.filetable_pte_fill
            page = region_start + PAGES_PER_PMD
            continue
        node = table.pte_nodes.get(region)
        if node is None:
            node = table._new_node(PTE_LEVEL)
            table.pte_nodes[region] = node
            table._pmd_slot(region, Entry(frame=node.frame,
                                          flags=PageFlags.rw(), child=node))
        frame = fs.frame_for_page(inode, page)
        node.entries[page % PAGES_PER_PMD] = Entry(frame=frame,
                                                   flags=PageFlags.rw())
        new_ptes += 1
        page += 1
    table.filled_pages = total_pages
    table.ptes_filled += new_ptes
    cycles += new_ptes * table.costs.filetable_pte_fill
    new_nodes = table.node_count - nodes_before
    if table.medium is Medium.PMEM:
        cycles += new_nodes * table.costs.block_alloc
    else:
        cycles += new_nodes * 300.0
    if table.medium is Medium.PMEM and new_ptes:
        lines = math.ceil(new_ptes / PTES_PER_CACHE_LINE)
        cycles += lines * table.costs.filetable_clwb_line
    return cycles


class _CountingAllocator:
    """Hands out table-node frames in order, so two tables that build
    the same nodes in the same order get the same frames."""

    def __init__(self):
        self.next_frame = 1 << 40

    def alloc_frame(self, medium):
        self.next_frame += 1
        return self.next_frame

    def free_frame(self, frame):
        pass


def _table_state(table):
    def entries(node):
        return [(slot, entry.frame, entry.flags.value,
                 None if entry.child is None else entry.child.frame)
                for slot, entry in node.entries.items()]

    return {
        "pte_nodes": [(region, node.frame, entries(node))
                      for region, node in table.pte_nodes.items()],
        "huge_frames": list(table.huge_frames.items()),
        "pmd_nodes": [(gb, node.frame, entries(node))
                      for gb, node in table.pmd_nodes.items()],
        "node_count": table.node_count,
        "ptes_filled": table.ptes_filled,
        "filled_pages": table.filled_pages,
    }


class _TwinTables:
    """A run-filled and a reference-filled table over one inode."""

    def __init__(self, inode, medium):
        self.run = FileTable(inode, medium, _CountingAllocator(),
                             DEFAULT_COSTS)
        self.ref = FileTable(inode, medium, _CountingAllocator(),
                             DEFAULT_COSTS)

    def extend(self, fs):
        run_cycles = self.run.extend(fs)
        ref_cycles = _reference_extend(self.ref, fs)
        assert run_cycles.hex() == ref_cycles.hex()

    def truncate(self, pages):
        assert self.run.truncate(pages) == self.ref.truncate(pages)

    def check(self):
        assert _table_state(self.run) == _table_state(self.ref)


_OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(1, 1100)),
    st.tuples(st.just("fallocate"), st.integers(1, 1100)),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("replace"), st.integers(0, 1 << 20)),
), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(holes=st.lists(st.tuples(st.integers(1, 700), st.integers(1, 300)),
                      max_size=12),
       ops=_OPS,
       medium=st.sampled_from([Medium.DRAM, Medium.PMEM]),
       allow_huge=st.booleans())
def test_run_fill_matches_per_page_reference(holes, ops, medium,
                                             allow_huge):
    system = System(device_bytes=64 << 20)
    fs, device = system.fs, system.device
    fs.allow_huge = allow_huge
    # Fragment the free space: runs kept in use between freed holes.
    for used, hole in holes:
        device.alloc(used)
        start = device.alloc(hole)[0][0]
        device.free(start, hole)
    f = make_file(system, PAGE, path="/frag")
    inode = f
    tables = _TwinTables(inode, medium)
    tables.extend(fs)

    def fs_op(gen):
        def flow():
            handle = yield from fs.open("/frag")
            yield from gen(handle)
            yield from fs.close(handle)
        run(system, flow())

    for kind, arg in ops:
        pages = inode.extents.block_count
        if kind == "append":
            fs_op(lambda h: fs.write(h, pages * PAGE, arg * PAGE))
        elif kind == "fallocate":
            fs_op(lambda h: fs.fallocate(h, (pages + arg) * PAGE))
        elif kind == "truncate":
            keep = int(pages * arg)
            fs_op(lambda h: fs.truncate(h, keep * PAGE))
            tables.truncate(inode.extents.block_count)
        elif pages:
            # The media-remap fixup: re-point one block, then refill
            # the tables from that page on.
            logical = arg % pages
            inode.extents.replace_block(logical, device.alloc(1)[0][0])
            tables.truncate(logical)
        tables.extend(fs)
        tables.check()
    # A table built from scratch over the final (split) extent tree.
    fresh = _TwinTables(inode, medium)
    fresh.extend(fs)
    fresh.check()


@pytest.mark.parametrize("k", [1, 2, 5, 16])
def test_fill_takes_one_extent_lookup_per_run(system, k):
    """A 256-page file of ``k`` extents fills with ``k`` lookups (one
    per extent within its one 2 MB region), not one per page."""
    inode = Inode("/runs", number=4243)
    tree = ExtentTree()
    physical = 1000
    for i in range(k):
        length = 256 // k + (1 if i < 256 % k else 0)
        tree.append(physical, length)
        physical += length + 3  # a gap: extents never merge
    inode.extents = tree
    assert len(tree) == k and tree.block_count == 256
    table = FileTable(inode, Medium.PMEM, _CountingAllocator(),
                      DEFAULT_COSTS)
    with mock.patch.object(ExtentTree, "find", autospec=True,
                           side_effect=ExtentTree.find) as find:
        table.extend(system.fs)
    assert find.call_count <= k
    assert table.ptes_filled == 256
    assert [e.frame for e in table.pte_nodes[0].entries.values()] == \
        [system.device.frame_of(tree.physical_block(p)) for p in range(256)]


def test_fill_raises_on_a_hole(system):
    inode = Inode("/holey", number=4244)
    tree = ExtentTree()
    tree.append(1000, 10)
    tree.append(2000, 10)
    # Forge a 5-page gap before the second extent: pages 10..14.
    tree._extents[1].logical += 5
    tree._logical_starts[1] += 5
    inode.extents = tree
    table = FileTable(inode, Medium.DRAM, _CountingAllocator(),
                      DEFAULT_COSTS)
    with pytest.raises(SimulationError,
                       match=r"/holey \(inode 4244\).*file page 10\b"):
        table.extend(system.fs)
