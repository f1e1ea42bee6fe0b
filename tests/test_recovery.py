"""Crash consistency and reboot recovery tests (paper §IV-A1).

Every case runs the audited crash route: a machine with a
:class:`PersistenceDomain` attached runs a workload, its storage is
copied into a :class:`StorageImage` (or, where a process must map the
recovered file, the machine itself is rebooted in place), the domain
drops what was not durable, and recovery mounts the result.  The
domain rolls a torn table fill back with its transaction, so a crash
alone never leaves a table out of step with its extent map; cases that
need a torn or leading table make one explicitly.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filetable import PAGES_PER_PMD
from repro.core.recovery import RecoveryLog, verify_table_consistency
from repro.crash import PersistenceDomain, RecoveryChecker, StorageImage
from repro.mem.physmem import Medium
from repro.paging.pagetable import Entry
from repro.system import System
from repro.vm.vma import Protection


def run(system, gen):
    thread = system.spawn(gen, core=0)
    system.run()
    return thread.result


def tracked_system(allow_huge=True):
    """A small fresh-image ext4 machine whose stores the persistence
    domain tracks, with DaxVM file tables."""
    system = System(device_bytes=1 << 30)
    system.attach_persistence(PersistenceDomain())
    system.filetables  # the manager hooks the FS before any file exists
    system.fs.allow_huge = allow_huge
    return system


def make_files(system, specs):
    """Create, write and fsync each ``(path, size)``: the files are
    durable before any crash."""
    def flow():
        inodes = []
        for path, size in specs:
            f = yield from system.fs.open(path, create=True)
            yield from system.fs.write(f, 0, size)
            yield from system.fs.fsync(f)
            yield from system.fs.close(f)
            inodes.append(f.inode)
        return inodes

    return run(system, flow())


def crash_image(system, seed=0):
    """Power-fail a copy of ``system``'s storage: returns the image
    and what the crash did to it."""
    image = StorageImage(system)
    state = image.persistence.apply_crash(random.Random(seed))
    return image, state


def tear(inode, ptes):
    """Drop the last ``ptes`` translations of the inode's persistent
    table, as if their fills never reached the media."""
    table = inode.persistent_file_table
    table.truncate(table.filled_pages - ptes)
    return ptes


def test_clean_image_mount_finds_every_persistent_table_intact():
    system = tracked_system()
    big, small = make_files(system, [("/big", 2 << 20),
                                     ("/small", 16 << 10)])
    assert big.persistent_file_table is not None
    assert small.volatile_file_table is not None

    image = StorageImage(system)
    report = RecoveryLog(image.vfs, image._filetables).recover_all()
    # Volatile tables died with DRAM; persistent ones survive intact.
    inodes = list(image.vfs.inodes())
    assert all(inode.volatile_file_table is None for inode in inodes)
    persistent = [inode for inode in inodes
                  if inode.persistent_file_table is not None]
    assert [inode.path for inode in persistent] == ["/big"]
    assert report.inodes_scanned == 2
    assert report.tables_intact == len(persistent)
    assert report.tables_repaired == 0
    assert report.ptes_replayed == 0
    assert all(verify_table_consistency(inode) for inode in persistent)
    # The running machine keeps its own tables.
    assert small.volatile_file_table is not None


def test_crash_tears_and_recovery_replays():
    system = tracked_system(allow_huge=False)  # PTE-level tables
    make_files(system, [(f"/f{i}", 1 << 20) for i in range(6)])

    image, state = crash_image(system, seed=3)
    inodes = list(image.vfs.inodes())
    lost = sum(tear(inode, 8 * n + 1)
               for n, inode in enumerate(inodes[::2]))
    assert lost == 1 + 9 + 17
    torn = [i for i in inodes
            if i.persistent_file_table.filled_pages
            != i.extents.block_count]
    assert len(torn) == 3

    outcome = RecoveryChecker(image, image.persistence, state).run(point=0)
    assert outcome.ok, outcome.violations
    assert outcome.tables_repaired == len(torn)
    assert outcome.ptes_replayed == lost
    for inode in inodes:
        assert inode.persistent_file_table.filled_pages == \
            inode.extents.block_count
        assert verify_table_consistency(inode)


def test_crash_recovery_via_image_mount():
    system = tracked_system(allow_huge=False)
    make_files(system, [("/a", 512 << 10), ("/b", 512 << 10)])
    image, _state = crash_image(system, seed=1)
    tear(image.vfs.lookup("/b"), 9)

    report = RecoveryLog(image.vfs, image._filetables).recover_all()
    assert report is not None
    assert report.inodes_scanned == 2
    assert report.tables_intact + report.tables_repaired == 2
    assert report.tables_repaired == 1
    assert report.ptes_replayed == 9
    assert report.repaired_paths == ["/b"]


def test_recovered_tables_are_mappable():
    system = tracked_system(allow_huge=False)
    (inode,) = make_files(system, [("/x", 1 << 20)])
    # Crash the machine itself, so a process can map the result.
    domain = system.persistence
    state = domain.apply_crash(random.Random(7))
    tear(inode, 40)
    system.vfs.inode_cache.evict_all()
    system._reboot()
    outcome = RecoveryChecker(system, domain, state).run(point=0)
    assert outcome.ok, outcome.violations
    assert outcome.ptes_replayed == 40

    proc = system.new_process()
    dax = system.daxvm_for(proc)

    def flow():
        vma = yield from dax.mmap(inode, 0, 1 << 20, Protection.READ)
        yield from proc.mm.access(vma, vma.user_addr - vma.start,
                                  1 << 20)
        return vma

    vma = run(system, flow())
    assert vma.leaf_medium is Medium.PMEM
    # Every page of the recovered mapping translates correctly.
    tr = proc.mm.scheme.translate(vma.user_addr + 100 * 4096)
    assert tr.frame == system.device.frame_of(
        inode.extents.physical_block(100))


def test_leading_table_truncated_back():
    """A table that *leads* the extent map (torn after table flush)
    is truncated back to the metadata's truth."""
    system = tracked_system(allow_huge=False)
    make_files(system, [("/lead", 256 << 10)])
    image, state = crash_image(system)
    inode = image.vfs.lookup("/lead")
    table = inode.persistent_file_table
    # Fake a lead: the extents and size lost their last four blocks
    # while the table kept their fills.
    inode.extents.truncate_to(inode.extents.block_count - 4)
    inode.size = inode.extents.block_count * 4096
    assert table.filled_pages > inode.extents.block_count

    outcome = RecoveryChecker(image, image.persistence, state).run(point=0)
    assert outcome.ok, outcome.violations
    assert outcome.tables_repaired == 1
    assert table.filled_pages == inode.extents.block_count
    # The four blocks the extents dropped are orphans mount reclaims.
    assert outcome.orphan_blocks == 4


def test_checker_catches_a_corrupt_huge_leaf():
    system = tracked_system()
    (live,) = make_files(system, [("/huge", 4 << 20)])
    assert len(live.persistent_file_table.huge_frames) == 2

    image, state = crash_image(system)
    inode = image.vfs.lookup("/huge")
    assert verify_table_consistency(inode)
    table = inode.persistent_file_table
    table.huge_frames[1] += 1

    outcome = RecoveryChecker(image, image.persistence, state).run(point=0)
    assert outcome.violations == [
        "/huge: persistent file table inconsistent with extent map "
        "after replay"]
    # Only the image was corrupted.
    assert verify_table_consistency(live)


# ---------------------------------------------------------------------------
# The table check by extent runs answers as the per-page lookup did.
# ---------------------------------------------------------------------------
def _per_page_consistency(inode):
    """The table check as it was, one extent lookup per filled PTE."""
    table = inode.persistent_file_table
    if table is None:
        return True
    extents = inode.extents
    if table.filled_pages != extents.block_count:
        return False
    device = table._allocator.device
    for region, frame in table.huge_frames.items():
        start = region * PAGES_PER_PMD
        if not extents.pmd_capable(start) or \
                frame != device.frame_of(extents.physical_block(start)):
            return False
    for region, node in table.pte_nodes.items():
        for idx, entry in node.entries.items():
            phys = extents.physical_block(region * PAGES_PER_PMD + idx)
            if phys is None or entry.frame != device.frame_of(phys):
                return False
    return True


_TAMPERS = st.lists(st.tuples(
    st.sampled_from(["remap", "remap-and-fill", "bump", "drop", "extra"]),
    st.integers(0, 1 << 16), st.integers(-2, 2)), max_size=4)


@settings(max_examples=60, deadline=None)
@given(pages=st.integers(1, 1100), tampers=_TAMPERS)
def test_run_table_check_equals_the_per_page_check(pages, tampers):
    """Split extents (a remapped block, with or without its PTE
    refilled), off-by-some frames, missing PTEs and PTEs past the end:
    the check by runs gives the per-page check's answer each time."""
    system = tracked_system(allow_huge=False)
    (inode,) = make_files(system, [("/f", pages * 4096)])
    table = inode.persistent_file_table
    if table is None:
        return
    device = system.device
    for kind, where, delta in tampers:
        page = where % table.filled_pages
        region, idx = divmod(page, PAGES_PER_PMD)
        node = table.pte_nodes[region]
        if kind.startswith("remap"):
            (start, _length), = device.alloc(1)
            inode.extents.replace_block(page, start)
            if kind == "remap-and-fill":
                node.entries[idx] = Entry(frame=device.frame_of(start))
        elif kind == "bump" and idx in node.entries:
            node.entries[idx] = Entry(frame=node.entries[idx].frame + delta)
        elif kind == "drop":
            node.entries.pop(idx, None)
        elif kind == "extra":
            last = max(table.pte_nodes)
            node = table.pte_nodes[last]
            node.entries[PAGES_PER_PMD - 1 - abs(delta)] = Entry(frame=delta)
        assert (verify_table_consistency(inode)
                == _per_page_consistency(inode)), (kind, page)
