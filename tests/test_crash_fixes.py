"""Regression tests for the three fixes that rode the crash subsystem.

1. ``Journal.commit_sync`` books its commit record against the device's
   shared write-bandwidth pool (it used to be pure latency, invisible
   to bandwidth interference).
2. The msync sync epoch: a write racing an in-flight msync — through a
   still-writable PTE or through the reprotect fault — must come back
   dirty *after* the epoch instead of being swallowed by the flush.
3. ``RecoveryLog.recover_all`` walks inodes in inode-number order (the
   mount-scan order), with inode numbers assigned per mount, so
   recovery reports are deterministic regardless of path names.
"""

import pytest

from repro.config import DEFAULT_COSTS
from repro.core.recovery import RecoveryLog
from repro.fs.journal import Journal
from repro.fs.vfs import VFS
from repro.sim.stats import Stats
from repro.vm.vma import MapFlags, Protection

PAGE = 4096


def run(system, gen):
    thread = system.spawn(gen, core=0)
    system.run()
    return thread.result


def make_file(system, size, path="/f"):
    def flow():
        f = yield from system.fs.open(path, create=True)
        yield from system.fs.write(f, 0, size)
        return f

    return run(system, flow())


def drain(gen):
    """Drive a generator standalone, summing the cycles it charges."""
    total = 0.0
    try:
        while True:
            effect = gen.send(None)
            total += getattr(effect, "cycles", 0.0)
    except StopIteration:
        pass
    return total


# ---------------------------------------------------------------------------
# 1. Sync commits contend for device write bandwidth.
# ---------------------------------------------------------------------------
def test_sync_commit_pays_base_latency_on_an_idle_device(system):
    assert drain(system.fs.journal.commit_sync()) == pytest.approx(
        system.costs.journal_commit)


def test_sync_commit_stretches_when_write_bandwidth_is_saturated(system):
    # Backlog the shared write pool far into the simulated future, the
    # way a concurrent streaming writer would.
    system.mem.device_delay(10 << 30, True, now=system.engine.now)
    cost = drain(system.fs.journal.commit_sync())
    assert cost > system.costs.journal_commit * 5


def test_standalone_journal_keeps_pure_latency_commits():
    journal = Journal(DEFAULT_COSTS, Stats())  # no fs: unit usage
    assert drain(journal.commit_sync()) == pytest.approx(
        DEFAULT_COSTS.journal_commit)


# ---------------------------------------------------------------------------
# 2. The msync sync epoch: racing writes are not lost.
# ---------------------------------------------------------------------------
def test_write_through_still_writable_pte_survives_the_epoch(system):
    """The lost-dirty-bit window: msync collected the tags but has not
    reprotected yet, so the racing write takes *no fault* — only the
    epoch re-mark can save it."""
    f = make_file(system, 4 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 4 * PAGE,
                                      Protection.rw(), MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, PAGE, write=True)
        return vma

    vma = run(system, flow())
    cache = proc.mm.page_cache
    assert cache.dirty_count(f.inode) == 1

    tags = cache.begin_sync(f.inode)  # msync collected the tags ...
    assert tags == {0}
    assert 0 in vma.writable          # ... but has not reprotected yet

    def racer():
        yield from proc.mm.access(vma, 0, PAGE, write=True)

    run(system, racer())
    assert cache.dirty_count(f.inode) == 0  # mid-epoch: tag deferred
    cache.end_sync(f.inode)
    assert cache.dirty_count(f.inode) == 1  # the write was not lost


def test_fault_during_sync_epoch_defers_the_remark(system):
    """Same window, reached through the fault path: the PTE is still
    writable, the fault is spurious, and the granule must be queued
    for re-tagging at epoch end rather than marked mid-flush."""
    f = make_file(system, 4 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 4 * PAGE,
                                      Protection.rw(), MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, PAGE, write=True)
        return vma

    vma = run(system, flow())
    cache = proc.mm.page_cache
    cache.begin_sync(f.inode)

    def racer():
        yield from proc.mm.fault(vma, 0, write=True)

    run(system, racer())
    assert cache.dirty_count(f.inode) == 0
    cache.end_sync(f.inode)
    assert cache.dirty_count(f.inode) == 1


def test_full_msync_cycle_still_reprotects_and_flushes(system):
    """The epoch refactor must not change the non-racing msync cycle:
    flush, reprotect, tracking restarts."""
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.rw(), MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 4 * PAGE, write=True)
        yield from proc.mm.msync(vma)
        return vma

    vma = run(system, flow())
    cache = proc.mm.page_cache
    assert cache.dirty_count(f.inode) == 0
    assert not vma.writable
    assert not cache.in_sync(f.inode, 0)  # epoch closed


# ---------------------------------------------------------------------------
# 3. recover_all walks the inode table in inode-number order.
# ---------------------------------------------------------------------------
def test_vfs_inode_numbers_are_per_mount():
    a, b = VFS(), VFS()
    assert a.create("/zzz").number == 1
    assert b.create("/aaa").number == 1
    assert a.create("/aaa").number == 2


def test_vfs_inodes_sorted_by_number_not_path():
    vfs = VFS()
    vfs.create("/zzz")
    vfs.create("/mmm")
    vfs.create("/aaa")
    assert [i.path for i in vfs.inodes()] == ["/zzz", "/mmm", "/aaa"]


def test_recover_all_repairs_in_inode_table_order(system):
    manager = system.filetables
    system.fs.allow_huge = False

    def flow():
        for path in ("/zzz", "/aaa"):  # creation order != path order
            f = yield from system.fs.open(path, create=True)
            yield from system.fs.write(f, 0, 1 << 20)
            yield from system.fs.close(f)

    run(system, flow())
    for path in ("/zzz", "/aaa"):
        table = system.vfs.lookup(path).persistent_file_table
        assert table is not None
        table.truncate(table.filled_pages - 2)  # tear both tails

    report = RecoveryLog(system.vfs, manager).recover_all()
    assert report.tables_repaired == 2
    # Inode-number (creation) order, not lexicographic path order.
    assert report.repaired_paths == ["/zzz", "/aaa"]
