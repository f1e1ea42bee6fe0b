"""DaxVM core tests: ephemeral heap, async unmap, pre-zero, monitor."""

import pytest

from repro.mem.physmem import Medium
from repro.vm.vma import MapFlags, Protection

PAGE = 4096
PMD = 2 << 20


def run(system, gen, core=0):
    thread = system.spawn(gen, core=core)
    system.run()
    return thread.result


def make_file(system, size, path="/f"):
    def flow():
        f = yield from system.fs.open(path, create=True)
        yield from system.fs.write(f, 0, size)
        return f.inode

    return run(system, flow())


def setup_dax(system, **kw):
    proc = system.new_process()
    dax = system.daxvm_for(proc, **kw)
    return proc, dax


# ---------------------------------------------------------------------------
# Ephemeral heap.
# ---------------------------------------------------------------------------
def test_ephemeral_heap_allocates_aligned_ranges(system):
    proc, dax = setup_dax(system)

    def flow():
        a = yield from dax.ephemeral.allocate(PMD, align=PMD)
        b = yield from dax.ephemeral.allocate(PMD, align=PMD)
        return a, b

    a, b = run(system, flow())
    assert a % PMD == 0 and b % PMD == 0
    assert a != b
    assert dax.ephemeral.contains(a)


def test_ephemeral_region_recycles_when_quiet(system):
    proc, dax = setup_dax(system)
    heap = dax.ephemeral
    heap.region_bytes = 4 * PMD  # tiny regions to force rollover
    inode = make_file(system, 32 << 10)

    def flow():
        vmas = []
        for _ in range(6):
            vma = yield from dax.mmap(
                inode, 0, 32 << 10, Protection.READ,
                MapFlags.SHARED | MapFlags.EPHEMERAL)
            vmas.append(vma)
        for vma in vmas:
            yield from dax.munmap(vma)

    run(system, flow())
    assert system.stats.get("daxvm.ephemeral_region_recycles") >= 1
    assert len(heap.vmas) == 0


def test_ephemeral_mappings_bypass_vma_tree(system):
    proc, dax = setup_dax(system)
    inode = make_file(system, 32 << 10)

    def flow():
        vma = yield from dax.mmap(
            inode, 0, 32 << 10, Protection.READ,
            MapFlags.SHARED | MapFlags.EPHEMERAL)
        return vma

    vma = run(system, flow())
    assert proc.mm.find_vma(vma.start) is None  # not in mm_rb
    assert vma.start in dax.ephemeral.vmas       # in the heap's table
    assert vma in inode.i_mmap                   # still FS-visible


def test_ephemeral_mmap_takes_sem_as_reader_only(system):
    proc, dax = setup_dax(system)
    inode = make_file(system, 32 << 10)

    def flow():
        vma = yield from dax.mmap(
            inode, 0, 32 << 10, Protection.READ,
            MapFlags.SHARED | MapFlags.EPHEMERAL | MapFlags.UNMAP_ASYNC)
        yield from dax.munmap(vma)

    run(system, flow())
    assert proc.mm.mmap_sem.write_acquisitions == 0
    assert proc.mm.mmap_sem.read_acquisitions >= 1


# ---------------------------------------------------------------------------
# Asynchronous unmapping.
# ---------------------------------------------------------------------------
def test_async_unmap_defers_until_batch_threshold(system):
    proc, dax = setup_dax(system)
    inode = make_file(system, 16 << 10)  # 4 pages

    def flow():
        for i in range(12):  # 48 zombie pages total; threshold 33
            vma = yield from dax.mmap(
                inode, 0, 16 << 10, Protection.READ,
                MapFlags.SHARED | MapFlags.EPHEMERAL
                | MapFlags.UNMAP_ASYNC)
            yield from dax.munmap(vma)

    run(system, flow())
    assert system.stats.get("daxvm.unmaps_deferred") == 12
    assert system.stats.get("daxvm.zombie_reaps") == 1
    assert system.stats.get("tlb.full_flushes") == 1
    # Leftover zombies remain queued.
    assert dax.unmapper.pending_vmas > 0


def test_async_unmap_batch_level_is_configurable(system):
    proc, dax = setup_dax(system, batch_pages=512)
    inode = make_file(system, 16 << 10)

    def flow():
        for _ in range(12):
            vma = yield from dax.mmap(
                inode, 0, 16 << 10, Protection.READ,
                MapFlags.SHARED | MapFlags.EPHEMERAL
                | MapFlags.UNMAP_ASYNC)
            yield from dax.munmap(vma)

    run(system, flow())
    assert system.stats.get("daxvm.zombie_reaps") == 0


def test_zombie_addresses_not_recycled_before_reap(system):
    proc, dax = setup_dax(system, batch_pages=10_000)
    inode = make_file(system, 32 << 10)

    def flow():
        seen = set()
        for _ in range(5):
            vma = yield from dax.mmap(
                inode, 0, 32 << 10, Protection.READ,
                MapFlags.SHARED | MapFlags.EPHEMERAL
                | MapFlags.UNMAP_ASYNC)
            assert vma.start not in seen, "zombie vaddr reused!"
            seen.add(vma.start)
            yield from dax.munmap(vma)
        yield from dax.unmapper.reap()
        return seen

    run(system, flow())
    assert dax.unmapper.pending_vmas == 0


def test_fs_truncate_forces_synchronous_reap(system):
    proc, dax = setup_dax(system, batch_pages=10_000)
    inode = make_file(system, 64 << 10, path="/t")

    def flow():
        vma = yield from dax.mmap(
            inode, 0, 64 << 10, Protection.READ,
            MapFlags.SHARED | MapFlags.EPHEMERAL | MapFlags.UNMAP_ASYNC)
        yield from dax.munmap(vma)
        assert dax.unmapper.pending_vmas == 1
        f = yield from system.fs.open("/t")
        yield from system.fs.truncate(f, 0)

    run(system, flow())
    assert dax.unmapper.pending_vmas == 0
    assert system.stats.get("daxvm.forced_sync_unmaps") == 1


# ---------------------------------------------------------------------------
# Pre-zeroing.
# ---------------------------------------------------------------------------
def test_prezero_intercepts_frees_and_daemon_zeroes(system):
    proc, dax = setup_dax(system)
    dax.prezero.start(core=3)
    make_file(system, 1 << 20, path="/dead")
    free_before = system.device.free_blocks

    def flow():
        yield from system.fs.unlink("/dead")
        # Keep the simulation alive long enough for the kthread.
        from repro.sim.engine import Compute
        yield Compute(5e8)

    run(system, flow())
    assert system.stats.get("daxvm.blocks_prezeroed") >= 256
    assert dax.prezero.pending_blocks == 0
    # Blocks returned to the allocator *and* marked zeroed.
    assert system.device.free_blocks > free_before
    assert system.fs.zeroed.total >= 256


def test_prezeroed_allocation_skips_sync_zeroing(system):
    proc, dax = setup_dax(system)
    dax.prezero.prezero_all_free()

    def flow():
        f = yield from system.fs.open("/new", create=True)
        yield from system.fs.fallocate(f, 1 << 20)

    run(system, flow())
    assert system.stats.get("fs.blocks_zeroed_sync") == 0


def test_prezero_throttle_paces_the_daemon(system):
    proc, dax = setup_dax(system)
    dax.prezero.start(core=3)
    make_file(system, 8 << 20, path="/dead")

    def flow():
        yield from system.fs.unlink("/dead")
        from repro.sim.engine import Compute
        yield Compute(1e8)  # ~37 ms at 2.7 GHz; 64 MB/s => ~2.3 MB

    run(system, flow())
    zeroed_bytes = system.stats.get("daxvm.blocks_prezeroed") * 4096
    assert zeroed_bytes < 8 << 20  # the throttle kept it from finishing


def test_drain_now_helper(system):
    proc, dax = setup_dax(system)
    make_file(system, 1 << 20, path="/dead")

    def flow():
        yield from system.fs.unlink("/dead")

    run(system, flow())
    assert dax.prezero.pending_blocks > 0
    drained = dax.prezero.drain_now()
    assert drained >= 256
    assert dax.prezero.pending_blocks == 0


# ---------------------------------------------------------------------------
# MMU monitor.
# ---------------------------------------------------------------------------
def test_monitor_rule_thresholds(system):
    proc, dax = setup_dax(system)
    monitor = dax.monitor
    assert monitor.should_migrate(250.0, 0.10)
    assert not monitor.should_migrate(150.0, 0.10)   # walks cheap
    assert not monitor.should_migrate(250.0, 0.01)   # overhead low


def test_monitor_samples_windowed_deltas(system):
    proc, dax = setup_dax(system)
    system.stats.add("vm.walk_cycles", 10_000)
    system.stats.add("vm.tlb_misses", 20)
    system.engine.now = 50_000.0
    avg, overhead = dax.monitor.sample()
    assert avg == pytest.approx(500.0)
    assert overhead == pytest.approx(0.2)
    # Second sample sees only new activity.
    avg2, _ = dax.monitor.sample()
    assert avg2 == 0.0


def test_monitor_triggers_migration_and_repoints_mapping(system):
    proc, dax = setup_dax(system)
    inode = make_file(system, 1 << 20)
    system.fs.allow_huge = False

    def flow():
        vma = yield from dax.mmap(inode, 0, 1 << 20, Protection.READ,
                                  MapFlags.SHARED)
        assert vma.leaf_medium is Medium.PMEM
        # Fake an expensive-walk window.
        system.stats.add("vm.walk_cycles", 1e6)
        system.stats.add("vm.tlb_misses", 1e6 / 800)
        migrated = yield from dax.monitor_check([vma])
        return vma, migrated

    vma, migrated = run(system, flow())
    assert migrated
    assert vma.leaf_medium is Medium.DRAM
    assert inode.volatile_file_table is not None
    tr = proc.mm.scheme.translate(vma.user_addr)
    assert tr.level_media[-1] is Medium.DRAM
