"""Edge cases: pre-zero daemon details, ephemeral heap exhaustion,
async-unmap interaction corners."""

import pytest

from repro.core.prezero import PreZeroDaemon
from repro.errors import AddressSpaceError
from repro.sim.engine import Compute
from repro.vm.vma import MapFlags, Protection


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


def test_prezero_per_core_lists_follow_freeing_core(system):
    proc = system.new_process()
    dax = system.daxvm_for(proc)
    make_file(system, 256 << 10, path="/a")
    make_file(system, 256 << 10, path="/b")

    def unlink(path):
        yield from system.fs.unlink(path)

    run(system, unlink("/a"), core=2)
    run(system, unlink("/b"), core=5)
    assert dax.prezero._lists[2]
    assert dax.prezero._lists[5]
    assert dax.prezero.pending_blocks > 0


def test_prezero_interference_resets_when_idle(system):
    proc = system.new_process()
    dax = system.daxvm_for(proc)
    dax.prezero.start(core=3)
    make_file(system, 256 << 10, path="/dead")

    def flow():
        yield from system.fs.unlink("/dead")
        yield Compute(3e8)

    run(system, flow())
    assert dax.prezero.pending_blocks == 0
    assert system.mem.interference_for(0) == 1.0


def test_prezero_idle_tick_does_not_clobber_other_streams(system):
    """Regression: the daemon's idle path used to reset node 0's
    interference to 1.0 outright, erasing penalties owned by *other*
    background streams.  Idle must release only the daemon's claim."""
    daemon = PreZeroDaemon(system.engine, system.fs, system.costs,
                           system.mem, system.stats)
    system.mem.enter_interference(1.5)  # someone else's stream
    gen = daemon._run()
    next(gen)  # one idle tick
    assert system.mem.interference_for(0) == 1.5
    system.mem.exit_interference(1.5)
    assert system.mem.interference_for(0) == 1.0


def test_prezero_interference_brackets_zeroing(system):
    daemon = PreZeroDaemon(system.engine, system.fs, system.costs,
                           system.mem, system.stats)
    runs = system.fs.device.alloc(4)
    daemon.intercept(runs)
    gen = daemon._run()
    next(gen)  # zeroing in flight: the media penalty is active
    assert system.mem.interference_for(0) == \
        PreZeroDaemon.MEDIA_INTERFERENCE
    next(gen)  # queue drained -> claim released before idling
    assert system.mem.interference_for(0) == 1.0


def test_prezero_all_free_marks_whole_free_list(system):
    proc = system.new_process()
    dax = system.daxvm_for(proc)
    dax.prezero.prezero_all_free()
    assert system.fs.zeroed.total == system.device.free_blocks


def test_ephemeral_rejects_unaligned_sizes(system):
    proc = system.new_process()
    dax = system.daxvm_for(proc)

    def flow():
        yield from dax.ephemeral.allocate(1000)

    with pytest.raises(AddressSpaceError):
        run(system, flow())


def test_ephemeral_heap_grows_new_regions(system):
    proc = system.new_process()
    dax = system.daxvm_for(proc)
    dax.ephemeral.region_bytes = 8 << 20  # tiny regions

    def flow():
        addrs = []
        for _ in range(10):  # 10 x 2 MB > one 8 MB region
            addrs.append((yield from dax.ephemeral.allocate(2 << 20)))
        return addrs

    addrs = run(system, flow())
    assert len(set(addrs)) == 10
    assert len(dax.ephemeral._regions) >= 2


def test_async_unmap_reap_noop_when_empty(system):
    proc = system.new_process()
    dax = system.daxvm_for(proc)

    def flow():
        yield from dax.unmapper.reap()
        yield Compute(1)

    run(system, flow())
    assert system.stats.get("daxvm.zombie_reaps") == 0


def test_async_unmap_mixed_ephemeral_and_regular_zombies(system):
    proc = system.new_process()
    dax = system.daxvm_for(proc, batch_pages=10_000)
    inode = make_file(system, 64 << 10)

    def flow():
        e = yield from dax.mmap(inode, 0, 64 << 10, Protection.READ,
                                MapFlags.SHARED | MapFlags.EPHEMERAL
                                | MapFlags.UNMAP_ASYNC)
        r = yield from dax.mmap(inode, 0, 64 << 10, Protection.READ,
                                MapFlags.SHARED | MapFlags.UNMAP_ASYNC)
        yield from dax.munmap(e)
        yield from dax.munmap(r)
        assert dax.unmapper.pending_vmas == 2
        yield from dax.unmapper.reap()
        return e, r

    e, r = run(system, flow())
    assert dax.unmapper.pending_vmas == 0
    assert not e.zombie and not r.zombie
    # Both address kinds were released to their own allocators.
    assert e.start not in dax.ephemeral.vmas
    assert proc.mm.find_vma(r.start) is None


def test_zombie_mapping_still_translates_until_reap(system):
    """§IV-G: with MAP_UNMAP_ASYNC, accesses after munmap may not trap
    for a window — translations stay live until the batched reap."""
    proc = system.new_process()
    dax = system.daxvm_for(proc, batch_pages=10_000)
    inode = make_file(system, 64 << 10)

    def flow():
        vma = yield from dax.mmap(inode, 0, 64 << 10, Protection.READ,
                                  MapFlags.SHARED | MapFlags.EPHEMERAL
                                  | MapFlags.UNMAP_ASYNC)
        yield from dax.munmap(vma)
        return vma

    vma = run(system, flow())
    assert vma.zombie
    # The data is still reachable (the paper's vulnerability window).
    tr = proc.mm.scheme.translate(vma.user_addr)
    assert tr.frame == system.device.frame_of(
        inode.extents.physical_block(0))
