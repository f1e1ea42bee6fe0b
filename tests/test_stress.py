"""Stress/concurrency integration tests: mixed workloads, many
processes, cross-FS invariants."""

import pytest

from repro.mem.physmem import Medium
from repro.paging.tlb import AccessPattern
from repro.system import System
from repro.vm.vma import MapFlags, Protection


def test_sixteen_processes_mixed_interfaces_complete():
    """8 mmap processes + 8 DaxVM processes hammer the same file set
    concurrently; everything completes and block accounting balances."""
    system = System(device_bytes=2 << 30, aged=True)

    def setup():
        inodes = []
        for i in range(8):
            f = yield from system.fs.open(f"/shared{i}", create=True)
            yield from system.fs.write(f, 0, 64 << 10)
            yield from system.fs.close(f)
            inodes.append(f.inode)
        return inodes

    thread = system.spawn(setup(), core=0)
    system.run()
    inodes = thread.result
    done = []

    def mmap_worker(proc, wid):
        for i in range(20):
            inode = inodes[(wid + i) % len(inodes)]
            vma = yield from proc.mm.mmap(
                system.fs, inode, 0, 64 << 10, Protection.READ,
                MapFlags.SHARED)
            yield from proc.mm.access(vma, 0, 64 << 10)
            yield from proc.mm.munmap(vma)
        done.append(wid)

    def dax_worker(proc, dax, wid):
        for i in range(20):
            inode = inodes[(wid + i) % len(inodes)]
            vma = yield from dax.mmap(
                inode, 0, 64 << 10, Protection.READ,
                MapFlags.SHARED | MapFlags.EPHEMERAL
                | MapFlags.UNMAP_ASYNC)
            yield from proc.mm.access(vma, vma.user_addr - vma.start,
                                      64 << 10)
            yield from dax.munmap(vma)
        done.append(wid)

    for w in range(8):
        proc = system.new_process(f"m{w}")
        system.spawn(mmap_worker(proc, w), core=w, process=proc)
    for w in range(8, 16):
        proc = system.new_process(f"d{w}")
        dax = system.daxvm_for(proc)
        system.spawn(dax_worker(proc, dax, w), core=w, process=proc)
    system.run()
    assert sorted(done) == list(range(16))
    # Every translation shares the same physical frames across all 16
    # address spaces (no corruption of the shared file tables).
    for inode in inodes:
        frame = system.device.frame_of(inode.extents.physical_block(0))
        assert frame >= system.physmem.region(Medium.PMEM).base_frame


def test_concurrent_appends_and_truncates_conserve_blocks():
    system = System(device_bytes=2 << 30)
    proc = system.new_process()
    dax = system.daxvm_for(proc)
    total = system.device.total_blocks

    def churn(wid):
        for i in range(15):
            path = f"/churn{wid}_{i}"
            f = yield from system.fs.open(path, create=True)
            yield from system.fs.write(f, 0, (1 + (i % 4)) << 16)
            if i % 2:
                yield from system.fs.truncate(f, 4096)
            yield from system.fs.close(f)
            if i % 3 == 2:
                yield from system.fs.unlink(path)

    for w in range(8):
        system.spawn(churn(w), core=w, process=proc)
    system.run()
    dax.prezero.drain_now()
    live = sum(system.vfs.lookup(p).block_count
               for p in system.vfs.paths())
    table_blocks = sum(
        (system.vfs.lookup(p).persistent_file_table.storage_bytes // 4096)
        for p in system.vfs.paths()
        if system.vfs.lookup(p).persistent_file_table is not None)
    assert system.device.free_blocks + live + table_blocks == total


def test_repetitive_concurrent_with_ephemeral_storm():
    """A database-style reader shares the machine with an mmap storm;
    both finish and the reader's faults are unaffected in count."""
    system = System(device_bytes=2 << 30, aged=True)
    db = system.new_process("db")
    web = system.new_process("web")

    def setup():
        f = yield from system.fs.open("/db", create=True)
        yield from system.fs.write(f, 0, 32 << 20)
        for i in range(8):
            g = yield from system.fs.open(f"/page{i}", create=True)
            yield from system.fs.write(g, 0, 32 << 10)
        return f.inode

    thread = system.spawn(setup(), core=0)
    system.run()
    db_inode = thread.result

    def reader():
        vma = yield from db.mm.mmap(system.fs, db_inode, 0, 32 << 20,
                                    Protection.READ, MapFlags.SHARED)
        for i in range(2000):
            offset = (i * 37 % 8192) * 4096
            yield from db.mm.access(vma, offset, 4096,
                                    pattern=AccessPattern.RANDOM,
                                    copy=True)

    def storm():
        for i in range(200):
            f = yield from system.fs.open(f"/page{i % 8}")
            vma = yield from web.mm.mmap(system.fs, f.inode, 0, 32 << 10,
                                         Protection.READ, MapFlags.SHARED)
            yield from web.mm.access(vma, 0, 32 << 10)
            yield from web.mm.munmap(vma)
            yield from system.fs.close(f)

    system.spawn(reader(), core=0, process=db)
    system.spawn(storm(), core=1, process=web)
    system.run()
    # Separate mm's: the storm's shootdowns target only its own cores.
    assert system.stats.get("vm.faults") > 0


@pytest.mark.parametrize("fs_type", ["ext4", "nova", "xfs"])
def test_cross_fs_invariants(fs_type):
    """Every FS honours the same accounting contract."""
    system = System(device_bytes=1 << 30, fs_type=fs_type)
    proc = system.new_process()
    dax = system.daxvm_for(proc)
    before = system.device.free_blocks

    def flow():
        f = yield from system.fs.open("/x", create=True)
        yield from system.fs.write(f, 0, 1 << 20)
        vma = yield from dax.mmap(f.inode, 0, 1 << 20, Protection.rw(),
                                  MapFlags.SHARED | MapFlags.SYNC)
        yield from proc.mm.access(vma, vma.user_addr - vma.start,
                                  1 << 20, write=True)
        yield from dax.munmap(vma)
        yield from system.fs.close(f)
        yield from system.fs.unlink("/x")

    system.spawn(flow(), core=0, process=proc)
    system.run()
    dax.prezero.drain_now()
    assert system.device.free_blocks == before
    assert system.device.check_invariants() is None
