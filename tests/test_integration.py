"""Integration tests: cross-module invariants and mini paper shapes.

These run small versions of the headline experiments and assert the
qualitative results the paper claims check at scale.
"""

import pytest

from repro.system import System
from repro.workloads import (
    ApacheConfig,
    DaxVMOptions,
    EphemeralConfig,
    Interface,
    ServerInterface,
    run_apache,
    run_ephemeral,
)


def eph(interface, threads=1, n=150, aged=True, opts=None):
    system = System(device_bytes=2 << 30, aged=aged)
    cfg = EphemeralConfig(file_size=32 << 10, num_files=n,
                          num_threads=threads, interface=interface,
                          daxvm=opts or DaxVMOptions.full())
    return run_ephemeral(system, cfg)


def test_small_file_problem_mmap_slower_than_read():
    """§III: mmap trails read for small read-once files."""
    read = eph(Interface.READ)
    mmap = eph(Interface.MMAP)
    assert mmap.mb_per_second < read.mb_per_second
    # ... but not catastrophically (the paper reports ~20-30%).
    assert mmap.mb_per_second > 0.5 * read.mb_per_second


def test_daxvm_reverses_the_small_file_trend():
    read = eph(Interface.READ)
    daxvm = eph(Interface.DAXVM)
    assert daxvm.mb_per_second > 1.1 * read.mb_per_second


def test_daxvm_takes_no_faults_where_mmap_takes_many():
    mmap = eph(Interface.MMAP, n=60)
    daxvm = eph(Interface.DAXVM, n=60)
    assert mmap.counters.get("vm.faults", 0) >= 60 * 8
    assert daxvm.counters.get("vm.faults", 0) == 0


def test_mmap_scalability_collapse_and_daxvm_scaling():
    """Fig. 1b in miniature: 8 threads."""
    mmap_1 = eph(Interface.MMAP, threads=1, n=240)
    mmap_8 = eph(Interface.MMAP, threads=8, n=240)
    dax_1 = eph(Interface.DAXVM, threads=1, n=240)
    dax_8 = eph(Interface.DAXVM, threads=8, n=240)
    mmap_scaling = mmap_8.ops_per_second / mmap_1.ops_per_second
    dax_scaling = dax_8.ops_per_second / dax_1.ops_per_second
    assert dax_scaling > 3.5        # scales
    assert mmap_scaling < dax_scaling / 2  # does not


def test_apache_daxvm_beats_mmap_by_large_factor():
    def serve(interface, opts=None):
        system = System(device_bytes=2 << 30, aged=True)
        cfg = ApacheConfig(num_pages=16, num_workers=8, requests=400,
                           interface=interface,
                           daxvm=opts or DaxVMOptions.full())
        return run_apache(system, cfg)

    mmap = serve(ServerInterface.MMAP)
    daxvm = serve(ServerInterface.DAXVM)
    assert daxvm.ops_per_second > 1.5 * mmap.ops_per_second


def test_whole_workload_determinism():
    a = eph(Interface.DAXVM, threads=4, n=100)
    b = eph(Interface.DAXVM, threads=4, n=100)
    assert a.cycles == b.cycles
    assert a.counters == b.counters


def test_stats_conservation_across_subsystems():
    """Faults recorded by the VM layer match the populated pages."""
    system = System(device_bytes=2 << 30)
    cfg = EphemeralConfig(file_size=32 << 10, num_files=30,
                          interface=Interface.MMAP)
    result = run_ephemeral(system, cfg)
    assert result.counters["vm.faults"] == \
        result.counters["vm.pte_faults"]
    assert result.counters["vm.mmap_calls"] == 30
    assert result.counters["vm.munmap_calls"] == 30


def test_fresh_image_uses_huge_pages_aged_mixes():
    def huge_share(aged):
        system = System(device_bytes=2 << 30, aged=aged)
        cfg = EphemeralConfig(file_size=4 << 20, num_files=12,
                              interface=Interface.MMAP)
        result = run_ephemeral(system, cfg)
        huge = result.counters.get("vm.huge_faults", 0)
        small = result.counters.get("vm.pte_faults", 0)
        return huge * 512 / (huge * 512 + small)

    assert huge_share(aged=False) == pytest.approx(1.0)
    assert 0.0 < huge_share(aged=True) < 0.95


def test_memory_is_reclaimed_after_workload():
    system = System(device_bytes=2 << 30)
    proc = system.new_process()
    dax = system.daxvm_for(proc)

    def flow():
        f = yield from system.fs.open("/x", create=True)
        yield from system.fs.write(f, 0, 1 << 20)
        vma = yield from dax.mmap(f.inode, 0, 1 << 20)
        yield from proc.mm.access(vma, vma.user_addr - vma.start, 1 << 20)
        yield from dax.munmap(vma)
        yield from system.fs.close(f)
        yield from system.fs.unlink("/x")

    system.spawn(flow(), core=0, process=proc)
    system.run()
    # Freed blocks sit with the pre-zero daemon until zeroed; drain it.
    dax.prezero.drain_now()
    # All data blocks and table metadata returned to the allocator...
    assert system.device.free_blocks == system.device.total_blocks
    # ...and the inode is gone from the namespace.
    assert "/x" not in system.vfs
