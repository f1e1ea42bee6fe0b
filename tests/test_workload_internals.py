"""Deeper workload-internals tests: apache request paths, syncbench
semantics, predis timeline mechanics, ephemeral opts labels."""

from repro.system import System
from repro.workloads import (
    ApacheConfig,
    DaxVMOptions,
    Interface,
    PRedisConfig,
    ServerInterface,
    SyncConfig,
    SyncDiscipline,
    run_apache,
    run_predis,
    run_sync,
)
from repro.workloads.common import Measurement, spread
from repro.workloads.ephemeral import EphemeralConfig, run_ephemeral
from repro.vm.vma import MapFlags


def small_system(**kw):
    return System(device_bytes=1 << 30, **kw)


# ---------------------------------------------------------------------------
# common helpers.
# ---------------------------------------------------------------------------
def test_spread_balances():
    assert spread(10, 3) == [4, 3, 3]
    assert sum(spread(17, 5)) == 17
    assert spread(2, 4) == [1, 1, 0, 0]


def test_daxvm_options_flags():
    full = DaxVMOptions.full()
    flags = full.flags()
    assert flags & MapFlags.EPHEMERAL
    assert flags & MapFlags.UNMAP_ASYNC
    assert not flags & MapFlags.SYNC  # read mapping: no MAP_SYNC
    wflags = full.flags(write=True)
    assert wflags & MapFlags.SYNC
    ns = DaxVMOptions(nosync=True).flags(write=True)
    assert ns & MapFlags.NO_MSYNC
    tables = DaxVMOptions.filetables_only().flags()
    assert not tables & MapFlags.EPHEMERAL
    assert not tables & MapFlags.UNMAP_ASYNC


def test_measurement_captures_deltas_only():
    system = small_system()
    system.stats.add("pre.existing", 100)
    measure = Measurement(system)
    measure.start()
    system.stats.add("pre.existing", 5)
    system.stats.add("new.counter", 7)
    result = measure.finish("x", operations=1)
    assert result.counters["pre.existing"] == 5
    assert result.counters["new.counter"] == 7


# ---------------------------------------------------------------------------
# Apache request paths.
# ---------------------------------------------------------------------------
def test_apache_read_copies_twice_mmap_once():
    def bytes_read(interface):
        system = small_system()
        cfg = ApacheConfig(num_pages=4, num_workers=1, requests=20,
                           interface=interface)
        result = run_apache(system, cfg)
        return result.counters

    read = bytes_read(ServerInterface.READ)
    mmap = bytes_read(ServerInterface.MMAP)
    # read() goes through the FS copy path; mmap through access().
    assert read.get("fs.read_bytes") == 20 * (32 << 10)
    assert "fs.read_bytes" not in mmap
    assert mmap.get("vm.access_bytes") == 20 * (32 << 10)


def test_apache_daxvm_batch_pages_plumbed():
    system = small_system()
    cfg = ApacheConfig(num_pages=4, num_workers=1, requests=30,
                       interface=ServerInterface.DAXVM,
                       daxvm=DaxVMOptions.full(), batch_pages=10_000)
    result = run_apache(system, cfg)
    # Huge batch: nothing reaped during the run.
    assert result.counters.get("daxvm.zombie_reaps", 0) == 0


def test_apache_mmap_async_uses_deferred_unmaps():
    system = small_system()
    cfg = ApacheConfig(num_pages=4, num_workers=2, requests=40,
                       interface=ServerInterface.MMAP_ASYNC)
    result = run_apache(system, cfg)
    assert result.counters.get("daxvm.unmaps_deferred", 0) == 40
    assert result.counters.get("daxvm.zombie_reaps", 0) >= 1


# ---------------------------------------------------------------------------
# Sync bench semantics.
# ---------------------------------------------------------------------------
def test_sync_write_fsync_counts_commits():
    system = small_system()
    cfg = SyncConfig(file_size=8 << 20, op_size=1024, ops_per_sync=4,
                     num_syncs=10, discipline=SyncDiscipline.WRITE_FSYNC)
    result = run_sync(system, cfg)
    assert result.counters.get("fs.fsync_calls") == 10
    assert result.counters.get("journal.sync_commits") == 10


def test_sync_daxvm_flushes_whole_granules():
    system = small_system()
    cfg = SyncConfig(file_size=8 << 20, op_size=1024, ops_per_sync=4,
                     num_syncs=5, discipline=SyncDiscipline.DAXVM_FSYNC)
    result = run_sync(system, cfg)
    # 2 MB dirty granules: way fewer dirty tags than 4 KB tracking.
    assert result.counters.get("vm.dirty_faults", 0) <= 5
    assert result.counters.get("vm.msync_calls") == 5


# ---------------------------------------------------------------------------
# P-Redis mechanics.
# ---------------------------------------------------------------------------
def test_predis_daxvm_converges_via_monitor():
    system = System(device_bytes=2 << 30, aged=True)
    cfg = PRedisConfig(cache_size=256 << 20, num_gets=20_000,
                       window=2_000, interface=Interface.DAXVM)
    result = run_predis(system, cfg)
    assert result.run.counters.get("daxvm.table_migrations", 0) >= 1
    first = result.timeline.points[0][1]
    last = result.timeline.points[-1][1]
    assert last > first  # migration lifted steady-state throughput


def test_predis_counts_every_get():
    system = small_system()
    cfg = PRedisConfig(cache_size=64 << 20, index_size=4 << 20,
                       num_gets=3000, window=1000,
                       interface=Interface.MMAP)
    result = run_predis(system, cfg)
    assert result.run.operations == 3000
    assert result.run.bytes_processed == 3000 * cfg.value_size


# ---------------------------------------------------------------------------
# Ephemeral labels.
# ---------------------------------------------------------------------------
def test_ephemeral_run_labels_reflect_options():
    system = small_system()
    cfg = EphemeralConfig(file_size=16 << 10, num_files=10,
                          interface=Interface.DAXVM,
                          daxvm=DaxVMOptions.filetables_only())
    result = run_ephemeral(system, cfg)
    assert result.label == "daxvm[tables]"
    cfg2 = EphemeralConfig(file_size=16 << 10, num_files=10,
                           interface=Interface.DAXVM,
                           daxvm=DaxVMOptions(nosync=True))
    result2 = run_ephemeral(system, cfg2)
    assert "eph" in result2.label and "nosync" in result2.label
