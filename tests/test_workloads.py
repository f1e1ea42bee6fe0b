"""Workload smoke/semantics tests (small scales; shapes live in
repro.analysis.claims)."""

import pytest

from repro.paging.tlb import AccessPattern
from repro.system import System
from repro.workloads import (
    ApacheConfig,
    AppendConfig,
    AppendVariant,
    DaxVMOptions,
    EphemeralConfig,
    Interface,
    KVConfig,
    PRedisConfig,
    RepetitiveConfig,
    ServerInterface,
    SyncConfig,
    SyncDiscipline,
    TextSearchConfig,
    YCSBConfig,
    create_file_set,
    linux_tree_sizes,
    run_apache,
    run_append,
    run_ephemeral,
    run_predis,
    run_repetitive,
    run_sync,
    run_textsearch,
    run_ycsb,
)


def small_system(aged=False, fs_type="ext4"):
    return System(device_bytes=1 << 30, aged=aged, fs_type=fs_type)


# ---------------------------------------------------------------------------
# filegen.
# ---------------------------------------------------------------------------
def test_create_file_set_builds_real_files():
    system = small_system()
    inodes = create_file_set(system, 10, 32 << 10)
    assert len(inodes) == 10
    assert all(i.size == 32 << 10 for i in inodes)
    assert all(i.block_count == 8 for i in inodes)


def test_linux_tree_sizes_scaled():
    sizes = linux_tree_sizes(500, total_bytes=32 << 20)
    assert sum(sizes) == pytest.approx(32 << 20, rel=0.1)
    assert max(sizes) > 20 * (sum(sizes) / len(sizes))  # heavy tail


# ---------------------------------------------------------------------------
# Ephemeral / repetitive microbenchmarks.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("interface", list(Interface))
def test_ephemeral_all_interfaces_run(interface):
    system = small_system()
    cfg = EphemeralConfig(file_size=16 << 10, num_files=20,
                          interface=interface)
    result = run_ephemeral(system, cfg)
    assert result.operations == 20
    assert result.cycles > 0
    assert result.mb_per_second > 0


def test_ephemeral_multithreaded_completes_all_files():
    system = small_system()
    cfg = EphemeralConfig(file_size=16 << 10, num_files=23,
                          num_threads=4, interface=Interface.READ)
    result = run_ephemeral(system, cfg)
    assert result.counters.get("vfs.cold_opens") == 23


@pytest.mark.parametrize("interface", [Interface.READ, Interface.MMAP,
                                       Interface.DAXVM])
def test_repetitive_runs(interface):
    system = small_system()
    cfg = RepetitiveConfig(file_size=8 << 20, op_size=4096, num_ops=500,
                           interface=interface,
                           pattern=AccessPattern.RANDOM)
    result = run_repetitive(system, cfg)
    assert result.operations == 500


def test_repetitive_write_tracks_dirty_pages():
    system = small_system()
    cfg = RepetitiveConfig(file_size=4 << 20, op_size=4096, num_ops=200,
                           interface=Interface.MMAP, write=True)
    result = run_repetitive(system, cfg)
    assert result.counters.get("vm.dirty_faults", 0) > 0


# ---------------------------------------------------------------------------
# Sync / append.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("discipline", list(SyncDiscipline))
def test_sync_disciplines_run(discipline):
    system = small_system()
    cfg = SyncConfig(file_size=16 << 20, op_size=1024, ops_per_sync=8,
                     num_syncs=10, discipline=discipline)
    result = run_sync(system, cfg)
    assert result.operations == 80


def test_daxvm_nosync_discipline_msyncs_are_noops():
    system = small_system()
    cfg = SyncConfig(file_size=16 << 20, op_size=1024, ops_per_sync=8,
                     num_syncs=5, discipline=SyncDiscipline.DAXVM_NOSYNC)
    result = run_sync(system, cfg)
    assert result.counters.get("vm.msync_noop") == 5
    assert "vm.msync_calls" not in result.counters


@pytest.mark.parametrize("variant", list(AppendVariant))
def test_append_variants_run(variant):
    system = small_system()
    cfg = AppendConfig(append_size=64 << 10, num_appends=5,
                       variant=variant)
    result = run_append(system, cfg)
    assert result.operations == 5


def test_append_prezero_removes_zeroing():
    base = run_append(small_system(),
                      AppendConfig(append_size=256 << 10, num_appends=5,
                                   variant=AppendVariant.DAXVM))
    prez = run_append(small_system(),
                      AppendConfig(append_size=256 << 10, num_appends=5,
                                   variant=AppendVariant.DAXVM_PREZERO))
    assert base.counters.get("fs.blocks_zeroed_sync", 0) > 0
    assert prez.counters.get("fs.blocks_zeroed_sync", 0) == 0
    assert prez.ops_per_second > base.ops_per_second


# ---------------------------------------------------------------------------
# Applications.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("interface", list(ServerInterface))
def test_apache_interfaces_run(interface):
    system = small_system()
    cfg = ApacheConfig(num_pages=8, num_workers=2, requests=40,
                       interface=interface)
    result = run_apache(system, cfg)
    assert result.operations == 40


def test_apache_multiprocess_uses_separate_address_spaces():
    system = small_system()
    cfg = ApacheConfig(num_pages=8, num_workers=3, requests=30,
                       interface=ServerInterface.MMAP, multiprocess=True)
    result = run_apache(system, cfg)
    assert result.operations == 30
    assert result.counters.get("vm.mmap_calls") == 30


def test_textsearch_runs_and_covers_all_files():
    system = small_system()
    cfg = TextSearchConfig(num_files=40, total_bytes=4 << 20,
                           num_threads=3, interface=Interface.DAXVM)
    result = run_textsearch(system, cfg)
    assert result.operations >= 40


def test_predis_timeline_and_boot():
    system = small_system()
    cfg = PRedisConfig(cache_size=64 << 20, index_size=4 << 20,
                       num_gets=4000, window=1000,
                       interface=Interface.MMAP_POPULATE)
    result = run_predis(system, cfg)
    assert result.boot_seconds > 0  # populate pays at boot
    assert len(result.timeline.points) == 4
    assert all(v > 0 for _t, v in result.timeline.points)


def test_predis_lazy_ramp_up():
    system = small_system()
    cfg = PRedisConfig(cache_size=64 << 20, index_size=4 << 20,
                       num_gets=6000, window=1000,
                       interface=Interface.MMAP)
    result = run_predis(system, cfg)
    first = result.timeline.points[0][1]
    last = result.timeline.points[-1][1]
    assert last > first  # warm-up: throughput climbs


# ---------------------------------------------------------------------------
# KV store / YCSB.
# ---------------------------------------------------------------------------
def test_kvstore_flushes_and_rolls():
    system = small_system()
    cfg = YCSBConfig(workload="load_a", num_ops=3000, preload_records=0,
                     kv=KVConfig(memtable_limit=1 << 20,
                                 wal_size=1 << 20,
                                 sstable_size=1 << 20))
    result = run_ycsb(system, cfg)
    assert result.operations == 3000


def test_ycsb_unknown_workload_rejected():
    with pytest.raises(ValueError):
        run_ycsb(small_system(), YCSBConfig(workload="run_z"))


@pytest.mark.parametrize("workload", ["run_a", "run_c", "run_e", "run_f"])
def test_ycsb_run_phases(workload):
    system = small_system()
    cfg = YCSBConfig(workload=workload, num_ops=800, preload_records=800,
                     kv=KVConfig(memtable_limit=1 << 20,
                                 wal_size=1 << 20,
                                 sstable_size=1 << 20))
    result = run_ycsb(system, cfg)
    assert result.operations == 800
    assert result.ops_per_second > 0


def test_ycsb_daxvm_takes_fewer_sync_commits_than_mmap():
    def commits(iface, opts=None):
        system = System(device_bytes=2 << 30, aged=True)
        kv = KVConfig(interface=iface, memtable_limit=1 << 20,
                      wal_size=1 << 20, sstable_size=1 << 20)
        if opts:
            kv.daxvm = opts
        cfg = YCSBConfig(workload="load_a", num_ops=2000,
                         preload_records=0, kv=kv)
        result = run_ycsb(system, cfg)
        return result.counters.get("journal.sync_commits", 0)

    mmap_commits = commits(Interface.MMAP)
    dax_commits = commits(Interface.DAXVM,
                          DaxVMOptions(ephemeral=False,
                                       unmap_async=False))
    assert mmap_commits > dax_commits * 4  # "10x less" in the paper


# ---------------------------------------------------------------------------
# Run names come from the machine.
# ---------------------------------------------------------------------------
#: One small run of every driver that names its files, processes or
#: store, and a name its first run on a fresh machine must use.
_NAMED_RUNS = {
    "ephemeral": (lambda s: run_ephemeral(s, EphemeralConfig(
        file_size=16 << 10, num_files=12, num_threads=2,
        interface=Interface.MMAP)), "eph0.mmap_sem"),
    "repetitive": (lambda s: run_repetitive(s, RepetitiveConfig(
        file_size=4 << 20, num_ops=50, interface=Interface.DAXVM)),
        "rep0.mmap_sem"),
    "textsearch": (lambda s: run_textsearch(s, TextSearchConfig(
        num_files=12, total_bytes=1 << 20, num_threads=2,
        interface=Interface.MMAP_POPULATE)), "ag0.mmap_sem"),
    "predis": (lambda s: run_predis(s, PRedisConfig(
        cache_size=8 << 20, index_size=1 << 20, num_gets=200,
        window=100, interface=Interface.DAXVM)).run, "predis0.mmap_sem"),
    "apache": (lambda s: run_apache(s, ApacheConfig(
        num_pages=4, num_workers=2, requests=8,
        interface=ServerInterface.MMAP)), "apache0.mmap_sem"),
    "sync": (lambda s: run_sync(s, SyncConfig(
        file_size=4 << 20, ops_per_sync=4, num_syncs=3,
        discipline=SyncDiscipline.MMAP_FSYNC)), "sync0.mmap_sem"),
    "append": (lambda s: run_append(s, AppendConfig(
        append_size=64 << 10, num_appends=2,
        variant=AppendVariant.DAXVM)), "/app0/f0"),
    "kvstore": (lambda s: run_ycsb(s, YCSBConfig(
        workload="load_a", num_ops=300, preload_records=0,
        kv=KVConfig(interface=Interface.DAXVM, memtable_limit=1 << 20,
                    wal_size=1 << 20, sstable_size=1 << 20))),
        "/kv0/wal00001"),
}


def _named_state(run):
    """A fresh machine's result state, lock reports and file names."""
    from repro.runner.manifest import result_state

    system = small_system()
    result = run(system)
    locks = [lock.report() for lock in system.engine.locks
             if lock.acquisitions]
    state = result_state(result, system.stats, system.ledger, locks, 0.0)
    names = {lock["name"] for lock in locks} | set(system.vfs.paths())
    return state, names


@pytest.mark.parametrize("driver", sorted(_NAMED_RUNS))
def test_fresh_machines_name_their_runs_alike(driver):
    """Two fresh machines in one process run the same workload to the
    same state, lock and file names included, with nothing reset in
    between: a machine names its runs from 0 on its own."""
    run, first_name = _NAMED_RUNS[driver]
    state1, names1 = _named_state(run)
    state2, names2 = _named_state(run)
    assert first_name in names1
    assert names1 == names2
    assert state1 == state2


def test_a_machine_numbers_each_kind_of_run_on_its_own():
    system = small_system()
    assert [system.run_id("eph"), system.run_id("eph"),
            system.run_id("kv")] == [0, 1, 0]
    assert [system.new_process().name, system.new_process("x").name,
            system.new_process().name] == ["proc1", "x", "proc3"]
