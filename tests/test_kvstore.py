"""Pmem-RocksDB-like KV store unit tests."""

import math
import random
from types import SimpleNamespace

import pytest

from repro.config import MEDIA_PRESETS
from repro.mem.physmem import Medium
from repro.obs import CostDomain
from repro.system import System
from repro.workloads.common import DaxVMOptions, Interface
from repro.workloads.kvstore import KVConfig, PmemKVStore
from repro.workloads import ycsb
from repro.workloads.ycsb import (OPS, WORKLOAD_MIXES, YCSBConfig,
                                  _op_stream)


def make_store(interface=Interface.MMAP, **kv_kwargs):
    system = System(device_bytes=2 << 30)
    process = system.new_process()
    if interface is Interface.DAXVM:
        system.daxvm_for(process)
    cfg = KVConfig(interface=interface, memtable_limit=256 << 10,
                   wal_size=256 << 10, sstable_size=256 << 10,
                   **kv_kwargs)
    store = PmemKVStore(system, process, cfg)
    return system, store


def drive(system, gen):
    thread = system.spawn(gen, core=0)
    system.run()
    return thread.result


def test_put_appends_to_wal_and_memtable():
    system, store = make_store()

    def flow():
        yield from store.start()
        for _ in range(10):
            yield from store.put()

    drive(system, flow())
    assert store.record_count == 10
    assert store.wal_offset == 10 * 4096
    assert store.memtable_bytes == 10 * 4096
    assert store.flushes == 0


def test_memtable_flush_creates_mapped_sstable():
    system, store = make_store()

    def flow():
        yield from store.start()
        for _ in range(64):  # 256 KB memtable limit / 4 KB records
            yield from store.put()

    drive(system, flow())
    assert store.flushes == 1
    assert len(store.sstables) == 1
    assert store.memtable_bytes == 0
    _f, vma = store.sstables[0]
    assert vma.inode.block_count == 64


def test_wal_rolls_and_recycles():
    system, store = make_store()

    def flow():
        yield from store.start()
        for _ in range(200):  # > 3 WAL generations
            yield from store.put()

    drive(system, flow())
    assert store.wal_rolls >= 2
    # Recycling: far fewer files created than WAL generations+1 would
    # suggest without the pool... the pool holds returned files.
    assert store._wal_pool or store.wal_rolls >= 2


def test_wal_recycling_avoids_new_allocation():
    system, store = make_store()
    blocks_per_wal = store.cfg.wal_size // 4096

    def flow():
        yield from store.start()
        for _ in range(200):
            yield from store.put()

    drive(system, flow())
    # WAL blocks allocated only for the distinct WAL files, not per
    # generation.
    wal_files = {f.inode.path for f in store._wal_pool}
    if store.wal is not None:
        wal_files.add(store.wal[0].inode.path)
    wal_blocks = system.stats.get("fs.blocks_allocated")
    # Sanity: total allocations bounded (recycling caps WAL growth).
    assert wal_blocks < 10 * blocks_per_wal + store.flushes * 64 + 64


def test_get_reads_from_sstable_or_memtable():
    system, store = make_store()

    def flow():
        yield from store.start()
        for _ in range(100):
            yield from store.put()
        before = system.stats.get("vm.access_bytes")
        for _ in range(50):
            yield from store.get()
        return before

    before = drive(system, flow())
    assert system.stats.get("vm.access_bytes") > before


def test_scan_touches_multiple_records():
    system, store = make_store()

    def flow():
        yield from store.start()
        for _ in range(100):
            yield from store.put()
        before = system.stats.get("vm.access_bytes")
        yield from store.scan(records=8)
        return system.stats.get("vm.access_bytes") - before

    delta = drive(system, flow())
    assert delta >= 8 * 4096


def test_mapsync_commits_under_mmap_but_not_nosync_daxvm():
    def commits(interface, opts=None):
        system = System(device_bytes=2 << 30)
        process = system.new_process()
        if interface is Interface.DAXVM:
            system.daxvm_for(process)
        kv = KVConfig(interface=interface, memtable_limit=256 << 10,
                      wal_size=256 << 10, sstable_size=256 << 10)
        if opts:
            kv.daxvm = opts
        store = PmemKVStore(system, process, kv)

        def flow():
            yield from store.start()
            for _ in range(64):
                yield from store.put()

        drive(system, flow())
        return system.stats.get("journal.sync_commits")

    assert commits(Interface.MMAP) > 0
    assert commits(Interface.DAXVM,
                   DaxVMOptions(ephemeral=False, unmap_async=False,
                                nosync=True)) == 0


# ---------------------------------------------------------------------------
# YCSB mixes.
# ---------------------------------------------------------------------------
def test_mixes_sum_to_one():
    for name, mix in WORKLOAD_MIXES.items():
        assert sum(mix) == pytest.approx(1.0), name


def test_op_stream_follows_mix():
    cfg = YCSBConfig(workload="run_b", num_ops=4000)
    ops = [OPS[op] for op in _op_stream(cfg)]
    assert len(ops) == 4000
    reads = ops.count("read")
    assert 0.9 < reads / 4000 / 0.95 < 1.1


def _running_sum_choice(mix, x):
    """The chooser's reference: the running-sum loop it replaced."""
    acc = 0.0
    for name, frac in zip(("read", "update", "insert", "scan", "rmw"),
                          mix):
        acc += frac
        if x < acc:
            return name
    return "read"


#: Every shipped mix, plus one that sums below 1.0 (a draw past its
#: last bound is a read).
_CHOOSER_MIXES = sorted(WORKLOAD_MIXES) + ["short"]


def _with_short_mix(monkeypatch):
    monkeypatch.setitem(WORKLOAD_MIXES, "short",
                        (0.1, 0.2, 0.0, 0.3, 0.1))


@pytest.mark.parametrize("name", _CHOOSER_MIXES)
def test_op_chooser_matches_running_sum_at_bounds(name, monkeypatch):
    """Draws of 0.0, each running-sum bound and the float just below
    it pick what the running-sum loop picks."""
    _with_short_mix(monkeypatch)
    mix = WORKLOAD_MIXES[name]
    draws, acc = [0.0], 0.0
    for frac in mix:
        acc += frac
        draws += [acc, math.nextafter(acc, 0.0)]
    feed = iter(draws)
    monkeypatch.setattr(ycsb, "random", SimpleNamespace(
        Random=lambda seed: SimpleNamespace(random=feed.__next__)))
    cfg = YCSBConfig(workload=name, num_ops=len(draws))
    assert [OPS[op] for op in _op_stream(cfg)] == \
        [_running_sum_choice(mix, x) for x in draws]


@pytest.mark.parametrize("name", _CHOOSER_MIXES)
def test_op_stream_matches_running_sum_at_seed_11(name, monkeypatch):
    _with_short_mix(monkeypatch)
    mix = WORKLOAD_MIXES[name]
    rng = random.Random(11)
    cfg = YCSBConfig(workload=name, num_ops=10_000, seed=11)
    assert [OPS[op] for op in _op_stream(cfg)] == \
        [_running_sum_choice(mix, rng.random()) for _ in range(10_000)]


def test_op_stream_deterministic_by_seed():
    a = list(_op_stream(YCSBConfig(workload="run_a", num_ops=500)))
    b = list(_op_stream(YCSBConfig(workload="run_a", num_ops=500)))
    c = list(_op_stream(YCSBConfig(workload="run_a", num_ops=500,
                                   seed=99)))
    assert a == b
    assert a != c


@pytest.mark.parametrize("preset", sorted(MEDIA_PRESETS))
@pytest.mark.parametrize("record_size", [1 << 10, 4 << 10])
def test_memtable_insert_charge_is_the_per_put_price(preset, record_size):
    """The store prices its memtable insert once; under every media
    preset that one charge is exactly what each put used to price."""
    system = System(costs=MEDIA_PRESETS[preset](), device_bytes=1 << 30)
    store = PmemKVStore(system, system.new_process(),
                        KVConfig(record_size=record_size))
    insert = store._memtable_insert
    assert insert.domain is CostDomain.USERSPACE
    assert insert.event == "memtable-insert"
    assert insert.cycles == 900.0 + system.mem.memcpy(
        record_size, Medium.DRAM, Medium.DRAM)
