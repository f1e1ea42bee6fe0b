"""The pluggable tier model and the hot/cold tiering daemon.

Covers the PR-8 satellites end to end:

* exhaustive spec dispatch — pricing an unknown medium is a loud
  :class:`~repro.errors.InvalidArgumentError`, never a silent PMem
  fallback (the old ``else:`` branch);
* range-scheme TLB coalescing — one TLB entry per contiguous run, so
  clean images walk once per access window while aged images pay per
  fragment;
* :class:`~repro.topology.InterleaveMap` stripe-granule validation;
* a point's tier overlay, daemon knobs and node kinds building the
  same machine after the pool boundary, and sequential-vs-parallel
  determinism of daemon-enabled sweep points;
* the daemon's promote / clean-demote / dirty-writeback / budget
  behaviours against a live :class:`~repro.system.System`.
"""

import json

import pytest

from repro.config import DEFAULT_COSTS
from repro.errors import InvalidArgumentError
from repro.mem.latency import MemoryModel
from repro.mem.physmem import Medium, PhysicalMemory
from repro.mem.tiers import medium_specs
from repro.obs import CostDomain, Counter
from repro.paging.flags import PageFlags
from repro.paging.pagetable import PAGE_SIZE
from repro.paging.schemes import make_scheme
from repro.runner import run_sweep
from repro.runner.manifest import Sweep, SweepPoint
from repro.runner.worker import build_system
from repro.runner.sweeps import build_sweep
from repro.system import System
from repro.tiering import (
    GRANULE_BYTES,
    GRANULE_PAGES,
    TieringConfig,
    TieringDaemon,
)
from repro.topology import MachineTopology

MACHINE = DEFAULT_COSTS.machine


# ---------------------------------------------------------------------------
# Exhaustive spec dispatch (no silent PMem fallback).
# ---------------------------------------------------------------------------
def test_spec_registry_covers_every_medium():
    specs = medium_specs(DEFAULT_COSTS)
    assert set(specs) == set(Medium)
    assert specs[Medium.DRAM].persistent is False
    assert specs[Medium.PMEM].persistent is True
    # The expander media stream nt-stores at device rate (no DRAM
    # write-combining escape hatch like the old ``DRAM or not
    # ntstore`` branch gave).
    assert specs[Medium.CXL].ntstore_streams is True
    assert specs[Medium.FAR].ntstore_streams is True


def test_unknown_medium_raises_everywhere():
    """Pricing paths must refuse media without a registered spec —
    the failure mode the refactor retires is the implicit ``else:
    price as PMem`` arm."""
    specs = medium_specs(DEFAULT_COSTS)
    with pytest.raises(InvalidArgumentError, match="no MediumSpec"):
        specs["hbm"]
    mem = MemoryModel(DEFAULT_COSTS)
    with pytest.raises(InvalidArgumentError):
        mem.load_latency("hbm")
    with pytest.raises(InvalidArgumentError):
        mem.stream_read(4096, "hbm")
    with pytest.raises(InvalidArgumentError):
        mem.stream_write(4096, "hbm")
    with pytest.raises(InvalidArgumentError):
        mem.memcpy(4096, Medium.DRAM, "hbm")
    with pytest.raises(InvalidArgumentError):
        mem.memcpy(4096, "hbm", Medium.DRAM)


def test_expander_pricing_sits_between_dram_and_pmem():
    mem = MemoryModel(DEFAULT_COSTS)
    dram = mem.load_latency(Medium.DRAM)
    cxl = mem.load_latency(Medium.CXL)
    pmem = mem.load_latency(Medium.PMEM)
    assert dram < cxl < pmem
    assert (mem.stream_read(1 << 20, Medium.DRAM)
            < mem.stream_read(1 << 20, Medium.CXL)
            < mem.stream_read(1 << 20, Medium.PMEM))


# ---------------------------------------------------------------------------
# Range-scheme TLB coalescing (one entry per contiguous run).
# ---------------------------------------------------------------------------
def _range_scheme():
    return make_scheme("range", PhysicalMemory(1 << 30, 1 << 30),
                       DEFAULT_COSTS)


BASE = 0x40000000


def test_range_coalesces_contiguous_run_to_one_miss():
    scheme = _range_scheme()
    for i in range(64):
        scheme.map_page(BASE + i * PAGE_SIZE, 5000 + i, PageFlags.rw())
    assert len(scheme.ranges) == 1
    assert scheme.coalesce_tlb_misses(32.0, BASE, 64) == 1.0


def test_range_coalescing_scales_with_fragmentation():
    scheme = _range_scheme()
    # Frames alternate direction, so no two pages merge: 64 runs.
    for i in range(64):
        frame = 5000 + i if i % 2 == 0 else 9000 - i
        scheme.map_page(BASE + i * PAGE_SIZE, frame, PageFlags.rw())
    assert len(scheme.ranges) == 64
    # More runs than misses: the TLB can't do better than the miss
    # count the walker already priced.
    assert scheme.coalesce_tlb_misses(32.0, BASE, 64) == 32.0
    # Fewer runs than misses: one entry per run.
    scheme2 = _range_scheme()
    for run in range(4):
        for i in range(16):
            scheme2.map_page(BASE + (run * 16 + i) * PAGE_SIZE,
                             5000 + run * 1000 + i, PageFlags.rw())
    assert len(scheme2.ranges) == 4
    assert scheme2.coalesce_tlb_misses(32.0, BASE, 64) == 4.0


def test_radix_coalescing_is_identity():
    """The default hook must return the miss count unchanged (the
    golden gate leans on this being exact, not just close)."""
    scheme = make_scheme("radix4", PhysicalMemory(1 << 30, 1 << 30),
                         DEFAULT_COSTS)
    misses = 17.3
    assert scheme.coalesce_tlb_misses(misses, BASE, 64) is misses


def test_range_walks_fewer_on_clean_than_aged_image():
    """End to end: the same syncbench over a clean image (few
    contiguous runs) must charge fewer walk cycles than over an aged
    one (fragmented extents -> many runs, deeper binary searches)."""
    from repro.workloads import SyncConfig, SyncDiscipline, run_sync

    walks = {}
    for aged in (False, True):
        system = System(device_bytes=1 << 30, aged=aged, scheme="range")
        cfg = SyncConfig(file_size=8 << 20, op_size=1 << 10,
                         ops_per_sync=16, num_syncs=16,
                         discipline=SyncDiscipline.DAXVM_FSYNC)
        run_sync(system, cfg)
        walks[aged] = system.stats.get(Counter.VM_WALK_CYCLES)
    assert walks[False] < walks[True]


# ---------------------------------------------------------------------------
# InterleaveMap stripe-granule validation.
# ---------------------------------------------------------------------------
def test_interleave_granule_must_tile_attach_granule():
    from repro.topology import INTERLEAVE_BLOCKS, InterleaveMap

    ranges = [(1000, 4 * INTERLEAVE_BLOCKS), (9000, 4 * INTERLEAVE_BLOCKS)]
    # Multiples of the 2 MB chunk are fine (including the default).
    InterleaveMap(ranges)
    InterleaveMap(ranges, granule=2 * INTERLEAVE_BLOCKS)
    with pytest.raises(InvalidArgumentError, match="2 MB"):
        InterleaveMap(ranges, granule=INTERLEAVE_BLOCKS - 1)
    with pytest.raises(InvalidArgumentError):
        InterleaveMap(ranges, granule=0)
    with pytest.raises(InvalidArgumentError):
        InterleaveMap([])


# ---------------------------------------------------------------------------
# Tier configuration across the point boundary.
# ---------------------------------------------------------------------------
class FakeInode:
    def __init__(self, number):
        self.number = number
        self.i_mmap = []


def _wire_system(**machine):
    """The machine a point builds after its payload crossed the pool
    boundary as JSON."""
    point = SweepPoint("tiering", "t", 0.0, media="optane", device_gib=1,
                       aged=False, **machine)
    wire = json.loads(json.dumps(point.to_payload()))
    return build_system(SweepPoint.from_payload(wire))


def test_tiering_config_roundtrip_and_validation():
    cfg = TieringConfig(scan_interval=7e5, hot_touches=3, cold_scans=1,
                        hot_medium=Medium.DRAM,
                        migrate_budget_bytes=8 << 20)
    system = _wire_system(tiering={
        "data": "cxl", "daemon": True, "scan_interval": 7e5,
        "hot_touches": 3, "cold_scans": 1, "hot": "dram",
        "migrate_budget_bytes": 8 << 20})
    assert system.tiering.config == cfg
    assert system.mem.tiers.default is Medium.CXL
    with pytest.raises(InvalidArgumentError):
        TieringConfig(scan_interval=0)
    with pytest.raises(InvalidArgumentError):
        TieringConfig(hot_touches=0)


def test_expander_topology_roundtrips():
    topo = MachineTopology.with_kinds(MACHINE, ("ddr", "cxl", "far"))
    assert [n.kind for n in topo.nodes] == ["ddr", "cxl", "far"]
    assert tuple(topo.compute_nodes) == (0,)
    assert _wire_system(node_kinds="ddr,cxl,far").topology == topo


def test_daemon_rejects_hot_medium_equal_to_device_tier():
    system = System(device_bytes=1 << 30, aged=False)
    tiers = system.attach_tiering(data_medium=Medium.DRAM)
    with pytest.raises(InvalidArgumentError):
        TieringDaemon(system.engine, system.mem, system.costs,
                      system.stats, tiers)


# ---------------------------------------------------------------------------
# Daemon behaviour (driven scans against a live System).
# ---------------------------------------------------------------------------
def _daemon_rig(**knobs):
    system = System(device_bytes=1 << 30, aged=False)
    tiers = system.attach_tiering(data_medium=Medium.CXL)
    daemon = TieringDaemon(system.engine, system.mem, system.costs,
                           system.stats, tiers,
                           config=TieringConfig(**knobs))
    return system, tiers, daemon


def _run_scans(system, daemon, n):
    def driver():
        for _ in range(n):
            yield from daemon.scan()
    system.spawn(driver(), core=0)
    system.run()


def test_daemon_promotes_hot_granule_and_charges_tiering():
    system, tiers, daemon = _daemon_rig(hot_touches=2)
    inode = FakeInode(11)
    tiers.note_touch(inode, 0, GRANULE_PAGES - 1)
    tiers.note_touch(inode, 0, GRANULE_PAGES - 1)
    _run_scans(system, daemon, 1)
    assert tiers.placements() == [(11, 0, Medium.DRAM)]
    assert tiers.medium_for(inode, 0) is Medium.DRAM
    assert system.stats.get(Counter.TIERING_PROMOTED_PAGES) == GRANULE_PAGES
    assert system.stats.get(Counter.TIERING_MIGRATED_BYTES) == GRANULE_BYTES
    assert system.ledger.domain_total(CostDomain.TIERING) > 0


def test_daemon_cold_granule_demotes_clean_without_writeback():
    system, tiers, daemon = _daemon_rig(hot_touches=1, cold_scans=2)
    inode = FakeInode(12)
    tiers.note_touch(inode, 0, 0)
    _run_scans(system, daemon, 1)
    assert tiers.residency() == {"dram": 1}
    # Two untouched scans: demoted back to the device tier, and since
    # it was never written while promoted, no write-back copy.
    _run_scans(system, daemon, 2)
    assert tiers.placements() == []
    assert system.stats.get(Counter.TIERING_DEMOTED_PAGES) == GRANULE_PAGES
    assert system.stats.get(Counter.TIERING_WRITEBACK_BYTES) == 0


def test_daemon_dirty_granule_pays_writeback_on_demote():
    system, tiers, daemon = _daemon_rig(hot_touches=1, cold_scans=2)
    inode = FakeInode(13)
    tiers.note_touch(inode, 0, 0)
    _run_scans(system, daemon, 1)
    assert tiers.residency() == {"dram": 1}
    # Written while promoted: the device copy is stale.
    tiers.note_touch(inode, 0, 0, write=True)
    _run_scans(system, daemon, 3)
    assert tiers.placements() == []
    assert (system.stats.get(Counter.TIERING_WRITEBACK_BYTES)
            == GRANULE_BYTES)


def test_daemon_migration_budget_bounds_each_scan():
    system, tiers, daemon = _daemon_rig(
        hot_touches=1, migrate_budget_bytes=GRANULE_BYTES)
    inode = FakeInode(14)
    for granule in range(3):
        first = granule * GRANULE_PAGES
        tiers.note_touch(inode, first, first)
    _run_scans(system, daemon, 1)
    # One-granule budget: exactly one promotion this scan.
    assert len(tiers.placements()) == 1
    # Untouched promoted granules go cold, so a steady state is
    # reached rather than round-robin churn; re-touch to re-heat.
    for granule in range(3):
        first = granule * GRANULE_PAGES
        tiers.note_touch(inode, first, first)
    _run_scans(system, daemon, 1)
    assert len(tiers.placements()) == 2


def test_overlay_none_means_pmem_pricing():
    """No overlay => the FS and VM paths price PMem exactly (the
    golden gate pins the full numbers; this is the unit-level check
    that ``mem.tiers`` stays None unless attached)."""
    system = System(device_bytes=1 << 30, aged=False)
    assert system.mem.tiers is None
    assert system.tiering is None


# ---------------------------------------------------------------------------
# Sweep integration: tier config in cache keys, parallel determinism.
# ---------------------------------------------------------------------------
def _tiny_tiering_sweep() -> Sweep:
    full = build_sweep("tiering", ops=6, size=16 << 10, media="optane",
                       device_gib=1, aged=False)
    daemon_points = [p for p in full.points if p.tiering.get("daemon")]
    assert daemon_points, "tiering sweep must carry daemon points"
    points = daemon_points[:2] + [p for p in full.points
                                  if not p.tiering.get("daemon")][:2]
    return Sweep(name="tiering-tiny", title="tiny tiering",
                 points=points, axis="tier")


def test_tiering_sweep_cache_keys_cover_tier_config():
    full = build_sweep("tiering", ops=4, size=16 << 10, media="optane",
                       device_gib=1, aged=False)
    keys = {p.cache_key("fp") for p in full.points}
    assert len(keys) == len(full.points)
    base = full.points[0]
    payload = base.to_payload()
    assert "tiering" in payload and "node_kinds" in payload
    # Flipping only the tier flips the key.
    twin = type(base)(**{**payload, "tiering": {"data": "far"}})
    assert twin.cache_key("fp") != base.cache_key("fp")


def test_daemon_points_parallel_matches_sequential():
    seq = run_sweep(_tiny_tiering_sweep(), jobs=1)
    par = run_sweep(_tiny_tiering_sweep(), jobs=2)
    assert not seq.failed and not par.failed
    for a, b in zip(seq.points, par.points):
        assert a.point.label == b.point.label
        assert (json.dumps(a.comparable_state(), sort_keys=True)
                == json.dumps(b.comparable_state(), sort_keys=True))

