"""Tests for the TLB model, page walker (Table II) and shootdowns."""

import pytest

from repro.config import DEFAULT_COSTS, DEFAULT_MACHINE
from repro.mem.physmem import Medium
from repro.paging.pagetable import PMD_LEVEL
from repro.paging.tlb import AccessPattern, ShootdownController, TLBModel
from repro.paging.walker import PageWalker
from repro.sim.engine import Engine
from repro.sim.stats import Stats


@pytest.fixture
def walker():
    return PageWalker(DEFAULT_COSTS)


def test_table2_dram_walk_costs(walker):
    """Paper Table II: 28 (seq) / 111 (rand) cycles with DRAM tables."""
    seq = walker.walk_cost(AccessPattern.SEQUENTIAL, Medium.DRAM)
    rand = walker.walk_cost(AccessPattern.RANDOM, Medium.DRAM)
    assert seq == pytest.approx(28, rel=0.15)
    assert rand == pytest.approx(111, rel=0.15)


def test_table2_pmem_walk_costs(walker):
    """Paper Table II: 103 (seq) / 821 (rand) cycles with PMem tables."""
    seq = walker.walk_cost(AccessPattern.SEQUENTIAL, Medium.PMEM)
    rand = walker.walk_cost(AccessPattern.RANDOM, Medium.PMEM)
    assert seq == pytest.approx(103, rel=0.20)
    assert rand == pytest.approx(821, rel=0.15)


def test_huge_walks_are_cheap(walker):
    huge = walker.walk_cost(AccessPattern.RANDOM, Medium.PMEM, PMD_LEVEL)
    small = walker.walk_cost(AccessPattern.RANDOM, Medium.PMEM)
    assert huge < small / 10


def test_tlb_reach():
    tlb = TLBModel(DEFAULT_COSTS, DEFAULT_MACHINE)
    assert tlb.reach(4096) == 1536 * 4096


def test_random_misses_saturate_out_of_reach():
    tlb = TLBModel(DEFAULT_COSTS, DEFAULT_MACHINE)
    big = 10 << 30  # out of reach: the op misses on every page
    assert tlb.random_op_misses(4096, 4096, big) == 1
    assert tlb.random_op_misses(3 * 4096, 4096, big) == 3
    small = 1 << 20  # fits in reach: bounded by resident pages
    assert tlb.random_op_misses(4096, 4096, small) == 1
    assert tlb.random_op_misses(8 * 4096, 4096, 4 * 4096) == 4


def _flush(engine, controller, initiator, cores, pages, force=False):
    def worker():
        yield from controller.flush(initiator, cores, pages,
                                    force_full=force)
    engine.spawn(worker(), core=initiator)
    engine.run()


def test_shootdown_policy_threshold():
    costs = DEFAULT_COSTS
    controller = ShootdownController(Engine(4), costs, Stats())
    assert not controller.wants_full_flush(costs.full_flush_threshold)
    assert controller.wants_full_flush(costs.full_flush_threshold + 1)


def test_range_flush_sends_ipis_to_remote_cores():
    engine = Engine(4)
    stats = Stats()
    controller = ShootdownController(engine, DEFAULT_COSTS, stats)
    _flush(engine, controller, 0, {0, 1, 2}, pages=4)
    assert stats.get("tlb.range_flushes") == 1
    assert stats.get("tlb.ipis") == 2
    # Remote cores carry interrupt debt.
    assert engine.cores[1].stolen_cycles > 0
    assert engine.cores[3].stolen_cycles == 0  # not in the cpumask


def test_full_flush_beyond_threshold():
    engine = Engine(4)
    stats = Stats()
    controller = ShootdownController(engine, DEFAULT_COSTS, stats)
    _flush(engine, controller, 0, {0, 1}, pages=100)
    assert stats.get("tlb.full_flushes") == 1
    assert stats.get("tlb.range_flushes") == 0


def test_local_only_flush_sends_no_ipis():
    engine = Engine(4)
    stats = Stats()
    controller = ShootdownController(engine, DEFAULT_COSTS, stats)
    _flush(engine, controller, 0, {0}, pages=4)
    assert stats.get("tlb.ipis") == 0


def test_full_flush_is_cheaper_than_many_page_invalidations():
    """The rationale for batching: one full flush beats N invlpg IPIs."""
    costs = DEFAULT_COSTS

    def cost_of(pages, force):
        engine = Engine(16)
        controller = ShootdownController(engine, costs, Stats())
        _flush(engine, controller, 0, set(range(16)), pages, force)
        return engine.now

    many_small = 10 * cost_of(8, force=False)
    one_full = cost_of(80, force=True)
    assert one_full < many_small
