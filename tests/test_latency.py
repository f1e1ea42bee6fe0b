"""Unit tests for the memory cost model and bandwidth throttles."""

import pytest

from repro.config import DEFAULT_COSTS
from repro.errors import InvalidArgumentError
from repro.mem.latency import BandwidthThrottle, MemoryModel, SharedBandwidth
from repro.mem.physmem import Medium


@pytest.fixture
def mem():
    return MemoryModel(DEFAULT_COSTS)


def test_pmem_loads_slower_than_dram(mem):
    assert mem.load_latency(Medium.PMEM) > mem.load_latency(Medium.DRAM)


def test_stream_read_scales_with_size(mem):
    small = mem.stream_read(4096, Medium.PMEM)
    big = mem.stream_read(65536, Medium.PMEM)
    assert big > small
    # Streaming is roughly linear beyond the startup cost.
    assert big / small == pytest.approx(16, rel=0.35)


def test_cached_read_is_fastest(mem):
    n = 1 << 20
    assert mem.stream_read(n, Medium.DRAM, cached=True) \
        < mem.stream_read(n, Medium.DRAM) \
        < mem.stream_read(n, Medium.PMEM)


def test_ntstore_beats_clwb_flush(mem):
    """FAST'20: nt-stores ~double the bandwidth of store+clwb."""
    n = 1 << 20
    nt = mem.stream_write(n, Medium.PMEM, ntstore=True)
    flush = mem.clwb_flush(n)
    assert flush / nt == pytest.approx(2.0, rel=0.25)


def test_cached_stores_defer_durability(mem):
    """Plain stores complete near DRAM speed; clwb cost comes later."""
    n = 1 << 20
    assert mem.stream_write(n, Medium.PMEM, ntstore=False) \
        < mem.stream_write(n, Medium.PMEM, ntstore=True)


def test_kernel_copy_discount(mem):
    n = 1 << 20
    user = mem.memcpy(n, Medium.PMEM, Medium.DRAM, kernel=False)
    kernel = mem.memcpy(n, Medium.PMEM, Medium.DRAM, kernel=True)
    assert kernel > user


def test_memcpy_bandwidth_is_min_of_sides(mem):
    n = 1 << 20
    to_pmem = mem.memcpy(n, Medium.DRAM, Medium.PMEM, ntstore=True)
    to_dram = mem.memcpy(n, Medium.PMEM, Medium.DRAM)
    # nt-store bandwidth (2.2 GB/s) is the bottleneck writing to PMem.
    assert to_pmem > to_dram


def test_throttle_paces_consumption():
    throttle = BandwidthThrottle(64e6, 2.7e9)  # 64 MB/s
    one_chunk = (64 << 20) / 64e6 * 2.7e9  # cycles per 64 MiB chunk
    first = throttle.delay_for(64 << 20, now=0.0)
    assert first == pytest.approx(one_chunk, rel=0.01)
    second = throttle.delay_for(64 << 20, now=0.0)
    assert second == pytest.approx(2 * one_chunk, rel=0.01)


def test_throttle_idle_periods_do_not_accumulate_credit():
    throttle = BandwidthThrottle(1e9, 1e9)  # 1 B/cycle
    throttle.delay_for(1000, now=0.0)
    # Long idle gap, then a transfer: only the transfer time is owed.
    delay = throttle.delay_for(500, now=1e9)
    assert delay == pytest.approx(500)


def test_throttle_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        BandwidthThrottle(0, 2.7e9)


def test_throttle_back_to_back_bursts_queue_linearly():
    """Each burst pays for itself plus whatever backlog is unpaid."""
    throttle = BandwidthThrottle(1e9, 1e9)  # 1 B/cycle
    assert throttle.delay_for(100, now=0.0) == pytest.approx(100)
    assert throttle.delay_for(100, now=0.0) == pytest.approx(200)
    assert throttle.delay_for(100, now=0.0) == pytest.approx(300)


def test_throttle_budget_accrues_while_waiting():
    """Time the caller actually waits pays the backlog down, so a
    later transfer owes only the remainder plus its own cost."""
    throttle = BandwidthThrottle(1e9, 1e9)  # 1 B/cycle
    assert throttle.delay_for(1000, now=0.0) == pytest.approx(1000)
    # 600 cycles later, 400 cycles of backlog remain ahead of the
    # next 100-byte transfer.
    assert throttle.delay_for(100, now=600.0) == pytest.approx(500)


def test_throttle_fully_waited_backlog_leaves_only_transfer_time():
    throttle = BandwidthThrottle(2e9, 1e9)  # 2 B/cycle
    first = throttle.delay_for(1000, now=0.0)
    assert first == pytest.approx(500)
    # The consumer slept through its delay: the next transfer starts
    # with a clean bucket and owes exactly its own transfer time.
    assert throttle.delay_for(1000, now=first) == pytest.approx(500)


def test_shared_bandwidth_is_invisible_at_low_load():
    shared = SharedBandwidth(19.8e9, 7.5e9, 2.7e9)
    # One 4 KB read takes ~0.56 us of device time; a second request a
    # long time later sees no queueing.
    assert shared.delay_read(4096, now=0.0) > 0
    assert shared.delay_read(4096, now=1e9) < 1000


def test_shared_bandwidth_queues_at_saturation():
    shared = SharedBandwidth(1e9, 1e9, 1e9)  # 1 B/cycle
    d1 = shared.delay_read(1 << 20, now=0.0)
    d2 = shared.delay_read(1 << 20, now=0.0)
    assert d2 > d1  # back-to-back requests queue


def test_device_delay_absent_without_wiring(mem):
    assert mem.device_delay(1 << 20, False, now=0.0) == 0.0


def test_interference_enter_exit_composes(mem):
    """Concurrent background streams stack; the worst one wins, and
    exiting one stream leaves the others' penalties intact."""
    assert mem.interference_for(0) == 1.0
    mem.enter_interference(1.07)
    mem.enter_interference(1.5)
    assert mem.interference_for(0) == 1.5
    mem.exit_interference(1.5)
    assert mem.interference_for(0) == 1.07
    mem.exit_interference(1.07)
    assert mem.interference_for(0) == 1.0


def test_interference_unmatched_exit_raises(mem):
    with pytest.raises(InvalidArgumentError):
        mem.exit_interference(1.07)


def test_interference_is_per_node(mem):
    mem.enter_interference(1.3, node=1)
    assert mem.interference_for(0) == 1.0
    assert mem.interference_for(1) == 1.3
    # Unknown nodes read as quiet rather than raising.
    assert mem.interference_for(7) == 1.0
    mem.exit_interference(1.3, node=1)


def test_interference_slows_pmem_streams(mem):
    quiet = mem.stream_read(1 << 20, Medium.PMEM)
    mem.enter_interference(1.07)
    slowed = mem.stream_read(1 << 20, Medium.PMEM)
    mem.exit_interference(1.07)
    # The fixed per-copy startup cost is not media-bound, so compare
    # the bandwidth-proportional part.
    assert slowed == pytest.approx(quiet * 1.07, rel=1e-4)
