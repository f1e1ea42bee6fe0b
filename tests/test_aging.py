"""Aging tests: the synthetic ager, determinism, caching."""

from repro.fs.aging import (
    AgingProfile,
    aged_device,
    synthesize_aged_state,
)
from repro.fs.block import BlockDevice


def test_synthetic_ager_matches_utilization_and_fragments():
    device = BlockDevice(256 << 20)
    synthesize_aged_state(device, AgingProfile(utilization=0.7))
    assert 0.55 <= device.utilization <= 0.85
    assert device.free_extent_count() > 100
    assert device.huge_coverage_potential() < 0.9
    device.check_invariants()


def test_aging_is_deterministic():
    def build():
        device = BlockDevice(64 << 20)
        synthesize_aged_state(device, AgingProfile(seed=5))
        return [(e.start, e.length) for e in device._free]

    assert build() == build()


def test_seed_changes_layout():
    def build(seed):
        device = BlockDevice(64 << 20)
        synthesize_aged_state(device, AgingProfile(seed=seed))
        return [(e.start, e.length) for e in device._free]

    assert build(1) != build(2)


def test_aged_device_cache_returns_independent_clones():
    a = aged_device(32 << 20)
    b = aged_device(32 << 20)
    assert a is not b
    before = b.free_blocks
    a.alloc(16)
    assert b.free_blocks == before  # clone isolation
    assert [(e.start, e.length) for e in b._free] != []


def test_aged_device_base_frame_propagates():
    device = aged_device(32 << 20, base_frame=777_000)
    assert device.frame_of(0) == 777_000
