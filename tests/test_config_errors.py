"""Config/cost-model and error-hierarchy tests."""

import dataclasses

import pytest

from repro import errors
from repro.config import DEFAULT_COSTS, CostModel


def test_cost_model_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_COSTS.syscall_crossing = 0  # type: ignore[misc]


def test_replace_creates_modified_copy():
    tuned = DEFAULT_COSTS.replace(syscall_crossing=123.0)
    assert tuned.syscall_crossing == 123.0
    assert DEFAULT_COSTS.syscall_crossing != 123.0
    assert tuned.vma_alloc == DEFAULT_COSTS.vma_alloc


def test_cycles_per_byte_and_copy_cycles():
    cm = CostModel()
    cpb = cm.cycles_per_byte(2.7e9)
    assert cpb == pytest.approx(1.0)
    assert cm.copy_cycles(1000, 2.7e9) == pytest.approx(1090)


def test_fast20_bandwidth_ordering():
    """The calibration must preserve the qualitative Optane facts."""
    c = DEFAULT_COSTS
    assert c.pmem_load_latency > c.dram_load_latency > \
        c.cache_load_latency
    assert c.dram_read_bw > c.pmem_read_bw > c.pmem_ntstore_bw \
        > c.pmem_clwb_bw
    assert c.pmem_ntstore_bw == pytest.approx(2 * c.pmem_clwb_bw,
                                              rel=0.2)
    assert c.pmem_total_read_bw > c.pmem_read_bw


def test_daxvm_policy_constants_match_paper():
    c = DEFAULT_COSTS
    assert c.filetable_volatile_max == 32 << 10
    assert c.monitor_walk_cycles == 200.0
    assert c.monitor_mmu_overhead == 0.05
    assert c.full_flush_threshold == 33
    assert c.async_unmap_batch_pages == 33
    assert c.machine.num_cores == 16
    assert c.machine.freq_hz == 2.7e9


def test_error_hierarchy_and_errnos():
    assert issubclass(errors.NoSuchFileError, errors.FileSystemError)
    assert issubclass(errors.FileSystemError, errors.ReproError)
    assert issubclass(errors.DeadlockError, errors.SimulationError)
    assert errors.NoSuchFileError.errno_name == "ENOENT"
    assert errors.NotSupportedError.errno_name == "ENOTSUP"
