"""Shared fixtures for the test suite."""

import os

import pytest
from hypothesis import settings

from repro.config import DEFAULT_COSTS
from repro.mem.latency import MemoryModel
from repro.mem.physmem import PhysicalMemory
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.system import System

# CI runs (GitHub Actions sets ``CI``) draw the same examples every
# time, so a property test's verdict cannot flip on a fresh random
# draw; local runs keep exploring.
settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def engine():
    return Engine(num_cores=4)


@pytest.fixture
def costs():
    return DEFAULT_COSTS


@pytest.fixture
def stats():
    return Stats()


@pytest.fixture
def physmem():
    return PhysicalMemory(dram_bytes=1 << 30, pmem_bytes=4 << 30)


@pytest.fixture
def memmodel():
    return MemoryModel(DEFAULT_COSTS)


@pytest.fixture
def system():
    """A small fresh-image ext4 system."""
    return System(device_bytes=1 << 30)


@pytest.fixture
def aged_system():
    return System(device_bytes=2 << 30, aged=True)


@pytest.fixture
def nova_system():
    return System(device_bytes=1 << 30, fs_type="nova")


def run_gen(engine, gen, core=0):
    """Helper: spawn one generator and run to completion."""
    thread = engine.spawn(gen, core=core)
    engine.run()
    return thread.result
