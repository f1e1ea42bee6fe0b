"""Shared benchmark helpers.

Every benchmark regenerates one table or figure of the paper: it runs
the corresponding workloads in the simulator, prints the same rows or
series the paper reports, and asserts the *shape* (who wins, by
roughly what factor, where crossovers fall).  Absolute numbers are the
simulator's, not the authors' testbed's — see EXPERIMENTS.md.

The pytest-benchmark fixture wraps each experiment in a single
``pedantic`` round so `pytest benchmarks/ --benchmark-only` also
records the (Python) runtime of regenerating each artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.runner.cache import TELEMETRY
from repro.sim.stats import Stats
from repro.system import System

#: Per-bench instrumentation records (one JSON list for the whole
#: session), written under the git-ignored ``.bench_results/``.
BENCH_LOG = (Path(__file__).resolve().parent.parent / ".bench_results"
             / "benchmarks_session.json")
_records: list = []


def once(benchmark, fn):
    """Run an experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def fresh_system(device_bytes=4 << 30, **kw) -> System:
    return System(device_bytes=device_bytes, **kw)


def aged_system(device_bytes=4 << 30, **kw) -> System:
    return System(device_bytes=device_bytes, aged=True, **kw)


@pytest.fixture(autouse=True)
def _print_spacer():
    print()
    yield


@pytest.fixture
def bench_extra():
    """Dict a bench fills with extra fields for its BENCH log record.

    Whatever the test puts here (speedup ratios, profile tables, ...)
    is merged verbatim into its entry in ``BENCH_LOG``.
    """
    return {}


def pytest_configure(config):
    _records.clear()


@pytest.fixture(autouse=True)
def _bench_recorder(request, bench_extra):
    """Record each bench's simulated work to ``BENCH_LOG``.

    Every ``System`` built during the test is tracked; afterwards their
    :class:`~repro.sim.stats.Stats` are merged (satellite: Stats.merge)
    and the bench's total simulated cycles, wall time and largest
    counters are appended to the session log.  Benches that route
    through the sweep runner also report every point's cache hit/miss
    and wall time (drained from the runner telemetry).
    """
    created = []
    original_init = System.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        created.append(self)

    System.__init__ = tracking_init
    telemetry_mark = len(TELEMETRY)
    start = time.perf_counter()
    try:
        yield
    finally:
        System.__init__ = original_init
    wall = time.perf_counter() - start
    sweep_points = [dict(entry) for entry in TELEMETRY[telemetry_mark:]]
    if not created and not sweep_points:
        return
    merged = Stats()
    cycles = 0.0
    for system in created:
        merged.merge(system.stats)
        cycles += system.engine.now
    counters = merged.to_json()["counters"]
    top = sorted(counters.items(), key=lambda kv: -abs(kv[1]))[:12]
    record = {
        "bench": request.node.nodeid,
        "simulated_cycles": cycles,
        "wall_seconds": wall,
        "key_counters": dict(top),
    }
    if sweep_points:
        hits = sum(1 for entry in sweep_points if entry["hit"])
        record["sweep_points"] = sweep_points
        record["cache_hits"] = hits
        record["cache_misses"] = len(sweep_points) - hits
    record.update(bench_extra)
    _records.append(record)
    BENCH_LOG.parent.mkdir(exist_ok=True)
    BENCH_LOG.write_text(json.dumps(_records, indent=2) + "\n")
