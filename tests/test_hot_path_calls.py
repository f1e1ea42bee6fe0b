"""The single-thread append path makes no more Python calls per op
than it did when it was last trimmed, a mapped access on the device
pools calls its pool's one-direction wait directly and counts its
dirty bytes in place, and a crash point copies only the records a
crash can still change, however long the run before it.

Counts, not timings: ``sys.setprofile`` sees every Python frame the
measured phase enters (a generator resume counts as one), so the
figures below are the same on every host running one interpreter
version.  They were taken on CPython 3.11; 3.12 inlines comprehensions
and enters fewer frames, so the bounds hold on 3.11 and 3.12 and the
per-op test is skipped on older interpreters, whose frame counts were
never measured.  A change that means to add calls on this path raises
the bound and says why.
"""

import sys
from functools import partial
from pathlib import Path

import pytest

from repro.crash import PersistRecord, run_crash
from repro.crash.workloads import CRASH_WORKLOADS, _append_fsync_phase
from repro.mem import latency
from repro.runner.manifest import SweepPoint
from repro.vm import dirty
from repro.runner.worker import run_point
from repro.system import System
from repro.vm.mm import MMStruct
from repro.workloads.common import Measurement

_DAXVM_KV = {"ephemeral": False, "unmap_async": False, "sync": True,
             "nosync": False}

#: Small versions of the two ``append_single`` benchmark points.
POINTS = {
    "kvstore": SweepPoint(
        "kvstore", "kvstore", 1,
        {"workload": "load_a", "num_ops": 2000, "preload_records": 0,
         "interface": "daxvm", "record_size": 4096,
         "memtable_limit": 1 << 20, "sstable_size": 1 << 20,
         "wal_size": 1 << 20, "daxvm": _DAXVM_KV},
        aged=False),
    "syncbench": SweepPoint(
        "syncbench", "daxvm+fsync", 1,
        {"file_size": 4 << 20, "op_size": 1 << 10, "ops_per_sync": 16,
         "num_syncs": 128, "discipline": "daxvm+fsync"},
        aged=False),
}

#: Python calls per op in the measured phase, at most.
CALLS_PER_OP = {"kvstore": 12.52, "syncbench": 9.53}

#: The modules of the pool wait and the dirty-byte count.  From these,
#: ``MMStruct.access`` enters only the pool's one-direction waits: no
#: ``MemoryModel`` wrapper around them, no byte-count method.
WAIT_AND_DIRTY = {str(Path(mod.__file__)) for mod in (latency, dirty)}
POOL_WAITS = {"delay_read", "delay_write"}


def _measured_calls(point, monkeypatch):
    """Python calls entered while the point's measured phase runs, and
    the names of the functions of :data:`WAIT_AND_DIRTY` entered
    directly from ``MMStruct.access``."""
    access = MMStruct.access.__code__
    seen = {"calls": 0, "accesses": 0, "entered": []}

    def observe(frame, event, arg):
        if event != "call":
            return
        seen["calls"] += 1
        code = frame.f_code
        if code is access:
            seen["accesses"] += 1
        elif (frame.f_back is not None
              and frame.f_back.f_code is access
              and str(Path(code.co_filename)) in WAIT_AND_DIRTY):
            seen["entered"].append(code.co_name)

    start, finish = Measurement.start, Measurement.finish

    def profiled_start(self):
        start(self)
        sys.setprofile(observe)

    def profiled_finish(self, *args, **kwargs):
        sys.setprofile(None)
        return finish(self, *args, **kwargs)

    monkeypatch.setattr(Measurement, "start", profiled_start)
    monkeypatch.setattr(Measurement, "finish", profiled_finish)
    try:
        state = run_point(point.to_payload())
    finally:
        sys.setprofile(None)
    return seen, state["run"]["operations"]


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="per-op bounds measured on CPython 3.11+")
@pytest.mark.parametrize("name", sorted(POINTS))
def test_append_path_calls_per_op(name, monkeypatch):
    seen, ops = _measured_calls(POINTS[name], monkeypatch)
    assert ops > 0 and seen["accesses"] >= ops
    per_op = seen["calls"] / ops
    assert per_op <= CALLS_PER_OP[name], (
        f"{name}: {per_op:.2f} Python calls per op, bound "
        f"{CALLS_PER_OP[name]}")


@pytest.mark.parametrize("name", sorted(POINTS))
def test_pooled_access_calls_its_pool_wait_directly(name, monkeypatch):
    seen, _ops = _measured_calls(POINTS[name], monkeypatch)
    assert seen["accesses"] > 0
    entered = set(seen["entered"])
    assert entered & POOL_WAITS, f"{name}: no pool wait from access"
    assert entered <= POOL_WAITS, (
        f"{name}: MMStruct.access entered {sorted(entered - POOL_WAITS)}")


#: Records copied per explored crash point of a seed-0 audit, at most.
#: The settled prefix of the persistence domain is shared, so a point
#: copies its tail: 22.18 per point for syncbench and 8.26 / 7.74 for
#: its appender phase at 24 / 96 writes.  Copying every record since
#: boot took 90.43, 41.69 and 160.09.
COPIES_PER_POINT = {"syncbench": 23.0, "append": 8.5}


def _copies_per_point(workload, monkeypatch):
    """``PersistRecord.copy`` calls per explored point of a seed-0
    crash audit of ``workload`` at every transition."""
    copies = [0]
    copy = PersistRecord.copy

    def counted(record):
        copies[0] += 1
        return copy(record)

    monkeypatch.setattr(PersistRecord, "copy", counted)
    summary = run_crash(lambda: System(device_bytes=1 << 30), workload,
                        seed=0, max_points=100_000)
    assert summary.points_explored == summary.total_transitions > 0
    return copies[0] / summary.points_explored


def test_crash_point_copies_are_bounded(monkeypatch):
    per_point = _copies_per_point("syncbench", monkeypatch)
    assert per_point <= COPIES_PER_POINT["syncbench"], (
        f"syncbench: {per_point:.2f} records copied per crash point, "
        f"bound {COPIES_PER_POINT['syncbench']}")


def test_crash_point_copies_do_not_grow_with_the_run(monkeypatch):
    """The appender phase at its length in syncbench and four times
    longer: the longer run's points copy no more records each."""
    counts = {}
    for writes in (24, 96):
        name = f"append-{writes}"
        monkeypatch.setitem(CRASH_WORKLOADS, name,
                            partial(_append_fsync_phase, writes=writes))
        counts[writes] = _copies_per_point(name, monkeypatch)
        assert counts[writes] <= COPIES_PER_POINT["append"], (
            f"{name}: {counts[writes]:.2f} records copied per crash "
            f"point, bound {COPIES_PER_POINT['append']}")
    low, high = sorted(counts.values())
    assert high <= 1.1 * low, f"copies per point by writes: {counts}"
