"""Unit tests for the repro.obs instrumentation layer.

Covers the ledger, histograms, tracer spans, the Stats additions
(merge / percentile / observe / to_json), lock wait-vs-hold recording
and the ``python -m repro perf`` CLI entry point.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.config import DEFAULT_COSTS
from repro.errors import MissingCounterError, SimulationError
from repro.obs import (
    Charge,
    CostDomain,
    DOMAIN_ORDER,
    Histogram,
    Ledger,
    Tracer,
    charge,
)
from repro.sim.engine import Compute, Engine
from repro.sim.locks import Mutex, RWSemaphore, Spinlock
from repro.sim.stats import Stats


# -- Charge ----------------------------------------------------------------

def test_charge_validates_domain_and_cycles():
    c = charge(CostDomain.JOURNAL, "commit", 12.5)
    assert isinstance(c, Charge)
    assert (c.domain, c.event, c.cycles) == (CostDomain.JOURNAL,
                                             "commit", 12.5)
    with pytest.raises(SimulationError):
        charge(CostDomain.JOURNAL, "commit", -1.0)
    with pytest.raises(SimulationError):
        Charge("journal", "commit", 1.0)


def test_domain_order_covers_every_domain():
    assert set(DOMAIN_ORDER) == set(CostDomain)


# -- Ledger ----------------------------------------------------------------

def test_ledger_records_and_aggregates():
    ledger = Ledger()
    ledger.record("t0", CostDomain.ZEROING, "sync-zero", 100)
    ledger.record("t0", CostDomain.ZEROING, "sync-zero", 50)
    ledger.record("t1", CostDomain.FAULT, "fault-entry", 30)
    assert ledger.domain_total(CostDomain.ZEROING) == 150
    assert ledger.event_total(CostDomain.ZEROING, "sync-zero") == 150
    assert ledger.thread_total("t0") == 150
    assert ledger.total() == 180
    assert ledger.share(CostDomain.ZEROING) == pytest.approx(150 / 180)
    assert ledger.domains() == {"zeroing": 150, "fault": 30}
    assert ledger.events()["zeroing/sync-zero"] == 150


def test_ledger_merge_and_reset_and_json():
    a, b = Ledger(), Ledger()
    a.record("t0", CostDomain.COPY, "memcpy", 10)
    b.record("t0", CostDomain.COPY, "memcpy", 5)
    b.record("t1", CostDomain.WALK, "tlb-walk", 7)
    a.merge(b)
    assert a.domain_total(CostDomain.COPY) == 15
    assert a.domain_total(CostDomain.WALK) == 7
    out = a.to_json()
    assert out["total_cycles"] == 22
    assert out["domains"]["copy"] == 15
    a.reset()
    assert a.total() == 0.0


def test_ledger_ignores_zero_cycle_records():
    ledger = Ledger()
    ledger.record("t0", CostDomain.JOURNAL, "noop", 0.0)
    assert ledger.total() == 0.0
    assert ledger.domains() == {}


# -- Histogram -------------------------------------------------------------

def test_histogram_percentiles_are_close():
    hist = Histogram()
    for value in range(1, 1001):
        hist.record(float(value))
    assert hist.count == 1000
    assert hist.percentile(50) == pytest.approx(500, rel=0.08)
    assert hist.percentile(99) == pytest.approx(990, rel=0.08)
    assert hist.percentile(100) <= hist.max_value
    assert hist.mean == pytest.approx(500.5)


def test_histogram_merge_matches_combined_recording():
    a, b, c = Histogram(), Histogram(), Histogram()
    for value in (3.0, 70.0, 900.0):
        a.record(value)
        c.record(value)
    for value in (5.0, 5000.0):
        b.record(value)
        c.record(value)
    a.merge(b)
    assert a.count == c.count
    assert a.percentile(50) == c.percentile(50)
    assert a.summary() == c.summary()


def test_histogram_edge_cases():
    hist = Histogram()
    with pytest.raises(ValueError):
        hist.record(-1.0)
    with pytest.raises(ValueError):
        hist.percentile(101)
    assert hist.percentile(99) == 0.0
    hist.record(0.0)
    assert hist.percentile(50) == 0.0
    summary = hist.summary()
    assert summary["count"] == 1 and summary["min"] == 0.0


# -- Tracer ----------------------------------------------------------------

class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_nested_spans_attribute_self_time():
    clock = _FakeClock()
    stats = Stats()
    tracer = Tracer(clock, lambda: "t0", stats=stats, ring=8)
    with tracer.span("outer"):
        clock.now = 10.0
        with tracer.span("inner"):
            clock.now = 40.0
        clock.now = 45.0
    summary = tracer.summary()
    assert summary["outer"]["total_cycles"] == 45.0
    assert summary["outer"]["self_cycles"] == 15.0
    assert summary["inner"]["total_cycles"] == 30.0
    # Span exits feed the Stats latency histograms.
    assert stats.timings["span.outer"].count == 1
    assert stats.percentile("span.inner", 50) == pytest.approx(30.0,
                                                               rel=0.1)
    assert len(tracer.ring) == 2


def test_tracer_out_of_order_close_raises():
    clock = _FakeClock()
    tracer = Tracer(clock, lambda: "t0")
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    outer.__enter__()
    inner.__enter__()
    with pytest.raises(RuntimeError):
        outer.__exit__(None, None, None)


def test_tracer_tracks_threads_independently():
    clock = _FakeClock()
    current = {"name": "a"}
    tracer = Tracer(clock, lambda: current["name"])
    span_a = tracer.span("op")
    span_a.__enter__()
    current["name"] = "b"
    span_b = tracer.span("op")
    span_b.__enter__()
    assert tracer.active_depth("a") == 1
    assert tracer.active_depth("b") == 1
    clock.now = 5.0
    span_b.__exit__(None, None, None)
    current["name"] = "a"
    span_a.__exit__(None, None, None)
    assert tracer.summary()["op"]["count"] == 2


# -- Stats additions -------------------------------------------------------

def test_stats_merge_folds_counters_series_histograms():
    a, b = Stats(), Stats()
    a.add("x", 1)
    b.add("x", 2)
    b.add("y", 5)
    a.sample("tl", 1.0, 10.0)
    b.sample("tl", 2.0, 20.0)
    a.observe("lat", 100.0)
    b.observe("lat", 300.0)
    a.merge(b)
    assert a.get("x") == 3 and a.get("y") == 5
    assert a.series("tl") == [(1.0, 10.0), (2.0, 20.0)]
    assert a.timings["lat"].count == 2


def test_stats_percentile_histogram_and_series_fallback():
    stats = Stats()
    for value in (10.0, 20.0, 30.0, 1000.0):
        stats.observe("lat", value)
    assert stats.percentile("lat", 50) == pytest.approx(20.0, rel=0.1)
    for i, value in enumerate((5.0, 1.0, 9.0)):
        stats.sample("ts", float(i), value)
    assert stats.percentile("ts", 50) == 5.0
    assert stats.percentile("ts", 0) == 1.0
    with pytest.raises(MissingCounterError):
        stats.percentile("nothing", 50)


def test_stats_to_json_shape():
    stats = Stats()
    stats.add("vm.faults", 3)
    stats.observe("lat", 50.0)
    stats.sample("ts", 1.0, 2.0)
    out = stats.to_json()
    assert out["counters"] == {"vm.faults": 3}
    assert out["timings"]["lat"]["count"] == 1
    assert out["series_points"] == {"ts": 1}


# -- Lock wait/hold accounting --------------------------------------------

def _contend(lock_cls, hold_cycles=50_000, threads=3):
    engine = Engine(threads)
    lock = lock_cls(engine, DEFAULT_COSTS, "l")

    def worker():
        yield from lock.acquire()
        yield charge(CostDomain.USERSPACE, "critical", hold_cycles)
        yield from lock.release()

    for i in range(threads):
        engine.spawn(worker(), core=i)
    engine.run()
    return engine, lock


@pytest.mark.parametrize("lock_cls", [Spinlock, Mutex])
def test_lock_report_wait_and_hold(lock_cls):
    engine, lock = _contend(lock_cls)
    rep = lock.report()
    assert rep["acquisitions"] == 3
    assert rep["contended"] == 2
    assert rep["wait_cycles"] > 0
    assert rep["hold_cycles"] >= 3 * 50_000
    assert lock in engine.locks
    # Blocked time lands in the ledger's lock_wait domain.
    assert engine.ledger.domain_total(CostDomain.LOCK_WAIT) > 0


def test_rwsem_report_splits_read_and_write():
    engine = Engine(4)
    sem = RWSemaphore(engine, DEFAULT_COSTS, "mm")

    def reader():
        yield from sem.acquire_read()
        yield charge(CostDomain.USERSPACE, "scan", 200)
        yield from sem.release_read()

    def writer():
        yield from sem.acquire_write()
        yield charge(CostDomain.USERSPACE, "mutate", 300)
        yield from sem.release_write()

    engine.spawn(reader(), core=0)
    engine.spawn(reader(), core=1)
    engine.spawn(writer(), core=2)
    engine.run()
    rep = sem.report()
    assert rep["read_acquisitions"] == 2
    assert rep["write_acquisitions"] == 1
    assert rep["read_hold_cycles"] >= 200
    assert rep["write_hold_cycles"] >= 300
    assert rep["write_wait_cycles"] > 0


# -- Engine ledger totals match clock --------------------------------------

def test_ledger_total_matches_elapsed_time_single_thread():
    engine = Engine(1)

    def worker():
        yield charge(CostDomain.SYSCALL, "open", 40)
        yield Compute(60)

    engine.spawn(worker())
    engine.run()
    assert engine.ledger.total() == engine.now == 100


# -- perf CLI --------------------------------------------------------------

def test_perf_fig7_reports_zeroing_share_in_band(capsys):
    """Fig. 7's motivation on the appends sweep's fig7 point (ext4-DAX
    mmap, 256 KB x 8 appends, aged 4 GiB optane): zeroing takes
    30-40 % of the attributed cycles."""
    assert cli_main(["perf", "appends", "--ops", "64", "--max-points",
                     "8", "--no-cache", "--json"]) == 0
    run = json.loads(capsys.readouterr().out)["ext4+mmap@256"]["run"]
    share = run["domains"]["zeroing"] / sum(run["domains"].values())
    assert 0.30 <= share <= 0.40


def test_perf_fig8a_reports_rwsem_wait_and_hold(capsys):
    assert cli_main(["perf", "apache", "--ops", "48", "--max-points",
                     "5", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "mmap@4: contended locks" in out
    assert "RWSemaphore" in out
    assert "read wait/hold" in out and "write wait/hold" in out


def test_perf_requires_target(capsys):
    assert cli_main(["perf"]) == 2
