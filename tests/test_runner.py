"""Tests for the parallel sweep runner and its result cache.

The runner's contract is exactness: a point's result must be the same
whether it was simulated sequentially, simulated in a worker process,
or replayed from the content-addressed cache — and merged sweep-level
``Stats``/``Ledger`` must come out identical in all three cases.
"""

import json
import time
from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.crash import run_crash
from repro.errors import DeadlockError, DeviceStallError, MemoryError_
from repro.obs import CostDomain
from repro.obs.histogram import Histogram
from repro.obs.ledger import Ledger
from repro.runner import (
    POINT_RUNNERS,
    ResultCache,
    SweepPoint,
    build_sweep,
    code_fingerprint,
    pool,
    run_sweep,
)
from repro.runner.manifest import Sweep, pooled
from repro.runner.worker import build_system, run_point
from repro.sim.stats import Stats
from repro.system import System


def tiny_sweep() -> Sweep:
    """A fast two-series ephemeral sweep (4 points, small files)."""
    points = []
    for threads in (1, 2):
        for interface in ("read", "daxvm"):
            points.append(SweepPoint(
                experiment="ephemeral", series=interface, x=threads,
                params={"file_size": 8 << 10, "num_files": 16,
                        "num_threads": threads, "interface": interface},
                media="optane", device_gib=1, aged=False))
    return Sweep(name="tiny", title="tiny", points=points, axis="threads")


def canon(point_result) -> str:
    return json.dumps(point_result.comparable_state(), sort_keys=True)


# ---------------------------------------------------------------------------
# Serialisation round-trips (the cache's correctness foundation).
# ---------------------------------------------------------------------------
def test_histogram_state_roundtrip_through_json():
    hist = Histogram()
    for v in (1.0, 5.5, 42.0, 1e6, 0.0):
        hist.record(v)
    wire = json.loads(json.dumps(hist.to_state()))
    back = Histogram.from_state(wire)
    assert back.to_state() == hist.to_state()
    assert back.count == hist.count
    assert back.percentile(50) == hist.percentile(50)


def test_stats_state_roundtrip_and_merge():
    stats = Stats()
    stats.add("vm.faults", 3)
    stats.sample("throughput", 10.0, 1.5)
    stats.observe("span.op", 123.4)
    wire = json.loads(json.dumps(stats.to_state()))
    back = Stats.from_state(wire)
    assert back.to_state() == stats.to_state()
    merged = Stats()
    merged.merge(back)
    merged.merge(Stats.from_state(wire))
    assert merged.get("vm.faults") == 6


def test_ledger_state_roundtrip_preserves_events():
    ledger = Ledger()
    ledger.record("t0", CostDomain.SYSCALL, "mmap", 100.0)
    ledger.record("t1", CostDomain.LOCK_WAIT, "sem/odd-name", 25.0)
    wire = json.loads(json.dumps(ledger.to_state()))
    back = Ledger.from_state(wire)
    assert back.to_state() == ledger.to_state()
    assert back.event_total(CostDomain.LOCK_WAIT, "sem/odd-name") == 25.0


# ---------------------------------------------------------------------------
# Cache keys.
# ---------------------------------------------------------------------------
def test_cache_key_stability_and_sensitivity():
    fp = code_fingerprint()
    a = tiny_sweep().points[0]
    same = tiny_sweep().points[0]
    assert a.cache_key(fp) == same.cache_key(fp)
    changed = tiny_sweep().points[0]
    changed.params["num_files"] = 17
    assert changed.cache_key(fp) != a.cache_key(fp)
    other_media = tiny_sweep().points[0]
    other_media.media = "fast-nvm"
    assert other_media.cache_key(fp) != a.cache_key(fp)
    assert a.cache_key("deadbeef") != a.cache_key(fp)


# ---------------------------------------------------------------------------
# Cache round-trip: warm replay is exact.
# ---------------------------------------------------------------------------
def test_cache_roundtrip_is_exact(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold = run_sweep(tiny_sweep(), jobs=1, cache=cache)
    assert cold.misses == len(cold.points) and cold.hits == 0
    warm = run_sweep(tiny_sweep(), jobs=1,
                     cache=ResultCache(tmp_path / "cache"))
    assert warm.hits == len(warm.points) and warm.misses == 0
    assert all(pr.cached for pr in warm.points)
    for a, b in zip(cold.points, warm.points):
        assert canon(a) == canon(b)
    assert warm.merged_stats().to_json() == cold.merged_stats().to_json()
    assert (warm.merged_ledger().to_json()
            == cold.merged_ledger().to_json())


def test_corrupt_cache_entry_is_a_miss(tmp_path, capsys):
    """A torn entry is counted, moved aside for post-mortem and then
    treated as a miss — never silently re-read or deleted."""
    cache = ResultCache(tmp_path / "cache")
    key = tiny_sweep().points[0].cache_key(code_fingerprint())
    cache.put(key, {"bogus": True})
    entry = tmp_path / "cache" / f"{key}.json"
    entry.write_text("{not json")  # simulate a truncated/torn write
    assert cache.get(key) is None
    assert cache.corrupt == 1 and cache.misses == 1 and cache.hits == 0
    assert not entry.exists()
    moved = tmp_path / "cache" / f"{key}.corrupt"
    assert moved.read_text() == "{not json"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert key in err[0] and "JSONDecodeError" in err[0]
    assert str(moved) in err[0]
    # The next put/get cycle works normally again.
    cache.put(key, {"fine": True})
    assert cache.get(key) == {"fine": True}
    assert cache.corrupt == 1 and cache.hits == 1


def test_cache_hit_wall_time_is_per_point(tmp_path):
    """Each cache hit reports the wall time of *its own* load, not the
    sweep's cumulative elapsed time (the old bug made the Nth hit look
    N times slower than the first)."""

    class SlowCache(ResultCache):
        delay = 0.02

        def get(self, key):
            time.sleep(self.delay)
            return super().get(key)

    run_sweep(tiny_sweep(), jobs=1, cache=ResultCache(tmp_path / "cache"))
    warm = run_sweep(tiny_sweep(), jobs=1,
                     cache=SlowCache(tmp_path / "cache"))
    assert warm.hits == len(warm.points) == 4
    walls = [pr.wall_seconds for pr in warm.points]
    # Cumulative accounting would make the last point >= 4 * delay.
    assert all(SlowCache.delay <= w < 3 * SlowCache.delay for w in walls)


# ---------------------------------------------------------------------------
# Parallel execution is bit-identical to sequential.
# ---------------------------------------------------------------------------
def test_parallel_matches_sequential():
    seq = run_sweep(tiny_sweep(), jobs=1)
    par = run_sweep(tiny_sweep(), jobs=4)
    assert par.hits == 0  # no cache involved
    for a, b in zip(seq.points, par.points):
        assert a.point.label == b.point.label
        assert canon(a) == canon(b)
    assert par.merged_stats().to_json() == seq.merged_stats().to_json()
    assert (par.merged_ledger().to_json()
            == seq.merged_ledger().to_json())


def test_sweep_result_series_and_table():
    result = run_sweep(tiny_sweep(), jobs=1)
    series = result.series()
    assert [s.label for s in series] == ["read", "daxvm"]
    assert all(len(s.points) == 2 for s in series)
    table = result.table()
    assert len(table.rows) == 4
    assert result.hit_ratio == 0.0


# ---------------------------------------------------------------------------
# Fault isolation: a bad point never takes the sweep down.
# ---------------------------------------------------------------------------
def selftest_sweep_of(modes, **extra_params) -> Sweep:
    """A sweep of selftest points (one diagnostic mode per point)."""
    points = [SweepPoint(experiment="selftest", series=mode, x=i,
                         params={"mode": mode, **extra_params},
                         media="optane", device_gib=1, aged=False)
              for i, mode in enumerate(modes)]
    return Sweep(name="selftest", title="selftest", points=points,
                 axis="slot")


def test_worker_crash_is_quarantined_with_partial_results():
    result = run_sweep(selftest_sweep_of(["ok", "crash", "ok"]), jobs=1)
    assert [pr.point.series for pr in result.points] == ["ok", "ok"]
    assert len(result.failed) == 1
    failure = result.failed[0]
    assert failure.reason == "error"
    assert failure.error_type == "RuntimeError"
    assert "injected worker crash" in failure.message
    assert len(result.failed_table().rows) == 1


def test_oom_and_deadlock_surface_with_their_types():
    """ENOMEM and deadlock raised mid-point keep their identity through
    the quarantine machinery instead of collapsing into a generic
    failure."""
    with pytest.raises(MemoryError_):
        run_point(selftest_sweep_of(["oom"]).points[0].to_payload())
    with pytest.raises(DeadlockError):
        run_point(selftest_sweep_of(["deadlock"]).points[0].to_payload())
    result = run_sweep(selftest_sweep_of(["oom", "ok", "deadlock"]),
                       jobs=1)
    assert [pr.point.series for pr in result.points] == ["ok"]
    assert ([f.error_type for f in result.failed]
            == ["MemoryError_", "DeadlockError"])
    assert all(f.reason == "error" for f in result.failed)


def test_device_stall_point_is_quarantined_on_its_first_run(monkeypatch):
    """A point is deterministic, so a stalled device fails it exactly
    as any other error does: it runs once and is quarantined."""
    runs = []

    def stall(system, **params):
        runs.append(params)
        raise DeviceStallError("stalled past the deadline")

    stall.replicas = False
    monkeypatch.setitem(POINT_RUNNERS, "stall", stall)
    sweep = Sweep(name="stall", title="stall", axis="slot", points=[
        SweepPoint(experiment="stall", series="stall", x=0, params={},
                   media="optane", device_gib=1, aged=False)])
    result = run_sweep(sweep, jobs=1)
    assert not result.points and len(runs) == 1
    [failure] = result.failed
    assert failure.reason == "error"
    assert failure.error_type == "DeviceStallError"


def test_hung_point_quarantined_by_watchdog():
    """With ``point_timeout`` set and ``jobs >= 2``, a hung worker is
    detected on collection; the sweep still returns every healthy
    point's result."""
    sweep = selftest_sweep_of(["ok", "hang", "ok", "ok"],
                              hang_seconds=60.0)
    result = run_sweep(sweep, jobs=2, point_timeout=1.5)
    assert [pr.point.series for pr in result.points] == ["ok", "ok", "ok"]
    assert len(result.failed) == 1
    failure = result.failed[0]
    assert failure.reason == "timeout"
    assert failure.error_type == "TimeoutError"
    assert failure.point.series == "hang"


def test_parallel_survivors_match_sequential_with_failures():
    sweep = selftest_sweep_of(["ok", "crash", "ok"])
    seq = run_sweep(sweep, jobs=1)
    par = run_sweep(sweep, jobs=2)
    assert len(seq.points) == len(par.points) == 2
    for a, b in zip(seq.points, par.points):
        assert a.point.label == b.point.label
        assert canon(a) == canon(b)
    assert ([f.error_type for f in par.failed]
            == [f.error_type for f in seq.failed])


# ---------------------------------------------------------------------------
# Registered sweeps and the CLI entry point.
# ---------------------------------------------------------------------------
def test_build_sweep_registry():
    sweep = build_sweep("apache", ops=8, size=32 << 10, media="optane",
                        device_gib=1, aged=False)
    # 3 interfaces x 5 worker counts, and 2 multi-process bars at 8.
    assert len(sweep.points) == 17
    with pytest.raises(KeyError):
        build_sweep("nope", ops=8, size=32 << 10, media="optane",
                    device_gib=1, aged=False)


def test_cli_sweep_smoke(tmp_path, capsys):
    argv = ["sweep", "apache", "--ops", "8", "--device", "1",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
    assert cli_main(argv) == 0
    cold = capsys.readouterr().out
    assert "0/17 points served from cache" in cold
    assert cli_main(argv + ["--verify-cache"]) == 0
    warm = capsys.readouterr().out
    assert "17/17 points served from cache" in warm
    assert "cache verify OK" in warm


def test_cli_sweep_requires_name():
    assert cli_main(["sweep"]) == 2


# ---------------------------------------------------------------------------
# Audit points build only the machines they run on.
# ---------------------------------------------------------------------------
def _audit_point(experiment: str) -> SweepPoint:
    budget = ({"max_points": 4} if experiment == "crash"
              else {"max_sites": 4})
    return SweepPoint(experiment, "syncbench", 0,
                      {"workload": "syncbench", "seed": 0, **budget},
                      media="optane", device_gib=1, aged=False)


@pytest.fixture
def built(monkeypatch):
    """Every machine ``System.__init__`` builds from here on."""
    machines = []
    init = System.__init__

    def counted(system, *args, **kwargs):
        init(system, *args, **kwargs)
        machines.append(system)

    monkeypatch.setattr(System, "__init__", counted)
    return machines


def test_crash_point_builds_only_the_machines_its_injector_asks_for(built):
    point = _audit_point("crash")
    run_crash(lambda: build_system(point), "syncbench", seed=0,
              max_points=4)
    asked = len(built)
    built.clear()
    state = run_point(point.to_payload())
    assert asked >= 2 and len(built) == asked
    assert state["stats"] == Stats().to_state()
    assert state["ledger"] == Ledger().to_state()
    assert state["locks"] == []


@pytest.mark.parametrize("experiment", ["crash", "faults"])
def test_attach_arms_every_replica_of_an_audit_point(experiment, built):
    armed = []
    run_point(_audit_point(experiment).to_payload(), attach=armed.append)
    assert len(built) >= 2
    assert armed == built


# ---------------------------------------------------------------------------
# A label names a figure line, not a simulation.
# ---------------------------------------------------------------------------
def test_points_differing_only_in_label_simulate_once(tmp_path,
                                                      monkeypatch):
    first = tiny_sweep().points[0]
    alias = replace(first, series="alias", x=7)
    own, other = (Sweep(name=n, title=n, points=[pt])
                  for n, pt in (("own", first), ("other", alias)))
    sweep = pooled("both", "both", [own, other])
    assert len(sweep.points) == 2
    simulated = []
    monkeypatch.setattr(pool, "run_point",
                        lambda payload: simulated.append(payload)
                        or run_point(payload))
    cache = ResultCache(tmp_path / "cache")
    cold = run_sweep(sweep, jobs=1, cache=cache)
    assert len(simulated) == 1
    assert (cold.hits, cold.misses) == (0, 1)
    assert ([pr.point.label for pr in cold.points]
            == [first.label, alias.label])
    assert canon(cold.points[0]) == canon(cold.points[1])
    assert [pr.point.label for pr in cold.part(other).points] \
        == [alias.label]
    warm = run_sweep(sweep, jobs=1, cache=cache)
    assert len(simulated) == 1 and warm.hits == 2
