"""The multi-tenant consolidation subsystem.

Covers the quota mechanisms in isolation (CPU throttle stretch,
weighted bandwidth admission), the per-tenant frame books (which
attribute memory and never refuse it), the attribution machinery
(cross-tenant lock waits booked with the holder recorded, exact-match
ledger views — ``t1`` never absorbs ``t10``), the end-to-end
consolidate driver (determinism, antagonist containment, quota
audit), and the spec round-trips that feed the sweep cache key.
"""

import dataclasses
import json

import pytest

from repro.config import DEFAULT_COSTS
from repro.errors import InvalidArgumentError
from repro.mem.physmem import Medium, PhysicalMemory
from repro.obs import CostDomain, Counter
from repro.runner.manifest import result_state
from repro.sim.engine import Compute, Engine
from repro.sim.locks import RWSemaphore
from repro.system import System
from repro.tenancy import (
    CpuThrottle,
    QuotaAccountingError,
    QuotaController,
    TenancyConfig,
    Tenant,
    TenantAccountant,
    TenantSpec,
    consolidate_config,
    run_consolidate,
)


# ---------------------------------------------------------------------------
# Specs: validation and the JSON round-trip the cache key rides on.
# ---------------------------------------------------------------------------
def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        TenantSpec(cpu_limit=0.0)
    with pytest.raises(InvalidArgumentError):
        TenantSpec(cpu_limit=1.5)
    with pytest.raises(InvalidArgumentError):
        TenantSpec(bandwidth_weight=0.0)
    with pytest.raises(InvalidArgumentError):
        Tenant(name="t0", kind="fortran")
    with pytest.raises(InvalidArgumentError):
        TenancyConfig(tenants=())
    with pytest.raises(InvalidArgumentError):
        TenancyConfig(tenants=(Tenant(name="a"), Tenant(name="a")))


def _thinking(config, think_cycles):
    """``config`` with every foreground tenant's mean think time set
    (the antagonist keeps its saturating loop)."""
    return TenancyConfig(
        tenants=tuple(t if t.kind == "antagonist" else
                      dataclasses.replace(t, think_cycles=think_cycles)
                      for t in config.tenants),
        quotas=config.quotas)


def test_config_roundtrip_is_lossless():
    config = _thinking(consolidate_config(3, "mixed", quotas=True,
                                          antagonist=True, requests=12,
                                          seed=4), 500.0)
    wire = json.loads(json.dumps(config.to_state()))
    back = TenancyConfig.from_state(wire)
    assert back == config
    assert back.to_state() == config.to_state()


def test_passive_detection():
    assert consolidate_config(1, "apache").passive
    assert not consolidate_config(2, "apache").passive
    assert not consolidate_config(1, "apache", quotas=True).passive
    assert not consolidate_config(1, "apache", antagonist=True).passive
    assert not _thinking(consolidate_config(1, "apache"), 100.0).passive


def test_consolidate_config_mix_and_names():
    config = consolidate_config(4, "mixed", antagonist=True)
    assert [t.name for t in config.tenants] == ["t0", "t1", "t2", "t3",
                                                "hog"]
    assert [t.kind for t in config.tenants[:4]] == [
        "apache", "predis", "kvstore", "apache"]
    assert config.mix == "mixed"
    assert config.antagonist


# ---------------------------------------------------------------------------
# CPU throttle: limits.cpu as a charge stretch.
# ---------------------------------------------------------------------------
def test_cpu_throttle_stretches_charges_two_x():
    engine = Engine(2)
    done = {}

    def worker():
        yield Compute(10_000)
        done["at"] = engine.now

    thread = engine.spawn(worker(), core=0, name="t0.worker")
    thread.tenant = "t0"
    thread.cpu_throttle = CpuThrottle(0.5)
    engine.run()
    # A 0.5-core share serializes 2x the charged cycles.
    assert done["at"] == pytest.approx(20_000)
    assert thread.cpu_throttle.throttled_cycles == pytest.approx(10_000)
    assert engine.ledger.domain_total(CostDomain.TENANCY) \
        == pytest.approx(10_000)


def test_cpu_throttle_share_validation():
    with pytest.raises(QuotaAccountingError):
        CpuThrottle(0.0)
    with pytest.raises(QuotaAccountingError):
        CpuThrottle(1.5)


# ---------------------------------------------------------------------------
# Frame accounting: per-tenant ownership books, never a refusal.
# ---------------------------------------------------------------------------
def _accountant_rig():
    engine = Engine(1)
    physmem = PhysicalMemory(dram_bytes=8 << 20, pmem_bytes=8 << 20)
    accountant = TenantAccountant(engine, ["t0"])
    physmem.accountant = accountant
    return engine, physmem, accountant


def _run_as_tenant(engine, fn, name="t0.worker", tenant="t0"):
    out = {}

    def gen():
        out["result"] = fn()
        yield Compute(1)

    thread = engine.spawn(gen(), core=0, name=name)
    thread.tenant = tenant
    engine.run()
    return out.get("result")


def test_accountant_tracks_frames():
    engine, physmem, accountant = _accountant_rig()

    def body():
        return [physmem.alloc_frame(Medium.DRAM) for _ in range(2)]

    frames = _run_as_tenant(engine, body)
    assert accountant.usage_bytes("t0") == 2 * 4096
    # Frees leave the books; the peak remembers the high-water mark.
    for frame in frames:
        physmem.free_frame(frame)
    assert accountant.usage_bytes("t0") == 0
    assert accountant.peak_bytes("t0") == 2 * 4096
    accountant.audit()


def test_quota_tenant_is_never_refused_frames():
    """Quotas police CPU and bandwidth only: on a quota-armed machine a
    hog thread allocates one frame past 64 MiB (its old
    ``limits.memory``) and every frame lands on its books."""
    system = System(device_bytes=1 << 30, aged=False)
    config = consolidate_config(1, "apache", quotas=True, antagonist=True,
                                requests=1)
    runtime = system.attach_tenancy(config).install()
    count = (64 << 20) // 4096 + 1

    def body():
        return [system.physmem.alloc_frame(Medium.DRAM)
                for _ in range(count)]

    frames = _run_as_tenant(system.engine, body, name="hog.worker",
                            tenant="hog")
    assert len(frames) == count
    assert runtime.accountant.usage_bytes("hog") == count * 4096
    runtime.audit()
    for frame in frames:
        system.physmem.free_frame(frame)
    assert runtime.accountant.usage_bytes("hog") == 0
    assert runtime.accountant.peak_bytes("hog") == count * 4096
    runtime.audit()


def test_accountant_ignores_untagged_threads():
    engine, physmem, accountant = _accountant_rig()

    def body():
        # No tenant tag: frames are kernel-global, never booked.
        return [physmem.alloc_frame(Medium.DRAM) for _ in range(4)]

    frames = _run_as_tenant(engine, body, tenant=None)
    assert len(frames) == 4
    assert accountant.usage_bytes("t0") == 0
    accountant.audit()


def test_accountant_audit_detects_drift():
    engine, physmem, accountant = _accountant_rig()

    def body():
        return physmem.alloc_frame(Medium.DRAM)

    _run_as_tenant(engine, body)
    accountant.audit()
    accountant.frames["t0"] += 1  # corrupt the books
    with pytest.raises(QuotaAccountingError):
        accountant.audit()


# ---------------------------------------------------------------------------
# Bandwidth admission: weighted-fair sub-buckets on the shared pools.
# ---------------------------------------------------------------------------
def test_admission_delays_low_weight_tenant_only():
    from repro.mem.latency import SharedBandwidth
    from repro.sim.stats import Stats
    from repro.tenancy import BandwidthAdmission

    engine = Engine(2)
    stats = Stats()
    pool = SharedBandwidth(read_bw=10e9, write_bw=5e9, freq_hz=2e9)
    admission = BandwidthAdmission(engine, stats,
                                   {"big": 3.0, "small": 1.0})
    pool.admission = admission
    waits = {}

    def worker(tenant):
        def gen():
            # Two back-to-back windows: the second pays the sub-bucket
            # debt of the first.
            pool.delay_read(8 << 20, engine.now)
            waits[tenant] = pool.delay_read(8 << 20, engine.now)
            yield Compute(1)

        thread = engine.spawn(gen(), core=0, name=f"{tenant}.worker")
        thread.tenant = tenant

    worker("small")
    engine.run()
    assert waits["small"] > 0.0
    assert stats.get(Counter.TENANCY_BW_THROTTLE_CYCLES) > 0.0
    # The small tenant's weight share (1/4 of pool bandwidth) must
    # wait ~4x longer than the shared pool alone would impose.
    small_wait = waits["small"]

    engine2 = Engine(2)
    pool2 = SharedBandwidth(read_bw=10e9, write_bw=5e9, freq_hz=2e9)
    # No admission: the shared bucket alone.
    def bare():
        pool2.delay_read(8 << 20, engine2.now)
        waits["bare"] = pool2.delay_read(8 << 20, engine2.now)
        yield Compute(1)

    engine2.spawn(bare(), core=0)
    engine2.run()
    assert small_wait > waits["bare"] * 3.0


def test_admission_untagged_and_full_share_sail_through():
    from repro.mem.latency import SharedBandwidth
    from repro.sim.stats import Stats
    from repro.tenancy import BandwidthAdmission

    engine = Engine(1)
    pool = SharedBandwidth(read_bw=10e9, write_bw=5e9, freq_hz=2e9)
    admission = BandwidthAdmission(engine, Stats(), {"only": 1.0})
    # No current thread at all: zero extra delay.
    assert admission.extra_delay(pool, 1 << 20, 0, 0.0) == 0.0

    def gen():
        # Full share (1.0): clipped to the pool itself, no extra.
        assert admission.extra_delay(pool, 64 << 20, 0, engine.now) == 0.0
        yield Compute(1)

    thread = engine.spawn(gen(), core=0, name="only.worker")
    thread.tenant = "only"
    engine.run()


# ---------------------------------------------------------------------------
# Cross-tenant lock attribution: waits booked with the holder named.
# ---------------------------------------------------------------------------
def test_rwsem_cross_tenant_wait_attribution():
    engine = Engine(2)
    lock = RWSemaphore(engine, DEFAULT_COSTS, "mmap_sem")
    tenants = {"alpha.writer": "alpha", "beta.reader": "beta"}
    engine.tenant_resolver = tenants.get

    def writer():
        yield from lock.acquire_write()
        yield Compute(50_000)
        yield from lock.release_write()

    def reader():
        yield Compute(100)  # arrive second, while alpha holds write
        yield from lock.acquire_read()
        yield from lock.release_read()

    engine.spawn(writer(), core=0, name="alpha.writer")
    engine.spawn(reader(), core=1, name="beta.reader")
    engine.run()
    # The wait is attributed to the *waiting* tenant, with the
    # holding tenant recorded.
    assert lock.tenant_waits
    ((waiter, holder), cycles), = lock.tenant_waits.items()
    assert waiter == "beta"
    assert holder == "alpha"
    assert cycles > 0.0
    report = lock.report()
    assert report["tenant_waits"] == {"beta<-alpha": cycles}
    # The ledger books the wait to the waiting thread in the tenancy
    # domain, naming the holder.
    events = engine.ledger.to_state()["events"]
    tagged = [e for e in events
              if e[0] == "tenancy" and "blocked-by:alpha" in e[1]]
    assert tagged and tagged[0][2] == pytest.approx(cycles)
    per_thread = engine.ledger.per_thread()
    assert per_thread["beta.reader"]["tenancy"] == pytest.approx(cycles)


def test_lock_report_untouched_without_resolver():
    engine = Engine(2)
    lock = RWSemaphore(engine, DEFAULT_COSTS, "mmap_sem")

    def writer():
        yield from lock.acquire_write()
        yield Compute(10_000)
        yield from lock.release_write()

    def reader():
        yield Compute(100)
        yield from lock.acquire_read()
        yield from lock.release_read()

    engine.spawn(writer(), core=0)
    engine.spawn(reader(), core=1)
    engine.run()
    # No resolver installed (the un-tenanted machine): no tenant_waits
    # key in the report, no tenancy ledger domain.
    assert "tenant_waits" not in lock.report()
    assert engine.ledger.domain_total(CostDomain.TENANCY) == 0.0


# ---------------------------------------------------------------------------
# Ledger views: exact-match thread registry (t1 vs t10 collision guard).
# ---------------------------------------------------------------------------
def test_ledger_view_uses_exact_thread_names():
    system = System(device_bytes=1 << 30, aged=False)
    config = TenancyConfig(tenants=(
        Tenant(name="t1", requests=1), Tenant(name="t10", requests=1)))
    runtime = system.attach_tenancy(config)

    def burn(cycles):
        def gen():
            yield Compute(cycles)
        return gen()

    for name, cycles in (("t1", 1000), ("t10", 50_000)):
        tenant = runtime.tenants[name]
        thread = system.engine.spawn(burn(cycles), core=0,
                                     name=f"{name}.worker")
        runtime.register(thread, tenant)
    system.engine.run()
    # Prefix overlap must not bleed: t1's view excludes t10's cycles.
    assert sum(runtime.ledger_view("t1").values()) == pytest.approx(1000)
    assert sum(runtime.ledger_view("t10").values()) == \
        pytest.approx(50_000)
    assert runtime.tenant_of("t1.worker") == "t1"
    assert runtime.tenant_of("t10.worker") == "t10"
    assert runtime.tenant_of("t1.workerX") is None


# ---------------------------------------------------------------------------
# The consolidate driver end to end.
# ---------------------------------------------------------------------------
def _consolidate_state(config):
    system = System(device_bytes=1 << 30, aged=False)
    run = run_consolidate(system, config)
    locks = [lock.report() for lock in system.engine.locks
             if lock.acquisitions]
    state = result_state(run, system.stats, system.ledger, locks, 0.0)
    del state["wall_seconds"]
    return system, run, state


def test_consolidate_is_deterministic():
    config = consolidate_config(2, "mixed", quotas=True, antagonist=True,
                                requests=6)
    _sys1, _run1, state1 = _consolidate_state(config)
    _sys2, _run2, state2 = _consolidate_state(config)
    assert (json.dumps(state1, sort_keys=True)
            == json.dumps(state2, sort_keys=True))


def test_consolidate_observes_per_tenant_latency():
    config = consolidate_config(2, "apache", requests=5)
    system, run, _state = _consolidate_state(config)
    for name in ("t0", "t1"):
        hist = run.percentiles[f"tenant.{name}.request"]
        assert hist["count"] == 5
        assert hist["p99"] >= hist["p50"] > 0.0
        assert system.stats.get(f"tenant.{name}.requests") == 5
    assert run.counters[Counter.TENANCY_REQUESTS.value] == 10
    system.tenancy.audit()


def test_consolidate_think_time_paces_the_loop():
    fast = consolidate_config(2, "apache", requests=4)
    slow = _thinking(consolidate_config(2, "apache", requests=4), 5e6)
    _s1, run_fast, _ = _consolidate_state(fast)
    _s2, run_slow, _ = _consolidate_state(slow)
    assert run_slow.cycles > run_fast.cycles + 4 * 2.5e6 / 2
    assert run_slow.counters[Counter.TENANCY_THINK_CYCLES.value] > 0


def test_quotas_contain_the_antagonist():
    config = consolidate_config(2, "apache", quotas=True,
                                antagonist=True, requests=5)
    system, run, _state = _consolidate_state(config)
    runtime = system.tenancy
    # The hog dirtied pages, was CPU-throttled, and its page-table
    # frames are on its books.
    assert run.counters[Counter.TENANCY_ANTAGONIST_PAGES.value] > 0
    assert system.stats.get("tenant.hog.cpu_throttle_cycles") > 0
    assert runtime.accountant.peak_bytes("hog") > 0
    # Quota scans ran and the books audit clean.
    assert run.counters[Counter.TENANCY_QUOTA_SCANS.value] > 0
    runtime.audit()


def test_quotas_off_leaves_enforcement_idle():
    config = consolidate_config(2, "apache", requests=5)
    system, run, _state = _consolidate_state(config)
    # Attribution runs (resolver + accountant installed, passive
    # books), but no throttle, no admission, no controller.
    assert system.tenancy.accountant is not None
    assert system.tenancy.admission is None
    assert system.tenancy.controller is None
    assert Counter.TENANCY_QUOTA_SCANS.value not in run.counters
    assert Counter.TENANCY_THROTTLE_CYCLES.value not in run.counters


def test_audit_catches_lost_throttle_cycles():
    config = consolidate_config(1, "apache", quotas=True,
                                antagonist=True, requests=4)
    system, _run, _state = _consolidate_state(config)
    runtime = system.tenancy
    runtime.audit()
    throttle = runtime._throttles["hog"]
    throttle.throttled_cycles += 12345.0  # lose a charge
    with pytest.raises(QuotaAccountingError):
        runtime.audit()


# ---------------------------------------------------------------------------
# The quota controller's gauges: change points of the per-scan usage.
# ---------------------------------------------------------------------------
def _gauged_run(requests, monkeypatch=None):
    """A quotas-on mixed point with a hog on an aged image.  With
    ``monkeypatch``, ``QuotaController.scan`` is wrapped to record
    every tenant's usage at every scan."""
    config = consolidate_config(4, "mixed", quotas=True, antagonist=True,
                                requests=requests)
    scans = []
    if monkeypatch is not None:
        scan = QuotaController.scan

        def recording_scan(self):
            scan(self)
            scans.append((self.engine.now,
                          {name: self.accountant.usage_bytes(name)
                           for name in self.names}))

        monkeypatch.setattr(QuotaController, "scan", recording_scan)
    system = System(device_bytes=1 << 30, aged=True)
    run_consolidate(system, config)
    series = {t.name: system.stats.series(f"tenant.{t.name}.memory_bytes")
              for t in config.tenants}
    return system.stats, series, scans


def test_memory_gauges_are_change_points_of_every_scan(monkeypatch):
    _stats, series, scans = _gauged_run(16, monkeypatch)
    assert len(scans) > 100
    changed = False
    for name, points in series.items():
        values = [value for _t, value in points]
        assert all(a != b for a, b in zip(values, values[1:])), name
        assert points[0][0] == scans[0][0], name
        expected, last = [], None
        for now, usage in scans:
            if usage[name] != last:
                expected.append((now, float(usage[name])))
                last = usage[name]
        assert points == expected, name
        changed = changed or len(points) > 1
    assert changed, "no tenant's usage moved: the check is vacuous"


def test_memory_gauges_leave_scan_counters_alone(monkeypatch):
    """Every scan still runs: the scan count matches the per-scan
    record, and the recording wrapper changes nothing."""
    plain, _series, _ = _gauged_run(16)
    stats, _series, scans = _gauged_run(16, monkeypatch)
    assert stats.get(Counter.TENANCY_QUOTA_SCANS) == len(scans)
    assert plain.get(Counter.TENANCY_QUOTA_SCANS) == len(scans)


def test_memory_gauge_samples_do_not_grow_with_scans():
    small, _, _ = _gauged_run(16)
    large, _, _ = _gauged_run(32)
    scans = [s.get(Counter.TENANCY_QUOTA_SCANS) for s in (small, large)]
    samples = [sum(len(points) for points in s.samples.values())
               for s in (small, large)]
    assert 1.8 < scans[1] / scans[0] < 2.2
    assert samples[1] < 1.5 * samples[0]
    assert samples[1] < scans[1] / 10
