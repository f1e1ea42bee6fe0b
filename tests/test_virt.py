"""Guest VMs over DAX files + post-copy live migration (DESIGN §15).

Covers the hypervisor layer end to end: double-attach refusal, the
pass-through no-op promise, nested walk pricing, a full migration
(pause → downtime bound → demand pulls + prefetch → COMPLETED), the
bounded retry ladder on a stalled link (degraded fallback and the
abort path), the forced-degraded diagnostic, the crash x faults
composition satellite, and a compact end-to-end hardening audit.
"""

import pytest

from repro.config import MEDIA_PRESETS
from repro.crash.domain import PersistenceDomain
from repro.crash.workloads import CRASH_WORKLOADS
from repro.errors import InvalidArgumentError
from repro.faults.injector import FaultInjector
from repro.faults.model import MediaFaults
from repro.faults.plan import FaultPlan
from repro.obs import CostDomain, Counter
from repro.runner.worker import _reset_naming_counters
from repro.system import System
from repro.tenancy import consolidate_config
from repro.virt import (
    MigrationState,
    VirtConfig,
    run_migrate,
    run_migrate_audit,
)


def _system() -> System:
    _reset_naming_counters()
    return System(costs=MEDIA_PRESETS["optane"](), device_bytes=1 << 30,
                  aged=False)


def _factory() -> System:
    return System(costs=MEDIA_PRESETS["optane"](), device_bytes=1 << 30,
                  aged=False)


class _StalledLink(MediaFaults):
    """A fault model whose migration link never answers: every
    ``link_touch`` stalls past ``migrate_pull_timeout``, while map and
    block touches stay benign (empty plan)."""

    def __init__(self):
        super().__init__(FaultPlan(()))

    def link_touch(self, kind, nbytes):
        return (400_000.0, 1.0)


# -- attach guards (satellite: every attach refuses a double) -----------
def test_attach_hypervisor_twice_refused():
    system = _system()
    system.attach_hypervisor(VirtConfig())
    with pytest.raises(ValueError, match="already attached"):
        system.attach_hypervisor(VirtConfig())


def test_attach_faults_twice_refused():
    system = _system()
    system.attach_faults(MediaFaults(FaultPlan(())))
    with pytest.raises(ValueError, match="already attached"):
        system.attach_faults(MediaFaults(FaultPlan(())))


def test_attach_tiering_twice_refused():
    system = _system()
    system.attach_tiering()
    with pytest.raises(ValueError, match="already attached"):
        system.attach_tiering()


def test_attach_tenancy_twice_refused():
    system = _system()
    runtime = system.attach_tenancy(consolidate_config(2, quotas=True))
    with pytest.raises(ValueError, match="already attached"):
        system.attach_tenancy(consolidate_config(2, quotas=True))
    assert system.tenancy is runtime


def test_attach_persistence_twice_refused():
    system = _system()
    domain = PersistenceDomain()
    system.attach_persistence(domain)
    with pytest.raises(ValueError, match="already attached"):
        system.attach_persistence(PersistenceDomain())
    assert system.fs.persistence is domain


# -- config validation ---------------------------------------------------
def test_migrate_after_must_be_positive():
    with pytest.raises(InvalidArgumentError):
        VirtConfig(migrate=True, migrate_after=0)


def test_run_migrate_needs_hypervisor_and_known_workload():
    with pytest.raises(InvalidArgumentError, match="hypervisor"):
        run_migrate(_system())
    system = _system()
    system.attach_hypervisor(VirtConfig())
    with pytest.raises(InvalidArgumentError, match="unknown"):
        run_migrate(system, "no-such-guest")


# -- the pass-through promise -------------------------------------------
def test_passive_hypervisor_is_inert():
    system = _system()
    hv = system.attach_hypervisor(VirtConfig())
    CRASH_WORKLOADS["syncbench"](system)
    hv.finalize()
    assert hv.guests, "processes must still enroll as guests"
    assert not hv.jobs
    assert system.stats.get(Counter.VIRT_GUEST_ACCESSES) == 0
    assert system.engine.ledger.domain_total(CostDomain.VIRT) == 0.0


def test_nested_walks_cost_more_than_bare():
    bare = _system()
    CRASH_WORKLOADS["syncbench"](bare)
    nested = _system()
    nested.attach_hypervisor(VirtConfig(nested=True))
    CRASH_WORKLOADS["syncbench"](nested)
    surcharge = nested.stats.get(Counter.VIRT_NESTED_WALK_CYCLES)
    assert surcharge > 0
    assert nested.engine.now > bare.engine.now


# -- a clean migration ---------------------------------------------------
def test_migration_completes_within_downtime_budget():
    system = _system()
    hv = system.attach_hypervisor(VirtConfig(nested=True, migrate=True,
                                             migrate_after=8))
    result = run_migrate(system, "syncbench")
    assert hv.jobs, "the trigger threshold must have been reached"
    for job in hv.jobs:
        assert job.state is MigrationState.COMPLETED
        assert job.resident <= job.pulled
        assert 0.0 < job.downtime_cycles <= \
            system.costs.migrate_downtime_budget
        assert not job.violations
    assert result.counters["virt.pages_pulled"] > 0
    assert result.counters["virt.violations"] == 0
    assert result.domains["virt"] > 0.0


def test_prefetcher_moves_pages_the_demand_path_does_not():
    def pulled(prefetch):
        system = _system()
        system.attach_hypervisor(VirtConfig(nested=True, migrate=True,
                                            migrate_after=8,
                                            prefetch=prefetch))
        result = run_migrate(system, "syncbench")
        return result.counters["virt.prefetched_pages"]

    assert pulled(True) > 0
    assert pulled(False) == 0


# -- the retry ladder (satellite: stalls stay in-sim) --------------------
def test_stalled_link_walks_retry_ladder_then_degrades():
    system = _system()
    system.attach_faults(_StalledLink())
    hv = system.attach_hypervisor(VirtConfig(migrate=True,
                                             migrate_after=8,
                                             prefetch=False))
    CRASH_WORKLOADS["syncbench"](system)
    assert system.stats.get(Counter.VIRT_PULL_RETRIES) == \
        system.costs.migrate_max_pull_retries * len(hv.jobs)
    assert system.stats.get(Counter.VIRT_DEGRADED_ACCESSES) > 0
    hv.finalize()
    for job in hv.jobs:
        assert job.retries == system.costs.migrate_max_pull_retries
        assert job.degraded_reason == "pull retries exhausted"
        assert not job.pulled, "no page can cross a dead link"
        assert job.state is MigrationState.ABORTED
    assert not hv.violations()


def test_stalled_link_aborts_when_degraded_mode_is_disallowed():
    system = _system()
    system.attach_faults(_StalledLink())
    hv = system.attach_hypervisor(VirtConfig(migrate=True,
                                             migrate_after=8,
                                             prefetch=False,
                                             degraded_ok=False))
    CRASH_WORKLOADS["syncbench"](system)
    hv.finalize()
    for job in hv.jobs:
        assert job.state is MigrationState.ABORTED
        assert job.abort_reason == "pull retries exhausted"
        assert not job.pulled, "rollback must discard the partial image"
    assert system.stats.get(Counter.VIRT_MIGRATIONS_ABORTED) == \
        float(len(hv.jobs))
    assert not hv.violations()


def test_forced_degraded_serves_remotely_and_rolls_back():
    system = _system()
    hv = system.attach_hypervisor(VirtConfig(migrate=True,
                                             migrate_after=8,
                                             prefetch=False,
                                             force_degraded=True))
    result = run_migrate(system, "syncbench")
    assert result.counters["virt.degraded_accesses"] > 0
    assert result.counters["virt.pages_pulled"] == 0
    for job in hv.jobs:
        assert job.state is MigrationState.ABORTED
    assert not hv.violations()


# -- crash x faults composition (satellite) ------------------------------
def test_crash_points_compose_with_an_armed_fault_plan():
    from repro.crash.injector import CrashInjector

    probe = FaultInjector(_factory, "syncbench", seed=0, max_sites=4)
    plan = FaultPlan.generate(probe.probe(), seed=0, max_sites=4,
                              bw_windows=1, stalls=1)
    summary = CrashInjector(_factory, "syncbench", seed=0, max_points=6,
                            fault_plan=plan).run()
    assert summary.points_explored > 0
    assert summary.invariant_violations == 0


# -- the hardening audit, compactly --------------------------------------
def test_migrate_audit_finds_no_violations():
    summary = run_migrate_audit(seeds=(0, 1), max_points=8, max_sites=6,
                                composed_points=6)
    # Both guest workloads at both seeds, composed per workload.
    assert len(summary.crash) == len(summary.faults) == 4
    assert len(summary.composed) == 2
    assert summary.points_explored >= 56
    assert summary.violations == []
    state = summary.to_state()
    assert state["points_explored"] == summary.points_explored
    assert summary.to_result().operations == float(
        summary.points_explored)
