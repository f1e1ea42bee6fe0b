"""Guest VMs over DAX files + post-copy live migration (DESIGN §15).

Covers the hypervisor layer end to end: double-attach refusal, the
pass-through no-op promise, nested walk pricing, a full migration
(pause → downtime bound → demand pulls + prefetch → COMPLETED), the
bounded retry ladder on a stalled link (degraded fallback and the
abort path), the forced-degraded diagnostic, the crash x faults
composition satellite, and a compact end-to-end hardening audit.
"""

import hashlib
import json

import pytest

from repro.config import MEDIA_PRESETS
from repro.crash.domain import PersistenceDomain
from repro.crash.injector import CrashInjector, run_crash
from repro.crash.workloads import CRASH_WORKLOADS
from repro.errors import InvalidArgumentError
from repro.faults.injector import FaultInjector, run_faults
from repro.faults.model import MediaFaults
from repro.faults.plan import FaultPlan
from repro.fs.nova import Nova
from repro.obs import CostDomain, Counter
from repro.runner.manifest import SweepPoint
from repro.runner.worker import replicas
from repro.system import System
from repro.tenancy import consolidate_config
from repro.virt import (
    MigrationState,
    VirtConfig,
    migrate_factory,
    run_migrate,
    run_migrate_audit,
)


def _system() -> System:
    return System(costs=MEDIA_PRESETS["optane"](), device_bytes=1 << 30,
                  aged=False)


#: The migration audit's replica builder: a fresh 1 GiB optane machine.
_BUILD = replicas(SweepPoint("migrate-audit", "migrate", 0, device_gib=1,
                             aged=False))


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


def _run_migrate_of(name):
    system = _system()
    system.attach_hypervisor(VirtConfig())
    return run_migrate(system, name)


@pytest.mark.parametrize("audit", [
    lambda name: run_crash(_system, name),
    lambda name: run_faults(_system, name),
    _run_migrate_of,
], ids=["crash", "faults", "run_migrate"])
def test_every_audit_rejects_an_unknown_workload_naming_the_known(audit):
    """The crash, fault and migration audits look a workload up in the
    one registry, so each refuses the same way."""
    with pytest.raises(InvalidArgumentError) as excinfo:
        audit("no-such-guest")
    message = str(excinfo.value)
    assert "'no-such-guest'" in message
    assert f"known: {sorted(CRASH_WORKLOADS)}" in message


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
        assert not job.violations
    per_job = (result.counters["virt.downtime_cycles"]
               / result.counters["virt.migrations_started"])
    assert 0.0 < per_job <= system.costs.migrate_downtime_budget
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
        assert job.degraded_reason == "pull retries exhausted"
        assert not job.pulled, "no page can cross a dead link"
        assert job.state is MigrationState.ABORTED
    assert not hv.violations()


# -- crash x faults composition (satellite) ------------------------------
def test_crash_points_compose_with_an_armed_fault_plan():
    probe = FaultInjector(_system, "syncbench", seed=0, max_sites=4)
    plan = FaultPlan.generate(probe.probe(), seed=0, max_sites=4,
                              bw_windows=1, stalls=1)
    summary = CrashInjector(_system, "syncbench", seed=0, max_points=6,
                            fault_plan=plan).run()
    assert summary.points_explored > 0
    assert summary.invariant_violations == 0


# -- the hardening audit, compactly --------------------------------------
def test_migrate_audit_finds_no_violations():
    summary = run_migrate_audit(_BUILD, seeds=(0, 1), max_points=8,
                                max_sites=6, composed_points=6)
    # Both guest workloads at both seeds, composed per workload.
    assert len(summary.crash) == len(summary.faults) == 4
    assert len(summary.composed) == 2
    assert summary.points_explored >= 56
    assert summary.violations == []
    state = summary.to_state()
    assert state["points_explored"] == summary.points_explored
    assert summary.to_result().operations == float(
        summary.points_explored)


def test_migrate_audit_probes_each_fault_audit_once(monkeypatch):
    """The fault plan is given up front, so each fault audit probes
    once, and the composed plan is drawn over the first seed's
    fault-audit probe: four probes for four audits, and one machine
    fewer per probe saved.  The summary is the one the extra probes
    gave."""
    probes, built = [], []
    probe, build = FaultInjector.probe, System.__init__

    def counted_probe(injector):
        probes.append(injector.workload_name)
        return probe(injector)

    def counted_build(system, *args, **kwargs):
        build(system, *args, **kwargs)
        built.append(system)

    monkeypatch.setattr(FaultInjector, "probe", counted_probe)
    monkeypatch.setattr(System, "__init__", counted_build)
    summary = run_migrate_audit(_BUILD, seeds=(0, 1), max_points=8,
                                max_sites=6, composed_points=6)
    assert len(probes) == 4
    assert len(built) == 64
    state = summary.to_state()
    assert (state["crash_points"], state["fault_sites"],
            state["composed_points"], state["points_explored"]) == (
                32, 48, 12, 92)
    digest = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == "718060ec26c8a2b7"


def test_migrate_replicas_take_the_audit_point_shape():
    """The audit's replicas are its point's machine plus an armed
    hypervisor, so the machine flags of ``python -m repro migrate``
    reach them."""
    build = replicas(SweepPoint("migrate-audit", "migrate", 0,
                                device_gib=1, aged=False, fs_type="nova",
                                node_kinds="ddr,ddr"))
    system = migrate_factory(build, seed=1)()
    assert isinstance(system.fs, Nova)
    assert system.topology.num_nodes == 2
    assert system.hypervisor.config.migrate
    assert system.hypervisor.config.seed == 1


def _breached_replicas():
    """Migrating replicas whose every migration job records a breach."""
    factory = migrate_factory(_BUILD)

    def build():
        system = factory()
        hv = system.hypervisor
        start = hv.start_migration

        def start_breached(guest):
            job = start(guest)
            job.violations.append("planted breach")
            return job

        hv.start_migration = start_breached
        return system
    return build


@pytest.mark.parametrize("audit", [
    lambda factory: CrashInjector(factory, "syncbench").run(),
    lambda factory: FaultInjector(factory, "syncbench",
                                  max_sites=4).run(),
], ids=["crash", "faults"])
def test_a_replica_hypervisor_breach_reaches_a_plain_injector(audit):
    """A plain injector reads the breaches of a replica that carries a
    hypervisor: a crash point after the migration started, and every
    fault site, reports the job's recorded breach."""
    clean = audit(migrate_factory(_BUILD))
    assert clean.violations == []
    summary = audit(_breached_replicas())
    breaches = [v for v in summary.violations
                if v.endswith("job 0: planted breach")]
    assert breaches
    assert len(summary.violations) == len(breaches)
