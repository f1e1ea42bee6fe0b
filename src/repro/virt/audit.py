"""Crash/fault hardening audit for post-copy live migration.

The robustness claim this module earns: with a migration in flight,
you can cut power at any persistence transition, arm uncorrectable
errors on not-yet-pulled pages, and stall or throttle the migration
link — and the machine still never loses an acked guest write, never
lets poison into the destination image silently, always lands every
migration in COMPLETED or ABORTED (rolled back to a consistent
source), and keeps downtime under the budget.

Three attacks, all replica-deterministic (factory + naming-counter
reset, the PR-4/PR-5 discipline):

* **Crash attack** — the crash injector's point enumeration, with a
  hypervisor attached so points land mid-migration.  A power failure
  with pulls in flight rolls the job back (the destination's volatile
  state died); the standard recovery audit then checks the source.
* **Fault attack** — the fault injector's site sweep over the same
  guests, with extra sites steered onto the *migration link* touches
  (stalls exercise the pull-timeout → retry ladder; bandwidth windows
  throttle transfers) and UE sites landing on pages migration still
  has to pull.
* **Composed attack** — crash points taken on replicas that *also*
  carry an armed fault plan; recovery must satisfy both audits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.results import RunResult
from repro.crash.checker import RecoveryChecker
from repro.crash.domain import CrashTriggered, PersistenceDomain
from repro.crash.injector import CrashInjector, CrashSummary
from repro.errors import MediaError, PoisonedPageError
from repro.faults.injector import FaultInjector, FaultSummary
from repro.faults.model import MediaFaults, SiteOutcome
from repro.faults.plan import FaultKind, FaultPlan, FaultSite, TouchRecord
from repro.obs import CostDomain, Counter
from repro.runner.manifest import SweepPoint
from repro.runner.worker import build_system
from repro.system import System
from repro.virt.hypervisor import VirtConfig

#: Guest workloads the audit sweeps (the crash workloads: they cover
#: appends+fsync, mmap stores+msync and DaxVM attachments).
AUDIT_WORKLOADS = ("syncbench", "kvstore")

#: Link stalls planted by the audit exceed ``migrate_pull_timeout``
#: so they time the pull out and enter the retry ladder.
_LINK_STALL_CYCLES = 400_000.0


def migrate_factory(*, media: str = "optane", device_gib: int = 1,
                    migrate_after: int = 24, seed: int = 0,
                    prefetch: bool = True):
    """A replica factory whose machines carry an armed hypervisor."""
    shape = SweepPoint("migrate", "", 0, media=media,
                       device_gib=device_gib, aged=False,
                       virt=VirtConfig(nested=True, migrate=True,
                                       migrate_after=migrate_after,
                                       prefetch=prefetch,
                                       seed=seed).to_state())
    return lambda: build_system(shape)


def _settle_for_crash(system: System) -> List[str]:
    """Power failed: in-flight jobs roll back (destination volatile
    state died); return the virt invariant breaches seen so far."""
    hv = system.hypervisor
    if hv is None:
        return []
    for job in hv.jobs:
        if job.in_flight:
            job._rollback_now("power failed mid-migration")
    return hv.violations()


def _settle_for_faults(system: System) -> List[str]:
    """Run ended: settle jobs and collect virt invariant breaches."""
    hv = system.hypervisor
    if hv is None:
        return []
    hv.finalize()
    found = hv.violations()
    for i, job in enumerate(hv.jobs):
        if job.in_flight:
            found.append(f"job {i} neither completed nor rolled back "
                         f"({job.state})")
        if job.absorbed:
            found.append(f"job {i} absorbed poisoned pages: "
                         f"{job.absorbed}")
    return found


class MigrateCrashInjector(CrashInjector):
    """Crash points taken mid-migration: the parent's enumeration and
    recovery audit, plus rollback semantics and virt invariants."""

    def run_point(self, point: int):
        domain = PersistenceDomain(crash_at=point)
        system = self._build(domain)
        try:
            self.workload(system)
        except CrashTriggered:
            pass
        except MediaError:
            system.engine.reap_crashed()
        virt_violations = _settle_for_crash(system)
        rng = random.Random((self.seed << 24) ^ (point * 0x9E3779B1))
        state = domain.apply_crash(rng)
        system.vfs.inode_cache.evict_all()
        system._reboot()
        outcome = RecoveryChecker(system, domain, state).run(point=point)
        outcome.violations.extend(virt_violations)
        system.stats.add(Counter.CRASH_POINTS_EXPLORED, 1)
        system.stats.add(Counter.CRASH_STORES_TRACKED,
                         len(domain.records))
        return outcome


class MigrateFaultInjector(FaultInjector):
    """Fault sites armed mid-migration: the parent's handling audit,
    plus migration settlement checks per replica."""

    def run_site(self, site: FaultSite) -> SiteOutcome:
        faults = MediaFaults(FaultPlan((site,)))
        system = self._build(faults)
        violations: List[str] = []
        sigbus: Optional[PoisonedPageError] = None
        try:
            self.workload(system)
        except PoisonedPageError as err:
            sigbus = err
            system.engine.reap_crashed()
            self._repair(system, err, violations)
        violations.extend(_settle_for_faults(system))
        outcome = self._classify(site, faults, sigbus, violations)
        handling = system.engine.ledger.domain_total(CostDomain.FAULTS)
        return SiteOutcome(touch=site.touch, kind=site.kind,
                           outcome=outcome, violations=violations,
                           bytes_lost=faults.bytes_lost,
                           handling_cycles=handling)


def link_targeted_plan(records: Sequence[TouchRecord], *, seed: int,
                       max_sites: int, link_sites: int = 6) -> FaultPlan:
    """The generated plan plus sites steered onto migration-link
    touches: alternating stalls (pull timeout -> retry ladder) and
    bandwidth windows (throttled transfers)."""
    base = FaultPlan.generate(records, seed=seed, max_sites=max_sites)
    sites = {site.touch: site for site in base.ordered()}
    link = [r.index for r in records
            if r.category.startswith("migrate-")]
    rng = random.Random(seed ^ 0x11F4)
    rng.shuffle(link)
    added = 0
    for i, touch in enumerate(link):
        if added >= link_sites:
            break
        if touch in sites:
            continue
        if i % 2 == 0:
            sites[touch] = FaultSite(touch=touch, kind=FaultKind.STALL,
                                     stall_cycles=_LINK_STALL_CYCLES)
        else:
            sites[touch] = FaultSite(touch=touch,
                                     kind=FaultKind.BW_WINDOW,
                                     factor=3.0, duration=8)
        added += 1
    return FaultPlan(sites.values())


@dataclass
class MigrateAuditSummary:
    """Aggregate of one full migration-hardening audit."""

    seeds: List[int]
    migrate_after: int
    crash: List[CrashSummary] = field(default_factory=list)
    faults: List[FaultSummary] = field(default_factory=list)
    composed: List[CrashSummary] = field(default_factory=list)
    freq_hz: float = 2.7e9

    @property
    def points_explored(self) -> int:
        return (sum(s.points_explored for s in self.crash)
                + sum(s.sites_explored for s in self.faults)
                + sum(s.points_explored for s in self.composed))

    @property
    def violations(self) -> List[str]:
        found: List[str] = []
        for s in self.crash:
            found.extend(f"crash/{s.workload}/seed{s.seed}: {v}"
                         for v in s.violations)
        for s in self.faults:
            found.extend(f"faults/{s.workload}/seed{s.seed}: {v}"
                         for v in s.violations)
        for s in self.composed:
            found.extend(f"composed/{s.workload}/seed{s.seed}: {v}"
                         for v in s.violations)
        return found

    def to_state(self) -> Dict[str, object]:
        return {
            "seeds": list(self.seeds),
            "migrate_after": self.migrate_after,
            "crash_points": sum(s.points_explored for s in self.crash),
            "fault_sites": sum(s.sites_explored for s in self.faults),
            "composed_points": sum(s.points_explored
                                   for s in self.composed),
            "points_explored": self.points_explored,
            "violations": len(self.violations),
            "crash": [s.to_state() for s in self.crash],
            "faults": [s.to_state() for s in self.faults],
            "composed": [s.to_state() for s in self.composed],
        }

    def to_result(self) -> RunResult:
        cycles = (sum(s.recovery_cycles for s in self.crash)
                  + sum(s.handling_cycles for s in self.faults)
                  + sum(s.recovery_cycles for s in self.composed))
        return RunResult(
            label=f"migrate-audit/after{self.migrate_after}",
            cycles=cycles,
            operations=float(self.points_explored),
            counters={f"virt.{key}": float(value)
                      for key, value in self.to_state().items()
                      if isinstance(value, (int, float))},
            domains={"virt": cycles},
            freq_hz=self.freq_hz,
        )


def run_migrate_audit(*, workloads: Sequence[str] = AUDIT_WORKLOADS,
                      seeds: Sequence[int] = (0, 1),
                      max_points: int = 18, max_sites: int = 12,
                      composed_points: int = 6,
                      media: str = "optane", device_gib: int = 1,
                      migrate_after: int = 24) -> MigrateAuditSummary:
    """The full audit: crash, fault and composed attacks over every
    guest workload and seed.  Zero violations is the acceptance bar."""
    summary = MigrateAuditSummary(seeds=list(seeds),
                                  migrate_after=migrate_after)
    for workload in workloads:
        for seed in seeds:
            factory = migrate_factory(media=media,
                                      device_gib=device_gib,
                                      migrate_after=migrate_after,
                                      seed=seed)
            crash_inj = MigrateCrashInjector(
                factory, workload, seed=seed, max_points=max_points)
            crash_summary = crash_inj.run()
            summary.freq_hz = crash_inj._freq
            summary.crash.append(crash_summary)

            fault_inj = MigrateFaultInjector(
                factory, workload, seed=seed, max_sites=max_sites)
            records = fault_inj.probe()
            fault_inj.plan = link_targeted_plan(
                records, seed=seed, max_sites=max_sites)
            summary.faults.append(fault_inj.run())
        if composed_points > 0:
            # Crash x faults composition: replicas carry both an armed
            # fault plan and a crash point (satellite of PR 10).
            factory = migrate_factory(media=media,
                                      device_gib=device_gib,
                                      migrate_after=migrate_after,
                                      seed=seeds[0])
            probe_inj = MigrateFaultInjector(
                factory, workload, seed=seeds[0], max_sites=4)
            plan = FaultPlan.generate(probe_inj.probe(), seed=seeds[0],
                                      max_sites=4, bw_windows=1,
                                      stalls=1)
            composed = MigrateCrashInjector(
                factory, workload, seed=seeds[0],
                max_points=composed_points, fault_plan=plan)
            summary.composed.append(composed.run())
    return summary


__all__ = ["AUDIT_WORKLOADS", "MigrateAuditSummary",
           "MigrateCrashInjector", "MigrateFaultInjector",
           "link_targeted_plan", "migrate_factory", "run_migrate_audit"]
