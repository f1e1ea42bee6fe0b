"""Crash/fault hardening audit for post-copy live migration.

The robustness claim this module earns: with a migration in flight,
you can cut power at any persistence transition, arm uncorrectable
errors on not-yet-pulled pages, and stall or throttle the migration
link — and the machine still never loses an acked guest write, never
lets poison into the destination image silently, always lands every
migration in COMPLETED or ABORTED (rolled back to a consistent
source), and keeps downtime under the budget.

Three attacks, all replica-deterministic (each replica is a fresh
machine from one factory, and a fresh machine names its runs from 0),
run by the plain crash and fault injectors on replicas that carry an
armed hypervisor:

* **Crash attack** — the crash injector's point enumeration, with a
  hypervisor attached so points land mid-migration.  A power failure
  with pulls in flight rolls the job back (the destination's volatile
  state died); the standard recovery audit then checks the source,
  and the injector adds the jobs' recorded breaches.
* **Fault attack** — the fault injector's site sweep over the same
  guests, with extra sites steered onto the *migration link* touches
  (stalls exercise the pull-timeout → retry ladder; bandwidth windows
  throttle transfers) and UE sites landing on pages migration still
  has to pull.  The injector settles and audits every job per site.
* **Composed attack** — crash points taken on replicas that *also*
  carry an armed fault plan; recovery must satisfy both audits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.crash.injector import CrashInjector, CrashSummary
from repro.crash.workloads import AuditSummary
from repro.faults.injector import FaultInjector, FaultSummary
from repro.faults.plan import (
    BW_WINDOW_FACTOR,
    BW_WINDOW_TOUCHES,
    FaultKind,
    FaultPlan,
    FaultSite,
    TouchRecord,
)
from repro.system import System
from repro.virt.hypervisor import VirtConfig

#: Guest workloads the audit sweeps: of the audit workloads, the two
#: that cover appends+fsync, mmap stores+msync and DaxVM attachments.
AUDIT_WORKLOADS = ("syncbench", "kvstore")

#: The audit's guests pause for migration after 24 guest accesses,
#: and resume with the prefetch kthread on.
MIGRATE_AFTER = 24

#: Link stalls planted by the audit exceed ``migrate_pull_timeout``
#: so they time the pull out and enter the retry ladder.
_LINK_STALL_CYCLES = 400_000.0
#: Sites a link-targeted plan steers onto migration-link touches.
_LINK_SITES = 6


def migrate_factory(build: Callable[..., System],
                    seed: int = 0) -> Callable[[], System]:
    """A replica factory whose machines carry an armed hypervisor:
    ``build`` is an audit point's :func:`~repro.runner.worker.replicas`
    builder, so the replicas take the point's shape."""
    virt = VirtConfig(nested=True, migrate=True,
                      migrate_after=MIGRATE_AFTER, prefetch=True,
                      seed=seed).to_state()
    return lambda: build(virt=virt)


def link_targeted_plan(records: Sequence[TouchRecord], *, seed: int,
                       max_sites: int) -> FaultPlan:
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
        if added >= _LINK_SITES:
            break
        if touch in sites:
            continue
        if i % 2 == 0:
            sites[touch] = FaultSite(touch=touch, kind=FaultKind.STALL,
                                     stall_cycles=_LINK_STALL_CYCLES)
        else:
            sites[touch] = FaultSite(touch=touch,
                                     kind=FaultKind.BW_WINDOW,
                                     factor=BW_WINDOW_FACTOR,
                                     duration=BW_WINDOW_TOUCHES)
        added += 1
    return FaultPlan(sites.values())


@dataclass
class MigrateAuditSummary(AuditSummary):
    """Aggregate of one full migration-hardening audit: the crash,
    fault and composed summaries, summed through their own totals."""

    domain = "virt"

    seeds: List[int]
    crash: List[CrashSummary] = field(default_factory=list)
    faults: List[FaultSummary] = field(default_factory=list)
    composed: List[CrashSummary] = field(default_factory=list)
    freq_hz: float = 2.7e9

    def _attacks(self):
        return (("crash", self.crash), ("faults", self.faults),
                ("composed", self.composed))

    @property
    def label(self) -> str:
        return f"migrate-audit/after{MIGRATE_AFTER}"

    @property
    def points_explored(self) -> int:
        return sum(s.points_explored for _, summaries in self._attacks()
                   for s in summaries)

    @property
    def cycles(self) -> float:
        return sum(sum(s.cycles for s in summaries)
                   for _, summaries in self._attacks())

    @property
    def violations(self) -> List[str]:
        return [f"{attack}/{s.workload}/seed{s.seed}: {v}"
                for attack, summaries in self._attacks()
                for s in summaries for v in s.violations]

    def to_state(self) -> Dict[str, object]:
        return {
            "seeds": list(self.seeds),
            "migrate_after": MIGRATE_AFTER,
            "crash_points": sum(s.points_explored for s in self.crash),
            "fault_sites": sum(s.points_explored for s in self.faults),
            "composed_points": sum(s.points_explored
                                   for s in self.composed),
            "points_explored": self.points_explored,
            "violations": len(self.violations),
            "crash": [s.to_state() for s in self.crash],
            "faults": [s.to_state() for s in self.faults],
            "composed": [s.to_state() for s in self.composed],
        }


def run_migrate_audit(build: Callable[..., System], *,
                      seeds: Sequence[int] = (0, 1),
                      max_points: int = 18, max_sites: int = 12,
                      composed_points: int = 6) -> MigrateAuditSummary:
    """The full audit: crash, fault and composed attacks over every
    guest workload and seed, on replicas ``build`` shapes (see
    :func:`migrate_factory`).  Zero violations is the acceptance
    bar."""
    summary = MigrateAuditSummary(seeds=list(seeds))
    for workload in AUDIT_WORKLOADS:
        first = None
        for seed in seeds:
            factory = migrate_factory(build, seed=seed)
            crash_summary = CrashInjector(
                factory, workload, seed=seed, max_points=max_points).run()
            summary.freq_hz = crash_summary.freq_hz
            summary.crash.append(crash_summary)
            injector = FaultInjector(factory, workload, seed=seed,
                                     max_sites=max_sites,
                                     plan=link_targeted_plan)
            summary.faults.append(injector.run())
            if first is None:
                first = injector
        if composed_points > 0:
            # Crash x faults composition: replicas carry both an armed
            # fault plan and a crash point.  The plan is drawn over the
            # first seed's fault-audit probe: the same replica shape.
            plan = FaultPlan.generate(first.records, seed=seeds[0],
                                      max_sites=4, bw_windows=1,
                                      stalls=1)
            summary.composed.append(CrashInjector(
                first.factory, workload, seed=seeds[0],
                max_points=composed_points, fault_plan=plan).run())
    return summary


__all__ = ["AUDIT_WORKLOADS", "MigrateAuditSummary",
           "link_targeted_plan", "migrate_factory", "run_migrate_audit"]
