"""Deterministic crash-point enumeration and injection.

The injector turns "does this persistence discipline actually work?"
into an exhaustive sweep: every persistence-state transition the
workload performs (store, flush, fence, commit) is a candidate crash
point.  An unarmed probe run counts the transitions; the selected
points are then all explored in **one** more run of the workload.  At
each selected transition *k*, before it applies, the domain calls
back: the injector copies the machine's storage
(:class:`~repro.crash.image.StorageImage`), applies the crash to the
copy (seeded per-point RNG decides whether unfenced flushes drained),
and hands the freshly mounted copy to the :class:`RecoveryChecker`.
The copy is then dropped and the original run continues to the next
point, so no prefix is ever re-run.

Determinism is load-bearing: every run is on a fresh machine from the
factory, and a fresh machine names its runs from 0, so transition *k*
of the exploring run is transition *k* of the probe and summaries are
reproducible and golden-file-able.  A replica that carries a
hypervisor is a migrating guest: each point also reads the breaches
its migration jobs recorded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.crash.checker import CrashPointOutcome, RecoveryChecker
from repro.crash.domain import PersistenceDomain
from repro.crash.image import StorageImage
from repro.crash.workloads import AuditInjector, AuditSummary
from repro.errors import MediaError
from repro.faults.model import MediaFaults
from repro.faults.plan import FaultPlan
from repro.system import System


@dataclass
class CrashSummary(AuditSummary):
    """Aggregate of one crash sweep (one workload, one seed):
    operations are explored crash points, cycles are mount-time
    recovery work."""

    domain = "crash"
    locator = "point"

    workload: str
    seed: int
    max_points: int
    total_transitions: int
    outcomes: List[CrashPointOutcome] = field(default_factory=list)
    freq_hz: float = 2.7e9

    @property
    def invariant_violations(self) -> int:
        return sum(len(o.violations) for o in self.outcomes)

    @property
    def cycles(self) -> float:
        return sum(o.recovery_cycles for o in self.outcomes)

    def to_state(self) -> Dict[str, object]:
        """Integer-exact summary for golden files and sweep caching."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "total_transitions": self.total_transitions,
            "points_explored": self.points_explored,
            "invariant_violations": self.invariant_violations,
            "lost_records": sum(o.lost_records for o in self.outcomes),
            "replayed_records": sum(o.replayed_records
                                    for o in self.outcomes),
            "rolled_back_txns": sum(o.rolled_back_txns
                                    for o in self.outcomes),
            "orphan_blocks": sum(o.orphan_blocks for o in self.outcomes),
            "tables_repaired": sum(o.tables_repaired
                                   for o in self.outcomes),
            "ptes_replayed": sum(o.ptes_replayed for o in self.outcomes),
        }


class CrashInjector(AuditInjector):
    """Enumerates, injects and verifies crash points for one workload."""

    def __init__(self, factory: Callable[[], System], workload: str,
                 *, seed: int = 0, max_points: int = 64,
                 fault_plan: Optional[FaultPlan] = None):
        super().__init__(factory, workload, seed)
        self.max_points = max_points
        #: Optional armed media-fault plan attached to both runs (probe
        #: included, so transition counts line up): crash points
        #: then compose with live UEs/stalls, and recovery must satisfy
        #: both the crash audit and the fault accounting.
        self.fault_plan = fault_plan

    def _replica(self, domain: PersistenceDomain) -> System:
        """A replica with ``domain`` and the armed fault plan, if any."""
        faults = (None if self.fault_plan is None
                  else MediaFaults(self.fault_plan))
        return self._build(faults, domain)

    # -- exploration -------------------------------------------------------
    def probe(self) -> int:
        """Run once unarmed; returns the number of crash candidates."""
        domain = PersistenceDomain()
        system = self._replica(domain)
        try:
            self.workload(system)
        except MediaError:
            # An armed UE killed the workload early; the transitions
            # performed up to that point are still the crash candidates.
            system.engine.reap_crashed()
        return domain.transitions

    def explore(self, points: Sequence[int]) -> List[CrashPointOutcome]:
        """Run the workload once and crash a storage image of it at
        each of the distinct ``points``; outcomes in point order."""
        points = sorted(set(points))
        outcomes: List[CrashPointOutcome] = []
        domain = PersistenceDomain()
        system = self._replica(domain)
        domain.checkpoint_at(points, lambda point: outcomes.append(
            self._crash_image(system, point)))
        try:
            self.workload(system)
        except MediaError:
            # An armed UE killed the workload: power fails wherever the
            # domain got to for every point the run never reached.
            pass
        for point in points[len(outcomes):]:
            outcomes.append(self._crash_image(system, point))
        return outcomes

    def _crash_image(self, system: System, point: int) -> CrashPointOutcome:
        """Power-fail a copy of ``system``'s storage, recover and audit
        it; ``system`` itself is left as it was."""
        image = StorageImage(system)
        # Per-point RNG: decides (deterministically, independently per
        # point) which unfenced flushes drained before power was lost.
        rng = random.Random((self.seed << 24) ^ (point * 0x9E3779B1))
        state = image.persistence.apply_crash(rng)
        outcome = RecoveryChecker(image, image.persistence,
                                  state).run(point=point)
        if system.hypervisor is not None:
            # Power failure rolls in-flight jobs back, which touches
            # only volatile state and never a job's recorded breaches,
            # so the running machine's breaches hold at this point.
            outcome.violations.extend(system.hypervisor.violations())
        return outcome

    def select_points(self, total: int) -> List[int]:
        """All points when they fit the budget, else a seeded sample."""
        if total <= self.max_points:
            return list(range(total))
        return sorted(random.Random(self.seed).sample(range(total),
                                                      self.max_points))

    def run(self) -> CrashSummary:
        total = self.probe()
        summary = CrashSummary(workload=self.workload_name,
                               seed=self.seed,
                               max_points=self.max_points,
                               total_transitions=total,
                               freq_hz=self._freq)
        summary.outcomes = self.explore(self.select_points(total))
        return summary


def run_crash(factory: Callable[[], System], workload: str,
              *, seed: int = 0, max_points: int = 64) -> CrashSummary:
    """One-call crash sweep: enumerate, inject, recover, audit."""
    return CrashInjector(factory, workload, seed=seed,
                         max_points=max_points).run()


__all__ = ["CrashInjector", "CrashSummary", "run_crash"]
