"""Deterministic media-fault sweeps: probe, arm, inject, audit.

The injector shares the crash injector's determinism discipline: a
probe run over a fresh machine counts every media touch the workload makes;
the injector's planner (:meth:`FaultPlan.generate` unless another is
given) draws a seeded site sample over those touches; then each site
runs on its *own* fresh replica from the same factory (a fresh
machine names its runs from 0), so the site fires on exactly the
operation the probe observed and outcomes are reproducible and
golden-file-able.

The audit is the point: an uncorrectable error must end **handled** —
remapped (loss accounted), cleared in place, or SIGBUS-delivered and
then repaired by the userspace protocol (full-block nt-store overwrite
→ DAX clear-poison → read-back verify).  Any other ending is a
violation and the ``faults`` experiment exits non-zero on it.  A
replica that carries a hypervisor also settles its migration jobs and
audits them (:meth:`~repro.virt.hypervisor.Hypervisor.settle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.crash.workloads import AuditInjector, AuditSummary
from repro.errors import PoisonedPageError
from repro.faults.model import MediaFaults, SiteOutcome
from repro.faults.plan import FaultKind, FaultPlan, FaultSite, TouchRecord
from repro.fs.block import BLOCK_SIZE
from repro.obs import CostDomain
from repro.system import System

@dataclass
class FaultSummary(AuditSummary):
    """Aggregate of one fault sweep (one workload, one seed):
    operations are explored sites, cycles are the machine's
    fault-handling work."""

    domain = "faults"
    locator = "touch"

    workload: str
    seed: int
    max_sites: int
    total_touches: int
    outcomes: List[SiteOutcome] = field(default_factory=list)
    freq_hz: float = 2.7e9

    @property
    def cycles(self) -> float:
        return sum(o.handling_cycles for o in self.outcomes)

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.outcome] = counts.get(outcome.outcome, 0) + 1
        return counts

    def to_state(self) -> Dict[str, object]:
        """Integer-exact summary for golden files and sweep caching."""
        counts = self.outcome_counts()
        return {
            "workload": self.workload,
            "seed": self.seed,
            "total_touches": self.total_touches,
            "sites_explored": self.points_explored,
            "remapped": counts.get("remapped", 0),
            "cleared": counts.get("cleared", 0),
            "sigbus_cleared": counts.get("sigbus-cleared", 0),
            "bw_windows": counts.get("bw-window", 0),
            "stalls": counts.get("stall", 0),
            "bytes_lost": sum(o.bytes_lost for o in self.outcomes),
            "violations": len(self.violations),
        }


class FaultInjector(AuditInjector):
    """Probes, arms and audits media-fault sites for one workload."""

    def __init__(self, factory: Callable[[], System], workload: str,
                 *, seed: int = 0, max_sites: int = 64,
                 plan: Callable[..., FaultPlan] = FaultPlan.generate):
        super().__init__(factory, workload, seed)
        self.max_sites = max_sites
        #: ``plan(records, seed=, max_sites=)`` draws the sites to arm
        #: from the probe's touch records.
        self.plan = plan
        #: The touch records :meth:`run` probed, kept so another plan
        #: over the same replica shape needs no second probe.
        self.records: List[TouchRecord] = []

    # -- exploration ----------------------------------------------------
    def probe(self) -> List[TouchRecord]:
        """Run once unarmed; returns the touch records."""
        faults = MediaFaults(FaultPlan.empty(), probe=True)
        system = self._build(faults)
        self.workload(system)
        return faults.records or []

    def run_site(self, site: FaultSite) -> SiteOutcome:
        """Arm one site on a fresh replica, run, audit the outcome."""
        faults = MediaFaults(FaultPlan((site,)))
        system = self._build(faults)
        violations: List[str] = []
        sigbus: Optional[PoisonedPageError] = None
        try:
            self.workload(system)
        except PoisonedPageError as err:
            sigbus = err
            # The SIGBUS killed the workload thread mid-run; retire it
            # so the repair phase can reuse the machine.
            system.engine.reap_crashed()
            self._repair(system, err, violations)
        if system.hypervisor is not None:
            violations.extend(system.hypervisor.settle())
        outcome = self._classify(site, faults, sigbus, violations)
        handling = system.engine.ledger.domain_total(CostDomain.FAULTS)
        return SiteOutcome(touch=site.touch, kind=site.kind,
                           outcome=outcome, violations=violations,
                           bytes_lost=faults.bytes_lost,
                           handling_cycles=handling)

    def _repair(self, system: System, err: PoisonedPageError,
                violations: List[str]) -> None:
        """The userspace poison-repair protocol after a SIGBUS.

        Overwrite the whole poisoned block through the FS write path
        (nt-stores → the driver's clear-poison), then read it back to
        prove it is serviceable again.  Uses only file descriptors —
        the dead thread may have left mmap state behind, and the FS
        path takes none of its locks.
        """
        fs = system.fs

        def repair():
            f = yield from fs.open(err.path)
            offset = err.file_page * BLOCK_SIZE
            yield from fs.write(f, offset, BLOCK_SIZE)
            yield from fs.read(f, offset, BLOCK_SIZE)
            yield from fs.close(f)

        try:
            system.spawn(repair(), core=0, name="faults-repair")
            system.run()
        except PoisonedPageError:
            system.engine.reap_crashed()
            violations.append(
                f"poison on {err.path} page {err.file_page} survived "
                f"the clear-poison repair")

    def _classify(self, site: FaultSite, faults: MediaFaults,
                  sigbus: Optional[PoisonedPageError],
                  violations: List[str]) -> str:
        if site.kind is FaultKind.STALL:
            if faults.stalls == 0:
                violations.append("stall site never fired")
            return "stall"
        if site.kind is FaultKind.BW_WINDOW:
            if faults.bw_entered == 0:
                violations.append("bandwidth window never opened")
            return "bw-window"
        # UE kinds: the error must have been *handled*, not just armed.
        if faults.armed == 0:
            violations.append("UE site never armed (replica drift)")
            return "not-armed"
        if sigbus is not None:
            if faults.poisoned:
                return "sigbus-lost"
            if faults.cleared == 0 and faults.remapped == 0:
                violations.append(
                    "SIGBUS delivered but no clear/remap recorded")
            return "sigbus-cleared"
        if faults.remapped:
            return "remapped"
        if faults.cleared:
            return "cleared"
        if faults.poisoned or self._still_bad(faults):
            violations.append(
                "UE armed but never remapped, cleared or delivered "
                "(silent latent error)")
            return "latent"
        return "handled"

    @staticmethod
    def _still_bad(faults: MediaFaults) -> bool:
        system = faults.system
        return bool(system is not None and system.fs.device.badblocks)

    # -- the sweep -------------------------------------------------------
    def run(self) -> FaultSummary:
        self.records = records = self.probe()
        plan = self.plan(records, seed=self.seed, max_sites=self.max_sites)
        summary = FaultSummary(workload=self.workload_name,
                               seed=self.seed, max_sites=self.max_sites,
                               total_touches=len(records),
                               freq_hz=self._freq)
        for site in plan.ordered():
            summary.outcomes.append(self.run_site(site))
        return summary


def run_faults(factory: Callable[[], System], workload: str,
               *, seed: int = 0, max_sites: int = 64) -> FaultSummary:
    """One-call media-fault sweep: probe, arm, inject, audit."""
    return FaultInjector(factory, workload, seed=seed,
                         max_sites=max_sites).run()


__all__ = ["FaultInjector", "FaultSummary", "run_faults"]
