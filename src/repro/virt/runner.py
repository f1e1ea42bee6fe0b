"""Run one guest workload under the hypervisor and report it.

``run_migrate`` drives a guest workload (the short, deterministic
crash workloads double as guest drivers — they exercise mmap stores,
msync epochs and DaxVM attachments, exactly the surfaces migration
intercepts) on a system with a hypervisor attached, settles every
migration job and shapes the outcome as a
:class:`~repro.analysis.results.RunResult` whose counters carry the
whole ``virt.*`` namespace plus per-job downtime.  Every ``migrate``
sweep point goes through here.
"""

from __future__ import annotations

from repro.analysis.results import RunResult
from repro.crash.workloads import CRASH_WORKLOADS
from repro.errors import InvalidArgumentError
from repro.obs import CostDomain, Counter

#: Guest workloads runnable under migration (name -> fn(system)).
MIGRATE_WORKLOADS = dict(CRASH_WORKLOADS)

#: The virt counter namespace reported by every migrate run.
VIRT_COUNTERS = (
    Counter.VIRT_GUEST_ACCESSES,
    Counter.VIRT_NESTED_WALK_CYCLES,
    Counter.VIRT_MIGRATIONS_STARTED,
    Counter.VIRT_MIGRATIONS_COMPLETED,
    Counter.VIRT_MIGRATIONS_ABORTED,
    Counter.VIRT_DOWNTIME_CYCLES,
    Counter.VIRT_PAGES_PULLED,
    Counter.VIRT_PREFETCHED_PAGES,
    Counter.VIRT_PULL_RETRIES,
    Counter.VIRT_PULL_POISONED,
    Counter.VIRT_DEGRADED_ACCESSES,
)


def run_migrate(system, workload: str = "syncbench") -> RunResult:
    """Run ``workload`` as a guest on ``system`` (hypervisor attached
    via ``system.attach_hypervisor``), settle migrations, report."""
    hv = system.hypervisor
    if hv is None:
        raise InvalidArgumentError(
            "run_migrate needs a hypervisor: call "
            "system.attach_hypervisor(VirtConfig(...)) first")
    fn = MIGRATE_WORKLOADS.get(workload)
    if fn is None:
        raise InvalidArgumentError(
            f"unknown migrate workload {workload!r}; known: "
            f"{sorted(MIGRATE_WORKLOADS)}")
    fn(system)
    hv.finalize()
    stats = system.stats
    ledger = system.engine.ledger
    counters = {c.value: stats.get(c) for c in VIRT_COUNTERS}
    counters["virt.jobs"] = float(len(hv.jobs))
    counters["virt.violations"] = float(len(hv.violations()))
    operations = stats.get(Counter.VIRT_GUEST_ACCESSES) or 1.0
    return RunResult(
        label=f"migrate:{workload}",
        cycles=system.engine.now,
        operations=operations,
        counters=counters,
        domains={CostDomain.VIRT.value:
                 ledger.domain_total(CostDomain.VIRT)},
        freq_hz=system.costs.machine.freq_hz,
    )


__all__ = ["MIGRATE_WORKLOADS", "run_migrate"]
