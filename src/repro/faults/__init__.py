"""Deterministic media-fault injection (uncorrectable errors,
bandwidth windows, device stalls) and the kernel hardening it
exercises — badblocks, extent remap, ``memory_failure()``/SIGBUS and
DAX clear-poison.

Public surface::

    from repro.faults import FaultPlan, FaultKind, MediaFaults, run_faults

    summary = run_faults(lambda: System(device_bytes=1 << 30),
                         "syncbench", seed=7, max_sites=64)
    assert not summary.violations

The workloads are the audit registry's
(:data:`repro.crash.workloads.CRASH_WORKLOADS`), shared with the crash
and migration audits; ``FaultInjector(plan=...)`` takes the planner
that draws the armed sites from the probe's touch records.
"""

from repro.faults.injector import FaultInjector, FaultSummary, run_faults
from repro.faults.model import MediaFaults, SiteOutcome
from repro.faults.plan import FaultKind, FaultPlan, FaultSite

__all__ = [
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSite",
    "FaultSummary",
    "MediaFaults",
    "SiteOutcome",
    "run_faults",
]
