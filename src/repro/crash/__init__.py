"""repro.crash — persistence-domain model, crash injection, recovery audit.

The subsystem that checks the paper's *durability* claims the way the
rest of the simulator checks its *performance* claims:

* :class:`PersistenceDomain` (``domain``) — shadows every simulated
  store through volatile → flushed → fence-ordered (ADR) states;
* :class:`CrashInjector` (``injector``) — runs a workload once and
  crashes a copy of its storage at every selected persistence-state
  transition;
* :class:`StorageImage` (``image``) — that copy: what a power failure
  leaves of a machine, mounted on a fresh engine;
* :class:`RecoveryChecker` (``checker``) — replays the journal,
  re-syncs persistent file tables, reclaims orphans and asserts the
  no-acked-data-lost invariants;
* ``workloads`` — small durability-heavy drivers registered in
  :data:`CRASH_WORKLOADS`, the one registry of the crash, media-fault
  and migration audits (:func:`audit_workload` looks a name up), and
  what those audits share: :class:`AuditInjector` (lookup and replica
  build) and :class:`AuditSummary` (the report shape).

Entry points: ``python -m repro crash ...`` and ``sweep crash``.
"""

from repro.crash.checker import CrashPointOutcome, RecoveryChecker
from repro.crash.domain import (COMMIT_RECORD_BYTES, CrashState,
                                CrashTriggered, PersistenceDomain,
                                PersistRecord, StoreState)
from repro.crash.image import StorageImage
from repro.crash.injector import CrashInjector, CrashSummary, run_crash
from repro.crash.workloads import (AuditInjector, AuditSummary,
                                   CRASH_WORKLOADS, audit_workload)

__all__ = [
    "AuditInjector",
    "AuditSummary",
    "COMMIT_RECORD_BYTES",
    "CRASH_WORKLOADS",
    "CrashInjector",
    "CrashPointOutcome",
    "CrashState",
    "CrashSummary",
    "CrashTriggered",
    "PersistRecord",
    "PersistenceDomain",
    "RecoveryChecker",
    "StorageImage",
    "StoreState",
    "audit_workload",
    "run_crash",
]
