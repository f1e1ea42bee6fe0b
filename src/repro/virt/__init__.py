"""Guest VMs over DAX files with post-copy live migration.

See :mod:`repro.virt.hypervisor` for the guest/hypervisor layer,
:mod:`repro.virt.migration` for the migration state machine,
:mod:`repro.virt.audit` for the crash/fault hardening audit (the
plain crash and fault injectors run on replicas that carry a
hypervisor, and read it through :meth:`Hypervisor.violations` and
:meth:`Hypervisor.settle`), :mod:`repro.virt.runner` for one guest run
of an audit workload and the
``virt`` gate of :mod:`repro.analysis.goldens` for the pass-through
equivalence gate.
"""

from repro.virt.audit import (
    AUDIT_WORKLOADS,
    MigrateAuditSummary,
    link_targeted_plan,
    migrate_factory,
    run_migrate_audit,
)
from repro.virt.hypervisor import GuestAddressSpace, Hypervisor, VirtConfig
from repro.virt.migration import MigrationJob, MigrationState
from repro.virt.runner import run_migrate

__all__ = [
    "AUDIT_WORKLOADS",
    "GuestAddressSpace",
    "Hypervisor",
    "MigrateAuditSummary",
    "MigrationJob",
    "MigrationState",
    "VirtConfig",
    "link_targeted_plan",
    "migrate_factory",
    "run_migrate",
    "run_migrate_audit",
]
