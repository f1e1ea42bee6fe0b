"""Multi-tenant consolidation: many customers, one simulated machine.

The paper's microbenchmarks run one workload at a time; real DAX
deployments consolidate many tenants onto one box, where the
interesting failure mode is *interference* — shared device bandwidth,
mmap_sem writers, TLB-shootdown IPIs landing on co-resident cores.
This package runs N tenant workloads concurrently under cgroup-style
quotas and threads tenant identity through the ledger and counters so
every stolen cycle is attributable.

Entry points: build a :class:`TenancyConfig` (usually via
:func:`consolidate_config`), ``system.attach_tenancy(config)``, then
:func:`run_consolidate`.  ``python -m repro sweep consolidate`` and
``python -m repro perf consolidate`` run and report the standard
matrix.
"""

from repro.tenancy.controller import (BandwidthAdmission, CpuThrottle,
                                      QuotaAccountingError,
                                      QuotaController, TenantAccountant)
from repro.tenancy.runtime import TenancyRuntime, run_consolidate
from repro.tenancy.spec import (ANTAGONIST_SPEC, CONSOLIDATE_MIXES,
                                TENANT_KINDS, TENANT_SPEC, TenancyConfig,
                                Tenant, TenantSpec, consolidate_config)

__all__ = [
    "ANTAGONIST_SPEC",
    "BandwidthAdmission",
    "CONSOLIDATE_MIXES",
    "CpuThrottle",
    "QuotaAccountingError",
    "QuotaController",
    "TENANT_KINDS",
    "TENANT_SPEC",
    "TenancyConfig",
    "Tenant",
    "TenantAccountant",
    "TenancyRuntime",
    "TenantSpec",
    "consolidate_config",
    "run_consolidate",
]
