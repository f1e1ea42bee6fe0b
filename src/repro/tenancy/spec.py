"""Tenant descriptors and quota blocks for consolidated machines.

A *tenant* is one customer sharing the simulated machine: a named
workload with a closed-loop request stream (each logical client issues
the next request only after the previous one completes, optionally
after a seeded think time) and a :class:`TenantSpec` quota block in
the Kubernetes resource-model shape — ``limits.cpu`` as a fractional
core share and a proportional device-bandwidth weight.  Memory is
attributed per tenant (``TenantAccountant``) but not limited: DAX file
data bypasses the frame books, so there is no memory quota to set.

This module is deliberately dependency-light (no workload or engine
imports): specs round-trip through JSON so sweeps can key their result
cache on the exact tenancy configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import InvalidArgumentError

#: Workload kinds a tenant may run.  ``antagonist`` is the stress-ng
#: style ``--vm`` hog (repro.tenancy.antagonist).
TENANT_KINDS = ("apache", "predis", "kvstore", "antagonist")

#: Mix names accepted by :func:`consolidate_config`.
CONSOLIDATE_MIXES = ("apache", "predis", "kvstore", "mixed")


@dataclass(frozen=True)
class TenantSpec:
    """cgroup-style resource quotas for one tenant.

    ``cpu_limit`` is a fractional share of one core (``limits.cpu``):
    1.0 means unthrottled, 0.5 stretches every cycle the tenant's
    threads charge by 2x.  ``bandwidth_weight`` is the tenant's
    proportional share of each device bandwidth pool.
    """

    cpu_limit: float = 1.0
    bandwidth_weight: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.cpu_limit <= 1.0:
            raise InvalidArgumentError(
                f"limits.cpu must be in (0, 1], got {self.cpu_limit}")
        if self.bandwidth_weight <= 0.0:
            raise InvalidArgumentError("bandwidth_weight must be > 0")

    def to_state(self) -> Dict:
        return {"cpu_limit": self.cpu_limit,
                "bandwidth_weight": self.bandwidth_weight}

    @staticmethod
    def from_state(state: Dict) -> "TenantSpec":
        return TenantSpec(
            cpu_limit=state.get("cpu_limit", 1.0),
            bandwidth_weight=state.get("bandwidth_weight", 1.0))


#: Default quota block for an interactive tenant.
TENANT_SPEC = TenantSpec()

#: Default quota block for the antagonist: half a core and a quarter
#: of everyone else's bandwidth weight.
ANTAGONIST_SPEC = TenantSpec(cpu_limit=0.5, bandwidth_weight=0.25)


@dataclass(frozen=True)
class Tenant:
    """One consolidated customer: a workload plus its quota block.

    ``requests`` sizes the closed-loop stream (operations for kvstore,
    GETs for P-Redis, HTTP requests for Apache, map/dirty/unmap
    iterations for the antagonist).  ``think_cycles`` is the mean
    seeded think time between requests (0 = saturating closed loop).
    """

    name: str
    kind: str = "apache"
    spec: TenantSpec = field(default_factory=TenantSpec)
    requests: int = 64
    think_cycles: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.name:
            raise InvalidArgumentError("tenant needs a name")
        if self.kind not in TENANT_KINDS:
            raise InvalidArgumentError(
                f"unknown tenant kind {self.kind!r}; use one of "
                f"{TENANT_KINDS}")
        if self.requests <= 0:
            raise InvalidArgumentError("tenant.requests must be > 0")
        if self.think_cycles < 0:
            raise InvalidArgumentError("think_cycles must be >= 0")

    def to_state(self) -> Dict:
        return {"name": self.name, "kind": self.kind,
                "spec": self.spec.to_state(), "requests": self.requests,
                "think_cycles": self.think_cycles, "seed": self.seed}

    @staticmethod
    def from_state(state: Dict) -> "Tenant":
        return Tenant(name=state["name"],
                      kind=state.get("kind", "apache"),
                      spec=TenantSpec.from_state(state.get("spec", {})),
                      requests=state.get("requests", 64),
                      think_cycles=state.get("think_cycles", 0.0),
                      seed=state.get("seed", 0))


@dataclass(frozen=True)
class TenancyConfig:
    """The full multi-tenant shape of one run.

    ``quotas`` arms enforcement (CPU throttles, bandwidth admission
    and the quota-controller kthread); with it off tenants still run
    concurrently and are still *attributed*, they are just not
    policed.
    """

    tenants: Tuple[Tenant, ...] = ()
    quotas: bool = False

    def __post_init__(self):
        if not self.tenants:
            raise InvalidArgumentError("TenancyConfig needs >= 1 tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise InvalidArgumentError(f"duplicate tenant names: {names}")

    @property
    def passive(self) -> bool:
        """True when tenancy adds nothing observable: a single plain
        tenant, no quotas, saturating closed loop.  The runtime then
        delegates to the un-tenanted workload runner and installs no
        hooks, so the run is bit-identical to a machine that never
        heard of tenants (the ``tenancy`` golden gate)."""
        return (len(self.tenants) == 1
                and not self.quotas
                and self.tenants[0].kind != "antagonist"
                and self.tenants[0].think_cycles == 0.0)

    @property
    def mix(self) -> str:
        """The workload mix label (ignores the antagonist)."""
        kinds = {t.kind for t in self.tenants if t.kind != "antagonist"}
        if not kinds:
            return "antagonist"
        return kinds.pop() if len(kinds) == 1 else "mixed"

    @property
    def antagonist(self) -> bool:
        return any(t.kind == "antagonist" for t in self.tenants)

    def to_state(self) -> Dict:
        return {"tenants": [t.to_state() for t in self.tenants],
                "quotas": self.quotas}

    @staticmethod
    def from_state(state: Dict) -> "TenancyConfig":
        return TenancyConfig(
            tenants=tuple(Tenant.from_state(t)
                          for t in state.get("tenants", [])),
            quotas=state.get("quotas", False))


def consolidate_config(num_tenants: int, mix: str = "apache", *,
                       quotas: bool = False, antagonist: bool = False,
                       requests: int = 64, seed: int = 0) -> TenancyConfig:
    """Build the standard consolidation-sweep tenant set.

    ``num_tenants`` foreground tenants named ``t0..t{n-1}`` run the
    ``mix`` workload (``mixed`` cycles apache/predis/kvstore);
    ``antagonist=True`` appends a ``hog`` tenant on top.  Seeds are
    derived per-tenant so streams differ but runs are reproducible.
    Every tenant runs a saturating closed loop (``think_cycles=0``).
    """
    if num_tenants <= 0:
        raise InvalidArgumentError("num_tenants must be > 0")
    if mix not in CONSOLIDATE_MIXES:
        raise InvalidArgumentError(
            f"unknown mix {mix!r}; use one of {CONSOLIDATE_MIXES}")
    cycle = (("apache", "predis", "kvstore") if mix == "mixed"
             else (mix,))
    tenants = [Tenant(name=f"t{i}", kind=cycle[i % len(cycle)],
                      spec=TENANT_SPEC, requests=requests,
                      seed=seed + i)
               for i in range(num_tenants)]
    if antagonist:
        tenants.append(Tenant(name="hog", kind="antagonist",
                              spec=ANTAGONIST_SPEC,
                              requests=max(2 * requests, 8),
                              seed=seed + 7919))
    return TenancyConfig(tenants=tuple(tenants), quotas=quotas)
