"""Tenant quotas and books: CPU throttles, frame accounting, bandwidth WFQ.

Three cgroup-analog mechanisms, each wired into an existing hook on
the layer it polices or observes:

* :class:`CpuThrottle` — installed on ``SimThread.cpu_throttle``; the
  engine stretches every cycle the thread charges by ``1/share - 1``
  and books the stretch to the ``tenancy`` cost domain (CFS bandwidth
  control, priced as lost wall-clock rather than modelled as a
  runqueue).
* :class:`TenantAccountant` — installed on ``PhysicalMemory.
  accountant``; tracks which tenant owns each dynamically allocated
  frame (page-table pages, DaxVM ephemeral pools, kernel metadata).
  It attributes memory and never refuses it: DAX file data lives in
  device blocks outside these books, so a tenant's kernel frames are
  all a memory limit could see, and they stay kilobytes.
* :class:`BandwidthAdmission` — installed on each ``SharedBandwidth``
  pool; weighted-fair admission via a per-(tenant, pool) token bucket
  sized at the tenant's weight share of the pool.  The sub-bucket
  only *delays* the tenant — it never charges the shared bucket, so a
  throttled tenant cannot push other tenants' ``_paid_until`` out.

:class:`QuotaController` is the kthread that periodically scans
frame usage and publishes the per-tenant gauges.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.errors import SimulationError
from repro.mem.latency import BandwidthThrottle
from repro.obs import CostDomain, charge
from repro.obs.counters import Counter

FRAME_SIZE = 4096


class QuotaAccountingError(SimulationError):
    """Internal quota books disagree — a charge was lost or doubled."""


class CpuThrottle:
    """Per-thread ``limits.cpu`` stretch factor.

    Duck-typed against the engine hook: ``stretch(cycles)`` returns
    the extra cycles to serialize after a charge, ``event`` labels the
    ledger entry.  A share of 1.0 builds a zero-rate throttle that
    returns 0.0 extra — callers should simply not install one.
    """

    __slots__ = ("share", "rate", "throttled_cycles")

    #: The ``tenancy`` ledger event every stretch is booked under.
    event = "cpu-throttle"

    def __init__(self, share: float):
        if not 0.0 < share <= 1.0:
            raise QuotaAccountingError(
                f"cpu share must be in (0, 1], got {share}")
        self.share = share
        self.rate = 1.0 / share - 1.0
        self.throttled_cycles = 0.0

    def stretch(self, cycles: float) -> float:
        extra = cycles * self.rate
        if extra > 0.0:
            self.throttled_cycles += extra
        return extra


class TenantAccountant:
    """Per-tenant physical-frame books on the global allocator.

    Ownership is charged to the *allocating thread's* tenant (the
    ``engine.current`` at ``alloc_frame`` time) and released to
    whichever tenant owns the frame, whoever frees it — so shared
    teardown (daemons reaping another tenant's zombies) never
    corrupts the books.  Frames allocated outside any tenant context
    (boot, filegen) are untracked, exactly like kernel boot pages
    sitting outside every cgroup.
    """

    def __init__(self, engine, names: Iterable[str]):
        self.engine = engine
        self.frames: Dict[str, int] = {name: 0 for name in names}
        self.peak_frames: Dict[str, int] = dict(self.frames)
        self._owner: Dict[int, str] = {}

    # -- identity -----------------------------------------------------------
    def _current_tenant(self) -> Optional[str]:
        thread = self.engine.current
        if thread is None:
            return None
        tenant = thread.tenant
        return tenant if tenant in self.frames else None

    # -- PhysicalMemory hook ------------------------------------------------
    def note_alloc(self, frame: int) -> None:
        tenant = self._current_tenant()
        if tenant is None:
            return
        self._owner[frame] = tenant
        used = self.frames[tenant] + 1
        self.frames[tenant] = used
        if used > self.peak_frames[tenant]:
            self.peak_frames[tenant] = used

    def note_free(self, frame: int) -> None:
        tenant = self._owner.pop(frame, None)
        if tenant is not None:
            self.frames[tenant] -= 1

    # -- queries ------------------------------------------------------------
    def usage_bytes(self, tenant: str) -> int:
        return self.frames.get(tenant, 0) * FRAME_SIZE

    def peak_bytes(self, tenant: str) -> int:
        return self.peak_frames.get(tenant, 0) * FRAME_SIZE

    def audit(self) -> None:
        """Cross-check the books; raises QuotaAccountingError on drift."""
        counts: Dict[str, int] = {name: 0 for name in self.frames}
        for tenant in self._owner.values():
            counts[tenant] = counts.get(tenant, 0) + 1
        for tenant, used in self.frames.items():
            if used < 0:
                raise QuotaAccountingError(
                    f"tenant {tenant}: negative frame count {used}")
            if used != counts.get(tenant, 0):
                raise QuotaAccountingError(
                    f"tenant {tenant}: frame counter {used} != "
                    f"{counts.get(tenant, 0)} owned frames")


class BandwidthAdmission:
    """Weighted-fair admission into shared device-bandwidth pools.

    Each (tenant, pool) pair gets a private token bucket sized at the
    tenant's weight share of the pool.  ``extra_delay`` returns how
    much *longer* than the shared-pool delay the requester must wait;
    the pool takes ``max(shared, admission)`` so an uncontended heavy
    tenant is clipped to its share while light tenants sail through.
    """

    def __init__(self, engine, stats, weights: Dict[str, float]):
        total = sum(weights.values())
        self.engine = engine
        self.stats = stats
        self.shares = {name: weight / total
                       for name, weight in weights.items()}
        self._buckets: Dict[Tuple[int, str],
                            Tuple[BandwidthThrottle, BandwidthThrottle]] = {}
        self.throttled_cycles = 0.0

    def extra_delay(self, pool, read_bytes: float, write_bytes: float,
                    now: float) -> float:
        thread = self.engine.current
        tenant = thread.tenant if thread else None
        if tenant is None:
            return 0.0
        share = self.shares.get(tenant)
        if share is None or share >= 1.0:
            return 0.0
        key = (id(pool), tenant)
        buckets = self._buckets.get(key)
        if buckets is None:
            buckets = (BandwidthThrottle(pool.read_bw * share,
                                         pool.freq_hz),
                       BandwidthThrottle(pool.write_bw * share,
                                         pool.freq_hz))
            self._buckets[key] = buckets
        wait = 0.0
        if read_bytes:
            wait = max(wait, buckets[0].delay_for(int(read_bytes), now))
        if write_bytes:
            wait = max(wait, buckets[1].delay_for(int(write_bytes), now))
        if wait > 0.0:
            self.throttled_cycles += wait
            self.stats.add(Counter.TENANCY_BW_THROTTLE_CYCLES, wait)
        return wait


class QuotaController:
    """The quota-controller kthread (one per consolidated machine).

    Wakes every :attr:`SCAN_INTERVAL` cycles and reads each tenant's
    frame usage.  The per-tenant
    ``tenant.<name>.memory_bytes`` gauge is a change-point series: a
    sample is recorded at the first scan and then only at scans whose
    usage differs from the tenant's last recorded value, so the series
    is a lossless step function at scan resolution.  Scans are priced
    into the ``tenancy`` domain so controller overhead shows up in the
    books rather than being free.
    """

    #: Cycles between scans.
    SCAN_INTERVAL = 2.0e6
    #: Cycles one scan costs per tenant examined.
    SCAN_COST_PER_TENANT = 4_000.0

    def __init__(self, engine, stats, accountant: TenantAccountant,
                 names: Iterable[str]):
        self.engine = engine
        self.stats = stats
        self.accountant = accountant
        self.names = sorted(names)
        #: ``(name, gauge series)`` in scan order.
        self._tenants = [(name, f"tenant.{name}.memory_bytes")
                         for name in self.names]
        #: Last usage recorded in each tenant's gauge series.
        self._recorded: Dict[str, int] = {}

    def start(self, core: int = 0) -> None:
        self.engine.spawn(
            self._run(), core=core, name="quota-kthread", daemon=True)

    def _run(self):
        while True:
            yield charge(CostDomain.TENANCY, "quota-scan-idle",
                         self.SCAN_INTERVAL)
            self.scan()
            yield charge(CostDomain.TENANCY, "quota-scan",
                         self.SCAN_COST_PER_TENANT * len(self.names))

    def scan(self) -> None:
        """One scan: pure bookkeeping (priced by the caller)."""
        self.stats.add(Counter.TENANCY_QUOTA_SCANS)
        now = self.engine.now
        recorded = self._recorded
        for name, series in self._tenants:
            usage = self.accountant.usage_bytes(name)
            if recorded.get(name) != usage:
                recorded[name] = usage
                self.stats.sample(series, now, float(usage))
