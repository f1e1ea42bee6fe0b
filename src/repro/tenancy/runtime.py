"""The multi-tenant runtime: identity, attribution, the run driver.

:class:`TenancyRuntime` owns everything per-run: the thread → tenant
registry (exact thread-name match — ``t1.worker`` never bleeds into a
``t10`` view), the enforcement objects from
:mod:`repro.tenancy.controller`, per-tenant request-latency
histograms (``tenant.<name>.request`` in ``stats.timings``) and the
per-tenant ledger views that make mmap_sem and TLB-shootdown
contention attributable to the tenant that suffered it.

:func:`run_consolidate` is the driver the ``consolidate`` sweep's
points call: it materializes each tenant's
workload (small Apache / P-Redis-style / kvstore closed loops, plus
the antagonist), runs the boot phase unmeasured, then measures the
steady-state request phase.

The **degenerate path**: a passive config (one plain tenant, no
quotas, no antagonist, no think time) delegates to the original
un-tenanted workload runner and installs *no* hooks — so the run is
bit-identical to a machine without the tenancy subsystem.  The
``tenancy`` golden gate holds this equivalence forever.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidArgumentError
from repro.obs import CostDomain, charge
from repro.obs.counters import Counter
from repro.paging.tlb import AccessPattern
from repro.tenancy import antagonist as hog
from repro.tenancy.controller import (BandwidthAdmission, CpuThrottle,
                                      QuotaController, TenantAccountant)
from repro.tenancy.spec import Tenant, TenancyConfig
from repro.vm.vma import MapFlags, Protection
from repro.workloads.apache import ApacheConfig, ServerInterface, \
    _serve_request, run_apache
from repro.workloads.common import Interface, Measurement
from repro.workloads.filegen import create_file_set, create_files
from repro.workloads.kvstore import KVConfig, PmemKVStore
from repro.workloads.predis import PRedisConfig, run_predis
from repro.workloads.ycsb import YCSBConfig, run_ycsb

# -- per-tenant workload shapes (kept small: 16 tenants must still be
# -- a sub-minute simulation) ---------------------------------------------

_APACHE_PAGE = 16 << 10
_APACHE_PAGES = 8

_PREDIS_CACHE = 4 << 20
_PREDIS_VALUE = 4 << 10
_PREDIS_INDEX = 256 << 10

_KV = dict(record_size=2048, memtable_limit=1 << 20,
           sstable_size=1 << 20, wal_size=1 << 20)
_KV_PRELOAD = 32

#: Userspace protocol handling per P-Redis GET (mirrors predis._server).
_PREDIS_PROTOCOL_CYCLES = 3000.0


def apache_config(tenant: Tenant) -> ApacheConfig:
    return ApacheConfig(page_size=_APACHE_PAGE, num_pages=_APACHE_PAGES,
                        num_workers=1, requests=tenant.requests,
                        interface=ServerInterface.MMAP)


def predis_config(tenant: Tenant) -> PRedisConfig:
    return PRedisConfig(cache_size=_PREDIS_CACHE, value_size=_PREDIS_VALUE,
                        index_size=_PREDIS_INDEX,
                        num_gets=tenant.requests,
                        window=max(1, tenant.requests // 4),
                        interface=Interface.MMAP,
                        seed=99 + tenant.seed)


def ycsb_config(tenant: Tenant) -> YCSBConfig:
    return YCSBConfig(workload="run_a", num_ops=tenant.requests,
                      preload_records=_KV_PRELOAD,
                      kv=KVConfig(interface=Interface.MMAP,
                                  seed=5 + tenant.seed, **_KV),
                      monitor_every=0, seed=11 + tenant.seed)


class TenancyRuntime:
    """Per-run tenancy state attached to one :class:`System`."""

    def __init__(self, system, config: TenancyConfig):
        self.system = system
        self.config = config
        self.tenants: Dict[str, Tenant] = {t.name: t
                                           for t in config.tenants}
        #: Exact thread-name → tenant-name registry.  Exact match is
        #: the collision guard: tenants ``t1`` and ``t10`` each list
        #: their own thread names, no prefix matching anywhere.
        self.thread_names: Dict[str, str] = {}
        self._threads: List[Tuple[object, Tenant]] = []
        self._throttles: Dict[str, CpuThrottle] = {}
        self.accountant: Optional[TenantAccountant] = None
        self.admission: Optional[BandwidthAdmission] = None
        self.controller: Optional[QuotaController] = None
        self.installed = False

    @property
    def passive(self) -> bool:
        return self.config.passive

    # -- wiring -------------------------------------------------------------
    def install(self) -> "TenancyRuntime":
        """Wire the hooks.  No-op for passive configs: the degenerate
        single-tenant run must stay bit-identical to an un-tenanted
        machine, so not one hook may be touched."""
        if self.passive or self.installed:
            return self
        system = self.system
        engine = system.engine
        engine.tenant_resolver = self.tenant_of
        specs = {t.name: t.spec for t in self.config.tenants}
        self.accountant = TenantAccountant(engine, system.stats, specs)
        system.physmem.accountant = self.accountant
        if self.config.quotas:
            self.accountant.enforcing = True
            weights = {name: spec.bandwidth_weight
                       for name, spec in specs.items()}
            self.admission = BandwidthAdmission(engine, system.stats,
                                                weights)
            for pool in system.mem.pools:
                if pool is not None:
                    pool.admission = self.admission
        self.installed = True
        return self

    def register(self, thread, tenant: Tenant) -> None:
        """Tag a SimThread with its tenant identity.

        Must run before the thread's first charge (i.e. after spawn,
        before ``system.run()``) so CPU throttling and frame
        accounting see every cycle and frame the thread produces.
        """
        thread.tenant = tenant.name
        self.thread_names[thread.name] = tenant.name
        self._threads.append((thread, tenant))
        if self.config.quotas and tenant.spec.cpu_limit < 1.0:
            throttle = self._throttles.get(tenant.name)
            if throttle is None:
                throttle = CpuThrottle(tenant.spec.cpu_limit)
                self._throttles[tenant.name] = throttle
            thread.cpu_throttle = throttle

    def tenant_of(self, thread_name: str) -> Optional[str]:
        """The resolver installed on ``engine.tenant_resolver``."""
        return self.thread_names.get(thread_name)

    # -- observation --------------------------------------------------------
    def note_request(self, tenant: Tenant, latency: float,
                     observe: bool = True) -> None:
        stats = self.system.stats
        stats.add(Counter.TENANCY_REQUESTS)
        stats.add(f"tenant.{tenant.name}.requests")
        if observe:
            stats.observe(f"tenant.{tenant.name}.request", latency)

    def think(self, tenant: Tenant, rng: random.Random):
        """Seeded closed-loop think time (generator; may yield nothing)."""
        mean = tenant.think_cycles
        if mean <= 0.0:
            return
        cycles = mean * (0.5 + rng.random())
        self.system.stats.add(Counter.TENANCY_THINK_CYCLES, cycles)
        yield charge(CostDomain.TENANCY, "think", cycles)

    # -- per-tenant books ----------------------------------------------------
    def ledger_view(self, tenant: str) -> Dict[str, float]:
        """This tenant's cycles by cost domain (its threads only)."""
        view: Dict[str, float] = {}
        for thread_name, domains in self.system.ledger.per_thread().items():
            if self.thread_names.get(thread_name) != tenant:
                continue
            for domain, cycles in domains.items():
                view[domain] = view.get(domain, 0.0) + cycles
        return view

    def ledger_views(self) -> Dict[str, Dict[str, float]]:
        return {name: self.ledger_view(name) for name in self.tenants}

    def publish(self) -> None:
        """Fold enforcement totals into the counters (end of run)."""
        stats = self.system.stats
        for name, throttle in self._throttles.items():
            if throttle.throttled_cycles:
                stats.add(Counter.TENANCY_THROTTLE_CYCLES,
                          throttle.throttled_cycles)
                stats.add(f"tenant.{name}.cpu_throttle_cycles",
                          throttle.throttled_cycles)
        if self.accountant is not None:
            for name in self.tenants:
                stats.add(f"tenant.{name}.peak_kernel_bytes",
                          float(self.accountant.peak_bytes(name)))

    def audit(self) -> None:
        """Quota-accounting invariants; raises on violation.

        Frame books must balance exactly; throttle cycles booked to
        the ledger must match the throttles' own totals (floating-
        point tolerance only, the sums run in different orders).
        """
        if self.accountant is not None:
            self.accountant.audit()
        if self._throttles:
            from repro.tenancy.controller import QuotaAccountingError
            booked = 0.0
            for domain, event, cycles in \
                    self.system.ledger.to_state()["events"]:
                if (domain == CostDomain.TENANCY.value
                        and event == "cpu-throttle"):
                    booked += cycles
            held = sum(t.throttled_cycles
                       for t in self._throttles.values())
            if abs(booked - held) > 1e-6 * max(1.0, held):
                raise QuotaAccountingError(
                    f"cpu-throttle ledger total {booked} != throttle "
                    f"books {held}")


# -- tenant workload bodies ------------------------------------------------

def _apache_setup(runtime: TenancyRuntime, tenant: Tenant) -> Dict:
    system = runtime.system
    cfg = apache_config(tenant)
    prefix = f"/ht-{tenant.name}"
    create_file_set(system, cfg.num_pages, cfg.page_size, prefix=prefix)
    process = system.new_process(name=tenant.name, aslr_seed=tenant.seed)
    paths = [f"{prefix}/f{i:06d}" for i in range(cfg.num_pages)]
    return {"process": process, "cfg": cfg, "paths": paths}


def _apache_loop(runtime: TenancyRuntime, tenant: Tenant, ctx: Dict):
    system = runtime.system
    cfg, process, paths = ctx["cfg"], ctx["process"], ctx["paths"]
    rng = random.Random(7919 * tenant.seed + 1)
    for _ in range(tenant.requests):
        path = paths[rng.randrange(len(paths))]
        t0 = system.engine.now
        yield from _serve_request(system, process, cfg, path, None)
        runtime.note_request(tenant, system.engine.now - t0)
        yield from runtime.think(tenant, rng)


def _predis_setup(runtime: TenancyRuntime, tenant: Tenant) -> Dict:
    system = runtime.system
    prefix = f"/pr-{tenant.name}"
    create_files(system, [_PREDIS_CACHE, _PREDIS_INDEX], prefix=prefix)
    process = system.new_process(name=tenant.name, aslr_seed=tenant.seed)
    return {"process": process, "prefix": prefix}


def _predis_boot(runtime: TenancyRuntime, tenant: Tenant, ctx: Dict):
    system = runtime.system
    process, prefix = ctx["process"], ctx["prefix"]
    cache = yield from system.fs.open(f"{prefix}/f000000")
    index = yield from system.fs.open(f"{prefix}/f000001")
    ctx["cache_vma"] = yield from process.mm.mmap(
        system.fs, cache.inode, 0, _PREDIS_CACHE,
        Protection.rw(), MapFlags.SHARED)
    ctx["index_vma"] = yield from process.mm.mmap(
        system.fs, index.inode, 0, _PREDIS_INDEX,
        Protection.rw(), MapFlags.SHARED)


def _predis_loop(runtime: TenancyRuntime, tenant: Tenant, ctx: Dict):
    system = runtime.system
    process = ctx["process"]
    cache_vma, index_vma = ctx["cache_vma"], ctx["index_vma"]
    slots = _PREDIS_CACHE // _PREDIS_VALUE
    index_pages = _PREDIS_INDEX // 4096
    rng = random.Random(7919 * tenant.seed + 2)
    for _ in range(tenant.requests):
        slot = rng.randrange(slots)
        bucket = rng.randrange(index_pages)
        t0 = system.engine.now
        yield from process.mm.access(
            index_vma, bucket * 4096, 64, pattern=AccessPattern.RANDOM)
        yield from process.mm.access(
            cache_vma, slot * _PREDIS_VALUE, _PREDIS_VALUE,
            pattern=AccessPattern.RANDOM, copy=True)
        yield charge(CostDomain.USERSPACE, "protocol-handling",
                     _PREDIS_PROTOCOL_CYCLES)
        runtime.note_request(tenant, system.engine.now - t0)
        yield from runtime.think(tenant, rng)


def _kv_setup(runtime: TenancyRuntime, tenant: Tenant) -> Dict:
    system = runtime.system
    process = system.new_process(name=tenant.name, aslr_seed=tenant.seed)
    store = PmemKVStore(system, process,
                        KVConfig(interface=Interface.MMAP,
                                 seed=5 + tenant.seed, **_KV))
    return {"process": process, "store": store}


def _kv_boot(runtime: TenancyRuntime, tenant: Tenant, ctx: Dict):
    store = ctx["store"]
    yield from store.start()
    for _ in range(min(_KV_PRELOAD, tenant.requests)):
        yield from store.put()


def _kv_loop(runtime: TenancyRuntime, tenant: Tenant, ctx: Dict):
    system = runtime.system
    store = ctx["store"]
    rng = random.Random(7919 * tenant.seed + 3)
    for _ in range(tenant.requests):
        roll = rng.random()
        t0 = system.engine.now
        if roll < 0.5:
            yield from store.get()
        elif roll < 0.9:
            yield from store.put()
        else:
            yield from store.read_modify_write()
        runtime.note_request(tenant, system.engine.now - t0)
        yield from runtime.think(tenant, rng)


_SETUP = {"apache": _apache_setup, "predis": _predis_setup,
          "kvstore": _kv_setup, "antagonist": hog.hog_setup}
_BOOT = {"apache": None, "predis": _predis_boot,
         "kvstore": _kv_boot, "antagonist": hog.hog_boot}
_LOOP = {"apache": _apache_loop, "predis": _predis_loop,
         "kvstore": _kv_loop, "antagonist": hog.hog_loop}

#: Approximate payload bytes per request, for RunResult throughput.
_REQUEST_BYTES = {"apache": _APACHE_PAGE, "predis": _PREDIS_VALUE,
                  "kvstore": _KV["record_size"], "antagonist": 0}


def _run_untenanted(system, tenant: Tenant):
    """The original single-workload runners (degenerate path)."""
    if tenant.kind == "apache":
        return run_apache(system, apache_config(tenant))
    if tenant.kind == "predis":
        return run_predis(system, predis_config(tenant)).run
    if tenant.kind == "kvstore":
        return run_ycsb(system, ycsb_config(tenant))
    raise InvalidArgumentError(
        f"no un-tenanted runner for kind {tenant.kind!r}")


def run_consolidate(system, config: Optional[TenancyConfig] = None):
    """Run one consolidated machine; returns a RunResult.

    Uses the tenancy runtime already attached to ``system`` (or
    attaches ``config``).  Passive configs delegate to the original
    un-tenanted runner — the golden-gated degenerate path.
    """
    runtime = system.tenancy
    if runtime is None:
        if config is None:
            raise InvalidArgumentError(
                "run_consolidate needs system.attach_tenancy(...) or an "
                "explicit config")
        runtime = system.attach_tenancy(config)
    cfg = runtime.config
    if cfg.passive:
        return _run_untenanted(system, cfg.tenants[0])
    runtime.install()
    num_cores = len(system.engine.cores)

    ctxs = {tenant.name: _SETUP[tenant.kind](runtime, tenant)
            for tenant in cfg.tenants}

    booted = False
    for i, tenant in enumerate(cfg.tenants):
        boot = _BOOT[tenant.kind]
        if boot is None:
            continue
        thread = system.spawn(boot(runtime, tenant, ctxs[tenant.name]),
                              core=i % num_cores,
                              name=f"{tenant.name}.boot",
                              process=ctxs[tenant.name]["process"])
        runtime.register(thread, tenant)
        booted = True
    if booted:
        system.run()

    measure = Measurement(system)
    measure.start()
    for i, tenant in enumerate(cfg.tenants):
        thread = system.spawn(
            _LOOP[tenant.kind](runtime, tenant, ctxs[tenant.name]),
            core=i % num_cores, name=f"{tenant.name}.worker",
            process=ctxs[tenant.name]["process"])
        runtime.register(thread, tenant)
    if cfg.quotas:
        runtime.controller = QuotaController(
            system.engine, system.stats, runtime.accountant,
            {t.name: t.spec for t in cfg.tenants},
            scan_interval=cfg.scan_interval)
        runtime.controller.start(core=system.engine.cores[-1].index)
    system.run()

    runtime.publish()
    runtime.audit()
    foreground = [t for t in cfg.tenants if t.kind != "antagonist"]
    operations = sum(t.requests for t in foreground)
    payload = sum(t.requests * _REQUEST_BYTES[t.kind] for t in foreground)
    label = (f"consolidate[{cfg.mix}x{len(foreground)},"
             f"{'quotas' if cfg.quotas else 'noq'},"
             f"{'hog' if cfg.antagonist else 'nohog'}]")
    return measure.finish(label, operations=operations,
                          bytes_processed=payload)
