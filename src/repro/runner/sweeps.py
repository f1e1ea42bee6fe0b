"""The sweep registry: point runners and manifest builders.

A *point runner* maps ``(system, **params)`` to a
:class:`~repro.analysis.results.RunResult` — the unit of work a pool
worker executes.  A *sweep builder* expands CLI-level knobs into a
:class:`~repro.runner.manifest.Sweep` of independent points.  Both are
looked up by name, so the CLI, the benchmarks and the tests share one
definition of what "the apache sweep" means.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.analysis.results import RunResult
from repro.runner.manifest import Sweep, SweepPoint
from repro.system import System
from repro.topology import PLACEMENTS
from repro.workloads import (
    ApacheConfig,
    DaxVMOptions,
    EphemeralConfig,
    Interface,
    KVConfig,
    ServerInterface,
    SyncConfig,
    SyncDiscipline,
    YCSBConfig,
    run_apache,
    run_ephemeral,
    run_sync,
    run_ycsb,
)

PointRunner = Callable[..., RunResult]
POINT_RUNNERS: Dict[str, PointRunner] = {}
SWEEPS: Dict[str, Callable[..., Sweep]] = {}


def point_runner(name: str):
    def decorate(fn):
        POINT_RUNNERS[name] = fn
        return fn
    return decorate


def sweep(name: str, help_text: str):
    def decorate(fn):
        fn.help_text = help_text
        SWEEPS[name] = fn
        return fn
    return decorate


def _daxvm_options(state: Optional[dict]) -> DaxVMOptions:
    return DaxVMOptions(**state) if state else DaxVMOptions.full()


def _daxvm_params(opts: DaxVMOptions) -> dict:
    return {"ephemeral": opts.ephemeral, "unmap_async": opts.unmap_async,
            "sync": opts.sync, "nosync": opts.nosync}


# ---------------------------------------------------------------------------
# Point runners (what a worker process executes).
# ---------------------------------------------------------------------------
@point_runner("ephemeral")
def _ephemeral_point(system: System, *, file_size: int, num_files: int,
                     num_threads: int, interface: str,
                     daxvm: Optional[dict] = None,
                     pin_node: Optional[int] = None) -> RunResult:
    cfg = EphemeralConfig(file_size=file_size, num_files=num_files,
                          num_threads=num_threads,
                          interface=Interface(interface),
                          daxvm=_daxvm_options(daxvm),
                          pin_node=pin_node)
    return run_ephemeral(system, cfg)


@point_runner("apache")
def _apache_point(system: System, *, num_workers: int, requests: int,
                  interface: str, daxvm: Optional[dict] = None,
                  batch_pages: Optional[int] = None) -> RunResult:
    cfg = ApacheConfig(num_workers=num_workers, requests=requests,
                       interface=ServerInterface(interface),
                       daxvm=_daxvm_options(daxvm),
                       batch_pages=batch_pages)
    return run_apache(system, cfg)


@point_runner("crash")
def _crash_point(system: System, *, workload: str, seed: int,
                 max_points: int, media: str = "optane",
                 device_gib: int = 1) -> RunResult:
    """Crash sweeps rebuild a machine per crash point, so the pool's
    pre-built ``system`` is unused; the factory mirrors its media and
    device size.  Fresh images only — aging churn per replica is pure
    overhead for durability coverage."""
    from repro.config import MEDIA_PRESETS
    from repro.crash import run_crash

    costs_factory = MEDIA_PRESETS[media]

    def factory() -> System:
        return System(costs=costs_factory(),
                      device_bytes=device_gib << 30, aged=False)

    summary = run_crash(factory, workload, seed=seed,
                        max_points=max_points)
    return summary.to_result()


@point_runner("faults")
def _faults_point(system: System, *, workload: str, seed: int,
                  max_sites: int, media: str = "optane",
                  device_gib: int = 1) -> RunResult:
    """Media-fault sweeps rebuild a machine per armed site (same
    replica discipline as crash points), so the pool's pre-built
    ``system`` is unused; the factory mirrors its media and size."""
    from repro.config import MEDIA_PRESETS
    from repro.faults import run_faults

    costs_factory = MEDIA_PRESETS[media]

    def factory() -> System:
        return System(costs=costs_factory(),
                      device_bytes=device_gib << 30, aged=False)

    summary = run_faults(factory, workload, seed=seed,
                         max_sites=max_sites)
    return summary.to_result()


@point_runner("syncbench")
def _syncbench_point(system: System, *, file_size: int, op_size: int,
                     ops_per_sync: int, num_syncs: int,
                     discipline: str) -> RunResult:
    cfg = SyncConfig(file_size=file_size, op_size=op_size,
                     ops_per_sync=ops_per_sync, num_syncs=num_syncs,
                     discipline=SyncDiscipline(discipline))
    return run_sync(system, cfg)


@point_runner("kvstore")
def _kvstore_point(system: System, *, workload: str, num_ops: int,
                   preload_records: int, interface: str,
                   record_size: int = 4096,
                   memtable_limit: int = 8 << 20,
                   sstable_size: int = 8 << 20,
                   wal_size: int = 8 << 20,
                   daxvm: Optional[dict] = None) -> RunResult:
    kv = KVConfig(record_size=record_size,
                  memtable_limit=memtable_limit,
                  sstable_size=sstable_size, wal_size=wal_size,
                  interface=Interface(interface),
                  daxvm=_daxvm_options(daxvm))
    cfg = YCSBConfig(workload=workload, num_ops=num_ops,
                     preload_records=preload_records, kv=kv)
    return run_ycsb(system, cfg)


@point_runner("selftest")
def _selftest_point(system: System, *, mode: str,
                    hang_seconds: float = 3600.0) -> RunResult:
    """Runner-hardening diagnostics: each mode exercises one failure
    path of the sweep driver itself (quarantine, watchdog, retry).
    ``ok`` completes instantly; ``crash`` raises; ``hang`` sleeps past
    any sane watchdog; ``flaky`` raises a retryable error on attempt 0
    and succeeds on retries; ``oom``/``deadlock`` raise the simulator's
    ENOMEM/deadlock errors, exercising those surfaces end to end."""
    import time as _time

    from repro.errors import DeadlockError, DeviceStallError, MemoryError_
    from repro.runner import worker as _worker

    if mode == "crash":
        raise RuntimeError("selftest: injected worker crash")
    if mode == "hang":
        _time.sleep(hang_seconds)
    elif mode == "flaky":
        if _worker.CURRENT_ATTEMPT == 0:
            raise DeviceStallError("selftest: transient stall, retry me")
    elif mode == "oom":
        raise MemoryError_("selftest: simulated allocation failure")
    elif mode == "deadlock":
        raise DeadlockError("selftest: simulated lock cycle")
    elif mode != "ok":
        raise ValueError(f"unknown selftest mode {mode!r}")
    return RunResult(label=f"selftest:{mode}", cycles=1000.0,
                     operations=1.0)


# ---------------------------------------------------------------------------
# Sweep builders (figure -> list of points).
# ---------------------------------------------------------------------------
@sweep("scaling", "read-once throughput vs thread count (fig 1b)")
def _scaling_sweep(*, ops: int, size: int, media: str, device_gib: int,
                   aged: bool) -> Sweep:
    points = []
    for threads in (1, 2, 4, 8, 16):
        for interface in (Interface.READ, Interface.MMAP,
                          Interface.DAXVM):
            points.append(SweepPoint(
                experiment="ephemeral", series=interface.value,
                x=threads,
                params={"file_size": size, "num_files": ops,
                        "num_threads": threads,
                        "interface": interface.value},
                media=media, device_gib=device_gib, aged=aged))
    return Sweep(name="scaling",
                 title="Read-once throughput (Kops/s)",
                 points=points, axis="threads")


@sweep("apache", "webserver scalability (fig 8a)")
def _apache_sweep(*, ops: int, size: int, media: str, device_gib: int,
                  aged: bool) -> Sweep:
    bars = [("read", ServerInterface.READ, None),
            ("mmap", ServerInterface.MMAP, None),
            ("daxvm", ServerInterface.DAXVM, DaxVMOptions.full())]
    points = []
    for workers in (1, 4, 8, 16):
        for series, interface, opts in bars:
            params = {"num_workers": workers, "requests": ops,
                      "interface": interface.value}
            if opts is not None:
                params["daxvm"] = _daxvm_params(opts)
            points.append(SweepPoint(
                experiment="apache", series=series, x=workers,
                params=params, media=media, device_gib=device_gib,
                aged=aged))
    return Sweep(name="apache",
                 title="Apache throughput (Kreq/s)",
                 points=points, axis="cores")


@sweep("ablations", "incremental DaxVM mechanisms at 16 cores (§V-C)")
def _ablations_sweep(*, ops: int, size: int, media: str,
                     device_gib: int, aged: bool) -> Sweep:
    workers = 16
    bars = [
        ("read", ServerInterface.READ, None, None),
        ("mmap", ServerInterface.MMAP, None, None),
        ("+filetables", ServerInterface.DAXVM,
         DaxVMOptions.filetables_only(), None),
        ("+ephemeral", ServerInterface.DAXVM,
         DaxVMOptions.with_ephemeral(), None),
        ("+async", ServerInterface.DAXVM, DaxVMOptions.full(), None),
        ("+batch512", ServerInterface.DAXVM, DaxVMOptions.full(), 512),
    ]
    points = []
    for series, interface, opts, batch in bars:
        params = {"num_workers": workers, "requests": ops,
                  "interface": interface.value}
        if opts is not None:
            params["daxvm"] = _daxvm_params(opts)
        if batch is not None:
            params["batch_pages"] = batch
        points.append(SweepPoint(
            experiment="apache", series=series, x=workers,
            params=params, media=media, device_gib=device_gib,
            aged=aged))
    return Sweep(name="ablations",
                 title=f"Fig. 8a incremental bars, {workers} cores "
                       f"(Kreq/s)",
                 points=points, axis="cores")


@sweep("crash", "crash-point injection + recovery audit per workload")
def _crash_sweep(*, ops: int, size: int, media: str, device_gib: int,
                 aged: bool) -> Sweep:
    """Both crash workloads at three seeds each.  ``ops`` bounds the
    crash points explored per sweep point (every point is a full
    machine replay, so the budget matters).  ``aged`` is deliberately
    ignored: replicas always start from fresh images."""
    max_points = max(4, min(ops, 48))
    points = []
    for workload in ("syncbench", "kvstore"):
        for seed in (0, 1, 2):
            points.append(SweepPoint(
                experiment="crash", series=workload, x=seed,
                params={"workload": workload, "seed": seed,
                        "max_points": max_points, "media": media,
                        "device_gib": device_gib},
                media=media, device_gib=device_gib, aged=False))
    return Sweep(name="crash",
                 title="Crash recovery audit (points explored)",
                 points=points, axis="seed")


@sweep("faults", "media-fault injection + poison-handling audit")
def _faults_sweep(*, ops: int, size: int, media: str, device_gib: int,
                  aged: bool) -> Sweep:
    """Every fault workload at two seeds.  ``ops`` bounds the armed
    sites per sweep point (each site is a full machine replica).
    ``aged`` is deliberately ignored: replicas start fresh."""
    max_sites = max(4, min(ops, 64))
    points = []
    for workload in ("syncbench", "kvstore", "readbench"):
        for seed in (0, 1):
            points.append(SweepPoint(
                experiment="faults", series=workload, x=seed,
                params={"workload": workload, "seed": seed,
                        "max_sites": max_sites, "media": media,
                        "device_gib": device_gib},
                media=media, device_gib=device_gib, aged=False))
    return Sweep(name="faults",
                 title="Media-fault handling audit (sites explored)",
                 points=points, axis="seed")


@sweep("selftest", "runner fault-isolation diagnostics (ok/crash/hang)")
def _selftest_sweep(*, ops: int, size: int, media: str, device_gib: int,
                    aged: bool) -> Sweep:
    """One crashing point and one hung point among healthy ones: used
    by CI to prove a sweep survives both with exactly the bad points
    quarantined.  ``ops`` sets the healthy-point count."""
    modes = ["ok"] * max(2, min(ops, 8))
    modes.insert(1, "crash")
    modes.append("hang")
    points = [SweepPoint(experiment="selftest", series=mode, x=i,
                         params={"mode": mode},
                         media=media, device_gib=device_gib, aged=False)
              for i, mode in enumerate(modes)]
    return Sweep(name="selftest",
                 title="Runner isolation selftest",
                 points=points, axis="slot")


@sweep("mmu", "four translation schemes x workload x clean/aged image")
def _mmu_sweep(*, ops: int, size: int, media: str, device_gib: int,
               aged: bool) -> Sweep:
    """DaxVM under four MMUs (see repro.paging.schemes).

    Two attach-heavy workloads — syncbench (one long-lived DaxVM
    mapping, walk-dominated) and the kvstore (small WAL/SSTable files
    rolled constantly, attach-dominated) — each on a clean and an aged
    image (x = 0/1), under every translation scheme.  The ``aged`` CLI
    knob is deliberately ignored: the clean/aged contrast *is* the
    experiment for the range scheme.  ``ops`` scales sync rounds and
    KV operations; ``size`` scales the syncbench file (floored at 4 MB
    so its file table goes persistent and walks pay PMem leaves).
    """
    from repro.paging.schemes import SCHEME_NAMES

    num_syncs = max(8, min(ops, 64))
    kv_ops = max(160, min(ops * 20, 3200))
    points = []
    for scheme in SCHEME_NAMES:
        for aged_image in (False, True):
            x = float(aged_image)
            points.append(SweepPoint(
                experiment="syncbench", series=f"syncbench+{scheme}",
                x=x,
                params={"file_size": max(size, 4 << 20),
                        "op_size": 1 << 10, "ops_per_sync": 16,
                        "num_syncs": num_syncs,
                        "discipline": "daxvm+fsync"},
                media=media, device_gib=device_gib, aged=aged_image,
                scheme=scheme))
            points.append(SweepPoint(
                experiment="kvstore", series=f"kvstore+{scheme}",
                x=x,
                params={"workload": "load_a", "num_ops": kv_ops,
                        "preload_records": 0,
                        "interface": Interface.DAXVM.value,
                        "record_size": 4096,
                        "memtable_limit": 1 << 20,
                        "sstable_size": 1 << 20, "wal_size": 1 << 20,
                        "daxvm": {"ephemeral": False,
                                  "unmap_async": False,
                                  "sync": True, "nosync": False}},
                media=media, device_gib=device_gib, aged=aged_image,
                scheme=scheme))
    return Sweep(name="mmu",
                 title="DaxVM across translation architectures "
                       "(cycles/op)",
                 points=points, axis="aged")


@sweep("numa", "file placement vs thread count on two sockets")
def _numa_sweep(*, ops: int, size: int, media: str, device_gib: int,
                aged: bool) -> Sweep:
    """Read-once mmap with workload threads pinned to socket 0 and the
    file placed local to them, on the remote socket, or interleaved
    across both — the dual-socket Optane placement experiment."""
    points = []
    for threads in (1, 2, 4, 8, 16):
        for placement in PLACEMENTS:
            points.append(SweepPoint(
                experiment="ephemeral", series=placement, x=threads,
                params={"file_size": size, "num_files": ops,
                        "num_threads": threads,
                        "interface": Interface.MMAP.value,
                        "pin_node": 0},
                media=media, device_gib=device_gib, aged=aged,
                num_nodes=2, placement=placement, pin_node=0))
    return Sweep(name="numa",
                 title="NUMA file placement, mmap read-once (Kops/s)",
                 points=points, axis="threads")


#: Data tiers of the tiering sweep, in x-axis order.  ``dram`` is the
#: tmpfs-like bound (no daemon variant: nothing faster to promote to).
TIERING_TIERS = ("dram", "pmem", "cxl")


@sweep("tiering", "interfaces x data tier (DRAM/PMem/CXL) x ktierd")
def _tiering_sweep(*, ops: int, size: int, media: str, device_gib: int,
                   aged: bool) -> Sweep:
    """Where does each interface break even as file data moves down
    the memory hierarchy?  Read-once (read/mmap/daxvm) plus syncbench
    at every data tier (x = tier index: 0 dram, 1 pmem, 2 cxl), with
    and without the hot/cold migration daemon.  CXL points carry an
    expander node (``node_kinds``), so the machine actually has the
    medium it prices.  The daemon runs hair-triggered (one touch
    promotes, short scan interval) so short sweep points exercise real
    migrations, not just scans."""
    daemon_knobs = {"daemon": True, "scan_interval": 5e5,
                    "hot_touches": 1, "cold_scans": 4}
    num_syncs = max(8, min(ops, 64))
    points = []
    for x, tier in enumerate(TIERING_TIERS):
        node_kinds = "ddr,cxl" if tier == "cxl" else ""
        daemons = (False,) if tier == "dram" else (False, True)
        for daemon in daemons:
            tiering = dict(daemon_knobs) if daemon else {"data": tier}
            if daemon:
                tiering["data"] = tier
            suffix = "+ktierd" if daemon else ""
            for interface in (Interface.READ, Interface.MMAP,
                              Interface.DAXVM):
                points.append(SweepPoint(
                    experiment="ephemeral",
                    series=f"{interface.value}{suffix}", x=x,
                    params={"file_size": size, "num_files": ops,
                            "num_threads": 4,
                            "interface": interface.value},
                    media=media, device_gib=device_gib, aged=aged,
                    node_kinds=node_kinds, tiering=tiering))
            points.append(SweepPoint(
                experiment="syncbench", series=f"syncbench{suffix}",
                x=x,
                params={"file_size": max(size, 4 << 20),
                        "op_size": 1 << 10, "ops_per_sync": 16,
                        "num_syncs": num_syncs,
                        "discipline": "daxvm+fsync"},
                media=media, device_gib=device_gib, aged=aged,
                node_kinds=node_kinds, tiering=tiering))
    return Sweep(name="tiering",
                 title="Interfaces across data tiers (Kops/s)",
                 points=points, axis="tier")


@point_runner("consolidate")
def _consolidate_point(system: System) -> RunResult:
    """One consolidated machine.  The tenant set, quotas and
    antagonist all come from the point's ``tenancy`` payload (which
    the worker already attached), so the tenancy shape is part of the
    cache key by construction."""
    from repro.errors import InvalidArgumentError
    from repro.tenancy import run_consolidate

    if system.tenancy is None:
        raise InvalidArgumentError(
            "consolidate points need a tenancy payload on the SweepPoint")
    return run_consolidate(system)


#: Tenant counts on the consolidation knee's x axis.
CONSOLIDATE_TENANTS = (1, 2, 4, 8, 16)


@sweep("consolidate", "tenant count x workload mix x quotas x antagonist")
def _consolidate_sweep(*, ops: int, size: int, media: str,
                       device_gib: int, aged: bool) -> Sweep:
    """How does per-tenant p99 degrade as tenants pile onto one
    machine?  Each mix runs 1..16 closed-loop tenants, with quota
    enforcement on/off and with/without a stress-ng-style ``vm`` hog
    on top.  Quotas-on points come first at each (n, mix, hog) cell so
    a ``--max-points`` smoke always exercises enforcement.  The
    single-tenant no-quota apache/predis/kvstore points take the
    degenerate passive path and are golden-gated bit-identical to the
    un-tenanted runners (the ``tenancy`` gate of
    :mod:`repro.analysis.goldens`)."""
    from repro.tenancy import consolidate_config

    requests = max(8, min(ops, 64))
    points = []
    for n in CONSOLIDATE_TENANTS:
        for mix in ("apache", "predis", "kvstore"):
            for antagonist in (False, True):
                for quotas in (True, False):
                    config = consolidate_config(
                        n, mix, quotas=quotas, antagonist=antagonist,
                        requests=requests)
                    series = (f"{mix}+{'q' if quotas else 'noq'}"
                              f"+{'hog' if antagonist else 'nohog'}")
                    points.append(SweepPoint(
                        experiment="consolidate", series=series, x=n,
                        params={}, media=media, device_gib=device_gib,
                        aged=aged, tenancy=config.to_state()))
    return Sweep(name="consolidate",
                 title="Consolidation: per-tenant p99 vs tenant count",
                 points=points, axis="tenants")


@point_runner("migrate")
def _migrate_point(system: System, *, workload: str) -> RunResult:
    """One guest run under the hypervisor the worker attached from the
    point's ``virt`` payload (so the hypervisor shape is part of the
    cache key by construction)."""
    from repro.errors import InvalidArgumentError
    from repro.virt import run_migrate

    if system.hypervisor is None:
        raise InvalidArgumentError(
            "migrate points need a virt payload on the SweepPoint")
    return run_migrate(system, workload)


#: Migration trigger points on the migrate sweep's x axis (guest
#: accesses before the pause): earlier triggers migrate more residual
#: state under post-copy, later triggers shrink the pull window.
MIGRATE_AFTER = (8, 16, 32, 64)


@sweep("migrate", "post-copy live migration: trigger point x prefetch")
def _migrate_sweep(*, ops: int, size: int, media: str, device_gib: int,
                   aged: bool) -> Sweep:
    """Downtime and pull traffic vs when the migration triggers, with
    and without the prefetch kthread, for both guest workloads.  The
    ``base`` series (x = 0) is the nested-but-never-migrated guest —
    the cost floor every migrating point is compared against.  ``ops``
    and ``size`` are deliberately ignored: guest workloads are the
    pinned crash workloads, so points stay byte-comparable across
    budget knobs."""
    points = []
    for workload in ("syncbench", "kvstore"):
        points.append(SweepPoint(
            experiment="migrate", series=f"{workload}+base", x=0,
            params={"workload": workload},
            media=media, device_gib=device_gib, aged=False,
            virt={"nested": True, "migrate": False}))
        for after in MIGRATE_AFTER:
            for prefetch in (True, False):
                suffix = "+prefetch" if prefetch else "+noprefetch"
                points.append(SweepPoint(
                    experiment="migrate",
                    series=f"{workload}{suffix}", x=after,
                    params={"workload": workload},
                    media=media, device_gib=device_gib, aged=False,
                    virt={"nested": True, "migrate": True,
                          "migrate_after": after,
                          "prefetch": prefetch, "seed": 0}))
    return Sweep(name="migrate",
                 title="Post-copy migration: downtime and pull traffic",
                 points=points, axis="migrate_after")


def build_sweep(name: str, *, ops: int, size: int, media: str,
                device_gib: int, aged: bool) -> Sweep:
    """Expand a named sweep with the given CLI-level knobs."""
    builder = SWEEPS.get(name)
    if builder is None:
        raise KeyError(f"unknown sweep {name!r}; known: {sorted(SWEEPS)}")
    return builder(ops=ops, size=size, media=media,
                   device_gib=device_gib, aged=aged)
