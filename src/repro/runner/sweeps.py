"""The sweep registry: point runners and manifest builders.

A *point runner* maps ``(system, **params)`` to a
:class:`~repro.analysis.results.RunResult` — the unit of work a pool
worker executes.  A *sweep builder* expands CLI-level knobs into a
:class:`~repro.runner.manifest.Sweep` of independent points, and
declares beside itself the counter columns its report shows and the
CLI knobs of its smoke run.  Both are looked up by name, so the CLI,
the paper claims (:mod:`repro.analysis.claims`) and the tests share
one definition of what "the apache sweep" means.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.results import RunResult
from repro.config import MEDIA_PRESETS
from repro.mem.physmem import Medium
from repro.paging.tlb import AccessPattern
from repro.runner.manifest import Sweep, SweepPoint
from repro.runner.worker import build_system
from repro.system import System
from repro.topology import PLACEMENTS
from repro.vm.vma import MapFlags, Protection
from repro.workloads import (
    ApacheConfig,
    AppendConfig,
    AppendVariant,
    DaxVMOptions,
    EphemeralConfig,
    Interface,
    KVConfig,
    PRedisConfig,
    RepetitiveConfig,
    ServerInterface,
    SyncConfig,
    SyncDiscipline,
    TextSearchConfig,
    YCSBConfig,
    create_files,
    linux_tree_sizes,
    run_apache,
    run_append,
    run_ephemeral,
    run_predis,
    run_repetitive,
    run_sync,
    run_textsearch,
    run_ycsb,
)

PointRunner = Callable[..., RunResult]
POINT_RUNNERS: Dict[str, PointRunner] = {}
SWEEPS: Dict[str, Callable[..., Sweep]] = {}


def point_runner(name: str, replicas: bool = False):
    """Register a point runner.  ``replicas=True`` marks an audit that
    builds its own machines (two per crash audit, one per fault site):
    the worker then also passes it the ``point``, so every machine it
    builds takes the point's shape."""
    def decorate(fn):
        fn.replicas = replicas
        POINT_RUNNERS[name] = fn
        return fn
    return decorate


def sweep(name: str, help_text: str, columns: Sequence[str] = (),
          smoke: str = ""):
    """Register a sweep builder.  ``columns`` are the run counters its
    report shows per point; ``smoke`` is the CLI knob string of its
    CI-sized run (``tests/test_cli.py`` runs every sweep at it)."""
    def decorate(fn):
        fn.help_text = help_text
        fn.columns = tuple(columns)
        fn.smoke = smoke
        SWEEPS[name] = fn
        return fn
    return decorate


def _daxvm_options(state: Optional[dict]) -> DaxVMOptions:
    return DaxVMOptions(**state) if state else DaxVMOptions.full()


def _daxvm_params(opts: DaxVMOptions) -> dict:
    return {"ephemeral": opts.ephemeral, "unmap_async": opts.unmap_async,
            "sync": opts.sync, "nosync": opts.nosync}


def _filetable_threshold(system: System, volatile_max: Optional[int]) -> None:
    """Move the §IV-A1 volatile/persistent file-table split to
    ``volatile_max`` bytes (``None`` keeps the preset's 32 KB).  Must
    run before the workload builds its first table."""
    if volatile_max is not None:
        system.costs = system.costs.replace(
            filetable_volatile_max=volatile_max)
        system.fs.costs = system.costs


def _replicas(point: SweepPoint, media: str,
              device_gib: int) -> Callable[[], System]:
    """A factory of fresh-image replicas of ``point``'s machine.  The
    ``media``/``device_gib`` runner params (every audit point carries
    them, equal to the point's own) pick the replica's media and
    size; aging churn per replica is pure overhead for the audits."""
    shape = replace(point, media=media, device_gib=device_gib, aged=False)
    return lambda: build_system(shape)


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
                  batch_pages: Optional[int] = None,
                  page_size: int = 32 << 10,
                  multiprocess: bool = False) -> RunResult:
    cfg = ApacheConfig(page_size=page_size, num_workers=num_workers,
                       requests=requests,
                       interface=ServerInterface(interface),
                       daxvm=_daxvm_options(daxvm),
                       batch_pages=batch_pages, multiprocess=multiprocess)
    return run_apache(system, cfg)


@point_runner("crash", replicas=True)
def _crash_point(system: System, point: SweepPoint, *, workload: str,
                 seed: int, max_points: int, media: str = "optane",
                 device_gib: int = 1) -> RunResult:
    """Crash audits build their own probe and exploring machines, so
    the pool's pre-built ``system`` is unused."""
    from repro.crash import run_crash

    summary = run_crash(_replicas(point, media, device_gib), workload,
                        seed=seed, max_points=max_points)
    return summary.to_result()


@point_runner("faults", replicas=True)
def _faults_point(system: System, point: SweepPoint, *, workload: str,
                  seed: int, max_sites: int, media: str = "optane",
                  device_gib: int = 1) -> RunResult:
    """Media-fault sweeps rebuild a machine per armed site (same
    replica discipline as crash points)."""
    from repro.faults import run_faults

    summary = run_faults(_replicas(point, media, device_gib), workload,
                         seed=seed, max_sites=max_sites)
    return summary.to_result()


@point_runner("migrate-audit")
def _migrate_audit_point(system: System, *, seeds: Sequence[int],
                         max_points: int, max_sites: int,
                         composed_points: int, media: str = "optane",
                         device_gib: int = 1) -> RunResult:
    """The post-copy migration hardening audit over both guest
    workloads; its replicas carry their own hypervisor, so the pool's
    pre-built ``system`` is unused."""
    from repro.virt import run_migrate_audit

    return run_migrate_audit(
        seeds=tuple(seeds), max_points=max_points, max_sites=max_sites,
        composed_points=composed_points, media=media,
        device_gib=device_gib).to_result()


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
                   daxvm: Optional[dict] = None,
                   prezero: bool = False) -> RunResult:
    kv = KVConfig(record_size=record_size,
                  memtable_limit=memtable_limit,
                  sstable_size=sstable_size, wal_size=wal_size,
                  interface=Interface(interface),
                  daxvm=_daxvm_options(daxvm))
    cfg = YCSBConfig(workload=workload, num_ops=num_ops,
                     preload_records=preload_records, kv=kv,
                     prezero=prezero)
    return run_ycsb(system, cfg)


@point_runner("repetitive")
def _repetitive_point(system: System, *, file_size: int, op_size: int,
                      num_ops: int, pattern: str, interface: str,
                      monitor_every: int = 0,
                      daxvm: Optional[dict] = None, write: bool = False,
                      allow_huge: bool = True,
                      filetable_volatile_max: Optional[int] = None
                      ) -> RunResult:
    _filetable_threshold(system, filetable_volatile_max)
    cfg = RepetitiveConfig(file_size=file_size, op_size=op_size,
                           num_ops=num_ops, pattern=AccessPattern(pattern),
                           write=write, interface=Interface(interface),
                           monitor_every=monitor_every,
                           allow_huge=allow_huge,
                           daxvm=_daxvm_options(daxvm))
    return run_repetitive(system, cfg)


@point_runner("predis")
def _predis_point(system: System, *, cache_size: int, num_gets: int,
                  window: int, interface: str) -> RunResult:
    """P-Redis boot and warm-up; the boot cycles and the first, last,
    slowest and fastest windows' throughput go into the run's
    counters."""
    result = run_predis(system, PRedisConfig(
        cache_size=cache_size, num_gets=num_gets, window=window,
        interface=Interface(interface)))
    run = result.run
    run.counters["predis.boot_cycles"] = result.boot_seconds * run.freq_hz
    windows = result.timeline.points
    if windows:
        run.counters["predis.first_window_ops_per_s"] = windows[0][1]
        run.counters["predis.last_window_ops_per_s"] = windows[-1][1]
        rates = [rate for _x, rate in windows]
        run.counters["predis.min_window_ops_per_s"] = min(rates)
        run.counters["predis.max_window_ops_per_s"] = max(rates)
    return run


@point_runner("append")
def _append_point(system: System, *, append_size: int, num_appends: int,
                  variant: str, filetables: bool = False) -> RunResult:
    """``filetables=True`` creates the file-table manager first, so
    every append also maintains its persistent table (§V-B)."""
    if filetables:
        system.filetables
    return run_append(system, AppendConfig(
        append_size=append_size, num_appends=num_appends,
        variant=AppendVariant(variant)))


@point_runner("textsearch")
def _textsearch_point(system: System, *, num_files: int, total_bytes: int,
                      num_threads: int, interface: str,
                      daxvm: Optional[dict] = None) -> RunResult:
    """Fig. 9a: ``ag`` over a Linux-tree-like file set."""
    return run_textsearch(system, TextSearchConfig(
        num_files=num_files, total_bytes=total_bytes,
        num_threads=num_threads, interface=Interface(interface),
        daxvm=_daxvm_options(daxvm)))


@point_runner("prezero-interference")
def _prezero_interference_point(system: System, *, junk_bytes: int,
                                **kvstore) -> RunResult:
    """§V-C: a kvstore point with the pre-zero daemon running beside
    it.  A junk file of ``junk_bytes`` is written and unlinked first,
    so the daemon has freed blocks to zero through the whole load; it
    runs on the last core at the preset's throttle."""
    core = system.engine.cores[-1].index
    proc = system.new_process("junk")
    dax = system.daxvm_for(proc)
    dax.prezero.prezero_all_free()

    def junk():
        f = yield from system.fs.open("/junk", create=True)
        yield from system.fs.write(f, 0, junk_bytes)
        yield from system.fs.close(f)
        yield from system.fs.unlink("/junk")

    system.spawn(junk(), core=core, process=proc)
    system.run()
    dax.prezero.start(core=core)
    return _kvstore_point(system, **kvstore)


@point_runner("msync")
def _msync_point(system: System, *, file_size: int, window_pages: int,
                 writes: int, sync_every: int) -> RunResult:
    """§III-A4's msync fault blow-up.  ``writes`` 1 KB writes revisit
    a ``window_pages`` window of one shared mapping, first with no
    msync and then with one every ``sync_every`` writes, on the same
    machine; each pass's fault count goes into the counters."""
    system.fs.allow_huge = False  # 4 KB PTE faults, as §III-A4 measures
    proc = system.new_process()

    def make():
        f = yield from system.fs.open("/blow", create=True)
        yield from system.fs.write(f, 0, file_size)
        return f.inode

    thread = system.spawn(make(), core=0)
    system.run()
    inode = thread.result
    faults = []

    def flow(every):
        vma = yield from proc.mm.mmap(system.fs, inode, 0, file_size,
                                      Protection.rw(), MapFlags.SHARED)
        before = system.stats.get("vm.faults")
        for i in range(writes):
            offset = ((i * 179) % window_pages) * 4096
            yield from proc.mm.access(vma, offset, 1024, write=True)
            if every and (i + 1) % every == 0:
                yield from proc.mm.msync(vma)
        faults.append(system.stats.get("vm.faults") - before)
        yield from proc.mm.munmap(vma)

    for every in (0, sync_every):
        system.spawn(flow(every), core=0, process=proc)
        system.run()
    return RunResult(label="msync", cycles=system.engine.now,
                     operations=float(2 * writes),
                     counters={"msync.faults_nosync": faults[0],
                               "msync.faults_sync": faults[1]},
                     freq_hz=system.costs.machine.freq_hz)


def _table_bytes(system: System, inodes, prefix: str) -> Dict[str, float]:
    """File-table bytes of ``inodes`` by medium, as run counters."""
    report = system.filetables.storage_report(inodes)
    return {f"{prefix}.pmem_bytes": float(report["pmem_bytes"]),
            f"{prefix}.dram_bytes": float(report["dram_bytes"])}


@point_runner("storage")
def _storage_point(system: System, *, num_files: int, total_bytes: int,
                   big_file: int) -> RunResult:
    """§V-B storage tax: the file tables of a Linux-tree-like set of
    ``num_files`` files, then of one ``big_file``-byte file.  The
    manager exists before the files, so tables grow with them."""
    system.filetables
    sizes = linux_tree_sizes(num_files, total_bytes=total_bytes)
    counters = _table_bytes(system, create_files(system, sizes), "tree")
    counters.update(_table_bytes(
        system, create_files(system, [big_file], prefix="/big"), "big"))
    counters["tree.data_bytes"] = float(sum(sizes))
    return RunResult(label="storage", cycles=system.engine.now,
                     operations=float(num_files + 1), counters=counters,
                     freq_hz=system.costs.machine.freq_hz)


@point_runner("filetable-policy")
def _filetable_policy_point(system: System, *, filetable_volatile_max: int,
                            **ephemeral) -> RunResult:
    """§IV-A1 placement policy: an ephemeral point with the volatile/
    persistent split at ``filetable_volatile_max`` bytes; the tables
    of every file left behind go into the counters by medium."""
    _filetable_threshold(system, filetable_volatile_max)
    run = _ephemeral_point(system, **ephemeral)
    run.counters.update(_table_bytes(
        system, [system.vfs.lookup(p) for p in system.vfs.paths()],
        "filetable"))
    return run


#: Table II's walk cases: (counter suffix, access pattern, table medium).
WALK_CASES = (("seq_dram", AccessPattern.SEQUENTIAL, Medium.DRAM),
              ("rand_dram", AccessPattern.RANDOM, Medium.DRAM),
              ("seq_pmem", AccessPattern.SEQUENTIAL, Medium.PMEM),
              ("rand_pmem", AccessPattern.RANDOM, Medium.PMEM))


@point_runner("walks")
def _walks_point(system: System) -> RunResult:
    """Table II analogue for the point's translation scheme, priced
    analytically: cycles per 4 KB walk by access pattern and file-table
    medium (as a DaxVM mapping on this scheme pays them), the huge-page
    walk, whether PMem-resident tables trip the Table III monitor rule,
    and the structure frames of mapping 2 MB of 4 KB pages.  Cycles
    are the four walks' sum, so cycles/op is their mean."""
    from repro.paging.flags import PageFlags
    from repro.paging.pagetable import PAGE_SIZE
    from repro.paging.schemes import make_scheme
    from repro.paging.walker import PageWalker

    costs = system.costs
    walker = PageWalker(costs)
    probe = make_scheme(system.scheme, system.physmem, costs)
    counters = {f"walk.{name}_cycles": probe.walk_cost(
                    walker, pattern, probe.effective_leaf_medium(medium))
                for name, pattern, medium in WALK_CASES}
    walk_total = sum(counters.values())
    counters["walk.huge_cycles"] = probe.huge_walk_cost(walker)
    counters["walk.pmem_trips_monitor"] = float(
        counters["walk.rand_pmem_cycles"] > costs.monitor_walk_cycles)
    for i in range(512):
        probe.map_page(0x40000000 + i * PAGE_SIZE, 1024 + i,
                       PageFlags.rw())
    counters["walk.frames_2mb"] = float(len(probe.structure_frames()))
    return RunResult(label=f"walks:{system.scheme}", cycles=walk_total,
                     operations=float(len(WALK_CASES)), counters=counters,
                     freq_hz=costs.machine.freq_hz)


@point_runner("selftest")
def _selftest_point(system: System, *, mode: str,
                    hang_seconds: float = 3600.0) -> RunResult:
    """Runner-hardening diagnostics: each mode exercises one failure
    path of the sweep driver itself (quarantine, watchdog).  ``ok``
    completes instantly; ``crash`` raises; ``hang`` sleeps past any
    sane watchdog; ``oom``/``deadlock`` raise the simulator's
    ENOMEM/deadlock errors, exercising those surfaces end to end."""
    import time as _time

    from repro.errors import DeadlockError, MemoryError_

    if mode == "crash":
        raise RuntimeError("selftest: injected worker crash")
    if mode == "hang":
        _time.sleep(hang_seconds)
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
@sweep("scaling", "read-once throughput vs thread count (fig 1b)",
       smoke="--ops 8 --device 1")
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


@sweep("apache", "webserver scalability (fig 8a)",
       smoke="--ops 120 --device 2")
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


@sweep("ablations", "incremental DaxVM mechanisms at 16 cores (§V-C)",
       smoke="--ops 8 --device 1 --profile")
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


@sweep("crash", "crash-point injection + recovery audit per workload",
       columns=("crash.points_explored", "crash.replayed_records",
                "crash.invariant_violations"),
       smoke="--ops 24 --device 1")
def _crash_sweep(*, ops: int, size: int, media: str, device_gib: int,
                 aged: bool) -> Sweep:
    """Both crash workloads at three seeds each.  ``ops`` bounds the
    crash points explored per sweep point (each point crashes and
    recovers one storage image).  ``aged`` is deliberately ignored:
    the audit's machines always start from fresh images."""
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


@sweep("faults", "media-fault injection + poison-handling audit",
       columns=("faults.sites_explored", "faults.remapped",
                "faults.violations"),
       smoke="--ops 8 --device 1")
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


@sweep("selftest", "runner fault-isolation diagnostics (ok/crash/hang)",
       smoke="--ops 3 --device 1 --no-cache --point-timeout 3 "
             "--expect-failed 2")
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


@sweep("mmu", "four translation schemes x workload x clean/aged image",
       columns=("vm.walk_cycles", "vm.tlb_misses"),
       smoke="--ops 16 --device 1 --max-points 8")
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


@sweep("numa", "file placement vs thread count on two sockets",
       columns=("numa.local_accesses", "numa.remote_accesses",
                "numa.local_bytes", "numa.remote_bytes"),
       smoke="--ops 60 --device 2")
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


@sweep("ephemeral", "read-once file access across interfaces",
       smoke="--ops 40 --device 1")
def _ephemeral_sweep(*, ops: int, size: int, media: str, device_gib: int,
                     aged: bool) -> Sweep:
    """``ops`` files of ``size`` bytes read once by one thread through
    each interface."""
    points = [SweepPoint(
        experiment="ephemeral", series=interface.value, x=1,
        params={"file_size": size, "num_files": ops, "num_threads": 1,
                "interface": interface.value},
        media=media, device_gib=device_gib, aged=aged)
        for interface in (Interface.READ, Interface.MMAP,
                          Interface.MMAP_POPULATE, Interface.DAXVM)]
    return Sweep(name="ephemeral",
                 title=f"Ephemeral access, {size >> 10} KB files (Kops/s)",
                 points=points, axis="threads")


@sweep("media", "DaxVM across storage media (§VI)",
       smoke="--ops 30 --device 1")
def _media_sweep(*, ops: int, size: int, media: str, device_gib: int,
                 aged: bool) -> Sweep:
    """32 KB read-once files, read() vs DaxVM, on every media preset
    (the ``media`` knob is replaced per point); x is the file size in
    KB."""
    points = [SweepPoint(
        experiment="ephemeral", series=f"{preset}+{interface.value}",
        x=32,
        params={"file_size": 32 << 10, "num_files": ops, "num_threads": 1,
                "interface": interface.value},
        media=preset, device_gib=device_gib, aged=aged)
        for preset in MEDIA_PRESETS
        for interface in (Interface.READ, Interface.DAXVM)]
    return Sweep(name="media",
                 title="32KB ephemeral access across media (Kops/s)",
                 points=points, axis="KB")


@sweep("ycsb", "YCSB load_a over the Pmem-RocksDB model (fig 9c)",
       columns=("journal.sync_commits",), smoke="--ops 200 --device 1")
def _ycsb_sweep(*, ops: int, size: int, media: str, device_gib: int,
                aged: bool) -> Sweep:
    """mmap, DaxVM and DaxVM with pre-zeroing and nosync over the
    kvstore, on ext4 (x = 0) and NOVA (x = 1)."""
    long_lived = {"ephemeral": False, "unmap_async": False}
    variants = (
        ("mmap", Interface.MMAP, DaxVMOptions(**long_lived), False),
        ("daxvm", Interface.DAXVM, DaxVMOptions(**long_lived), False),
        ("daxvm+pz+ns", Interface.DAXVM,
         DaxVMOptions(**long_lived, nosync=True), True),
    )
    points = [SweepPoint(
        experiment="kvstore", series=name, x=x,
        params={"workload": "load_a", "num_ops": ops,
                "preload_records": 0, "interface": interface.value,
                "daxvm": _daxvm_params(opts), "prezero": prezero},
        media=media, device_gib=device_gib, aged=aged, fs_type=fs_type)
        for x, fs_type in enumerate(("ext4", "nova"))
        for name, interface, opts, prezero in variants]
    return Sweep(name="ycsb", title="YCSB load_a (Kops/s)",
                 points=points, axis="nova")


@sweep("repetitive", "database-style 4KB ops over one big file",
       smoke="--ops 8 --device 1")
def _repetitive_sweep(*, ops: int, size: int, media: str,
                      device_gib: int, aged: bool) -> Sweep:
    """``64 * ops`` 4 KB reads over a 96 MB file, sequential (x = 0)
    and random (x = 1), with DaxVM's MMU monitor ticking."""
    daxvm = _daxvm_params(DaxVMOptions(ephemeral=False, unmap_async=False,
                                       nosync=True))
    points = [SweepPoint(
        experiment="repetitive", series=interface.value, x=x,
        params={"file_size": 96 << 20, "op_size": 4096,
                "num_ops": 64 * ops, "pattern": pattern.value,
                "interface": interface.value, "monitor_every": 8192,
                "daxvm": daxvm},
        media=media, device_gib=device_gib, aged=aged)
        for x, pattern in enumerate((AccessPattern.SEQUENTIAL,
                                     AccessPattern.RANDOM))
        for interface in (Interface.READ, Interface.MMAP, Interface.DAXVM)]
    return Sweep(name="repetitive",
                 title="Repetitive 4KB ops over a large file (Kops/s)",
                 points=points, axis="random")


@sweep("predis", "P-Redis boot and warm-up timeline (fig 9b)",
       columns=("predis.boot_cycles", "predis.first_window_ops_per_s",
                "predis.last_window_ops_per_s"),
       smoke="--ops 1000 --device 2")
def _predis_sweep(*, ops: int, size: int, media: str, device_gib: int,
                  aged: bool) -> Sweep:
    """``ops`` gets from a 512 MB cache after a cold boot, per
    interface; throughput is sampled every ``max(500, ops // 16)``
    gets."""
    points = [SweepPoint(
        experiment="predis", series=interface.value, x=512,
        params={"cache_size": 512 << 20, "num_gets": ops,
                "window": max(500, ops // 16),
                "interface": interface.value},
        media=media, device_gib=device_gib, aged=aged)
        for interface in (Interface.MMAP, Interface.MMAP_POPULATE,
                          Interface.DAXVM)]
    return Sweep(name="predis", title="P-Redis gets (Kops/s)",
                 points=points, axis="cache MB")


#: Fig. 7's append sizes, the appends sweep's x axis (in KB).
APPEND_SIZES = (4 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20)


@sweep("appends", "single-op appends: Fig. 7 variants x size, ext4/NOVA",
       smoke="--ops 64 --device 1")
def _appends_sweep(*, ops: int, size: int, media: str, device_gib: int,
                   aged: bool) -> Sweep:
    """Every append variant at every Fig. 7 size on ext4-DAX and NOVA;
    each point appends ``max(8, ops // 8)`` times, each append onto
    its own empty file."""
    points = [SweepPoint(
        experiment="append", series=f"{fs_type}+{variant.value}",
        x=append_size >> 10,
        params={"append_size": append_size,
                "num_appends": max(8, ops // 8), "variant": variant.value},
        media=media, device_gib=device_gib, aged=aged, fs_type=fs_type)
        for fs_type in ("ext4", "nova")
        for variant in AppendVariant
        for append_size in APPEND_SIZES]
    return Sweep(name="appends", title="Append throughput (Kops/s)",
                 points=points, axis="KB")


@sweep("walks", "Table II/III walk costs per translation scheme",
       columns=tuple(f"walk.{case[0]}_cycles" for case in WALK_CASES)
       + ("walk.huge_cycles", "walk.pmem_trips_monitor",
          "walk.frames_2mb"),
       smoke="--device 1")
def _walks_sweep(*, ops: int, size: int, media: str, device_gib: int,
                 aged: bool) -> Sweep:
    """One analytic walk point per translation scheme; ``ops``,
    ``size`` and ``aged`` are ignored."""
    from repro.paging.schemes import SCHEME_NAMES

    points = [SweepPoint(experiment="walks", series=scheme, x=0,
                         media=media, device_gib=device_gib, aged=False,
                         scheme=scheme)
              for scheme in SCHEME_NAMES]
    return Sweep(name="walks", title=f"Avg cycles per 4KB walk ({media})",
                 points=points, axis="-")


#: Data tiers of the tiering sweep, in x-axis order.  ``dram`` is the
#: tmpfs-like bound (no daemon variant: nothing faster to promote to).
TIERING_TIERS = ("dram", "pmem", "cxl")


@sweep("tiering", "interfaces x data tier (DRAM/PMem/CXL) x ktierd",
       columns=("tiering.scans", "tiering.promoted_pages",
                "tiering.demoted_pages", "tiering.migrated_bytes",
                "tiering.writeback_bytes", "tiering.shootdowns"),
       smoke="--ops 16 --device 1")
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


@sweep("consolidate", "tenant count x workload mix x quotas x antagonist",
       columns=("tenancy.requests", "tenancy.cpu_throttle_cycles",
                "tenancy.bw_throttle_cycles", "tenancy.quota_scans"),
       smoke="--ops 16 --device 1 --max-points 8")
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


@sweep("migrate", "post-copy live migration: trigger point x prefetch",
       columns=("virt.downtime_cycles", "virt.pages_pulled",
                "virt.prefetched_pages", "virt.migrations_completed"),
       smoke="--ops 16 --device 1 --max-points 10")
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
