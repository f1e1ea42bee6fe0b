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

from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.results import RunResult
from repro.config import MEDIA_PRESETS
from repro.mem.physmem import Medium
from repro.paging.tlb import AccessPattern
from repro.runner.manifest import Sweep, SweepPoint
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
    the worker then passes it the point's
    :func:`~repro.runner.worker.replicas` builder instead of a machine,
    so every machine it builds takes the point's shape."""
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


#: ``daxvm`` runner params: the full DaxVM, and the long-lived mapping
#: of the repetitive, walk and YCSB points, with and without kernel
#: dirty tracking.  Only the ``daxvm`` interface reads them.
FULL = asdict(DaxVMOptions.full())
LONG_LIVED = asdict(DaxVMOptions(ephemeral=False, unmap_async=False))
NOSYNC = asdict(DaxVMOptions(ephemeral=False, unmap_async=False,
                             nosync=True))


def _filetable_threshold(system: System, volatile_max: Optional[int]) -> None:
    """Move the §IV-A1 volatile/persistent file-table split to
    ``volatile_max`` bytes (``None`` keeps the preset's 32 KB).  Must
    run before the workload builds its first table."""
    if volatile_max is not None:
        system.costs = system.costs.replace(
            filetable_volatile_max=volatile_max)
        system.fs.costs = system.costs


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
def _crash_point(build: Callable[..., System], *, workload: str, seed: int,
                 max_points: int, media: Optional[str] = None,
                 device_gib: Optional[int] = None) -> RunResult:
    """Crash audits build their own probe and exploring machines from
    the point.  ``media``/``device_gib`` are accepted for payloads that
    repeat the point's own fields; the replicas take the point's."""
    from repro.crash import run_crash

    return run_crash(build, workload, seed=seed,
                     max_points=max_points).to_result()


@point_runner("faults", replicas=True)
def _faults_point(build: Callable[..., System], *, workload: str, seed: int,
                  max_sites: int, media: Optional[str] = None,
                  device_gib: Optional[int] = None) -> RunResult:
    """Media-fault audits build a machine per armed site (same replica
    discipline as crash points)."""
    from repro.faults import run_faults

    return run_faults(build, workload, seed=seed,
                      max_sites=max_sites).to_result()


@point_runner("migrate-audit", replicas=True)
def _migrate_audit_point(build: Callable[..., System], *,
                         seeds: Sequence[int], max_points: int,
                         max_sites: int,
                         composed_points: int) -> RunResult:
    """The post-copy migration hardening audit over both guest
    workloads; its replicas are the point's machine with an armed
    hypervisor."""
    from repro.virt import run_migrate_audit

    return run_migrate_audit(
        build, seeds=tuple(seeds), max_points=max_points,
        max_sites=max_sites,
        composed_points=composed_points).to_result()


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
# Sweep builders (figure -> list of points).  Each takes the five CLI
# knobs: ``ops`` and ``size`` shape the workload; ``machine`` holds
# ``media``, ``device_gib`` and ``aged``, the point's machine fields.
# ---------------------------------------------------------------------------
@sweep("scaling", "read-once throughput vs thread count (fig 1b)",
       smoke="--ops 8 --device 1")
def _scaling_sweep(*, ops: int, size: int, **machine) -> Sweep:
    points = [SweepPoint(
        "ephemeral", interface.value, threads,
        {"file_size": size, "num_files": ops, "num_threads": threads,
         "interface": interface.value}, **machine)
        for threads in (1, 2, 4, 8, 16)
        for interface in (Interface.READ, Interface.MMAP, Interface.DAXVM)]
    return Sweep(name="scaling", title="Read-once throughput (Kops/s)",
                 points=points, axis="threads")


@sweep("apache", "webserver scalability (fig 8a, §V-C processes)",
       smoke="--ops 120 --device 2")
def _apache_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """read, mmap and DaxVM serving ``ops`` requests at 1-16 workers
    (2 workers last, so a ``--max-points`` prefix keeps the 1-16
    shape), and at 8 workers mmap and DaxVM with one single-thread
    process per worker (§V-C)."""
    bars = (("read", {}), ("mmap", {}), ("daxvm", {"daxvm": FULL}))
    points = [SweepPoint(
        "apache", interface, workers,
        {"num_workers": workers, "requests": ops, "interface": interface,
         **params}, **machine)
        for workers in (1, 4, 8, 16, 2) for interface, params in bars]
    points += [SweepPoint(
        "apache", f"{interface}+procs", 8,
        {"num_workers": 8, "requests": ops, "interface": interface,
         "multiprocess": True}, **machine)
        for interface in ("mmap", "daxvm")]
    return Sweep(name="apache", title="Apache throughput (Kreq/s)",
                 points=points, axis="cores")


@sweep("ablations", "incremental DaxVM mechanisms at 16 cores (§V-C)",
       smoke="--ops 8 --device 1")
def _ablations_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """Fig. 8a's 16-core bars: the mmap variants, then DaxVM's
    mechanisms one by one (``+async`` is the full DaxVM, at the default
    unmap batch) and at three other unmap batch sizes."""
    bars = [(name, name, {}) for name in ("read", "mmap", "populate",
                                          "latr", "mmap+async")]
    bars += [("+filetables", "daxvm",
              {"daxvm": asdict(DaxVMOptions.filetables_only())}),
             ("+ephemeral", "daxvm",
              {"daxvm": asdict(DaxVMOptions.with_ephemeral())}),
             ("+async", "daxvm", {"daxvm": FULL})]
    bars += [(f"+batch{batch}", "daxvm",
              {"daxvm": FULL, "batch_pages": batch})
             for batch in (8, 128, 512)]
    points = [SweepPoint(
        "apache", series, 16,
        {"num_workers": 16, "requests": ops, "interface": interface,
         **params}, **machine)
        for series, interface, params in bars]
    return Sweep(name="ablations",
                 title="Fig. 8a incremental bars, 16 cores (Kreq/s)",
                 points=points, axis="cores")


#: Fig. 8b's served page sizes, the pages sweep's x axis (in KB).
PAGE_SIZES = (4 << 10, 16 << 10, 32 << 10, 64 << 10)


@sweep("pages", "webserver vs served page size, 16 cores (fig 8b)",
       smoke="--ops 16 --device 1 --max-points 6")
def _pages_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """read, mmap and DaxVM at 16 workers serving pages of each size,
    ``ops`` requests per point but at most 64 MB of pages."""
    points = [SweepPoint(
        "apache", interface, page >> 10,
        {"num_workers": 16, "requests": min(ops, (64 << 20) // page),
         "interface": interface, "page_size": page}, **machine)
        for page in PAGE_SIZES for interface in ("read", "mmap", "daxvm")]
    return Sweep(name="pages", title="Apache vs page size (Kreq/s)",
                 points=points, axis="page KB")


@sweep("crash", "crash-point injection + recovery audit per workload",
       columns=("crash.points_explored", "crash.replayed_records",
                "crash.invariant_violations"),
       smoke="--ops 24 --device 1")
def _crash_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """Both crash workloads at three seeds each.  ``ops`` bounds the
    crash points explored per sweep point (each point crashes and
    recovers one storage image).  ``aged`` is deliberately ignored:
    the audit's machines always start from fresh images."""
    points = [SweepPoint(
        "crash", workload, seed,
        {"workload": workload, "seed": seed,
         "max_points": max(4, min(ops, 48))},
        **{**machine, "aged": False})
        for workload in ("syncbench", "kvstore") for seed in (0, 1, 2)]
    return Sweep(name="crash",
                 title="Crash recovery audit (points explored)",
                 points=points, axis="seed")


@sweep("faults", "media-fault injection + poison-handling audit",
       columns=("faults.sites_explored", "faults.remapped",
                "faults.violations"),
       smoke="--ops 8 --device 1")
def _faults_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """Every audit workload at two seeds.  ``ops`` bounds the armed
    sites per sweep point (each site is a full machine replica).
    ``aged`` is deliberately ignored: replicas start fresh."""
    from repro.crash.workloads import CRASH_WORKLOADS

    points = [SweepPoint(
        "faults", workload, seed,
        {"workload": workload, "seed": seed,
         "max_sites": max(4, min(ops, 64))},
        **{**machine, "aged": False})
        for workload in CRASH_WORKLOADS for seed in (0, 1)]
    return Sweep(name="faults",
                 title="Media-fault handling audit (sites explored)",
                 points=points, axis="seed")


def _syncbench(ops: int, size: int) -> dict:
    """DaxVM+fsync syncbench params of the mmu and tiering sweeps: 1 KB
    writes to a file of ``size`` (at least 4 MB, so its file table is
    persistent), synced every 16 writes, ``ops`` times (8 to 64)."""
    return {"file_size": max(size, 4 << 20), "op_size": 1 << 10,
            "ops_per_sync": 16, "num_syncs": max(8, min(ops, 64)),
            "discipline": "daxvm+fsync"}


@sweep("mmu", "four translation schemes x workload x clean/aged image",
       columns=("vm.walk_cycles", "vm.tlb_misses"),
       smoke="--ops 16 --device 1 --max-points 8")
def _mmu_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """DaxVM under four MMUs (see repro.paging.schemes).

    Two attach-heavy workloads — syncbench (one long-lived DaxVM
    mapping, walk-dominated) and the kvstore (small WAL/SSTable files
    rolled constantly, attach-dominated) — each on a clean and an aged
    image (x = 0/1), under every translation scheme.  The ``aged`` CLI
    knob is deliberately ignored: the clean/aged contrast *is* the
    experiment for the range scheme.  ``ops`` scales sync rounds and
    KV operations; ``size`` scales the syncbench file (floored at 4 MB
    so walks pay PMem leaves).
    """
    from repro.paging.schemes import SCHEME_NAMES

    workloads = (
        ("syncbench", _syncbench(ops, size)),
        ("kvstore", {"workload": "load_a",
                     "num_ops": max(160, min(ops * 20, 3200)),
                     "preload_records": 0, "interface": "daxvm",
                     "record_size": 4096, "memtable_limit": 1 << 20,
                     "sstable_size": 1 << 20, "wal_size": 1 << 20,
                     "daxvm": LONG_LIVED}))
    points = [SweepPoint(workload, f"{workload}+{scheme}", float(aged),
                         dict(params), **{**machine, "aged": aged},
                         scheme=scheme)
              for scheme in SCHEME_NAMES for aged in (False, True)
              for workload, params in workloads]
    return Sweep(name="mmu",
                 title="DaxVM across translation architectures "
                       "(cycles/op)",
                 points=points, axis="aged")


@sweep("numa", "file placement vs thread count on two sockets",
       columns=("numa.local_accesses", "numa.remote_accesses",
                "numa.local_bytes", "numa.remote_bytes"),
       smoke="--ops 60 --device 2")
def _numa_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """Read-once mmap with workload threads pinned to socket 0 and the
    file placed local to them, on the remote socket, or interleaved
    across both — the dual-socket Optane placement experiment."""
    points = [SweepPoint(
        "ephemeral", placement, threads,
        {"file_size": size, "num_files": ops, "num_threads": threads,
         "interface": "mmap", "pin_node": 0},
        **machine, node_kinds="ddr,ddr", placement=placement)
        for threads in (1, 2, 4, 8, 16) for placement in PLACEMENTS]
    return Sweep(name="numa",
                 title="NUMA file placement, mmap read-once (Kops/s)",
                 points=points, axis="threads")


@sweep("ephemeral", "read-once file access across interfaces",
       smoke="--ops 40 --device 1")
def _ephemeral_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """``ops`` files of ``size`` bytes read once by one thread through
    each interface."""
    points = [SweepPoint(
        "ephemeral", interface.value, 1,
        {"file_size": size, "num_files": ops, "num_threads": 1,
         "interface": interface.value}, **machine)
        for interface in Interface]
    return Sweep(name="ephemeral",
                 title=f"Ephemeral access, {size >> 10} KB files (Kops/s)",
                 points=points, axis="threads")


@sweep("media", "DaxVM across storage media (§VI)",
       smoke="--ops 30 --device 1")
def _media_sweep(*, ops: int, size: int, media: str, **machine) -> Sweep:
    """32 KB read-once files through read(), mmap and DaxVM on every
    media preset (the ``media`` knob is replaced per point); x is the
    file size in KB."""
    points = [SweepPoint(
        "ephemeral", f"{preset}+{interface}", 32,
        {"file_size": 32 << 10, "num_files": ops, "num_threads": 1,
         "interface": interface}, **machine, media=preset)
        for preset in MEDIA_PRESETS
        for interface in ("read", "daxvm", "mmap")]
    return Sweep(name="media",
                 title="32KB ephemeral access across media (Kops/s)",
                 points=points, axis="KB")


#: Fig. 9c's workloads, the ycsb sweep's x axis (by index).
YCSB_WORKLOADS = ("load_a", "load_e", "run_a", "run_b", "run_c", "run_d",
                  "run_e", "run_f")
#: Fig. 9c's bars: (name, interface, ``daxvm`` params, pre-zeroing).
YCSB_VARIANTS = (("mmap", "mmap", LONG_LIVED, False),
                 ("populate", "populate", LONG_LIVED, False),
                 ("daxvm", "daxvm", LONG_LIVED, False),
                 ("daxvm+pz", "daxvm", LONG_LIVED, True),
                 ("daxvm+pz+ns", "daxvm", NOSYNC, True))


@sweep("ycsb", "YCSB over the Pmem-RocksDB model (fig 9c, §V-C NOVA)",
       columns=("journal.sync_commits",),
       smoke="--ops 100 --device 1 --max-points 5")
def _ycsb_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """Every Fig. 9c bar on ext4 at every YCSB workload (x indexes
    :data:`YCSB_WORKLOADS`), then mmap against DaxVM with pre-zeroing
    and nosync on NOVA for load_a and run_b.  Each point runs ``ops``
    operations; run phases first preload ``ops`` records."""
    cells = [("ext4", workload, variant) for workload in YCSB_WORKLOADS
             for variant in YCSB_VARIANTS]
    cells += [("nova", workload, variant) for workload in ("load_a", "run_b")
              for variant in (YCSB_VARIANTS[0], YCSB_VARIANTS[-1])]
    points = [SweepPoint(
        "kvstore", f"{fs_type}+{name}", YCSB_WORKLOADS.index(workload),
        {"workload": workload, "num_ops": ops, "preload_records": ops,
         "interface": interface, "daxvm": daxvm, "prezero": prezero},
        **machine, fs_type=fs_type)
        for fs_type, workload, (name, interface, daxvm, prezero) in cells]
    return Sweep(name="ycsb", title="YCSB (Kops/s)", points=points,
                 axis="workload")


@sweep("prezero", "a kvstore load beside the pre-zero daemon (§V-C)",
       smoke="--ops 100 --device 1")
def _prezero_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """``ops`` load_a inserts through DaxVM with pre-zeroing and
    nosync, alone (x = 0) and while the throttled daemon zeroes the
    blocks of a freed 256 MB file (x = 1)."""
    load = {"workload": "load_a", "num_ops": ops, "preload_records": 0,
            "interface": "daxvm", "daxvm": NOSYNC, "prezero": True}
    points = [SweepPoint("kvstore", "quiet", 0, load, **machine),
              SweepPoint("prezero-interference", "zeroing", 1,
                         {**load, "junk_bytes": 256 << 20}, **machine)]
    return Sweep(name="prezero", title="Load with pre-zeroing (Kops/s)",
                 points=points, axis="daemon")


@sweep("repetitive", "1 KB/4 KB ops over one 96 MB file (figs 1c, 5)",
       smoke="--ops 2 --device 1 --max-points 8")
def _repetitive_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """Sequential and random reads and writes of 1 KB and 4 KB (x, in
    KB) over a 96 MB file through every interface, with DaxVM's MMU
    monitor ticking (Fig. 5); then the 4 KB ones through read, mmap and
    DaxVM with the monitor off (Fig. 1c).  Each point moves
    ``ops * 256 KB``; ``size`` is ignored."""
    shapes = [(op, 8192, tuple(Interface)) for op in (1024, 4096)]
    shapes.append((4096, 0, (Interface.READ, Interface.MMAP,
                             Interface.DAXVM)))
    points = [SweepPoint(
        "repetitive",
        f"{interface.value}+{pattern}+{'write' if write else 'read'}"
        + ("" if every else "+nomonitor"), op >> 10,
        {"file_size": 96 << 20, "op_size": op, "num_ops": (ops << 18) // op,
         "pattern": pattern, "write": write, "interface": interface.value,
         "monitor_every": every, "daxvm": NOSYNC}, **machine)
        for op, every, interfaces in shapes for pattern in ("seq", "rand")
        for write in (False, True) for interface in interfaces]
    return Sweep(name="repetitive",
                 title="Repetitive ops over a large file (Kops/s)",
                 points=points, axis="KB")


@sweep("tables", "4KB DaxVM walks by pattern x file-table medium (tab 2-3)",
       columns=("vm.walk_cycles", "vm.tlb_misses"),
       smoke="--ops 64 --device 1 --fresh")
def _tables_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """``ops`` sequential (x = 0) and random (x = 1) 4 KB DaxVM reads
    over an ``ops``-page file mapped without huge pages, its file table
    in DRAM (a volatile table) or PMem (a persistent one)."""
    tables = (("dram", {"filetable_volatile_max": 1 << 30}), ("pmem", {}))
    points = [SweepPoint(
        "repetitive", medium, x,
        {"file_size": ops << 12, "op_size": 4096, "num_ops": ops,
         "pattern": pattern, "interface": "daxvm", "daxvm": NOSYNC,
         "allow_huge": False, **params}, **machine)
        for medium, params in tables
        for x, pattern in enumerate(("seq", "rand"))]
    return Sweep(name="tables", title="DaxVM page walks (Kops/s)",
                 points=points, axis="random")


@sweep("monitor", "MMU monitor off/on, random 4KB DaxVM reads (§V-B)",
       smoke="--ops 256 --device 1")
def _monitor_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """``ops`` random 4 KB DaxVM reads over an ``ops``-page file with
    the MMU monitor off (x = 0) and checking every ``ops // 8`` reads
    (at least 1; x = that interval)."""
    points = [SweepPoint(
        "repetitive", "daxvm", every,
        {"file_size": ops << 12, "op_size": 4096, "num_ops": ops,
         "pattern": "rand", "interface": "daxvm", "monitor_every": every,
         "daxvm": NOSYNC}, **machine)
        for every in (0, max(1, ops // 8))]
    return Sweep(name="monitor", title="MMU monitor (Kops/s)",
                 points=points, axis="check every")


#: Fig. 6's sync intervals (writes per sync), the sync sweep's x axis.
SYNC_INTERVALS = (4, 64, 512, 2048, 8192)


@sweep("sync", "sync disciplines vs writes per sync (fig 6)",
       smoke="--ops 40 --device 1 --max-points 5")
def _sync_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """1 KB writes to a ``size``-byte file under every sync discipline,
    syncing every x writes, ``ops // x`` times (at least 10)."""
    points = [SweepPoint(
        "syncbench", discipline.value, every,
        {"file_size": size, "op_size": 1 << 10, "ops_per_sync": every,
         "num_syncs": max(10, ops // every),
         "discipline": discipline.value}, **machine)
        for every in SYNC_INTERVALS for discipline in SyncDiscipline]
    return Sweep(name="sync", title="Sync disciplines (Kops/s)",
                 points=points, axis="writes/sync")


@sweep("textsearch", "ag over a Linux-like file tree vs threads (fig 9a)",
       smoke="--ops 40 --device 1 --max-points 4")
def _textsearch_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """``ops`` files totalling 160 MB (``size`` is ignored) searched by
    1-16 threads through read, mmap and DaxVM, and through DaxVM with
    synchronous unmap."""
    series = (("read", "read", {}), ("mmap", "mmap", {}),
              ("daxvm", "daxvm", {}),
              ("daxvm-sync-unmap", "daxvm",
               {"daxvm": asdict(DaxVMOptions.with_ephemeral())}))
    points = [SweepPoint(
        "textsearch", name, threads,
        {"num_files": ops, "total_bytes": 160 << 20, "num_threads": threads,
         "interface": interface, **params}, **machine)
        for threads in (1, 2, 4, 8, 16) for name, interface, params in series]
    return Sweep(name="textsearch", title="Text search (Kops/s)",
                 points=points, axis="threads")


@sweep("predis", "P-Redis boot and warm-up timeline (fig 9b)",
       columns=("predis.boot_cycles", "predis.first_window_ops_per_s",
                "predis.last_window_ops_per_s"),
       smoke="--ops 1000 --device 2")
def _predis_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """``ops`` gets from a ``size``-byte cache (at least 512 MB) after
    a cold boot, per interface; throughput is sampled every
    ``max(500, ops // 20)`` gets."""
    cache = max(size, 512 << 20)
    points = [SweepPoint(
        "predis", interface.value, cache >> 20,
        {"cache_size": cache, "num_gets": ops,
         "window": max(500, ops // 20), "interface": interface.value},
        **machine)
        for interface in (Interface.MMAP, Interface.MMAP_POPULATE,
                          Interface.DAXVM)]
    return Sweep(name="predis", title="P-Redis gets (Kops/s)",
                 points=points, axis="cache MB")


#: Fig. 7's append sizes, the appends sweep's x axis (in KB).
APPEND_SIZES = (4 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20)


@sweep("appends", "single-op appends: Fig. 7 variants x size, ext4/NOVA",
       smoke="--ops 64 --device 1")
def _appends_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """Every append variant at every Fig. 7 size on ext4-DAX and NOVA,
    each point appending ``n = max(8, ops // 8)`` times, each append
    onto its own empty file.  Then, on ext4: §III-B's DaxVM appends
    with and without pre-zeroing (``3n/4`` each), and §V-B's write()
    appends with and without file tables (``3n/2`` each)."""
    n = max(8, ops // 8)

    def append(series, nbytes, count, variant, fs_type="ext4", **params):
        return SweepPoint("append", series, nbytes >> 10,
                          {"append_size": nbytes, "num_appends": count,
                           "variant": variant, **params},
                          **machine, fs_type=fs_type)

    points = [append(f"{fs_type}+{variant.value}", nbytes, n, variant.value,
                     fs_type)
              for fs_type in ("ext4", "nova") for variant in AppendVariant
              for nbytes in APPEND_SIZES]
    points += [append(variant, nbytes, 3 * n // 4, variant)
               for nbytes in (64 << 10, 512 << 10, 2 << 20)
               for variant in ("daxvm", "daxvm+prezero")]
    points += [append(f"{prefix}write", nbytes, 3 * n // 2, "write",
                      **params)
               for prefix, params in (("", {}),
                                      ("tables+", {"filetables": True}))
               for nbytes in (32 << 10, 64 << 10, 256 << 10, 1 << 20)]
    return Sweep(name="appends", title="Append throughput (Kops/s)",
                 points=points, axis="KB")


@sweep("storage", "file-table bytes of a Linux-like tree, one big file",
       columns=("tree.pmem_bytes", "tree.dram_bytes", "big.pmem_bytes"),
       smoke="--ops 40 --device 1 --fresh")
def _storage_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """§V-B's storage tax: the file tables of ``ops`` files totalling
    128 MB, then of one ``size``-byte file."""
    points = [SweepPoint("storage", "tree", 0,
                         {"num_files": ops, "total_bytes": 128 << 20,
                          "big_file": size}, **machine)]
    return Sweep(name="storage", title="File-table storage", points=points,
                 axis="-")


@sweep("msync", "mapped-write faults with and without msync (§III-A4)",
       columns=("msync.faults_nosync", "msync.faults_sync"),
       smoke="--ops 100 --device 1 --fresh")
def _msync_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """``ops`` 1 KB writes over a 400-page window of one shared mapping
    of a ``size``-byte file (at least 2 MB), without msync and with one
    every 10 writes (x)."""
    points = [SweepPoint("msync", "msync", 10,
                         {"file_size": max(size, 2 << 20),
                          "window_pages": 400, "writes": ops,
                          "sync_every": 10}, **machine)]
    return Sweep(name="msync", title="msync fault blow-up", points=points,
                 axis="writes/msync")


#: §IV-A1's placements: (series, volatile-table threshold in bytes).
FILETABLE_POLICIES = (("all-persistent", 0), ("paper", 32 << 10),
                      ("all-volatile", 1 << 30))


@sweep("policy", "volatile/persistent file-table placement (§IV-A1)",
       columns=("filetable.dram_bytes", "filetable.pmem_bytes"),
       smoke="--ops 40 --device 1")
def _policy_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """``ops`` files of ``size`` bytes read once through DaxVM under
    each file-table placement threshold."""
    points = [SweepPoint(
        "filetable-policy", name, 0,
        {"file_size": size, "num_files": ops, "num_threads": 1,
         "interface": "daxvm", "filetable_volatile_max": volatile_max},
        **machine)
        for name, volatile_max in FILETABLE_POLICIES]
    return Sweep(name="policy", title="File-table placement (Kops/s)",
                 points=points, axis="-")


@sweep("walks", "Table II/III walk costs per translation scheme",
       columns=tuple(f"walk.{case[0]}_cycles" for case in WALK_CASES)
       + ("walk.huge_cycles", "walk.pmem_trips_monitor",
          "walk.frames_2mb"),
       smoke="--device 1")
def _walks_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """One analytic walk point per translation scheme; ``ops``,
    ``size`` and ``aged`` are ignored."""
    from repro.paging.schemes import SCHEME_NAMES

    points = [SweepPoint("walks", scheme, 0, **{**machine, "aged": False},
                         scheme=scheme)
              for scheme in SCHEME_NAMES]
    return Sweep(name="walks",
                 title=f"Avg cycles per 4KB walk ({machine['media']})",
                 points=points, axis="-")


#: Data tiers of the tiering sweep, in x-axis order.  ``dram`` is the
#: tmpfs-like bound (no daemon variant: nothing faster to promote to).
TIERING_TIERS = ("dram", "pmem", "cxl")


@sweep("tiering", "interfaces x data tier (DRAM/PMem/CXL) x ktierd",
       columns=("tiering.scans", "tiering.promoted_pages",
                "tiering.demoted_pages", "tiering.migrated_bytes",
                "tiering.writeback_bytes", "tiering.shootdowns"),
       smoke="--ops 16 --device 1")
def _tiering_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """Where does each interface break even as file data moves down
    the memory hierarchy?  Read-once (read/mmap/daxvm) plus syncbench
    at every data tier (x = tier index: 0 dram, 1 pmem, 2 cxl), with
    and without the hot/cold migration daemon.  CXL points carry an
    expander node (``node_kinds``), so the machine actually has the
    medium it prices.  The daemon runs hair-triggered (one touch
    promotes, short scan interval) so short sweep points exercise real
    migrations, not just scans."""
    daemon = {"daemon": True, "scan_interval": 5e5, "hot_touches": 1,
              "cold_scans": 4}
    workloads = [("ephemeral", interface,
                  {"file_size": size, "num_files": ops, "num_threads": 4,
                   "interface": interface})
                 for interface in ("read", "mmap", "daxvm")]
    workloads.append(("syncbench", "syncbench", _syncbench(ops, size)))
    points = [SweepPoint(
        experiment, series + suffix, x, dict(params), **machine,
        node_kinds="ddr,cxl" if tier == "cxl" else "",
        tiering={**(daemon if suffix else {}), "data": tier})
        for x, tier in enumerate(TIERING_TIERS)
        for suffix in (("",) if tier == "dram" else ("", "+ktierd"))
        for experiment, series, params in workloads]
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
def _consolidate_sweep(*, ops: int, size: int, **machine) -> Sweep:
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
    points = [SweepPoint(
        "consolidate", f"{mix}+{'q' if quotas else 'noq'}"
        f"+{'hog' if antagonist else 'nohog'}", n, {}, **machine,
        tenancy=consolidate_config(n, mix, quotas=quotas,
                                   antagonist=antagonist,
                                   requests=requests).to_state())
        for n in CONSOLIDATE_TENANTS for mix in ("apache", "predis", "kvstore")
        for antagonist in (False, True) for quotas in (True, False)]
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
def _migrate_sweep(*, ops: int, size: int, **machine) -> Sweep:
    """Downtime and pull traffic vs when the migration triggers, with
    and without the prefetch kthread, for both guest workloads.  The
    ``base`` series (x = 0) is the nested-but-never-migrated guest —
    the cost floor every migrating point is compared against.  ``ops``
    and ``size`` are deliberately ignored: guest workloads are the
    pinned crash workloads, so points stay byte-comparable across
    budget knobs."""
    fresh = {**machine, "aged": False}
    points = []
    for workload in ("syncbench", "kvstore"):
        runs = [("base", 0, {"nested": True, "migrate": False})]
        runs += [("prefetch" if prefetch else "noprefetch", after,
                  {"nested": True, "migrate": True, "migrate_after": after,
                   "prefetch": prefetch, "seed": 0})
                 for after in MIGRATE_AFTER for prefetch in (True, False)]
        points += [SweepPoint("migrate", f"{workload}+{suffix}", x,
                              {"workload": workload}, **fresh, virt=virt)
                   for suffix, x, virt in runs]
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


#: A registered sweep's name and the knobs it overrides.
Pair = Tuple[str, Dict[str, object]]


def build_pairs(pairs: Sequence[Pair], knobs: Dict[str, object]
                ) -> List[Sweep]:
    """One sweep per pair, its own knobs merged over ``knobs`` (all
    five of :func:`build_sweep`'s)."""
    return [build_sweep(name, **{**knobs, **own}) for name, own in pairs]
