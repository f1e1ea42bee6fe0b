"""Command-line interface: ``python -m repro <experiment>``.

Runs compact versions of the paper's experiments without pytest — for
exploring the simulator interactively.  ``python -m repro list`` shows
the registry; the full-scale regenerations live in ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict

from repro.analysis.report import (
    format_domain_breakdown,
    format_lock_report,
    format_series,
    format_sweep,
    format_table,
)
from repro.analysis.results import Table
from repro.config import MEDIA_PRESETS
from repro.obs import Counter
from repro.topology import PLACEMENTS
from repro.runner import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    SWEEPS,
    SweepPoint,
    build_sweep,
    run_sweep,
)
from repro.runner.worker import build_system
from repro.paging.schemes import SCHEME_NAMES
from repro.paging.tlb import AccessPattern
from repro.system import System
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
    YCSBConfig,
    run_apache,
    run_append,
    run_ephemeral,
    run_predis,
    run_repetitive,
    run_ycsb,
)

EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], None]] = {}
PERF_TARGETS: Dict[str, Callable[[argparse.Namespace], None]] = {}


def experiment(name: str, help_text: str):
    def decorate(fn):
        fn.help_text = help_text
        EXPERIMENTS[name] = fn
        return fn
    return decorate


def perf_target(name: str, help_text: str):
    def decorate(fn):
        fn.help_text = help_text
        PERF_TARGETS[name] = fn
        return fn
    return decorate


def _system(args, fs_type: str = "ext4", **fields) -> System:
    """Build the machine the flags describe (``fields`` override them)
    through the sweep worker's builder; the point's workload fields
    are placeholders it never reads."""
    machine = dict(media=args.media, device_gib=args.device,
                   aged=not args.fresh, num_nodes=args.nodes,
                   placement=args.policy, pin_node=args.pin_node,
                   scheme=args.scheme,
                   node_kinds=getattr(args, "node_kinds", None) or "")
    tiering = getattr(args, "tiering", None)
    if tiering:
        data, _, flag = tiering.partition(":")
        machine["tiering"] = {"data": data, "daemon": flag == "daemon"}
    machine.update(fields)
    return build_system(SweepPoint("cli", "", 0, **machine),
                        fs_type=fs_type)


@experiment("ephemeral", "read-once file access across interfaces")
def _ephemeral(args):
    table = Table(f"Ephemeral access, {args.size >> 10} KB files",
                  ["interface", "us/file", "MB/s"])
    for interface in (Interface.READ, Interface.MMAP,
                      Interface.MMAP_POPULATE, Interface.DAXVM):
        system = _system(args)
        cfg = EphemeralConfig(file_size=args.size, num_files=args.ops,
                              num_threads=args.threads,
                              interface=interface)
        r = run_ephemeral(system, cfg)
        table.add_row(interface.value, r.latency_us, r.mb_per_second)
    print(format_table(table))


def _run_named_sweep(args, name: str):
    """Build and execute a registered sweep with the CLI knobs."""
    sweep = build_sweep(name, ops=args.ops, size=args.size,
                        media=args.media, device_gib=args.device,
                        aged=not args.fresh)
    if args.max_points is not None and len(sweep.points) > args.max_points:
        print(f"sweep: truncating {name} to the first {args.max_points} "
              f"of {len(sweep.points)} points (--max-points)",
              file=sys.stderr)
        sweep.points = sweep.points[:args.max_points]
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return run_sweep(sweep, jobs=args.jobs, cache=cache,
                     point_timeout=args.point_timeout,
                     max_retries=args.max_retries,
                     retry_seed=args.seed,
                     profile=getattr(args, "profile", False))


@experiment("scaling", "read-once throughput vs thread count (fig 1b)")
def _scaling(args):
    result = _run_named_sweep(args, "scaling")
    print(format_series(result.sweep.title, result.series(),
                        x_label=result.sweep.axis))


@experiment("repetitive", "database-style 4KB ops over one big file")
def _repetitive(args):
    table = Table("Repetitive 4KB ops over a large file",
                  ["interface", "pattern", "Kops/s"])
    for pattern in (AccessPattern.SEQUENTIAL, AccessPattern.RANDOM):
        for interface in (Interface.READ, Interface.MMAP,
                          Interface.DAXVM):
            system = _system(args)
            cfg = RepetitiveConfig(
                file_size=96 << 20, op_size=4096,
                num_ops=(96 << 20) // 4096, pattern=pattern,
                interface=interface, monitor_every=8192,
                daxvm=DaxVMOptions(ephemeral=False, unmap_async=False,
                                   nosync=True))
            r = run_repetitive(system, cfg)
            table.add_row(interface.value, pattern.value,
                          r.ops_per_second / 1e3)
    print(format_table(table))


@experiment("apache", "webserver scalability (fig 8a)")
def _apache(args):
    result = _run_named_sweep(args, "apache")
    print(format_series(result.sweep.title, result.series(),
                        x_label=result.sweep.axis))


@experiment("ablations", "incremental DaxVM mechanisms at 16 cores")
def _ablations(args):
    result = _run_named_sweep(args, "ablations")
    print(format_table(result.table()))


@experiment("predis", "P-Redis boot and warm-up timeline (fig 9b)")
def _predis(args):
    for interface in (Interface.MMAP, Interface.MMAP_POPULATE,
                      Interface.DAXVM):
        system = _system(args)
        cfg = PRedisConfig(cache_size=512 << 20, num_gets=args.ops,
                           window=max(500, args.ops // 16),
                           interface=interface)
        r = run_predis(system, cfg)
        timeline = " ".join(f"{v / 1e3:5.0f}"
                            for _t, v in r.timeline.points[:8])
        print(f"{interface.value:>10}: boot={r.boot_seconds * 1e3:8.2f}ms"
              f"  Kops/s: {timeline}")


@experiment("ycsb", "YCSB load_a over the Pmem-RocksDB model (fig 9c)")
def _ycsb(args):
    table = Table("YCSB load_a (Kops/s)", ["variant", "Kops/s",
                                           "sync commits"])
    variants = [
        ("mmap", Interface.MMAP, None, False),
        ("daxvm", Interface.DAXVM,
         DaxVMOptions(ephemeral=False, unmap_async=False), False),
        ("daxvm+pz+ns", Interface.DAXVM,
         DaxVMOptions(ephemeral=False, unmap_async=False, nosync=True),
         True),
    ]
    for name, interface, opts, prezero in variants:
        system = _system(args, fs_type=args.fs)
        kv = KVConfig(interface=interface)
        if opts is not None:
            kv = KVConfig(interface=interface, daxvm=opts)
        cfg = YCSBConfig(workload="load_a", num_ops=args.ops,
                         preload_records=0, kv=kv, prezero=prezero)
        r = run_ycsb(system, cfg)
        table.add_row(name, r.ops_per_second / 1e3,
                      r.counters.get("journal.sync_commits", 0))
    print(format_table(table))


@experiment("media", "DaxVM across storage media (§VI)")
def _media(args):
    table = Table("32KB ephemeral access across media",
                  ["media", "read us", "daxvm us", "daxvm/read"])
    for media, factory in MEDIA_PRESETS.items():
        out = {}
        for interface in (Interface.READ, Interface.DAXVM):
            system = System(costs=factory(),
                            device_bytes=args.device << 30, aged=True)
            cfg = EphemeralConfig(file_size=32 << 10,
                                  num_files=args.ops,
                                  interface=interface)
            out[interface] = run_ephemeral(system, cfg)
        table.add_row(media, out[Interface.READ].latency_us,
                      out[Interface.DAXVM].latency_us,
                      out[Interface.READ].latency_us
                      / out[Interface.DAXVM].latency_us)
    print(format_table(table))


@experiment("crash", "crash-point injection + recovery audit")
def _crash(args):
    from repro.crash import run_crash

    def factory() -> System:
        # Fresh images: aging churn adds nothing to durability coverage
        # and each crash point rebuilds the machine from scratch.
        return _system(args, fs_type=args.fs, aged=False)

    summary = run_crash(factory, args.workload, seed=args.seed,
                        max_points=args.max_points)
    if args.json:
        print(json.dumps(summary.to_state(), indent=2, sort_keys=True))
    else:
        state = summary.to_state()
        table = Table(
            f"Crash sweep: {summary.workload}, seed {summary.seed}",
            ["metric", "value"])
        for key in ("total_transitions", "points_explored",
                    "invariant_violations", "lost_records",
                    "replayed_records", "rolled_back_txns",
                    "orphan_blocks", "tables_repaired", "ptes_replayed"):
            table.add_row(key, state[key])
        print(format_table(table))
        for line in summary.violations:
            print(f"VIOLATION: {line}")
    if summary.invariant_violations:
        raise SystemExit(
            f"crash: {summary.invariant_violations} invariant "
            f"violation(s) across {summary.points_explored} points")


@experiment("faults", "media-fault injection + poison-handling audit")
def _faults(args):
    from repro.faults import FAULT_WORKLOADS, run_faults

    if args.workload not in FAULT_WORKLOADS:
        raise SystemExit(
            f"faults: unknown workload {args.workload!r}; known: "
            + ", ".join(sorted(FAULT_WORKLOADS)))
    def factory() -> System:
        # Fresh images: each armed site rebuilds the machine, and
        # aging churn adds nothing to poison-handling coverage.
        return _system(args, fs_type=args.fs, aged=False)

    summary = run_faults(factory, args.workload, seed=args.seed,
                         max_sites=args.max_sites)
    if args.json:
        print(json.dumps(summary.to_state(), indent=2, sort_keys=True))
    else:
        state = summary.to_state()
        table = Table(
            f"Media-fault sweep: {summary.workload}, "
            f"seed {summary.seed}", ["metric", "value"])
        for key in ("total_touches", "sites_explored", "remapped",
                    "cleared", "sigbus_cleared", "bw_windows", "stalls",
                    "bytes_lost", "violations"):
            table.add_row(key, state[key])
        print(format_table(table))
        for line in summary.violations:
            print(f"VIOLATION: {line}")
    if summary.violations:
        raise SystemExit(
            f"faults: {len(summary.violations)} unhandled-poison "
            f"violation(s) across {summary.sites_explored} sites")


@experiment("migrate", "crash/fault hardening audit of post-copy live "
                       "migration")
def _migrate(args):
    from repro.virt import run_migrate_audit

    summary = run_migrate_audit(
        seeds=(args.seed, args.seed + 1),
        max_points=args.max_points, max_sites=args.max_sites,
        composed_points=max(2, min(args.max_points, 6)),
        media=args.media, device_gib=args.device)
    if args.json:
        print(json.dumps(summary.to_state(), indent=2, sort_keys=True))
    else:
        state = summary.to_state()
        table = Table(
            f"Migration hardening audit, seeds {summary.seeds}, "
            f"trigger after {summary.migrate_after} accesses",
            ["metric", "value"])
        for key in ("crash_points", "fault_sites", "composed_points",
                    "points_explored", "violations"):
            table.add_row(key, state[key])
        print(format_table(table))
        for line in summary.violations:
            print(f"VIOLATION: {line}")
    if summary.violations:
        raise SystemExit(
            f"migrate: {len(summary.violations)} invariant violation(s) "
            f"across {summary.points_explored} points")


@perf_target("fig7", "per-domain cycle breakdown of ext4-DAX appends")
def _perf_fig7(args):
    """Where do mmap-append cycles go?  The ledger answers directly:
    zeroing dominates (the paper's Fig. 7 motivation) without any
    bench-side counter arithmetic."""
    system = _system(args)
    cfg = AppendConfig(append_size=args.size if args.size != 32 << 10
                       else 256 << 10,
                       num_appends=max(8, args.ops // 8),
                       variant=AppendVariant.MMAP)
    r = run_append(system, cfg)
    if args.json:
        print(json.dumps({
            "target": "fig7",
            "label": r.label,
            "cycles": r.cycles,
            "domains": r.domains,
            "percentiles": r.percentiles,
            "stats": system.stats.to_json(),
            "ledger": system.ledger.to_json(),
        }, indent=2, sort_keys=True))
        return
    print(format_domain_breakdown(
        f"ext4-DAX mmap append, {cfg.append_size >> 10} KB "
        f"x {cfg.num_appends} (cycles by cost domain)", r.domains))
    append_summary = r.percentiles.get("span.append")
    if append_summary:
        print(f"append latency (cycles): "
              f"p50={append_summary['p50']:.0f} "
              f"p95={append_summary['p95']:.0f} "
              f"p99={append_summary['p99']:.0f}")
    share = r.domain_share("zeroing")
    print(f"zeroing share of attributed cycles: {share * 100:.1f}%")


@perf_target("fig8a", "mmap_sem wait-vs-hold under webserver load")
def _perf_fig8a(args):
    """The rw-semaphore contention behind Fig. 8a's mmap collapse:
    per-lock wait and hold cycles recorded by the locks themselves."""
    workers = args.threads if args.threads > 1 else 8
    system = _system(args)
    cfg = ApacheConfig(num_workers=workers, requests=args.ops,
                       interface=ServerInterface.MMAP)
    r = run_apache(system, cfg)
    reports = [lock.report() for lock in system.engine.locks
               if lock.acquisitions]
    if args.json:
        print(json.dumps({
            "target": "fig8a",
            "label": r.label,
            "cycles": r.cycles,
            "domains": r.domains,
            "locks": reports,
            "stats": system.stats.to_json(),
        }, indent=2, sort_keys=True))
        return
    print(format_lock_report(
        f"Apache mmap, {workers} workers x {args.ops} requests",
        reports))
    print()
    print(format_domain_breakdown("cycles by cost domain", r.domains))


@perf_target("numa", "local/remote access mix on a multi-socket machine")
def _perf_numa(args):
    """Where do cross-socket cycles go?  Runs the pinned read-once
    mmap workload under the requested placement and reports the
    local/remote access split, cross-socket shootdown IPIs and the
    remote-access cycles the ledger attributes to the numa domain."""
    if args.nodes < 2:
        args.nodes = 2
    system = _system(args)
    threads = args.threads if args.threads > 1 else 4
    cfg = EphemeralConfig(file_size=args.size, num_files=args.ops,
                          num_threads=threads, interface=Interface.MMAP,
                          pin_node=args.pin_node)
    r = run_ephemeral(system, cfg)
    counters = {c.value: system.stats.get(c) for c in (
        Counter.NUMA_LOCAL_ACCESSES, Counter.NUMA_REMOTE_ACCESSES,
        Counter.NUMA_LOCAL_BYTES, Counter.NUMA_REMOTE_BYTES,
        Counter.NUMA_CROSS_IPIS, Counter.NUMA_CROSS_IPI_CYCLES)}
    if args.json:
        print(json.dumps({
            "target": "numa",
            "label": r.label,
            "nodes": args.nodes,
            "placement": args.policy,
            "pin_node": args.pin_node,
            "cycles": r.cycles,
            "domains": r.domains,
            "numa_counters": counters,
            "stats": system.stats.to_json(),
            "ledger": system.ledger.to_json(),
        }, indent=2, sort_keys=True))
        return
    print(format_domain_breakdown(
        f"mmap read-once, {args.nodes} sockets, placement="
        f"{args.policy}, threads pinned to node {args.pin_node} "
        f"(cycles by cost domain)", r.domains))
    accesses = (counters["numa.local_accesses"]
                + counters["numa.remote_accesses"])
    remote_share = (counters["numa.remote_accesses"] / accesses
                    if accesses else 0.0)
    print(f"accesses: {counters['numa.local_accesses']:.0f} local, "
          f"{counters['numa.remote_accesses']:.0f} remote "
          f"({remote_share * 100:.1f}% remote)")
    print(f"bytes:    {counters['numa.local_bytes'] / 1e6:.1f} MB local, "
          f"{counters['numa.remote_bytes'] / 1e6:.1f} MB remote")
    print(f"shootdowns: {counters['numa.cross_socket_ipis']:.0f} "
          f"cross-socket IPIs, "
          f"{counters['numa.cross_socket_ipi_cycles']:.0f} cycles")


@perf_target("mmu", "Table II/III walk + attach costs per translation "
                    "scheme")
def _perf_mmu(args):
    """DaxVM's cost structure under each MMU (repro.paging.schemes).

    First a Table II analogue: average cycles per 4 KB TLB miss for
    each scheme, by access pattern and file-table medium, plus whether
    PMem-resident tables would trip the Table III monitor rule.  Then
    one DaxVM syncbench run per scheme, reporting where the ledger
    says the attach/detach and walk cycles actually went, and the
    per-process structure-frame footprint of mapping 2 MB of 4 KB
    pages.
    """
    from repro.mem.physmem import Medium
    from repro.obs import CostDomain
    from repro.paging.flags import PageFlags
    from repro.paging.pagetable import PAGE_SIZE
    from repro.paging.schemes import make_scheme
    from repro.paging.walker import PageWalker
    from repro.workloads import SyncConfig, SyncDiscipline, run_sync

    costs = MEDIA_PRESETS[args.media]()
    walker = PageWalker(costs)
    cases = [("seq/DRAM", AccessPattern.SEQUENTIAL, Medium.DRAM),
             ("rand/DRAM", AccessPattern.RANDOM, Medium.DRAM),
             ("seq/PMem", AccessPattern.SEQUENTIAL, Medium.PMEM),
             ("rand/PMem", AccessPattern.RANDOM, Medium.PMEM)]
    walk_rows = {}
    bench_rows = {}
    for name in SCHEME_NAMES:
        probe = make_scheme(name, System(costs=costs).physmem, costs)
        # The walk costs a DaxVM mapping on this scheme actually pays:
        # schemes that copy translations into process-private DRAM
        # never see the PMem leaf penalty.
        walks = {label: probe.walk_cost(
                     walker, pattern, probe.effective_leaf_medium(medium))
                 for label, pattern, medium in cases}
        walks["huge"] = probe.huge_walk_cost(walker)
        # Table III rule, first clause: would persistent tables push
        # the average walk past the monitor's migration threshold?
        walks["monitor"] = (walks["rand/PMem"]
                            > costs.monitor_walk_cycles)
        base = 0x40000000
        for i in range(512):
            probe.map_page(base + i * PAGE_SIZE, 1024 + i,
                           PageFlags.rw())
        walks["frames_2mb"] = len(probe.structure_frames())
        walk_rows[name] = walks

        system = _system(args, scheme=name)
        cfg = SyncConfig(file_size=max(args.size, 4 << 20),
                         op_size=1 << 10, ops_per_sync=8,
                         num_syncs=max(8, min(args.ops, 64)),
                         discipline=SyncDiscipline.DAXVM_FSYNC)
        r = run_sync(system, cfg)
        bench_rows[name] = {
            "cycles": r.cycles,
            "attach_cycles": system.ledger.event_total(
                CostDomain.FILETABLE, "attach"),
            "detach_cycles": system.ledger.event_total(
                CostDomain.FILETABLE, "detach"),
            "walk_cycles": system.stats.get(Counter.VM_WALK_CYCLES),
            "tlb_misses": system.stats.get(Counter.VM_TLB_MISSES),
        }
    if args.json:
        print(json.dumps({
            "target": "mmu",
            "media": args.media,
            "walks": walk_rows,
            "syncbench": bench_rows,
        }, indent=2, sort_keys=True))
        return
    table = Table(f"Avg cycles per 4KB walk ({args.media})",
                  ["scheme"] + [c[0] for c in cases]
                  + ["huge", "PMem trips monitor", "frames/2MB"])
    for name, walks in walk_rows.items():
        table.add_row(name, *(walks[c[0]] for c in cases),
                      walks["huge"],
                      "yes" if walks["monitor"] else "no",
                      walks["frames_2mb"])
    print(format_table(table))
    print()
    bench = Table("DaxVM syncbench (MAP_SYNC fsync discipline)",
                  ["scheme", "cycles", "attach cyc", "detach cyc",
                   "walk cyc", "tlb misses"])
    for name, row in bench_rows.items():
        bench.add_row(name, row["cycles"], row["attach_cycles"],
                      row["detach_cycles"], row["walk_cycles"],
                      row["tlb_misses"])
    print(format_table(bench))


@perf_target("tiering", "hot/cold daemon breakdown: migrations, "
                        "residency, tier cycles")
def _perf_tiering(args):
    """What does ktierd cost, and what does it buy?  Runs the DaxVM
    syncbench with file data priced on a slow tier (``--tiering``
    medium, default cxl), once without and once with the migration
    daemon, and reports total cycles, the ledger's ``tiering`` domain,
    the migration counters and the final tier residency."""
    from repro.mem.physmem import Medium
    from repro.obs import CostDomain
    from repro.tiering import TieringConfig
    from repro.workloads import SyncConfig, SyncDiscipline, run_sync

    tier = (args.tiering or "cxl").partition(":")[0]
    saved_tiering, args.tiering = args.tiering, None
    if tier == "cxl" and not getattr(args, "node_kinds", None):
        args.node_kinds = "ddr,cxl"
    rows = {}
    try:
        for daemon in (False, True):
            system = _system(args)
            tiers = system.attach_tiering(
                data_medium=Medium(tier), daemon=daemon,
                config=TieringConfig(scan_interval=5e5, hot_touches=1,
                                     cold_scans=4) if daemon else None)
            cfg = SyncConfig(file_size=max(args.size, 4 << 20),
                             op_size=1 << 10, ops_per_sync=16,
                             num_syncs=max(8, min(args.ops, 64)),
                             discipline=SyncDiscipline.DAXVM_FSYNC)
            r = run_sync(system, cfg)
            rows["ktierd" if daemon else "static"] = {
                "cycles": r.cycles,
                "domains": r.domains,
                "tiering_cycles": system.ledger.domain_total(
                    CostDomain.TIERING),
                "scans": system.stats.get(Counter.TIERING_SCANS),
                "promoted_pages": system.stats.get(
                    Counter.TIERING_PROMOTED_PAGES),
                "demoted_pages": system.stats.get(
                    Counter.TIERING_DEMOTED_PAGES),
                "migrated_bytes": system.stats.get(
                    Counter.TIERING_MIGRATED_BYTES),
                "writeback_bytes": system.stats.get(
                    Counter.TIERING_WRITEBACK_BYTES),
                "shootdowns": system.stats.get(
                    Counter.TIERING_SHOOTDOWNS),
                "residency": tiers.residency(),
            }
    finally:
        args.tiering = saved_tiering
    if args.json:
        print(json.dumps({"target": "tiering", "tier": tier,
                          "media": args.media, "rows": rows},
                         indent=2, sort_keys=True))
        return
    print(format_domain_breakdown(
        f"DaxVM syncbench, data on {tier}, ktierd on "
        f"(cycles by cost domain)", rows["ktierd"]["domains"]))
    table = Table(f"Static {tier} placement vs ktierd migration",
                  ["variant", "cycles", "tiering cyc", "scans",
                   "promoted", "demoted", "migrated MB", "shootdowns"])
    for variant, row in rows.items():
        table.add_row(variant, row["cycles"], row["tiering_cycles"],
                      row["scans"], row["promoted_pages"],
                      row["demoted_pages"],
                      round(row["migrated_bytes"] / 1e6, 2),
                      row["shootdowns"])
    print(format_table(table))
    resident = rows["ktierd"]["residency"]
    print(f"ktierd residency at exit: "
          f"{resident if resident else 'all granules on the device tier'}")


@perf_target("consolidate", "per-tenant breakdown + p99-vs-tenant-count "
                            "knee on one consolidated machine")
def _perf_consolidate(args):
    """Where does per-tenant tail latency knee as tenants pile on?
    Runs the apache mix at 1..``--tenants`` tenants (quotas off) for
    the knee table, then one fully loaded machine with quotas *on*
    and the antagonist hog for the per-tenant breakdown: requests,
    p50/p99, throttle cycles, and each tenant's lock-wait and tenancy
    ledger cycles."""
    from repro.tenancy import consolidate_config, run_consolidate

    requests = max(8, min(args.ops, 64))
    counts = [n for n in (1, 2, 4, 8, 16, 32) if n <= args.tenants]
    if counts[-1] != args.tenants:
        counts.append(args.tenants)

    def tenant_p99s(system, run, config):
        rows = {}
        for tenant in config.tenants:
            if tenant.kind == "antagonist":
                continue
            hist = run.percentiles.get(f"tenant.{tenant.name}.request")
            if hist is None:
                # Degenerate single-tenant path: the un-tenanted
                # apache runner observed the span histogram instead.
                hist = run.percentiles.get("span.apache.request", {})
            rows[tenant.name] = hist
        return rows

    knee = []
    for n in counts:
        system = _system(args)
        config = consolidate_config(n, "apache", requests=requests)
        run = run_consolidate(system, config)
        hists = tenant_p99s(system, run, config)
        p50s = [h.get("p50", 0.0) for h in hists.values()]
        p99s = [h.get("p99", 0.0) for h in hists.values()]
        knee.append({
            "tenants": n,
            "cycles": run.cycles,
            "kops_per_sec": run.ops_per_second / 1e3,
            "p50": sum(p50s) / max(1, len(p50s)),
            "p99": max(p99s) if p99s else 0.0,
        })

    system = _system(args)
    config = consolidate_config(args.tenants, "apache", quotas=True,
                                antagonist=True, requests=requests)
    run = run_consolidate(system, config)
    runtime = system.tenancy
    views = runtime.ledger_views()
    hists = tenant_p99s(system, run, config)
    breakdown = {}
    for tenant in config.tenants:
        view = views.get(tenant.name, {})
        hist = hists.get(tenant.name, {})
        breakdown[tenant.name] = {
            "kind": tenant.kind,
            "requests": system.stats.get(f"tenant.{tenant.name}.requests"),
            "p50": hist.get("p50", 0.0),
            "p99": hist.get("p99", 0.0),
            "throttle_cycles": system.stats.get(
                f"tenant.{tenant.name}.cpu_throttle_cycles"),
            "peak_kernel_bytes": system.stats.get(
                f"tenant.{tenant.name}.peak_kernel_bytes"),
            "lock_wait_cycles": view.get("lock_wait", 0.0),
            "tenancy_cycles": view.get("tenancy", 0.0),
            "total_cycles": sum(view.values()),
        }

    if args.json:
        print(json.dumps({"target": "consolidate", "media": args.media,
                          "requests": requests, "knee": knee,
                          "breakdown": breakdown},
                         indent=2, sort_keys=True))
        return
    table = Table("Per-tenant latency vs tenant count (apache mix, "
                  "no quotas)",
                  ["tenants", "cycles", "Kops/s", "mean p50", "max p99"])
    for row in knee:
        table.add_row(row["tenants"], row["cycles"],
                      round(row["kops_per_sec"], 3),
                      round(row["p50"]), round(row["p99"]))
    print(format_table(table))
    table = Table(f"Fully loaded machine: {args.tenants} tenants + hog, "
                  f"quotas on",
                  ["tenant", "kind", "requests", "p50", "p99",
                   "throttled cyc", "lock-wait cyc", "total cyc"])
    for name, row in breakdown.items():
        table.add_row(name, row["kind"], round(row["requests"]),
                      round(row["p50"]), round(row["p99"]),
                      round(row["throttle_cycles"]),
                      round(row["lock_wait_cycles"]),
                      round(row["total_cycles"]))
    print(format_table(table))


@perf_target("migrate", "guest overheads: pass-through identity, nested "
                        "walks, migration downtime and pull traffic")
def _perf_migrate(args):
    """What does each layer of the hypervisor cost?  Runs the guest
    workload bare, under a pass-through hypervisor (must be
    bit-identical), with nested walk pricing, with a full post-copy
    migration (prefetch on/off) and in forced-degraded mode, and
    reports downtime, pull traffic and the ledger's virt domain."""
    from repro.crash.workloads import CRASH_WORKLOADS
    from repro.runner.worker import _reset_naming_counters
    from repro.virt import VirtConfig, run_migrate

    workload = args.workload if args.workload in CRASH_WORKLOADS \
        else "syncbench"
    variants = [
        ("bare", None),
        ("passive", VirtConfig()),
        ("nested", VirtConfig(nested=True)),
        ("migrate+prefetch", VirtConfig(nested=True, migrate=True,
                                        migrate_after=24, seed=args.seed)),
        ("migrate+noprefetch", VirtConfig(nested=True, migrate=True,
                                          migrate_after=24, prefetch=False,
                                          seed=args.seed)),
        ("degraded", VirtConfig(nested=True, migrate=True,
                                migrate_after=24, force_degraded=True,
                                seed=args.seed)),
    ]
    rows = {}
    for name, config in variants:
        _reset_naming_counters()
        system = _system(args)
        if config is None:
            CRASH_WORKLOADS[workload](system)
            rows[name] = {"cycles": system.engine.now, "virt_cycles": 0.0,
                          "downtime": 0.0, "pulled": 0.0,
                          "prefetched": 0.0, "retries": 0.0,
                          "degraded": 0.0, "completed": 0.0,
                          "aborted": 0.0}
            continue
        system.attach_hypervisor(config)
        r = run_migrate(system, workload)
        rows[name] = {
            "cycles": r.cycles,
            "virt_cycles": r.domains.get("virt", 0.0),
            "downtime": r.counters["virt.downtime_cycles"],
            "pulled": r.counters["virt.pages_pulled"],
            "prefetched": r.counters["virt.prefetched_pages"],
            "retries": r.counters["virt.pull_retries"],
            "degraded": r.counters["virt.degraded_accesses"],
            "completed": r.counters["virt.migrations_completed"],
            "aborted": r.counters["virt.migrations_aborted"],
        }
    identical = rows["passive"]["cycles"] == rows["bare"]["cycles"]
    if args.json:
        print(json.dumps({"target": "migrate", "workload": workload,
                          "media": args.media,
                          "passive_identical": identical, "rows": rows},
                         indent=2, sort_keys=True))
        return
    table = Table(f"Hypervisor layers over {workload} ({args.media})",
                  ["variant", "cycles", "virt cyc", "downtime",
                   "pulled", "prefetched", "retries", "degraded",
                   "done/abort"])
    for name, row in rows.items():
        table.add_row(name, row["cycles"], round(row["virt_cycles"]),
                      round(row["downtime"]), round(row["pulled"]),
                      round(row["prefetched"]), round(row["retries"]),
                      round(row["degraded"]),
                      f"{row['completed']:.0f}/{row['aborted']:.0f}")
    print(format_table(table))
    print(f"pass-through guest bit-identical to bare machine: "
          f"{'yes' if identical else 'NO'}")


def _profile_table(result) -> Table:
    """Merge per-point cProfile tables into one sweep-wide top-N.

    Rows are summed by function across every profiled point, so the
    table answers "where did the whole sweep spend its time", not
    "where did one point".
    """
    from repro.runner.worker import PROFILE_TOP

    merged = {}
    for pr in result.points:
        for row in pr.state.get("profile", ()):
            bucket = merged.setdefault(
                row["function"], {"ncalls": 0, "tottime": 0.0,
                                  "cumtime": 0.0})
            bucket["ncalls"] += row["ncalls"]
            bucket["tottime"] += row["tottime"]
            bucket["cumtime"] += row["cumtime"]
    table = Table("Profile — top functions by own time (all points)",
                  ["function", "ncalls", "tottime s", "cumtime s"])
    ranked = sorted(merged.items(), key=lambda kv: -kv[1]["tottime"])
    for function, bucket in ranked[:PROFILE_TOP]:
        table.add_row(function, bucket["ncalls"],
                      round(bucket["tottime"], 4),
                      round(bucket["cumtime"], 4))
    return table


def _sweep_cmd(args) -> int:
    """``python -m repro sweep <name>`` — parallel cached execution."""
    result = _run_named_sweep(args, args.target)
    print(format_sweep(result.sweep.title, result.series(),
                       result.sweep.axis, result.hits, result.misses,
                       result.wall_seconds))
    print()
    print(format_table(result.table()))
    if result.failed:
        print()
        print(format_table(result.failed_table()))
        print(f"sweep: {len(result.failed)} point(s) quarantined, "
              f"{len(result.points)} completed", file=sys.stderr)
    if args.profile:
        print()
        print(format_table(_profile_table(result)))
    if args.expect_failed is not None:
        if len(result.failed) != args.expect_failed:
            print(f"sweep: expected exactly {args.expect_failed} "
                  f"quarantined point(s), got {len(result.failed)}",
                  file=sys.stderr)
            return 1
    elif result.failed:
        return 1
    if args.verify_cache:
        if args.no_cache:
            print("sweep: --verify-cache needs the cache; "
                  "drop --no-cache", file=sys.stderr)
            return 2
        warm = _run_named_sweep(args, args.target)
        if warm.hits != len(warm.points):
            print(f"sweep: cache verify FAILED: only {warm.hits}/"
                  f"{len(warm.points)} points served from cache",
                  file=sys.stderr)
            return 1
        for cold, hot in zip(result.points, warm.points):
            a = json.dumps(cold.comparable_state(), sort_keys=True)
            b = json.dumps(hot.comparable_state(), sort_keys=True)
            if a != b:
                print(f"sweep: cache verify FAILED: point "
                      f"{cold.point.label} round-trips differently",
                      file=sys.stderr)
                return 1
        print(f"cache verify OK: {warm.hits}/{len(warm.points)} points "
              f"replayed identically")
    return 0


def _golden_cmd(args) -> int:
    """Rewrite gate files from their reference captures; the gates
    themselves are replayed by ``tests/test_goldens.py``."""
    from repro.analysis.goldens import GATES, recapture

    if args.recapture != "all" and args.recapture not in GATES:
        print("golden needs --recapture 'all' or a gate: "
              + ", ".join(GATES), file=sys.stderr)
        return 2
    for name in GATES if args.recapture == "all" else [args.recapture]:
        print(f"captured {recapture(name)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DaxVM reproduction experiments (compact versions; "
                    "full regenerations live in benchmarks/)")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["perf", "sweep",
                                                       "golden", "list"],
                        help="which experiment to run ('perf' drills "
                             "into instrumentation breakdowns, 'sweep' "
                             "fans a named sweep across worker "
                             "processes with result caching, 'golden' "
                             "recaptures bit-identicality gate files)")
    parser.add_argument("target", nargs="?",
                        choices=sorted(set(PERF_TARGETS) | set(SWEEPS)),
                        help="perf target (with 'perf') or sweep name "
                             "(with 'sweep')")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON (perf only)")
    parser.add_argument("--ops", type=int, default=400,
                        help="operation/file/request count")
    parser.add_argument("--size", type=int, default=32 << 10,
                        help="file size in bytes where applicable")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--device", type=int, default=4,
                        help="device size in GiB")
    parser.add_argument("--fresh", action="store_true",
                        help="fresh (unaged) file system image")
    parser.add_argument("--fs", choices=("ext4", "nova", "xfs"),
                        default="ext4")
    parser.add_argument("--media", choices=sorted(MEDIA_PRESETS),
                        default="optane")
    parser.add_argument("--scheme", choices=SCHEME_NAMES,
                        default="radix4",
                        help="translation architecture for experiments "
                             "that build one machine (sweeps carry the "
                             "scheme per point instead)")
    parser.add_argument("--nodes", type=int, default=1,
                        help="NUMA sockets (1 = uniform machine)")
    parser.add_argument("--policy", choices=PLACEMENTS, default="local",
                        help="file/device placement relative to "
                             "--pin-node (multi-socket only)")
    parser.add_argument("--pin-node", type=int, default=0,
                        help="socket the placement is defined against")
    parser.add_argument("--node-kinds", default=None,
                        help="comma list of memory-node kinds (ddr, "
                             "cxl, far), e.g. 'ddr,cxl' adds a CXL "
                             "expander beside the socket; overrides "
                             "--nodes")
    parser.add_argument("--tiering", default=None,
                        help="price file data on this tier instead of "
                             "the device medium (dram/pmem/cxl/far); "
                             "append ':daemon' to start the hot/cold "
                             "migration kthread, e.g. 'cxl:daemon'")
    parser.add_argument("--workload",
                        choices=("syncbench", "kvstore", "readbench"),
                        default="syncbench",
                        help="crash/fault workload (with 'crash' or "
                             "'faults'; 'readbench' is faults-only)")
    parser.add_argument("--seed", type=int, default=0,
                        help="crash/fault sampling seed (also seeds "
                             "sweep retry backoff)")
    parser.add_argument("--max-points", type=int, default=64,
                        help="crash points to explore (with 'crash'); "
                             "with 'sweep', run only the first N points "
                             "of the manifest (CI smoke)")
    parser.add_argument("--max-sites", type=int, default=64,
                        help="fault sites to arm (with 'faults')")
    parser.add_argument("--tenants", type=int, default=8,
                        help="tenant count for 'perf consolidate' "
                             "(knee runs 1..N, breakdown at N)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep execution")
    parser.add_argument("--point-timeout", type=float, default=None,
                        help="watchdog seconds per sweep point; hung "
                             "points are quarantined (needs --jobs >= 2 "
                             "for isolation)")
    parser.add_argument("--max-retries", type=int, default=0,
                        help="retries for retryable sweep-point "
                             "failures (seeded exponential backoff)")
    parser.add_argument("--expect-failed", type=int, default=None,
                        help="sweep exits 0 only if exactly this many "
                             "points were quarantined (CI isolation "
                             "checks); default: any failure exits 1")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the sweep result cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="sweep result cache directory")
    parser.add_argument("--verify-cache", action="store_true",
                        help="after a sweep, replay it from cache and "
                             "fail unless every point round-trips "
                             "identically")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile every sweep point and print a "
                             "merged top-functions table (bypasses the "
                             "result cache; simulated numbers are "
                             "unchanged, walls include profiler "
                             "overhead)")
    parser.add_argument("--recapture", default=None, metavar="NAME",
                        help="with 'golden': rewrite gate NAME's file "
                             "(or 'all') from its reference capture; "
                             "only when simulated numbers are meant "
                             "to change")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name, fn in sorted(EXPERIMENTS.items()):
            print(f"{name:<12} {fn.help_text}")
        for name, fn in sorted(PERF_TARGETS.items()):
            print(f"perf {name:<7} {fn.help_text}")
        for name, fn in sorted(SWEEPS.items()):
            print(f"sweep {name:<6} {fn.help_text}")
        return 0
    if args.experiment == "perf":
        if args.target is None or args.target not in PERF_TARGETS:
            print("perf needs a target: " + ", ".join(sorted(PERF_TARGETS)),
                  file=sys.stderr)
            return 2
        PERF_TARGETS[args.target](args)
        return 0
    if args.experiment == "sweep":
        if args.target is None or args.target not in SWEEPS:
            print("sweep needs a name: " + ", ".join(sorted(SWEEPS)),
                  file=sys.stderr)
            return 2
        return _sweep_cmd(args)
    if args.experiment == "golden":
        return _golden_cmd(args)
    EXPERIMENTS[args.experiment](args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
