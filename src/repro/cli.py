"""Command-line interface: ``python -m repro <command>``.

Every command that simulates goes through the sweep registry
(:data:`repro.runner.SWEEPS`) and :func:`repro.runner.run_sweep`, so
each gets the result cache, the worker pool and the fault isolation:

* ``sweep NAME`` runs a registered sweep and prints its figure grid;
* ``perf NAME`` runs the same sweep (cache hits cost nothing) and
  renders one ledger-driven report: cycle shares per domain, the top
  ``(domain, event)`` rows, contended locks and the sweep's declared
  counter columns; ``--json`` prints the point states instead;
* ``crash``, ``faults`` and ``migrate`` audit one machine, shaped by
  the machine flags, as a one-point sweep;
* ``golden`` recaptures gate files and ``list`` shows the registry.

A command exits non-zero when a point is quarantined or an audit
counter reports a violation.  The full-scale regenerations live in
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.report import (
    format_lock_report,
    format_sweep,
    format_table,
)
from repro.analysis.results import Table
from repro.config import MEDIA_PRESETS
from repro.obs import DOMAIN_ORDER
from repro.paging.schemes import SCHEME_NAMES
from repro.runner import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    SWEEPS,
    Sweep,
    SweepPoint,
    build_sweep,
    run_sweep,
)
from repro.topology import PLACEMENTS

#: Audit commands: one machine, shaped by the machine flags.
AUDITS = {
    "crash": "crash-point injection + recovery audit",
    "faults": "media-fault injection + poison-handling audit",
    "migrate": "crash/fault hardening audit of post-copy live migration",
}

#: ``(domain, event)`` rows in perf's top-events table.
TOP_EVENTS = 12


def _audit_point(args) -> SweepPoint:
    """The one point an audit command runs.  Replicas start from fresh
    images; every other machine field comes from the flags."""
    machine = dict(media=args.media, device_gib=args.device, aged=False,
                   fs_type=args.fs, num_nodes=args.nodes,
                   placement=args.policy, pin_node=args.pin_node,
                   scheme=args.scheme, node_kinds=args.node_kinds or "")
    if args.tiering:
        data, _, flag = args.tiering.partition(":")
        machine["tiering"] = {"data": data, "daemon": flag == "daemon"}
    budget = {"media": args.media, "device_gib": args.device}
    max_points = 64 if args.max_points is None else args.max_points
    if args.command == "migrate":
        params = {"seeds": [args.seed, args.seed + 1],
                  "max_points": max_points, "max_sites": args.max_sites,
                  "composed_points": max(2, min(max_points, 6)),
                  **budget}
        return SweepPoint("migrate-audit", "migrate", args.seed, params,
                          **machine)
    params = {"workload": args.workload, "seed": args.seed, **budget}
    if args.command == "crash":
        params["max_points"] = max_points
    else:
        params["max_sites"] = args.max_sites
    return SweepPoint(args.command, args.workload, args.seed, params,
                      **machine)


def _build(args) -> Sweep:
    if args.command in AUDITS:
        return Sweep(name=args.command,
                     title=f"{AUDITS[args.command]}, seed {args.seed}",
                     points=[_audit_point(args)], axis="seed")
    sweep = build_sweep(args.target, ops=args.ops, size=args.size,
                        media=args.media, device_gib=args.device,
                        aged=not args.fresh)
    if args.max_points is not None and len(sweep.points) > args.max_points:
        print(f"sweep: truncating {args.target} to the first "
              f"{args.max_points} of {len(sweep.points)} points "
              f"(--max-points)", file=sys.stderr)
        sweep.points = sweep.points[:args.max_points]
    return sweep


def _run(args, sweep: Sweep):
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return run_sweep(sweep, jobs=args.jobs, cache=cache,
                     point_timeout=args.point_timeout,
                     max_retries=args.max_retries, retry_seed=args.seed,
                     profile=args.profile)


def _status(args, result) -> int:
    """Exit status of a run: quarantined points fail it (unless there
    are exactly ``--expect-failed`` of them), and so does any point
    whose audit counters report a violation."""
    status = 0
    if result.failed:
        print(format_table(result.failed_table()), file=sys.stderr)
        print(f"sweep: {len(result.failed)} point(s) quarantined, "
              f"{len(result.points)} completed", file=sys.stderr)
    if args.expect_failed is not None:
        if len(result.failed) != args.expect_failed:
            print(f"sweep: expected exactly {args.expect_failed} "
                  f"quarantined point(s), got {len(result.failed)}",
                  file=sys.stderr)
            status = 1
    elif result.failed:
        status = 1
    for line in result.violations():
        print(f"sweep: VIOLATION: point {line}", file=sys.stderr)
        status = 1
    return status


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


def _report(result, columns) -> str:
    """perf's view of a sweep, read from the points' ledgers."""
    points = result.points
    seen = {name for pr in points for name in pr.run.domains}
    domains = [d.value for d in DOMAIN_ORDER if d.value in seen]
    domains += sorted(seen - set(domains))
    shares = Table(f"{result.sweep.title}: cycle share by domain (%)",
                   ["series", result.sweep.axis, "cycles"] + domains)
    for pr in points:
        total = sum(pr.run.domains.values()) or 1.0
        shares.add_row(pr.point.series, pr.point.x, pr.run.cycles,
                       *(100 * pr.run.domains.get(d, 0.0) / total
                         for d in domains))
    ledger = result.merged_ledger()
    total = ledger.total() or 1.0
    top = Table("Top (domain, event) rows, whole-machine ledgers of "
                "all points (set-up included)",
                ["domain/event", "cycles", "share %"])
    for key, cycles in list(ledger.events().items())[:TOP_EVENTS]:
        top.add_row(key, cycles, 100 * cycles / total)
    parts = [format_table(shares), format_table(top)]
    for pr in points:
        contended = [rep for rep in pr.locks if rep["contended"]]
        if contended:
            parts.append(format_lock_report(
                f"{pr.point.label}: contended locks", contended))
    if columns:
        parts.append(format_table(result.table(columns)))
    return "\n\n".join(parts)


def _sweep_cmd(args) -> int:
    """``sweep NAME``: the figure grid, per-point rows, cache check."""
    sweep = _build(args)
    result = _run(args, sweep)
    print(format_sweep(sweep.title, result.series(), sweep.axis,
                       result.hits, result.misses, result.wall_seconds))
    print()
    print(format_table(result.table(SWEEPS[args.target].columns)))
    if args.profile:
        print()
        print(format_table(_profile_table(result)))
    status = _status(args, result)
    if status or not args.verify_cache:
        return status
    if args.no_cache:
        print("sweep: --verify-cache needs the cache; drop --no-cache",
              file=sys.stderr)
        return 2
    warm = _run(args, sweep)
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


def _report_cmd(args) -> int:
    """``perf NAME`` and the audits: the report, or ``--json`` states."""
    result = _run(args, _build(args))
    if args.json:
        print(json.dumps({pr.point.label: pr.comparable_state()
                          for pr in result.points},
                         indent=2, sort_keys=True))
    elif args.command in AUDITS:
        audit = Table(result.sweep.title, ["metric", "value"])
        for pr in result.points:
            for key, value in sorted(pr.run.counters.items()):
                audit.add_row(key, f"{value:g}")
        print(format_table(audit))
    else:
        print(_report(result, SWEEPS[args.target].columns))
    return _status(args, result)


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
        description="DaxVM reproduction: registered sweeps, their perf "
                    "reports and the durability audits (full "
                    "regenerations live in benchmarks/)")
    parser.add_argument("command",
                        choices=["sweep", "perf", *AUDITS, "golden",
                                 "list"],
                        help="'sweep' fans a named sweep across worker "
                             "processes with result caching, 'perf' "
                             "reports where its cycles went, "
                             "'crash'/'faults'/'migrate' audit one "
                             "machine, 'golden' recaptures "
                             "bit-identicality gate files")
    parser.add_argument("target", nargs="?", choices=sorted(SWEEPS),
                        help="sweep name (with 'sweep' or 'perf')")
    parser.add_argument("--json", action="store_true",
                        help="print the point states as JSON (perf and "
                             "the audits)")
    parser.add_argument("--ops", type=int, default=400,
                        help="operation/file/request count")
    parser.add_argument("--size", type=int, default=32 << 10,
                        help="file size in bytes where applicable")
    parser.add_argument("--device", type=int, default=4,
                        help="device size in GiB")
    parser.add_argument("--fresh", action="store_true",
                        help="fresh (unaged) file system image")
    parser.add_argument("--media", choices=sorted(MEDIA_PRESETS),
                        default="optane")
    parser.add_argument("--fs", choices=("ext4", "nova", "xfs"),
                        default="ext4",
                        help="audit machine's file system (sweeps "
                             "carry it per point)")
    parser.add_argument("--scheme", choices=SCHEME_NAMES,
                        default="radix4",
                        help="audit machine's translation architecture")
    parser.add_argument("--nodes", type=int, default=1,
                        help="audit machine's NUMA sockets (1 = uniform "
                             "machine)")
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
                        help="crash/fault workload ('readbench' is "
                             "faults-only)")
    parser.add_argument("--seed", type=int, default=0,
                        help="crash/fault sampling seed (also seeds "
                             "sweep retry backoff)")
    parser.add_argument("--max-points", type=int, default=None,
                        help="with 'sweep'/'perf', run only the first N "
                             "points; crash points to explore with "
                             "'crash'/'migrate' (default 64)")
    parser.add_argument("--max-sites", type=int, default=64,
                        help="fault sites to arm (with 'faults'/"
                             "'migrate')")
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
                        help="exit 0 only if exactly this many points "
                             "were quarantined (isolation checks); "
                             "default: any failure exits 1")
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
    if args.command == "list":
        for name, fn in sorted(SWEEPS.items()):
            print(f"sweep|perf {name:<12} {fn.help_text}")
        for name, help_text in AUDITS.items():
            print(f"{name:<23} {help_text}")
        return 0
    if args.command == "golden":
        return _golden_cmd(args)
    if args.command in AUDITS:
        return _report_cmd(args)
    if args.target is None:
        print(f"{args.command} needs a sweep name: "
              + ", ".join(sorted(SWEEPS)), file=sys.stderr)
        return 2
    if args.command == "sweep":
        return _sweep_cmd(args)
    return _report_cmd(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
