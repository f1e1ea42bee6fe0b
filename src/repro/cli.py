"""Command-line interface: ``python -m repro <command>``.

Every command that simulates goes through the sweep registry
(:data:`repro.runner.SWEEPS`) and :func:`repro.runner.run_sweep`, so
each gets the result cache, the worker pool and the fault isolation:

* ``sweep NAME`` runs a registered sweep and prints its figure grid;
* ``perf NAME`` runs the same sweep (cache hits cost nothing) and
  renders one ledger-driven report: cycle shares per domain, the top
  ``(domain, event)`` rows, contended locks and the sweep's declared
  counter columns; ``--json`` prints the point states instead;
* ``sweep ID`` and ``perf ID`` take a claim id too: a claim is a list
  of ``(sweep, knobs)`` pairs, run as one pooled sweep with one
  section per pair (a sweep name is the one-pair case);
* ``crash``, ``faults`` and ``migrate`` audit one machine, shaped by
  the machine flags, as a one-point sweep;
* ``claims`` checks the paper's claims (:mod:`repro.analysis.claims`),
  all of them or the one named, as one sweep of their points;
* ``golden`` recaptures gate files and ``list`` shows the registry.

A command exits non-zero when a point is quarantined, an audit counter
reports a violation or a claim fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.claims import (
    CLAIMS,
    format_checks,
    format_claims,
    run_claims,
)
from repro.analysis.report import (
    format_lock_report,
    format_sweep,
    format_table,
)
from repro.analysis.results import Table
from repro.config import MEDIA_PRESETS
from repro.crash.workloads import CRASH_WORKLOADS
from repro.mem.physmem import Medium
from repro.obs import DOMAIN_ORDER
from repro.paging.schemes import SCHEME_NAMES
from repro.runner import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    SWEEPS,
    Sweep,
    SweepPoint,
    pooled,
    run_sweep,
)
from repro.runner.sweeps import build_pairs
from repro.tiering import TieringConfig
from repro.topology import NODE_KINDS, PLACEMENTS

#: Audit commands: one machine, shaped by the machine flags.
AUDITS = {
    "crash": "crash-point injection + recovery audit",
    "faults": "media-fault injection + poison-handling audit",
    "migrate": "crash/fault hardening audit of post-copy live migration",
}

#: Media ``--tiering`` may price file data on.
TIERS = tuple(medium.value for medium in Medium)

#: ``(domain, event)`` rows in perf's top-events table.
TOP_EVENTS = 12


def _audit_point(args) -> SweepPoint:
    """The one point an audit command runs.  Replicas start from fresh
    images; every other machine field comes from the flags."""
    machine = dict(media=args.media, device_gib=args.device, aged=False,
                   fs_type=args.fs, placement=args.policy,
                   scheme=args.scheme, node_kinds=args.node_kinds)
    if args.tiering:
        machine["tiering"] = args.tiering
    max_points = 64 if args.max_points is None else args.max_points
    if args.command == "migrate":
        params = {"seeds": [args.seed, args.seed + 1],
                  "max_points": max_points, "max_sites": args.max_sites,
                  "composed_points": max(2, min(max_points, 6))}
        return SweepPoint("migrate-audit", "migrate", args.seed, params,
                          **machine)
    params = {"workload": args.workload, "seed": args.seed}
    if args.command == "crash":
        params["max_points"] = max_points
    else:
        params["max_sites"] = args.max_sites
    return SweepPoint(args.command, args.workload, args.seed, params,
                      **machine)


def _node_kinds(value: str) -> str:
    """``--node-kinds KIND,...``, each kind one of :data:`NODE_KINDS`."""
    for kind in value.split(","):
        kind = kind.strip()
        if kind and kind not in NODE_KINDS:
            raise argparse.ArgumentTypeError(
                f"{value!r}: unknown node kind {kind!r}; expected a comma "
                f"list of {'/'.join(NODE_KINDS)}")
    return value


def _tiering(value: str) -> dict:
    """``--tiering TIER[:daemon]`` as a point's ``tiering`` dict."""
    data, sep, flag = value.partition(":")
    if data not in TIERS or (sep and flag != "daemon"):
        raise argparse.ArgumentTypeError(
            f"{value!r}: expected one of {'/'.join(TIERS)}, optionally "
            f"followed by ':daemon'")
    hot = TieringConfig.hot_medium.value
    if sep and data == hot:
        raise argparse.ArgumentTypeError(
            f"{value!r}: ktierd promotes hot data to {hot}, so its hot "
            f"tier would equal the data tier; use ':daemon' with a "
            f"slower data tier")
    return {"data": data, "daemon": bool(sep)}


def _knobs(args) -> dict:
    """The five sweep knobs the flags set; a claim's pairs override
    them."""
    return {"ops": args.ops, "size": args.size, "media": args.media,
            "device_gib": args.device, "aged": not args.fresh}


def _sections(args):
    """``sweep``/``perf``'s target as ``(sections, sweep)``: one
    ``(sweep name, heading, sweep)`` per pair of a claim (a sweep name
    is the one-pair case), and the sweep of their distinct points that
    runs, pooled as ``claims`` pools them."""
    claim = CLAIMS.get(args.target)
    pairs = claim.sweeps if claim else ((args.target, {}),)
    knobs = _knobs(args)
    sweeps = build_pairs(pairs, knobs)
    sections = []
    for (name, own), sweep in zip(pairs, sweeps):
        merged = " ".join(f"{key}={value}"
                          for key, value in {**knobs, **own}.items())
        sections.append((name, f"{name} {merged}", sweep))
    sweep = pooled(args.target, claim.artifact if claim else sweeps[0].title,
                   sweeps)
    if args.max_points is not None and len(sweep.points) > args.max_points:
        print(f"sweep: truncating {args.target} to the first "
              f"{args.max_points} of {len(sweep.points)} points "
              f"(--max-points)", file=sys.stderr)
        sweep.points = sweep.points[:args.max_points]
    return sections, sweep


def _run(args, sweep: Sweep):
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return run_sweep(sweep, jobs=args.jobs, cache=cache,
                     point_timeout=args.point_timeout)


def _status(result) -> int:
    """Exit status of a run: a quarantined point fails it, and so does
    any point whose audit counters report a violation."""
    status = 0
    if result.failed:
        print(format_table(result.failed_table()), file=sys.stderr)
        print(f"sweep: {len(result.failed)} point(s) quarantined, "
              f"{len(result.points)} completed", file=sys.stderr)
        status = 1
    for line in result.violations():
        print(f"sweep: VIOLATION: point {line}", file=sys.stderr)
        status = 1
    return status


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
    """``sweep``/``perf`` NAME or ID: one section per pair, the figure
    grid and per-point rows or the perf report (``perf --json``: the
    point states by pair), and the cache check."""
    sections, sweep = _sections(args)
    result = _run(args, sweep)
    parts = [(name, heading, result.part(sweep))
             for name, heading, sweep in sections]
    if args.command == "perf" and args.json:
        print(json.dumps({heading: {pr.point.label: pr.comparable_state()
                                    for pr in part.points}
                          for _name, heading, part in parts},
                         indent=2, sort_keys=True))
    else:
        for name, heading, part in parts:
            print(f"== {heading}")
            if args.command == "perf":
                print(_report(part, SWEEPS[name].columns))
            else:
                print(format_sweep(part.sweep.title, part.series(),
                                   part.sweep.axis, part.hits, part.misses,
                                   part.wall_seconds))
                print()
                print(format_table(part.table(SWEEPS[name].columns)))
            print()
    status = _status(result)
    if status or args.command == "perf" or not args.verify_cache:
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


def _audit_cmd(args) -> int:
    """An audit: one point shaped by the machine flags, its counters
    as a table or ``--json`` state."""
    result = _run(args, Sweep(
        name=args.command, title=f"{AUDITS[args.command]}, seed {args.seed}",
        points=[_audit_point(args)], axis="seed"))
    if args.json:
        print(json.dumps({pr.point.label: pr.comparable_state()
                          for pr in result.points},
                         indent=2, sort_keys=True))
    else:
        audit = Table(result.sweep.title, ["metric", "value"])
        for pr in result.points:
            for key, value in sorted(pr.run.counters.items()):
                audit.add_row(key, f"{value:g}")
        print(format_table(audit))
    return _status(result)


def _claims_cmd(args) -> int:
    """``claims [ID]``: the claims table on stdout; a named claim also
    lists every check, and failing checks go to stderr."""
    if args.target is not None and args.target not in CLAIMS:
        print(f"claims takes a claim id: {', '.join(CLAIMS)}",
              file=sys.stderr)
        return 2
    claims = [CLAIMS[args.target]] if args.target else list(CLAIMS.values())
    result, verdicts = run_claims(claims, lambda sweep: _run(args, sweep),
                                  _knobs(args))
    print(format_claims(verdicts))
    if args.target:
        print()
        print(format_checks(verdicts[0]))
    print(f"claims: {len(result.points)} points ({result.hits} from cache, "
          f"{result.misses} simulated), wall {result.wall_seconds:.1f}s",
          file=sys.stderr)
    status = _status(result)
    for verdict in verdicts:
        if not verdict.passed:
            print(f"claims: FAIL {verdict.claim.id} "
                  f"{verdict.error or format_checks(verdict, True)}",
                  file=sys.stderr)
            status = 1
    return status


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
                    "reports, the durability audits and the paper's "
                    "claims")
    parser.add_argument("command",
                        choices=["sweep", "perf", *AUDITS, "claims",
                                 "golden", "list"],
                        help="'sweep' fans a named sweep, or a claim's "
                             "sweeps, across worker processes with result "
                             "caching, 'perf' reports where its cycles "
                             "went, "
                             "'crash'/'faults'/'migrate' audit one "
                             "machine, 'claims' checks the paper's "
                             "claims, 'golden' recaptures "
                             "bit-identicality gate files")
    parser.add_argument("target", nargs="?",
                        choices=sorted({*SWEEPS, *CLAIMS}),
                        help="sweep name or claim id (with 'sweep' or "
                             "'perf'; a claim runs its sweeps), or one "
                             "claim id (with 'claims')")
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
    parser.add_argument("--policy", choices=PLACEMENTS, default="local",
                        help="file/device placement relative to socket "
                             "0 (multi-socket only)")
    parser.add_argument("--node-kinds", type=_node_kinds, default="",
                        help="audit machine's NUMA nodes as a comma list "
                             "of kinds (ddr, cxl, far): 'ddr,ddr' is two "
                             "sockets, 'ddr,cxl' adds a CXL expander "
                             "beside the socket (default: one socket)")
    parser.add_argument("--tiering", type=_tiering, default=None,
                        help="price file data on this tier instead of "
                             "the device medium (dram/pmem/cxl/far); "
                             "append ':daemon' to start the hot/cold "
                             "migration kthread, e.g. 'cxl:daemon'")
    parser.add_argument("--workload", choices=tuple(CRASH_WORKLOADS),
                        default="syncbench",
                        help="workload the 'crash'/'faults' audit drives, "
                             f"one of {', '.join(CRASH_WORKLOADS)}")
    parser.add_argument("--seed", type=int, default=0,
                        help="crash/fault sampling seed")
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
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the sweep result cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="sweep result cache directory")
    parser.add_argument("--verify-cache", action="store_true",
                        help="after a sweep, replay it from cache and "
                             "fail unless every point round-trips "
                             "identically")
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
            print(f"sweep|perf {name:<25} {fn.help_text}")
        for name, help_text in AUDITS.items():
            print(f"{name:<36} {help_text}")
        for claim in CLAIMS.values():
            print(f"sweep|perf|claims {claim.id:<18} {claim.artifact}")
        return 0
    if args.command == "golden":
        return _golden_cmd(args)
    if args.command == "claims":
        return _claims_cmd(args)
    if args.command in AUDITS:
        return _audit_cmd(args)
    if args.target is None:
        print(f"{args.command} needs a sweep name or a claim id",
              file=sys.stderr)
        return 2
    return _sweep_cmd(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
