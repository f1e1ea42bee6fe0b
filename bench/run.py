#!/usr/bin/env python3
"""Host-time and simulated-cycle benchmark of the DaxVM simulator.

Run from the repository root::

    python3 bench/run.py [--workload NAME] [--seed N] [--trace [0|1]]
                         [--json OUT] [--smoke]

Workloads (see ``points.py``) run one after another, and each *pass* --
one run of the workload's fixed point list -- in its own fresh child
process: no pool, no threads.  A child builds the workload's first
machine (the set-up), probes host speed, then runs the pass.  A run
makes at least three passes, and more while another fits in the run
length: ``run_seconds`` in ``BENCHMARK.json``, the same for every run.
``--seconds`` may only restate it, and ``--smoke`` runs the three
passes alone, at a smaller size.  Every point goes straight to
:func:`repro.runner.worker.run_point`.

End-to-end metrics (``--trace 0``):

* ``wall_s`` -- host seconds per pass: the sum over points of the mean
  of each point's faster half of runs;
* ``setup_s`` -- median over the passes of the seconds from spawn until
  the simulator is imported and the workload's first ``System`` is
  built;
* ``peak_rss_mb`` -- median over the passes of the child's
  ``ru_maxrss``;
* ``sim_cycles_per_op`` -- simulated cycles over operations, summed
  over the points (deterministic).

Host times are in seconds of a reference host: each point run is
scaled by the host-speed probes taken just before and after it, each
set-up by the probe that follows it (``REFERENCE_CAL_S``).  The
measured seconds are printed and recorded beside them.

Per-layer metrics (``--trace 1``) add, from the same untraced passes,
engine events, machines built and per-domain simulated cycles, and,
from one separate pass under :mod:`cProfile` in another fresh child,
each layer's share of host self time and the calls it receives from
other layers.  Absolute times come only from untraced passes.

Every run checks its outputs: each point's state (minus host walls)
hashes identically in every pass and in the traced pass, crash, fault
and migration audits report no violations, and every point completes
operations.  A failed check makes ``correct`` false and the exit code
non-zero.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Bytecode cache of the children, apart from any ``__pycache__`` in
#: ``src/``: set-up then costs the same whether or not the tests (or
#: anything else) left bytecode beside the sources.  The first child in
#: a checkout fills it; the others read it.
PYCACHE = ROOT / ".bench_build" / "pycache"

WORKLOADS = ("read_contended", "append_single", "attached",
             "audit_replicas")
#: Host-time layers: the packages under ``src/repro`` plus ``machine``
#: for the top-level modules (system, topology, config, errors).
LAYERS = ("sim", "obs", "vm", "paging", "fs", "mem", "core", "crash",
          "faults", "tiering", "tenancy", "virt", "workloads", "runner",
          "machine")
#: Code charged to another layer than its package: result containers
#: are built by the workloads, the LATR baseline is an alternative to
#: core's asynchronous unmap, and ``crash/workloads.py`` holds the
#: workload functions that the crash, fault and migration harnesses
#: share (so ``crash`` is the injection and recovery machinery only).
FOLDED = {"analysis": "workloads", "baselines": "core",
          "crash/workloads.py": "workloads"}

MIN_PASSES = 3
#: Host-speed probes spreading more than this flag the run.
HOST_CAL_SPREAD = 0.10
#: The probe's time on a quiet reference host (a 2-vCPU 2.0 GHz Xeon
#: VM).  Host times are reported in seconds of that host: each point
#: run or set-up is scaled by REFERENCE_CAL_S / the probes taken with
#: it.  Shared hosts drift in speed by up to ~2x over minutes, which
#: moves raw walls of identical code by more than any useful
#: regression bound.
REFERENCE_CAL_S = 0.070
#: Host seconds one workload's run may take, set-up and traced pass
#: included; each child gets what is left of it.
RUN_BUDGET_S = 170.0


# ---------------------------------------------------------------------------
# Child side: runs inside a fresh interpreter with ``src`` importable.
# ---------------------------------------------------------------------------
class _FirstSystemBuilt(Exception):
    """Stops the set-up run once the first machine exists."""


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop: the host-speed probe
    (the 2M-iteration loop of ``benchmarks/test_engine_fastforward``)."""
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i
    return time.perf_counter() - started


def set_up(workload: str, seed: int, smoke: bool):
    """Import the simulator and build the workload's first machine.

    The first point runs through ``run_point`` only until its
    ``System`` is built, so set-up is exactly what a sweep worker pays
    before simulating: imports, cost model, topology and the memoised
    aged image.  Returns the workload's points.
    """
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    # Every subsystem a point may import lazily, so imports count in
    # set-up and never in the pass.
    import repro.crash  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.runner.sweeps  # noqa: F401
    import repro.tiering  # noqa: F401
    import repro.virt  # noqa: F401
    from points import workload_points
    from repro.runner.worker import run_point
    from repro.system import System

    points = workload_points(workload, seed, smoke)
    build = System.__init__

    def build_first(system, *args, **kwargs):
        build(system, *args, **kwargs)
        raise _FirstSystemBuilt

    System.__init__ = build_first
    try:
        run_point(points[0].to_payload())
    except _FirstSystemBuilt:
        pass
    finally:
        System.__init__ = build
    return points


class Probe:
    """The pass's counters, recorded by wrapping ``System.__init__`` and
    ``Engine.run`` (engine events are read as the delta across each
    ``run``, so no engine is kept alive to be summed later)."""

    def __init__(self) -> None:
        self.systems = 0
        self.build_s = 0.0
        self.events = 0

    def install(self) -> "Probe":
        from repro.sim.engine import Engine
        from repro.system import System

        build, run = System.__init__, Engine.run
        probe = self

        def counted_build(system, *args, **kwargs):
            started = time.perf_counter()
            try:
                build(system, *args, **kwargs)
            finally:
                probe.build_s += time.perf_counter() - started
                probe.systems += 1

        def counted_run(engine, *args, **kwargs):
            before = engine.events_processed
            try:
                return run(engine, *args, **kwargs)
            finally:
                probe.events += engine.events_processed - before

        System.__init__ = counted_build
        Engine.run = counted_run
        return self

    def counts(self) -> dict:
        return {"systems": self.systems, "build_s": self.build_s,
                "events": self.events}


#: Run counters whose non-zero value is an audit failure.
VIOLATION_COUNTERS = ("crash.invariant_violations", "faults.violations",
                      "virt.violations")


def request_histograms(timings: dict) -> list:
    """One point's request-latency histograms: every tenant's requests
    on a consolidated machine (its Apache tenants also open Apache
    spans, which would count those requests twice), else Apache's
    request spans."""
    tenants = [key for key in timings
               if key.startswith("tenant.") and key.endswith(".request")]
    return tenants or [key for key in timings
                       if key == "span.apache.request"]


def _digest(state: dict) -> str:
    """SHA-256 of a point's state, one dict entry at a time.

    A state can serialise to megabytes (per-tenant sample series), and
    one string that large would show in the child's peak RSS; hashing
    each key and each non-dict value separately keeps every string to
    the size of one series.
    """
    digest = hashlib.sha256()

    def feed(value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                digest.update(json.dumps(key).encode())
                feed(value[key])
        else:
            digest.update(json.dumps(value, sort_keys=True).encode())

    feed(state)
    return digest.hexdigest()


def run_pass(points, probe: Probe, profiler=None) -> dict:
    """Run every point once, timing only the ``run_point`` calls, with
    a host-speed probe before the first point and after every point."""
    from repro.obs import DOMAIN_ORDER
    from repro.obs.histogram import Histogram
    from repro.runner.worker import run_point

    walls, probes, digests, errors = [], [calibrate()], [], []
    cycles = ops = 0.0
    freq_hz = None
    domains = {d.value: 0.0 for d in DOMAIN_ORDER}
    requests = Histogram()
    for index, point in enumerate(points):
        payload = point.to_payload()
        started = time.perf_counter()
        try:
            if profiler is not None:
                profiler.enable()
            try:
                state = run_point(payload)
            finally:
                if profiler is not None:
                    profiler.disable()
        except Exception as err:  # a failed point is counted, not fatal
            state = None
            errors.append([index, f"{point.label} raised {err!r}"])
        walls.append(time.perf_counter() - started)
        probes.append(calibrate())
        if state is None:
            digests.append(None)
            continue
        run = state["run"]
        freq_hz = freq_hz or run["freq_hz"]
        comparable = {k: v for k, v in state.items()
                      if k not in ("wall_seconds", "profile")}
        digests.append(_digest(comparable))
        if run["operations"] <= 0:
            errors.append([index, f"{point.label} has no operations"])
        for key in VIOLATION_COUNTERS:
            if run["counters"].get(key, 0.0):
                errors.append([index, f"{point.label} reports {key} = "
                                      f"{run['counters'][key]:g}"])
        cycles += run["cycles"]
        ops += run["operations"]
        for name, value in run["domains"].items():
            domains[name] = domains.get(name, 0.0) + value
        timings = state["stats"]["timings"]
        for key in request_histograms(timings):
            requests.merge(Histogram.from_state(timings[key]))
    p99_us = (requests.percentile(99) / freq_hz * 1e6
              if requests.count else 0.0)
    return {"wall": sum(walls), "point_walls": walls,
            "host_cal_s": probes[0], "probes": probes,
            "digests": digests, "errors": errors, "cycles": cycles, "ops": ops,
            "domains": domains, "requests": requests.count,
            "request_p99_us": p99_us, **probe.counts()}


def layer_of(filename: str, repro_dir: str):
    """The layer a code file belongs to, or ``None`` outside repro."""
    if not filename.startswith(repro_dir):
        return None
    module = filename[len(repro_dir):].replace(os.sep, "/")
    head = module.split("/", 1)[0]
    if head.endswith(".py"):
        return "machine"
    return FOLDED.get(module, FOLDED.get(head, head))


def fold_profile(stats: dict, repro_dir: str) -> dict:
    """Fold cProfile rows into per-layer self time and calls in.

    A function outside repro (stdlib, builtins, generated dataclass
    methods) is charged to the layers of its callers, split by the time
    (for self time) or the call count (for calls) each caller edge
    carries, recursively through callers that are themselves outside
    repro.  Time that reaches no layer (the profiler's own
    enable/disable) is reported as ``unattributed_s``.
    """
    layers = {func: layer_of(func[0], repro_dir) for func in stats}
    memo: dict = {}

    def shares(func, by_time: bool) -> dict:
        """``layer -> share`` of the work ``func`` stands for."""
        if func not in stats:
            return {}
        if layers[func] is not None:
            return {layers[func]: 1.0}
        key = (func, by_time)
        if key in memo:
            return memo[key]
        memo[key] = {}  # a cycle back here contributes nothing
        edges = stats[func][4]
        weights = {caller: (edge[2] if by_time else edge[1])
                   for caller, edge in edges.items()}
        if by_time and not sum(weights.values()):
            weights = {caller: edge[1] for caller, edge in edges.items()}
        total = sum(weights.values())
        share: dict = {}
        for caller, weight in sorted(weights.items()):
            if not weight:
                continue
            for name, part in shares(caller, by_time).items():
                share[name] = share.get(name, 0.0) + part * weight / total
        memo[key] = share
        return share

    self_s = {name: 0.0 for name in LAYERS}
    calls_in = {name: 0.0 for name in LAYERS}
    total_s = unattributed = 0.0
    for func in sorted(stats):
        _cc, _nc, tottime, _ct, edges = stats[func]
        total_s += tottime
        charged = 0.0
        for name, part in shares(func, True).items():
            if name in self_s:
                self_s[name] += tottime * part
                charged += part
        unattributed += tottime * (1.0 - charged)
        layer = layers[func]
        if layer not in calls_in:
            continue
        for caller, edge in sorted(edges.items()):
            calls_in[layer] += edge[1] * sum(
                part for name, part in shares(caller, False).items()
                if name != layer)
    return {"self_s": self_s,
            "calls_in": {k: round(v) for k, v in calls_in.items()},
            "total_s": total_s, "unattributed_s": unattributed}


def child_main(args) -> None:
    """Set up, probe host speed, run one pass and print its record."""
    points = set_up(args.workload, args.seed, args.smoke)
    set_up_done = time.monotonic()
    probe = Probe().install()
    profiler = cProfile.Profile() if args.child == "trace" else None
    gc.collect()  # the pass starts from a collected heap
    result = {"set_up_done": set_up_done,
              **run_pass(points, probe, profiler)}
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if profiler is not None:
        result["profile"] = fold_profile(pstats.Stats(profiler).stats,
                                         str(SRC / "repro") + os.sep)
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# Parent side: spawns children, checks outputs, reports metrics.
# ---------------------------------------------------------------------------
def _spawn(args, mode: str, deadline: float) -> dict:
    """Run one pass in a fresh child; its record gains ``setup_s``, the
    seconds from spawn until set-up was done."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", mode, "--workload", args.workload,
               "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Fixed string hashing keeps profiler call counts repeatable.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the cache must fill
    started = time.monotonic()
    done = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - started))
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child for {args.workload} exited "
                           f"{done.returncode}:\n{done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["set_up_done"] - started
    return result


def _spread(values) -> float:
    return (max(values) - min(values)) / min(values)


def _calibrated(seconds, probes) -> float:
    """Median of measured seconds, each scaled by its own probe to
    seconds of the reference host."""
    return statistics.median(s * REFERENCE_CAL_S / probe
                             for s, probe in zip(seconds, probes))


def _faster_half_mean(seconds) -> float:
    """Mean of the faster half of ``seconds`` (the fastest alone when
    there are fewer than four)."""
    faster = sorted(seconds)[:max(1, len(seconds) // 2)]
    return sum(faster) / len(faster)


def _reference_point_walls(measured: dict) -> list:
    """A pass's point walls in seconds of the reference host, each
    scaled by the mean of the probes just before and just after it."""
    probes = measured["probes"]
    return [wall * 2 * REFERENCE_CAL_S / (probes[i] + probes[i + 1])
            for i, wall in enumerate(measured["point_walls"])]


def measure(args) -> dict:
    """One run of one workload: its record, metrics and checks."""
    deadline = time.monotonic() + RUN_BUDGET_S
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "smoke": args.smoke, "started_at": time.time()}
    # Each pass runs in a fresh child, so that the layout one process
    # happens to get (which moves walls and probe alike by several per
    # cent) is sampled once per pass rather than once per run.
    passes = []
    started = time.monotonic()
    while True:
        passes.append(_spawn(args, "pass", deadline))
        elapsed = time.monotonic() - started
        # Another pass as long as the average so far must end within
        # the run length.
        if (len(passes) >= MIN_PASSES
                and elapsed * (1 + 1 / len(passes)) > args.seconds):
            break
    first = passes[0]
    # (pass, point index) -> why that execution failed its check.
    failures: dict = {}

    def check(name: str, measured: dict) -> None:
        for index, why in measured["errors"]:
            failures.setdefault((name, index), why)
        for index, (a, b) in enumerate(zip(first["digests"],
                                           measured["digests"])):
            if a is not None and b is not None and a != b:
                failures.setdefault(
                    (name, index), f"point {index + 1} state differs "
                                   f"from pass 1")

    for i, p in enumerate(passes, start=1):
        check(f"pass {i}", p)
    attempted = sum(len(p["digests"]) for p in passes)
    walls = [p["wall"] for p in passes]
    cal = [p["host_cal_s"] for p in passes]
    # Load from other tenants of the host only ever adds time, and the
    # probes remove only part of it, so each point keeps the faster
    # half of its runs.  Taken per point, a burst that hits one point of
    # a pass drops out without the rest of that pass.
    wall_s = sum(_faster_half_mean(runs) for runs in
                 zip(*(_reference_point_walls(p) for p in passes)))
    setups = [p["setup_s"] for p in passes]
    # Only a pass whose every point failed leaves these at zero.
    ops, events = first["ops"] or 1.0, first["events"] or 1
    every_probe = [s for p in passes for s in p["probes"]]
    record.update({
        "passes": len(passes), "pass_walls_s": walls, "host_cal_s": cal,
        "point_walls_s": [p["point_walls"] for p in passes],
        "probes_s": [p["probes"] for p in passes],
        "host_cal_spread": _spread(every_probe),
        "host_cal_flag": _spread(every_probe) > HOST_CAL_SPREAD,
        "measured_wall_s": statistics.median(walls),
        "setup_walls_s": setups,
        "measured_setup_s": statistics.median(setups),
        "sim_digest": hashlib.sha256("".join(
            d or "-" for d in first["digests"]).encode()).hexdigest()[:16],
        "requests": first["requests"],
    })
    e2e = {"wall_s": (wall_s, "s"),
           "setup_s": (_calibrated(setups, cal), "s"),
           "peak_rss_mb": (statistics.median(p["peak_rss_mb"]
                                             for p in passes), "MB"),
           "sim_cycles_per_op": (first["cycles"] / ops, "cycles/op")}
    layer = {
        "sim.events": (first["events"], "count"),
        "sim.ns_per_event": (wall_s / events * 1e9, "ns"),
        "machine.systems_built": (first["systems"], "count"),
        "machine.build_s": (_calibrated([p["build_s"] for p in passes],
                                        cal), "s"),
        "sim_p99_us": (first["request_p99_us"], "us"),
    }
    for name, value in first["domains"].items():
        layer[f"dom.{name}.cycles_per_op"] = (value / ops, "cycles/op")
    if args.trace:
        tpass = _spawn(args, "trace", deadline)
        attempted += len(tpass["digests"])
        check("traced pass", tpass)
        profile = tpass["profile"]
        for name in LAYERS:
            share = profile["self_s"][name] / profile["total_s"]
            layer[f"{name}.self_s"] = (share * wall_s, "s")
            layer[f"{name}.calls_in"] = (profile["calls_in"][name],
                                         "count")
        traced_wall = sum(_reference_point_walls(tpass))
        layer["trace.overhead"] = (traced_wall / wall_s, "x")
        record.update({"traced_wall_s": tpass["wall"],
                       "traced_host_cal_s": tpass["host_cal_s"],
                       "traced_self_total_s": profile["total_s"],
                       "traced_unattributed_s":
                           profile["unattributed_s"]})
    record.update({
        "errors": [f"{name}: {why}"
                   for (name, _index), why in failures.items()],
        "attempted": attempted, "failed": len(failures),
        "end_to_end": _as_metrics(e2e), "per_layer": _as_metrics(layer)})
    return record


def _as_metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(values.items())}


def result_line(record: dict) -> dict:
    """The contract's result object for one workload run."""
    return {"correct": not record["errors"],
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": record["per_layer" if record["trace"]
                              else "end_to_end"]}


def report(record: dict) -> None:
    """Human-readable lines for one workload run."""
    e2e = {name: m["value"] for name, m in record["end_to_end"].items()}
    layer = {name: m["value"] for name, m in record["per_layer"].items()}
    walls = " ".join(f"{w:.3f}" for w in record["pass_walls_s"])
    cal = " ".join(f"{c:.3f}" for c in record["host_cal_s"])
    flag = ", FLAGGED: host speed varied" if record["host_cal_flag"] else ""
    print(f"{record['workload']} seed={record['seed']}: "
          f"{record['passes']} passes, wall_s {e2e['wall_s']:.3f} "
          f"(measured median {record['measured_wall_s']:.3f}, walls "
          f"{walls}); host_cal_s {cal} (spread "
          f"{record['host_cal_spread']:.1%}{flag})")
    setups = " ".join(f"{s:.3f}" for s in record["setup_walls_s"])
    print(f"  setup_s {e2e['setup_s']:.3f} (measured median "
          f"{record['measured_setup_s']:.3f}, set-ups {setups})")
    print(f"  peak_rss_mb {e2e['peak_rss_mb']:.1f}; sim_cycles_per_op "
          f"{e2e['sim_cycles_per_op']:.1f}; sim_p99_us "
          f"{layer['sim_p99_us']:.2f} over {record['requests']} requests")
    print(f"  sim.events {layer['sim.events']}; sim.ns_per_event "
          f"{layer['sim.ns_per_event']:.0f}; machines built "
          f"{layer['machine.systems_built']} in "
          f"{layer['machine.build_s']:.3f} s")
    if record["trace"]:
        print(f"  traced pass {record['traced_wall_s']:.3f} s "
              f"(overhead {layer['trace.overhead']:.2f}x, "
              f"unattributed {record['traced_unattributed_s']:.4f} s)")
        print(f"  {'layer':<10}{'self_s':>9}{'share':>8}{'calls_in':>12}")
        for name in LAYERS:
            self_s = layer[f"{name}.self_s"]
            print(f"  {name:<10}{self_s:>9.3f}"
                  f"{self_s / e2e['wall_s']:>8.1%}"
                  f"{layer[f'{name}.calls_in']:>12}")
    print(f"  sim_digest {record['sim_digest']}; attempted "
          f"{record['attempted']}, failed {record['failed']}")
    for error in record["errors"]:
        print(f"  FAILED {error}")


def _append_json(path: str, records) -> None:
    """Append run records to the JSON list at ``path``."""
    target = Path(path)
    existing = json.loads(target.read_text()) if target.exists() else []
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(existing + records, indent=1) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the simulator: host wall time, set-up, "
                    "memory and simulated cycles per workload, plus a "
                    "per-layer split from a traced pass.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="the run length; only the run_seconds of "
                             "BENCHMARK.json is accepted")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: add a cProfile pass and report the "
                             "per-layer metrics")
    parser.add_argument("--json", metavar="OUT",
                        help="append full run records to this JSON list")
    parser.add_argument("--smoke", action="store_true",
                        help=f"about eightfold smaller points, {MIN_PASSES} "
                             f"passes and no more (tests)")
    parser.add_argument("--child", choices=("pass", "trace"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        child_main(args)
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: simulator source not found at {SRC}; run from a "
              f"full checkout of the repository", file=sys.stderr)
        return 2
    # Every run of a commit measures for the same time, so runs compare.
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "run_seconds"]
    if args.seconds not in (None, run_seconds):
        print(f"bench: the run length is fixed at {run_seconds} s by "
              f"BENCHMARK.json, not {args.seconds:g}", file=sys.stderr)
        return 2
    args.seconds = 0 if args.smoke else run_seconds
    records = []
    for workload in ([args.workload] if args.workload else WORKLOADS):
        args.workload = workload
        try:
            record = measure(args)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"bench: {err}", file=sys.stderr)
            return 1
        report(record)
        records.append(record)
    if args.json:
        _append_json(args.json, records)
    lines = [result_line(r) for r in records]
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {"correct": all(l["correct"] for l in lines),
                 "attempted": sum(l["attempted"] for l in lines),
                 "failed": sum(l["failed"] for l in lines),
                 "metrics": {f"{r['workload']}.{name}": value
                             for r, l in zip(records, lines)
                             for name, value in l["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
