"""The parallel sweep driver: fan out points, cache by content hash.

``run_sweep`` executes a :class:`~repro.runner.manifest.Sweep`:

1. every point is content-hashed, its label excluded; hits load the
   stored result state from the cache,
2. misses, one per distinct hash, fan out across a ``multiprocessing``
   pool (``jobs`` worker processes) — each worker simulates its
   points in a fresh :class:`~repro.system.System` and returns plain
   state dicts,
3. the parent rehydrates each state into
   :class:`~repro.runner.manifest.PointResult` and folds the per-point
   ``Stats``/``Ledger`` with the PR 1 merge machinery.

Determinism: the DES itself stays single-threaded and deterministic
*per point* — only independent points run concurrently — and results
are reassembled in manifest order, so ``--jobs 4`` output is
bit-identical to ``--jobs 1`` and to a cache replay.

Fault isolation: a worker that *raises* never takes the sweep down —
the exception is captured in the worker, the point is quarantined into
:attr:`SweepResult.failed` and every other point completes normally.
A point runs once: it is deterministic (a fresh machine that names its
runs from 0, same payload), so a rerun would fail exactly as it did.
With ``point_timeout`` set, a *hung* point is detected by a watchdog
on result collection and quarantined as a timeout; hang isolation
needs ``jobs >= 2``, since a pool of one cannot make progress past the
hung worker to run the remaining points.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.results import Series, Table, series_from_points
from repro.obs.ledger import Ledger
from repro.runner.cache import ResultCache, code_fingerprint
from repro.runner.manifest import PointResult, Sweep, SweepPoint
from repro.runner.worker import run_point
from repro.sim.stats import Stats

#: Run counters whose non-zero value is an audit failure.
VIOLATION_COUNTERS = ("crash.invariant_violations", "faults.violations",
                      "virt.violations")


@dataclass
class PointFailure:
    """One quarantined sweep point (worker error or watchdog timeout)."""

    point: SweepPoint
    error_type: str
    message: str
    #: ``"error"`` (worker raised) or ``"timeout"`` (watchdog fired).
    reason: str


@dataclass
class SweepResult:
    """Every point's result plus sweep-level accounting.

    ``points`` holds the *surviving* points in manifest order;
    quarantined points live in ``failed`` — a sweep with failures
    still returns, with partial results.
    """

    sweep: Sweep
    points: List[PointResult]
    hits: int = 0
    misses: int = 0
    wall_seconds: float = 0.0
    jobs: int = 1
    failed: List[PointFailure] = field(default_factory=list)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def merged_stats(self) -> Stats:
        merged = Stats()
        for pr in self.points:
            merged.merge(pr.stats)
        return merged

    def merged_ledger(self) -> Ledger:
        merged = Ledger()
        for pr in self.points:
            merged.merge(pr.ledger)
        return merged

    def series(self) -> List[Series]:
        """One figure line per sweep series (y in Kops/s)."""
        return series_from_points(
            (pr.point.series, pr.point.x, pr.run.ops_per_second / 1e3)
            for pr in self.points)

    def table(self, columns: Sequence[str] = ()) -> Table:
        """Per-point tabulation, manifest order, plus one column per
        named run counter."""
        table = Table(self.sweep.title,
                      ["series", self.sweep.axis, "Kops/s", "cycles",
                       "source", *columns])
        for pr in self.points:
            table.add_row(pr.point.series, pr.point.x,
                          pr.run.ops_per_second / 1e3, pr.run.cycles,
                          "cache" if pr.cached else "run",
                          *(pr.run.counters.get(c, 0.0) for c in columns))
        return table

    def violations(self) -> List[str]:
        """``"<label> reports <counter> = <n>"`` for every point whose
        audit counters hold a violation."""
        return [f"{pr.point.label} reports {key} = "
                f"{pr.run.counters[key]:g}"
                for pr in self.points for key in VIOLATION_COUNTERS
                if pr.run.counters.get(key)]

    def part(self, sweep: Sweep) -> "SweepResult":
        """``sweep``'s share of this (pooled) run, in ``sweep``'s order:
        its points matched by payload, each a cache hit or a miss."""
        done = {pr.point.key: pr for pr in self.points}
        failed = {f.point.key: f for f in self.failed}
        points = [done[p.key] for p in sweep.points if p.key in done]
        hits = sum(pr.cached for pr in points)
        return SweepResult(
            sweep=sweep, points=points, hits=hits,
            misses=len(points) - hits, wall_seconds=self.wall_seconds,
            jobs=self.jobs,
            failed=[failed[p.key] for p in sweep.points if p.key in failed])

    def failed_table(self) -> Table:
        """Quarantined points: what failed and how."""
        table = Table(f"{self.sweep.title} — quarantined points",
                      ["series", self.sweep.axis, "reason", "error"])
        for failure in self.failed:
            table.add_row(failure.point.series, failure.point.x,
                          failure.reason, failure.error_type)
        return table


def run_sweep(sweep: Sweep, jobs: int = 1,
              cache: Optional[ResultCache] = None, *,
              point_timeout: Optional[float] = None) -> SweepResult:
    """Execute a sweep; see the module docstring for the contract.

    Points that differ only in their label share a cache key and run
    as one simulation (counted once in ``misses``); each keeps its own
    label in the result.
    """
    started = time.perf_counter()
    fingerprint = code_fingerprint()
    results: List[Optional[PointResult]] = [None] * len(sweep.points)
    failures: List[PointFailure] = []
    #: cache key -> the ``(slot, point)`` pairs it simulates for.
    pending: Dict[str, List[Tuple[int, SweepPoint]]] = {}
    hits = misses = 0

    for i, point in enumerate(sweep.points):
        load_started = time.perf_counter()
        key = point.cache_key(fingerprint)
        state = cache.get(key) if cache is not None else None
        if state is not None:
            # Wall time of *this* load, not the sweep's elapsed time.
            load_wall = time.perf_counter() - load_started
            results[i] = PointResult.from_state(
                point, state, cached=True, wall_seconds=load_wall)
            hits += 1
        else:
            pending.setdefault(key, []).append((i, point))

    tasks = [{"slot": slot, "payload": point.to_payload()}
             for (slot, point), *_ in pending.values()]
    if tasks and (jobs > 1 or point_timeout is not None):
        outcomes = _map_parallel(tasks, jobs, point_timeout)
    else:
        outcomes = {task["slot"]: _guarded_run_point(task)
                    for task in tasks}
    for key, group in pending.items():
        out = outcomes.get(group[0][0])
        if out is not None and out["ok"]:
            state = out["state"]
            if cache is not None:
                cache.put(key, state)
            wall = float(state.get("wall_seconds", 0.0))
            for slot, point in group:
                results[slot] = PointResult.from_state(
                    point, state, cached=False, wall_seconds=wall)
            misses += 1
            continue
        if out is None:
            error_type, reason = "TimeoutError", "timeout"
            message = (f"no result within {point_timeout:g}s; "
                       f"worker pool terminated")
        else:
            error_type, reason = out["error_type"], "error"
            message = out["message"]
        failures += [PointFailure(point=point, error_type=error_type,
                                  message=message, reason=reason)
                     for _slot, point in group]

    return SweepResult(sweep=sweep,
                       points=[r for r in results if r is not None],
                       hits=hits, misses=misses,
                       wall_seconds=time.perf_counter() - started,
                       jobs=jobs,
                       failed=failures)


def _guarded_run_point(task: dict) -> dict:
    """Run one point, converting any exception into a result record.

    Runs inside the worker process: a raising point must never
    propagate (it would poison ``pool.map`` and abort every sibling) —
    it is captured with enough context for quarantine.
    """
    try:
        state = run_point(task["payload"])
        return {"slot": task["slot"], "ok": True, "state": state}
    except Exception as err:  # noqa: BLE001 — quarantine, never crash
        return {"slot": task["slot"], "ok": False,
                "error_type": type(err).__name__,
                "message": str(err)[:500]}


def _map_parallel(tasks: List[dict], jobs: int,
                  point_timeout: Optional[float]) -> Dict[int, dict]:
    """Fan tasks over a pool; returns ``{slot: outcome}``.

    Results are collected unordered with a per-collection watchdog:
    if ``point_timeout`` passes with no result arriving, the pool is
    terminated and every uncollected slot is reported missing (the
    caller quarantines them as timeouts).  Fork is preferred (workers
    inherit the imported package and ``sys.path`` — essential for
    source-tree runs); platforms without it fall back to the default
    start method.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    outcomes: Dict[int, dict] = {}
    with ctx.Pool(processes=min(max(jobs, 1), len(tasks))) as pool:
        it = pool.imap_unordered(_guarded_run_point, tasks)
        try:
            for _ in range(len(tasks)):
                out = (it.next() if point_timeout is None
                       else it.next(timeout=point_timeout))
                outcomes[out["slot"]] = out
        except multiprocessing.TimeoutError:
            pool.terminate()
    return outcomes
