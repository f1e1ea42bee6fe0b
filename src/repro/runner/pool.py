"""The parallel sweep driver: fan out points, cache by content hash.

``run_sweep`` executes a :class:`~repro.runner.manifest.Sweep`:

1. every point is content-hashed; hits load the stored result state
   from the cache,
2. misses fan out across a ``multiprocessing`` pool (``jobs`` worker
   processes) — each worker simulates its points in a fresh
   :class:`~repro.system.System` and returns plain state dicts,
3. the parent rehydrates each state into
   :class:`~repro.runner.manifest.PointResult` and folds the per-point
   ``Stats``/``Ledger`` with the PR 1 merge machinery.

Determinism: the DES itself stays single-threaded and deterministic
*per point* — only independent points run concurrently — and results
are reassembled in manifest order, so ``--jobs 4`` output is
bit-identical to ``--jobs 1`` and to a cache replay.

Fault isolation: a worker that *raises* never takes the sweep down —
the exception is captured in the worker, the point is quarantined into
:attr:`SweepResult.failed` (or retried with seeded exponential backoff
when the error is marked retryable) and every other point completes
normally.  With ``point_timeout`` set, a *hung* point is detected by a
watchdog on result collection and quarantined as a timeout; hang
isolation needs ``jobs >= 2``, since a pool of one cannot make
progress past the hung worker to run the remaining points.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.results import Series, Table, series_from_points
from repro.obs.ledger import Ledger
from repro.runner.cache import TELEMETRY, ResultCache, code_fingerprint
from repro.runner.manifest import PointResult, Sweep, SweepPoint
from repro.runner.worker import run_point
from repro.sim.stats import Stats

#: First-retry backoff in seconds; doubles per attempt, jittered.
BACKOFF_BASE = 0.05
#: Upper bound on a single backoff sleep.
BACKOFF_CAP = 2.0
#: Run counters whose non-zero value is an audit failure.
VIOLATION_COUNTERS = ("crash.invariant_violations", "faults.violations",
                      "virt.violations")


@dataclass
class PointFailure:
    """One quarantined sweep point (worker error or watchdog timeout)."""

    point: SweepPoint
    error_type: str
    message: str
    attempts: int
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

    def failed_table(self) -> Table:
        """Quarantined points: what failed, how, after how many tries."""
        table = Table(f"{self.sweep.title} — quarantined points",
                      ["series", self.sweep.axis, "reason", "error",
                       "attempts"])
        for failure in self.failed:
            table.add_row(failure.point.series, failure.point.x,
                          failure.reason, failure.error_type,
                          failure.attempts)
        return table


def run_sweep(sweep: Sweep, jobs: int = 1,
              cache: Optional[ResultCache] = None, *,
              point_timeout: Optional[float] = None,
              max_retries: int = 0,
              retry_seed: int = 0,
              profile: bool = False) -> SweepResult:
    """Execute a sweep; see the module docstring for the contract.

    ``profile=True`` wraps every point in cProfile and attaches its
    top-functions table to the point state.  Profiled runs bypass the
    cache in both directions: a hit would return no profile, and a
    profiled wall (inflated by instrumentation) must never be stored.
    """
    started = time.perf_counter()
    fingerprint = code_fingerprint()
    results: List[Optional[PointResult]] = [None] * len(sweep.points)
    failures: Dict[int, PointFailure] = {}
    pending = []
    hits = misses = 0

    for i, point in enumerate(sweep.points):
        load_started = time.perf_counter()
        key = point.cache_key(fingerprint)
        state = (cache.get(key)
                 if cache is not None and not profile else None)
        if state is not None:
            # Wall time of *this* load, not the sweep's elapsed time.
            load_wall = time.perf_counter() - load_started
            results[i] = PointResult.from_state(
                point, state, cached=True, wall_seconds=load_wall)
            hits += 1
            TELEMETRY.append({
                "point": point.label, "experiment": point.experiment,
                "hit": True, "wall_seconds": load_wall})
        else:
            pending.append({"slot": i, "point": point, "key": key,
                            "attempt": 0})

    rng = random.Random(retry_seed)
    queue = pending
    while queue:
        # ``profile`` rides in the task, NOT the payload: the payload
        # feeds the cache key and profiling must not shift it.
        tasks = [{"slot": t["slot"],
                  "payload": t["point"].to_payload(),
                  "attempt": t["attempt"],
                  "profile": profile} for t in queue]
        if jobs > 1 or point_timeout is not None:
            outcomes = _map_parallel(tasks, jobs, point_timeout)
        else:
            outcomes = {task["slot"]: _guarded_run_point(task)
                        for task in tasks}
        retry_queue = []
        backoff = 0.0
        for t in queue:
            slot, point, key = t["slot"], t["point"], t["key"]
            attempts = t["attempt"] + 1
            out = outcomes.get(slot)
            if out is None:
                failures[slot] = PointFailure(
                    point=point, error_type="TimeoutError",
                    message=(f"no result within {point_timeout:g}s; "
                             f"worker pool terminated"),
                    attempts=attempts, reason="timeout")
            elif out["ok"]:
                state = out["state"]
                if cache is not None and not profile:
                    cache.put(key, state)
                wall = float(state.get("wall_seconds", 0.0))
                results[slot] = PointResult.from_state(
                    point, state, cached=False, wall_seconds=wall)
                misses += 1
                TELEMETRY.append({
                    "point": point.label, "experiment": point.experiment,
                    "hit": False, "wall_seconds": wall})
            elif out["retryable"] and t["attempt"] < max_retries:
                retry_queue.append({**t, "attempt": attempts})
                step = BACKOFF_BASE * (2 ** t["attempt"])
                backoff = max(backoff,
                              min(BACKOFF_CAP, step) * (0.5 + rng.random()))
            else:
                failures[slot] = PointFailure(
                    point=point, error_type=out["error_type"],
                    message=out["message"], attempts=attempts,
                    reason="error")
        if retry_queue and backoff > 0:
            time.sleep(backoff)
        queue = retry_queue

    return SweepResult(sweep=sweep,
                       points=[r for r in results if r is not None],
                       hits=hits, misses=misses,
                       wall_seconds=time.perf_counter() - started,
                       jobs=jobs,
                       failed=[failures[slot] for slot in sorted(failures)])


def _guarded_run_point(task: dict) -> dict:
    """Run one point, converting any exception into a result record.

    Runs inside the worker process: a raising point must never
    propagate (it would poison ``pool.map`` and abort every sibling) —
    it is captured with enough context for quarantine and retry
    decisions.  The attempt number is published so diagnostic
    workloads (the ``selftest`` flaky mode) can behave per-attempt.
    """
    from repro.runner import worker

    worker.CURRENT_ATTEMPT = task["attempt"]
    try:
        state = run_point(task["payload"],
                          profile=task.get("profile", False))
        return {"slot": task["slot"], "ok": True, "state": state}
    except Exception as err:  # noqa: BLE001 — quarantine, never crash
        return {"slot": task["slot"], "ok": False,
                "error_type": type(err).__name__,
                "message": str(err)[:500],
                "retryable": bool(getattr(err, "retryable", False))}


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
