#!/usr/bin/env python3
"""Compare two sets of benchmark runs: the parent commit and a change.

    python3 bench/compare.py PARENT.json CHANGE.json

Each file is the JSON list that ``bench/run.py --json`` appends to.
Runs are paired per (workload, trace) in the order they started, and
the two sides must alternate which one ran first.  Runs of different
lengths or sizes (``seconds``, ``smoke``) are never paired: the
comparison stops with exit code 2.  For every (metric, workload) pair
the verdict follows the rule for a small sandbox:

* ``improved`` -- at least ten pairs, the change wins at least nine
  tenths of them (ties count for neither), and the medians differ by
  more than the parent's interquartile range;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json`` (a per-layer
  metric, which has no bound, regresses only by the mirror of the
  ``improved`` rule);
* ``unresolved`` -- fewer than ten alternating pairs, or the parent's
  own spread is wider than the bound and not every change run beats
  every parent run;
* ``unchanged`` -- otherwise.

Per-layer verdicts are information: a change is expected to move some
layers.  Exits 1 when an end-to-end metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_metric_specs(path: Path = BENCHMARK) -> dict:
    """``name -> {"better": ..., "bound": float | None}``."""
    spec = json.loads(path.read_text())
    specs = {m["name"]: {"better": m["better"], "bound": m["bound"]}
             for m in spec["end_to_end"]}
    specs.update({m["name"]: {"better": m["better"], "bound": None}
                  for m in spec["per_layer"]})
    return specs


def verdict(parent, change, better: str, bound, alternating: bool = True
            ) -> str:
    """The verdict for one (metric, workload) pair of run lists.

    ``parent[i]`` and ``change[i]`` are the two sides of pair ``i``.
    """
    n = len(parent)
    if n < MIN_PAIRS or n != len(change) or not alternating:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    gain = sign * (p_med - c_med)
    if wins >= WIN_SHARE * n and gain > spread:
        return "improved"
    if bound is None:
        if losses >= WIN_SHARE * n and -gain > spread:
            return "regressed"
        return "unchanged"
    if p_med and -gain / abs(p_med) > bound:
        return "regressed"
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if p_med and spread / abs(p_med) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def pair_runs(parent_runs, change_runs):
    """Pair runs per (workload, trace) by start order.

    Returns ``{(workload, trace): (pairs, alternating)}``.  Raises
    ``ValueError`` when a group mixes run lengths or sizes.
    """
    groups: dict = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for run in runs:
            key = (run["workload"], run["trace"])
            groups.setdefault(key, {"parent": [], "change": []})
            groups[key][side].append(run)
    paired = {}
    for key, sides in sorted(groups.items()):
        shapes = {(run["seconds"], run["smoke"])
                  for run in sides["parent"] + sides["change"]}
        if len(shapes) > 1:
            raise ValueError(
                f"{key[0]} (trace {key[1]}): runs of different "
                f"(seconds, smoke) {sorted(shapes)} cannot be paired")
        parent = sorted(sides["parent"], key=lambda r: r["started_at"])
        change = sorted(sides["change"], key=lambda r: r["started_at"])
        pairs = list(zip(parent, change))
        firsts = [p["started_at"] < c["started_at"] for p, c in pairs]
        alternating = all(a != b for a, b in zip(firsts, firsts[1:]))
        paired[key] = (pairs, alternating)
    return paired


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}" if values else "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent_runs, change_runs, specs) -> int:
    """Print one verdict per (metric, workload); returns the end-to-end
    regressions."""
    regressions = 0
    for (workload, trace), (pairs, alternating) in pair_runs(
            parent_runs, change_runs).items():
        if not pairs:
            print(f"{workload} (trace {trace}): no pairs")
            continue
        same_seed = sum(p["seed"] == c["seed"] for p, c in pairs)
        same_sim = sum(p["sim_digest"] == c["sim_digest"]
                       for p, c in pairs if p["seed"] == c["seed"])
        failed = (sum(p["failed"] for p, _ in pairs),
                  sum(c["failed"] for _, c in pairs))
        print(f"{workload} (trace {trace}): {len(pairs)} pairs, "
              f"{'alternating' if alternating else 'NOT alternating'}; "
              f"same seed in {same_seed}, identical sim_digest in "
              f"{same_sim}; failed parent {failed[0]} change {failed[1]}")
        section = "per_layer" if trace else "end_to_end"
        for name in sorted(pairs[0][0][section]):
            spec = specs.get(name)
            if spec is None:
                continue
            parent = [p[section][name]["value"] for p, _ in pairs]
            change = [c[section][name]["value"] for _, c in pairs]
            result = verdict(parent, change, spec["better"],
                             spec["bound"], alternating)
            if spec["bound"] is None:
                result += " (information)"
            else:
                regressions += result == "regressed"
            print(f"  {name:<32} parent {_quartiles(parent):<36} "
                  f"change {_quartiles(change):<36} {result}")
    return regressions


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py PARENT.json CHANGE.json",
              file=sys.stderr)
        return 2
    parent_runs, change_runs = (json.loads(Path(p).read_text())
                                for p in argv)
    try:
        regressions = compare(parent_runs, change_runs, load_metric_specs())
    except ValueError as err:
        print(f"compare: {err}", file=sys.stderr)
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
