"""Counters, samplers, histograms and derived metrics for experiments.

A :class:`Stats` object is threaded through the kernel layers; every
subsystem bumps named counters (faults, shootdowns, journal commits,
walk cycles...).  Experiments read them to report the same quantities
the paper reports ("~2.8x more faults", "10x fewer faults", average
page-walk cycles for Table II, ...).

Counter names are typed: producers pass :class:`repro.obs.Counter`
members, whose values are the legacy string keys, so external readers
(benches, JSON) are unaffected.  Latency distributions go through
:meth:`observe`, which feeds a mergeable log-linear
:class:`~repro.obs.histogram.Histogram` and replaces the ad-hoc
averaging benches used to do.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple, Union

from repro.errors import MissingCounterError
from repro.obs.counters import _COUNTER_KEYS, Counter, counter_key
from repro.obs.histogram import Histogram

Name = Union[Counter, str]


class Stats:
    """Counters plus (time, value) samples plus latency histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.timings: Dict[str, Histogram] = {}

    # -- counters ----------------------------------------------------------
    def add(self, name: Name, amount: float = 1.0) -> None:
        # ``counter_key`` inlined: ``add`` fires on every fault/walk.
        self.counters[_COUNTER_KEYS.get(name, name)] += amount

    def get(self, name: Name) -> float:
        return self.counters.get(counter_key(name), 0.0)

    def touched(self, name: Name) -> bool:
        """Whether the counter was ever incremented (even by 0.0)."""
        return counter_key(name) in self.counters

    def ratio(self, numerator: Name, denominator: Name) -> float:
        """``numerator / denominator``; 0.0 when the denominator is a
        *touched* zero, :class:`MissingCounterError` when it was never
        incremented at all (which would otherwise silently hide
        instrumentation that never fired)."""
        if not self.touched(denominator):
            raise MissingCounterError(
                f"ratio denominator {counter_key(denominator)!r} was "
                f"never incremented")
        denom = self.get(denominator)
        return self.get(numerator) / denom if denom else 0.0

    # -- time series -------------------------------------------------------
    def sample(self, series: Name, when: float, value: float) -> None:
        self.samples[_COUNTER_KEYS.get(series, series)].append((when, value))

    def series(self, name: Name) -> List[Tuple[float, float]]:
        return list(self.samples.get(counter_key(name), []))

    # -- latency histograms ------------------------------------------------
    def observe(self, name: Name, value: float) -> None:
        """Record one latency/size observation into a histogram."""
        key = counter_key(name)
        hist = self.timings.get(key)
        if hist is None:
            hist = self.timings[key] = Histogram()
        hist.record(value)

    def percentile(self, series: Name, q: float) -> float:
        """Quantile ``q`` (0-100) of a histogram or sampled series."""
        key = counter_key(series)
        hist = self.timings.get(key)
        if hist is not None:
            return hist.percentile(q)
        points = self.samples.get(key)
        if points:
            values = sorted(v for _t, v in points)
            if not 0 <= q <= 100:
                raise ValueError(f"quantile out of range: {q}")
            index = min(len(values) - 1,
                        max(0, round(q / 100.0 * (len(values) - 1))))
            return values[index]
        raise MissingCounterError(f"no histogram or series {key!r}")

    # -- aggregation -------------------------------------------------------
    def merge(self, other: "Stats") -> "Stats":
        """Fold another Stats into this one (multi-process benches)."""
        for key, value in other.counters.items():
            self.counters[key] += value
        for key, points in other.samples.items():
            self.samples[key].extend(points)
        for key, hist in other.timings.items():
            mine = self.timings.get(key)
            if mine is None:
                mine = self.timings[key] = Histogram()
            mine.merge(hist)
        return self

    # -- convenience -------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        return dict(self.counters)

    def reset(self) -> None:
        self.counters.clear()
        self.samples.clear()
        self.timings.clear()

    def to_state(self) -> Dict[str, object]:
        """Lossless, JSON-ready state — counters, full sample series
        and raw histogram buckets — so a worker process can return its
        Stats and the parent can :meth:`merge` them bit-identically
        (the sweep runner's contract)."""
        return {
            "counters": dict(self.counters),
            "samples": {key: [[t, v] for t, v in points]
                        for key, points in self.samples.items()},
            "timings": {key: hist.to_state()
                        for key, hist in self.timings.items()},
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Stats":
        stats = cls()
        for key, value in state.get("counters", {}).items():
            stats.counters[key] = float(value)
        for key, points in state.get("samples", {}).items():
            stats.samples[key] = [(float(t), float(v))
                                  for t, v in points]
        for key, hist in state.get("timings", {}).items():
            stats.timings[key] = Histogram.from_state(hist)
        return stats

    def to_json(self) -> Dict[str, object]:
        """JSON-ready export: counters + histogram summaries + series
        lengths (full series are omitted; they can be huge)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "timings": {key: hist.summary()
                        for key, hist in sorted(self.timings.items())},
            "series_points": {key: len(points)
                              for key, points in sorted(self.samples.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        keys = ", ".join(sorted(self.counters)[:8])
        return f"<Stats {len(self.counters)} counters: {keys}...>"
