"""Log-bucketed latency histograms (p50/p95/p99 without raw samples).

HDR-style: values land in power-of-two buckets subdivided into
``2**SUB_BITS`` linear sub-buckets, bounding relative quantile error to
~``1/2**SUB_BITS`` while keeping memory O(log(range)).  Histograms are
mergeable, which multi-process benches need (a per-shard histogram per
worker folds into one distribution at the end).
"""

from __future__ import annotations

import math
from typing import Dict


class Histogram:
    """A mergeable log-linear histogram of non-negative values."""

    #: Sub-bucket resolution: 2**4 = 16 linear steps per octave (~6 %
    #: worst-case relative error on reported quantiles).
    SUB_BITS = 4

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = 0.0

    # -- recording ---------------------------------------------------------
    def _index(self, value: float) -> int:
        if value < 1.0:
            return 0
        exponent = int(math.log2(value))
        sub = int((value / (1 << exponent) - 1.0) * (1 << self.SUB_BITS))
        sub = min(sub, (1 << self.SUB_BITS) - 1)
        return 1 + (exponent << self.SUB_BITS) + sub

    def _midpoint(self, index: int) -> float:
        if index == 0:
            return 0.5
        index -= 1
        exponent = index >> self.SUB_BITS
        sub = index & ((1 << self.SUB_BITS) - 1)
        base = 1 << exponent
        return base * (1.0 + (sub + 0.5) / (1 << self.SUB_BITS))

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram value must be >= 0: {value}")
        index = self._index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min_value = min(self.min_value, value)
        self.max_value = max(self.max_value, value)

    # -- queries ----------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 100] (bucket midpoint)."""
        if not 0 <= q <= 100:
            raise ValueError(f"quantile out of range: {q}")
        if not self.count:
            return 0.0
        target = q / 100.0 * self.count
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                if index == self._index(self.max_value):
                    return min(self._midpoint(index), self.max_value)
                return self._midpoint(index)
        return self.max_value

    def percentiles(self) -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}``."""
        return {f"p{q:g}": self.percentile(q) for q in (50, 95, 99)}

    # -- lifecycle ---------------------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)
        return self

    def to_state(self) -> Dict[str, object]:
        """Lossless, JSON-ready state (inverse of :meth:`from_state`).

        Unlike :meth:`summary`, this carries the raw buckets, so a
        histogram shipped across a process boundary (or through the
        sweep-result cache) merges bit-identically to the original.
        """
        return {
            "buckets": {str(i): c for i, c in sorted(self._buckets.items())},
            "count": self.count,
            "total": self.total,
            "min": self.min_value if self.count else None,
            "max": self.max_value,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Histogram":
        hist = cls()
        hist._buckets = {int(i): int(c)
                         for i, c in state["buckets"].items()}
        hist.count = int(state["count"])
        hist.total = float(state["total"])
        hist.min_value = (math.inf if state["min"] is None
                          else float(state["min"]))
        hist.max_value = float(state["max"])
        return hist

    def summary(self) -> Dict[str, float]:
        """JSON-ready summary: count/mean/min/max plus p50/p95/p99."""
        out = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min_value if self.count else 0.0,
            "max": self.max_value,
        }
        out.update(self.percentiles())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Histogram n={self.count} mean={self.mean:.1f} "
                f"p99={self.percentile(99):.1f}>")
