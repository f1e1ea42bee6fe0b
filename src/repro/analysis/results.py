"""Containers for experiment results.

Every workload returns a :class:`RunResult`; sweeps assemble them into
:class:`Series` (one line of a figure) and :class:`Table` (one table of
the paper), which the report module renders as text mirrors of the
paper's artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class RunResult:
    """Outcome of one workload run."""

    #: What was run (interface / configuration label).
    label: str
    #: Simulated cycles the measured phase took.
    cycles: float
    #: Operations completed in the measured phase.
    operations: float
    #: Bytes processed in the measured phase.
    bytes_processed: float = 0.0
    #: Counter snapshot deltas for the measured phase.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Per-cost-domain cycle deltas for the measured phase (from the
    #: engine ledger): ``{"zeroing": cycles, ...}``.
    domains: Dict[str, float] = field(default_factory=dict)
    #: Latency percentile summaries per operation type (from the Stats
    #: histograms): ``{"span.append": {"p50": ..., ...}}``.
    percentiles: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Clock frequency, for time conversions.
    freq_hz: float = 2.7e9

    @property
    def seconds(self) -> float:
        return self.cycles / self.freq_hz

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.seconds if self.cycles else 0.0

    @property
    def mb_per_second(self) -> float:
        if not self.cycles:
            return 0.0
        return (self.bytes_processed / (1 << 20)) / self.seconds

    @property
    def latency_us(self) -> float:
        """Mean latency per operation in microseconds."""
        if not self.operations:
            return 0.0
        return self.seconds / self.operations * 1e6


@dataclass
class Series:
    """One line of a figure: label plus (x, y) points."""

    label: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    def xs(self) -> List[float]:
        return [p[0] for p in self.points]

    def y_at(self, x: float) -> Optional[float]:
        for px, py in self.points:
            if px == x:
                return py
        return None

    def relative_to(self, baseline: "Series") -> "Series":
        """Pointwise ratio against a baseline series (matching xs)."""
        out = Series(f"{self.label} / {baseline.label}")
        for x, y in self.points:
            base = baseline.y_at(x)
            if base:
                out.add(x, y / base)
        return out


def series_from_points(points: Iterable[Tuple[str, float, float]]
                       ) -> List[Series]:
    """Group ``(series_label, x, y)`` triples into figure lines.

    Series appear in first-seen order, points in input order — the
    sweep runner emits points in manifest order, so the grouping is
    deterministic regardless of which worker produced which point.
    """
    by_label: Dict[str, Series] = {}
    for label, x, y in points:
        series = by_label.get(label)
        if series is None:
            series = by_label[label] = Series(label)
        series.add(x, y)
    return list(by_label.values())


@dataclass
class Table:
    """A small named grid, rendered like a paper table."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}")
        self.rows.append(cells)
