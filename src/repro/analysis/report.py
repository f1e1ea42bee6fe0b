"""Plain-text rendering of series and tables (the bench output)."""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.analysis.results import Series, Table


def format_table(table: Table) -> str:
    """Render a Table with aligned columns."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.3g}"
        return str(cell)

    rows = [[fmt(c) for c in row] for row in table.rows]
    headers = [str(c) for c in table.columns]
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              if rows else len(headers[i]) for i in range(len(headers))]
    lines = [table.title,
             "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(title: str, series: Iterable[Series],
                  x_label: str = "x") -> str:
    """Render several series as one aligned grid keyed by x."""
    series = list(series)
    xs: List[float] = []
    for s in series:
        for x in s.xs():
            if x not in xs:
                xs.append(x)
    xs.sort()
    table = Table(title, [x_label] + [s.label for s in series])
    for x in xs:
        cells = [x]
        for s in series:
            y = s.y_at(x)
            cells.append(y if y is not None else "-")
        table.add_row(*cells)
    return format_table(table)


def format_lock_report(title: str,
                       reports: Iterable[Dict[str, float]]) -> str:
    """Render per-lock wait-vs-hold summaries (Fig. 8a's contention).

    ``reports`` is an iterable of :meth:`repro.sim.locks._LockBase.
    report` dicts; reader/writer splits are shown for rw-semaphores.
    """
    table = Table(title, ["lock", "kind", "acq", "contended",
                          "wait cycles", "hold cycles"])
    splits = []
    for rep in reports:
        table.add_row(rep["name"], rep["kind"], rep["acquisitions"],
                      rep["contended"], rep["wait_cycles"],
                      rep["hold_cycles"])
        if "read_wait_cycles" in rep:
            splits.append(
                f"{rep['name']}: read wait/hold "
                f"{rep['read_wait_cycles']:.0f}/"
                f"{rep['read_hold_cycles']:.0f}"
                f"  write wait/hold {rep['write_wait_cycles']:.0f}/"
                f"{rep['write_hold_cycles']:.0f}")
    out = format_table(table)
    if splits:
        out += "\n" + "\n".join(splits)
    return out


def format_cache_summary(hits: int, misses: int,
                         wall_seconds: float) -> str:
    """One-line sweep-cache accounting (runner output footer)."""
    total = hits + misses
    ratio = hits / total if total else 0.0
    return (f"cache: {hits}/{total} points served from cache "
            f"({ratio * 100:.0f}%), {misses} simulated; "
            f"wall {wall_seconds:.2f}s")


def format_sweep(title: str, series: Iterable[Series],
                 x_label: str, hits: int, misses: int,
                 wall_seconds: float) -> str:
    """A sweep's figure grid plus its cache accounting footer."""
    return (format_series(title, series, x_label=x_label) + "\n"
            + format_cache_summary(hits, misses, wall_seconds))


def render_bars(title: str, labels: Iterable[str],
                values: Iterable[float]) -> str:
    """An ASCII bar chart, 40 columns at its peak (for quick visual
    shape checks)."""
    labels = list(labels)
    values = list(values)
    peak = max(values) if values else 1.0
    lwidth = max(len(l) for l in labels) if labels else 0
    lines = [title]
    for label, value in zip(labels, values):
        bar = "#" * max(1, int(40 * value / peak)) if peak else ""
        lines.append(f"{label.ljust(lwidth)}  {bar} {value:.3g}")
    return "\n".join(lines)
