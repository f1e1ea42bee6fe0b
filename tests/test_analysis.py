"""Result containers and report rendering."""

import pytest

from repro.analysis.results import RunResult, Series, Table
from repro.analysis.report import format_series, format_table, render_bars


def make_result(label="x", cycles=2.7e9, ops=1000, nbytes=1 << 20):
    return RunResult(label=label, cycles=cycles, operations=ops,
                     bytes_processed=nbytes)


def test_runresult_derived_metrics():
    r = make_result()
    assert r.seconds == pytest.approx(1.0)
    assert r.ops_per_second == pytest.approx(1000.0)
    assert r.mb_per_second == pytest.approx(1.0)
    assert r.latency_us == pytest.approx(1000.0)


def test_runresult_speedup():
    fast = make_result(cycles=1e9)
    slow = make_result(cycles=2e9)
    assert fast.ops_per_second / slow.ops_per_second == pytest.approx(2.0)
    assert slow.latency_us / fast.latency_us == pytest.approx(2.0)
    empty = RunResult("z", 0.0, 0.0)
    assert empty.ops_per_second == 0.0


def test_series_operations():
    s = Series("daxvm")
    base = Series("read")
    for x, y in [(1, 10.0), (2, 20.0)]:
        s.add(x, y * 2)
        base.add(x, y)
    assert s.xs() == [1, 2]
    assert s.y_at(2) == 40.0
    assert s.y_at(99) is None
    rel = s.relative_to(base)
    assert rel.points == [(1, 2.0), (2, 2.0)]


def test_table_row_validation():
    t = Table("T", ["a", "b"])
    t.add_row(1, 2)
    with pytest.raises(ValueError):
        t.add_row(1)


def test_format_table_aligns():
    t = Table("Demo", ["name", "value"])
    t.add_row("alpha", 1.2345)
    t.add_row("b", 100)
    text = format_table(t)
    assert "Demo" in text
    assert "alpha" in text
    assert "1.23" in text  # 3 sig figs


def test_format_series_merges_xs():
    a = Series("a")
    a.add(1, 1.0)
    b = Series("b")
    b.add(2, 2.0)
    text = format_series("Fig", [a, b], x_label="cores")
    assert "cores" in text
    assert "-" in text  # missing points rendered as dashes


def test_render_bars():
    text = render_bars("Bars", ["x", "longer"], [1.0, 2.0])
    assert text.count("#") > 0
    assert "longer" in text
    assert render_bars("E", [], []) == "E"
