"""The sweep runner regenerating a figure end-to-end.

Runs the registered apache sweep through :func:`repro.runner.run_sweep`
twice — cold (simulating, 2 worker processes) and warm (replayed from
the content-addressed cache) — and asserts the replay is exact.  The
conftest recorder picks the per-point hit/miss telemetry up into its
session log (``.bench_results/benchmarks_session.json``).
"""

import json

from conftest import once

from repro.analysis.report import format_sweep
from repro.runner import ResultCache, build_sweep, run_sweep


def test_apache_sweep_cold_then_warm(benchmark, tmp_path):
    def build():
        return build_sweep("apache", ops=800, size=32 << 10,
                           media="optane", device_gib=4, aged=True)

    def experiment():
        cold = run_sweep(build(), jobs=2,
                         cache=ResultCache(tmp_path / "cache"))
        warm = run_sweep(build(), jobs=2,
                         cache=ResultCache(tmp_path / "cache"))
        return cold, warm

    cold, warm = once(benchmark, experiment)
    print(format_sweep(cold.sweep.title, cold.series(), cold.sweep.axis,
                       cold.hits, cold.misses, cold.wall_seconds))
    print(format_sweep(warm.sweep.title, warm.series(), warm.sweep.axis,
                       warm.hits, warm.misses, warm.wall_seconds))

    assert cold.misses == len(cold.points) and cold.hits == 0
    assert warm.hits == len(warm.points) and warm.misses == 0
    for a, b in zip(cold.points, warm.points):
        assert (json.dumps(a.comparable_state(), sort_keys=True)
                == json.dumps(b.comparable_state(), sort_keys=True))
    assert (warm.merged_ledger().to_json()
            == cold.merged_ledger().to_json())
    # The figure itself keeps its shape: mmap collapses, daxvm scales.
    by_label = {s.label: s for s in cold.series()}
    assert by_label["mmap"].y_at(16) < max(by_label["mmap"].ys())
    assert by_label["daxvm"].y_at(16) > by_label["mmap"].y_at(16)
