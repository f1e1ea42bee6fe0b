"""Consolidation knee (`sweep consolidate`).

Many tenants share one simulated machine; the sweep walks tenant
count x workload mix x quotas x antagonist and this bench distills
the per-tenant p99-vs-tenant-count knee table.  Asserted shape:

* tail latency degrades monotonically as tenants pile on — the shared
  device bandwidth pool is the contended resource — and the 16-tenant
  p99 sits well above the single-tenant baseline;
* the degenerate points (one tenant, no quotas, no antagonist) take
  the passive path: not one tenancy counter fires (the ``tenancy``
  gate in ``tests/test_goldens.py`` pins them byte-for-byte);
* quotas price enforcement where it belongs: the antagonist hog is
  CPU-throttled and bandwidth-clipped (its run stretches), while
  foreground tenants' own p99 barely moves — policing the hog does
  not tax the victims;
* the tenancy config rides in the cache key: 60 distinct keys, warm
  replay byte-exact.
"""

import json

from conftest import once

from repro.analysis.report import format_sweep
from repro.obs import CostDomain
from repro.runner import ResultCache, build_sweep, run_sweep
from repro.tenancy.spec import ANTAGONIST_SPEC

OPS = 16
SIZE = 64 << 10
TENANT_COUNTS = (1, 2, 4, 8, 16)


def _tenant_p99(result) -> float:
    """Worst foreground-tenant p99 of one point (degenerate points
    fall back to the un-tenanted span histogram)."""
    hists = [h for key, h in result.run.percentiles.items()
             if key.startswith("tenant.t") and key.endswith(".request")]
    if not hists:
        hists = [result.run.percentiles.get("span.apache.request", {})]
    return max(h.get("p99", 0.0) for h in hists)


def test_consolidation_knee_sweep(benchmark, tmp_path, bench_extra):
    def build():
        return build_sweep("consolidate", ops=OPS, size=SIZE,
                           media="optane", device_gib=1, aged=True)

    def experiment():
        cold = run_sweep(build(), jobs=4,
                         cache=ResultCache(tmp_path / "cache"))
        warm = run_sweep(build(), jobs=4,
                         cache=ResultCache(tmp_path / "cache"))
        return cold, warm

    cold, warm = once(benchmark, experiment)
    print(format_sweep(cold.sweep.title, cold.series(), cold.sweep.axis,
                       cold.hits, cold.misses, cold.wall_seconds))

    assert not cold.failed
    assert len(cold.points) == 60  # 5 counts x 3 mixes x quotas x hog

    # The tenancy config is part of the payload, hence the cache key —
    # and a warm replay is byte-exact.
    keys = {p.point.cache_key("fp") for p in cold.points}
    assert len(keys) == len(cold.points)
    assert warm.hits == len(warm.points) and warm.misses == 0
    for a, b in zip(cold.points, warm.points):
        assert (json.dumps(a.comparable_state(), sort_keys=True)
                == json.dumps(b.comparable_state(), sort_keys=True))

    by_series = {}
    for p in cold.points:
        by_series.setdefault(p.point.series, {})[p.point.x] = p

    # Degenerate points ran the passive path: zero tenancy footprint.
    for series, row in by_series.items():
        if series.endswith("noq+nohog"):
            p = row[1]
            assert p.stats.get("tenancy.requests") == 0
            assert p.ledger.domain_total(CostDomain.TENANCY) == 0

    # The knee: worst per-tenant p99 is non-decreasing in tenant count
    # and clearly degraded at 16 tenants (shared-pool queueing).
    knee = {}
    for series in ("apache+noq+nohog", "apache+q+nohog",
                   "apache+noq+hog", "apache+q+hog"):
        row = by_series[series]
        p99s = {n: _tenant_p99(row[n]) for n in TENANT_COUNTS}
        knee[series] = p99s
        for lo, hi in zip(TENANT_COUNTS, TENANT_COUNTS[1:]):
            assert p99s[hi] >= p99s[lo], (series, lo, hi)
        assert p99s[16] > 1.2 * p99s[1], series

    # Quota enforcement lands on the hog, not the victims: the hog is
    # CPU-throttled and bandwidth-clipped (the machine runs longer
    # while it crawls), its kernel-frame footprint stays boxed, and
    # foreground p99 moves by at most a few percent.
    for n in (8, 16):
        policed = by_series["apache+q+hog"][n]
        unpoliced = by_series["apache+noq+hog"][n]
        assert policed.stats.get("tenancy.cpu_throttle_cycles") > 0
        assert policed.stats.get("tenancy.bw_throttle_cycles") > 0
        assert policed.stats.get("tenancy.antagonist_pages_dirtied") > 0
        assert (policed.stats.get("tenant.hog.peak_kernel_bytes")
                <= ANTAGONIST_SPEC.memory_limit)
        assert policed.run.cycles > unpoliced.run.cycles
        assert (_tenant_p99(policed)
                <= 1.10 * _tenant_p99(unpoliced))
        assert unpoliced.stats.get("tenancy.cpu_throttle_cycles") == 0

    # Every non-passive point audited clean in-process (run_consolidate
    # raises QuotaAccountingError otherwise) and booked per-tenant
    # requests for every foreground tenant.
    for series, row in by_series.items():
        for n, p in row.items():
            if n == 1 and series.endswith("noq+nohog"):
                continue
            for i in range(n):
                assert p.stats.get(f"tenant.t{i}.requests") > 0

    bench_extra["knee_p99_cycles"] = {
        series: {str(n): round(v, 2) for n, v in sorted(row.items())}
        for series, row in knee.items()}
    bench_extra["knee_degradation_16x"] = {
        series: round(row[16] / row[1], 4)
        for series, row in knee.items()}
    hog16 = by_series["apache+q+hog"][16]
    bench_extra["quota_enforcement_at_16"] = {
        "hog_cpu_throttle_cycles":
            hog16.stats.get("tenancy.cpu_throttle_cycles"),
        "hog_bw_throttle_cycles":
            hog16.stats.get("tenancy.bw_throttle_cycles"),
        "hog_peak_kernel_bytes":
            hog16.stats.get("tenant.hog.peak_kernel_bytes"),
        "quota_scans": hog16.stats.get("tenancy.quota_scans"),
    }
