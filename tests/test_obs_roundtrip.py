"""Observability state fidelity under per-tenant namespaces.

The consolidate sweep ships Stats/Ledger state across the process
boundary and merges per-point results; tenancy multiplies the key
space (``tenant.<name>.*`` counters and histograms, per-thread ledger
rows, ``tenancy/*`` events).  These tests pin the contract the cache
and the pool depend on: ``to_state``/``from_state`` are lossless
inverses and ``merge`` is plain addition — including for tenant names
that are prefixes of each other (``t1`` vs ``t10``), which must never
alias.
"""

import json
import random

import pytest

from repro.obs import CostDomain, Counter, Histogram, Ledger
from repro.sim.stats import Stats

TENANTS = ("t1", "t10", "t2", "t21", "hog")


def _tenant_stats(offset: float) -> Stats:
    stats = Stats()
    stats.add(Counter.TENANCY_REQUESTS, 10 + offset)
    for i, name in enumerate(TENANTS):
        stats.add(f"tenant.{name}.requests", 5 + i + offset)
        stats.add(f"tenant.{name}.cpu_throttle_cycles", i)
        stats.sample(f"tenant.{name}.memory_bytes", 100.0 + i, 4096.0 * i)
        rng = random.Random(17 * i + int(offset))
        for _ in range(40):
            stats.observe(f"tenant.{name}.request",
                          1000.0 + 5000.0 * rng.random())
    return stats


def test_stats_roundtrip_is_lossless():
    stats = _tenant_stats(0.0)
    wire = json.loads(json.dumps(stats.to_state()))
    back = Stats.from_state(wire)
    assert back.counters == stats.counters
    assert back.samples == stats.samples
    assert back.to_state() == stats.to_state()
    # Histograms survive with their exact buckets, not just summaries.
    for key, hist in stats.timings.items():
        assert back.timings[key].to_state() == hist.to_state()
        assert back.timings[key].percentile(99) == hist.percentile(99)


def test_stats_merge_adds_and_never_aliases_prefixes():
    merged = _tenant_stats(0.0).merge(_tenant_stats(7.0))
    # t1 and t10 accumulate independently even though "tenant.t1." is
    # a prefix of "tenant.t10.".
    assert merged.get("tenant.t1.requests") == 5 + (5 + 7)
    assert merged.get("tenant.t10.requests") == 6 + (6 + 7)
    assert merged.get(Counter.TENANCY_REQUESTS) == 27
    for name in TENANTS:
        assert merged.timings[f"tenant.{name}.request"].count == 80
        assert len(merged.samples[f"tenant.{name}.memory_bytes"]) == 2
    # Merge of round-tripped copies == round-trip of the merge.
    a, b = _tenant_stats(0.0), _tenant_stats(7.0)
    via_wire = Stats.from_state(a.to_state()).merge(
        Stats.from_state(b.to_state()))
    assert via_wire.to_state() == merged.to_state()


def test_histogram_merge_matches_pooled_observations():
    rng = random.Random(42)
    values = [rng.expovariate(1e-4) for _ in range(500)]
    pooled, left, right = Histogram(), Histogram(), Histogram()
    for i, value in enumerate(values):
        pooled.record(value)
        (left if i % 2 else right).record(value)
    left.merge(right)
    merged_state, pooled_state = left.to_state(), pooled.to_state()
    # Bucket counts are integers and must match exactly; the running
    # totals are float sums accumulated in a different order.
    assert merged_state["buckets"] == pooled_state["buckets"]
    for field in ("total", "min", "max", "count"):
        assert merged_state[field] == pytest.approx(pooled_state[field])
    for key, value in pooled.summary().items():
        assert left.summary()[key] == pytest.approx(value)
    wire = Histogram.from_state(json.loads(json.dumps(pooled.to_state())))
    assert wire.summary() == pooled.summary()
    assert wire.count == 500
    assert wire.percentile(50) <= wire.percentile(99)


def _tenant_ledger(scale: float) -> Ledger:
    ledger = Ledger()
    for i, name in enumerate(TENANTS):
        ledger.record(f"{name}.worker", CostDomain.USERSPACE,
                      "uncharged", scale * (1000.0 + i))
        ledger.record(f"{name}.worker", CostDomain.TENANCY,
                      "cpu-throttle", scale * (10.0 + i))
        ledger.record(f"{name}.worker", CostDomain.TENANCY,
                      f"mmap_sem-blocked-by:{TENANTS[(i + 1) % 5]}",
                      scale * 3.0)
    return ledger


def test_ledger_roundtrip_is_lossless():
    ledger = _tenant_ledger(1.0)
    wire = json.loads(json.dumps(ledger.to_state()))
    back = Ledger.from_state(wire)
    assert back.to_state() == ledger.to_state()
    assert back.domain_total(CostDomain.TENANCY) \
        == ledger.domain_total(CostDomain.TENANCY)
    assert back.per_thread() == ledger.per_thread()
    # Attribution events keep the holder labels byte-exact.
    events = {event for domain, event, _ in wire["events"]
              if domain == "tenancy"}
    assert "mmap_sem-blocked-by:t10" in events


def test_ledger_merge_adds_per_thread_rows():
    merged = _tenant_ledger(1.0).merge(_tenant_ledger(2.0))
    per = merged.per_thread()
    # Exact thread keys: t1.worker and t10.worker never pool.
    assert per["t1.worker"]["userspace"] == pytest.approx(3000.0)
    assert per["t10.worker"]["userspace"] == pytest.approx(3003.0)
    assert merged.event_total(CostDomain.TENANCY, "cpu-throttle") \
        == pytest.approx(3 * sum(10.0 + i for i in range(5)))
    via_wire = Ledger.from_state(_tenant_ledger(1.0).to_state()).merge(
        Ledger.from_state(_tenant_ledger(2.0).to_state()))
    assert via_wire.to_state() == merged.to_state()
