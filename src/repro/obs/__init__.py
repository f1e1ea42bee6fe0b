"""repro.obs — the kernel-wide instrumentation layer.

One import surface for everything the simulator can be *asked*:

- :class:`CostDomain` / :func:`charge` — typed cycle charging; every
  layer yields ``charge(domain, event, cycles)``, the engine's one
  time-burning effect, and the engine accrues the per-thread,
  per-domain :class:`Ledger`.
- :class:`Counter` — the typed counter taxonomy (values are the legacy
  string keys, so external readers are unaffected).
- :class:`Histogram` — mergeable log-linear latency distributions
  (p50/p95/p99) behind ``Stats.observe``.
- :class:`Tracer` — span-scoped tracing: each closed span's elapsed
  cycles land in the ``span.<name>`` histogram on ``Stats``.

This package never imports ``repro.sim`` (the engine imports *us*), so
it stays dependency-free and importable from anywhere in the kernel.
"""

from repro.obs.charge import Charge, ChargeSpan, charge, charge_span
from repro.obs.counters import Counter, counter_key
from repro.obs.domains import DOMAIN_ORDER, CostDomain
from repro.obs.histogram import Histogram
from repro.obs.ledger import Ledger
from repro.obs.trace import Tracer

__all__ = [
    "Charge",
    "charge",
    "ChargeSpan",
    "charge_span",
    "Counter",
    "counter_key",
    "CostDomain",
    "DOMAIN_ORDER",
    "Histogram",
    "Ledger",
    "Tracer",
]
