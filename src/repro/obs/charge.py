"""The typed cost-charging effect: ``yield charge(domain, event, cycles)``.

:class:`Charge` is the engine's one time-burning effect.  It carries a
:class:`~repro.obs.domains.CostDomain` and a short event name, which the
engine records into its per-thread, per-domain
:class:`~repro.obs.ledger.Ledger` as the effect is interpreted.

Kernel layers outside ``repro/sim`` and ``repro/obs`` must charge time
through this API.  The engine's ``Compute(cycles)`` is only a shorthand
for ``Charge(CostDomain.USERSPACE, "uncharged", cycles)``, reserved for
the engine itself, its tests, and truly unattributable compute.

Neither constructor checks its arguments: a charge is validated once,
where the engine books it (``Engine.run``'s charge block), and a
negative cycle count or a domain that is not a :class:`CostDomain`
raises :class:`~repro.errors.SimulationError` there, naming the thread,
before anything of that charge is booked or the clock moves.
"""

from __future__ import annotations

from repro.obs.domains import CostDomain


class Charge:
    """Effect: consume ``cycles`` of CPU time, attributed to a domain."""

    __slots__ = ("cycles", "domain", "event")

    def __init__(self, domain: CostDomain, event: str, cycles: float):
        self.domain = domain
        self.event = event
        self.cycles = cycles

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Charge({self.domain.value}/{self.event}, "
                f"{self.cycles:.0f})")


# The ergonomic yield helper: ``yield charge(domain, event, cycles)``.
# Bound straight to the class — building a Charge is the simulator's
# hottest allocation, and a forwarding frame would double its cost.
charge = Charge


class ChargeSpan:
    """Effect: several consecutive charges at one yield point.

    The engine interprets the entries one by one with exactly the
    arithmetic of separate :class:`Charge` yields — per-entry clock
    advance, per-entry interrupt-debt drain, per-entry ledger record —
    so merging is bit-identical *provided* the merged yields had no
    side-effecting kernel code between them (they form one atomic run
    on the thread).  Hot paths use this to collapse their charge
    bursts, cutting scheduler round-trips without moving a cycle.

    ``entries`` is a sequence of ``(domain, event, cycles)`` triples,
    kept as given (not copied), so it must not change once yielded.  The
    engine validates each entry as it books it, so a bad entry raises
    after the entries before it were paid, exactly as separate yields
    would.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = entries

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{d.value}/{e}:{c:.0f}"
                          for d, e, c in self.entries)
        return f"ChargeSpan({inner})"


# The yield helper for merged charge bursts: ``yield charge_span(
# [(domain, event, cycles), ...])``.  Bound to the class for the same
# reason as ``charge``.
charge_span = ChargeSpan
