"""Discrete-event simulation engine.

The engine executes *simulated threads* — Python generators that yield
effect objects (:class:`~repro.obs.Charge`,
:class:`~repro.sim.engine.Block`, ...) — against a global cycle clock.
Kernel code in the rest of the package is written as generator
functions composed with ``yield from``, so a single workload thread
transparently accumulates the cycle costs of every kernel path it
crosses and blocks on every contended lock it hits.
"""

from repro.sim.engine import (
    Block,
    Compute,
    Engine,
    SimThread,
    Wake,
)
from repro.sim.locks import Mutex, RWSemaphore, Spinlock
from repro.sim.stats import Stats

__all__ = [
    "Block",
    "Compute",
    "Engine",
    "Mutex",
    "RWSemaphore",
    "SimThread",
    "Spinlock",
    "Stats",
    "Wake",
]
