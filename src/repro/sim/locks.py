"""Simulated synchronisation primitives.

Contention is not a constant in this simulator: a thread that hits a
held lock genuinely blocks in the event loop and resumes only when the
holder releases, so lock hold times and arrival patterns — not a tuning
knob — determine scalability.  This is essential for reproducing the
paper's headline result that ``mmap_sem`` serialisation prevents DAX
memory-mapped access from scaling beyond a few cores (Figs. 1b, 8a).

All primitives charge a small uncontended cost and an extra cache-line
bounce when the lock word was last touched by a different core,
following the usual cost structure of spinlocks on cache-coherent x86.

Each lock keeps first-class wait-vs-hold accounting: cycles spent
blocked on the lock (``wait``, also attributed to the engine ledger's
``lock_wait`` domain) versus cycles the lock was actually held
(``hold``).  A contended lock with short holds and long waits is a
convoy; long holds point at the critical section itself — the
distinction Fig. 8a turns on.  Locks register themselves with their
engine so contention reports can enumerate them.

Every acquire/release is a generator to be driven with ``yield from``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.config import CostModel
from repro.errors import SimulationError
from repro.obs import CostDomain, charge
from repro.sim.engine import Block, Compute, Engine, SimThread, Wake

#: Zero-cost reschedule effect shared by every release path: the
#: engine only reads effects, and releases fire once per lock round.
_ZERO_COMPUTE = Compute(0.0)


class _LockBase:
    """Shared bookkeeping: the engine, costs, and bounce tracking."""

    def __init__(self, engine: Engine, costs: CostModel, name: str = ""):
        self.engine = engine
        self.costs = costs
        self.name = name or self.__class__.__name__
        #: Precomputed ledger event names — acquire fires per fault, so
        #: the f-string must not be rebuilt every time.  The two entry
        #: costs are hoisted for the same reason.
        self._acquire_event = f"{self.name}-acquire"
        self._blocked_event = f"{self.name}-blocked"
        self._uncontended_cost = costs.lock_uncontended
        self._bounce_cost = costs.lock_bounce
        #: The entry charge takes one of exactly two values (same-core
        #: re-entry or a cache-line bounce); both effects are pre-built
        #: and reused — the engine only reads effects, and the acquire
        #: charge fires once per page fault.
        self._entry_charge = charge(CostDomain.LOCK_WAIT,
                                    self._acquire_event,
                                    self._uncontended_cost)
        self._bounce_charge = charge(CostDomain.LOCK_WAIT,
                                     self._acquire_event,
                                     self._uncontended_cost
                                     + self._bounce_cost)
        self._last_core: Optional[int] = None
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.total_wait_cycles = 0.0
        self.hold_cycles = 0.0
        #: Name of the thread currently holding the lock (for readers,
        #: the most recent grantee as a representative).  Captured when
        #: a waiter blocks so its wait can be attributed to the holder
        #: that caused it.
        self._holder_name: Optional[str] = None
        #: ``(waiting_tenant, holding_tenant) -> cycles`` matrix, only
        #: populated when an engine tenant resolver is installed.
        self.tenant_waits: Dict[Tuple[str, str], float] = {}
        engine.locks.append(self)

    def _current(self) -> SimThread:
        thread = self.engine.current
        if thread is None:
            raise SimulationError(f"{self.name}: no current thread")
        return thread

    def _entry_effect(self, thread: SimThread):
        """The pre-built entry charge for this acquire (and the bounce
        bookkeeping that goes with choosing it)."""
        core = thread.core.index
        last = self._last_core
        self._last_core = core
        if last is not None and last != core:
            return self._bounce_charge
        return self._entry_charge

    def _record_wait(self, thread: SimThread, waited: float,
                     blocker: Optional[str] = None) -> None:
        """Book blocked time both locally and in the engine ledger.

        Blocked time never passes through a ``Charge`` effect (the
        thread is suspended, not computing), so the lock attributes it
        to the ``lock_wait`` domain directly.

        ``blocker`` is the holder's thread name captured when the
        waiter blocked.  Under an active tenancy runtime (the engine
        carries a ``tenant_resolver``) the wait is additionally booked
        against the *waiting* tenant's ledger view in the ``tenancy``
        domain with the holding tenant named in the event — so a
        tenant stalled behind another tenant's writer shows up in that
        tenant's breakdown instead of vanishing into a global lock
        total.  Un-tenanted runs record nothing extra (bit-identical).
        """
        self.total_wait_cycles += waited
        ledger = self.engine.ledger
        ledger.record(thread.name, CostDomain.LOCK_WAIT,
                      self._blocked_event, waited)
        resolver = self.engine.tenant_resolver
        if resolver is None:
            return
        waiter_tenant = resolver(thread.name)
        if waiter_tenant is None:
            return
        holder_tenant = resolver(blocker) if blocker else None
        holder_label = holder_tenant or blocker or "unknown"
        key = (waiter_tenant, holder_label)
        self.tenant_waits[key] = self.tenant_waits.get(key, 0.0) + waited
        ledger.record(thread.name, CostDomain.TENANCY,
                      f"{self.name}-blocked-by:{holder_label}", waited)

    @property
    def contention_ratio(self) -> float:
        if not self.acquisitions:
            return 0.0
        return self.contended_acquisitions / self.acquisitions

    def report(self) -> Dict[str, float]:
        """Wait-vs-hold summary for contention reports (Fig. 8a)."""
        out = {
            "name": self.name,
            "kind": self.__class__.__name__,
            "acquisitions": self.acquisitions,
            "contended": self.contended_acquisitions,
            "contention_ratio": self.contention_ratio,
            "wait_cycles": self.total_wait_cycles,
            "hold_cycles": self.hold_cycles,
        }
        if self.tenant_waits:
            out["tenant_waits"] = {
                f"{waiter}<-{holder}": cycles
                for (waiter, holder), cycles
                in sorted(self.tenant_waits.items())}
        return out


class Spinlock(_LockBase):
    """A FIFO ticket spinlock."""

    def __init__(self, engine: Engine, costs: CostModel, name: str = ""):
        super().__init__(engine, costs, name)
        self._held = False
        self._held_since = 0.0
        self._waiters: Deque[SimThread] = deque()

    def acquire(self):
        thread = self._current()
        yield self._entry_effect(thread)
        self.acquisitions += 1
        if not self._held:
            self._held = True
            self._held_since = self.engine.now
            self._holder_name = thread.name
            return
        self.contended_acquisitions += 1
        start = self.engine.now
        blocker = self._holder_name
        self._waiters.append(thread)
        yield Block()
        self._record_wait(thread, self.engine.now - start, blocker)
        self._holder_name = thread.name

    def release(self):
        if not self._held:
            raise SimulationError(f"{self.name}: release while unlocked")
        self.hold_cycles += self.engine.now - self._held_since
        if self._waiters:
            # Hand the lock directly to the next waiter (ticket order);
            # the handoff pays a cache-line transfer.  The new hold
            # starts at the handoff, so handoff latency counts as wait,
            # not hold.
            waiter = self._waiters.popleft()
            self._held_since = self.engine.now + self.costs.lock_bounce
            yield Wake(waiter, delay=self.costs.lock_bounce)
        else:
            self._held = False
            self._holder_name = None
        yield _ZERO_COMPUTE

    @property
    def held(self) -> bool:
        return self._held


class Mutex(Spinlock):
    """Blocking mutex; same DES behaviour as the spinlock model.

    (In a DES there is no busy-wait cost distinction to capture, so the
    mutex shares the ticket-lock implementation but is kept as its own
    type for intent at call sites.)
    """


class RWSemaphore(_LockBase):
    """A writer-fair reader/writer semaphore (Linux rwsem model).

    Readers share; writers are exclusive.  A waiting writer blocks new
    readers (writer fairness), which matches Linux's rwsem behaviour
    closely enough for the contention patterns in the paper: frequent
    short write-mode acquisitions (mmap/munmap) starve and serialise
    everything else on the semaphore.
    """

    READ = "read"
    WRITE = "write"

    def __init__(self, engine: Engine, costs: CostModel, name: str = ""):
        super().__init__(engine, costs, name)
        self._active_readers = 0
        self._writer_active = False
        self._queue: Deque[Tuple[SimThread, str]] = deque()
        self.read_acquisitions = 0
        self.write_acquisitions = 0
        self.read_wait_cycles = 0.0
        self.write_wait_cycles = 0.0
        self.read_hold_cycles = 0.0
        self.write_hold_cycles = 0.0
        self._write_since = 0.0
        self._read_since = 0.0

    # -- acquisition -------------------------------------------------------
    def _can_grant(self, kind: str) -> bool:
        if kind == RWSemaphore.WRITE:
            return not self._writer_active and self._active_readers == 0
        # Readers: only if no writer holds it and no writer is queued.
        if self._writer_active:
            return False
        for _t, k in self._queue:
            if k == RWSemaphore.WRITE:
                return False
        return True

    def _grant(self, kind: str, at: Optional[float] = None,
               thread: Optional[SimThread] = None) -> None:
        """Record a grant starting at ``at`` (default: now).

        A contended handoff wakes the waiter ``lock_bounce`` cycles
        after the release (the lock word must travel to the waiter's
        core), so the new hold starts at the wake, not the release —
        the bounce belongs to the waiter's *wait*, which already spans
        it, exactly as :meth:`Spinlock.release` accounts it.
        """
        now = self.engine.now if at is None else at
        if kind == RWSemaphore.WRITE:
            self._writer_active = True
            self._write_since = now
            self.write_acquisitions += 1
        else:
            if self._active_readers == 0:
                # Reader hold time is the span any reader holds the
                # semaphore (overlapping readers count once).
                self._read_since = now
            self._active_readers += 1
            self.read_acquisitions += 1
        if thread is not None:
            self._holder_name = thread.name

    def _acquire(self, kind: str):
        thread = self._current()
        yield self._entry_effect(thread)
        self.acquisitions += 1
        if self._can_grant(kind):
            self._grant(kind, thread=thread)
            return
        self.contended_acquisitions += 1
        start = self.engine.now
        blocker = self._holder_name
        self._queue.append((thread, kind))
        yield Block()
        waited = self.engine.now - start
        self._record_wait(thread, waited, blocker)
        if kind == RWSemaphore.WRITE:
            self.write_wait_cycles += waited
        else:
            self.read_wait_cycles += waited
        # The releaser performed the grant on our behalf.

    def acquire_read(self):
        # Returns the generator directly (no wrapping frame): callers
        # drive it with ``yield from``, and every frame in that chain
        # is traversed again on each of the fault path's resumptions.
        return self._acquire(RWSemaphore.READ)

    def acquire_write(self):
        return self._acquire(RWSemaphore.WRITE)

    # -- release -----------------------------------------------------------
    def _wake_eligible(self):
        """Grant to queued threads now allowed to run, FIFO order."""
        handoff = self.engine.now + self.costs.lock_bounce
        while self._queue:
            thread, kind = self._queue[0]
            if kind == RWSemaphore.WRITE:
                if self._writer_active or self._active_readers:
                    break
                self._queue.popleft()
                self._grant(kind, at=handoff, thread=thread)
                yield Wake(thread, delay=self.costs.lock_bounce)
                break  # writer is exclusive
            # Reader at head: admit it and any consecutive readers.
            if self._writer_active:
                break
            self._queue.popleft()
            self._grant(kind, at=handoff, thread=thread)
            yield Wake(thread, delay=self.costs.lock_bounce)

    def release_read(self):
        if self._active_readers <= 0:
            raise SimulationError(f"{self.name}: read release underflow")
        self._active_readers -= 1
        if self._active_readers == 0:
            held = self.engine.now - self._read_since
            self.read_hold_cycles += held
            self.hold_cycles += held
        if self._queue:
            yield from self._wake_eligible()
        if not self._writer_active and self._active_readers == 0:
            self._holder_name = None
        yield _ZERO_COMPUTE

    def release_write(self):
        if not self._writer_active:
            raise SimulationError(f"{self.name}: write release underflow")
        self._writer_active = False
        held = self.engine.now - self._write_since
        self.write_hold_cycles += held
        self.hold_cycles += held
        if self._queue:
            yield from self._wake_eligible()
        if not self._writer_active and self._active_readers == 0:
            self._holder_name = None
        yield _ZERO_COMPUTE

    def report(self) -> Dict[str, float]:
        out = super().report()
        out.update({
            "read_acquisitions": self.read_acquisitions,
            "write_acquisitions": self.write_acquisitions,
            "read_wait_cycles": self.read_wait_cycles,
            "write_wait_cycles": self.write_wait_cycles,
            "read_hold_cycles": self.read_hold_cycles,
            "write_hold_cycles": self.write_hold_cycles,
        })
        return out

    @property
    def writer_active(self) -> bool:
        return self._writer_active

    @property
    def active_readers(self) -> int:
        return self._active_readers
