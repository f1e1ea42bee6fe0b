"""The discrete-event engine: simulated time, threads, cores, effects.

Simulated threads are Python generators.  A thread yields *effects*;
the engine interprets each effect, advances the global clock, and
resumes the generator with the effect's result.  The effects:

``Charge(domain, event, cycles)``
    Burn CPU time.  The thread resumes ``cycles`` later, booked to
    ``domain``/``event`` in the engine's :class:`Ledger` (kernel layers
    yield it as ``repro.obs.charge(domain, event, cycles)``).  Any
    interrupt cycles stolen from the thread's core (e.g. by
    TLB-shootdown IPIs) are added on top and booked to the interrupting
    source, which is how remote-core interference appears in measured
    throughput.  ``Compute(cycles)`` builds the unattributed variant,
    a ``Charge`` under ``userspace/uncharged``, reserved for the
    engine's own tests and the lock primitives.

``ChargeSpan(entries)``
    Several consecutive charges delivered at one yield point (see
    ``repro.obs.charge_span``).  Each entry is one event priced exactly
    like a separate ``Charge`` yield, so hot kernel paths can collapse
    adjacent charges without changing a cycle.

``Block()``
    Suspend until another thread wakes this one via ``Wake``.  Used by
    the lock implementations.

``Wake(thread, delay=0.0)``
    Schedule ``thread`` (which must be blocked) to resume ``delay``
    cycles from now; its ``Block()`` yield returns ``None``.  A wake
    carries no payload, only the resumption.  The target stays blocked
    until the wake *delivers*, so a second waker racing within the
    delay window queues deterministically instead of failing; a wake
    delivered to a thread that already resumed is banked (the thread
    keeps a count) and satisfies its next ``Block()`` immediately.

A running thread starts another with :meth:`Engine.spawn`, a plain
call rather than an effect.

The engine is deliberately sequential and deterministic: ties are
broken by a monotone sequence number, so a given workload always
produces the same schedule and the same measured cycle counts.

Fast-forward: after a charge, the thread that paid it keeps running in
place, without a heap round-trip, whenever it would be the next event
anyway — the heap is empty or its earliest entry lies strictly later
(see :meth:`Engine.run` and DESIGN §12).  Each skipped round-trip still
counts as one event and every clock float is the one the heap would
have produced, so ``fast_forward=False``, which sends every charge
through the heap, is the reference the ``engine`` golden gate
(:mod:`repro.analysis.goldens`) compares byte-for-byte.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from collections import deque
from typing import Any, Generator, Iterable, Optional

from repro.errors import DeadlockError, SimulationError
from repro.obs import Charge, ChargeSpan, CostDomain, Ledger

KernelGen = Generator[Any, Any, Any]


def Compute(cycles: float) -> Charge:
    """Effect: consume ``cycles`` of unattributed CPU time, booked
    under ``userspace/uncharged``."""
    if cycles < 0:
        raise SimulationError(f"negative compute time: {cycles}")
    return Charge(CostDomain.USERSPACE, "uncharged", cycles)


def _refused(thread: str, domain, event: str,
             cycles: float) -> SimulationError:
    """The error for a charge the engine will not book: a domain that
    is not a :class:`CostDomain`, or a cycle count that is negative or
    NaN."""
    if domain.__class__ is not CostDomain:
        return SimulationError(
            f"thread {thread}: charge {domain!r}/{event} needs a "
            f"CostDomain")
    return SimulationError(
        f"thread {thread}: charge for {domain.value}/{event} needs a "
        f"non-negative cycle count, got {cycles}")


class Block:
    """Effect: suspend the thread until a matching :class:`Wake`."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Block()"


class Wake:
    """Effect: resume a blocked thread ``delay`` cycles from now."""

    __slots__ = ("thread", "delay")

    def __init__(self, thread: "SimThread", delay: float = 0.0):
        self.thread = thread
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Wake({self.thread.name}, delay={self.delay})"


class _WakeToken:
    """In-flight wake: heap payload between Wake issue and delivery.

    The target stays BLOCKED while its token is in flight, so a second
    waker inside the delay window queues another token instead of
    tripping the issue-time state check."""

    __slots__ = ("thread",)

    def __init__(self, thread: "SimThread"):
        self.thread = thread


class Core:
    """A CPU core: tracks its NUMA node and the stolen-cycle debt
    charged by interrupts, attributed per interrupting source."""

    __slots__ = ("index", "node", "stolen_cycles", "total_interrupts",
                 "_debts")

    def __init__(self, index: int, node: int = 0):
        self.index = index
        self.node = node
        self.stolen_cycles = 0.0
        self.total_interrupts = 0
        #: FIFO of ``[cycles, domain, event]`` debts — drained oldest
        #: first, so a drain attributes its cycles to whichever
        #: interrupts actually ran first.
        self._debts: deque = deque()

    def interrupt(self, cycles: float,
                  domain: CostDomain = CostDomain.TLB_SHOOTDOWN,
                  event: str = "ipi-stolen") -> None:
        """Charge an interrupt handler to whatever runs here next,
        attributed to the interrupting ``domain``/``event``."""
        self.stolen_cycles += cycles
        self.total_interrupts += 1
        debts = self._debts
        if debts and debts[-1][1] is domain and debts[-1][2] == event:
            debts[-1][0] += cycles
        else:
            debts.append([cycles, domain, event])

    def drain_attributed(self, compute_cycles: float = float("inf")):
        """Absorb pending interrupt debt, proportionally to the
        computation being charged; returns ``(total, entries)`` where
        ``entries`` is ``[(domain, event, cycles), ...]`` FIFO.

        Interrupts arrive at random points in real time, so a long
        computation absorbs its full share while a short critical
        section is only stretched modestly — without this bound, debt
        would pile onto whatever tiny lock-held compute runs next and
        manufacture convoys that do not exist on real hardware.

        The drained *total* is computed from the scalar running debt
        exactly as it always was (``min(stolen_cycles, limit)``); the
        per-source split only feeds ledger attribution, and a drain
        that touches a single source reports the scalar total verbatim
        so single-source schedules stay bit-identical.
        """
        limit = compute_cycles + 1000.0
        total = min(self.stolen_cycles, limit)
        if total == 0.0:
            return 0.0, ()
        debts = self._debts
        if len(debts) == 1:
            # Common case — one source: the scalar total is its whole
            # attribution, and only the bucket's residue needs keeping.
            head = debts[0]
            if total == self.stolen_cycles:
                self.stolen_cycles = 0.0
                debts.clear()
            else:
                self.stolen_cycles -= total
                if head[0] <= total:
                    debts.clear()
                else:
                    head[0] -= total
            return total, ((head[1], head[2], total),)
        self.stolen_cycles -= total
        entries = []
        remaining = total
        while debts and remaining > 0.0:
            head = debts[0]
            if head[0] <= remaining:
                debts.popleft()
                take, domain, event = head
                remaining -= take
            else:
                take = remaining
                head[0] -= take
                domain, event = head[1], head[2]
                remaining = 0.0
            if entries and entries[-1][0] is domain \
                    and entries[-1][1] == event:
                entries[-1][2] += take
            else:
                entries.append([domain, event, take])
        if self.stolen_cycles == 0.0:
            # Per-source residues can drift from the scalar total by a
            # rounding ulp; a fully-paid core must owe nothing.
            debts.clear()
        if len(entries) == 1:
            # Single attribution bucket: report the scalar total, not
            # the per-source re-summation (identical as reals, not
            # always as floats).
            entries[0][2] = total
        return total, [(d, e, c) for d, e, c in entries]


class SimThread:
    """A simulated thread: a generator plus scheduling state."""

    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    FINISHED = "finished"

    def __init__(self, engine: "Engine", gen: KernelGen, core: Core,
                 name: str, daemon: bool):
        self.engine = engine
        self.gen = gen
        self.core = core
        self.name = name
        self.daemon = daemon
        self.state = SimThread.RUNNABLE
        self.started_at = engine.now
        self.finished_at: Optional[float] = None
        self.result: Any = None
        #: Tenant this thread is accounted to (a name string), set by
        #: the repro.tenancy runtime; ``None`` for un-tenanted threads.
        self.tenant: Optional[str] = None
        #: cgroup-style ``limits.cpu`` enforcement: an object with a
        #: ``stretch(cycles) -> extra`` method and an ``event`` label
        #: (repro.tenancy.CpuThrottle, duck-typed).  Every charge is
        #: stretched by ``extra`` cycles booked to the ``tenancy``
        #: domain; ``None`` (the default) leaves scheduling untouched.
        self.cpu_throttle = None
        #: Wakes that arrived while this thread was not blocked
        #: (racing wakers); each satisfies one future ``Block()``.
        self._pending_wakes = 0
        #: The :class:`ChargeSpan` entries of a span this thread was
        #: pushed in the middle of (one event per entry), the index of
        #: the next one and the span's length; ``None`` otherwise.
        #: While the thread runs in place, ``Engine.run`` holds the
        #: span in locals.
        self._span_entries = None
        self._span_index = 0
        self._span_end = 0

    @property
    def finished(self) -> bool:
        return self.state == SimThread.FINISHED

    @property
    def runtime(self) -> float:
        """Cycles between start and finish (finish required)."""
        if self.finished_at is None:
            raise SimulationError(f"thread {self.name} still running")
        return self.finished_at - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimThread {self.name} {self.state} core={self.core.index}>"


class Engine:
    """Deterministic discrete-event executor for simulated threads."""

    def __init__(self, num_cores: int = 16, topology=None,
                 freq_hz: float = 2.7e9,
                 fast_forward: bool = True):
        self.now = 0.0
        # ``topology`` (a repro.topology.MachineTopology, duck-typed to
        # avoid an import cycle) pins each core to its socket; without
        # one, every core sits on node 0 as before.
        self.cores = [Core(i, topology.node_of_core(i) if topology
                           else 0) for i in range(num_cores)]
        #: Clock frequency used by :meth:`seconds`; ``System`` passes
        #: its cost model's ``MachineConfig.freq_hz`` through.
        self.freq_hz = freq_hz
        self.fast_forward = fast_forward
        self._heap: list = []
        self._seq = itertools.count()
        self.threads: list[SimThread] = []
        #: The thread currently being stepped (valid inside kernel code).
        self.current: Optional[SimThread] = None
        self._live_foreground = 0
        self._next_core = 0
        self.events_processed = 0
        #: Per-thread, per-domain cycle attribution (see repro.obs).
        self.ledger = Ledger()
        #: Every lock constructed against this engine registers itself
        #: here so contention reports can enumerate them.
        self.locks: list = []
        #: Optional ``thread_name -> tenant_name`` callable installed
        #: by an active repro.tenancy runtime; locks consult it to
        #: attribute cross-tenant waits.  ``None`` = un-tenanted.
        self.tenant_resolver = None

    # -- thread management ------------------------------------------------
    def spawn(self, gen: KernelGen, core: Optional[int] = None,
              name: str = "", daemon: bool = False) -> SimThread:
        """Register a generator as a new runnable thread."""
        if core is None:
            core = self._next_core % len(self.cores)
            self._next_core += 1
        if not 0 <= core < len(self.cores):
            raise SimulationError(f"core {core} out of range")
        thread = SimThread(self, gen, self.cores[core],
                           name or f"thread-{len(self.threads)}", daemon)
        self.threads.append(thread)
        if not daemon:
            self._live_foreground += 1
        self._schedule(thread, 0.0)
        return thread

    def _schedule(self, thread: SimThread, delay: float) -> None:
        heappush(self._heap,
                 (self.now + delay, next(self._seq), thread))

    def _finish(self, thread: SimThread, result: Any) -> None:
        thread.state = SimThread.FINISHED
        thread.finished_at = self.now
        thread.result = result
        if not thread.daemon:
            self._live_foreground -= 1

    # -- effect interpretation --------------------------------------------
    def _interpret(self, thread: SimThread, effect) -> None:
        """Interpret a scheduling effect (anything but a charge)."""
        cls = effect.__class__
        if cls is Block:
            if thread._pending_wakes:
                # A racing waker already banked a credit for us: the
                # block is satisfied immediately and deterministically.
                thread._pending_wakes -= 1
                self._schedule(thread, 0.0)
            else:
                thread.state = SimThread.BLOCKED
        elif cls is Wake:
            target = effect.thread
            if target.state != SimThread.BLOCKED:
                raise SimulationError(
                    f"Wake({target.name}): thread is {target.state}")
            # The target stays BLOCKED until the token delivers, so
            # further wakers inside the delay window queue behind it.
            heappush(self._heap,
                     (self.now + effect.delay, next(self._seq),
                      _WakeToken(target)))
            self._schedule(thread, 0.0)
        elif cls is ChargeSpan:
            # An empty span: a zero-cost scheduling point.
            self._schedule(thread, 0.0)
        else:
            raise SimulationError(f"unknown effect {effect!r} "
                                  f"from thread {thread.name}")

    # -- main loop ---------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> float:
        """Run until all foreground threads finish; returns final time.

        Daemon threads (e.g. the DaxVM pre-zeroing kthread) do not keep
        the simulation alive: once every foreground thread has
        finished, remaining events are discarded.  ``max_events``
        budgets *this call* — repeated phases (crash recovery, fault
        repair) each get their full budget.

        A popped thread runs in place, one event per charge or span
        entry, for as long as it stays the earliest event: with
        ``fast_forward`` it skips the heap while ``after`` is strictly
        before the heap's head, which is exactly when a push would pop
        it straight back (ties go to the older sequence number).
        """
        limit = max_events if max_events is not None else float("inf")
        heap = self._heap
        fast_forward = self.fast_forward
        ledger = self.ledger
        domains = ledger._domains
        events = ledger._events
        threads = ledger._threads
        seq = self._seq
        # Events run and charges booked by this call, added to
        # ``events_processed`` and ``ledger.records`` when it returns or
        # raises (a nested run on another engine keeps its own counts).
        processed = 0
        records = 0
        try:
            while heap and self._live_foreground > 0:
                if processed >= limit:
                    raise SimulationError(
                        f"event budget {max_events} exhausted at "
                        f"t={self.now}")
                when, _seq, item = heappop(heap)
                if item.__class__ is _WakeToken:
                    thread = item.thread
                    state = thread.state
                    if state == SimThread.BLOCKED:
                        thread.state = SimThread.RUNNABLE
                    elif state == SimThread.FINISHED:
                        continue
                    else:
                        # The target already resumed (racing wakers):
                        # bank the credit for its next Block().
                        thread._pending_wakes += 1
                        continue
                else:
                    thread = item
                    if thread.state != SimThread.RUNNABLE:
                        # Stale entry: a finished thread's leftovers,
                        # or a thread that blocked after this event was
                        # queued (the wake token will resume it).
                        continue
                self.now = when
                processed += 1
                self.current = thread
                name = thread.name
                # The thread's ledger row, looked up at its first
                # booking: a thread that books nothing gets no row.
                row = None
                core = thread.core
                send = thread.gen.send
                # The span being paid lives in locals while the thread
                # runs in place; a thread pushed mid-span left it on
                # itself, and resumes at its next entry.
                span = thread._span_entries
                if span is not None:
                    thread._span_entries = None
                    index = thread._span_index
                    end = thread._span_end
                while True:
                    if span is not None:
                        # Mid-span: the span's next entry is this event.
                        domain, event, cycles = span[index]
                        index += 1
                        if index == end:
                            span = None
                    else:
                        try:
                            effect = send(None)
                        except StopIteration as stop:
                            self._finish(thread, stop.value)
                            break
                        cls = effect.__class__
                        if cls is Charge:
                            domain = effect.domain
                            event = effect.event
                            cycles = effect.cycles
                        elif cls is ChargeSpan and effect.entries:
                            span = effect.entries
                            end = len(span)
                            domain, event, cycles = span[0]
                            if end > 1:
                                index = 1
                            else:
                                span = None
                        else:
                            self._interpret(thread, effect)
                            break
                    # The one charge routine: validate and book the
                    # charge, then the interrupt debt it absorbs (owned
                    # by the interrupting source), then the tenancy
                    # throttle's stretch.  A charge is validated here
                    # and nowhere else: a positive count is booked
                    # after one compare, and a domain is checked when
                    # its (domain, event) key is first booked
                    # (``_EventTotals``).  Any other count books
                    # nothing: a zero passes after one class test of
                    # its domain, a negative or NaN one is refused.
                    # Either way a bad charge raises before any of it
                    # is booked.
                    if cycles > 0.0:
                        try:
                            events[(domain, event)] += cycles
                        except SimulationError:
                            raise _refused(name, domain, event,
                                           cycles) from None
                        domains[domain] += cycles
                        if row is None:
                            row = threads[name]
                        row[domain] += cycles
                        records += 1
                    elif cycles != 0.0 or domain.__class__ is not CostDomain:
                        raise _refused(name, domain, event, cycles)
                    if core.stolen_cycles:
                        stolen, stolen_entries = core.drain_attributed(
                            cycles)
                        # ``Ledger.record``'s rules, inline: a zero
                        # entry books nothing, every other counts one
                        # record.
                        for sdomain, sevent, took in stolen_entries:
                            if took != 0.0:
                                events[(sdomain, sevent)] += took
                                domains[sdomain] += took
                                if row is None:
                                    row = threads[name]
                                row[sdomain] += took
                                records += 1
                        after = self.now + cycles + stolen
                    else:
                        # Nothing stolen: adding 0.0 is the identity on
                        # a clock that is never -0.0.
                        after = self.now + cycles
                    throttle = thread.cpu_throttle
                    if throttle is not None:
                        extra = throttle.stretch(cycles)
                        if extra > 0.0:
                            ledger.record(name, CostDomain.TENANCY,
                                          throttle.event, extra)
                            after += extra
                    if (fast_forward and (not heap or after < heap[0][0])
                            and processed < limit):
                        # The push would pop this thread straight back.
                        self.now = after
                        processed += 1
                        continue
                    if span is not None:
                        thread._span_entries = span
                        thread._span_index = index
                        thread._span_end = end
                    heappush(heap, (after, next(seq), thread))
                    break
        finally:
            self.events_processed += processed
            ledger.records += records
        if self._live_foreground > 0:
            blocked = [t.name for t in self.threads
                       if t.state == SimThread.BLOCKED and not t.daemon]
            raise DeadlockError(
                f"{self._live_foreground} foreground thread(s) blocked "
                f"forever: {blocked}")
        return self.now

    def reap_crashed(self) -> None:
        """Retire the thread whose generator raised out of :meth:`run`.

        An exception escaping a kernel path (a simulated SIGBUS, say)
        leaves the raising thread mid-step: still counted as live
        foreground, so a later :meth:`run` would diagnose a deadlock.
        Callers that catch the exception and keep using the simulation
        (the media-fault injector's repair phase) retire the crashed
        thread here first: the one that was being stepped when the
        exception escaped.
        """
        thread = self.current
        if thread is None or thread.state == SimThread.FINISHED:
            return
        thread.state = SimThread.FINISHED
        thread.finished_at = self.now
        if not thread.daemon:
            self._live_foreground -= 1

    # -- helpers for cross-core interference -------------------------------
    def interrupt_cores(self, core_indices: Iterable[int],
                        cycles: float,
                        domain: CostDomain = CostDomain.TLB_SHOOTDOWN,
                        event: str = "ipi-stolen") -> int:
        """Charge an interrupt handler to each listed core; returns
        count.  ``domain``/``event`` say who the stolen cycles belong
        to when a victim's next compute absorbs them (TLB-shootdown
        IPIs by default; media-stall broadcasts pass their own)."""
        count = 0
        for idx in core_indices:
            self.cores[idx].interrupt(cycles, domain, event)
            count += 1
        return count

    def broadcast_interrupt(self, cycles: float, domain: CostDomain,
                            event: str,
                            only: Optional[Iterable["SimThread"]] = None,
                            ) -> int:
        """Interrupt every core running another live non-daemon
        thread; returns the victim count.

        Device-wide events — a media-stall window freezing the DIMM,
        say — hit everyone touching the device, not just the thread
        that tripped them.  The caller's own core is exempt (it pays
        the cost in-line through its ``Charge``).  ``only`` restricts
        the blast radius to the listed threads' cores — a hypervisor
        pausing one guest freezes that guest's vCPUs, not the host —
        and ``None`` (the default) keeps the device-wide behaviour."""
        current = self.current
        skip = current.core.index if current is not None else -1
        pool = self.threads if only is None else only
        victims = {thread.core.index for thread in pool
                   if not thread.daemon
                   and thread.state != SimThread.FINISHED}
        victims.discard(skip)
        return self.interrupt_cores(sorted(victims), cycles,
                                    domain=domain, event=event)

    def seconds(self) -> float:
        """The current time in seconds at the engine's clock."""
        return self.now / self.freq_hz
