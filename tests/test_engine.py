"""Unit tests for the discrete-event engine."""

import functools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.obs import CostDomain, charge
from repro.sim.engine import Block, Compute, Core, Engine, Wake


def test_compute_advances_clock():
    engine = Engine(2)

    def worker():
        yield Compute(100)
        yield Compute(50)
        return "done"

    thread = engine.spawn(worker())
    final = engine.run()
    assert final == 150
    assert thread.result == "done"
    assert thread.finished
    assert thread.runtime == 150


def test_zero_compute_is_allowed():
    engine = Engine(1)

    def worker():
        yield Compute(0)

    engine.spawn(worker())
    assert engine.run() == 0


def test_negative_compute_rejected():
    with pytest.raises(SimulationError):
        Compute(-1)


def test_threads_interleave_by_time():
    engine = Engine(2)
    order = []

    def worker(name, step):
        for _ in range(3):
            yield Compute(step)
            order.append((name, engine.now))

    engine.spawn(worker("fast", 10), core=0)
    engine.spawn(worker("slow", 25), core=1)
    engine.run()
    assert order == [("fast", 10), ("fast", 20), ("slow", 25),
                     ("fast", 30), ("slow", 50), ("slow", 75)]


def test_block_and_wake():
    engine = Engine(2)
    events = []

    def sleeper():
        value = yield Block()
        events.append(("woke", engine.now, value))

    def waker(target):
        yield Compute(500)
        yield Wake(target, delay=20)
        events.append(("waker-done", engine.now))

    t1 = engine.spawn(sleeper())
    engine.spawn(waker(t1))
    engine.run()
    assert ("woke", 520, None) in events


def test_wake_non_blocked_thread_fails():
    engine = Engine(2)

    def runner():
        yield Compute(10)
        yield Compute(10)

    def bad_waker(target):
        yield Wake(target)

    target = engine.spawn(runner())
    engine.spawn(bad_waker(target))
    with pytest.raises(SimulationError):
        engine.run()


def test_spawn_mid_run_returns_child():
    """A running thread starts another with ``engine.spawn``."""
    engine = Engine(2)
    seen = {}

    def child():
        yield Compute(5)
        return 42

    def parent():
        seen["child"] = engine.spawn(child(), name="kid")
        yield Compute(1)

    engine.spawn(parent())
    engine.run()
    assert seen["child"].result == 42


def test_deadlock_detection():
    engine = Engine(1)

    def stuck():
        yield Block()

    engine.spawn(stuck())
    with pytest.raises(DeadlockError):
        engine.run()


def test_daemon_does_not_keep_engine_alive():
    engine = Engine(2)
    ticks = []

    def daemon():
        while True:
            yield Compute(10)
            ticks.append(engine.now)

    def fg():
        yield Compute(35)

    engine.spawn(daemon(), daemon=True)
    engine.spawn(fg())
    engine.run()
    assert engine.now == 35
    assert len(ticks) <= 4


def test_interrupt_steals_cycles():
    engine = Engine(2)

    def victim():
        yield Compute(100)
        yield Compute(100)

    thread = engine.spawn(victim(), core=1)
    engine.interrupt_cores([1], 40)
    engine.run()
    # First compute absorbs the 40-cycle interrupt.
    assert thread.finished_at == 240


def test_interrupt_debt_absorption_is_bounded():
    engine = Engine(2)
    times = []

    def victim():
        for _ in range(40):
            yield Compute(10)
            times.append(engine.now)

    engine.spawn(victim(), core=0)
    engine.cores[0].interrupt(50_000)
    engine.run()
    # A tiny compute must not absorb the entire 50k debt at once.
    assert times[0] <= 10 + (10 + 1000)
    # But the debt is eventually paid in full.
    assert times[-1] == pytest.approx(400 + 40 * 0 + 50_000, rel=0.3)


def test_determinism():
    def build():
        engine = Engine(4)

        def worker(i):
            for _ in range(5):
                yield Compute(7 * (i + 1))

        for i in range(4):
            engine.spawn(worker(i), core=i)
        return engine.run()

    assert build() == build()


def test_event_budget():
    engine = Engine(1)

    def spin():
        while True:
            yield Compute(1)

    engine.spawn(spin())
    with pytest.raises(SimulationError):
        engine.run(max_events=100)


def test_core_out_of_range():
    engine = Engine(2)

    def worker():
        yield Compute(1)

    with pytest.raises(SimulationError):
        engine.spawn(worker(), core=7)


def test_daemon_events_drain_at_shutdown():
    """Daemon events queued past the last foreground finish are
    discarded, and a re-entered run() is a no-op."""
    engine = Engine(2)
    ticks = []

    def daemon():
        while True:
            yield Compute(10)
            ticks.append(engine.now)

    def fg():
        yield Compute(25)

    engine.spawn(daemon(), daemon=True, core=0)
    engine.spawn(fg(), core=1)
    final = engine.run()
    assert final == 25
    assert all(t <= 25 for t in ticks)
    # The daemon's next event is still queued but must never execute:
    # no foreground work remains, so run() returns immediately.
    before = len(ticks)
    assert engine.run() == 25
    assert len(ticks) == before


def test_wake_already_runnable_thread_fails():
    """A second Wake racing the first must fail loudly, not double-
    schedule the sleeper."""
    engine = Engine(4)

    def sleeper():
        yield Block()
        yield Compute(1000)

    def waker(target, delay):
        yield Compute(delay)
        yield Wake(target)

    target = engine.spawn(sleeper())
    engine.spawn(waker(target, 10))
    engine.spawn(waker(target, 20))
    with pytest.raises(SimulationError):
        engine.run()


def test_wake_finished_thread_fails():
    engine = Engine(2)

    def quick():
        yield Compute(1)

    def late_waker(target):
        yield Compute(100)
        yield Wake(target)

    target = engine.spawn(quick())
    engine.spawn(late_waker(target))
    with pytest.raises(SimulationError):
        engine.run()


def test_equal_timestamp_tie_break_is_spawn_order():
    """Events at identical timestamps run in monotone sequence order
    (spawn order), so schedules are reproducible."""
    def build():
        engine = Engine(8)
        order = []

        def worker(i):
            yield Compute(10)
            order.append(i)
            yield Compute(10)
            order.append(i)

        for i in range(6):
            engine.spawn(worker(i), core=i)
        engine.run()
        return order

    first = build()
    assert first == [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]
    assert first == build()


def test_ledger_attributes_charges_and_uncharged_compute():
    engine = Engine(2)

    def worker():
        yield charge(CostDomain.ZEROING, "zero-fill", 300)
        yield Compute(100)

    engine.spawn(worker(), core=0)
    engine.run()
    assert engine.ledger.domain_total(CostDomain.ZEROING) == 300
    assert engine.ledger.domain_total(CostDomain.USERSPACE) == 100
    assert engine.ledger.event_total(CostDomain.USERSPACE,
                                     "uncharged") == 100
    assert engine.ledger.total() == 400


def test_ledger_books_stolen_cycles_as_shootdown():
    engine = Engine(2)

    def victim():
        yield charge(CostDomain.COPY, "memcpy", 100)

    engine.spawn(victim(), core=1)
    engine.interrupt_cores([1], 40)
    engine.run()
    assert engine.ledger.domain_total(CostDomain.COPY) == 100
    assert engine.ledger.event_total(CostDomain.TLB_SHOOTDOWN,
                                     "ipi-stolen") == 40
    assert engine.now == 140


def test_seconds_conversion():
    engine = Engine(1)

    def worker():
        yield Compute(2.7e9)

    engine.spawn(worker())
    engine.run()
    assert engine.seconds() == pytest.approx(1.0)


def test_seconds_uses_configured_frequency():
    """seconds() must follow the engine's freq_hz, not a hardcoded
    2.7 GHz (the historical bug)."""
    engine = Engine(1, freq_hz=1e9)

    def worker():
        yield Compute(1e9)

    engine.spawn(worker())
    engine.run()
    assert engine.seconds() == pytest.approx(1.0)


def test_system_threads_machine_frequency_into_engine():
    import dataclasses

    from repro.config import CostModel, MachineConfig
    from repro.system import System

    costs = CostModel()
    costs = dataclasses.replace(
        costs, machine=dataclasses.replace(costs.machine, freq_hz=1e9))
    system = System(costs=costs, device_bytes=1 << 30)
    assert system.engine.freq_hz == 1e9

    def worker():
        yield Compute(2e9)

    system.engine.spawn(worker())
    system.engine.run()
    assert system.engine.seconds() == pytest.approx(2.0)
    assert MachineConfig().freq_hz == 2.7e9  # default unchanged


def test_wake_race_within_delay_window_queues():
    """Two wakers inside the first wake's delay window: the target
    stays BLOCKED until delivery, so the second Wake queues instead of
    raising (the historical bug marked the target RUNNABLE at issue)."""
    engine = Engine(4)
    events = []

    def sleeper():
        yield Block()
        events.append(("woke", engine.now))
        yield Compute(100)
        yield Block()
        events.append(("woke", engine.now))

    def waker(target, at):
        yield Compute(at)
        yield Wake(target, delay=50)

    target = engine.spawn(sleeper())
    engine.spawn(waker(target, 10))
    engine.spawn(waker(target, 20))
    engine.run()
    # First token delivers at 60; the second fires at 70 while the
    # target is computing (until 160), is banked, and satisfies the
    # next Block() immediately.
    assert events == [("woke", 60), ("woke", 160)]


def test_wake_delivery_order_is_deterministic():
    """Same-deadline tokens deliver in issue order (seq tie-break):
    the sleeper spawned second, but woken first, runs first."""
    engine = Engine(4)
    got = []

    def sleeper(name):
        yield Block()
        got.append(name)

    def waker(first, second):
        yield Wake(first, delay=30)
        yield Wake(second, delay=30)

    a = engine.spawn(sleeper("a"))
    b = engine.spawn(sleeper("b"))
    engine.spawn(waker(b, a))
    engine.run()
    assert got == ["b", "a"]


def test_event_budget_is_per_call():
    """max_events budgets each run() call, not the engine lifetime
    (the historical bug compared the cumulative counter)."""
    engine = Engine(1)

    def phase():
        for _ in range(80):
            yield Compute(1)

    engine.spawn(phase())
    engine.run(max_events=100)
    assert engine.events_processed >= 80
    # A second phase gets its own 100-event budget; under the old
    # cumulative comparison this raised immediately.
    engine.spawn(phase())
    engine.run(max_events=100)


def test_event_budget_still_trips_within_one_call():
    engine = Engine(1)

    def spin():
        while True:
            yield Compute(1)

    engine.spawn(spin())
    with pytest.raises(SimulationError):
        engine.run(max_events=50)


def test_stolen_cycles_attributed_to_interrupting_source():
    """Mixed interrupt sources split FIFO into their own ledger
    buckets (the historical code booked everything to ipi-stolen)."""
    engine = Engine(2)

    def victim():
        yield charge(CostDomain.COPY, "memcpy", 100)

    engine.spawn(victim(), core=1)
    engine.interrupt_cores([1], 40)  # default: TLB shootdown IPI
    engine.cores[1].interrupt(25, domain=CostDomain.FAULTS,
                              event="stall-stolen")
    engine.run()
    assert engine.ledger.event_total(CostDomain.TLB_SHOOTDOWN,
                                     "ipi-stolen") == 40
    assert engine.ledger.event_total(CostDomain.FAULTS,
                                     "stall-stolen") == 25
    assert engine.now == 165


def test_stolen_attribution_respects_absorption_bound():
    """A bounded drain pays debts oldest-first; the remainder waits
    for the next charge."""
    engine = Engine(1)

    def victim():
        yield charge(CostDomain.COPY, "memcpy", 10)    # absorbs <= 1010
        yield charge(CostDomain.COPY, "memcpy", 1000)  # absorbs the rest

    engine.spawn(victim(), core=0)
    engine.cores[0].interrupt(600)
    engine.cores[0].interrupt(600, domain=CostDomain.FAULTS,
                              event="stall-stolen")
    engine.run()
    assert engine.ledger.event_total(CostDomain.TLB_SHOOTDOWN,
                                     "ipi-stolen") == 600
    assert engine.ledger.event_total(CostDomain.FAULTS,
                                     "stall-stolen") == 600
    assert engine.cores[0].stolen_cycles == 0.0


def test_broadcast_interrupt_spares_current_and_daemons():
    engine = Engine(4)

    def toucher():
        yield Compute(1)
        engine.broadcast_interrupt(50, CostDomain.FAULTS, "stall-stolen")
        yield Compute(1)

    def victim():
        yield Compute(5)
        yield Compute(200)  # absorbs the broadcast debt

    def daemon():
        while True:
            yield Compute(10)

    engine.spawn(toucher(), core=0)
    engine.spawn(victim(), core=1)
    engine.spawn(victim(), core=2)
    engine.spawn(daemon(), core=3, daemon=True)
    engine.run()
    assert engine.cores[0].total_interrupts == 0  # caller exempt
    assert engine.cores[3].total_interrupts == 0  # daemon exempt
    assert engine.ledger.event_total(CostDomain.FAULTS,
                                     "stall-stolen") == 100


def test_charge_span_matches_separate_charges():
    from repro.obs import charge_span

    entries = [(CostDomain.COPY, "data-access", 120.0),
               (CostDomain.NUMA, "remote-access", 30.0),
               (CostDomain.WALK, "tlb-walk", 7.5)]

    def spanned():
        yield charge_span(entries)

    def separate():
        for domain, event, cycles in entries:
            yield charge(domain, event, cycles)

    a = Engine(1)
    a.spawn(spanned(), core=0)
    a.run()
    b = Engine(1)
    b.spawn(separate(), core=0)
    b.run()
    assert a.now == b.now
    assert a.events_processed == b.events_processed
    assert a.ledger.to_state() == b.ledger.to_state()


def test_charge_span_validates_entries():
    """The engine checks each span entry as it books it: a bad entry
    raises, naming the thread and ``domain/event``, after the entries
    before it were paid (as separate yields would) and before any of
    its own cycles are booked or the clock moves past them."""
    from repro.obs import charge_span

    def refuse(entries):
        engine = Engine(1)

        def worker():
            yield charge_span(entries)

        engine.spawn(worker(), name="spanner")
        with pytest.raises(SimulationError) as err:
            engine.run()
        return engine, str(err.value)

    for bad, label in [(("copy", "data", 1.0), "'copy'/data"),
                       (("copy", "data", 0.0), "'copy'/data"),
                       ((CostDomain.COPY, "data", -1.0), "copy/data")]:
        engine, message = refuse([bad])
        assert "spanner" in message and label in message
        assert (engine.now, engine.ledger.records) == (0.0, 0)
        assert engine.ledger.total() == 0.0
        engine, message = refuse([(CostDomain.WALK, "tlb-walk", 4.0), bad])
        assert "spanner" in message and label in message
        assert (engine.now, engine.ledger.records) == (4.0, 1)
        assert engine.ledger.events() == {"walk/tlb-walk": 4.0}
    # An empty span is a zero-cost scheduling point, like Compute(0).
    engine = Engine(1)

    def worker():
        yield charge_span([])
        yield Compute(5)

    engine.spawn(worker())
    assert engine.run() == 5


def _lock_contention(engine):
    from repro.config import CostModel
    from repro.obs import charge_span
    from repro.sim.locks import Spinlock

    lock = Spinlock(engine, CostModel(), "t-lock")

    def worker(n):
        for i in range(20):
            yield charge(CostDomain.COPY, "memcpy", 10.0 * (n + i))
            yield from lock.acquire()
            yield charge(CostDomain.JOURNAL, "commit", 5.0)
            yield from lock.release()
            yield charge_span([(CostDomain.WALK, "tlb-walk", 3.0),
                               (CostDomain.NUMA, "remote", 2.0)])

    for n in range(3):
        engine.spawn(worker(n), core=n)


def _interrupting_sender(engine):
    # The sender leaves interrupt debt on core 0 and finishes; the
    # victim then runs alone and absorbs the debt on its next charge,
    # whose clock must be ``(now + cycles) + stolen`` on both paths.
    def victim():
        for cycles in (0.1, 0.2, 0.7):
            yield charge(CostDomain.COPY, "memcpy", cycles)

    def sender():
        engine.interrupt_cores([0], 0.3)
        yield charge(CostDomain.JOURNAL, "commit", 0.05)

    engine.spawn(victim(), core=0)
    engine.spawn(sender(), core=1)


def _partial_drains(engine):
    # One source, drained in part twice (each charge absorbs at most
    # ``cycles + 1000``) and then in full; then two sources, the first
    # drained in part.
    def victim():
        for cycles in (100.0, 0.3, 5000.0):
            yield charge(CostDomain.COPY, "memcpy", cycles)
        engine.interrupt_cores([0], 700.25)
        engine.cores[0].interrupt(900.5, domain=CostDomain.FAULTS,
                                  event="stolen")
        for cycles in (0.1, 0.7, 3000.0):
            yield charge(CostDomain.COPY, "memcpy", cycles)

    engine.interrupt_cores([0], 2500.1)
    engine.spawn(victim(), core=0)


def _reference_drain(self, compute_cycles=float("inf")):
    """``Core.drain_attributed`` without its single-source shortcuts:
    every drain that does not fully absorb one source walks the FIFO."""
    limit = compute_cycles + 1000.0
    total = min(self.stolen_cycles, limit)
    if total == 0.0:
        return 0.0, ()
    debts = self._debts
    if total == self.stolen_cycles and len(debts) == 1:
        head = debts[0]
        self.stolen_cycles = 0.0
        debts.clear()
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
        debts.clear()
    if len(entries) == 1:
        entries[0][2] = total
    return total, [(d, e, c) for d, e, c in entries]


def _run_program(engine, ops, share):
    """One thread of a generated program; returns the clock it saw
    after every yield."""
    from repro.obs import charge_span
    from repro.tenancy.controller import CpuThrottle

    me = engine.current
    if share is not None:
        me.cpu_throttle = CpuThrottle(share)
    seen = []
    for op in ops:
        kind = op[0]
        if kind == "charge":
            yield charge(CostDomain.COPY, "memcpy", op[1])
        elif kind == "span":
            yield charge_span([(CostDomain.WALK, "tlb-walk", c)
                               for c in op[1]])
        elif kind == "interrupt":
            _, core, cycles, domain = op
            engine.interrupt_cores([core % len(engine.cores)], cycles,
                                   domain=domain, event="stolen")
            continue
        elif kind == "sleep":
            # A helper wakes this thread ``delay`` cycles after its own
            # charge; the helper always runs after the Block below.
            _, pre, delay = op

            def waker(pre=pre, delay=delay):
                yield charge(CostDomain.JOURNAL, "commit", pre)
                yield Wake(me, delay)

            engine.spawn(waker(), core=me.core.index)
            yield charge_span(())
            assert (yield Block()) is None
        else:  # spawn, then a zero-cost scheduling point
            _, core, child_ops, child_share = op
            engine.spawn(_run_program(engine, child_ops, child_share),
                         core=core % len(engine.cores))
            yield charge_span(())
        seen.append(engine.now)
    return tuple(seen)


def _populate(programs, engine):
    for core, ops, share in programs:
        engine.spawn(_run_program(engine, ops, share),
                     core=core % len(engine.cores))


@st.composite
def _random_scenarios(draw):
    cycles = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1e16]),
                       st.floats(0.0, 5000.0))
    # Debts past a charge's ``cycles + 1000`` absorption bound are
    # drained in part.
    debt = st.one_of(cycles, st.floats(1000.0, 20000.0))
    share = st.one_of(st.none(), st.floats(0.05, 1.0))
    core = st.integers(0, 3)
    leaf = st.one_of(
        st.tuples(st.just("charge"), cycles),
        st.tuples(st.just("span"), st.lists(cycles, max_size=3)),
        st.tuples(st.just("interrupt"), core, debt,
                  st.sampled_from([CostDomain.TLB_SHOOTDOWN,
                                   CostDomain.FAULTS])),
        st.tuples(st.just("sleep"), cycles, cycles))
    op = st.one_of(leaf, st.tuples(st.just("spawn"), core,
                                   st.lists(leaf, max_size=5), share))
    programs = draw(st.lists(st.tuples(core, st.lists(op, max_size=8),
                                       share), min_size=1, max_size=4))
    return draw(st.integers(1, 4)), functools.partial(_populate, programs)


@settings(max_examples=150, deadline=None)
@given(case=_random_scenarios())
@example(case=(4, _lock_contention))
@example(case=(4, _interrupting_sender))
@example(case=(1, _partial_drains))
def test_fast_forward_off_matches_on(case):
    """Skipping the heap is exactly a push and re-pop: random effect
    programs give the same clocks, ledgers, event counts and thread
    outcomes whether every charge goes through the heap or not, and
    the drain's single-source shortcut books what the FIFO walk of
    :func:`_reference_drain` books."""
    num_cores, scenario = case

    def build(fast_forward):
        engine = Engine(num_cores, fast_forward=fast_forward)
        scenario(engine)
        engine.run()
        return (engine.now, engine.events_processed,
                engine.ledger.to_state(),
                [(t.name, t.finished_at, t.result) for t in engine.threads],
                [(c.stolen_cycles, list(c._debts)) for c in engine.cores])

    fast = build(True)
    assert fast == build(False)
    with mock.patch.object(Core, "drain_attributed", _reference_drain):
        assert fast == build(True)


@pytest.mark.parametrize("max_events", [4, 5, 6])
def test_budget_exhaustion_agrees_on_both_paths(max_events):
    """A budget that runs out right after a charge (4), inside a span
    (5) or right after one (6) raises at the same clock on both paths,
    and the run resumes from there to the same end."""
    from repro.obs import charge_span

    def build(fast_forward):
        engine = Engine(1, fast_forward=fast_forward)

        def worker():
            for _ in range(3):
                yield charge(CostDomain.COPY, "memcpy", 7.0)
                yield charge_span([(CostDomain.WALK, "tlb-walk", 3.0),
                                   (CostDomain.NUMA, "remote", 2.0)])
            return engine.now

        thread = engine.spawn(worker(), core=0)
        with pytest.raises(SimulationError) as err:
            engine.run(max_events=max_events)
        at_raise = (engine.now, engine.events_processed,
                    engine.ledger.to_state(), str(err.value))
        engine.run()
        return at_raise, (engine.now, engine.events_processed,
                          engine.ledger.to_state(), thread.finished_at,
                          thread.result)

    assert build(True) == build(False)


def test_drain_memory_does_not_grow_with_run_length():
    """A lone thread's drain posts each charge as it lands: its host
    memory is bounded, however many charges one drain covers."""
    import tracemalloc

    engine = Engine(1)

    def worker(n):
        for _ in range(n):
            yield charge(CostDomain.COPY, "memcpy", 1.0)

    engine.spawn(worker(200_000), core=0)
    tracemalloc.start()
    try:
        engine.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert engine.now == 200_000.0
    assert peak < 1 << 20


def test_drain_ledger_order_matches_direct_records():
    """Kernel code may post to the ledger directly between yields; a
    drained thread's charges must already be in the ledger by then, so
    the float additions happen in the classic path's order."""
    def build(fast_forward):
        engine = Engine(1, fast_forward=fast_forward)

        def worker():
            yield charge(CostDomain.JOURNAL, "commit", 1.0)
            yield charge(CostDomain.JOURNAL, "commit", 1.0)
            engine.ledger.record("w", CostDomain.JOURNAL, "direct", 1e16)
            yield charge(CostDomain.COPY, "memcpy", 1.0)

        engine.spawn(worker(), core=0, name="w")
        engine.run()
        return engine

    on = build(True)
    off = build(False)
    assert off.ledger.domain_total(CostDomain.JOURNAL) == 2.0 + 1e16
    assert on.ledger.to_state() == off.ledger.to_state()


# -- the charge block's local counts ---------------------------------------

def test_records_flush_when_a_span_is_refused_midway():
    """``Engine.run`` counts ledger records in a local and adds them to
    ``ledger.records`` on the way out, also when a charge is refused
    part-way through a span: the entries booked before it count."""
    from repro.obs import charge_span

    for fast_forward in (True, False):
        engine = Engine(1, fast_forward=fast_forward)

        def worker():
            yield charge(CostDomain.COPY, "memcpy", 5.0)
            yield charge_span([(CostDomain.WALK, "tlb-walk", 4.0),
                               (CostDomain.COPY, "memcpy", 0.0),
                               (CostDomain.COPY, "memcpy", 2.0),
                               ("copy", "bad", 1.0),
                               (CostDomain.WALK, "tlb-walk", 1.0)])

        engine.spawn(worker(), name="refused")
        with pytest.raises(SimulationError):
            engine.run()
        assert engine.ledger.records == 3
        assert engine.ledger.total() == engine.now == 11.0
        assert engine.events_processed == 5


def test_thread_with_only_zero_charges_has_no_ledger_row():
    from repro.obs import charge_span

    engine = Engine(1)

    def idle():
        yield Compute(0)
        yield charge_span([(CostDomain.WALK, "tlb-walk", 0.0),
                           (CostDomain.COPY, "memcpy", 0.0)])

    def busy():
        yield Compute(3)

    engine.spawn(idle(), name="idle")
    engine.spawn(busy(), name="busy")
    engine.run()
    assert list(engine.ledger.per_thread()) == ["busy"]
    assert list(engine.ledger.to_state()["threads"]) == ["busy"]
    assert engine.ledger.records == 1


def test_nested_run_on_another_engine_keeps_both_counts():
    """A thread that runs a second engine to completion inside its own
    step (the crash checker's ``_charge_recovery`` does) leaves each
    engine its own ``records`` and ``events_processed``."""
    from repro.obs import charge_span

    outer, inner = Engine(1), Engine(1)

    def inner_worker():
        for _ in range(3):
            yield Compute(2)

    def outer_worker():
        yield Compute(1)
        inner.spawn(inner_worker(), name="inner")
        inner.run()
        yield Compute(1)
        yield charge_span([(CostDomain.WALK, "tlb-walk", 1.0),
                           (CostDomain.COPY, "memcpy", 1.0)])

    outer.spawn(outer_worker(), name="outer")
    outer.run()
    assert (outer.ledger.records, outer.events_processed) == (4, 5)
    assert (inner.ledger.records, inner.events_processed) == (3, 4)
    assert list(outer.ledger.per_thread()) == ["outer"]
    assert list(inner.ledger.per_thread()) == ["inner"]
    assert (outer.now, inner.now) == (4.0, 6.0)


def test_nan_charge_is_refused():
    engine = Engine(1)

    def worker():
        yield charge(CostDomain.COPY, "memcpy", float("nan"))

    engine.spawn(worker(), name="nan")
    with pytest.raises(SimulationError, match="nan.*copy/memcpy"):
        engine.run()
    assert (engine.now, engine.ledger.records) == (0.0, 0)
