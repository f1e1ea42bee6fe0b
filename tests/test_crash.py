"""Crash-point exploration: every enumerated point must recover.

The property the subsystem exists to check: for each crash workload,
crash the machine at any persistence-state transition, reboot, replay,
and find **zero** invariant violations — no acked msync/fsync data
lost, no torn extent trees, bitmaps consistent, tables rebuildable.
The second half checks the checker itself: an intentionally injected
ordering bug (acknowledging journal commits without fencing the commit
record) must be *caught*.  A differential test holds a copied domain's
crash, which walks only the records after the settled prefix, equal to
the full-history crash it replaced.  The last part pins the
checkpointed route: crashing storage images of one run gives, point for
point, what rebuilding a machine and replaying its prefix gave, and
leaves the running machine untouched.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MEDIA_PRESETS
from repro.crash import (
    CrashInjector,
    CrashState,
    CrashTriggered,
    PersistenceDomain,
    RecoveryChecker,
    StoreState,
    run_crash,
)
from repro.errors import MediaError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.system import System


def factory():
    return System(device_bytes=1 << 30)


def broken_fence(build):
    """``build``'s machines with the ordering-bug fixture installed:
    journal commits are acked without fencing the commit record."""
    def broken():
        system = build()
        system.fs.journal.skip_commit_fence = True
        return system
    return broken


# ---------------------------------------------------------------------------
# The recovery property, over both workloads and several seeds.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["syncbench", "kvstore"])
@pytest.mark.parametrize("seed", [0, 1])
def test_every_explored_crash_point_recovers_cleanly(workload, seed):
    summary = run_crash(factory, workload, seed=seed, max_points=8)
    assert summary.total_transitions >= 100
    assert summary.points_explored == 8
    assert summary.violations == []
    for outcome in summary.outcomes:
        assert outcome.ok
        assert outcome.recovery_cycles >= 0


def test_syncbench_crashes_actually_lose_undurable_state():
    """The sweep is only meaningful if crashes discard something."""
    summary = run_crash(factory, "syncbench", seed=0, max_points=10)
    state = summary.to_state()
    assert state["lost_records"] > 0
    assert state["rolled_back_txns"] > 0
    assert state["invariant_violations"] == 0


# ---------------------------------------------------------------------------
# Determinism: same seed, same machine, same outcome — golden-file-able.
# ---------------------------------------------------------------------------
def test_probe_and_point_selection_are_deterministic():
    a = CrashInjector(factory, "syncbench", seed=3, max_points=6)
    b = CrashInjector(factory, "syncbench", seed=3, max_points=6)
    ta, tb = a.probe(), b.probe()
    assert ta == tb
    assert a.select_points(ta) == b.select_points(tb)


def test_crash_sweep_is_replica_deterministic():
    a = run_crash(factory, "kvstore", seed=2, max_points=5)
    b = run_crash(factory, "kvstore", seed=2, max_points=5)
    assert a.to_state() == b.to_state()
    assert a.outcomes == b.outcomes


# ---------------------------------------------------------------------------
# The bug fixture: the checker must catch a broken fence discipline.
# ---------------------------------------------------------------------------
def test_skipped_commit_fence_is_caught_by_checker():
    broken = CrashInjector(broken_fence(factory), "syncbench", seed=0,
                           max_points=4)
    total = broken.probe()
    outcome = broken.explore([total - 1])[0]
    assert not outcome.ok
    assert any("acked" in v and "lost" in v for v in outcome.violations)

    clean = CrashInjector(factory, "syncbench", seed=0, max_points=4)
    good = clean.explore([clean.probe() - 1])[0]
    assert good.ok


# ---------------------------------------------------------------------------
# Domain unit behaviour backing the property above.
# ---------------------------------------------------------------------------
class _NoLuck:
    """rng stub: unfenced flushes never drain."""

    def random(self):
        return 1.0


class _AllLuck:
    def random(self):
        return 0.0


def test_domain_three_state_lifecycle():
    domain = PersistenceDomain()
    rec = domain.data_store(1, 4096)
    assert rec.state is StoreState.VOLATILE
    domain.flush(rec)
    assert rec.state is StoreState.FLUSHED
    domain.fence()
    assert rec.state is StoreState.DURABLE
    state = domain.apply_crash(_NoLuck())
    assert rec.survived and not rec.lost
    assert state.lost_records == 0


def test_unfenced_flush_survival_is_coin_flipped():
    lucky = PersistenceDomain()
    lucky.data_store(1, 4096, nt=True)  # flushed, never fenced
    assert lucky.apply_crash(_AllLuck()).lost_records == 0

    unlucky = PersistenceDomain()
    unlucky.data_store(1, 4096, nt=True)
    assert unlucky.apply_crash(_NoLuck()).lost_records == 1


def test_acked_data_loss_is_a_violation():
    domain = PersistenceDomain()
    domain.data_store(1, 4096, nt=True)
    domain.sync_data(1, domain.cursor())  # fence + ack
    domain.records[0].state = StoreState.FLUSHED  # simulate bad fence
    state = domain.apply_crash(_NoLuck())
    assert state.acked_lost == 1
    assert state.violations


def test_uncommitted_metadata_is_undone_in_reverse_order():
    undone = []
    domain = PersistenceDomain()
    domain.meta_store("a", 1, 64,
                      undo=lambda _machine, _rec: undone.append("a"))
    domain.meta_store("b", 1, 64,
                      undo=lambda _machine, _rec: undone.append("b"))
    state = domain.apply_crash(_NoLuck())
    assert undone == ["b", "a"]
    assert state.rolled_back_txns == 1


def test_committed_transaction_survives_and_runs_deferred_frees():
    freed = []
    domain = PersistenceDomain()
    domain.meta_store("trunc", 1, 64,
                      on_durable=lambda _machine, _rec: freed.append(
                          "blocks"))
    domain.commit_metadata(acked=True)
    assert freed == ["blocks"]  # the commit fence ran the deferral
    state = domain.apply_crash(_NoLuck())
    assert state.lost_records == 0
    assert not domain.records[0].lost


def test_armed_domain_raises_at_its_transition():
    domain = PersistenceDomain(crash_at=1)
    domain.data_store(1, 4096)  # transition 0
    with pytest.raises(CrashTriggered):
        domain.data_store(1, 4096)  # transition 1: boom
    # The crashing store was never recorded (power died mid-store).
    assert len(domain.records) == 1


def test_journal_replay_stops_at_first_torn_commit():
    """A surviving commit *after* a torn one is still rolled back —
    journal replay is a sequential scan."""
    undone = []
    domain = PersistenceDomain()
    domain.meta_store("t1", 1, 64,
                      undo=lambda _machine, _rec: undone.append("t1"))
    domain.commit_metadata(acked=False)
    domain.meta_store("t2", 1, 64,
                      undo=lambda _machine, _rec: undone.append("t2"))
    domain.commit_metadata(acked=False)
    # Tear the first commit record; leave the second durable.
    first_commit = next(r for r in domain.records if r.kind == "commit")
    first_commit.state = StoreState.FLUSHED
    state = domain.apply_crash(_NoLuck())
    assert undone == ["t2", "t1"]
    assert state.rolled_back_txns == 2


# ---------------------------------------------------------------------------
# A copy shares the settled prefix and crashes only the tail.
# ---------------------------------------------------------------------------
def _reference_copy(domain: PersistenceDomain, machine) -> PersistenceDomain:
    """The copy as it was before the settled prefix: every record
    copied, nothing shared, nothing known settled."""
    twin = PersistenceDomain()
    twin.machine = machine
    twin.records = [rec.copy() for rec in domain.records]
    return twin


def _reference_apply_crash(domain: PersistenceDomain, rng) -> CrashState:
    """The full-history crash the tail walk replaced: every record's
    survival, the commit scan from the first record, every record
    walked in reverse."""
    state = CrashState()
    for rec in domain.records:
        if rec.state is StoreState.DURABLE:
            rec.survived = True
        elif rec.state is StoreState.FLUSHED:
            rec.survived = rng.random() < 0.5
        else:
            rec.survived = False
    committed = set()
    for rec in domain.records:
        if rec.kind != "commit":
            continue
        if not rec.survived:
            break
        committed.add(rec.txn_id)
    rolled: set = set()
    open_rolled = False
    for rec in reversed(domain.records):
        if rec.kind == "commit":
            keep = rec.txn_id in committed
        elif rec.kind == "meta":
            keep = rec.txn_id is not None and rec.txn_id in committed
            if not keep:
                if rec.txn_id is None:
                    open_rolled = True
                else:
                    rolled.add(rec.txn_id)
        else:
            keep = rec.survived
        if keep:
            if not rec.survived:
                state.replayed_records += 1
            domain._run_durable(rec)
            continue
        rec.lost = True
        state.lost_records += 1
        state.lost_bytes += rec.nbytes
        if rec.acked:
            state.acked_lost += 1
            state.violations.append(
                f"acked {rec.kind} store lost at crash: "
                f"{rec.label} (ino={rec.ino}, seq={rec.seq})")
        if rec.undo is not None:
            rec.undo(domain.machine, rec)
    state.rolled_back_txns = len(rolled) + (1 if open_rolled else 0)
    domain.crashed = True
    return state


class _Log:
    """A machine for record actions: they append what they did."""

    def __init__(self):
        self.actions = []


def _undo(machine, rec):
    machine.actions.append(("undo", rec.seq))


def _deferred(machine, rec):
    machine.actions.append(("on_durable", rec.seq))


_DOMAIN_OPS = st.lists(st.one_of(
    st.tuples(st.just("data"), st.integers(1, 2), st.booleans()),
    st.tuples(st.just("meta"), st.booleans(), st.booleans(),
              st.booleans()),
    st.tuples(st.just("flush"), st.integers(0, 1 << 16)),
    st.tuples(st.just("fence")),
    st.tuples(st.just("commit"), st.booleans(),
              st.sampled_from([False, False, False, True])),
    st.tuples(st.just("sync"), st.integers(1, 2), st.integers(0, 1 << 16)),
    st.tuples(st.just("copy"), st.integers(0, 1 << 30)),
), min_size=1, max_size=80)


def _mutable_fields(rec):
    fields = dict(rec.__dict__)
    del fields["survived"]  # set once, when the record settles
    fields["runs"] = None if rec.runs is None else list(rec.runs)
    return fields


@settings(max_examples=300, deadline=None)
@given(ops=_DOMAIN_OPS)
def test_copied_domain_crashes_like_the_full_history(ops):
    """Random store/flush/fence/commit/sync programs, copied at random
    steps: each copy's crash equals the full-history reference on every
    ``CrashState`` field, on the order its actions ran and on every
    record's ``survived``/``lost``, and leaves the records it shares
    with the live domain as they were."""
    live = PersistenceDomain()
    live.machine = _Log()
    for op in ops:
        kind = op[0]
        if kind == "data":
            live.data_store(op[1], 4096, nt=op[2])
        elif kind == "meta":
            live.meta_store("m", 1, 64, flushed=op[1],
                            undo=_undo if op[2] else None,
                            on_durable=_deferred if op[3] else None)
        elif kind == "flush" and live.records:
            live.flush(live.records[op[1] % len(live.records)])
        elif kind == "fence":
            live.fence()
        elif kind == "commit":
            live.commit_metadata(acked=op[1], skip_fence=op[2])
        elif kind == "sync":
            live.sync_data(op[1], op[2] % (live.cursor() + 1))
        elif kind == "copy":
            twin = live.copy(_Log(), {})
            reference = _reference_copy(live, _Log())
            shared = [(rec, _mutable_fields(rec)) for rec in live.records
                      if any(rec is other for other in twin.records)]
            state = twin.apply_crash(random.Random(op[1]))
            expected = _reference_apply_crash(reference,
                                              random.Random(op[1]))
            assert state == expected
            assert twin.machine.actions == reference.machine.actions
            assert ([(r.survived, r.lost) for r in twin.records]
                    == [(r.survived, r.lost) for r in reference.records])
            for rec, fields in shared:
                assert _mutable_fields(rec) == fields
                assert rec.survived and not rec.lost


def _per_block_orphans(allocated, known):
    """Orphan runs as the scan found them block by block: each
    allocated interval split at every block some extent or table node
    holds."""
    runs = []
    for start, end in allocated:
        run_start = None
        for block in range(start, end):
            if block in known:
                if run_start is not None:
                    runs.append((run_start, block - run_start))
                    run_start = None
            elif run_start is None:
                run_start = block
        if run_start is not None:
            runs.append((run_start, end - run_start))
    return runs


class _FreeLog:
    """A device that records frees; a table node's frame is its
    block."""

    def __init__(self):
        self.freed = []

    def free(self, start, length):
        self.freed.append((start, length))

    @staticmethod
    def block_of(frame):
        return frame


_RUNS = st.lists(st.tuples(st.integers(0, 300), st.integers(1, 40)),
                 max_size=8)


@settings(max_examples=200, deadline=None)
@given(allocated=_RUNS, extents=_RUNS,
       nodes=st.lists(st.integers(0, 340), max_size=6))
def test_orphan_scan_frees_the_per_block_runs(allocated, extents, nodes):
    """The orphan scan subtracts extent runs and table-node blocks from
    the allocated shadow: it frees the runs the per-block scan found,
    in the same order, and drops them from the shadow."""
    domain = PersistenceDomain()
    domain.note_block_alloc(allocated)
    before = list(domain.allocated)
    table = SimpleNamespace(
        pte_nodes={i: SimpleNamespace(frame=b) for i, b in enumerate(nodes)},
        pmd_nodes={})
    inode = SimpleNamespace(
        extents=[SimpleNamespace(physical=start, length=length)
                 for start, length in extents],
        persistent_file_table=table)
    system = SimpleNamespace(device=_FreeLog(),
                             vfs=SimpleNamespace(inodes=lambda: [inode]))
    known = {block for start, length in extents
             for block in range(start, start + length)} | set(nodes)
    expected = _per_block_orphans(before, known)
    checker = RecoveryChecker(system, domain, CrashState())
    assert checker._reclaim_orphans() == sum(n for _s, n in expected)
    assert system.device.freed == expected
    assert all(block in known for start, end in domain.allocated
               for block in range(start, end))


# ---------------------------------------------------------------------------
# Checkpointed exploration: one run, a storage image per crash point.
# ---------------------------------------------------------------------------
def _replay_point(injector: CrashInjector, point: int):
    """Reference for one crash point, by the route the injector took
    before it crashed storage images of one run: rebuild the machine,
    re-run the prefix until the armed domain raises, then crash, reboot
    and recover the machine itself."""
    domain = PersistenceDomain(crash_at=point)
    system = injector._replica(domain)
    try:
        injector.workload(system)
    except CrashTriggered:
        pass
    except MediaError:
        system.engine.reap_crashed()
    rng = random.Random((injector.seed << 24) ^ (point * 0x9E3779B1))
    state = domain.apply_crash(rng)
    system.vfs.inode_cache.evict_all()
    system._reboot()
    return RecoveryChecker(system, domain, state).run(point=point)


def _assert_matches_replay(injector: CrashInjector) -> None:
    """Every transition, plus one past the last (power fails where the
    run ended), must give the replayed outcome."""
    points = list(range(injector.probe() + 1))
    explored = injector.explore(points)
    assert [o.point for o in explored] == points
    for outcome in explored:
        assert outcome == _replay_point(injector, outcome.point), (
            f"crash point {outcome.point} differs from its replay")


@pytest.mark.parametrize("workload", ["syncbench", "kvstore"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_checkpointed_points_equal_replayed_points(workload, seed):
    _assert_matches_replay(CrashInjector(factory, workload, seed=seed))


@pytest.mark.parametrize("workload", ["syncbench", "kvstore"])
def test_checkpointed_points_equal_replayed_points_with_broken_fence(
        workload):
    _assert_matches_replay(CrashInjector(broken_fence(factory), workload,
                                         seed=0))


def _optane_factory() -> System:
    return System(costs=MEDIA_PRESETS["optane"](), device_bytes=1 << 30,
                  aged=False)


def test_checkpointed_points_equal_replayed_points_under_a_fault_plan():
    """The composed crash x faults case: a UE kills the run part-way,
    so the point past the last transition crashes where the UE left
    the machine."""
    probe = FaultInjector(_optane_factory, "syncbench", seed=0,
                          max_sites=4)
    plan = FaultPlan.generate(probe.probe(), seed=0, max_sites=4,
                              bw_windows=1, stalls=1)
    injector = CrashInjector(_optane_factory, "syncbench", seed=0,
                             fault_plan=plan)
    unfaulted = CrashInjector(_optane_factory, "syncbench", seed=0)
    assert injector.probe() < unfaulted.probe()
    _assert_matches_replay(injector)


def _live_state(system: System):
    return (system.persistence.transitions,
            [(path, system.vfs.lookup(path).size)
             for path in system.vfs.paths()],
            system.device.free_blocks,
            system.ledger.to_state())


@pytest.mark.parametrize("workload", ["syncbench", "kvstore"])
def test_crashing_images_leaves_the_running_machine_as_the_probe_did(
        workload):
    built = []

    def tracking_factory():
        built.append(factory())
        return built[-1]

    summary = run_crash(tracking_factory, workload, seed=0,
                        max_points=10_000)
    probe, explored = built
    assert summary.points_explored == summary.total_transitions
    assert _live_state(explored) == _live_state(probe)


@pytest.mark.parametrize("max_points", [1, 8, 64])
def test_a_crash_audit_builds_two_machines_whatever_its_points(
        monkeypatch, max_points):
    built = []
    build = System.__init__

    def counted(system, *args, **kwargs):
        build(system, *args, **kwargs)
        built.append(system)

    monkeypatch.setattr(System, "__init__", counted)
    summary = run_crash(factory, "kvstore", seed=0, max_points=max_points)
    assert summary.points_explored == max_points
    assert len(built) == 2
