"""Crash-point exploration: every enumerated point must recover.

The property the subsystem exists to check: for each crash workload,
crash the machine at any persistence-state transition, reboot, replay,
and find **zero** invariant violations — no acked msync/fsync data
lost, no torn extent trees, bitmaps consistent, tables rebuildable.
The second half checks the checker itself: an intentionally injected
ordering bug (acknowledging journal commits without fencing the commit
record) must be *caught*.  The last part pins the checkpointed route:
crashing storage images of one run gives, point for point, what
rebuilding a machine and replaying its prefix gave, and leaves the
running machine untouched.
"""

import random

import pytest

from repro.config import MEDIA_PRESETS
from repro.crash import (
    CrashInjector,
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
