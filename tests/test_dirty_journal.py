"""DirtyTracker and Journal unit tests."""

import pytest

from repro.config import DEFAULT_COSTS
from repro.errors import MissingCounterError
from repro.fs.journal import Journal
from repro.fs.vfs import Inode
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.vm.dirty import DirtyTracker


def test_mark_is_idempotent_per_granule():
    tracker = DirtyTracker()
    inode = Inode("/f")
    assert tracker.mark(inode, 5)
    assert not tracker.mark(inode, 5)
    assert tracker.mark(inode, 6)
    assert tracker.dirty_count(inode) == 2
    assert tracker.tags_written == 2


def test_collect_clears_tags_and_bytes():
    tracker = DirtyTracker()
    inode = Inode("/f")
    tracker.mark(inode, 0)
    tracker.bytes_written[inode.number] += 1024
    assert tracker.written_bytes(inode) == 1024
    tags = tracker.collect(inode)
    assert tags == {0}
    assert tracker.dirty_count(inode) == 0
    assert tracker.written_bytes(inode) == 0


def test_drop_discards_without_flushing():
    tracker = DirtyTracker()
    inode = Inode("/f")
    tracker.mark(inode, 1)
    tracker.bytes_written[inode.number] += 10
    tracker.drop(inode)
    assert tracker.dirty_count(inode) == 0


def test_per_inode_isolation():
    tracker = DirtyTracker()
    a, b = Inode("/a"), Inode("/b")
    tracker.mark(a, 0)
    assert tracker.dirty_count(b) == 0
    tracker.collect(a)
    assert tracker.dirty_count(a) == 0


def _run(gen):
    engine = Engine(1)
    thread = engine.spawn(gen)
    engine.run()
    return engine.now


def test_journal_batched_updates_are_amortised():
    stats = Stats()
    journal = Journal(DEFAULT_COSTS, stats)

    def flow():
        for _ in range(Journal.BATCH_FACTOR):
            yield from journal.metadata_update()

    total = _run(flow())
    # One full commit's worth of cycles across BATCH_FACTOR updates.
    assert total == pytest.approx(DEFAULT_COSTS.journal_commit)
    assert journal.batched_updates == Journal.BATCH_FACTOR


def test_journal_sync_commit_charges_full_cost():
    stats = Stats()
    journal = Journal(DEFAULT_COSTS, stats)

    def flow():
        yield from journal.commit_sync()

    total = _run(flow())
    assert total == DEFAULT_COSTS.journal_commit
    assert stats.get("journal.sync_commits") == 1


def test_stats_counters_and_series():
    stats = Stats()
    stats.add("x")
    stats.add("x", 2.5)
    assert stats.get("x") == 3.5
    assert stats.get("missing") == 0.0
    stats.add("y", 7)
    assert stats.ratio("y", "x") == pytest.approx(2.0)
    with pytest.raises(MissingCounterError):
        stats.ratio("y", "nothing")
    stats.add("touched-zero", 0.0)
    assert stats.ratio("y", "touched-zero") == 0.0
    stats.sample("tl", 1.0, 10.0)
    stats.sample("tl", 2.0, 20.0)
    assert stats.series("tl") == [(1.0, 10.0), (2.0, 20.0)]
    snap = stats.snapshot()
    stats.reset()
    assert stats.get("x") == 0.0
    assert snap["x"] == 3.5
