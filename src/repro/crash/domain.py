"""The ADR persistence domain: durability state for every simulated store.

On a real PMem machine a store is *not* durable when it retires.  It
sits in the cache hierarchy (volatile) until a ``clwb`` or nt-store
pushes it to the memory controller's write-pending queue, and only a
subsequent fence orders it into the ADR (asynchronous DRAM refresh)
domain where the platform guarantees flush-on-power-fail.  The paper's
durability story (§3) — journaled metadata, persistent per-extent page
tables, ``MAP_SYNC`` semantics — is entirely about sequencing those
three states correctly.

:class:`PersistenceDomain` shadows the simulator's stores with exactly
that three-state machine:

``VOLATILE``
    the store happened but lives in cache; always lost at a crash.
``FLUSHED``
    a ``clwb``/nt-store pushed it toward the DIMM but no fence ordered
    it; at a crash it *may* have drained — survival is decided per
    crash point by a seeded coin flip, which is what makes unfenced
    flushes a bug the injector can actually expose.
``DURABLE``
    fence-ordered into ADR; always survives.

Every state *transition* (store, flush, fence) is a deterministic crash
candidate: the domain counts transitions.  Told a set of points with
:meth:`~PersistenceDomain.checkpoint_at`, it calls back at each of them
*before* the transition applies, so the crash audit can copy the
storage mid-operation and let the run go on; armed with ``crash_at=k``
it instead raises :class:`CrashTriggered` at the *k*-th boundary.
Metadata stores carry an ``undo`` action (logical rollback when their
journal transaction did not commit) and an optional ``on_durable``
action (e.g. a block free that must not happen until the truncate
record is durable).  Both capture values only — path, inode number,
old size — and are called as ``action(machine, record)`` on the machine
the domain is attached to, so one rollback serves the live machine and
any copy of its storage.  Data stores are tracked per inode so an
acknowledged ``msync``/``fsync`` can be checked against what physically
survived.  A copy of the domain shares the *settled* prefix of its
records, those no crash can change, and copies and crashes only the
records after it.

The code that issues stores feeds the domain: the file systems, the
file tables and the VM access path.  The memory model's pricing
functions never do.  They stay free of side effects, so the access path
may price one access twice (at its NUMA factors and at uniform ones)
without recording anything twice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.fs.intervals import IntervalSet

#: Size of a jbd2-style commit record (one journal block + descriptor).
COMMIT_RECORD_BYTES = 8 << 10


class StoreState(enum.Enum):
    """Where a tracked store sits relative to the ADR domain."""

    VOLATILE = "volatile"
    FLUSHED = "flushed"
    DURABLE = "durable"


class CrashTriggered(Exception):
    """Raised inside the simulation when the armed crash point fires.

    Propagates out of the running thread generator, through the engine
    and the workload driver, back to the :class:`CrashInjector` — the
    simulated machine simply stops mid-transition.
    """

    def __init__(self, point: int):
        super().__init__(f"injected crash at persistence transition {point}")
        self.point = point


#: ``action(machine, record)``: a record's rollback or deferred effect,
#: applied to the machine (or storage image) its domain is attached to.
RecordAction = Callable[[object, "PersistRecord"], None]


@dataclass
class PersistRecord:
    """One tracked store and its durability lifecycle."""

    seq: int
    label: str
    #: ``"meta"`` (journaled, transactional), ``"data"`` (file contents,
    #: acked by msync/fsync) or ``"commit"`` (a journal commit record).
    kind: str
    ino: Optional[int]
    nbytes: int
    state: StoreState
    #: Durability was promised to the caller (fsync/msync returned, or a
    #: MAP_SYNC fault completed).  A crash that loses an acked record is
    #: an invariant violation, not bad luck.
    acked: bool = False
    #: Journal transaction this metadata record was sealed into; ``None``
    #: while the transaction is still open.
    txn_id: Optional[int] = None
    #: Logical rollback applied when the record is lost at a crash.
    undo: Optional[RecordAction] = None
    #: Deferred side effect (block frees) applied once durable.
    on_durable: Optional[RecordAction] = None
    durable_applied: bool = False
    #: Block runs a truncate frees once durable; filled in after the
    #: record is issued, so it is part of the record's mutable state.
    runs: Optional[List[Tuple[int, int]]] = None
    #: Filled in by :meth:`PersistenceDomain.apply_crash`, or once, when
    #: the record settles (every crash keeps a settled record).
    survived: bool = False
    lost: bool = False

    def copy(self) -> "PersistRecord":
        """An independent record with the same lifecycle state."""
        twin = object.__new__(PersistRecord)
        twin.__dict__ = self.__dict__.copy()
        if self.runs is not None:
            twin.runs = list(self.runs)
        return twin


@dataclass
class CrashState:
    """What :meth:`PersistenceDomain.apply_crash` did to the machine."""

    lost_records: int = 0
    lost_bytes: float = 0.0
    acked_lost: int = 0
    rolled_back_txns: int = 0
    #: Committed metadata records whose blocks physically tore but which
    #: journal replay restores at mount (write-ahead logging at work).
    replayed_records: int = 0
    violations: List[str] = field(default_factory=list)


class PersistenceDomain:
    """Tracks simulated stores through volatile → flushed → durable.

    Construct unarmed (``crash_at=None``) to *probe*: the workload runs
    to completion and ``transitions`` counts the crash candidates.
    :meth:`checkpoint_at` calls back at chosen transitions without
    stopping the run; ``crash_at=k`` crashes deterministically at the
    *k*-th transition boundary.
    """

    def __init__(self, crash_at: Optional[int] = None):
        self.crash_at = crash_at
        self.crashed = False
        self.transitions = 0
        self._points: "frozenset[int]" = frozenset()
        self._on_point: Optional[Callable[[int], None]] = None
        #: The machine (or storage image) record actions act on; set by
        #: ``System.attach_persistence``.
        self.machine = None
        self.records: List[PersistRecord] = []
        #: Every inode a record's action names, by number: a rollback
        #: may have to re-link an inode the namespace no longer holds.
        self.inodes: Dict[int, object] = {}
        self._unfenced: List[PersistRecord] = []
        self._open_txn: List[PersistRecord] = []
        self._txn_seq = 0
        #: ``records[:_settled]`` is the settled prefix (:meth:`_settle`):
        #: records no crash can lose, undo or run a deferred action for.
        self._settled = 0
        #: The newest transaction whose commit record, and every commit
        #: record before it, is durable; ``_commits`` holds the commit
        #: records after it, oldest first.
        self._settled_txn = 0
        self._commits: List[PersistRecord] = []
        #: Device blocks allocated by the tracked run (extent data and
        #: persistent file-table nodes); the recovery checker reconciles
        #: this against the extent trees to find orphaned blocks.
        self.allocated = IntervalSet()

    # -- crash-point clock -------------------------------------------------
    def checkpoint_at(self, points: Iterable[int],
                      callback: Callable[[int], None]) -> None:
        """Call ``callback(k)`` at each transition ``k`` in ``points``,
        before the transition applies — where ``crash_at=k`` would
        raise.  The callback must leave this domain's machine as it
        found it; the run then continues."""
        self._points = frozenset(points)
        self._on_point = callback

    def _tick(self) -> None:
        if self.crashed:
            return
        point = self.transitions
        if point in self._points:
            self._on_point(point)
        if point == self.crash_at:
            self.crashed = True
            raise CrashTriggered(point)
        self.transitions = point + 1

    def track(self, inode) -> int:
        """Name ``inode`` in a record: register it for rollback and
        return its number."""
        self.inodes[inode.number] = inode
        return inode.number

    def cursor(self) -> int:
        """Sequence number marking 'every record issued so far'."""
        return len(self.records)

    # -- store tracking ----------------------------------------------------
    def _store(self, label: str, kind: str, ino: Optional[int], nbytes: int,
               *, flushed: bool = False,
               undo: Optional[RecordAction] = None,
               on_durable: Optional[RecordAction] = None,
               ) -> PersistRecord:
        self._tick()
        rec = PersistRecord(
            seq=len(self.records), label=label, kind=kind, ino=ino,
            nbytes=nbytes,
            state=StoreState.FLUSHED if flushed else StoreState.VOLATILE,
            undo=undo, on_durable=on_durable)
        self.records.append(rec)
        if flushed:
            self._unfenced.append(rec)
        if kind == "meta":
            self._open_txn.append(rec)
        return rec

    def meta_store(self, label: str, ino: Optional[int], nbytes: int, *,
                   undo: Optional[RecordAction] = None,
                   on_durable: Optional[RecordAction] = None,
                   flushed: bool = False) -> PersistRecord:
        """A journaled metadata mutation joining the open transaction.

        Callers create the record *before* applying the in-memory
        mutation, so a crash at the record's own tick observes the
        pre-mutation state and needs no rollback.
        """
        return self._store(label, "meta", ino, nbytes, flushed=flushed,
                           undo=undo, on_durable=on_durable)

    def data_store(self, ino: int, nbytes: int, *,
                   nt: bool = False) -> PersistRecord:
        """File-contents store; nt-stores start life already flushed."""
        return self._store("data", "data", ino, nbytes, flushed=nt)

    def flush(self, rec: PersistRecord) -> None:
        """``clwb`` the record's cache lines toward the DIMM."""
        if rec.state is StoreState.VOLATILE:
            self._tick()
            rec.state = StoreState.FLUSHED
            self._unfenced.append(rec)

    def fence(self) -> None:
        """``sfence``: order every flushed store into the ADR domain."""
        self._tick()
        pending, self._unfenced = self._unfenced, []
        for rec in pending:
            rec.state = StoreState.DURABLE
            self._run_durable(rec)

    def _run_durable(self, rec: PersistRecord) -> None:
        if rec.on_durable is not None and not rec.durable_applied:
            rec.durable_applied = True
            rec.on_durable(self.machine, rec)

    # -- journal transactions ---------------------------------------------
    def commit_metadata(self, *, acked: bool,
                        skip_fence: bool = False) -> None:
        """Seal the open transaction jbd2-style.

        Flush every member record, write the commit record (nt-store),
        fence, and — for synchronous commits — acknowledge durability to
        the caller.  ``skip_fence`` is the test-only ordering-bug
        fixture: the commit record stays volatile and unfenced while the
        transaction is acknowledged anyway, exactly the bug the
        RecoveryChecker must catch.
        """
        txn = self._open_txn
        if not txn:
            if acked and not skip_fence:
                self.fence()
            return
        self._open_txn = []
        self._txn_seq += 1
        txn_id = self._txn_seq
        for rec in txn:
            rec.txn_id = txn_id
            self.flush(rec)
        commit = self._store("journal-commit", "commit", None,
                             COMMIT_RECORD_BYTES, flushed=not skip_fence)
        commit.txn_id = txn_id
        self._commits.append(commit)
        if not skip_fence:
            self.fence()
        if acked:
            for rec in txn:
                rec.acked = True
            commit.acked = True

    def sync_data(self, ino: int, upto: int) -> None:
        """msync/fsync durability contract for one file's data.

        Flush every still-volatile data store issued before ``upto``,
        fence, then acknowledge: the caller promised the application
        those bytes are durable.
        """
        for rec in self.records[:upto]:
            if rec.kind == "data" and rec.ino == ino:
                self.flush(rec)
        self.fence()
        for rec in self.records[:upto]:
            if rec.kind == "data" and rec.ino == ino:
                rec.acked = True

    # -- device-block accounting (bitmap shadow) ---------------------------
    def note_block_alloc(self, runs: Iterable[Tuple[int, int]]) -> None:
        for start, length in runs:
            self.allocated.add(start, start + length)

    def note_block_free(self, start: int, length: int) -> None:
        self.allocated.remove(start, start + length)

    # -- copying ------------------------------------------------------------
    def _settle(self) -> int:
        """Advance the settled watermark over ``records``; returns it.

        A record is *settled* when it is durable, its ``on_durable``
        action (if any) has run, and it is a data store or belongs to a
        transaction at or below ``_settled_txn``.  Every crash keeps a
        settled record and does nothing to it, so its ``survived`` is
        set once, here, and :meth:`apply_crash` walks only the records
        after the longest settled prefix.  Only :meth:`copy` advances
        the watermark: a record edited back from durable by hand, on a
        domain never copied, is still walked.
        """
        commits = self._commits
        durable = 0
        for commit in commits:
            if commit.state is not StoreState.DURABLE:
                break
            durable += 1
        if durable:
            self._settled_txn = commits[durable - 1].txn_id
            del commits[:durable]
        txn = self._settled_txn
        records = self.records
        mark = self._settled
        end = len(records)
        while mark < end:
            rec = records[mark]
            if (rec.state is not StoreState.DURABLE
                    or (rec.on_durable is not None
                        and not rec.durable_applied)
                    or (rec.kind != "data"
                        and (rec.txn_id is None or rec.txn_id > txn))):
                break
            rec.survived = True
            mark += 1
        self._settled = mark
        return mark

    def copy(self, machine, inodes: Dict[int, object]
             ) -> "PersistenceDomain":
        """An unarmed domain with this one's durability state, attached
        to ``machine``; ``inodes`` maps each tracked inode number to the
        machine's inode.  The settled prefix of ``records`` is shared,
        since nothing changes a settled record; every later record is
        copied.  Crashing the copy leaves this domain as it is."""
        mark = self._settle()
        twin = PersistenceDomain()
        twin.transitions = self.transitions
        twin.machine = machine
        twin.records = records = self.records[:mark]
        records.extend([rec.copy() for rec in self.records[mark:]])
        twin._settled = mark
        twin._settled_txn = self._settled_txn
        twin._commits = [records[rec.seq] for rec in self._commits]
        twin.inodes = {number: inodes[number] for number in self.inodes}
        twin._unfenced = [records[rec.seq] for rec in self._unfenced]
        twin._open_txn = [records[rec.seq] for rec in self._open_txn]
        twin._txn_seq = self._txn_seq
        twin.allocated = self.allocated.copy()
        return twin

    # -- crash application -------------------------------------------------
    def apply_crash(self, rng) -> CrashState:
        """Discard everything not durable; roll back torn transactions.

        Physical survival first: durable records always survive,
        volatile never, flushed by ``rng`` coin flip.  Then the logical
        layer: a metadata record is *kept* iff its transaction's commit
        record survived **and** every earlier commit survived too (the
        journal is sequential — replay stops at the first torn commit).
        Kept-but-torn records count as replayed (write-ahead logging
        restores them at mount).  Lost records are undone in reverse
        sequence order; losing an *acknowledged* record is recorded as
        an invariant violation.

        Only the records after the settled prefix are walked: a crash
        keeps every settled record and counts each settled transaction
        as committed.
        """
        state = CrashState()
        tail = self.records[self._settled:]
        for rec in tail:
            if rec.state is StoreState.DURABLE:
                rec.survived = True
            elif rec.state is StoreState.FLUSHED:
                rec.survived = rng.random() < 0.5
            else:
                rec.survived = False

        # Journal replay is sequential: commits are only honoured up to
        # the first one that tore.  Commit records carry transactions
        # 1, 2, ... in record order, so the honoured ones are exactly
        # those up to ``committed``.
        committed = self._settled_txn
        for rec in tail:
            if rec.kind != "commit":
                continue
            if not rec.survived:
                break
            committed = rec.txn_id

        rolled: set = set()
        open_rolled = False
        for rec in reversed(tail):
            if rec.kind == "commit":
                keep = rec.txn_id <= committed
            elif rec.kind == "meta":
                keep = rec.txn_id is not None and rec.txn_id <= committed
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
                # Deferred side effects of committed records run even if
                # the crash beat the fence that would have run them.
                self._run_durable(rec)
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
                rec.undo(self.machine, rec)
        state.rolled_back_txns = len(rolled) + (1 if open_rolled else 0)
        self.crashed = True
        return state
