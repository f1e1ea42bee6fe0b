"""Post-crash recovery and invariant verification.

After :meth:`PersistenceDomain.apply_crash` has discarded every
not-yet-durable store and rolled torn journal transactions back, the
machine is rebooted and :class:`RecoveryChecker` plays the part of the
mount path:

1. **Journal replay already happened** — write-ahead logging means a
   committed-but-torn metadata record was restored by ``apply_crash``
   (counted as replayed); the checker charges mount-time cycles for it.
2. **Persistent file tables** are re-synced with their extent maps via
   :class:`repro.core.recovery.RecoveryLog` (truncate a leading table,
   replay missing PTEs) and then validated entry-by-entry.
3. **Invariants** are asserted: no acknowledged ``msync``/``fsync``
   data lost, extent trees well-formed, sizes within mapped blocks, no
   two files sharing a physical block, no mapped block simultaneously
   free in the allocator bitmap.
4. **Orphaned blocks** — allocated on the device but reachable from no
   extent tree or table (the crash hit between bitmap update and
   extent-record creation) — are reclaimed, exactly like ext4's orphan
   list processing.  Orphans are *expected* occasionally; losing acked
   data never is.

The result is a :class:`CrashPointOutcome`; zero ``violations`` is the
acceptance bar for every enumerated crash point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.recovery import (RecoveryLog, RecoveryReport,
                                 verify_table_consistency)
from repro.crash.domain import CrashState, PersistenceDomain
from repro.fs.block import BLOCK_SIZE
from repro.fs.journal import Journal
from repro.obs import Counter, CostDomain, charge
from repro.system import System


@dataclass
class CrashPointOutcome:
    """Everything one explored crash point produced."""

    point: int
    violations: List[str] = field(default_factory=list)
    lost_records: int = 0
    lost_bytes: float = 0.0
    rolled_back_txns: int = 0
    replayed_records: int = 0
    orphan_blocks: int = 0
    tables_repaired: int = 0
    ptes_replayed: int = 0
    recovery_cycles: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


class RecoveryChecker:
    """Mount-time recovery + invariant audit for one crashed machine:
    a rebooted :class:`System` or a crashed
    :class:`~repro.crash.image.StorageImage`."""

    def __init__(self, system: System, domain: PersistenceDomain,
                 crash_state: CrashState):
        self.system = system
        self.domain = domain
        self.crash_state = crash_state

    # -- entry point -------------------------------------------------------
    def run(self, point: int) -> CrashPointOutcome:
        out = CrashPointOutcome(
            point=point,
            violations=list(self.crash_state.violations),
            lost_records=self.crash_state.lost_records,
            lost_bytes=self.crash_state.lost_bytes,
            rolled_back_txns=self.crash_state.rolled_back_txns,
            replayed_records=self.crash_state.replayed_records)
        report = self._replay_tables()
        if report is not None:
            out.tables_repaired = report.tables_repaired
            out.ptes_replayed = report.ptes_replayed
        out.violations.extend(self._check_extents())
        out.violations.extend(self._check_tables())
        out.violations.extend(self._check_device())
        out.orphan_blocks = self._reclaim_orphans()
        out.recovery_cycles = self._charge_recovery(out)

        stats = self.system.stats
        stats.add(Counter.CRASH_RECOVERY_CYCLES, out.recovery_cycles)
        stats.add(Counter.CRASH_INVARIANT_VIOLATIONS, len(out.violations))
        stats.add(Counter.CRASH_STORES_LOST, out.lost_records)
        stats.add(Counter.CRASH_RECORDS_REPLAYED, out.replayed_records)
        stats.add(Counter.CRASH_TXNS_ROLLED_BACK, out.rolled_back_txns)
        stats.add(Counter.CRASH_ORPHAN_BLOCKS_RECLAIMED, out.orphan_blocks)
        return out

    # -- persistent-table replay -------------------------------------------
    def _replay_tables(self) -> Optional[RecoveryReport]:
        manager = self.system._filetables
        if manager is None:
            return None
        return RecoveryLog(self.system.vfs, manager).recover_all()

    # -- invariants --------------------------------------------------------
    def _check_extents(self) -> List[str]:
        violations = []
        for inode in self.system.vfs.inodes():
            try:
                inode.extents.check_invariants()
            except AssertionError as exc:
                violations.append(
                    f"{inode.path}: torn extent tree: {exc}")
            mapped = inode.extents.block_count * BLOCK_SIZE
            if inode.size > mapped:
                violations.append(
                    f"{inode.path}: size {inode.size} exceeds mapped "
                    f"bytes {mapped}")
        return violations

    def _check_tables(self) -> List[str]:
        violations = []
        for inode in self.system.vfs.inodes():
            if inode.persistent_file_table is None:
                continue
            if not verify_table_consistency(inode):
                violations.append(
                    f"{inode.path}: persistent file table inconsistent "
                    f"with extent map after replay")
        return violations

    def _check_device(self) -> List[str]:
        violations = []
        device = self.system.device
        try:
            device.check_invariants()
        except AssertionError as exc:
            violations.append(f"device free-list corrupt: {exc}")
            return violations
        runs: List[Tuple[int, int, str]] = []
        for inode in self.system.vfs.inodes():
            for extent in inode.extents:
                runs.append((extent.physical,
                             extent.physical + extent.length, inode.path))
                if device.free_overlap(extent.physical, extent.length):
                    violations.append(
                        f"{inode.path}: mapped blocks "
                        f"[{extent.physical}, "
                        f"{extent.physical + extent.length}) marked free "
                        f"in the allocator bitmap")
            for block in self._table_node_blocks(inode):
                runs.append((block, block + 1, f"{inode.path}#table"))
                if device.free_overlap(block, 1):
                    violations.append(
                        f"{inode.path}: file-table node block {block} "
                        f"marked free in the allocator bitmap")
        runs.sort()
        for (s1, e1, p1), (s2, e2, p2) in zip(runs, runs[1:]):
            if s2 < e1:
                violations.append(
                    f"physical overlap: {p1} [{s1}, {e1}) vs "
                    f"{p2} [{s2}, {e2})")
        return violations

    def _table_node_blocks(self, inode) -> List[int]:
        table = inode.persistent_file_table
        if table is None:
            return []
        device = self.system.device
        nodes = list(table.pte_nodes.values()) + list(
            table.pmd_nodes.values())
        return [device.block_of(node.frame) for node in nodes]

    # -- orphan reclamation ------------------------------------------------
    def _reclaim_orphans(self) -> int:
        """Free device blocks reachable from no extent tree or table.

        The crash can land between the bitmap update and the creation
        of the extent record (the record's own tick fires first), which
        leaks allocated-but-unreferenced blocks — the moral equivalent
        of ext4's orphan inode list.  Mount reclaims them: the runs
        left of the allocated shadow once every extent run and table
        node block is taken out of it.
        """
        device = self.system.device
        orphans = self.domain.allocated.copy()
        for inode in self.system.vfs.inodes():
            for extent in inode.extents:
                orphans.remove(extent.physical,
                               extent.physical + extent.length)
            for block in self._table_node_blocks(inode):
                orphans.remove(block, block + 1)
        total = 0
        for start, end in orphans:
            length = end - start
            device.free(start, length)
            self.domain.note_block_free(start, length)
            total += length
        return total

    # -- mount-time cost ---------------------------------------------------
    def _charge_recovery(self, out: CrashPointOutcome) -> float:
        """Charge mount-time recovery work to the ``crash`` domain.

        Scan every inode (cold VFS walk), apply each replayed journal
        record, refill replayed PTEs and return reclaimed orphans —
        the same unit costs the live paths pay.
        """
        costs = self.system.costs
        cycles = (len(list(self.system.vfs.inodes()))
                  * costs.vfs_open_cold_extra
                  + out.replayed_records
                  * costs.journal_commit / Journal.BATCH_FACTOR
                  + out.ptes_replayed * costs.filetable_pte_fill
                  + out.orphan_blocks * costs.block_free)

        def mount():
            yield charge(CostDomain.CRASH, "mount-recovery", cycles)

        self.system.engine.spawn(mount(), core=0, name="mount-recovery")
        self.system.engine.run()
        return cycles


__all__ = ["CrashPointOutcome", "RecoveryChecker"]
