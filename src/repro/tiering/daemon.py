"""The hot/cold memory-tiering daemon and its placement overlay.

ROADMAP item 3: once CXL expanders and far-memory nodes join the
hierarchy, file data need not live on the device's native medium — a
kernel daemon (ktierd, modelled on Linux's NUMA-balancing/kpromoted
direction) watches access tags and migrates 2 MB granules between
tiers.  The model splits in two:

* :class:`TierMap` — the *placement overlay*: per inode, which medium
  each 2 MB file granule currently resides on.  The VM access path
  (:meth:`repro.vm.mm.MMStruct.access`) and the FS copy paths consult
  it to price data movement, and report access tags back through
  :meth:`TierMap.note_touch`.  A ``None`` overlay (the default) means
  "everything on the device medium" and reproduces the pre-tiering
  simulator bit for bit.
* :class:`TieringDaemon` — the kthread.  Every scan interval it walks
  the touch tags plus the existing :class:`~repro.vm.dirty.
  DirtyTracker` state, promotes granules touched at least
  ``hot_touches`` times to the hot medium, and demotes granules
  untouched for ``cold_scans`` consecutive scans back to the device
  medium.  Promotion is priced as a kernel ``memcpy`` to the hot tier
  plus a remap (per-page PTE teardown + PMD splice) plus one TLB
  shootdown over the union cpumask of every process mapping the file;
  demotion adds the write-back copy only when the granule was dirtied
  while promoted (clean granules still have their device copy).  All
  of it lands in the ``tiering`` ledger domain and ``tiering.*``
  counters, so a perf breakdown shows exactly what the daemon costs.

Invariants (held by tests/test_tiering.py):

* overlay ``None`` → zero behavioural and cost difference;
* the daemon never migrates more than ``migrate_budget_bytes`` per
  scan, and never touches a granule's placement between scans;
* demotion always restores the device medium — after a quiesce period
  every granule is back on the device, so durability semantics
  (msync flushes to the device) are unchanged by tiering;
* scans iterate in sorted (inode, granule) order and take no wall
  clock, so daemon runs are deterministic and parallel-sweep safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.config import CostModel
from repro.errors import InvalidArgumentError
from repro.mem.latency import MemoryModel
from repro.mem.physmem import Medium
from repro.obs import Counter, CostDomain, charge
from repro.sim.engine import Engine
from repro.sim.stats import Stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fs.vfs import Inode

PAGE_SIZE = 4096
#: Pages per migration granule (2 MB — the PMD attach granule, so a
#: migrated granule remaps with one PMD splice).
GRANULE_PAGES = 512
GRANULE_BYTES = GRANULE_PAGES * PAGE_SIZE


class TierMap:
    """Per-inode data-placement overlay: file granule -> medium."""

    def __init__(self, default: Medium = Medium.PMEM):
        #: Medium file data lives on when not migrated (the pricing
        #: default — a "cxl" placement prices the whole device as a
        #: CXL expander).
        self.default = default
        #: inode number -> {granule -> medium}; only granules moved
        #: OFF the default are present, so lookups stay O(1)-sparse.
        self._placement: Dict[int, Dict[int, Medium]] = {}
        #: inode number -> {granule -> [reads, writes]} since the last
        #: daemon scan.
        self._touches: Dict[int, Dict[int, List[int]]] = {}
        #: Live inode objects seen by note_touch, for the daemon's
        #: DirtyTracker consultation and shootdown rmap walks.
        self._inodes: Dict[int, "Inode"] = {}

    # -- consulted by the access paths ---------------------------------
    def medium_for(self, inode: "Inode", file_page: int) -> Medium:
        over = self._placement.get(inode.number)
        if not over:
            return self.default
        return over.get(file_page // GRANULE_PAGES, self.default)

    def note_touch(self, inode: "Inode", first_page: int,
                   last_page: int, write: bool = False) -> None:
        """Tag the granules of one access window (the access tracking
        the daemon's scan consumes)."""
        self._inodes[inode.number] = inode
        tags = self._touches.setdefault(inode.number, {})
        slot = 1 if write else 0
        for granule in range(first_page // GRANULE_PAGES,
                             last_page // GRANULE_PAGES + 1):
            counts = tags.get(granule)
            if counts is None:
                counts = tags[granule] = [0, 0]
            counts[slot] += 1

    # -- daemon-side surgery -------------------------------------------
    def place(self, inode_number: int, granule: int,
              medium: Medium) -> None:
        """Move one granule's residency (back to default = forget)."""
        over = self._placement.setdefault(inode_number, {})
        if medium is self.default:
            over.pop(granule, None)
            if not over:
                self._placement.pop(inode_number, None)
        else:
            over[granule] = medium

    def drain_touches(self) -> Dict[int, Dict[int, List[int]]]:
        """Hand the accumulated tags to the daemon and restart."""
        drained = self._touches
        self._touches = {}
        return drained

    def inode(self, number: int) -> Optional["Inode"]:
        return self._inodes.get(number)

    def placements(self) -> List[Tuple[int, int, Medium]]:
        """Sorted (inode, granule, medium) of every migrated granule."""
        return [(ino, granule, medium)
                for ino in sorted(self._placement)
                for granule, medium in sorted(
                    self._placement[ino].items())]

    def residency(self) -> Dict[str, int]:
        """Granule counts per non-default medium."""
        counts: Dict[str, int] = {}
        for _ino, _granule, medium in self.placements():
            counts[medium.value] = counts.get(medium.value, 0) + 1
        return counts

    # -- state ----------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        return {
            "default": self.default.value,
            "placement": {str(ino): {str(g): m.value
                                     for g, m in sorted(over.items())}
                          for ino, over in sorted(
                              self._placement.items())},
            "touches": {str(ino): {str(g): list(c)
                                   for g, c in sorted(tags.items())}
                        for ino, tags in sorted(self._touches.items())},
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "TierMap":
        """Detached restore: placement and tags, no live inode refs
        (they re-register on the next touch)."""
        tiers = cls(default=Medium(state["default"]))
        for ino, over in state["placement"].items():
            for granule, medium in over.items():
                tiers.place(int(ino), int(granule), Medium(medium))
        tiers._touches = {
            int(ino): {int(g): [int(c[0]), int(c[1])]
                       for g, c in tags.items()}
            for ino, tags in state["touches"].items()}
        return tiers


@dataclass(frozen=True)
class TieringConfig:
    """Policy knobs of the tiering daemon (cache-key material)."""

    #: Cycles between hotness scans.
    scan_interval: float = 1.5e6
    #: Touches within one scan period that make a granule hot.
    hot_touches: int = 2
    #: Consecutive untouched scans before a promoted granule demotes.
    cold_scans: int = 2
    #: Where hot granules go.
    hot_medium: Medium = Medium.DRAM
    #: Migration budget per scan (bounds burst interference).
    migrate_budget_bytes: int = 32 << 20
    #: Bandwidth-aware promotion rate limiting: the fraction of the
    #: device pools' *idle* capacity (capacity per scan period minus
    #: the foreground bytes the pools actually moved since the last
    #: scan) migrations may consume.  The per-scan budget becomes
    #: ``min(migrate_budget_bytes, fraction * headroom)`` — a hot-set
    #: storm arriving while foreground traffic saturates the device
    #: defers its promotions instead of stealing bandwidth.  0.0 (the
    #: default) disables the telemetry and reproduces the fixed
    #: budget bit for bit.
    bw_budget_fraction: float = 0.0

    def __post_init__(self):
        if self.scan_interval <= 0:
            raise InvalidArgumentError("scan_interval must be positive")
        if self.hot_touches < 1 or self.cold_scans < 1:
            raise InvalidArgumentError(
                "hot_touches and cold_scans must be >= 1")
        if not 0.0 <= self.bw_budget_fraction <= 1.0:
            raise InvalidArgumentError(
                "bw_budget_fraction must be in [0, 1]")

    def to_state(self) -> Dict[str, object]:
        return {
            "scan_interval": self.scan_interval,
            "hot_touches": self.hot_touches,
            "cold_scans": self.cold_scans,
            "hot_medium": self.hot_medium.value,
            "migrate_budget_bytes": self.migrate_budget_bytes,
            "bw_budget_fraction": self.bw_budget_fraction,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "TieringConfig":
        return cls(
            scan_interval=float(state["scan_interval"]),
            hot_touches=int(state["hot_touches"]),
            cold_scans=int(state["cold_scans"]),
            hot_medium=Medium(state["hot_medium"]),
            migrate_budget_bytes=int(state["migrate_budget_bytes"]),
            # Absent in states written before the rate limiter existed.
            bw_budget_fraction=float(state.get("bw_budget_fraction",
                                               0.0)),
        )


class TieringDaemon:
    """The ktierd kthread: scan access tags, migrate 2 MB granules."""

    def __init__(self, engine: Engine, mem: MemoryModel,
                 costs: CostModel, stats: Stats, tiers: TierMap,
                 config: Optional[TieringConfig] = None):
        self.engine = engine
        self.mem = mem
        self.costs = costs
        self.stats = stats
        self.tiers = tiers
        self.config = config or TieringConfig()
        if self.config.hot_medium is tiers.default:
            raise InvalidArgumentError(
                f"hot medium {self.config.hot_medium.value!r} equals "
                f"the device tier; nothing to promote to")
        #: (inode, granule) -> consecutive untouched scans while
        #: promoted.
        self._cold: Dict[Tuple[int, int], int] = {}
        #: Promoted granules written since promotion (need write-back
        #: on demote).
        self._dirty: Set[Tuple[int, int]] = set()
        self.scans = 0
        self._thread = None
        #: Pool byte odometer at the last scan (bandwidth telemetry).
        self._pool_bytes_seen = 0.0

    # -- bandwidth telemetry --------------------------------------------
    def _scan_budget(self) -> float:
        """Migration byte budget for this scan.

        With ``bw_budget_fraction`` armed, reads the device pools'
        byte odometers: whatever the foreground moved since the last
        scan is traffic the device already served, and migrations may
        only claim the configured fraction of what was left idle.
        ktierd's own copies run through ``memcpy`` (not the pools),
        so the odometer delta is foreground traffic, exactly.
        """
        frac = self.config.bw_budget_fraction
        if frac <= 0.0 or self.mem is None:
            return self.config.migrate_budget_bytes
        pools = [pool for pool in self.mem.pools if pool is not None]
        if not pools:
            return self.config.migrate_budget_bytes
        total = sum(pool.bytes_moved() for pool in pools)
        foreground = max(0.0, total - self._pool_bytes_seen)
        self._pool_bytes_seen = total
        capacity = sum((pool.read_bw + pool.write_bw) / pool.freq_hz
                       for pool in pools) * self.config.scan_interval
        headroom = max(0.0, capacity - foreground)
        return min(float(self.config.migrate_budget_bytes),
                   frac * headroom)

    # -- the kthread ----------------------------------------------------
    def start(self, core: int = 0) -> None:
        self._thread = self.engine.spawn(
            self._run(), core=core, name="tiering-kthread", daemon=True)

    def _run(self):
        while True:
            yield charge(CostDomain.TIERING, "tiering-idle",
                         self.config.scan_interval)
            yield from self.scan()

    # -- one scan -------------------------------------------------------
    def scan(self):
        """One hotness scan: promote hot granules, demote cold ones.

        Deterministic by construction: iteration is in sorted
        (inode, granule) order and consumes only simulated state.
        """
        self.scans += 1
        self.stats.add(Counter.TIERING_SCANS)
        touched = self.tiers.drain_touches()
        promoted = {(ino, granule)
                    for ino, granule, _medium in self.tiers.placements()}
        tracked = set(promoted)
        for ino, tags in touched.items():
            tracked.update((ino, granule) for granule in tags)
        if tracked:
            yield charge(CostDomain.TIERING, "tiering-scan",
                         len(tracked) * self.costs.tiering_scan_granule)
        budget = self._scan_budget()
        rate_limited = self.config.bw_budget_fraction > 0.0
        for ino, granule in sorted(tracked):
            counts = touched.get(ino, {}).get(granule)
            touches = (counts[0] + counts[1]) if counts else 0
            is_promoted = (ino, granule) in promoted
            if is_promoted and counts and counts[1]:
                self._dirty.add((ino, granule))
            if not is_promoted and touches >= self.config.hot_touches:
                if budget >= GRANULE_BYTES:
                    budget -= GRANULE_BYTES
                    yield from self._promote(ino, granule)
                elif rate_limited:
                    # Hot but deferred: the bandwidth telemetry left
                    # no headroom this scan.  (Counted only with the
                    # limiter armed — the fixed-budget path predates
                    # the counter and stays bit-identical.)
                    self.stats.add(Counter.TIERING_RATE_DEFERRED)
            elif is_promoted and touches == 0:
                key = (ino, granule)
                self._cold[key] = self._cold.get(key, 0) + 1
                if self._cold[key] >= self.config.cold_scans:
                    yield from self._demote(ino, granule)
            elif is_promoted:
                self._cold.pop((ino, granule), None)

    # -- migration ------------------------------------------------------
    def _needs_writeback(self, ino: int, granule: int) -> bool:
        """Was the granule dirtied while promoted?  Consults both the
        overlay's write tags and the kernel's existing DirtyTracker
        tag tree (writes through unmapped paths still tag there)."""
        if (ino, granule) in self._dirty:
            return True
        inode = self.tiers.inode(ino)
        if inode is None:
            return False
        seen: Set[int] = set()
        for vma in inode.i_mmap:
            mm = vma.mm
            if mm is None or id(mm) in seen:
                continue
            seen.add(id(mm))
            cache = mm.page_cache
            if cache.dirty_count(inode) or cache.written_bytes(inode):
                return True
        return False

    def _shootdown(self, ino: int):
        """Flush stale translations after a migration remap: one IPI
        round over the union cpumask of every process mapping the
        file (the memory_failure pattern)."""
        inode = self.tiers.inode(ino)
        if inode is None:
            return
        cores: Set[int] = set()
        shootdowns = None
        initiator = 0
        for vma in inode.i_mmap:
            mm = vma.mm
            if mm is None:
                continue
            cores |= mm.active_cores
            if shootdowns is None:
                shootdowns = mm.shootdowns
                initiator = mm._initiator_core()
        if shootdowns is None or not cores:
            return
        self.stats.add(Counter.TIERING_SHOOTDOWNS)
        yield from shootdowns.flush(initiator, cores, GRANULE_PAGES)

    def _migrate(self, ino: int, granule: int, src: Medium,
                 dst: Medium, label: str):
        copy = self.mem.memcpy(GRANULE_BYTES, src, dst, kernel=True)
        remap = (GRANULE_PAGES * self.costs.pte_teardown
                 + self.costs.pmd_attach)
        yield charge(CostDomain.TIERING, label, copy + remap)
        self.stats.add(Counter.TIERING_MIGRATED_BYTES, GRANULE_BYTES)
        yield from self._shootdown(ino)

    def _promote(self, ino: int, granule: int):
        yield from self._migrate(ino, granule, self.tiers.default,
                                 self.config.hot_medium,
                                 "tiering-promote")
        self.tiers.place(ino, granule, self.config.hot_medium)
        self._cold.pop((ino, granule), None)
        self._dirty.discard((ino, granule))
        self.stats.add(Counter.TIERING_PROMOTED_PAGES, GRANULE_PAGES)

    def _demote(self, ino: int, granule: int):
        if self._needs_writeback(ino, granule):
            # Dirty while promoted: the device copy is stale, pay the
            # write-back copy to the device tier.
            yield from self._migrate(ino, granule,
                                     self.config.hot_medium,
                                     self.tiers.default,
                                     "tiering-demote")
            self.stats.add(Counter.TIERING_WRITEBACK_BYTES,
                           GRANULE_BYTES)
        else:
            # Clean: the device copy is current — drop the hot copy,
            # pay only the remap and the shootdown.
            remap = (GRANULE_PAGES * self.costs.pte_teardown
                     + self.costs.pmd_attach)
            yield charge(CostDomain.TIERING, "tiering-demote", remap)
            yield from self._shootdown(ino)
        self.tiers.place(ino, granule, self.tiers.default)
        self._cold.pop((ino, granule), None)
        self._dirty.discard((ino, granule))
        self.stats.add(Counter.TIERING_DEMOTED_PAGES, GRANULE_PAGES)

    # -- state ----------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        return {
            "config": self.config.to_state(),
            "tiers": self.tiers.to_state(),
            "cold": [[ino, granule, count] for (ino, granule), count
                     in sorted(self._cold.items())],
            "dirty": [[ino, granule] for ino, granule
                      in sorted(self._dirty)],
            "scans": self.scans,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object],
                   engine: Optional[Engine] = None,
                   mem: Optional[MemoryModel] = None,
                   costs: Optional[CostModel] = None,
                   stats: Optional[Stats] = None) -> "TieringDaemon":
        """Detached restore (pass the live machine to re-arm)."""
        daemon = cls.__new__(cls)
        daemon.engine = engine
        daemon.mem = mem
        daemon.costs = costs
        daemon.stats = stats
        daemon.tiers = TierMap.from_state(state["tiers"])
        daemon.config = TieringConfig.from_state(state["config"])
        daemon._cold = {(int(i), int(g)): int(c)
                        for i, g, c in state["cold"]}
        daemon._dirty = {(int(i), int(g)) for i, g in state["dirty"]}
        daemon.scans = int(state["scans"])
        daemon._thread = None
        return daemon


__all__ = ["GRANULE_BYTES", "GRANULE_PAGES", "TierMap",
           "TieringConfig", "TieringDaemon"]
