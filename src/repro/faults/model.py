"""The live fault state machine one simulated machine carries.

:class:`MediaFaults` is attached to a :class:`repro.system.System`
(``system.attach_faults``) and sits on the two instrumented media
paths:

* the FS read/append path calls :meth:`block_touch` with the physical
  blocks under the I/O window (before consulting the badblocks list);
* the VM mapped-access path calls :meth:`map_touch` with the file-page
  window (before any translation is touched).

Each call advances the **touch clock** by exactly one.  When the clock
reaches an armed :class:`~repro.faults.plan.FaultSite`, the site
fires: an uncorrectable error marks a block bad (and, for mapped
touches, poisons the backing frame so ``memory_failure()`` + SIGBUS
run), a bandwidth window multiplies media latency through the
interference stack for the next ``duration`` touches, and a stall
returns cycles for the caller to charge.

In **probe** mode nothing fires; the model only records a
:class:`~repro.faults.plan.TouchRecord` per touch, from which
:meth:`FaultPlan.generate` draws sites.

Everything the machine *does about* a fault is observable: counters
(``faults.*``), the :data:`CostDomain.FAULTS` ledger domain (charged
by the kernel paths, not here), and the running totals this class
keeps for summaries.  A UE that fires is accounted until it is
remapped, cleared, or SIGBUS-delivered — silent loss is a bug by
construction and the injector asserts against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import (
    FaultKind,
    FaultPlan,
    FaultSite,
    TouchRecord,
)
from repro.obs import Counter


@dataclass
class SiteOutcome:
    """What became of one armed site (filled in by the injector)."""

    touch: int
    kind: FaultKind
    outcome: str
    violations: List[str] = field(default_factory=list)
    bytes_lost: int = 0
    handling_cycles: float = 0.0


class MediaFaults:
    """Deterministic fault clock + poison/window/stall bookkeeping."""

    def __init__(self, plan: FaultPlan, probe: bool = False):
        self.plan = plan
        #: Probe mode: record touches, never fire.
        self.records: Optional[List[TouchRecord]] = [] if probe else None
        self.clock = 0
        #: frame -> (inode number, path, file page, device block) for
        #: every currently-poisoned frame.
        self.poisoned: Dict[int, Tuple[int, str, int, int]] = {}
        #: Sites that fired this run, in firing order.
        self.fired: List[FaultSite] = []
        #: Open bandwidth windows: (factor, expires-at-clock).
        self._windows: List[Tuple[float, int]] = []
        #: Open *migration-link* bandwidth windows (repro.virt).  Kept
        #: apart from media windows: a degraded inter-node link slows
        #: page pulls, not local media accesses.
        self._link_windows: List[Tuple[float, int]] = []
        self.system = None
        # Running totals (mirrored into faults.* counters).
        self.armed = 0
        self.remapped = 0
        self.cleared = 0
        self.quarantined = 0
        self.bytes_lost = 0
        self.bw_entered = 0
        self.stalls = 0

    # -- wiring --------------------------------------------------------
    def bind(self, system) -> None:
        """Called by ``System.attach_faults``."""
        self.system = system

    @property
    def _stats(self):
        return self.system.stats

    @property
    def _device(self):
        return self.system.fs.device

    # -- the touch clock ----------------------------------------------
    def block_touch(self, kind: str, inode, blocks: Sequence[int]) -> float:
        """FS read/append window over physical ``blocks``.

        Returns stall cycles for the caller to charge (0 almost
        always).  A UE arming here marks the first block bad; the
        caller's badblocks scan, which runs next, services it.
        """
        stall, _armed = self._touch(kind, inode, list(blocks),
                                    allow_ue=True, mapped=False)
        return stall

    def map_touch(self, kind: str, inode, first_page: int, last_page: int,
                  allow_ue: bool) -> Tuple[float, Optional[Tuple[int, int]]]:
        """Mapped-access window over file pages.

        Returns ``(stall_cycles, armed)`` where ``armed`` is
        ``(frame, file_page)`` when a UE just poisoned a frame in the
        window — the caller must run ``memory_failure()`` and deliver
        SIGBUS.
        """
        pages = list(range(first_page, last_page + 1))
        return self._touch(kind, inode, pages, allow_ue=allow_ue,
                           mapped=True)

    def link_touch(self, kind: str, nbytes: int) -> Tuple[float, float]:
        """Migration-link transfer window (one touch per pull or
        prefetch batch over the inter-node link).

        Returns ``(stall_cycles, bw_factor)``: non-zero stall cycles
        mean the transfer timed out at the device (the caller raises
        :class:`~repro.errors.DeviceStallError` and walks its retry
        ladder), and ``bw_factor`` (>= 1.0, the product of open link
        windows) multiplies the transfer's latency.  UEs never arm on
        the link itself — the link corrupts nothing end-to-end (CRC +
        retry is the stall path), so a UE site whose clock index lands
        on a link touch stays latent, exactly like an ineligible media
        touch.
        """
        index = self.clock
        self.clock += 1
        self._expire_windows(index)
        self._expire_link_windows(index)
        if self.records is not None:
            self.records.append(TouchRecord(
                index=index, category=kind, ue_eligible=False,
                targets=max(1, nbytes >> 12)))
            return 0.0, self._link_factor()
        site = self.plan.site_at(index)
        if site is None:
            return 0.0, self._link_factor()
        if site.kind is FaultKind.STALL:
            self.fired.append(site)
            self.stalls += 1
            self._stats.add(Counter.FAULTS_STALL_EPISODES)
            return site.stall_cycles, self._link_factor()
        if site.kind is FaultKind.BW_WINDOW:
            self.fired.append(site)
            self.bw_entered += 1
            self._link_windows.append((site.factor, index + site.duration))
            self._stats.add(Counter.FAULTS_BW_WINDOWS)
            return 0.0, self._link_factor()
        # UE site on a link touch: stays latent (not ue-eligible).
        return 0.0, self._link_factor()

    def _expire_link_windows(self, index: int) -> None:
        self._link_windows = [(factor, expires_at)
                              for factor, expires_at in self._link_windows
                              if index < expires_at]

    def _link_factor(self) -> float:
        factor = 1.0
        for window_factor, _expires_at in self._link_windows:
            factor *= window_factor
        return factor

    def _touch(self, kind: str, inode, targets: List[int],
               allow_ue: bool, mapped: bool):
        index = self.clock
        self.clock += 1
        self._expire_windows(index)
        if self.records is not None:
            self.records.append(TouchRecord(
                index=index, category=kind,
                ue_eligible=allow_ue and bool(targets),
                targets=len(targets)))
            return 0.0, None
        site = self.plan.site_at(index)
        if site is None:
            return 0.0, None
        if site.kind is FaultKind.STALL:
            self.fired.append(site)
            self.stalls += 1
            self._stats.add(Counter.FAULTS_STALL_EPISODES)
            return site.stall_cycles, None
        if site.kind is FaultKind.BW_WINDOW:
            self.fired.append(site)
            self.bw_entered += 1
            self.system.mem.enter_interference(site.factor, node=0)
            self._windows.append((site.factor, index + site.duration))
            self._stats.add(Counter.FAULTS_BW_WINDOWS)
            return 0.0, None
        # Uncorrectable error.  The plan only arms UEs on eligible
        # touches; a mismatch (replica drift) stays latent rather than
        # corrupting state — the injector reports it as a violation.
        if not allow_ue or not targets:
            return 0.0, None
        if mapped:
            armed = self._arm_map_ue(site, inode, targets[0])
        else:
            armed = self._arm_block_ue(site, targets[0])
        return 0.0, armed

    def _expire_windows(self, index: int) -> None:
        still_open = []
        for factor, expires_at in self._windows:
            if index >= expires_at:
                self.system.mem.exit_interference(factor, node=0)
            else:
                still_open.append((factor, expires_at))
        self._windows = still_open

    def _arm_block_ue(self, site: FaultSite, block: int):
        self._device.mark_bad(block)
        self.fired.append(site)
        self.armed += 1
        self._stats.add(Counter.FAULTS_UE_ARMED)
        return None

    def _arm_map_ue(self, site: FaultSite, inode, file_page: int):
        frame = self.system.fs.frame_for_page(inode, file_page)
        if frame is None:
            return None
        block = self._device.block_of(frame)
        self._device.mark_bad(block)
        self.poisoned[frame] = (inode.number, inode.path, file_page, block)
        self.fired.append(site)
        self.armed += 1
        self._stats.add(Counter.FAULTS_UE_ARMED)
        return (frame, file_page)

    # -- poison queries (VM fast paths) --------------------------------
    def poisoned_frame(self, frame: int) -> bool:
        return frame in self.poisoned

    def find_poisoned(self, inode, first_page: int,
                      last_page: int) -> Optional[Tuple[int, int]]:
        """First poisoned (frame, file_page) of ``inode`` in the window."""
        for frame, (ino, _path, page, _block) in self.poisoned.items():
            if ino == inode.number and first_page <= page <= last_page:
                return frame, page
        return None

    def poisoned_in(self, inode, first_page: int, last_page: int) -> bool:
        return self.find_poisoned(inode, first_page, last_page) is not None

    # -- handling notifications (kernel paths report back) --------------
    def note_remapped(self, old_physical: int, new_physical: int,
                      lost_bytes: int) -> None:
        """FS remapped a bad block; ``lost_bytes`` > 0 on the read path
        (the old contents were unreadable — accounted, never silent)."""
        self.remapped += 1
        self.quarantined += 1
        self.bytes_lost += lost_bytes
        frame = self._device.frame_of(old_physical)
        self.poisoned.pop(frame, None)
        self._stats.add(Counter.FAULTS_UE_REMAPPED)
        self._stats.add(Counter.FAULTS_BLOCKS_QUARANTINED)
        if lost_bytes:
            self._stats.add(Counter.FAULTS_BYTES_LOST, lost_bytes)
        _ = new_physical  # symmetry with the FS call site

    def note_cleared(self, physical: int) -> None:
        """A full-block nt-store overwrite cleared the error in place
        (the DAX clear-poison path); any frame poison lifts with it."""
        self.cleared += 1
        frame = self._device.frame_of(physical)
        self.poisoned.pop(frame, None)
        self._stats.add(Counter.FAULTS_UE_CLEARED)
        self._stats.add(Counter.FAULTS_CLEAR_POISON_CALLS)

    def note_sigbus(self) -> None:
        self._stats.add(Counter.FAULTS_SIGBUS_DELIVERED)

    def note_memory_failure(self, ptes: int) -> None:
        self._stats.add(Counter.FAULTS_MEMORY_FAILURES)
        if ptes:
            self._stats.add(Counter.FAULTS_PTES_UNMAPPED, ptes)


__all__ = ["MediaFaults", "SiteOutcome"]
