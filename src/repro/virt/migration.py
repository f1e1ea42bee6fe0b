"""Post-copy live migration over a priced inter-machine link.

The state machine (one :class:`MigrationJob` per guest):

``PULLING`` ← pause → minimal-state handover → resume-on-destination.
    The triggering access pays the **downtime**: two VM exits, one
    link round trip and the handover transfer (vCPU registers, device
    state, the dirty bitmap — ``migrate_handover_bytes``).  Every
    other guest vCPU is frozen for the same window
    (``broadcast_interrupt`` restricted to the guest's cores).  After
    resume, accesses to not-yet-pulled pages VM-exit and **demand
    pull** them over the link; a background prefetch kthread streams
    the rest in batches.

``DEGRADED``
    A pull that times out (a device stall on the link raises
    :class:`~repro.errors.DeviceStallError`) walks a seeded, bounded
    retry ladder — exponential in-sim backoff, ``virt.pull_retries``
    — and, exhausted, falls back to remote-access pricing: unpulled
    pages are served from the source at ``migrate_degraded_factor``
    cost, without ever migrating.  A budget of such accesses bounds
    the agony.

``COMPLETED`` / ``ABORTED``
    Completed when the pulled set covers the residency snapshot.
    Aborted — rollback to a consistent source — when retries and the
    degraded budget are both spent, or when poisoned source pages can
    never transfer.  Rollback discards the destination's pulled pages
    and pays one reverse handover; the guest keeps running on the
    source, whose DAX files never stopped being authoritative.

Faults compose: the migration link is a :meth:`MediaFaults.link_touch`
client (bandwidth windows slow transfers, stalls trigger the retry
ladder), and a UE armed on a not-yet-pulled source page surfaces to
the guest as ``memory_failure()`` + SIGBUS at pull time — never
silently absorbed into the destination image.  All migration costs
are booked to the ``virt`` ledger domain.
"""

from __future__ import annotations

import enum
import random
from typing import Dict, List, Set, Tuple

from repro.errors import DeviceStallError
from repro.obs import CostDomain, Counter, charge
from repro.vm.vma import PAGE_SIZE

#: Residency-snapshot cap per mapping (pages).  Guests in this repo
#: map a few MB; the cap only guards against a pathological mapping
#: turning the snapshot set into the simulation's working set.
_SNAPSHOT_CAP = 1 << 15


class MigrationState(enum.Enum):
    PULLING = "pulling"
    DEGRADED = "degraded"
    COMPLETED = "completed"
    ABORTED = "aborted"

    def __str__(self) -> str:  # pragma: no cover - display aid
        return self.value


class MigrationJob:
    """One guest's post-copy migration, pause to settlement."""

    def __init__(self, hypervisor, guest):
        self.hypervisor = hypervisor
        self.guest = guest
        self.system = hypervisor.system
        self.engine = self.system.engine
        self.costs = self.system.costs
        self.stats = self.system.stats
        self.config = hypervisor.config
        self.rng = random.Random(self.config.seed ^ 0x5EED)
        self.state = MigrationState.PULLING
        #: (inode number, file page) resident on the source at pause.
        self.resident: Set[Tuple[int, int]] = set()
        #: Pages transferred to the destination so far.
        self.pulled: Set[Tuple[int, int]] = set()
        self._inodes: Dict[int, object] = {}
        self.degraded_count = 0
        self.degraded_reason = ""
        #: Poisoned pages that would have entered the destination image
        #: (must stay empty; the audit asserts on it).
        self.absorbed: List[Tuple[int, int]] = []
        #: Invariant breaches observed live (downtime bound, absorption).
        self.violations: List[str] = []

    # -- state queries ---------------------------------------------------
    @property
    def in_flight(self) -> bool:
        return self.state in (MigrationState.PULLING,
                              MigrationState.DEGRADED)

    # -- pause -> handover -> resume ------------------------------------
    def pause_and_handover(self):
        """Stop-the-world handover; runs on the triggering vCPU."""
        costs = self.costs
        self.stats.add(Counter.VIRT_MIGRATIONS_STARTED)
        self._snapshot_residency()
        self._set_defer()
        downtime = (2 * costs.vmexit_cost
                    + costs.migrate_link_latency
                    + costs.copy_cycles(costs.migrate_handover_bytes,
                                        costs.migrate_link_bw))
        self.stats.add(Counter.VIRT_DOWNTIME_CYCLES, downtime)
        if downtime > costs.migrate_downtime_budget:
            self.violations.append(
                f"downtime {downtime:.0f} cycles exceeds budget "
                f"{costs.migrate_downtime_budget:.0f}")
        self.engine.broadcast_interrupt(downtime, CostDomain.VIRT,
                                        "migration-pause",
                                        only=self._guest_threads())
        yield charge(CostDomain.VIRT, "downtime", downtime)
        if not self.resident:
            self._finish()
            return
        if self.config.prefetch:
            self.system.spawn(self._prefetcher(),
                              core=self.engine.cores[-1].index,
                              name="migrate-prefetchd", daemon=True)

    def _snapshot_residency(self) -> None:
        for vma in self.guest.vmas:
            inode = vma.inode
            if inode is None or vma not in inode.i_mmap:
                continue
            first_fp = vma.file_offset // PAGE_SIZE
            npages = min(max(1, vma.length // PAGE_SIZE), _SNAPSHOT_CAP)
            self._inodes[inode.number] = inode
            for fp in range(first_fp, first_fp + npages):
                self.resident.add((inode.number, fp))

    def _guest_threads(self):
        cores = self.guest.mm.active_cores
        return [thread for thread in self.engine.threads
                if thread.core.index in cores]

    # -- monitor quiescence ---------------------------------------------
    def _set_defer(self) -> None:
        """Quiesce table migration for files under the pull: the MMU
        monitor re-pointing attachments mid-pull would race the
        pulled-page bookkeeping."""
        dax = self.guest.process.daxvm
        if dax is None:
            return
        numbers = set(self._inodes)

        def defer(inode) -> bool:
            return self.in_flight and inode.number in numbers

        dax.monitor.defer = defer

    def _clear_defer(self) -> None:
        dax = self.guest.process.daxvm
        if dax is not None:
            dax.monitor.defer = None

    # -- the demand path -------------------------------------------------
    def on_guest_access(self, vma, first_page: int, last_page: int, *,
                        write: bool = False):
        inode = vma.inode
        if inode is None or inode.number not in self._inodes:
            return
        ino = inode.number
        need = [fp for fp in (vma.file_page(p)
                              for p in range(first_page, last_page + 1))
                if (ino, fp) in self.resident
                and (ino, fp) not in self.pulled]
        if not need:
            return
        if self.state is MigrationState.DEGRADED:
            yield from self._degraded_access(len(need))
            return
        # EPT violation on a not-yet-pulled page: exit to the VMM.
        yield charge(CostDomain.VIRT, "vmexit", self.costs.vmexit_cost)
        yield from self._pull(inode, need, demand=True)

    # -- pulling ----------------------------------------------------------
    def _pull(self, inode, fps: List[int], *, demand: bool):
        """Transfer ``fps`` of ``inode`` over the link (generator)."""
        faults = self.system.faults
        if faults is not None:
            clean = []
            for fp in fps:
                hit = faults.find_poisoned(inode, fp, fp)
                if hit is None:
                    clean.append(fp)
                    continue
                frame, page = hit
                self.stats.add(Counter.VIRT_PULL_POISONED)
                if demand:
                    # The source read machine-checks: surface it to the
                    # guest (unmap everywhere + SIGBUS), never copy it.
                    yield from self.guest.mm.memory_failure(inode, page,
                                                            frame)
                    self.guest.mm._raise_sigbus(inode, frame, page)
                # Prefetch skips the page; a demand access will surface
                # the poison with a guest-visible fault.
            fps = clean
        if not fps:
            return
        nbytes = len(fps) * PAGE_SIZE
        attempt = 0
        while True:
            try:
                yield from self._transfer(nbytes, demand=demand)
                break
            except DeviceStallError:
                if attempt >= self.costs.migrate_max_pull_retries:
                    if self.state is MigrationState.PULLING:
                        self._enter_degraded("pull retries exhausted")
                        if demand:
                            yield from self._degraded_access(len(fps))
                    else:
                        yield from self._abort()
                    return
                backoff = (self.costs.migrate_retry_backoff
                           * (2 ** attempt)
                           * (0.75 + 0.5 * self.rng.random()))
                self.stats.add(Counter.VIRT_PULL_RETRIES)
                yield charge(CostDomain.VIRT, "pull-retry-backoff",
                             backoff)
                attempt += 1
        ino = inode.number
        for fp in fps:
            if faults is not None and \
                    faults.find_poisoned(inode, fp, fp) is not None:
                # A UE armed *during* the transfer (a concurrent thread
                # touched the source page while our link copy was in
                # flight): refuse the page rather than absorb it.  It
                # stays unpulled — a demand access surfaces the SIGBUS,
                # and finalize rolls back if the poison never clears.
                self.stats.add(Counter.VIRT_PULL_POISONED)
                continue
            self.pulled.add((ino, fp))
        self.stats.add(Counter.VIRT_PAGES_PULLED, len(fps))
        if not demand:
            self.stats.add(Counter.VIRT_PREFETCHED_PAGES, len(fps))
        if self.resident <= self.pulled:
            self._finish()

    def _transfer(self, nbytes: int, *, demand: bool):
        """One link transfer attempt; raises DeviceStallError on a
        timeout (armed link stall)."""
        costs = self.costs
        faults = self.system.faults
        stall, factor = (faults.link_touch(
            "migrate-pull" if demand else "migrate-prefetch", nbytes)
            if faults is not None else (0.0, 1.0))
        if stall > 0.0:
            timeout = min(stall, costs.migrate_pull_timeout)
            yield charge(CostDomain.VIRT, "pull-timeout", timeout)
            raise DeviceStallError(
                f"migration link stalled for {stall:.0f} cycles "
                f"(pull timed out after {timeout:.0f})")
        cost = (costs.migrate_link_latency
                + costs.copy_cycles(nbytes,
                                    costs.migrate_link_bw / factor))
        yield charge(CostDomain.VIRT,
                     "page-pull" if demand else "prefetch-pull", cost)

    # -- the prefetch kthread ---------------------------------------------
    def _prefetcher(self):
        """Background page puller (daemon thread; dies with the run).

        Streams unpulled resident pages in batches every
        ``migrate_prefetch_interval`` cycles, grouped by inode in
        sorted order for determinism.  Bails when the state machine
        leaves PULLING or when an iteration makes no progress (only
        poisoned pages remain — those are the demand path's to
        surface)."""
        costs = self.costs
        while self.state is MigrationState.PULLING:
            yield charge(CostDomain.VIRT, "prefetch-idle",
                         costs.migrate_prefetch_interval)
            if self.state is not MigrationState.PULLING:
                break
            remaining = sorted(self.resident - self.pulled)
            if not remaining:
                break
            batch = remaining[:costs.migrate_prefetch_batch]
            by_ino: Dict[int, List[int]] = {}
            for ino, fp in batch:
                by_ino.setdefault(ino, []).append(fp)
            before = len(self.pulled)
            for ino in sorted(by_ino):
                inode = self._inodes.get(ino)
                if inode is None:
                    continue
                yield from self._pull(inode, by_ino[ino], demand=False)
                if self.state is not MigrationState.PULLING:
                    break
            if len(self.pulled) == before and \
                    self.state is MigrationState.PULLING:
                break

    # -- degraded mode ----------------------------------------------------
    def _enter_degraded(self, reason: str) -> None:
        self.state = MigrationState.DEGRADED
        self.degraded_reason = reason

    def _degraded_access(self, npages: int):
        """Serve an unpulled page remotely from the source: no
        migration progress, remote-access pricing with the degraded
        surcharge; a budget of these bounds the fallback."""
        costs = self.costs
        self.degraded_count += 1
        self.stats.add(Counter.VIRT_DEGRADED_ACCESSES)
        cost = costs.migrate_degraded_factor * (
            costs.migrate_link_latency
            + costs.copy_cycles(npages * PAGE_SIZE,
                                costs.migrate_link_bw))
        yield charge(CostDomain.VIRT, "degraded-access", cost)
        if self.degraded_count > costs.migrate_degraded_budget:
            yield from self._abort()

    # -- settlement -------------------------------------------------------
    def _finish(self) -> None:
        self.state = MigrationState.COMPLETED
        self.stats.add(Counter.VIRT_MIGRATIONS_COMPLETED)
        self._clear_defer()

    def _abort(self):
        """Roll back to a consistent source (generator)."""
        if not self.in_flight:
            return
        self.state = MigrationState.ABORTED
        self.stats.add(Counter.VIRT_MIGRATIONS_ABORTED)
        # Destination discards its partial image; the source's DAX
        # files were authoritative throughout, so nothing replays.
        self.pulled.clear()
        self._clear_defer()
        cost = (self.costs.migrate_link_latency
                + self.costs.copy_cycles(self.costs.migrate_handover_bytes,
                                         self.costs.migrate_link_bw))
        yield charge(CostDomain.VIRT, "rollback", cost)

    def _rollback_now(self) -> None:
        """Abort outside the engine (post-run settlement)."""
        self.state = MigrationState.ABORTED
        self.stats.add(Counter.VIRT_MIGRATIONS_ABORTED)
        self.pulled.clear()
        self._clear_defer()

    def finalize(self) -> None:
        """Post-run settlement: the job must end completed or aborted.

        Runs after ``system.run()``, outside the engine.  A still-
        pulling job streams its remaining clean pages in a final
        background sweep (the source is quiescent; no guest impact); a
        degraded job never converges and rolls back; remaining
        poisoned pages also force a rollback — they can never be
        copied.
        """
        if not self.in_flight:
            return
        if self.state is MigrationState.DEGRADED:
            self._rollback_now()
            return
        remaining = self.resident - self.pulled
        poisoned_left = {key for key in remaining
                         if self._poisoned_key(key)}
        sweep = remaining - poisoned_left
        if poisoned_left:
            self._rollback_now()
            return
        self.pulled |= sweep
        if sweep:
            self.stats.add(Counter.VIRT_PAGES_PULLED, len(sweep))
        self._finish()

    def _poisoned_key(self, key: Tuple[int, int]) -> bool:
        faults = self.system.faults
        if faults is None:
            return False
        inode = self._inodes.get(key[0])
        return (inode is not None
                and faults.find_poisoned(inode, key[1], key[1])
                is not None)


__all__ = ["MigrationJob", "MigrationState"]
