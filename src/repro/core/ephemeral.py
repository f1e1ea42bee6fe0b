"""The ephemeral-mapping address space manager (paper §IV-B).

Applications that open many small files, read them once and close them
issue streams of m(un)map pairs and nothing else.  The baseline makes
every one of those a *writer* on ``mmap_sem`` plus red-black-tree
churn; that serialisation is what flattens Figs. 1b and 8a beyond a
few cores.

DaxVM gives such mappings a dedicated heap: a pre-reserved virtual
region carved linearly under a private spinlock, with the global
semaphore taken only as a **reader**.  Regions are 1 GB; a region's
addresses recycle only when every mapping inside it has died (a live
counter), so allocation is a pointer bump and free is a decrement —
the stripped-down, fast critical sections that make the lock scale.

Ephemeral VMAs are not recorded in ``mm_rb``; they live in the heap's
own table (and remain visible to the file system through the inode's
``i_mmap`` list, so truncation can force-unmap them).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import CostModel
from repro.errors import AddressSpaceError
from repro.obs import Counter, CostDomain, charge
from repro.sim.engine import Engine
from repro.sim.locks import Spinlock
from repro.sim.stats import Stats
from repro.vm.mm import MMStruct
from repro.vm.vma import PAGE_SIZE, VMA

PMD_SIZE = 2 << 20


class _Region:
    """One 1 GB slice of the ephemeral heap."""

    __slots__ = ("base", "size", "bump", "live")

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size
        self.bump = 0
        self.live = 0

    @property
    def exhausted(self) -> bool:
        return self.bump >= self.size


class EphemeralHeap:
    """Scalable (de)allocation of short-lived mapping addresses."""

    def __init__(self, engine: Engine, mm: MMStruct, costs: CostModel,
                 stats: Stats):
        self.engine = engine
        self.mm = mm
        self.costs = costs
        self.stats = stats
        self.region_bytes = costs.ephemeral_region_bytes
        self.lock = Spinlock(engine, costs, f"{mm.name}.ephemeral")
        self._regions: List[_Region] = []
        self._recycled: List[_Region] = []
        self._current: Optional[_Region] = None
        #: The heap's own VMA table (replaces mm_rb for these mappings).
        self.vmas: Dict[int, VMA] = {}

    # -- region management (no simulated cost: rare, setup-ish) ----------
    def _grow(self) -> _Region:
        if self._recycled:
            region = self._recycled.pop()
            region.bump = 0
        else:
            base = self.mm.layout.allocate(self.region_bytes,
                                           align=self.region_bytes)
            region = _Region(base, self.region_bytes)
            self._regions.append(region)
        return region

    # -- allocation -----------------------------------------------------------
    def allocate(self, size: int, align: int = PMD_SIZE):
        """Carve an aligned range; generator, returns the address.

        Callers hold ``mmap_sem`` as *readers*; the heap spinlock plus
        an atomic metadata update are the only serialisation.
        """
        if size <= 0 or size % PAGE_SIZE:
            raise AddressSpaceError(f"bad ephemeral size {size:#x}")
        yield from self.lock.acquire()
        yield charge(CostDomain.SYSCALL, "ephemeral-alloc",
                     self.costs.atomic_rmw)
        if self._current is None or \
                self._current.bump + size + align > self._current.size:
            self._current = self._grow()
        region = self._current
        start = region.base + region.bump
        start = -(-start // align) * align
        region.bump = (start + size) - region.base
        region.live += 1
        self.stats.add(Counter.DAXVM_EPHEMERAL_ALLOCS)
        yield from self.lock.release()
        return start

    def record(self, vma: VMA) -> None:
        """Track an ephemeral VMA in the heap's table (lock held by
        the caller's allocate/free critical section pattern)."""
        self.vmas[vma.start] = vma

    def free(self, vma: VMA):
        """Release an ephemeral VMA's addresses; generator."""
        yield from self.lock.acquire()
        yield charge(CostDomain.SYSCALL, "ephemeral-free",
                     self.costs.atomic_rmw)
        self.vmas.pop(vma.start, None)
        region = self._region_of(vma.start)
        if region is not None:
            region.live -= 1
            if region.live == 0 and region is not self._current:
                # Whole region quiesced: its addresses recycle.
                self._recycled.append(region)
                self.stats.add(Counter.DAXVM_EPHEMERAL_REGION_RECYCLES)
        yield from self.lock.release()

    def _region_of(self, addr: int) -> Optional[_Region]:
        for region in self._regions:
            if region.base <= addr < region.base + region.size:
                return region
        return None

    def contains(self, addr: int) -> bool:
        return self._region_of(addr) is not None
