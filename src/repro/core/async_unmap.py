"""Asynchronous, batched munmap (paper §IV-C).

With MAP_UNMAP_ASYNC, ``daxvm_munmap`` merely marks the VMA a *zombie*
and returns; translations and TLB entries stay live.  When the total
zombie page count crosses a threshold (default: the same 33 pages at
which Linux prefers a full flush; the §V-C ablation raises it to 512),
the munmap request that crossed it tears all zombies down at once and
issues **one full TLB flush** to the process's cores — replacing many
fine-grained shootdown IPIs with a single cheap one.

Safety (paper §IV-C, §IV-G): virtual addresses are not recycled until
after the flush, and the file system forces a synchronous reap of an
inode's zombies before its storage blocks are reclaimed
(:meth:`AsyncUnmapper.force_sync_for_inode`).  The cost of a larger
batch is a longer window in which user space can still touch
"unmapped" data.
"""

from __future__ import annotations

from typing import Callable, List

from repro.config import CostModel
from repro.fs.vfs import Inode
from repro.obs import Counter, CostDomain, charge
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.vm.mm import MMStruct
from repro.vm.vma import VMA

#: Callback that releases a zombie VMA's virtual addresses; wired to
#: either the ephemeral heap or the regular layout by the interface.
Releaser = Callable[[VMA], object]


class AsyncUnmapper:
    """Zombie VMA tracking and batched teardown for one process."""

    def __init__(self, engine: Engine, mm: MMStruct, costs: CostModel,
                 stats: Stats, batch_pages: int = None):
        self.engine = engine
        self.mm = mm
        self.costs = costs
        self.stats = stats
        self.batch_pages = (batch_pages if batch_pages is not None
                            else costs.async_unmap_batch_pages)
        self._zombies: List[VMA] = []
        self._zombie_pages = 0

    @property
    def pending_vmas(self) -> int:
        return len(self._zombies)

    def defer(self, vma: VMA, releaser: Releaser):
        """Queue a VMA for deferred unmapping; maybe reap.  Generator."""
        vma.zombie = True
        vma._releaser = releaser
        self._zombies.append(vma)
        self._zombie_pages += vma.mapped_pages or vma.num_pages
        self.stats.add(Counter.DAXVM_UNMAPS_DEFERRED)
        yield charge(CostDomain.SYSCALL, "unmap-defer",
                     self.costs.atomic_rmw)
        if self._zombie_pages > self.batch_pages:
            yield from self.reap()

    def reap(self):
        """Tear down every zombie, then one full TLB flush. Generator."""
        if not self._zombies:
            return
        zombies, self._zombies = self._zombies, []
        pages, self._zombie_pages = self._zombie_pages, 0
        teardown = 0.0
        for vma in zombies:
            self.mm.scheme.clear_range(vma.start, vma.length)
            # A zombie can carry both PMD attachments (DaxVM file
            # tables) and individually faulted PTEs (regular mappings
            # deferred through MAP_UNMAP_ASYNC); tear down each for
            # what it actually installed.
            teardown += (len(vma.attachments) * self.costs.pmd_attach
                         + len(vma.populated) * self.costs.pte_teardown)
        yield charge(CostDomain.SYSCALL, "zombie-teardown", teardown)
        yield from self.mm.shootdowns.flush(
            self.mm._initiator_core(), self.mm.active_cores, pages,
            force_full=True)
        # Only now is it safe to recycle the virtual addresses.
        for vma in zombies:
            if vma.inode is not None and vma in vma.inode.i_mmap:
                vma.inode.i_mmap.remove(vma)
            yield from vma._releaser(vma)
            vma.zombie = False
        self.stats.add(Counter.DAXVM_ZOMBIE_REAPS)
        self.stats.add(Counter.DAXVM_ZOMBIE_PAGES_REAPED, pages)

    def force_sync_for_inode(self, inode: Inode):
        """FS race guard: reap before the inode's blocks are reclaimed."""
        if any(vma.inode is inode for vma in self._zombies):
            self.stats.add(Counter.DAXVM_FORCED_SYNC_UNMAPS)
            yield from self.reap()
