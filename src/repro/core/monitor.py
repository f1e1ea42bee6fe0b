"""The MMU performance monitor (paper §IV-A1, Table III).

Persistent file tables save DRAM but make TLB misses dear (Table II).
DaxVM therefore watches two performance-counter-derived quantities per
process:

* ``AvgPageWalk``  = page-walk cycles / TLB misses,
* ``MMU overhead`` = page-walk cycles / execution cycles,

and when AvgPageWalk > 200 cycles **and** overhead > 5 %, it migrates
the hot files' tables to DRAM (building volatile copies and re-pointing
future attachments at them).  The monitor samples deltas of the VM
stats counters, exactly as a perf-counter sampling loop would.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.config import CostModel
from repro.core.filetable import FileTableManager
from repro.fs.vfs import Inode
from repro.obs import Counter
from repro.sim.engine import Engine
from repro.sim.stats import Stats


class MMUMonitor:
    """Periodic Table III rule evaluation + table migration."""

    def __init__(self, engine: Engine, costs: CostModel, stats: Stats,
                 filetables: FileTableManager):
        self.engine = engine
        self.costs = costs
        self.stats = stats
        self.filetables = filetables
        self._last_walk_cycles = 0.0
        self._last_misses = 0.0
        self._last_time = 0.0
        #: Optional ``inode -> bool`` predicate: inodes it approves are
        #: *skipped* by table migration.  A hypervisor quiesces table
        #: movement for files under an active post-copy migration —
        #: re-pointing attachments mid-pull would race the pulled-page
        #: bookkeeping (repro.virt sets and clears this).
        self.defer = None

    def sample(self) -> Tuple[float, float]:
        """Windowed (AvgPageWalk, MMU overhead) since the last sample."""
        walk = self.stats.get(Counter.VM_WALK_CYCLES)
        misses = self.stats.get(Counter.VM_TLB_MISSES)
        now = self.engine.now
        d_walk = walk - self._last_walk_cycles
        d_miss = misses - self._last_misses
        d_time = now - self._last_time
        self._last_walk_cycles = walk
        self._last_misses = misses
        self._last_time = now
        avg_walk = d_walk / d_miss if d_miss else 0.0
        overhead = d_walk / d_time if d_time else 0.0
        return avg_walk, overhead

    def should_migrate(self, avg_walk: float, overhead: float) -> bool:
        return (avg_walk > self.costs.monitor_walk_cycles
                and overhead > self.costs.monitor_mmu_overhead)

    def check(self, mapped_inodes: List[Inode]) -> float:
        """Evaluate the rule; migrate the inodes' tables if it fires.

        Returns the (asynchronous, background) cycles spent building
        volatile copies — callers normally do not charge these to the
        foreground thread, matching the paper's "builds asynchronously
        volatile tables" description.
        """
        avg_walk, overhead = self.sample()
        if not self.should_migrate(avg_walk, overhead):
            return 0.0
        cycles = 0.0
        defer = self.defer
        for inode in mapped_inodes:
            if defer is not None and defer(inode):
                continue
            cycles += self.filetables.migrate_to_dram(inode)
        return cycles
