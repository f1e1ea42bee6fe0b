"""Asynchronous storage block pre-zeroing (paper §IV-E).

DAX memory-mapped appends must hand user space *zeroed* blocks —
otherwise stale data from deleted files leaks — which doubles the
writes of every MM append (§III-B: ~30-40 % of append latency).
DaxVM moves that zeroing off the critical path: the file system's free
operations are intercepted, freed runs sit on per-core lists, and a
rate-limited kernel thread zeroes them with nt-stores *before*
returning them to the block allocator.  Allocations that receive
pre-zeroed blocks skip synchronous zeroing entirely (the base
FileSystem consults the device's zeroed-interval set).

Bandwidth discipline: the kthread is throttled (default 64 MB/s, the
paper's evaluated setting) and its PMem traffic steals a small slice
of foreground bandwidth, reproducing the 5-10 % interference of the
§V-C ablation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.config import CostModel
from repro.fs.base import FileSystem
from repro.fs.block import BLOCK_SIZE
from repro.mem.latency import BandwidthThrottle, MemoryModel
from repro.obs import Counter, CostDomain, charge
from repro.sim.engine import Engine
from repro.sim.stats import Stats


class PreZeroDaemon:
    """The background zeroing kthread plus its per-core free lists."""

    #: Optane media-interference multiplier applied to foreground
    #: PMem traffic while the daemon is actively zeroing (the paper's
    #: §V-C ablation measures 5-10 % at the 64 MB/s throttle; the
    #: penalty comes from mixed read/write media behaviour, FAST'20).
    MEDIA_INTERFERENCE = 1.07
    #: Idle poll period (cycles) when no work is pending.
    IDLE_PERIOD = 200_000.0

    def __init__(self, engine: Engine, fs: FileSystem, costs: CostModel,
                 mem: MemoryModel, stats: Stats):
        self.engine = engine
        self.fs = fs
        self.costs = costs
        self.mem = mem
        self.stats = stats
        self.throttle = BandwidthThrottle(costs.prezero_throttle_bw,
                                          costs.machine.freq_hz)
        self._lists: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(costs.machine.num_cores)]
        self._pending_blocks = 0
        fs.free_interceptor = self.intercept
        #: Node whose media the daemon is currently disturbing (None
        #: when idle).  Interference is entered/exited — never written
        #: as a scalar — so concurrent daemons on other nodes keep
        #: their own penalties.
        self._active_node: "int | None" = None

    # -- FS integration ---------------------------------------------------
    def intercept(self, runs: List[Tuple[int, int]]) -> bool:
        """Take ownership of freed runs (per-core list by current core)."""
        current = self.engine.current
        core = current.core.index if current is not None else 0
        lst = self._lists[core % len(self._lists)]
        for run in runs:
            lst.append(run)
            self._pending_blocks += run[1]
        self.stats.add(Counter.DAXVM_PREZERO_QUEUED_BLOCKS,
                       sum(r[1] for r in runs))
        return True

    @property
    def pending_blocks(self) -> int:
        return self._pending_blocks

    # -- the kthread -----------------------------------------------------------
    def start(self, core: int = 0) -> None:
        """Spawn the daemon thread on an (ideally idle) core."""
        self.engine.spawn(
            self._run(), core=core, name="prezero-kthread", daemon=True)

    def _next_run(self) -> Tuple[int, int]:
        for lst in self._lists:
            if lst:
                self._pending_blocks -= lst[0][1]
                return lst.popleft()
        raise LookupError

    def _node_of_block(self, block: int) -> int:
        """NUMA node whose PMem a device block occupies (0 when the
        machine is uniform or the frame map is not wired up)."""
        if (self.mem.topology is None or self.mem.topology.num_nodes == 1
                or self.mem.node_of_frame is None):
            return 0
        try:
            return self.mem.node_of_frame(self.fs.device.frame_of(block))
        except Exception:
            return 0

    def _set_interfering(self, node: "int | None") -> None:
        """Move the daemon's media-interference claim between nodes
        (``None`` releases it) via counted enter/exit — an idle tick
        can no longer clobber another stream's penalty."""
        if node == self._active_node:
            return
        if self._active_node is not None:
            self.mem.exit_interference(PreZeroDaemon.MEDIA_INTERFERENCE,
                                       self._active_node)
        if node is not None:
            self.mem.enter_interference(PreZeroDaemon.MEDIA_INTERFERENCE,
                                        node)
        self._active_node = node

    def _run(self):
        while True:
            try:
                start, length = self._next_run()
            except LookupError:
                self._set_interfering(None)
                yield charge(CostDomain.ZEROING, "prezero-idle",
                             PreZeroDaemon.IDLE_PERIOD)
                continue
            # While the daemon streams nt-stores, concurrent PMem
            # traffic on the same socket pays the media-interference
            # penalty.
            self._set_interfering(self._node_of_block(start))
            nbytes = length * BLOCK_SIZE
            delay = self.throttle.delay_for(nbytes, self.engine.now)
            zero_cycles = self.mem.zero(nbytes)
            yield charge(CostDomain.ZEROING, "prezero-zero",
                         delay + zero_cycles)
            self.fs.zeroed.add(start, start + length)
            self.fs.device.free(start, length)
            self.stats.add(Counter.DAXVM_BLOCKS_PREZEROED, length)
            if self._pending_blocks == 0:
                self._set_interfering(None)

    # -- experiment helpers -------------------------------------------------
    def drain_now(self) -> int:
        """Zero everything pending immediately (no cost): setup helper."""
        drained = 0
        for lst in self._lists:
            while lst:
                start, length = lst.popleft()
                self.fs.zeroed.add(start, start + length)
                self.fs.device.free(start, length)
                drained += length
        self._pending_blocks = 0
        return drained

    def prezero_all_free(self) -> None:
        """Mark the device's entire free space zeroed (setup helper,
        the Fig. 9c "pre-zeroed in advance" configuration)."""
        for extent in self.fs.device._free:
            self.fs.zeroed.add(extent.start, extent.end)
