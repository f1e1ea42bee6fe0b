"""Memory access cost functions and bandwidth throttling.

These pure functions translate "touch N bytes on medium M in pattern P"
into cycles, encoding the micro-architectural observations of §III-C of
the paper:

* user-space code reading a fresh DAX mapping pays PMem latency /
  bandwidth, while a ``read()`` system call's copy prefetches the data
  into the cache hierarchy, so subsequent user-space processing runs at
  cache speed;
* nt-stores deliver roughly double the PMem write bandwidth of regular
  stores followed by clwb/sfence flushes (Yang et al., FAST'20);
* kernel copies cannot use AVX-512 (register save/restore across the
  boundary), so they run at a discounted bandwidth.

Since the memory-tier refactor every cost here dispatches through the
:class:`~repro.mem.tiers.MediumSpec` registry — no function branches on
a specific :class:`~repro.mem.physmem.Medium` member, and an unknown
medium raises instead of silently pricing as PMem.  For DRAM and PMem
the specs carry the historical constants verbatim and the expressions
below combine them in the historical order, so DRAM+PMem-only machines
are bit-identical to the pre-refactor model (held by the ``tier``
golden gate).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.config import CostModel
from repro.errors import InvalidArgumentError
from repro.mem.physmem import Medium
from repro.mem.tiers import medium_specs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology import MachineTopology


class SharedBandwidth:
    """The PMem device's aggregate read/write bandwidth ceilings.

    Single-threaded runs never feel these (one thread's streaming rate
    sits well below the device total); at high thread counts they are
    what flattens every interface's scaling curve, read() included.
    """

    def __init__(self, read_bw: float, write_bw: float, freq_hz: float):
        self.read_bw = read_bw
        self.write_bw = write_bw
        self.freq_hz = freq_hz
        self._read = BandwidthThrottle(read_bw, freq_hz)
        self._write = BandwidthThrottle(write_bw, freq_hz)
        #: Optional proportional-admission hook (duck-typed, installed
        #: by repro.tenancy when quotas are on): ``extra_delay(pool,
        #: read_bytes, write_bytes, now)`` rate-caps the *current
        #: tenant's* traffic at its weighted share of the pool without
        #: consuming anyone else's tokens.  ``None`` = unweighted.
        self.admission = None

    # A transfer moves its bytes one way, so it takes one of the two
    # waits below.  Each is one token-bucket step of the direction's
    # bucket (:meth:`BandwidthThrottle.delay_for` inlined, with its
    # arithmetic in its order), then the admission hook, if any.
    def delay_read(self, nbytes: int, now: float) -> float:
        """Cycles until the device can complete a read of ``nbytes``
        (a positive int)."""
        bucket = self._read
        paid_until = bucket._paid_until
        paid_until = bucket._paid_until = (
            (paid_until if paid_until > now else now)
            + nbytes / bucket.bytes_per_cycle)
        wait = paid_until - now
        if self.admission is not None:
            extra = self.admission.extra_delay(self, nbytes, 0, now)
            if extra > wait:
                wait = extra
        return wait

    def delay_write(self, nbytes: int, now: float) -> float:
        """Cycles until the device can complete a write of ``nbytes``
        (a positive int)."""
        bucket = self._write
        paid_until = bucket._paid_until
        paid_until = bucket._paid_until = (
            (paid_until if paid_until > now else now)
            + nbytes / bucket.bytes_per_cycle)
        wait = paid_until - now
        if self.admission is not None:
            extra = self.admission.extra_delay(self, 0, nbytes, now)
            if extra > wait:
                wait = extra
        return wait


class MemoryModel:
    """Cycle costs for loads, stores, copies and flushes."""

    def __init__(self, costs: CostModel):
        self.costs = costs
        #: The pluggable tier registry: every pricing decision below
        #: reads the touched medium's spec instead of branching on the
        #: enum.  Indexing it with an unknown medium raises
        #: InvalidArgumentError (:class:`~repro.mem.tiers.MediumRegistry`).
        self.specs = medium_specs(costs)
        #: Optional :class:`repro.tiering.TierMap` — the hot/cold data
        #: placement overlay consulted by the VM access path and the
        #: FS copy paths.  ``None`` (the default) means all file data
        #: lives on the device's native medium, which reproduces the
        #: pre-tiering model exactly.
        self.tiers = None
        #: Per-node device-level contention pools, one per NUMA node
        #: (entries may be ``None``): the handle the mapped-access path
        #: prices its pool wait on.  Set by System, ``(None,)`` in unit
        #: use.  :meth:`set_pools` replaces the whole tuple, so a
        #: reboot's new pools are what every later read sees.
        self.pools: Tuple[Optional[SharedBandwidth], ...] = (None,)
        #: Optane media interference: background write streams
        #: (pre-zeroing) disturb concurrent accesses beyond their
        #: bandwidth share (FAST'20's mixed-traffic penalty).  Kept as
        #: a per-node stack of active factors so multiple background
        #: streams compose (enter/exit) instead of clobbering a scalar.
        self._interference: List[List[float]] = [[]]
        #: Bumped on every change to an interference stack.  A price
        #: memoised in one epoch (the VM access path's shape memo) may
        #: be stale in the next; every other input of a price is an
        #: argument or the frozen cost model.
        self.interference_epoch = 0
        #: Static NUMA description + frame->node recovery; wired by
        #: System via :meth:`set_topology`, absent in unit use (which
        #: then behaves exactly like the uniform pre-topology model).
        self.topology: Optional["MachineTopology"] = None
        self.node_of_frame: Optional[Callable[[int], int]] = None
        #: Optional :class:`repro.crash.PersistenceDomain`, the
        #: machine's durability record.  The VM access path reports its
        #: stores to it; the pricing functions below never touch it, so
        #: every price is a pure function of its arguments and the
        #: model's state (calling one twice changes nothing).
        self.persistence = None
        #: Optional :class:`repro.faults.MediaFaults`; the VM access
        #: path consults it for poisoned frames (SIGBUS) and it drives
        #: bandwidth-degradation windows through the interference
        #: stack.  ``None`` in ordinary performance runs.
        self.faults = None

    # -- NUMA wiring --------------------------------------------------------
    def set_topology(self, topology: "MachineTopology",
                     node_of_frame: Callable[[int], int]) -> None:
        """Teach the model the socket layout and frame ownership."""
        self.topology = topology
        self.node_of_frame = node_of_frame
        grow = topology.num_nodes - len(self._interference)
        for _ in range(grow):
            self._interference.append([])

    def numa_factors(self, core: Optional[int], frame: Optional[int],
                     medium: Medium) -> Tuple[float, float, int, bool]:
        """(latency factor, bandwidth factor, target node, is remote)
        for a core touching a frame.

        Uniform (no/1-node topology, or caller without placement info)
        degenerates to ``(1.0, 1.0, 0, False)`` — and multiplying by
        exactly 1.0 is bit-exact, so the uniform path reproduces the
        pre-topology numbers.
        """
        if (self.topology is None or self.topology.num_nodes == 1
                or core is None or frame is None):
            return 1.0, 1.0, 0, False
        core_node = self.topology.node_of_core(core)
        target = (self.node_of_frame(frame)
                  if self.node_of_frame is not None else core_node)
        return (self.topology.latency_factor(core_node, target, medium),
                self.topology.bandwidth_factor(core_node, target, medium),
                target, core_node != target)

    # -- per-node device bandwidth pools ------------------------------------
    def set_pools(self, pools: List["SharedBandwidth"]) -> None:
        """Install one aggregate-bandwidth pool per NUMA node."""
        self.pools = tuple(pools)

    def device_delay(self, nbytes: int, write: bool, now: float) -> float:
        """Extra wait imposed by node 0's aggregate PMem bandwidth on a
        transfer of ``nbytes`` one way, where the file system's copy
        paths place their data (0 if the shared model is not wired
        up)."""
        pool = self.pools[0]
        if pool is None:
            return 0.0
        if write:
            return pool.delay_write(nbytes, now)
        return pool.delay_read(nbytes, now)

    # -- media interference (enter/exit, per node) --------------------------
    def interference_for(self, node: int) -> float:
        """Effective factor on a node: the worst active stream, 1.0
        when nothing is interfering."""
        if node >= len(self._interference):
            return 1.0
        stack = self._interference[node]
        return max(stack) if stack else 1.0

    def enter_interference(self, factor: float, node: int = 0) -> None:
        """A background stream starts disturbing a node's media."""
        while node >= len(self._interference):
            self._interference.append([])
        self._interference[node].append(float(factor))
        self.interference_epoch += 1

    def exit_interference(self, factor: float, node: int = 0) -> None:
        """The matching end of :meth:`enter_interference` — removes one
        instance of the factor, leaving other streams' penalties
        untouched (raises if there is nothing to exit)."""
        try:
            self._interference[node].remove(float(factor))
        except (IndexError, ValueError):
            raise InvalidArgumentError(
                f"exit_interference({factor}, node={node}) without a "
                f"matching enter") from None
        self.interference_epoch += 1

    def reset_interference(self) -> None:
        """Forget all active streams (power cycle)."""
        self._interference = [[] for _ in self._interference]
        self.interference_epoch += 1

    # -- scalar access ------------------------------------------------------
    def load_latency(self, medium: Medium, factor: float = 1.0) -> float:
        """Latency of one dependent load from ``medium``; ``factor``
        is the NUMA latency multiplier."""
        return self.specs[medium].load_latency * factor

    # -- streaming access ---------------------------------------------------
    def stream_read(self, nbytes: int, medium: Medium,
                    cached: bool = False, node: int = 0,
                    bw_factor: float = 1.0) -> float:
        """Sequentially scan ``nbytes`` (AVX-512 width reads) living on
        ``node``; ``bw_factor`` < 1 models the off-socket link."""
        if cached:
            bandwidth = self.costs.dram_read_bw * 2.5  # LLC-resident
        else:
            spec = self.specs[medium]
            bandwidth = spec.read_bw * bw_factor
            if spec.interference_prone and node < len(self._interference):
                # ``interference_for`` inlined: once per mapped access.
                stack = self._interference[node]
                if stack:
                    bandwidth /= max(stack)
        return self.costs.copy_cycles(nbytes, bandwidth)

    def stream_write(self, nbytes: int, medium: Medium,
                     ntstore: bool = True, node: int = 0,
                     bw_factor: float = 1.0) -> float:
        """Write ``nbytes`` sequentially.

        ``ntstore=True`` streams past the cache at nt-store bandwidth
        (immediately durable on PMem).  ``ntstore=False`` models plain
        cached stores: they complete at near-DRAM speed and the data
        sits dirty in the cache — durability costs are paid later by
        whoever flushes (msync/fsync via :meth:`clwb_flush`).
        """
        spec = self.specs[medium]
        if not ntstore or not spec.ntstore_streams:
            # DRAM-class media (and non-temporal bypass disabled): the
            # cache hierarchy absorbs the stores at DRAM drain speed.
            bandwidth = self.costs.dram_write_bw
        else:
            bandwidth = spec.ntstore_bw * bw_factor
            if spec.interference_prone and node < len(self._interference):
                # ``interference_for`` inlined: once per mapped access.
                stack = self._interference[node]
                if stack:
                    bandwidth /= max(stack)
        return self.costs.copy_cycles(nbytes, bandwidth)

    # -- copies ---------------------------------------------------------------
    def memcpy(self, nbytes: int, src: Medium, dst: Medium,
               kernel: bool = False, ntstore: bool = True,
               bw_factor: float = 1.0) -> float:
        """Copy ``nbytes``; bandwidth is the min of source and sink.

        ``kernel=True`` applies the no-AVX discount of syscall-path
        copies (§III-C, Vectorization).  ``bw_factor`` discounts the
        whole pipe when either end sits across the UPI link.
        """
        dst_spec = self.specs[dst]
        read_bw = self.specs[src].read_bw
        if not ntstore or not dst_spec.ntstore_streams:
            # Cached stores: the cache absorbs them at DRAM-like speed
            # (device durability, if needed, is a later clwb flush).
            write_bw = self.costs.dram_write_bw
        else:
            write_bw = dst_spec.ntstore_bw
        bandwidth = min(read_bw, write_bw) * bw_factor
        if kernel:
            bandwidth *= self.costs.kernel_copy_ratio
        return self.costs.copy_cycles(nbytes, bandwidth)

    # -- persistence ------------------------------------------------------
    def clwb_flush(self, nbytes: int) -> float:
        """Flush ``nbytes`` of dirty cache lines to PMem
        (clwb+sfence)."""
        return self.costs.copy_cycles(nbytes,
                                      self.specs[Medium.PMEM].clwb_bw)

    def zero(self, nbytes: int) -> float:
        """Zero ``nbytes`` of PMem with nt-stores."""
        return self.costs.copy_cycles(nbytes,
                                      self.specs[Medium.PMEM].zero_bw)


class BandwidthThrottle:
    """A token bucket limiting a background consumer's PMem bandwidth.

    DaxVM's pre-zeroing kthread is rate limited so zeroing does not
    saturate PMem bandwidth and stall foreground operations (§IV-E).
    The bucket accrues budget in simulated time; ``delay_for`` returns
    how long the consumer must wait before it may move ``nbytes``.
    """

    def __init__(self, bytes_per_second: float, freq_hz: float):
        if bytes_per_second <= 0:
            raise ValueError("throttle bandwidth must be positive")
        self.bytes_per_cycle = bytes_per_second / freq_hz
        self._paid_until = 0.0

    def delay_for(self, nbytes: int, now: float) -> float:
        """Cycles to wait (possibly 0) before moving ``nbytes`` now."""
        cost_cycles = nbytes / self.bytes_per_cycle
        start = max(now, self._paid_until)
        self._paid_until = start + cost_cycles
        return self._paid_until - now
