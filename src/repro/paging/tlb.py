"""TLB reach/miss accounting and the IPI shootdown protocol.

Two distinct costs live here:

* **TLB misses** during data access — modelled analytically per
  workload scan (misses × average walk cost, with the walk cost coming
  from :class:`~repro.paging.walker.PageWalker`).  This reproduces the
  paper's observations that small-page mappings pay far more TLB misses
  than syscall access (the kernel maps all of PMem with huge pages) and
  that persistent file tables make each miss dearer (Table II).

* **TLB shootdowns** during unmap — simulated as real cross-core
  events: the initiator pays an IPI round and every other core running
  the process loses cycles to the interrupt handler.  Linux's policy of
  switching from per-page invalidations to one full flush beyond 33
  pages is implemented, as is the full-flush refill penalty that makes
  over-aggressive flushing visible.
"""

from __future__ import annotations

import enum
from typing import Iterable, Set

from repro.config import CostModel, MachineConfig
from repro.obs import Counter, CostDomain, charge
from repro.sim.engine import Engine
from repro.sim.stats import Stats


class AccessPattern(enum.Enum):
    """Spatial pattern of data access, as the walk model sees it."""

    SEQUENTIAL = "seq"
    RANDOM = "rand"

    # Members are singletons; identity hashing skips Enum.__hash__'s
    # Python-level frame on every walk-cost memo lookup.
    __hash__ = object.__hash__


class TLBModel:
    """Analytic TLB miss counts for bulk scans and random op streams."""

    def __init__(self, costs: CostModel, machine: MachineConfig):
        self.costs = costs
        self.machine = machine

    def reach(self, page_size: int) -> int:
        """Bytes covered by a full TLB of ``page_size`` entries."""
        if page_size >= self.machine.pmd_size:
            return self.machine.tlb_entries_2m * page_size
        return self.machine.tlb_entries_4k * page_size

    def random_op_misses(self, op_bytes: int, page_size: int,
                         footprint: int) -> float:
        """Misses for one random op over ``footprint`` bytes.

        When the footprint exceeds TLB reach, the op misses on every
        page it crosses; within reach, misses are capped by the
        cold-start fill of the footprint's entries.
        """
        pages_per_op = max(1, -(-op_bytes // page_size))
        if footprint > self.reach(page_size):
            return pages_per_op
        resident = footprint // page_size
        return min(pages_per_op, resident)


class ShootdownController:
    """IPI-based TLB invalidation across the cores running a process."""

    def __init__(self, engine: Engine, costs: CostModel,
                 stats: Stats, topology=None):
        self.engine = engine
        self.costs = costs
        self.stats = stats
        #: Optional repro.topology.MachineTopology (duck-typed): when
        #: present with >1 node, cross-socket IPIs cost extra cycles.
        self.topology = topology

    def wants_full_flush(self, npages: int) -> bool:
        """Linux's x86 policy: full flush beyond the per-page ceiling."""
        return npages > self.costs.full_flush_threshold

    def flush(self, initiator_core: int, active_cores: Iterable[int],
              npages: int, force_full: bool = False):
        """Invalidate ``npages`` on all cores; generator (yield from).

        ``active_cores`` is the process's cpumask — only those cores
        receive IPIs.  Charges the initiator the send+wait cost, steals
        handler cycles from every remote core, and (for full flushes)
        charges a refill penalty to each affected core.
        """
        full = force_full or self.wants_full_flush(npages)
        remote: Set[int] = {c for c in active_cores if c != initiator_core}

        if full:
            local_cost = self.costs.tlb_full_flush
            handler_cost = self.costs.tlb_full_flush
            # Refill penalty: the flush also discards translations of
            # the *live* working set, which later misses re-walk.  The
            # dead (unmapped) entries would never be touched again, so
            # the penalty is capped by a typical hot-set size rather
            # than the unmapped page count.
            refill = self.costs.tlb_refill_penalty * min(
                npages, self.costs.full_flush_hot_entries)
            self.stats.add(Counter.TLB_FULL_FLUSHES)
        else:
            local_cost = self.costs.tlb_invlpg * npages
            handler_cost = self.costs.tlb_invlpg * npages
            refill = 0.0
            self.stats.add(Counter.TLB_RANGE_FLUSHES)
            self.stats.add(Counter.TLB_PAGES_INVALIDATED, npages)

        initiator_cost = local_cost + refill
        if remote:
            initiator_cost += (self.costs.ipi_base
                               + self.costs.ipi_per_core * len(remote))
            self.engine.interrupt_cores(
                remote, self.costs.ipi_responder + handler_cost)
            self.stats.add(Counter.TLB_IPIS, len(remote))
            # Cross-socket IPIs traverse the UPI link: the initiator
            # waits longer for those acks.  Priced (and counted) only
            # on >1-node topologies so single-socket runs are
            # bit-identical to the pre-topology model.
            if self.topology is not None and self.topology.num_nodes > 1:
                my_node = self.topology.node_of_core(initiator_core)
                cross = sum(1 for c in remote
                            if self.topology.node_of_core(c) != my_node)
                if cross:
                    extra = self.topology.ipi_cross_socket_extra * cross
                    initiator_cost += extra
                    self.stats.add(Counter.NUMA_CROSS_IPIS, cross)
                    self.stats.add(Counter.NUMA_CROSS_IPI_CYCLES, extra)
        self.stats.add(Counter.TLB_SHOOTDOWNS)
        yield charge(CostDomain.TLB_SHOOTDOWN, "initiate-flush",
                     initiator_cost)
