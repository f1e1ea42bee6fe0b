"""The machine topology model: NUMA nodes, core map, distance matrices.

The paper's testbed is a dual-socket Cascade Lake box with Optane
DCPMM attached *per socket*; remote-socket PMem access pays a 2-3x
latency/bandwidth penalty (Yang et al., FAST'20) and cross-socket TLB
shootdown IPIs are dearer than same-socket ones.  Everything NUMA in
the simulator starts from one :class:`MachineTopology`:

* per-node DRAM and PMem sizes (feeding the per-node frame regions of
  :class:`~repro.mem.physmem.PhysicalMemory`);
* a core -> node map (cores are split contiguously across sockets, as
  on the real machine's APIC enumeration);
* same/cross-socket latency, bandwidth and IPI matrices, exposed as
  :meth:`latency_factor` / :meth:`bandwidth_factor` / :meth:`ipi_extra`
  and, in matrix form, :meth:`latency_matrix` / :meth:`ipi_matrix`.

Equivalence contract: a 1-node topology is the pre-topology simulator,
bit for bit.  Every factor degenerates to exactly ``1.0`` (and every
IPI extra to ``0.0``) when source and target node coincide, and every
NUMA-only counter stays silent on one node, so threading the topology
through the cost model cannot perturb single-socket results (IEEE 754
multiplication by 1.0 is exact).  The ``one_node`` golden gate
(:mod:`repro.analysis.goldens`) holds the simulator to that promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import (
    MachineConfig,
    NUMA_IPI_CROSS_SOCKET_EXTRA,
    NUMA_REMOTE_CXL_BW,
    NUMA_REMOTE_CXL_LATENCY,
    NUMA_REMOTE_DRAM_BW,
    NUMA_REMOTE_DRAM_LATENCY,
    NUMA_REMOTE_FAR_BW,
    NUMA_REMOTE_FAR_LATENCY,
    NUMA_REMOTE_PMEM_BW,
    NUMA_REMOTE_PMEM_LATENCY,
)
from repro.errors import InvalidArgumentError
from repro.mem.physmem import AllocPolicy, Medium


#: File/device placements the NUMA experiments compare (§ DESIGN 8.3).
PLACEMENTS = ("local", "remote", "interleave")

#: Node kinds: ``ddr`` is a compute socket with directly-attached
#: DRAM+PMem; ``cxl`` is a memory-only CXL expander; ``far`` is a
#: memory-only NT-interleave/far-memory node.  Expander kinds own no
#: cores — the core map spans compute nodes only.
NODE_KINDS = ("ddr", "cxl", "far")


@dataclass(frozen=True)
class NodeSpec:
    """One NUMA node's directly-attached memory."""

    dram_bytes: int
    pmem_bytes: int
    #: One of :data:`NODE_KINDS`.
    kind: str = "ddr"
    #: CXL-expander capacity (``cxl`` nodes only).
    cxl_bytes: int = 0
    #: Far-memory capacity (``far`` nodes only).
    far_bytes: int = 0

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise InvalidArgumentError(
                f"unknown node kind {self.kind!r}; use one of "
                f"{NODE_KINDS}")
        owned = {"ddr": (self.cxl_bytes, self.far_bytes),
                 "cxl": (self.dram_bytes, self.pmem_bytes,
                         self.far_bytes),
                 "far": (self.dram_bytes, self.pmem_bytes,
                         self.cxl_bytes)}[self.kind]
        if any(owned):
            raise InvalidArgumentError(
                f"a {self.kind!r} node may only carry its own medium")


@dataclass(frozen=True)
class MachineTopology:
    """Static NUMA description of the simulated machine.

    The cross-socket penalty fields default to the calibrated constants
    in :mod:`repro.config`; they describe the *uniform* off-socket
    penalty of a 2-socket UPI machine.  The matrix accessors expand
    them to full node x node form for consumers that want matrices.
    """

    nodes: Tuple[NodeSpec, ...]
    num_cores: int = 16

    #: Remote / local load-latency ratio per medium.
    remote_dram_latency: float = NUMA_REMOTE_DRAM_LATENCY
    remote_pmem_latency: float = NUMA_REMOTE_PMEM_LATENCY
    remote_cxl_latency: float = NUMA_REMOTE_CXL_LATENCY
    remote_far_latency: float = NUMA_REMOTE_FAR_LATENCY
    #: Remote / local streaming-bandwidth ratio per medium (< 1).
    remote_dram_bw: float = NUMA_REMOTE_DRAM_BW
    remote_pmem_bw: float = NUMA_REMOTE_PMEM_BW
    remote_cxl_bw: float = NUMA_REMOTE_CXL_BW
    remote_far_bw: float = NUMA_REMOTE_FAR_BW
    #: Extra initiator cycles per cross-socket IPI target.
    ipi_cross_socket_extra: float = NUMA_IPI_CROSS_SOCKET_EXTRA

    def __post_init__(self):
        if not self.nodes:
            raise InvalidArgumentError("topology needs at least one node")
        compute = [node for node in self.nodes if node.kind == "ddr"]
        if not compute:
            raise InvalidArgumentError(
                "topology needs at least one ddr (compute) node — "
                "expander nodes own no cores")
        if self.num_cores < len(compute):
            raise InvalidArgumentError(
                f"{self.num_cores} cores cannot span "
                f"{len(compute)} compute nodes")

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def single_node(cls, machine: MachineConfig) -> "MachineTopology":
        """The pre-topology machine: one socket owning everything."""
        return cls(nodes=(NodeSpec(machine.dram_bytes,
                                   machine.pmem_bytes),),
                   num_cores=machine.num_cores)

    @classmethod
    def split(cls, machine: MachineConfig,
              num_nodes: int) -> "MachineTopology":
        """Split a machine's DRAM/PMem/cores evenly across sockets."""
        if num_nodes < 1:
            raise InvalidArgumentError(
                f"num_nodes must be >= 1, got {num_nodes}")
        dram = machine.dram_bytes // num_nodes
        pmem = machine.pmem_bytes // num_nodes
        # Keep per-node sizes frame-aligned.
        dram -= dram % machine.page_size
        pmem -= pmem % machine.page_size
        return cls(nodes=tuple(NodeSpec(dram, pmem)
                               for _ in range(num_nodes)),
                   num_cores=machine.num_cores)

    @classmethod
    def with_kinds(cls, machine: MachineConfig,
                   kinds) -> "MachineTopology":
        """Build a topology from node-kind names.

        ``["ddr", "ddr", "cxl"]`` is a dual-socket box with one CXL
        memory expander: DRAM/PMem split evenly across the ``ddr``
        sockets, the expander carrying :attr:`MachineConfig.cxl_bytes`
        and no cores.  An all-``ddr`` list is exactly :meth:`split`.
        """
        kinds = tuple(kinds)
        ddr_count = sum(1 for kind in kinds if kind == "ddr")
        if not ddr_count:
            raise InvalidArgumentError(
                f"node kinds {kinds!r} include no ddr (compute) node")
        dram = machine.dram_bytes // ddr_count
        pmem = machine.pmem_bytes // ddr_count
        dram -= dram % machine.page_size
        pmem -= pmem % machine.page_size
        cxl = machine.cxl_bytes - machine.cxl_bytes % machine.page_size
        far = machine.far_bytes - machine.far_bytes % machine.page_size
        nodes = []
        for kind in kinds:
            if kind == "ddr":
                nodes.append(NodeSpec(dram, pmem))
            elif kind == "cxl":
                nodes.append(NodeSpec(0, 0, kind="cxl", cxl_bytes=cxl))
            elif kind == "far":
                nodes.append(NodeSpec(0, 0, kind="far", far_bytes=far))
            else:
                raise InvalidArgumentError(
                    f"unknown node kind {kind!r}; use one of "
                    f"{NODE_KINDS}")
        return cls(nodes=tuple(nodes), num_cores=machine.num_cores)

    # ------------------------------------------------------------------
    # Core map.  Only ddr (compute) nodes own cores; expander nodes
    # are memory-only targets, like real CXL/far-memory NUMA nodes.
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def compute_nodes(self) -> Tuple[int, ...]:
        return tuple(i for i, node in enumerate(self.nodes)
                     if node.kind == "ddr")

    @property
    def cores_per_node(self) -> int:
        return self.num_cores // len(self.compute_nodes)

    def node_of_core(self, core: int) -> int:
        """Socket owning a core (contiguous blocks, remainder to the
        last socket — matching real APIC enumeration)."""
        compute = self.compute_nodes
        return compute[min(core // self.cores_per_node,
                           len(compute) - 1)]

    def cores_of_node(self, node: int) -> List[int]:
        compute = self.compute_nodes
        if node not in compute:
            return []  # expander nodes own no cores
        pos = compute.index(node)
        first = pos * self.cores_per_node
        last = (self.num_cores if pos == len(compute) - 1
                else first + self.cores_per_node)
        return list(range(first, last))

    # ------------------------------------------------------------------
    # Distance model.
    # ------------------------------------------------------------------
    def _remote_latency(self, medium: Medium) -> float:
        """Per-medium off-socket latency ratio (exhaustive)."""
        if medium is Medium.DRAM:
            return self.remote_dram_latency
        if medium is Medium.PMEM:
            return self.remote_pmem_latency
        if medium is Medium.CXL:
            return self.remote_cxl_latency
        if medium is Medium.FAR:
            return self.remote_far_latency
        raise InvalidArgumentError(
            f"no remote-latency factor for medium {medium!r}")

    def _remote_bw(self, medium: Medium) -> float:
        """Per-medium off-socket bandwidth ratio (exhaustive)."""
        if medium is Medium.DRAM:
            return self.remote_dram_bw
        if medium is Medium.PMEM:
            return self.remote_pmem_bw
        if medium is Medium.CXL:
            return self.remote_cxl_bw
        if medium is Medium.FAR:
            return self.remote_far_bw
        raise InvalidArgumentError(
            f"no remote-bandwidth factor for medium {medium!r}")

    def latency_factor(self, core_node: int, target_node: int,
                       medium: Medium) -> float:
        """Load-latency multiplier for a core touching a frame."""
        if core_node == target_node:
            return 1.0
        return self._remote_latency(medium)

    def bandwidth_factor(self, core_node: int, target_node: int,
                         medium: Medium) -> float:
        """Streaming-bandwidth multiplier (<= 1.0 off-socket)."""
        if core_node == target_node:
            return 1.0
        return self._remote_bw(medium)

    def ipi_extra(self, src_node: int, dst_node: int) -> float:
        """Extra initiator cycles for an IPI crossing sockets."""
        return (0.0 if src_node == dst_node
                else self.ipi_cross_socket_extra)

    def latency_matrix(self, medium: Medium) -> List[List[float]]:
        """Full node x node latency-factor matrix."""
        return [[self.latency_factor(i, j, medium)
                 for j in range(self.num_nodes)]
                for i in range(self.num_nodes)]

    def ipi_matrix(self) -> List[List[float]]:
        """Extra-initiator-cycle matrix for IPIs between sockets."""
        return [[self.ipi_extra(i, j) for j in range(self.num_nodes)]
                for i in range(self.num_nodes)]

    # ------------------------------------------------------------------
    # Serialisation (sweep cache keys, pool payloads).
    # ------------------------------------------------------------------
    def to_stable_dict(self) -> Dict[str, object]:
        return {
            "nodes": [{"dram_bytes": n.dram_bytes,
                       "pmem_bytes": n.pmem_bytes,
                       "kind": n.kind,
                       "cxl_bytes": n.cxl_bytes,
                       "far_bytes": n.far_bytes} for n in self.nodes],
            "num_cores": self.num_cores,
            "remote_dram_latency": self.remote_dram_latency,
            "remote_pmem_latency": self.remote_pmem_latency,
            "remote_cxl_latency": self.remote_cxl_latency,
            "remote_far_latency": self.remote_far_latency,
            "remote_dram_bw": self.remote_dram_bw,
            "remote_pmem_bw": self.remote_pmem_bw,
            "remote_cxl_bw": self.remote_cxl_bw,
            "remote_far_bw": self.remote_far_bw,
            "ipi_cross_socket_extra": self.ipi_cross_socket_extra,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "MachineTopology":
        # .get defaults keep pre-tier payloads (and hand-written
        # states) restorable.
        return cls(
            nodes=tuple(NodeSpec(int(n["dram_bytes"]),
                                 int(n["pmem_bytes"]),
                                 kind=str(n.get("kind", "ddr")),
                                 cxl_bytes=int(n.get("cxl_bytes", 0)),
                                 far_bytes=int(n.get("far_bytes", 0)))
                        for n in state["nodes"]),
            num_cores=int(state["num_cores"]),
            remote_dram_latency=float(state["remote_dram_latency"]),
            remote_pmem_latency=float(state["remote_pmem_latency"]),
            remote_cxl_latency=float(
                state.get("remote_cxl_latency", NUMA_REMOTE_CXL_LATENCY)),
            remote_far_latency=float(
                state.get("remote_far_latency", NUMA_REMOTE_FAR_LATENCY)),
            remote_dram_bw=float(state["remote_dram_bw"]),
            remote_pmem_bw=float(state["remote_pmem_bw"]),
            remote_cxl_bw=float(
                state.get("remote_cxl_bw", NUMA_REMOTE_CXL_BW)),
            remote_far_bw=float(
                state.get("remote_far_bw", NUMA_REMOTE_FAR_BW)),
            ipi_cross_socket_extra=float(
                state["ipi_cross_socket_extra"]),
        )


#: Blocks per 2 MB interleave granule (matches the PMD attach granule,
#: so one DaxVM attachment never straddles sockets).
INTERLEAVE_BLOCKS = (2 << 20) // 4096


@dataclass
class InterleaveMap:
    """Injective device-block -> PMem-frame map striping across nodes.

    Block chunks of :data:`INTERLEAVE_BLOCKS` go round-robin to the
    nodes' PMem regions; within a node, chunks pack densely from the
    region base.  The inverse exists (needed when persistent file-table
    metadata blocks are freed by frame number).
    """

    #: (base_frame, total_frames) of each node's PMem region.
    ranges: List[Tuple[int, int]]
    granule: int = INTERLEAVE_BLOCKS

    def __post_init__(self):
        # The whole NUMA model leans on one alignment fact: a DaxVM
        # attachment (one 2 MB PMD splice) never straddles sockets.
        # That only holds when stripes tile the 2 MB attach granule —
        # anything else would silently mis-stripe, placing parts of an
        # "attached-local" run on a remote node while the cost model
        # charges local rates.  Validate it here instead of trusting
        # every caller.
        if not self.ranges:
            raise InvalidArgumentError(
                "InterleaveMap needs at least one PMem range")
        if self.granule <= 0:
            raise InvalidArgumentError(
                f"interleave granule must be positive, got "
                f"{self.granule}")
        if self.granule % INTERLEAVE_BLOCKS:
            raise InvalidArgumentError(
                f"interleave granule of {self.granule} blocks does not "
                f"tile the 2 MB attach granule ({INTERLEAVE_BLOCKS} "
                f"blocks): a PMD attachment would straddle nodes")

    def frame_of(self, block: int) -> int:
        n = len(self.ranges)
        chunk, offset = divmod(block, self.granule)
        node = chunk % n
        local = (chunk // n) * self.granule + offset
        base, total = self.ranges[node]
        if local >= total:
            raise InvalidArgumentError(
                f"block {block} overflows node {node}'s PMem "
                f"({total} frames)")
        return base + local

    def block_of(self, frame: int) -> int:
        for node, (base, total) in enumerate(self.ranges):
            if base <= frame < base + total:
                local = frame - base
                chunk = (local // self.granule) * len(self.ranges) + node
                return chunk * self.granule + local % self.granule
        raise InvalidArgumentError(
            f"frame {frame} lies in no node's PMem range")


def device_placement(topology: MachineTopology, pmem_bases: List[int],
                     pmem_frames: List[int], placement: str,
                     pin_node: int = 0
                     ) -> Tuple[int, Optional[InterleaveMap]]:
    """Resolve a placement name to (device base frame, frame map).

    ``local`` puts every device block on ``pin_node``'s PMem;
    ``remote`` on the next socket over; ``interleave`` stripes 2 MB
    chunks across all sockets.  On one node all three collapse to the
    single PMem region — placement is then a no-op by construction.
    """
    if placement not in PLACEMENTS:
        raise InvalidArgumentError(
            f"unknown placement {placement!r}; use one of {PLACEMENTS}")
    n = topology.num_nodes
    if placement == "interleave" and n > 1:
        # Stripe only across nodes that actually carry PMem — expander
        # (cxl/far) nodes contribute zero-capacity regions that must
        # not eat round-robin slots.
        ranges = [(base, frames) for base, frames
                  in zip(pmem_bases, pmem_frames) if frames > 0]
        if len(ranges) > 1:
            return ranges[0][0], InterleaveMap(ranges)
    pmem_nodes = [node for node, frames in enumerate(pmem_frames)
                  if frames > 0] or [0]
    node = pmem_nodes[pin_node % len(pmem_nodes)]
    if placement == "remote":
        node = pmem_nodes[(pin_node + 1) % len(pmem_nodes)]
    return pmem_bases[node], None


__all__ = [
    "AllocPolicy",
    "INTERLEAVE_BLOCKS",
    "InterleaveMap",
    "MachineTopology",
    "NODE_KINDS",
    "NodeSpec",
    "PLACEMENTS",
    "device_placement",
]
