"""Physical memory: per-NUMA-node DRAM and PMem media, frame accounting.

The simulator does not store file *contents* — only placement.  What
matters for every result in the paper is **where** bytes and page-table
pages live — which medium (DRAM vs PMem) *and*, since the topology
refactor, which socket — because medium and socket together drive load
latency, page walk costs (Table II) and bandwidth.  ``PhysicalMemory``
hands out 4 KB frame numbers from each node's media and tracks usage so
experiments can report footprint numbers (e.g. DaxVM's file-table
storage tax, §V-B).

Frame-number recovery property: frames are laid out as all nodes' DRAM
regions followed by all nodes' PMem regions — then, only on machines
that configure them, all CXL-expander regions and all far-memory
regions — so **both** the medium and the owning node of a frame can be
recovered from the frame number alone (``medium_of`` / ``node_of``) —
exactly what the page-walk cost model and the NUMA access accounting
need.  A 1-node DRAM+PMem topology degenerates to the historical "one
DRAM then one PMem region" layout with identical frame numbers.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Optional

from repro.errors import MemoryError_

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.topology import MachineTopology


class Medium(enum.Enum):
    """The storage medium backing a physical frame.

    Pricing for each member lives in its :class:`~repro.mem.tiers.
    MediumSpec` — nothing outside that registry may assume the set of
    media is closed.
    """

    DRAM = "dram"
    PMEM = "pmem"
    #: A CXL memory expander: DRAM-class media behind a CXL link —
    #: volatile, no DIMM-pool contention, ~2.5x DRAM load latency.
    CXL = "cxl"
    #: An NT-interleave / far-memory node ("Emulating Hybrid Memory on
    #: NUMA Hardware"): remote-socket DRAM used as a slow second tier.
    FAR = "far"

    # Members are singletons; identity hashing skips Enum.__hash__'s
    # Python-level frame on every spec lookup.
    __hash__ = object.__hash__


class Region:
    """A frame allocator over one contiguous physical medium."""

    FRAME_SIZE = 4096

    def __init__(self, medium: Medium, size_bytes: int, base_frame: int = 0,
                 node: int = 0):
        self.medium = medium
        self.total_frames = size_bytes // Region.FRAME_SIZE
        self.base_frame = base_frame
        self.node = node
        self._next_frame = 0
        self._free: List[int] = []
        self._free_set: set = set()
        self.allocated_frames = 0
        self.peak_frames = 0

    @property
    def end_frame(self) -> int:
        return self.base_frame + self.total_frames

    def contains(self, frame: int) -> bool:
        return self.base_frame <= frame < self.end_frame

    def alloc_frame(self) -> int:
        """Allocate one 4 KB frame; returns its global frame number."""
        if self._free:
            frame = self._free.pop()
            self._free_set.discard(frame)
        elif self._next_frame < self.total_frames:
            frame = self.base_frame + self._next_frame
            self._next_frame += 1
        else:
            raise MemoryError_(
                f"{self.medium.value}/node{self.node}: out of frames "
                f"({self.total_frames} total)")
        self.allocated_frames += 1
        self.peak_frames = max(self.peak_frames, self.allocated_frames)
        return frame

    def free_frame(self, frame: int) -> None:
        """Return a frame to the freelist.

        Freeing a frame this region never handed out, or one that is
        already free, would silently corrupt ``allocated_frames`` and
        let the allocator serve the same frame twice — so both raise.
        """
        index = frame - self.base_frame
        if not 0 <= index < self._next_frame:
            raise MemoryError_(
                f"{self.medium.value}/node{self.node}: freeing frame "
                f"{frame} that was never allocated")
        if frame in self._free_set:
            raise MemoryError_(
                f"{self.medium.value}/node{self.node}: double free of "
                f"frame {frame}")
        self._free.append(frame)
        self._free_set.add(frame)
        self.allocated_frames -= 1

    @property
    def allocated_bytes(self) -> int:
        return self.allocated_frames * Region.FRAME_SIZE

    @property
    def peak_bytes(self) -> int:
        return self.peak_frames * Region.FRAME_SIZE


class PhysicalMemory:
    """The machine's physical memory: per-node DRAM and PMem regions.

    Frame numbers are globally unique across media and nodes (every
    node's DRAM range sits below every node's PMem range), so a
    page-table entry's target medium *and* socket can be recovered
    from the frame number alone — exactly the property the page-walk
    cost model and the NUMA accounting rely on.

    Constructed either the historical way (``dram_bytes, pmem_bytes``
    — one node) or from a :class:`~repro.topology.MachineTopology`.
    """

    def __init__(self, dram_bytes: Optional[int] = None,
                 pmem_bytes: Optional[int] = None,
                 topology: Optional["MachineTopology"] = None):
        if topology is not None:
            specs = [(node.dram_bytes, node.pmem_bytes,
                      node.cxl_bytes, node.far_bytes)
                     for node in topology.nodes]
        else:
            if dram_bytes is None or pmem_bytes is None:
                raise MemoryError_(
                    "PhysicalMemory needs dram_bytes+pmem_bytes or a "
                    "topology")
            specs = [(dram_bytes, pmem_bytes, 0, 0)]
        self.topology = topology
        self.dram_regions: List[Region] = []
        self.pmem_regions: List[Region] = []
        self.cxl_regions: List[Region] = []
        self.far_regions: List[Region] = []
        base = 0
        for node, spec in enumerate(specs):
            region = Region(Medium.DRAM, spec[0], base_frame=base, node=node)
            self.dram_regions.append(region)
            base += region.total_frames
        self._pmem_floor = base
        for node, spec in enumerate(specs):
            region = Region(Medium.PMEM, spec[1], base_frame=base, node=node)
            self.pmem_regions.append(region)
            base += region.total_frames
        # Expander media sit above every DRAM/PMem frame so that the
        # historical two-medium frame numbering is untouched when no
        # node carries them (the tier golden gate relies on it).
        self._cxl_floor = base
        if any(spec[2] for spec in specs):
            for node, spec in enumerate(specs):
                region = Region(Medium.CXL, spec[2], base_frame=base,
                                node=node)
                self.cxl_regions.append(region)
                base += region.total_frames
        self._far_floor = base
        if any(spec[3] for spec in specs):
            for node, spec in enumerate(specs):
                region = Region(Medium.FAR, spec[3], base_frame=base,
                                node=node)
                self.far_regions.append(region)
                base += region.total_frames
        self._frames_end = base
        self._by_medium = {Medium.DRAM: self.dram_regions,
                           Medium.PMEM: self.pmem_regions,
                           Medium.CXL: self.cxl_regions,
                           Medium.FAR: self.far_regions}
        #: Optional per-tenant frame accountant (duck-typed, installed
        #: by repro.tenancy): ``note_alloc(frame)`` / ``note_free(frame)``
        #: book ownership and never refuse a frame.  ``None`` = untracked.
        self.accountant = None

    @property
    def num_nodes(self) -> int:
        return len(self.dram_regions)

    def region(self, medium: Medium) -> Region:
        """Node 0's region of ``medium``."""
        return self._by_medium[medium][0]

    def pmem_bases(self) -> List[int]:
        return [region.base_frame for region in self.pmem_regions]

    def pmem_frames(self) -> List[int]:
        return [region.total_frames for region in self.pmem_regions]

    def media_present(self) -> List[Medium]:
        """Media with any capacity on this machine, fixed order."""
        return [medium for medium, regions in self._by_medium.items()
                if any(region.total_frames for region in regions)]

    # -- allocation ---------------------------------------------------------
    def alloc_frame(self, medium: Medium, node: Optional[int] = None) -> int:
        """Allocate a frame of ``medium``, preferring ``node``.

        The frame comes from ``node`` (node 0 when ``None``, the
        pre-topology allocator) and spills to the other nodes in node
        order when that node's region is full.
        """
        regions = self._by_medium[medium]
        if not regions:
            raise MemoryError_(
                f"this machine has no {medium.value} memory (no node "
                f"carries the medium; see --node-kinds)")
        target = node or 0
        order = [target] + [n for n in range(len(regions)) if n != target]
        last_error: Optional[MemoryError_] = None
        for candidate in order:
            try:
                frame = regions[candidate].alloc_frame()
            except MemoryError_ as exc:
                last_error = exc
                continue
            if self.accountant is not None:
                self.accountant.note_alloc(frame)
            return frame
        raise last_error  # type: ignore[misc]

    def free_frame(self, frame: int) -> None:
        region = self.region_of(frame)
        region.free_frame(frame)
        if self.accountant is not None:
            self.accountant.note_free(frame)

    # -- frame-number recovery ---------------------------------------------
    def medium_of(self, frame: int) -> Medium:
        if frame < self._pmem_floor:
            return Medium.DRAM
        if frame < self._cxl_floor:
            return Medium.PMEM
        if frame < self._far_floor:
            return Medium.CXL
        if frame < self._frames_end:
            return Medium.FAR
        # Frames past every region (standalone test devices with
        # synthetic base frames) stay "somewhere on PMem" — the
        # historical clamp.
        return Medium.PMEM

    def region_of(self, frame: int) -> Region:
        """The region owning a frame (raises on out-of-range frames)."""
        regions = self._by_medium[self.medium_of(frame)]
        for region in regions:
            if region.contains(frame):
                return region
        raise MemoryError_(f"frame {frame} lies in no physical region")

    def node_of(self, frame: int) -> int:
        """The NUMA node owning a frame.

        Frames past the last PMem region (e.g. standalone test devices
        with synthetic base frames) are attributed to the last node
        rather than raising — they are always "somewhere on PMem" for
        placement purposes.
        """
        regions = self._by_medium[self.medium_of(frame)]
        for region in regions:
            if region.contains(frame):
                return region.node
        return regions[-1].node
