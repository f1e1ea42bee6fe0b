"""Pluggable translation architectures (``TranslationScheme``).

The paper's O(1) mmap — pre-populated file tables spliced into the
process tree — leans on one property of x86-64 paging: translations
live in a *radix* tree whose subtrees are position-independent, so a
shared fragment can appear in many address spaces at once.  To ask
whether DaxVM's conclusion survives a different MMU, this module puts
the whole translation structure behind one interface and provides four
architectures:

``radix4``
    The pre-refactor 4-level x86-64 radix tree, bit for bit: it *is*
    :class:`~repro.paging.pagetable.PageTable`, with the scheme hooks
    layered on top.  ``tests/golden/mmu_equivalence.json`` (captured
    before this module existed) gates that equivalence.
``radix5``
    x86-64 5-level paging (LA57): same fragments, same attach cost,
    one extra upper level on every walk and one more interior node per
    tree.
``hashed``
    An open-addressed inverted page table.  Translations are hash
    entries, not subtrees — there is nothing shareable to splice, so a
    DaxVM attach degrades to one insert *per page* of the region
    (``hashed_insert`` each): the stress test of the O(1) claim.  In
    exchange a walk is one probe chain with no leaf-locality
    distinction, and the table lives in process-private DRAM even when
    the file table is persistent.
``range``
    Segment/range translation (direct segments / RMM style): sorted
    ``[start, end) -> base frame`` entries with contiguity merging.  A
    DaxVM attach inserts one range per *contiguous run* of the region
    — O(1) on clean images without needing radix fragments, but an
    aged image shatters regions into many runs and every walk pays a
    ``log2(ranges)`` binary search.

Scheme instances own their structure frames (allocated per-node via
:class:`~repro.mem.physmem.PhysicalMemory`, honouring NUMA placement).
``to_state`` dumps a scheme's whole structure as JSON-safe data.  No
sweep point or cache entry carries it; equivalence tests compare it
as one observer of everything a scheme holds (``map_run`` against
``map_page``, the default scheme against an explicit ``radix4``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import CostModel
from repro.errors import (
    AddressSpaceError,
    NotSupportedError,
    SegmentationFault,
)
from repro.mem.physmem import Medium, PhysicalMemory
from repro.paging.flags import PageFlags
from repro.paging.pagetable import (
    PAGE_SHIFT,
    PAGE_SIZE,
    PGD_LEVEL,
    PMD_LEVEL,
    PTE_LEVEL,
    Level,
    PageTable,
    PageTableNode,
    Translation,
    level_shift,
    level_size,
)
from repro.paging.tlb import AccessPattern
from repro.paging.walker import PageWalker

PMD_SIZE = 2 << 20

#: Flag bits a protect pass must preserve (hardware/status bits).
_STATUS = PageFlags.ACCESSED | PageFlags.DIRTY | PageFlags.HUGE


class TranslationScheme:
    """The contract every MMU architecture implements.

    Mapping primitives mirror :class:`PageTable` (``map_page`` /
    ``translate`` / ``protect_range`` / ``clear_range`` /
    ``destroy``), so the radix schemes satisfy them
    by inheritance.  On top sit the DaxVM capability hooks
    (``attach_region`` / ``attach_gb`` / ``detach_cost``), the
    walk-cost hooks the TLB model charges through, structure-frame
    accounting, and a ``to_state`` dump of the whole structure.
    """

    #: Registry key and per-scheme capability flag.
    name: str = "abstract"
    #: Can shared file-table fragments be spliced in directly?
    supports_fragments: bool = False

    # -- mapping primitives (PageTable-shaped) -------------------------
    def map_page(self, vaddr: int, frame: int, flags: PageFlags,
                 leaf_level: Level = PTE_LEVEL) -> int:
        raise NotImplementedError

    def map_run(self, vaddr: int, frames: Sequence[int],
                flags: PageFlags) -> int:
        """Map 4 KB pages ``vaddr, vaddr + 4 KB, ...`` onto ``frames``.

        The default is one :meth:`map_page` per page, in page order, so
        a scheme's counters, resizes and merges match a page-at-a-time
        install; the radix trees override it to fill each PTE node in
        one visit.  Returns the summed ``map_page`` results.
        """
        created = 0
        for i, frame in enumerate(frames):
            created += self.map_page(vaddr + i * PAGE_SIZE, frame, flags)
        return created

    def translate(self, vaddr: int) -> Translation:
        raise NotImplementedError

    def protect_range(self, vaddr: int, size: int,
                      flags: PageFlags) -> int:
        raise NotImplementedError

    def clear_range(self, vaddr: int, size: int) -> int:
        raise NotImplementedError

    def destroy(self) -> None:
        raise NotImplementedError

    def attach_fragment(self, vaddr: int, fragment: PageTableNode,
                        flags: PageFlags) -> int:
        raise NotSupportedError(
            f"{self.name}: no shareable fragments to attach")

    # -- DaxVM capability hooks ----------------------------------------
    def attach_region(self, vaddr: int, table, region: int,
                      flags: PageFlags
                      ) -> Tuple[float, Optional[tuple]]:
        """Make one 2 MB file-table region visible at ``vaddr``.

        Returns ``(cycles, attachment)`` where ``attachment`` is the
        ``(vaddr, level, payload)`` record for ``vma.attachments`` (or
        ``None`` when the region holds no translations).  Schemes
        without fragments fall back to populate-on-attach with honest
        per-insert cost.
        """
        raise NotImplementedError

    def attach_gb(self, vaddr: int, table, gb: int, flags: PageFlags
                  ) -> Tuple[float, Optional[tuple]]:
        """PUD-granularity attach of one GB of a file table."""
        raise NotImplementedError

    def detach_cost(self, num_attachments: int) -> float:
        """Cycles to detach a mapping's attachments.

        Called immediately after :meth:`clear_range` over the mapping,
        so populate-on-attach schemes may price the entries that clear
        actually removed.
        """
        raise NotImplementedError

    # -- walk-cost hooks (consumed by MMStruct._tlb_cost) ---------------
    def walk_cost(self, walker: PageWalker, pattern: AccessPattern,
                  leaf_medium: Medium, leaf_factor: float = 1.0) -> float:
        """Average cycles per base-page TLB miss under this MMU."""
        raise NotImplementedError

    def huge_walk_cost(self, walker: PageWalker) -> float:
        """Average cycles per huge-page TLB miss under this MMU."""
        raise NotImplementedError

    #: Two-dimensional walk blowup for nested (guest) translation.
    #: For an n-level guest tree over an m-level host tree, a full 2D
    #: walk references n·m + n + m structure entries against n for a
    #: native walk (Intel SDM vol. 3, EPT): 24/4 = 6x for radix4 on
    #: radix4, 35/5 = 7x for radix5.  Non-radix schemes default to 2x —
    #: each guest lookup needs exactly one host lookup (two probe
    #: chains for hashed, two binary searches for range).
    NESTED_WALK_FACTOR: float = 2.0

    def nested_walk_cost(self, walker: PageWalker, pattern: AccessPattern,
                         leaf_medium: Medium,
                         leaf_factor: float = 1.0) -> float:
        """Average cycles per base-page TLB miss for a *guest*
        translation nested over this MMU (guest-virtual →
        guest-physical → host-physical).  Only consulted when a
        hypervisor marks the address space nested; bare machines never
        call it.
        """
        return self.NESTED_WALK_FACTOR * self.walk_cost(
            walker, pattern, leaf_medium, leaf_factor=leaf_factor)

    def nested_huge_walk_cost(self, walker: PageWalker) -> float:
        """Huge-page analogue of :meth:`nested_walk_cost`."""
        return self.NESTED_WALK_FACTOR * self.huge_walk_cost(walker)

    def effective_leaf_medium(self, table_medium: Medium) -> Medium:
        """Medium a walk's last load hits for a file-table mapping.

        Radix walks end in the shared table itself; schemes that copy
        entries into process-private structures stay in their own
        medium regardless of where the file table lives.
        """
        raise NotImplementedError

    def coalesce_tlb_misses(self, misses: float, vaddr: int,
                            npages: int) -> float:
        """Cap an access window's base-page TLB misses.

        Radix and hashed MMUs cache one translation per page, so the
        per-page miss estimate stands (returned unchanged — the default
        is bit-identical by construction).  Schemes whose TLB entries
        cover more than one page override this: the range MMU holds one
        entry per contiguous run, so a window spanning K runs can miss
        at most K times no matter how many pages it touches.
        """
        return misses

    # -- structure-frame accounting ------------------------------------
    def structure_frames(self) -> List[int]:
        """Frames owned by this scheme (shared fragments excluded)."""
        raise NotImplementedError

    # -- state ----------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# radix4 / radix5 — the tree schemes.
# ---------------------------------------------------------------------------
class Radix4Scheme(PageTable, TranslationScheme):
    """The x86-64 4-level radix MMU — *the* pre-refactor simulator.

    Subclasses :class:`PageTable` directly (same ``__init__`` chain,
    same allocation order, same walk bookkeeping), so every frame
    number, every charged cycle and every serialised byte matches the
    tree before the scheme interface existed.  The golden gate
    (``tests/golden/mmu_equivalence.json``) holds it to that.
    """

    name = "radix4"
    supports_fragments = True
    ROOT_LEVEL = PGD_LEVEL
    #: (4·4 + 4 + 4) / 4 — the EPT-style 2D walk over two 4-level trees.
    NESTED_WALK_FACTOR = 6.0

    def __init__(self, physmem: PhysicalMemory, costs: CostModel,
                 medium: Medium = Medium.DRAM,
                 node: Optional[int] = None):
        super().__init__(physmem, medium, root_level=type(self).ROOT_LEVEL,
                         shared=False, node=node)
        self.costs = costs

    # -- DaxVM hooks: replicate the historical DaxVM._attach body ------
    def attach_region(self, vaddr, table, region, flags):
        entry = table.region_entry(region)
        if entry is None:
            return 0.0, None
        kind, payload = entry
        if kind == "huge":
            self.map_page(vaddr, payload, flags | PageFlags.HUGE,
                          PMD_LEVEL)
        else:
            self.attach_fragment(vaddr, payload, flags)
        return self.costs.pmd_attach, (vaddr, PMD_LEVEL, payload)

    def attach_gb(self, vaddr, table, gb, flags):
        node = table.pmd_nodes.get(gb)
        if node is None:
            return 0.0, None
        self.attach_fragment(vaddr, node, flags)
        return self.costs.pmd_attach, (vaddr, PMD_LEVEL + 1, node)

    def detach_cost(self, num_attachments: int) -> float:
        return num_attachments * self.costs.pmd_attach

    # -- walk hooks ------------------------------------------------------
    def walk_cost(self, walker, pattern, leaf_medium, leaf_factor=1.0):
        return walker.walk_cost(pattern, leaf_medium,
                                leaf_factor=leaf_factor)

    def huge_walk_cost(self, walker):
        return walker.costs.walk_huge

    def effective_leaf_medium(self, table_medium: Medium) -> Medium:
        return table_medium

    # -- accounting ------------------------------------------------------
    def structure_frames(self) -> List[int]:
        frames: List[int] = []

        def _walk(node: PageTableNode) -> None:
            if node.shared:
                return
            frames.append(node.frame)
            for entry in node.entries.values():
                if not entry.is_leaf:
                    _walk(entry.child)

        _walk(self.root)
        return frames

    # -- state ----------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "medium": self.medium.value,
            "node": self.node,
            "nodes_allocated": self.nodes_allocated,
            "root": _node_state(self.root),
        }


class Radix5Scheme(Radix4Scheme):
    """5-level paging (LA57): one extra upper level on every walk.

    Structure and attach semantics are identical to ``radix4`` — the
    same shared fragments splice in at the same levels — but the tree
    is one node taller, and each walk pays one more upper-level step
    (cheap sequentially, where the paging-structure caches absorb it;
    dearer under random access).
    """

    name = "radix5"
    ROOT_LEVEL = PGD_LEVEL + 1
    #: (5·5 + 5 + 5) / 5 — two 5-level trees.
    NESTED_WALK_FACTOR = 7.0

    def walk_cost(self, walker, pattern, leaf_medium, leaf_factor=1.0):
        base = walker.walk_cost(pattern, leaf_medium,
                                leaf_factor=leaf_factor)
        extra = (self.costs.walk5_upper_extra_seq
                 if pattern is AccessPattern.SEQUENTIAL
                 else self.costs.walk5_upper_extra_rand)
        return base + extra

    def huge_walk_cost(self, walker):
        return walker.costs.walk_huge + self.costs.walk5_upper_extra_seq


def _node_state(node: PageTableNode) -> Dict[str, object]:
    """Serialise one owned node; shared children become stubs.

    Shared fragments belong to the file system, not the scheme, so the
    dump records only the splice (frame/level).
    """
    if node.shared:
        return {"level": node.level, "frame": node.frame, "shared": True}
    return {
        "level": node.level,
        "frame": node.frame,
        "shared": False,
        "entries": {
            str(idx): {
                "frame": entry.frame,
                "flags": int(entry.flags.value),
                "child": (_node_state(entry.child)
                          if entry.child is not None else None),
            }
            for idx, entry in sorted(node.entries.items())
        },
    }


# ---------------------------------------------------------------------------
# hashed — open-addressed inverted page table.
# ---------------------------------------------------------------------------
class HashedScheme(TranslationScheme):
    """Inverted page table: one flat open-addressed hash per process.

    Entries are ``(VPN -> frame, flags)`` at each leaf size.  The
    walk is a probe chain — the same cost sequential or random, since
    neighbouring VPNs hash apart and there is no leaf-locality to
    exploit — and the table lives in process-private DRAM, so a
    persistent (PMem) file table never slows the walk.  The price is
    the attach path: nothing is shareable, so DaxVM's O(1) splice
    becomes one ``hashed_insert`` per page.
    """

    name = "hashed"
    supports_fragments = False
    ENTRY_BYTES = 16
    INITIAL_CAPACITY = 1024
    LOAD_FACTOR = 0.7

    def __init__(self, physmem: PhysicalMemory, costs: CostModel,
                 medium: Medium = Medium.DRAM,
                 node: Optional[int] = None):
        self.physmem = physmem
        self.costs = costs
        self.medium = medium
        self.node = node
        #: leaf level -> {vpn-at-that-level -> [frame, flags]}.
        self.tables: Dict[int, Dict[int, List]] = {}
        self.capacity = self.INITIAL_CAPACITY
        self.frames: List[int] = []
        self._grow_to(self.capacity)
        self.inserts = 0
        self.resizes = 0
        self.attach_page_inserts = 0
        self.last_clear_entries = 0

    # -- bucket-array frames ---------------------------------------------
    def _frames_for(self, capacity: int) -> int:
        return -(-capacity * self.ENTRY_BYTES // PAGE_SIZE)

    def _grow_to(self, capacity: int) -> int:
        added = 0
        while len(self.frames) < self._frames_for(capacity):
            self.frames.append(self.physmem.alloc_frame(
                self.medium, node=self.node))
            added += 1
        return added

    @property
    def population(self) -> int:
        return sum(len(tbl) for tbl in self.tables.values())

    def _ensure_capacity(self) -> int:
        added = 0
        while self.population > self.LOAD_FACTOR * self.capacity:
            self.capacity *= 2
            added += self._grow_to(self.capacity)
            self.resizes += 1
        return added

    # -- mapping primitives ---------------------------------------------
    def map_page(self, vaddr, frame, flags, leaf_level=PTE_LEVEL):
        if vaddr % level_size(leaf_level):
            raise AddressSpaceError(
                f"vaddr {vaddr:#x} unaligned for level {leaf_level}")
        if leaf_level > PTE_LEVEL:
            flags |= PageFlags.HUGE
        for level in self.tables:
            if level > leaf_level and \
                    (vaddr >> level_shift(level)) in self.tables[level]:
                raise AddressSpaceError(
                    f"hugepage already maps {vaddr:#x}")
        tbl = self.tables.setdefault(leaf_level, {})
        tbl[vaddr >> level_shift(leaf_level)] = [frame, flags]
        self.inserts += 1
        return self._ensure_capacity()

    def translate(self, vaddr):
        for level in sorted(self.tables):
            entry = self.tables[level].get(vaddr >> level_shift(level))
            if entry is None:
                continue
            frame, flags = entry
            sub = (vaddr >> PAGE_SHIFT) & ((1 << (9 * level)) - 1)
            effective = (PageFlags.rw() | PageFlags.NX).combine(flags)
            return Translation(frame + sub, effective, level,
                               [self.medium])
        raise SegmentationFault(f"no translation for {vaddr:#x}")

    def _indices_in(self, tbl: Dict[int, List], level: int,
                    vaddr: int, size: int) -> List[int]:
        lo = vaddr >> level_shift(level)
        hi = (vaddr + size - 1) >> level_shift(level)
        if len(tbl) < hi - lo + 1:
            return [idx for idx in tbl if lo <= idx <= hi]
        return [idx for idx in range(lo, hi + 1) if idx in tbl]

    def protect_range(self, vaddr, size, flags):
        changed = 0
        for level, tbl in self.tables.items():
            for idx in self._indices_in(tbl, level, vaddr, size):
                frame, old = tbl[idx]
                tbl[idx] = [frame, flags | (old & _STATUS)]
                changed += 1
        return changed

    def clear_range(self, vaddr, size):
        pages = 0
        removed = 0
        for level, tbl in self.tables.items():
            for idx in self._indices_in(tbl, level, vaddr, size):
                del tbl[idx]
                removed += 1
                pages += level_size(level) // PAGE_SIZE
        self.last_clear_entries = removed
        return pages

    def destroy(self):
        for frame in self.frames:
            self.physmem.free_frame(frame)
        self.frames.clear()
        self.tables.clear()

    # -- DaxVM hooks: populate-on-attach ---------------------------------
    def _populate_region(self, vaddr: int, table, region: int,
                         flags: PageFlags) -> int:
        """Insert one file-table region entry by entry; returns inserts."""
        inserted = 0
        huge = region in table.huge_frames
        for page_idx, base_frame, npages in table.region_runs(region):
            if huge:
                self.map_page(vaddr, base_frame,
                              flags | PageFlags.HUGE, PMD_LEVEL)
                inserted += 1
                continue
            for k in range(npages):
                self.map_page(vaddr + (page_idx + k) * PAGE_SIZE,
                              base_frame + k, flags)
                inserted += 1
        self.attach_page_inserts += inserted
        return inserted

    def attach_region(self, vaddr, table, region, flags):
        inserted = self._populate_region(vaddr, table, region, flags)
        if not inserted:
            return 0.0, None
        return (inserted * self.costs.hashed_insert,
                (vaddr, PMD_LEVEL, None))

    def attach_gb(self, vaddr, table, gb, flags):
        node = table.pmd_nodes.get(gb)
        if node is None:
            return 0.0, None
        inserted = 0
        for ridx in sorted(node.entries):
            inserted += self._populate_region(
                vaddr + ridx * PMD_SIZE, table,
                gb * 512 + ridx, flags)
        if not inserted:
            return 0.0, None
        return (inserted * self.costs.hashed_insert,
                (vaddr, PMD_LEVEL + 1, None))

    def detach_cost(self, num_attachments: int) -> float:
        # Every entry the preceding clear removed was its own probe;
        # plain (attachment-free) mappings already paid pte_teardown.
        if not num_attachments:
            return 0.0
        return self.last_clear_entries * self.costs.hashed_insert

    # -- walk hooks -------------------------------------------------------
    def walk_cost(self, walker, pattern, leaf_medium, leaf_factor=1.0):
        # One probe chain into the process-private table: pattern and
        # file-table medium are irrelevant (neighbouring VPNs hash
        # apart; the inverted table itself is DRAM).
        return (self.costs.hashed_walk_compute
                + self.costs.hashed_probe_avg * self.costs.walk_leaf_dram)

    def huge_walk_cost(self, walker):
        return self.walk_cost(walker, AccessPattern.SEQUENTIAL,
                              Medium.DRAM)

    def effective_leaf_medium(self, table_medium: Medium) -> Medium:
        return self.medium

    # -- accounting -------------------------------------------------------
    def structure_frames(self) -> List[int]:
        return list(self.frames)

    # -- state -------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "medium": self.medium.value,
            "node": self.node,
            "capacity": self.capacity,
            "frames": list(self.frames),
            "tables": {str(level): {str(idx): [frame, int(flags.value)]
                                    for idx, (frame, flags)
                                    in sorted(tbl.items())}
                       for level, tbl in sorted(self.tables.items())},
            "inserts": self.inserts,
            "resizes": self.resizes,
            "attach_page_inserts": self.attach_page_inserts,
            "last_clear_entries": self.last_clear_entries,
        }


# ---------------------------------------------------------------------------
# range — segment/range translation.
# ---------------------------------------------------------------------------
class RangeScheme(TranslationScheme):
    """Range translation: sorted ``[start, end) -> base frame`` entries.

    Contiguous virtual runs mapping contiguous frames collapse into
    one entry — exactly the shape of DaxVM's 2 MB extents on a clean
    image, making attach O(runs) without any shared structures.  Aged
    images fragment regions into many runs (one ``range_insert``
    each), and every walk binary-searches the table, so the walk cost
    grows with ``log2(ranges)``.
    """

    name = "range"
    supports_fragments = False
    RANGES_PER_FRAME = 128

    def __init__(self, physmem: PhysicalMemory, costs: CostModel,
                 medium: Medium = Medium.DRAM,
                 node: Optional[int] = None):
        self.physmem = physmem
        self.costs = costs
        self.medium = medium
        self.node = node
        #: Sorted, non-overlapping [start, end, base_frame, flags].
        self.ranges: List[List] = []
        self.frames: List[int] = []
        self._adjust_frames()
        self.range_inserts = 0
        self.range_merges = 0
        self.attach_run_inserts = 0
        self.last_clear_segments = 0

    # -- structure frames (high-water, never shrunk until destroy) -------
    def _adjust_frames(self) -> int:
        needed = max(1, -(-len(self.ranges) // self.RANGES_PER_FRAME))
        added = 0
        while len(self.frames) < needed:
            self.frames.append(self.physmem.alloc_frame(
                self.medium, node=self.node))
            added += 1
        return added

    # -- search / surgery -------------------------------------------------
    def _find(self, vaddr: int) -> int:
        """Index of the last range with ``start <= vaddr`` (or -1)."""
        lo, hi = 0, len(self.ranges)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.ranges[mid][0] <= vaddr:
                lo = mid + 1
            else:
                hi = mid
        return lo - 1

    def _remove(self, start: int, size: int) -> Tuple[int, int]:
        """Drop [start, start+size); returns (pages, segments) removed.

        Partially covered ranges are trimmed or split, preserving the
        frame arithmetic of the surviving pieces.
        """
        end = start + size
        pages = 0
        segments = 0
        out: List[List] = []
        for rng in self.ranges:
            r_start, r_end, base, flags = rng
            if r_end <= start or r_start >= end:
                out.append(rng)
                continue
            cut_lo = max(r_start, start)
            cut_hi = min(r_end, end)
            pages += (cut_hi - cut_lo) // PAGE_SIZE
            segments += 1
            if r_start < cut_lo:
                out.append([r_start, cut_lo, base, flags])
            if cut_hi < r_end:
                out.append([cut_hi, r_end,
                            base + (cut_hi - r_start) // PAGE_SIZE, flags])
        self.ranges = out
        return pages, segments

    def _insert(self, start: int, end: int, base_frame: int,
                flags: PageFlags) -> None:
        """Insert one run, merging with frame-contiguous neighbours."""
        self._remove(start, end - start)
        i = self._find(start) + 1
        merged = False
        if i > 0:
            pred = self.ranges[i - 1]
            if (pred[1] == start and pred[3] == flags
                    and pred[2] + (pred[1] - pred[0]) // PAGE_SIZE
                    == base_frame):
                pred[1] = end
                self.range_merges += 1
                merged = True
                i -= 1
        if not merged:
            self.ranges.insert(i, [start, end, base_frame, flags])
        rng = self.ranges[i]
        if i + 1 < len(self.ranges):
            succ = self.ranges[i + 1]
            if (rng[1] == succ[0] and rng[3] == succ[3]
                    and rng[2] + (rng[1] - rng[0]) // PAGE_SIZE
                    == succ[2]):
                rng[1] = succ[1]
                del self.ranges[i + 1]
                self.range_merges += 1
        self.range_inserts += 1
        self._adjust_frames()

    # -- mapping primitives ------------------------------------------------
    def map_page(self, vaddr, frame, flags, leaf_level=PTE_LEVEL):
        span = level_size(leaf_level)
        if vaddr % span:
            raise AddressSpaceError(
                f"vaddr {vaddr:#x} unaligned for level {leaf_level}")
        if leaf_level > PTE_LEVEL:
            flags |= PageFlags.HUGE
        self._insert(vaddr, vaddr + span, frame, flags)
        return 0

    def translate(self, vaddr):
        i = self._find(vaddr)
        if i >= 0:
            start, end, base, flags = self.ranges[i]
            if vaddr < end:
                frame = base + (vaddr - start) // PAGE_SIZE
                effective = (PageFlags.rw() | PageFlags.NX).combine(flags)
                level = (PMD_LEVEL if flags & PageFlags.HUGE
                         else PTE_LEVEL)
                return Translation(frame, effective, level, [self.medium])
        raise SegmentationFault(f"no translation for {vaddr:#x}")

    def protect_range(self, vaddr, size, flags):
        end = vaddr + size
        changed = 0
        out: List[List] = []
        for rng in self.ranges:
            r_start, r_end, base, old = rng
            if r_end <= vaddr or r_start >= end:
                out.append(rng)
                continue
            cut_lo = max(r_start, vaddr)
            cut_hi = min(r_end, end)
            if r_start < cut_lo:
                out.append([r_start, cut_lo, base, old])
            out.append([cut_lo, cut_hi,
                        base + (cut_lo - r_start) // PAGE_SIZE,
                        flags | (old & _STATUS)])
            if cut_hi < r_end:
                out.append([cut_hi, r_end,
                            base + (cut_hi - r_start) // PAGE_SIZE, old])
            changed += 1
        self.ranges = out
        self._adjust_frames()
        return changed

    def clear_range(self, vaddr, size):
        pages, segments = self._remove(vaddr, size)
        self.last_clear_segments = segments
        return pages

    def destroy(self):
        for frame in self.frames:
            self.physmem.free_frame(frame)
        self.frames.clear()
        self.ranges.clear()

    # -- DaxVM hooks: one insert per contiguous run -----------------------
    def _attach_runs(self, vaddr: int, table, region: int,
                     flags: PageFlags) -> int:
        runs = 0
        huge = region in table.huge_frames
        for page_idx, base_frame, npages in table.region_runs(region):
            run_flags = flags | PageFlags.HUGE if huge else flags
            self._insert(vaddr + page_idx * PAGE_SIZE,
                         vaddr + (page_idx + npages) * PAGE_SIZE,
                         base_frame, run_flags)
            runs += 1
        self.attach_run_inserts += runs
        return runs

    def attach_region(self, vaddr, table, region, flags):
        runs = self._attach_runs(vaddr, table, region, flags)
        if not runs:
            return 0.0, None
        return runs * self.costs.range_insert, (vaddr, PMD_LEVEL, None)

    def attach_gb(self, vaddr, table, gb, flags):
        node = table.pmd_nodes.get(gb)
        if node is None:
            return 0.0, None
        runs = 0
        for ridx in sorted(node.entries):
            runs += self._attach_runs(vaddr + ridx * PMD_SIZE, table,
                                      gb * 512 + ridx, flags)
        if not runs:
            return 0.0, None
        return runs * self.costs.range_insert, (vaddr, PMD_LEVEL + 1, None)

    def detach_cost(self, num_attachments: int) -> float:
        if not num_attachments:
            return 0.0
        return self.last_clear_segments * self.costs.range_insert

    # -- walk hooks ---------------------------------------------------------
    def walk_depth(self) -> int:
        return max(1, len(self.ranges)).bit_length()

    def walk_cost(self, walker, pattern, leaf_medium, leaf_factor=1.0):
        # Binary search over the (DRAM-resident, process-private)
        # range table; depth grows with fragmentation.
        return (self.costs.range_walk_base
                + self.walk_depth() * self.costs.range_walk_step)

    def huge_walk_cost(self, walker):
        return self.walk_cost(walker, AccessPattern.SEQUENTIAL,
                              Medium.DRAM)

    def effective_leaf_medium(self, table_medium: Medium) -> Medium:
        return self.medium

    def coalesce_tlb_misses(self, misses: float, vaddr: int,
                            npages: int) -> float:
        """One range-TLB entry covers a whole contiguous run, so the
        window's misses are capped by the number of runs it overlaps —
        a clean image maps one run per attachment and pays ~1 miss
        where the radix MMU pays one per page; an aged image's
        fragmented runs erode exactly that advantage."""
        end = vaddr + npages * PAGE_SIZE
        index = max(0, self._find(vaddr))
        runs = 0
        while index < len(self.ranges) and self.ranges[index][0] < end:
            if self.ranges[index][1] > vaddr:
                runs += 1
            index += 1
        if runs == 0:
            # Window not yet mapped (misses estimated pre-fault):
            # treat it as one run per future attachment — at worst the
            # per-page estimate.
            return min(misses, 1.0) if misses else misses
        return min(misses, float(runs))

    # -- accounting ---------------------------------------------------------
    def structure_frames(self) -> List[int]:
        return list(self.frames)

    # -- state ---------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "medium": self.medium.value,
            "node": self.node,
            "frames": list(self.frames),
            "ranges": [[start, end, base, int(flags.value)]
                       for start, end, base, flags in self.ranges],
            "range_inserts": self.range_inserts,
            "range_merges": self.range_merges,
            "attach_run_inserts": self.attach_run_inserts,
            "last_clear_segments": self.last_clear_segments,
        }


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------
SCHEMES: Dict[str, type] = {
    "radix4": Radix4Scheme,
    "radix5": Radix5Scheme,
    "hashed": HashedScheme,
    "range": RangeScheme,
}
SCHEME_NAMES: Tuple[str, ...] = tuple(SCHEMES)


def make_scheme(name: str, physmem: PhysicalMemory, costs: CostModel,
                medium: Medium = Medium.DRAM,
                node: Optional[int] = None) -> TranslationScheme:
    cls = SCHEMES.get(name)
    if cls is None:
        raise KeyError(
            f"unknown translation scheme {name!r}; known: {SCHEME_NAMES}")
    return cls(physmem, costs, medium, node=node)


__all__ = [
    "SCHEMES",
    "SCHEME_NAMES",
    "HashedScheme",
    "Radix4Scheme",
    "Radix5Scheme",
    "RangeScheme",
    "TranslationScheme",
    "make_scheme",
]
