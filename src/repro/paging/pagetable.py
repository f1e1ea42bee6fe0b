"""x86-64 four-level radix page tables, built as real data structures.

Process page tables and DaxVM *file tables* are both made of
:class:`PageTableNode` objects.  A file table is a fragment (a PTE- or
PMD-level subtree) owned by the file system and marked ``shared``;
DaxVM splices such fragments into process trees at interior entries
(:meth:`PageTable.attach_fragment`), which is precisely the paper's
O(1) mmap: the attach touches one interior entry per 2 MB/1 GB of
mapping instead of one PTE per 4 KB page.

Every node occupies one physical frame (from DRAM or PMem), so walking
a table can report which medium each level was read from — that is what
the page-walk cost model consumes to reproduce Table II — and the
storage tax of persistent file tables (§V-B) falls out of frame
accounting.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import AddressSpaceError, SegmentationFault
from repro.mem.physmem import AllocPolicy, Medium, PhysicalMemory
from repro.paging.flags import PageFlags

#: Radix-tree levels, leaf to root.
PTE_LEVEL = 0
PMD_LEVEL = 1
PUD_LEVEL = 2
PGD_LEVEL = 3
Level = int

PAGE_SHIFT = 12
ENTRIES_PER_NODE = 512
PAGE_SIZE = 1 << PAGE_SHIFT


def level_shift(level: Level) -> int:
    """Bit shift of the given level's index field within an address."""
    return PAGE_SHIFT + 9 * level


def level_size(level: Level) -> int:
    """Bytes mapped by one entry at ``level`` (4 KB / 2 MB / 1 GB...)."""
    return 1 << level_shift(level)


def level_index(vaddr: int, level: Level) -> int:
    return (vaddr >> level_shift(level)) & (ENTRIES_PER_NODE - 1)


class Entry:
    """One slot in a page-table node: a leaf mapping or a child pointer."""

    __slots__ = ("frame", "flags", "child")

    def __init__(self, frame: Optional[int] = None,
                 flags: PageFlags = PageFlags.NONE,
                 child: Optional["PageTableNode"] = None):
        self.frame = frame
        self.flags = flags
        self.child = child

    @property
    def is_leaf(self) -> bool:
        return self.child is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "leaf" if self.is_leaf else "table"
        return f"<Entry {kind} frame={self.frame} {self.flags}>"


class PageTableNode:
    """One 4 KB page of 512 entries at a given level."""

    __slots__ = ("level", "entries", "frame", "medium", "shared")

    def __init__(self, level: Level, frame: int, medium: Medium,
                 shared: bool = False):
        self.level = level
        self.entries: Dict[int, Entry] = {}
        self.frame = frame
        self.medium = medium
        #: Shared nodes belong to a file table; process-tree teardown
        #: must detach them, never free or clear them.
        self.shared = shared

    @property
    def population(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<PTNode L{self.level} {self.medium.value} "
                f"pop={self.population} shared={self.shared}>")


class Translation:
    """Result of a simulated page walk."""

    __slots__ = ("frame", "flags", "leaf_level", "level_media")

    def __init__(self, frame: int, flags: PageFlags, leaf_level: Level,
                 level_media: List[Medium]):
        self.frame = frame
        self.flags = flags
        self.leaf_level = leaf_level
        #: Media of the nodes visited, root first — the walker model
        #: charges PMem latency for levels resident in PMem.
        self.level_media = level_media

    @property
    def page_size(self) -> int:
        return level_size(self.leaf_level)


class PageTable:
    """A page-table radix tree rooted at a PGD (or a file-table fragment).

    ``root_level`` below PGD builds a *fragment*: DaxVM file tables are
    fragments rooted at PTE or PMD level.
    """

    def __init__(self, physmem: PhysicalMemory, medium: Medium = Medium.DRAM,
                 root_level: Level = PGD_LEVEL, shared: bool = False,
                 node: Optional[int] = None,
                 policy: AllocPolicy = AllocPolicy.PREFERRED):
        self.physmem = physmem
        self.medium = medium
        self.shared = shared
        #: NUMA placement of table frames: a process's tables live on
        #: its home node, a persistent file table on the file's node.
        #: ``None`` keeps the legacy node-0 allocation.
        self.node = node
        self.policy = policy
        self.root = self._new_node(root_level)
        self.nodes_allocated = 1
        # Last PTE-level node a 4 KB map landed in, keyed by the
        # address bits above the node (its 2 MB "tag").  Sequential
        # fault streams install hundreds of PTEs into one node; the
        # cache skips the interior walk for every repeat.  Anything
        # that can detach a subtree (prune/free, shared-fragment
        # detach, a huge leaf overwriting an interior slot) resets it.
        self._leaf_cache_tag = -1
        self._leaf_cache_node: Optional[PageTableNode] = None

    # -- node lifecycle -----------------------------------------------------
    def _new_node(self, level: Level) -> PageTableNode:
        frame = self.physmem.alloc_frame(self.medium, node=self.node,
                                         policy=self.policy)
        return PageTableNode(level, frame, self.medium, shared=self.shared)

    def _free_node(self, node: PageTableNode) -> None:
        if node is self._leaf_cache_node:
            self._leaf_cache_tag = -1
            self._leaf_cache_node = None
        self.physmem.free_frame(node.frame)
        self.nodes_allocated -= 1

    # -- mapping -----------------------------------------------------------
    def map_page(self, vaddr: int, frame: int, flags: PageFlags,
                 leaf_level: Level = PTE_LEVEL) -> int:
        """Install a leaf at ``leaf_level``; returns nodes created.

        ``leaf_level`` = PTE_LEVEL maps a 4 KB page, PMD_LEVEL a 2 MB
        huge page (flags gain HUGE), PUD_LEVEL a 1 GB huge page.
        """
        if vaddr % level_size(leaf_level):
            raise AddressSpaceError(
                f"vaddr {vaddr:#x} unaligned for level {leaf_level}")
        if leaf_level == PTE_LEVEL:
            if vaddr >> (PAGE_SHIFT + 9) == self._leaf_cache_tag:
                idx = (vaddr >> PAGE_SHIFT) & (ENTRIES_PER_NODE - 1)
                self._leaf_cache_node.entries[idx] = Entry(frame=frame,
                                                           flags=flags)
                return 0
        else:
            flags |= PageFlags.HUGE
            # The huge leaf overwrites an interior slot: any PTE node
            # beneath it is orphaned, so the cache cannot be trusted.
            self._leaf_cache_tag = -1
            self._leaf_cache_node = None
        node = self.root
        created = 0
        rw = PageFlags.rw()
        # level_index/level_size inlined: this walk runs once per fault.
        while node.level > leaf_level:
            idx = (vaddr >> (PAGE_SHIFT + 9 * node.level)) \
                & (ENTRIES_PER_NODE - 1)
            entry = node.entries.get(idx)
            if entry is None or entry.child is None:
                if entry is not None:
                    raise AddressSpaceError(
                        f"hugepage already maps {vaddr:#x}")
                child = self._new_node(node.level - 1)
                self.nodes_allocated += 1
                created += 1
                node.entries[idx] = Entry(frame=child.frame,
                                          flags=rw, child=child)
                node = child
            else:
                node = entry.child
        idx = (vaddr >> (PAGE_SHIFT + 9 * node.level)) \
            & (ENTRIES_PER_NODE - 1)
        node.entries[idx] = Entry(frame=frame, flags=flags)
        if leaf_level == PTE_LEVEL:
            self._leaf_cache_tag = vaddr >> (PAGE_SHIFT + 9)
            self._leaf_cache_node = node
        return created

    def map_run(self, vaddr: int, frames: Sequence[int],
                flags: PageFlags) -> int:
        """Map 4 KB pages ``vaddr, vaddr + 4 KB, ...`` onto ``frames``;
        returns nodes created.

        Equal to one :meth:`map_page` per page, in page order: the
        first page of each PTE node goes through ``map_page``, which
        walks, allocates missing nodes in the same order and caches the
        node; the node's remaining slots of the run are filled directly.
        """
        created = 0
        n = len(frames)
        i = 0
        while i < n:
            addr = vaddr + i * PAGE_SIZE
            created += self.map_page(addr, frames[i], flags)
            idx = (addr >> PAGE_SHIFT) & (ENTRIES_PER_NODE - 1)
            i += 1
            stop = i + ENTRIES_PER_NODE - 1 - idx
            if stop > n:
                stop = n
            if stop > i:
                entries = self._leaf_cache_node.entries
                for frame in frames[i:stop]:
                    idx += 1
                    entries[idx] = Entry(frame, flags)
                i = stop
        return created

    def unmap_page(self, vaddr: int, leaf_level: Level = PTE_LEVEL) -> bool:
        """Clear the leaf mapping ``vaddr``; returns True if present."""
        path = self._path_to(vaddr, leaf_level)
        if path is None:
            return False
        node, idx = path[-1]
        if idx in node.entries:
            del node.entries[idx]
            self._prune(path[:-1])
            return True
        return False

    def _path_to(self, vaddr: int, leaf_level: Level
                 ) -> Optional[List[Tuple[PageTableNode, int]]]:
        node = self.root
        path: List[Tuple[PageTableNode, int]] = []
        while node.level > leaf_level:
            idx = level_index(vaddr, node.level)
            path.append((node, idx))
            entry = node.entries.get(idx)
            if entry is None or entry.is_leaf or entry.child.shared:
                return None
            node = entry.child
        path.append((node, level_index(vaddr, node.level)))
        return path

    def _prune(self, path: List[Tuple[PageTableNode, int]]) -> None:
        """Free interior nodes that became empty, bottom-up."""
        for node, idx in reversed(path):
            entry = node.entries.get(idx)
            if entry is None or entry.child is None:
                continue
            child = entry.child
            if child.population == 0 and not child.shared:
                self._free_node(child)
                del node.entries[idx]

    # -- fragment attachment (DaxVM O(1) mmap) -----------------------------
    def attach_fragment(self, vaddr: int, fragment: PageTableNode,
                        flags: PageFlags) -> int:
        """Splice a shared subtree in at ``fragment.level + 1``.

        ``flags`` are the *attachment-level* permissions: the per-
        process rights of §IV-A2.  Returns interior nodes created.
        """
        attach_level = fragment.level + 1
        if vaddr % level_size(attach_level):
            raise AddressSpaceError(
                f"attach vaddr {vaddr:#x} unaligned to "
                f"{level_size(attach_level):#x}")
        node = self.root
        created = 0
        while node.level > attach_level:
            idx = level_index(vaddr, node.level)
            entry = node.entries.get(idx)
            if entry is None:
                child = self._new_node(node.level - 1)
                self.nodes_allocated += 1
                created += 1
                node.entries[idx] = Entry(frame=child.frame,
                                          flags=PageFlags.rw(), child=child)
                node = child
            elif entry.is_leaf:
                raise AddressSpaceError(f"hugepage blocks attach {vaddr:#x}")
            else:
                node = entry.child
        idx = level_index(vaddr, node.level)
        if idx in node.entries:
            raise AddressSpaceError(
                f"attach slot busy at {vaddr:#x} level {attach_level}")
        node.entries[idx] = Entry(frame=fragment.frame, flags=flags,
                                  child=fragment)
        return created

    def detach_fragment(self, vaddr: int, attach_level: Level) -> bool:
        """Remove a previously attached shared fragment (not freed)."""
        node = self.root
        while node.level > attach_level:
            idx = level_index(vaddr, node.level)
            entry = node.entries.get(idx)
            if entry is None or entry.is_leaf:
                return False
            node = entry.child
        idx = level_index(vaddr, node.level)
        entry = node.entries.get(idx)
        if entry is None or entry.is_leaf or not entry.child.shared:
            return False
        del node.entries[idx]
        return True

    # -- translation ---------------------------------------------------------
    def translate(self, vaddr: int) -> Translation:
        """Walk the tree; raises SegmentationFault on a hole."""
        node = self.root
        flags = PageFlags.rw() | PageFlags.NX
        media: List[Medium] = []
        while True:
            media.append(node.medium)
            idx = level_index(vaddr, node.level)
            entry = node.entries.get(idx)
            if entry is None:
                raise SegmentationFault(
                    f"no translation for {vaddr:#x} at level {node.level}")
            flags = flags.combine(entry.flags)
            if entry.is_leaf:
                base = entry.frame
                # Offset within a huge leaf resolves to a 4 KB frame.
                sub = (vaddr >> PAGE_SHIFT) & ((1 << (9 * node.level)) - 1)
                return Translation(base + sub, flags, node.level, media)
            node = entry.child

    def protect_range(self, vaddr: int, size: int,
                      flags: PageFlags) -> int:
        """Rewrite leaf permission bits over [vaddr, vaddr+size)."""
        changed = 0
        for leaf_vaddr, node, idx in self._leaves(vaddr, size):
            entry = node.entries[idx]
            status = entry.flags & (PageFlags.ACCESSED | PageFlags.DIRTY
                                    | PageFlags.HUGE)
            node.entries[idx] = Entry(entry.frame, flags | status,
                                      entry.child)
            changed += 1
        return changed

    def _leaves(self, vaddr: int, size: int
                ) -> Iterator[Tuple[int, PageTableNode, int]]:
        """Yield (vaddr, node, index) for present leaves in a range."""
        addr = vaddr
        end = vaddr + size
        while addr < end:
            node = self.root
            step = PAGE_SIZE
            found = None
            while True:
                idx = level_index(addr, node.level)
                entry = node.entries.get(idx)
                if entry is None:
                    step = level_size(node.level)
                    break
                if entry.is_leaf:
                    found = (addr, node, idx)
                    step = level_size(node.level)
                    break
                node = entry.child
            if found is not None:
                yield found
            addr = (addr // step + 1) * step

    # -- bulk teardown -----------------------------------------------------
    def clear_range(self, vaddr: int, size: int) -> int:
        """Unmap all leaves in a range; returns 4 KB pages cleared.

        Shared (file-table) subtrees encountered inside the range are
        detached whole rather than cleared entry by entry.
        """
        # A shared-fragment detach leaves the cached node owned by the
        # file table but unreachable from this tree — drop the cache
        # wholesale rather than tracking which subtree went away.
        self._leaf_cache_tag = -1
        self._leaf_cache_node = None
        pages = 0
        addr = vaddr
        end = vaddr + size
        while addr < end:
            node = self.root
            parent_chain: List[Tuple[PageTableNode, int]] = []
            step = PAGE_SIZE
            # level_index/level_size inlined: teardown walks every
            # mapped page of the range and dominates munmap profiles.
            while True:
                level = node.level
                if level == PTE_LEVEL:
                    # Leaf node: clear every in-range slot in one
                    # visit instead of re-walking from the root per
                    # 4 KB page — a munmap of N pages inside one PTE
                    # node is N dict deletes and a single prune, with
                    # the frame freed at the same point (when the last
                    # slot empties) as the page-at-a-time walk.
                    first = (addr >> PAGE_SHIFT) & (ENTRIES_PER_NODE - 1)
                    count = min(ENTRIES_PER_NODE - first,
                                (end - addr + PAGE_SIZE - 1)
                                >> PAGE_SHIFT)
                    entries = node.entries
                    removed = 0
                    for idx in range(first, first + count):
                        if idx in entries:
                            del entries[idx]
                            removed += 1
                    if removed:
                        pages += removed
                        self._prune(parent_chain)
                    step = 1 << (PAGE_SHIFT + 9)
                    break
                idx = (addr >> (PAGE_SHIFT + 9 * level)) \
                    & (ENTRIES_PER_NODE - 1)
                entry = node.entries.get(idx)
                if entry is None:
                    step = 1 << (PAGE_SHIFT + 9 * level)
                    break
                child = entry.child
                if child is not None and child.shared:
                    pages += child.population * (
                        level_size(level - 1) // PAGE_SIZE
                        if level - 1 > PTE_LEVEL else 1)
                    del node.entries[idx]
                    step = 1 << (PAGE_SHIFT + 9 * level)
                    break
                if child is None:
                    pages += 1 << (9 * level)
                    del node.entries[idx]
                    self._prune(parent_chain)
                    step = 1 << (PAGE_SHIFT + 9 * level)
                    break
                parent_chain.append((node, idx))
                node = child
            addr = (addr // step + 1) * step
        return pages

    def destroy(self) -> None:
        """Free every non-shared node (process exit)."""
        def _walk(node: PageTableNode) -> None:
            for entry in list(node.entries.values()):
                if not entry.is_leaf and not entry.child.shared:
                    _walk(entry.child)
            if not node.shared:
                self._free_node(node)
        _walk(self.root)
