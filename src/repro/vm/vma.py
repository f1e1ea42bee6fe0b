"""Virtual memory areas and mapping flags.

A :class:`VMA` records one mapping of a file (or anonymous memory)
into a process address space, together with the state demand paging
and software dirty tracking need: which pages are populated, which are
currently write-enabled, and — for DaxVM mappings — which file-table
fragments are attached and at what granularity dirtiness is tracked.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Set, Tuple

from repro.errors import InvalidArgumentError
from repro.fs.vfs import Inode
from repro.mem.physmem import Medium

PAGE_SIZE = 4096


class Protection(enum.Flag):
    """mmap prot bits."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()

    @staticmethod
    def rw() -> "Protection":
        return Protection.READ | Protection.WRITE


class MapFlags(enum.Flag):
    """mmap flags — POSIX ones plus the three DaxVM additions (§IV-F)."""

    NONE = 0
    SHARED = enum.auto()
    PRIVATE = enum.auto()
    #: Pre-fault the whole mapping at mmap time (MAP_POPULATE).
    POPULATE = enum.auto()
    #: Synchronous DAX semantics: metadata durable before user writes.
    SYNC = enum.auto()
    #: DaxVM: short-lived mapping, no memory-operation support.
    EPHEMERAL = enum.auto()
    #: DaxVM: munmap may be deferred and batched.
    UNMAP_ASYNC = enum.auto()
    #: DaxVM: msync becomes a no-op; durability is user-space managed.
    NO_MSYNC = enum.auto()


_SHARED_BIT = MapFlags.SHARED.value
_NO_MSYNC_BIT = MapFlags.NO_MSYNC.value
_WRITE_BIT = Protection.WRITE.value


class VMA:
    """One virtual memory area."""

    _next_id = 1

    def __init__(self, start: int, end: int, inode: Optional[Inode],
                 file_offset: int, prot: Protection, flags: MapFlags):
        if end <= start:
            raise InvalidArgumentError("empty VMA")
        if start % PAGE_SIZE or end % PAGE_SIZE:
            raise InvalidArgumentError("VMA bounds must be page aligned")
        self.id = VMA._next_id
        VMA._next_id += 1
        self.start = start
        self.end = end
        self.inode = inode
        self.file_offset = file_offset
        self.prot = prot
        self.flags = flags
        #: Page indices (VMA-relative) with installed translations.
        self.populated: Set[int] = set()
        #: Page indices currently write-enabled (dirty-tracking state).
        self.writable: Set[int] = set()
        #: For huge-page mappings: VMA-relative 2 MB region indices
        #: installed as PMD leaves.
        self.huge_regions: Set[int] = set()
        #: DaxVM: attached file-table fragments as
        #: (vaddr, attach_level, fragment) tuples.
        self.attachments: List[Tuple[int, int, object]] = []
        #: DaxVM: dirty tracking granule (bytes); None = default 4 KB.
        self.dirty_granule: Optional[int] = None
        #: Pages with live translations through this mapping (set by
        #: DaxVM attach; drives zombie-page accounting).  The rounded
        #: VMA span can be much larger than what is actually mapped.
        self.mapped_pages = 0
        #: Set when a deferred (zombie) unmap has logically removed
        #: this mapping but its translations are not yet invalidated.
        self.zombie = False
        #: The file system serving this mapping (set by MMStruct.mmap).
        self.fs = None
        #: The memory manager owning this mapping (set by MMStruct.mmap
        #: / fork and by DaxVM.mmap).  Cross-process operations — e.g.
        #: an msync reprotecting every mapping of an inode — use it to
        #: target TLB shootdowns at every owner's cores, not just the
        #: caller's.
        self.mm = None
        #: DaxVM O(1) mappings have every translation attached up
        #: front, so demand-fault checks short-circuit on this flag.
        self.fully_populated = False
        #: Medium holding the leaf page-table level for this mapping —
        #: DRAM for baseline mappings, PMEM when DaxVM attaches
        #: persistent file tables (drives Table II walk costs).
        self.leaf_medium = Medium.DRAM

    # -- geometry ------------------------------------------------------------
    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def num_pages(self) -> int:
        return self.length // PAGE_SIZE

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def page_index(self, addr: int) -> int:
        if not self.contains(addr):
            raise InvalidArgumentError(
                f"{addr:#x} outside VMA [{self.start:#x}, {self.end:#x})")
        return (addr - self.start) // PAGE_SIZE

    def file_page(self, vma_page: int) -> int:
        """File page number backing a VMA-relative page index."""
        return self.file_offset // PAGE_SIZE + vma_page

    # -- classification ---------------------------------------------------
    @property
    def is_ephemeral(self) -> bool:
        return bool(self.flags & MapFlags.EPHEMERAL)

    @property
    def tracks_dirty(self) -> bool:
        """Kernel-side dirty tracking active for this mapping?"""
        # Raw-int flag tests: this property gates every access/fault.
        return (self.inode is not None
                and self.flags._value_ & _SHARED_BIT != 0
                and self.prot._value_ & _WRITE_BIT != 0
                and self.flags._value_ & _NO_MSYNC_BIT == 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = self.inode.path if self.inode else "anon"
        return (f"<VMA#{self.id} [{self.start:#x},{self.end:#x}) {name} "
                f"{self.flags}>")
