"""The VFS layer: inodes, the inode cache, files, and the namespace.

This is the part of the kernel that open/close/unlink flow through.
It matters to DaxVM in one specific way (§IV-A1): *volatile* file
tables live exactly as long as the VFS inode stays cached — a cold open
must rebuild them, and eviction destroys them — while *persistent* file
tables hang off the on-media inode and survive reboot.  The inode cache
therefore exposes lifecycle hooks that DaxVM's file-table manager
subscribes to.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    BadFileDescriptorError,
    FileExistsError_,
    NoSuchFileError,
)
from repro.fs.extent import ExtentTree

#: Hook signature: called with the inode on cache load / evict; may
#: return cycles for the triggering operation to charge (e.g. DaxVM
#: volatile file-table rebuilds on cold opens).
InodeHook = Callable[["Inode"], Optional[float]]


class Inode:
    """An on-media inode plus its in-core (VFS) state."""

    _next_number = 1

    def __init__(self, path: str, number: Optional[int] = None):
        if number is None:
            number = Inode._next_number
            Inode._next_number += 1
        self.number = number
        self.path = path
        self.size = 0
        self.extents = ExtentTree()
        self.nlink = 1
        #: VMAs currently mapping this file (address_space->i_mmap).
        self.i_mmap: List[object] = []
        #: Root of the persistent DaxVM file table (survives reboot);
        #: opaque to the VFS, owned by repro.core.filetable.
        self.persistent_file_table: Optional[object] = None
        #: Root of the volatile DaxVM file table (dies with the cache).
        self.volatile_file_table: Optional[object] = None
        #: Set by PMem-aware stores that recycle files (Pmem-RocksDB).
        self.recycled = False

    @property
    def block_count(self) -> int:
        return self.extents.block_count

    def copy(self) -> "Inode":
        """The on-media inode alone: size, links and extents are copied,
        the persistent table is still this inode's (the caller re-homes
        it), and in-core state — mappings, volatile table — is left
        behind, as a power cycle leaves it."""
        twin = Inode(self.path, number=self.number)
        twin.size = self.size
        twin.extents = self.extents.copy()
        twin.nlink = self.nlink
        twin.persistent_file_table = self.persistent_file_table
        twin.recycled = self.recycled
        return twin

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Inode #{self.number} {self.path} {self.size}B>"


class InodeCache:
    """LRU cache of in-core inodes with load/evict hooks."""

    #: In-core inodes kept before the least recently used is evicted.
    capacity = 1 << 16

    def __init__(self):
        self._cached: "OrderedDict[int, Inode]" = OrderedDict()
        self.load_hooks: List[InodeHook] = []
        self.evict_hooks: List[InodeHook] = []
        self.hits = 0
        self.misses = 0

    def lookup(self, inode: Inode) -> Tuple[bool, float]:
        """Touch the cache; returns (hit, hook cycles to charge)."""
        if inode.number in self._cached:
            self._cached.move_to_end(inode.number)
            self.hits += 1
            return True, 0.0
        self.misses += 1
        self._cached[inode.number] = inode
        cycles = 0.0
        for hook in self.load_hooks:
            cycles += hook(inode) or 0.0
        while len(self._cached) > self.capacity:
            _num, evicted = self._cached.popitem(last=False)
            for hook in self.evict_hooks:
                hook(evicted)
        return False, cycles

    def evict(self, inode: Inode) -> None:
        """Drop one inode (e.g. on unlink)."""
        if self._cached.pop(inode.number, None) is not None:
            for hook in self.evict_hooks:
                hook(inode)

    def evict_all(self) -> None:
        """Drop everything (simulates reboot / cold caches)."""
        while self._cached:
            _num, inode = self._cached.popitem(last=False)
            for hook in self.evict_hooks:
                hook(inode)

    def __contains__(self, inode: Inode) -> bool:
        return inode.number in self._cached

    def __len__(self) -> int:
        return len(self._cached)


class DaxFile:
    """An open file description (the result of ``open()``)."""

    def __init__(self, inode: Inode, fs: "object"):
        self.inode = inode
        self.fs = fs
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise BadFileDescriptorError(f"{self.inode.path}: closed fd")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DaxFile {self.inode.path}>"


class VFS:
    """A single-mount namespace mapping paths to inodes."""

    def __init__(self):
        self.inode_cache = InodeCache()
        self._namespace: Dict[str, Inode] = {}
        # Inode numbers are per-mount, like a real file system's, so
        # two simulated machines built from the same workload assign
        # identical numbers — crash-point replicas depend on this.
        self._next_ino = 1

    def copy(self, copy_inode: Callable[[Inode], Inode]) -> "VFS":
        """The namespace over ``copy_inode``'s copies, with a cold inode
        cache (nothing is cached after a power cycle)."""
        twin = VFS()
        twin._namespace = {path: copy_inode(inode)
                           for path, inode in self._namespace.items()}
        twin._next_ino = self._next_ino
        return twin

    # -- namespace -----------------------------------------------------------
    def create(self, path: str) -> Inode:
        if path in self._namespace:
            raise FileExistsError_(path)
        inode = Inode(path, number=self._next_ino)
        self._next_ino += 1
        self._namespace[path] = inode
        return inode

    def lookup(self, path: str) -> Inode:
        inode = self._namespace.get(path)
        if inode is None:
            raise NoSuchFileError(path)
        return inode

    def remove(self, path: str) -> Inode:
        inode = self._namespace.pop(path, None)
        if inode is None:
            raise NoSuchFileError(path)
        self.inode_cache.evict(inode)
        return inode

    def forget(self, path: str) -> Optional[Inode]:
        """Drop a namespace entry without raising (crash rollback)."""
        inode = self._namespace.pop(path, None)
        if inode is not None:
            self.inode_cache.evict(inode)
        return inode

    def restore(self, path: str, inode: Inode) -> None:
        """Re-link an inode under its path (crash rollback of unlink)."""
        self._namespace.setdefault(path, inode)

    def paths(self) -> List[str]:
        return sorted(self._namespace)

    def inodes(self) -> List[Inode]:
        """Every live inode in deterministic inode-number order."""
        return sorted(self._namespace.values(), key=lambda ino: ino.number)

    def __contains__(self, path: str) -> bool:
        return path in self._namespace

    def __len__(self) -> int:
        return len(self._namespace)
