"""Storage images: a machine's storage, copied at one crash point.

A power failure keeps exactly what is on the media: the block device
and its allocator, the namespace and on-media inodes with their extent
trees, the persistent DaxVM file tables, and the persistence domain's
record of which stores were durable.  Everything else — the engine and
its threads, process page tables, the memory model, physical memory,
the trace, volatile file tables — dies at reboot.

:class:`StorageImage` copies the first group out of a running
:class:`~repro.system.System` and mounts it on a fresh engine, so the
crash injector can crash and recover the image while the original
machine runs on.  Each class copies its own fields (``copy`` on the
device, VFS, inode, extent tree, file table, domain and record), which
is several times cheaper than ``copy.deepcopy`` of the same objects.
Record actions capture values and act on the machine their domain is
attached to, so rolling back the image's domain touches only the image.
"""

from __future__ import annotations

from typing import Dict

from repro.core.filetable import FileTableManager
from repro.fs.vfs import Inode
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.system import System


class StorageImage:
    """The storage half of ``system`` at this instant, freshly mounted
    on a one-core engine.

    Offers what recovery reads of a machine — ``costs``, ``stats``,
    ``engine``, ``vfs``, ``device``, ``fs``, ``persistence`` and
    ``_filetables`` — and shares nothing with ``system`` that recovery
    changes.
    """

    def __init__(self, system: System):
        costs = system.costs
        self.costs = costs
        self.stats = Stats()
        # Mount-time recovery runs on core 0 alone.
        self.engine = Engine(1, freq_hz=costs.machine.freq_hz)
        self.device = system.device.copy()
        copies: Dict[int, Inode] = {}

        def copy_inode(inode: Inode) -> Inode:
            twin = copies.get(inode.number)
            if twin is None:
                twin = copies[inode.number] = inode.copy()
            return twin

        self.vfs = system.vfs.copy(copy_inode)
        domain = system.persistence
        for inode in domain.inodes.values():
            copy_inode(inode)
        self.persistence = domain.copy(self, copies)
        # A fresh mount of the same file system type over the copy; no
        # memory model, as recovery moves no file data.
        live_fs = system.fs
        self.fs = type(live_fs)(self.device, self.vfs, costs, None,
                                self.stats)
        self.fs.allow_huge = live_fs.allow_huge
        self.fs.persistence = self.persistence
        self._filetables = None
        if system._filetables is not None:
            # No physical memory: volatile tables died with DRAM.
            self._filetables = FileTableManager(self.fs, None, costs,
                                                self.stats)
            allocator = self._filetables._pmem_alloc
            for twin in copies.values():
                table = twin.persistent_file_table
                if table is not None:
                    twin.persistent_file_table = table.copy(twin, allocator)


__all__ = ["StorageImage"]
