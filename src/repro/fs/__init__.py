"""PMem file systems: block allocation, journaling, VFS, ext4-DAX, NOVA."""

from repro.fs.aging import AgingProfile
from repro.fs.block import BlockDevice, FreeExtent
from repro.fs.extent import Extent, ExtentTree
from repro.fs.journal import Journal
from repro.fs.vfs import VFS, DaxFile, Inode, InodeCache
from repro.fs.ext4 import Ext4Dax
from repro.fs.nova import Nova
from repro.fs.xfs import XfsDax

__all__ = [
    "AgingProfile",
    "BlockDevice",
    "DaxFile",
    "Ext4Dax",
    "Extent",
    "ExtentTree",
    "FreeExtent",
    "Inode",
    "InodeCache",
    "Journal",
    "Nova",
    "VFS",
    "XfsDax",
]
