"""The Linux-like virtual memory manager.

``MMStruct`` is the simulated ``mm_struct``: a table of VMAs
protected by a global ``mmap_sem`` reader/writer semaphore, demand
paging with software dirty tracking, and TLB-coherent unmapping — the
baseline whose costs §III of the paper dissects.
"""

from repro.vm.layout import AddressSpaceLayout
from repro.vm.mm import MMStruct
from repro.vm.vma import VMA, MapFlags, Protection

__all__ = [
    "AddressSpaceLayout",
    "MMStruct",
    "MapFlags",
    "Protection",
    "VMA",
]
