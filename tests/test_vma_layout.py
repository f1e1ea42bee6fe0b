"""VMA geometry/flags and the virtual address layout allocator."""

import pytest

from repro.errors import AddressSpaceError, InvalidArgumentError
from repro.fs.vfs import Inode
from repro.vm.layout import MMAP_BASE, PMD_SIZE, AddressSpaceLayout
from repro.vm.vma import VMA, MapFlags, Protection


def make_vma(size=8 * 4096, flags=MapFlags.SHARED,
             prot=Protection.rw()):
    return VMA(0x7F0000000000, 0x7F0000000000 + size, Inode("/f"), 0,
               prot, flags)


def test_vma_geometry():
    vma = make_vma()
    assert vma.length == 8 * 4096
    assert vma.num_pages == 8
    assert vma.contains(vma.start)
    assert not vma.contains(vma.end)
    assert vma.page_index(vma.start + 4096) == 1
    with pytest.raises(InvalidArgumentError):
        vma.page_index(vma.end)


def test_vma_validation():
    with pytest.raises(InvalidArgumentError):
        VMA(0x1000, 0x1000, None, 0, Protection.READ, MapFlags.SHARED)
    with pytest.raises(InvalidArgumentError):
        VMA(0x1001, 0x3000, None, 0, Protection.READ, MapFlags.SHARED)


def test_file_page_translation():
    vma = VMA(0, 4 * 4096, Inode("/f"), 2 * 4096, Protection.READ,
              MapFlags.SHARED)
    assert vma.file_page(0) == 2
    assert vma.file_page(3) == 5


def test_tracks_dirty_logic(system):
    assert make_vma().tracks_dirty
    # Read-only mappings are not tracked.
    assert not make_vma(prot=Protection.READ).tracks_dirty
    # nosync mode drops tracking.
    assert not make_vma(
        flags=MapFlags.SHARED | MapFlags.SYNC | MapFlags.NO_MSYNC
    ).tracks_dirty
    # Anonymous mappings are not file-backed.
    anon = VMA(0, 4096, None, 0, Protection.rw(), MapFlags.PRIVATE)
    assert not anon.tracks_dirty

    # The flag is stored: both mprotect paths must recompute it.
    proc = system.new_process()
    dax = system.daxvm_for(proc)

    def flow():
        f = yield from system.fs.open("/tracked", create=True)
        yield from system.fs.write(f, 0, PMD_SIZE)
        base = yield from proc.mm.mmap(system.fs, f.inode, 0, PMD_SIZE,
                                       Protection.rw(), MapFlags.SHARED)
        synced = yield from dax.mmap(f.inode, 0, PMD_SIZE, Protection.rw(),
                                     MapFlags.SHARED | MapFlags.SYNC)
        nosync = yield from dax.mmap(f.inode, 0, PMD_SIZE, Protection.rw(),
                                     MapFlags.SHARED | MapFlags.SYNC
                                     | MapFlags.NO_MSYNC)
        seen = []
        for mprotect, vma in ((proc.mm.mprotect, base),
                              (dax.mprotect, synced), (dax.mprotect, nosync)):
            seen.append(vma.tracks_dirty)
            for prot in (Protection.READ, Protection.rw()):
                yield from mprotect(vma, 0, vma.length, prot)
                seen.append(vma.tracks_dirty)
        return seen

    thread = system.spawn(flow(), core=0)
    system.run()
    assert thread.result == [True, False, True,
                             True, False, True,
                             False, False, False]


def test_ephemeral_flag():
    assert make_vma(flags=MapFlags.SHARED | MapFlags.EPHEMERAL).is_ephemeral
    assert not make_vma().is_ephemeral


def test_layout_allocates_disjoint_aligned_ranges():
    layout = AddressSpaceLayout()
    a = layout.allocate(1 << 20, align=PMD_SIZE)
    b = layout.allocate(1 << 20, align=PMD_SIZE)
    assert a % PMD_SIZE == 0 and b % PMD_SIZE == 0
    assert abs(a - b) >= 1 << 20
    assert layout.allocated_bytes == 2 << 20


def test_layout_recycles_freed_ranges():
    layout = AddressSpaceLayout()
    a = layout.allocate(1 << 20)
    layout.free(a, 1 << 20)
    b = layout.allocate(1 << 20)
    assert b == a


def test_layout_rejects_bad_sizes():
    layout = AddressSpaceLayout()
    with pytest.raises(AddressSpaceError):
        layout.allocate(0)
    with pytest.raises(AddressSpaceError):
        layout.allocate(100)  # not page aligned


def test_aslr_slides_but_keeps_pmd_alignment():
    a = AddressSpaceLayout(aslr_seed=1).allocate(1 << 20, align=PMD_SIZE)
    b = AddressSpaceLayout(aslr_seed=2).allocate(1 << 20, align=PMD_SIZE)
    assert a != b  # randomised
    assert a % PMD_SIZE == 0 and b % PMD_SIZE == 0
    assert a >= MMAP_BASE and b >= MMAP_BASE
