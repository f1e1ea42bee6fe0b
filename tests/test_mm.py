"""MMStruct tests: mmap/munmap, demand paging, dirty tracking, msync,
the mapped-access hot path's arithmetic shortcuts, and the run
installer against the page-at-a-time installer it replaced."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_COSTS
from repro.errors import (
    InvalidArgumentError,
    NotSupportedError,
    PoisonedPageError,
)
from repro.faults import FaultPlan, MediaFaults
from repro.fs.extent import ExtentTree
from repro.fs.vfs import Inode
from repro.mem.physmem import Medium
from repro.obs import Counter
from repro.obs.counters import counter_key
from repro.paging.flags import PageFlags
from repro.paging.pagetable import PMD_LEVEL
from repro.paging.schemes import SCHEME_NAMES
from repro.paging.tlb import AccessPattern
from repro.paging.walker import PageWalker
from repro.system import System
from repro.vm.mm import (
    BULK_FAULT_THRESHOLD,
    PAGES_PER_PMD,
    huge_covered_pages,
    pending_granules,
)
from repro.vm.vma import VMA, MapFlags, Protection

PAGE = 4096
PMD = 2 << 20
SRC = Path(__file__).resolve().parent.parent / "src"


def run(system, gen):
    thread = system.spawn(gen, core=0)
    system.run()
    return thread.result


def make_file(system, size, path="/f"):
    def flow():
        f = yield from system.fs.open(path, create=True)
        yield from system.fs.write(f, 0, size)
        return f

    return run(system, flow())


def test_mmap_inserts_vma_and_munmap_removes(system):
    f = make_file(system, 64 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 64 * PAGE,
                                      Protection.READ, MapFlags.SHARED)
        assert proc.mm.find_vma(vma.start) is vma
        assert vma in f.inode.i_mmap
        yield from proc.mm.munmap(vma)
        assert proc.mm.find_vma(vma.start) is None
        assert vma not in f.inode.i_mmap

    run(system, flow())
    assert system.stats.get("vm.mmap_calls") == 1
    assert system.stats.get("vm.munmap_calls") == 1


def test_demand_faults_install_translations_once(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.READ, MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 8 * PAGE)
        first = system.stats.get("vm.faults")
        yield from proc.mm.access(vma, 0, 8 * PAGE)
        return first, system.stats.get("vm.faults")

    first, second = run(system, flow())
    assert first == 8
    assert second == 8  # warm accesses take no faults


def test_populate_prefaults(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(
            system.fs, f.inode, 0, 8 * PAGE, Protection.READ,
            MapFlags.SHARED | MapFlags.POPULATE)
        before = system.stats.get("vm.faults")
        yield from proc.mm.access(vma, 0, 8 * PAGE)
        return before, system.stats.get("vm.faults")

    before, after = run(system, flow())
    assert before == after == 0  # populate is not a fault


@pytest.mark.parametrize("scheme, misses", [("radix4", 64.0), ("range", 1.0)])
def test_range_mmu_coalesces_a_windows_tlb_misses(scheme, misses):
    """One contiguous 64-page run: the radix MMU misses once per page,
    the range MMU once for the whole window."""
    system = System(device_bytes=1 << 30, scheme=scheme)
    f = make_file(system, 64 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(
            system.fs, f.inode, 0, 64 * PAGE, Protection.READ,
            MapFlags.SHARED | MapFlags.POPULATE)
        before = system.stats.get(Counter.VM_TLB_MISSES)
        yield from proc.mm.access(vma, 0, 64 * PAGE)
        return system.stats.get(Counter.VM_TLB_MISSES) - before

    assert run(system, flow()) == misses


def test_huge_page_mapping_on_fresh_image(system):
    f = make_file(system, 4 << 20)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 4 << 20,
                                      Protection.READ, MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 4 << 20)
        return vma

    vma = run(system, flow())
    assert len(vma.huge_regions) == 2
    assert system.stats.get("vm.huge_faults") == 2
    assert system.stats.get("vm.pte_faults") == 0


def test_huge_disabled_falls_back_to_ptes(system):
    system.fs.allow_huge = False
    f = make_file(system, 2 << 20)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 2 << 20,
                                      Protection.READ, MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 2 << 20)
        return vma

    vma = run(system, flow())
    assert not vma.huge_regions
    assert len(vma.populated) == 512


def test_write_tracking_takes_permission_faults(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.rw(), MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 4 * PAGE, write=True)
        return vma

    vma = run(system, flow())
    assert system.stats.get("vm.dirty_faults") == 4
    assert proc.mm.page_cache.dirty_count(f.inode) == 4
    assert len(vma.writable) == 4


def test_mapsync_write_fault_commits_journal(system):
    f = make_file(system, 4 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(
            system.fs, f.inode, 0, 4 * PAGE, Protection.rw(),
            MapFlags.SHARED | MapFlags.SYNC)
        yield from proc.mm.access(vma, 0, 2 * PAGE, write=True)

    run(system, flow())
    assert system.stats.get("journal.sync_commits") == 2


def test_msync_flushes_and_restarts_tracking(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.rw(), MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 4 * PAGE, write=True)
        faults1 = system.stats.get("vm.dirty_faults")
        yield from proc.mm.msync(vma)
        yield from proc.mm.access(vma, 0, 4 * PAGE, write=True)
        return faults1, system.stats.get("vm.dirty_faults")

    faults1, faults2 = run(system, flow())
    assert faults1 == 4
    assert faults2 == 8  # re-protected after msync: faults repeat
    assert system.stats.get("vm.msync_flushed") == 4
    assert proc.mm.page_cache.dirty_count(f.inode) == 4


def test_msync_fault_blowup_matches_paper_section3(system):
    """§III-A4: 1 msync / 10 writes => ~2.8x more faults than no sync."""
    f = make_file(system, 4 << 20, path="/blow")
    proc = system.new_process()

    def flow(sync_every):
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 4 << 20,
                                      Protection.rw(), MapFlags.SHARED)
        before = system.stats.get("vm.faults")
        # 1 KB writes revisiting a 40-page working set, as the random
        # writes over the paper's 10 GB file revisit pages over time.
        for i in range(200):
            offset = (i * 7 * PAGE) % (40 * PAGE)
            yield from proc.mm.access(vma, offset, 1024, write=True)
            if sync_every and (i + 1) % sync_every == 0:
                yield from proc.mm.msync(vma)
        count = system.stats.get("vm.faults") - before
        yield from proc.mm.munmap(vma)
        return count

    system.fs.allow_huge = False
    no_sync = run(system, flow(0))
    with_sync = run(system, flow(10))
    assert with_sync / no_sync > 1.5


def test_nosync_mapping_takes_no_tracking_faults(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(
            system.fs, f.inode, 0, 8 * PAGE, Protection.rw(),
            MapFlags.SHARED | MapFlags.SYNC | MapFlags.NO_MSYNC)
        yield from proc.mm.access(vma, 0, 8 * PAGE, write=True)
        yield from proc.mm.msync(vma)

    run(system, flow())
    assert system.stats.get("vm.dirty_faults") == 0
    assert system.stats.get("vm.msync_noop") == 1


def test_munmap_triggers_shootdown_on_other_cores(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()
    proc.mm.register_thread(0)
    proc.mm.register_thread(1)

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.READ, MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 8 * PAGE)
        yield from proc.mm.munmap(vma)

    run(system, flow())
    assert system.stats.get("tlb.shootdowns") >= 1
    assert system.stats.get("tlb.ipis") >= 1


def test_mprotect_full_range(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.rw(), MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 8 * PAGE)
        yield from proc.mm.mprotect(vma, 0, 8 * PAGE, Protection.READ)
        return vma

    vma = run(system, flow())
    assert vma.prot == Protection.READ
    assert not proc.mm.scheme.translate(vma.start).flags.writable


def test_partial_mprotect_is_refused(system):
    """``vma.prot`` covers the whole mapping and there is no VMA split,
    so a partial mprotect is refused.  Applied, it would mark all eight
    pages READ while page 5's PTE stayed writable, and a write there
    would take no dirty-tracking fault and never be flushed."""
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.rw(), MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 8 * PAGE)
        with pytest.raises(NotSupportedError):
            yield from proc.mm.mprotect(vma, 0, PAGE, Protection.READ)
        with pytest.raises(NotSupportedError):
            yield from proc.mm.mprotect(vma, PAGE, 7 * PAGE,
                                        Protection.READ)
        yield from proc.mm.access(vma, 5 * PAGE, PAGE, write=True)
        return vma

    vma = run(system, flow())
    assert vma.prot == Protection.rw()
    assert vma.tracks_dirty
    assert system.stats.get("vm.dirty_faults") == 1
    assert system.stats.get("vm.untracked_writes") == 0


def test_mprotect_rejected_on_ephemeral(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(
            system.fs, f.inode, 0, 8 * PAGE, Protection.rw(),
            MapFlags.SHARED | MapFlags.EPHEMERAL)
        yield from proc.mm.mprotect(vma, 0, 8 * PAGE, Protection.READ)

    with pytest.raises(NotSupportedError):
        run(system, flow())


def test_mremap_shrink(system):
    f = make_file(system, 16 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 16 * PAGE,
                                      Protection.READ, MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 16 * PAGE)
        yield from proc.mm.mremap(vma, 8 * PAGE)
        return vma

    vma = run(system, flow())
    assert vma.length == 8 * PAGE
    assert max(vma.populated) < 8


def test_random_access_charges_more_tlb_than_sequential(system):
    f = make_file(system, 8 << 20, path="/tlb")
    system.fs.allow_huge = False
    proc = system.new_process()

    def flow(pattern):
        vma = yield from proc.mm.mmap(
            system.fs, f.inode, 0, 8 << 20, Protection.READ,
            MapFlags.SHARED | MapFlags.POPULATE)
        before = system.stats.get("vm.walk_cycles")
        yield from proc.mm.access(vma, 0, 4096, pattern=pattern)
        cost = system.stats.get("vm.walk_cycles") - before
        yield from proc.mm.munmap(vma)
        return cost

    seq = run(system, flow(AccessPattern.SEQUENTIAL))
    rand = run(system, flow(AccessPattern.RANDOM))
    assert rand > seq


def test_write_dirties_persists_and_counts_its_length(system):
    """Pricing, dirty-byte tagging, the persistence record and the
    byte counter share one byte count: a write of ``length`` bytes
    dirties, persists and counts exactly ``length`` bytes."""
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()
    stored = []
    system.mem.persistence = SimpleNamespace(
        data_store=lambda inode, nbytes, nt: stored.append(nbytes))

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.rw(), MapFlags.SHARED)
        yield from proc.mm.access(vma, 100, 512, write=True)
        first = proc.mm.page_cache.written_bytes(f.inode)
        yield from proc.mm.access(vma, PAGE, 2 * PAGE, write=True)
        return first, proc.mm.page_cache.written_bytes(f.inode)

    first, total = run(system, flow())
    assert first == 512
    assert total == 512 + 2 * PAGE
    assert stored == [512, 2 * PAGE]
    assert system.stats.get("vm.access_bytes") == 512 + 2 * PAGE


# ---------------------------------------------------------------------------
# The access path's region/granule arithmetic equals the per-page scans
# it replaced.
# ---------------------------------------------------------------------------
def _per_page_huge_count(huge_regions, first_page, npages):
    return sum(1 for p in range(first_page, first_page + npages)
               if p // PAGES_PER_PMD in huge_regions)


def _set_sort_pending(writable, file_offset, granule, first_page,
                      last_page):
    granules = sorted({(file_offset + p * PAGE) // granule
                       for p in range(first_page, last_page + 1)})
    return [g for g in granules if g not in writable]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4 * PAGES_PER_PMD), st.integers(0, 3 * PAGES_PER_PMD),
       st.sets(st.integers(0, 8), max_size=8))
def test_huge_region_count_matches_per_page_count(first_page, npages,
                                                  huge_regions):
    assert (huge_covered_pages(huge_regions, first_page, npages)
            == _per_page_huge_count(huge_regions, first_page, npages))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([PAGE, 2 << 20, 1 << 30]),
       st.integers(0, 1 << 12), st.integers(0, 1 << 11),
       st.integers(0, 1 << 11), st.data())
def test_pending_granule_range_matches_set_sort_filter(
        granule, offset_pages, first_page, span, data):
    file_offset = offset_pages * PAGE
    last_page = first_page + span
    lo = (file_offset + first_page * PAGE) // granule
    hi = (file_offset + last_page * PAGE) // granule
    writable = data.draw(st.sets(st.integers(max(0, lo - 2), hi + 2),
                                 max_size=16))
    assert (pending_granules(writable, lo, hi)
            == _set_sort_pending(writable, file_offset, granule,
                                 first_page, last_page))


# ---------------------------------------------------------------------------
# Install errors drop the mmap_sem read hold before they propagate.
# ---------------------------------------------------------------------------
def _assert_sem_free_then_remap(system, proc, f):
    """No reader is left behind: a writer (mmap, munmap) gets through."""
    assert proc.mm.mmap_sem.active_readers == 0
    vma = yield from proc.mm.mmap(system.fs, f.inode, 0, PAGE,
                                  Protection.READ, MapFlags.SHARED)
    yield from proc.mm.munmap(vma)


def test_populate_over_a_hole_releases_mmap_sem(system):
    f = make_file(system, PAGE)
    proc = system.new_process()

    def flow():
        with pytest.raises(InvalidArgumentError, match="file page 1"):
            yield from proc.mm.mmap(system.fs, f.inode, 0, 4 * PAGE,
                                    Protection.READ,
                                    MapFlags.SHARED | MapFlags.POPULATE)
        yield from _assert_sem_free_then_remap(system, proc, f)
        return True

    assert run(system, flow())


def test_bulk_fault_over_a_hole_releases_mmap_sem(system):
    f = make_file(system, PAGE)
    proc = system.new_process()
    npages = 2 * BULK_FAULT_THRESHOLD

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, npages * PAGE,
                                      Protection.READ, MapFlags.SHARED)
        with pytest.raises(InvalidArgumentError, match="file page 1"):
            yield from proc.mm.access(vma, 0, npages * PAGE)
        assert vma.populated == {0}  # the page before the hole installed
        yield from _assert_sem_free_then_remap(system, proc, f)
        return True

    assert run(system, flow())


def test_demand_fault_over_a_hole_releases_mmap_sem(system):
    f = make_file(system, PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 4 * PAGE,
                                      Protection.READ, MapFlags.SHARED)
        with pytest.raises(InvalidArgumentError, match="file page 2"):
            yield from proc.mm.access(vma, 2 * PAGE, PAGE)
        yield from _assert_sem_free_then_remap(system, proc, f)
        return True

    assert run(system, flow())


def test_populate_over_a_poisoned_frame_releases_mmap_sem(system):
    f = make_file(system, 8 * PAGE)
    faults = MediaFaults(FaultPlan.empty())
    system.attach_faults(faults)
    block = f.inode.extents.physical_block(5)
    frame = system.fs.device.frame_of(block)
    # Poison no pre-lock check saw: populate meets it under the hold.
    faults.poisoned[frame] = (f.inode.number, f.inode.path, 5, block)
    proc = system.new_process()

    def flow():
        with pytest.raises(PoisonedPageError) as err:
            yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                    Protection.READ,
                                    MapFlags.SHARED | MapFlags.POPULATE)
        assert (err.value.frame, err.value.file_page) == (frame, 5)
        yield from _assert_sem_free_then_remap(system, proc, f)
        return True

    assert run(system, flow())
    assert system.stats.get("faults.sigbus_delivered") == 1


# ---------------------------------------------------------------------------
# The run installer equals the page-at-a-time installer it replaced.
# ---------------------------------------------------------------------------
def _reference_install_page(mm, vma, page, writable):
    """One page, as the simulator installed it before run installs."""
    fs = vma.fs
    file_page = vma.file_page(page)
    region = page // PAGES_PER_PMD
    vaddr_region = vma.start + region * PMD
    flags = PageFlags.rw() if writable else PageFlags.ro()
    region_first_page = region * PAGES_PER_PMD
    file_region_page = vma.file_page(region_first_page)
    faults = mm.mem.faults
    can_huge = (
        vaddr_region % PMD == 0
        and vaddr_region + PMD <= vma.end
        and file_region_page % PAGES_PER_PMD == 0
        and fs.pmd_capable(vma.inode, file_region_page)
        and not any(p in vma.populated
                    for p in range(region_first_page,
                                   region_first_page + PAGES_PER_PMD))
        and not (faults is not None
                 and faults.poisoned_in(
                     vma.inode, file_region_page,
                     file_region_page + PAGES_PER_PMD - 1)))
    lookup = fs.fault_lookup_cost(vma.inode)
    if can_huge:
        frame = fs.frame_for_page(vma.inode, file_region_page)
        mm.scheme.map_page(vaddr_region, frame, flags, PMD_LEVEL)
        vma.huge_regions.add(region)
        mm.stats.add(Counter.VM_HUGE_FAULTS)
        return mm.costs.fault_dax_pmd + lookup, True
    frame = fs.frame_for_page(vma.inode, file_page)
    if frame is None:
        raise InvalidArgumentError(
            f"{vma.inode.path}: fault beyond allocated blocks "
            f"(file page {file_page})")
    if faults is not None and faults.poisoned_frame(frame):
        mm._raise_sigbus(vma.inode, frame, file_page)
    mm.scheme.map_page(vma.start + page * PAGE, frame, flags)
    vma.populated.add(page)
    mm.stats.add(Counter.VM_PTE_FAULTS)
    return mm.costs.fault_dax_pte + lookup, False


def _reference_install_window(mm, vma, first_page, npages, writable):
    cost = 0.0
    installs = 0
    page = first_page
    end = first_page + npages
    while page < end:
        if (vma.fully_populated
                or page // PAGES_PER_PMD in vma.huge_regions
                or page in vma.populated):
            page += 1
            continue
        install, huge = _reference_install_page(mm, vma, page, writable)
        cost += install
        installs += 1
        page += PAGES_PER_PMD - page % PAGES_PER_PMD if huge else 1
    return cost, installs


#: Extent specs: (blocks, physical gap before it, 2 MB-align its start).
_EXTENTS = st.lists(st.tuples(st.integers(1, 1100), st.integers(0, 600),
                              st.booleans()),
                    min_size=1, max_size=5)


def _installer_machine(scheme, extents, poisoned, with_faults, start_pages,
                       offset_pages, vma_pages):
    """A machine with one hand-laid file mapped by one VMA."""
    system = System(device_bytes=64 << 20, scheme=scheme)
    if with_faults:
        system.attach_faults(MediaFaults(FaultPlan.empty()))
    mm = system.new_process().mm
    inode = Inode("/laid-out", number=4242)
    tree = ExtentTree()
    cursor = 0
    for blocks, gap, aligned in extents:
        cursor += gap
        if aligned:
            cursor = -(-cursor // PAGES_PER_PMD) * PAGES_PER_PMD
        tree.append(cursor, blocks)
        cursor += blocks
    inode.extents = tree
    inode.size = tree.block_count * PAGE
    if with_faults:
        for file_page in poisoned:
            if file_page < tree.block_count:
                block = tree.physical_block(file_page)
                frame = system.fs.device.frame_of(block)
                system.faults.poisoned[frame] = (inode.number, inode.path,
                                                 file_page, block)
    start = (1 << 30) + start_pages * PAGE
    vma = VMA(start, start + vma_pages * PAGE, inode, offset_pages * PAGE,
              Protection.READ | Protection.WRITE, MapFlags.SHARED)
    vma.fs = system.fs
    vma.mm = mm
    return system, mm, vma


def _install_outcome(install):
    try:
        cost, installs = install()
    except (InvalidArgumentError, PoisonedPageError) as exc:
        return ("raised", type(exc).__name__, str(exc),
                getattr(exc, "frame", None), getattr(exc, "file_page", None))
    return ("ok", cost.hex(), installs)


def _installer_state(system, mm, vma):
    return {
        "scheme": mm.scheme.to_state(),
        "populated": list(vma.populated),
        "huge_regions": sorted(vma.huge_regions),
        "counters": dict(system.stats.counters),
    }


def _compare_installers(scheme, extents, poisoned, with_faults, start_pages,
                        offset_pages, vma_pages, prepopulate, heal, writable,
                        first_page, npages):
    """Run one window through the reference and the run installer on
    two identical machines; outcomes and states must match exactly."""
    outcomes, states = [], []
    for side in ("reference", "run"):
        system, mm, vma = _installer_machine(
            scheme, extents, poisoned, with_faults, start_pages,
            offset_pages, vma_pages)
        # Pre-populated pages (and maybe PMD regions), laid identically
        # on both sides by the reference installer.
        for page in prepopulate:
            if page < vma_pages:
                _install_outcome(lambda: _reference_install_window(
                    mm, vma, page, 1, writable))
        if heal and system.faults is not None:
            # Poison cleared after the pre-population: its regions are
            # PMD-capable again but already hold 4 KB PTEs.
            system.faults.poisoned.clear()
        if side == "reference":
            outcomes.append(_install_outcome(
                lambda: _reference_install_window(
                    mm, vma, first_page, npages, writable)))
        else:
            outcomes.append(_install_outcome(
                lambda: mm._install_run(vma, first_page, npages, writable)))
        states.append(_installer_state(system, mm, vma))
    assert outcomes[0] == outcomes[1]
    assert states[0] == states[1]
    return outcomes[1], states[1]


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@settings(max_examples=40, deadline=None)
@given(extents=_EXTENTS,
       poisoned=st.lists(st.integers(0, 1200), max_size=3),
       with_faults=st.booleans(),
       start_pages=st.sampled_from([0, 0, 1, 300]),
       offset_pages=st.sampled_from([0, 0, 1, 512, 700]),
       vma_pages=st.integers(1, 1600),
       prepopulate=st.lists(st.integers(0, 1200), max_size=6),
       heal=st.booleans(),
       writable=st.booleans(),
       data=st.data())
def test_run_installer_matches_per_page_reference(
        scheme, extents, poisoned, with_faults, start_pages, offset_pages,
        vma_pages, prepopulate, heal, writable, data):
    first_page = data.draw(st.integers(0, vma_pages - 1))
    npages = data.draw(st.integers(1, vma_pages - first_page))
    _compare_installers(scheme, extents, poisoned, with_faults, start_pages,
                        offset_pages, vma_pages, prepopulate, heal, writable,
                        first_page, npages)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_region_with_a_pte_stays_4k_after_its_poison_heals(scheme):
    # Page 5's PTE went in while page 3 was poisoned; once healed the
    # region is PMD-capable again, but a 4 KB PTE already lives there.
    outcome, state = _compare_installers(
        scheme, extents=[(1024, 0, True)], poisoned=[3], with_faults=True,
        start_pages=0, offset_pages=0, vma_pages=1024, prepopulate=[5],
        heal=True, writable=True, first_page=0, npages=1024)
    assert outcome == ("ok", outcome[1], 511 + 1)  # 511 PTEs, 1 PMD leaf
    assert state["huge_regions"] == [1]


def _reference_random_op_misses(mm, num_ops, op_bytes, page_size,
                                footprint):
    """``TLBModel.random_op_misses`` as it was when an access could
    issue ``num_ops`` ops."""
    pages_per_op = max(1, -(-op_bytes // page_size))
    if footprint > mm.tlb.reach(page_size):
        return num_ops * pages_per_op
    return min(num_ops * pages_per_op, footprint // page_size)


def _reference_tlb_cost(mm, vma, first_page, npages, pattern, op_bytes,
                        leaf_factor=1.0):
    """``MMStruct._tlb_cost`` as it was before its per-op invariants
    were hoisted and its op count was fixed at one: the huge fraction
    computed for every window, the multi-op miss model at one op, the
    base-page walk priced through the scheme's hook."""
    num_ops = 1
    leaf_medium = vma.leaf_medium
    if leaf_medium is not Medium.PMEM:
        leaf_factor = 1.0
    huge_pages = (huge_covered_pages(vma.huge_regions, first_page, npages)
                  if vma.huge_regions else 0)
    small_pages = npages - huge_pages
    huge_fraction = huge_pages / npages if npages else 0.0
    if pattern is AccessPattern.SEQUENTIAL and num_ops == 1:
        misses_small = small_pages
        misses_huge = max(1, huge_pages // PAGES_PER_PMD) if huge_pages else 0
    else:
        footprint = npages * PAGE
        total = _reference_random_op_misses(mm, num_ops, op_bytes, PAGE,
                                            footprint)
        misses_small = total * (1 - huge_fraction)
        hfoot = huge_pages * PAGE
        misses_huge = (_reference_random_op_misses(
            mm, int(num_ops * huge_fraction) or 0, op_bytes, PMD, hfoot)
            if huge_fraction else 0)
    if mm._coalesces:
        misses_small = mm.scheme.coalesce_tlb_misses(
            misses_small, vma.start + first_page * PAGE, npages)
    walk_small = mm.scheme.walk_cost(mm.walker, pattern, leaf_medium,
                                     leaf_factor=leaf_factor)
    cost = misses_small * walk_small
    if misses_huge:
        cost += misses_huge * mm.scheme.huge_walk_cost(mm.walker)
    counters = mm.stats.counters
    if mm.guest is not None and mm.guest.nested:
        nested = (misses_small * mm.scheme.nested_walk_cost(
                      mm.walker, pattern, leaf_medium,
                      leaf_factor=leaf_factor)
                  + misses_huge * mm.scheme.nested_huge_walk_cost(mm.walker))
        counters[counter_key(Counter.VIRT_NESTED_WALK_CYCLES)] += \
            nested - cost
        cost = nested
    counters[counter_key(Counter.VM_TLB_MISSES)] += misses_small + misses_huge
    counters[counter_key(Counter.VM_WALK_CYCLES)] += cost
    return cost


#: A 4-region mapping over three unaligned extents, so the range MMU
#: holds several runs once pages are installed.
_TLB_EXTENTS = [(700, 3, False), (700, 5, False), (648, 7, False)]
_TLB_VMA_PAGES = 4 * PAGES_PER_PMD


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@settings(max_examples=60, deadline=None)
@given(windows=st.lists(
           st.tuples(st.integers(0, _TLB_VMA_PAGES - 1),
                     st.integers(1, _TLB_VMA_PAGES),
                     st.sampled_from(list(AccessPattern)),
                     st.sampled_from([64, PAGE, 3 * PAGE, PMD])),
           min_size=1, max_size=6),
       installed=st.lists(st.integers(0, _TLB_VMA_PAGES - 1), max_size=4),
       huge=st.sets(st.integers(0, 3)),
       leaf_medium=st.sampled_from([Medium.DRAM, Medium.PMEM]),
       leaf_factor=st.sampled_from([1.0, 1.7]),
       nested=st.booleans())
def test_tlb_cost_matches_reference(scheme, windows, installed, huge,
                                    leaf_medium, leaf_factor, nested):
    """Random windows over 4 KB and huge regions, both patterns:
    bit-equal cycles and equal miss and walk counters."""
    costs, counters = [], []
    for tlb_cost in (_reference_tlb_cost, None):
        system, mm, vma = _installer_machine(
            scheme, _TLB_EXTENTS, poisoned=[], with_faults=False,
            start_pages=0, offset_pages=0, vma_pages=_TLB_VMA_PAGES)
        for page in installed:
            mm._install_run(vma, page, 1, False)
        vma.huge_regions |= huge
        vma.leaf_medium = leaf_medium
        if nested:
            mm.guest = SimpleNamespace(nested=True)
        side = []
        for first_page, npages, pattern, op_bytes in windows:
            npages = min(npages, _TLB_VMA_PAGES - first_page)
            if tlb_cost is None:
                cost = mm._tlb_cost(vma, first_page, npages, pattern,
                                    op_bytes, leaf_factor)
            else:
                cost = tlb_cost(mm, vma, first_page, npages, pattern,
                                op_bytes, leaf_factor)
            side.append(float(cost).hex())
        costs.append(side)
        counters.append(dict(system.stats.counters))
    assert costs[0] == costs[1]
    assert counters[0] == counters[1]


def test_walk_cost_memo_is_pure_and_keeps_unknown_media_loud():
    walker = PageWalker(DEFAULT_COSTS)
    fresh = PageWalker(DEFAULT_COSTS)
    for pattern in AccessPattern:
        for medium in (Medium.DRAM, Medium.PMEM, Medium.CXL):
            for factor in (1.0, 1.7):
                first = walker.walk_cost(pattern, medium, leaf_factor=factor)
                assert walker.walk_cost(pattern, medium,
                                        leaf_factor=factor) == first
                assert fresh.walk_cost(pattern, medium,
                                       leaf_factor=factor) == first
    for _ in range(2):  # a failed lookup is never memoised
        with pytest.raises(InvalidArgumentError):
            walker.walk_cost(AccessPattern.RANDOM, "hbm")


# ---------------------------------------------------------------------------
# Enum members hash by identity, so sets and dicts of them must not leak
# an order into results: the same point under two string-hash seeds
# produces the same state.
# ---------------------------------------------------------------------------
_POINT_SCRIPT = """
import json, sys
from repro.runner.manifest import SweepPoint
from repro.runner.worker import run_point

points = [
    SweepPoint("syncbench", "daxvm+fsync", 1,
               {"file_size": 1 << 20, "op_size": 1 << 10, "ops_per_sync": 16,
                "num_syncs": 48, "discipline": "daxvm+fsync"},
               aged=False, device_gib=1),
    SweepPoint("kvstore", "kvstore", 1,
               {"workload": "load_a", "num_ops": 600, "preload_records": 0,
                "interface": "daxvm", "record_size": 4096,
                "memtable_limit": 1 << 18, "sstable_size": 1 << 18,
                "wal_size": 1 << 18,
                "daxvm": {"ephemeral": False, "unmap_async": False,
                          "sync": True, "nosync": False}},
               aged=False, device_gib=1),
]
states = []
for point in points:
    state = run_point(point.to_payload())
    states.append({k: v for k, v in state.items()
                   if k != "wall_seconds"})
print(json.dumps(states, sort_keys=True))
"""


def _run_point_with_hash_seed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = seed
    done = subprocess.run([sys.executable, "-c", _POINT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return done.stdout.strip().splitlines()[-1]


def test_append_point_state_is_independent_of_hash_seed():
    first = _run_point_with_hash_seed("1")
    second = _run_point_with_hash_seed("2")
    states = json.loads(first)
    assert all(s["run"]["operations"] > 0 for s in states)
    assert first == second
