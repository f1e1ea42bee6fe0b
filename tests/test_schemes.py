"""TranslationScheme contract tests across the four MMUs.

Covers the satellites of the scheme refactor (DESIGN.md §11):

* the mapping-primitive contract every scheme implements;
* teardown safety — detaching a process mapping must never free or
  clear the *shared* file-table state, under every scheme, including
  double attach/detach and teardown while another process is attached;
* ``to_state``/``from_state`` losslessness and pool-worker parity (a
  point simulated twice produces identical bytes, like Stats/Ledger);
* the ``PageWalker.walk_cost_for`` leaf-factor regression;
* the sweep cache fingerprint: scheme name and per-scheme cost
  parameters both invalidate cached results;
* ``map_run`` equals one ``map_page`` per page (DESIGN.md §12).
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_COSTS, MEDIA_PRESETS
from repro.errors import (
    AddressSpaceError,
    NotSupportedError,
    SegmentationFault,
)
from repro.mem.physmem import Medium, PhysicalMemory
from repro.obs import CostDomain
from repro.paging.pagetable import PMD_LEVEL, PTE_LEVEL, Translation
from repro.paging.flags import PageFlags
from repro.paging.schemes import (
    SCHEME_NAMES,
    HashedScheme,
    RangeScheme,
    make_scheme,
    restore_scheme,
)
from repro.paging.tlb import AccessPattern
from repro.paging.walker import PageWalker
from repro.runner.manifest import SweepPoint
from repro.runner.worker import run_point
from repro.system import System
from repro.vm.vma import MapFlags, Protection

PAGE = 4096
PMD = 2 << 20
BASE = 0x4000_0000  # GB-aligned: valid for every leaf level


def run(system, gen):
    thread = system.spawn(gen, core=0)
    system.run()
    return thread.result


def make_file(system, size, path="/f"):
    def flow():
        f = yield from system.fs.open(path, create=True)
        yield from system.fs.write(f, 0, size)
        return f.inode

    return run(system, flow())


def dax_map(system, dax, inode, size):
    def flow():
        vma = yield from dax.mmap(inode, 0, size, Protection.READ)
        return vma

    return run(system, flow())


def dax_unmap(system, dax, vma):
    def flow():
        yield from dax.munmap(vma)

    run(system, flow())


@pytest.fixture(params=SCHEME_NAMES)
def scheme_name(request):
    return request.param


@pytest.fixture
def scheme(scheme_name, physmem):
    return make_scheme(scheme_name, physmem, DEFAULT_COSTS)


# ---------------------------------------------------------------------------
# Mapping-primitive contract (uniform across schemes).
# ---------------------------------------------------------------------------
def test_map_translate_unmap_roundtrip(scheme):
    for i in range(8):
        scheme.map_page(BASE + i * PAGE, 100 + i, PageFlags.rw())
    t = scheme.translate(BASE + 3 * PAGE)
    assert t.frame == 103
    assert t.flags.writable
    assert scheme.unmap_page(BASE + 3 * PAGE)
    with pytest.raises(SegmentationFault):
        scheme.translate(BASE + 3 * PAGE)
    assert not scheme.unmap_page(BASE + 3 * PAGE)
    assert scheme.translate(BASE + 4 * PAGE).frame == 104


def test_huge_leaf_covers_whole_region(scheme):
    scheme.map_page(BASE, 7000, PageFlags.rw() | PageFlags.HUGE,
                    PMD_LEVEL)
    t = scheme.translate(BASE)
    assert t.leaf_level >= PMD_LEVEL or t.flags & PageFlags.HUGE
    # An interior address still resolves (no per-page entries exist).
    scheme.translate(BASE + 37 * PAGE)


def test_protect_range_drops_write_permission(scheme):
    for i in range(4):
        scheme.map_page(BASE + i * PAGE, 200 + i, PageFlags.rw())
    changed = scheme.protect_range(BASE, 4 * PAGE, PageFlags.ro())
    assert changed > 0
    assert not scheme.translate(BASE + PAGE).flags.writable


def test_clear_range_counts_pages(scheme):
    for i in range(8):
        scheme.map_page(BASE + i * PAGE, 300 + i, PageFlags.rw())
    assert scheme.clear_range(BASE, 8 * PAGE) == 8
    with pytest.raises(SegmentationFault):
        scheme.translate(BASE)


def test_fragment_capability_matches_flag(scheme):
    if scheme.supports_fragments:
        assert scheme.name in ("radix4", "radix5")
    else:
        with pytest.raises(NotSupportedError):
            scheme.attach_fragment(BASE, None, PageFlags.ro())
        with pytest.raises(NotSupportedError):
            scheme.detach_fragment(BASE, PMD_LEVEL)


def test_structure_report_accounts_every_frame(scheme):
    for i in range(16):
        scheme.map_page(BASE + i * PAGE, 400 + i, PageFlags.rw())
    report = scheme.structure_report()
    frames = scheme.structure_frames()
    assert report["scheme"] == scheme.name
    assert report["frames"] == len(frames) >= 1
    assert report["bytes"] == len(frames) * PAGE
    assert sum(report["by_node"].values()) == len(frames)


def test_make_scheme_rejects_unknown_names(physmem):
    with pytest.raises(KeyError):
        make_scheme("radix6", physmem, DEFAULT_COSTS)
    with pytest.raises(KeyError):
        restore_scheme({"name": "radix6"})


# ---------------------------------------------------------------------------
# Per-architecture structure behaviour.
# ---------------------------------------------------------------------------
def test_hashed_table_resizes_under_load(physmem):
    scheme = make_scheme("hashed", physmem, DEFAULT_COSTS)
    frames_before = len(scheme.structure_frames())
    # Exceed LOAD_FACTOR * INITIAL_CAPACITY entries.
    limit = int(HashedScheme.LOAD_FACTOR
                * HashedScheme.INITIAL_CAPACITY) + 8
    for i in range(limit):
        scheme.map_page(BASE + i * PAGE, 500 + i, PageFlags.rw())
    assert scheme.resizes >= 1
    assert len(scheme.structure_frames()) > frames_before


def test_range_merges_contiguous_runs(physmem):
    scheme = make_scheme("range", physmem, DEFAULT_COSTS)
    # Frame-contiguous, flag-equal neighbours collapse to one entry.
    for i in range(64):
        scheme.map_page(BASE + i * PAGE, 600 + i, PageFlags.rw())
    assert len(scheme.ranges) == 1
    assert scheme.range_merges > 0
    # A frame discontinuity forces a second entry.
    scheme.map_page(BASE + 64 * PAGE, 9000, PageFlags.rw())
    assert len(scheme.ranges) == 2


def test_range_walk_cost_grows_with_fragmentation(physmem):
    scheme = make_scheme("range", physmem, DEFAULT_COSTS)
    walker = PageWalker(DEFAULT_COSTS)
    scheme.map_page(BASE, 100, PageFlags.rw())
    cheap = scheme.walk_cost(walker, AccessPattern.RANDOM, Medium.PMEM)
    for i in range(1, 256):  # discontiguous frames: no merging
        scheme.map_page(BASE + i * PAGE, 100 + 2 * i, PageFlags.rw())
    assert len(scheme.ranges) > 128
    costly = scheme.walk_cost(walker, AccessPattern.RANDOM, Medium.PMEM)
    assert costly > cheap


def test_radix5_walks_cost_one_extra_level(physmem):
    r4 = make_scheme("radix4", physmem, DEFAULT_COSTS)
    r5 = make_scheme("radix5", physmem, DEFAULT_COSTS)
    walker = PageWalker(DEFAULT_COSTS)
    for pattern in (AccessPattern.SEQUENTIAL, AccessPattern.RANDOM):
        for medium in (Medium.DRAM, Medium.PMEM):
            assert (r5.walk_cost(walker, pattern, medium)
                    > r4.walk_cost(walker, pattern, medium))
    assert r5.huge_walk_cost(walker) > r4.huge_walk_cost(walker)


def test_hashed_walks_ignore_pattern_and_table_medium(physmem):
    scheme = make_scheme("hashed", physmem, DEFAULT_COSTS)
    walker = PageWalker(DEFAULT_COSTS)
    costs = {scheme.walk_cost(walker, pattern, medium)
             for pattern in (AccessPattern.SEQUENTIAL,
                             AccessPattern.RANDOM)
             for medium in (Medium.DRAM, Medium.PMEM)}
    assert len(costs) == 1  # one probe chain, always
    # A persistent file table never reaches the inverted table's walk.
    assert scheme.effective_leaf_medium(Medium.PMEM) is Medium.DRAM


# ---------------------------------------------------------------------------
# Satellite: walk_cost_for must forward the NUMA leaf factor.
# ---------------------------------------------------------------------------
def test_walk_cost_for_forwards_leaf_factor():
    walker = PageWalker(DEFAULT_COSTS)
    tr = Translation(1, PageFlags.rw(), PTE_LEVEL,
                     [Medium.DRAM, Medium.DRAM, Medium.DRAM, Medium.PMEM])
    remote = walker.walk_cost_for(tr, AccessPattern.RANDOM,
                                  leaf_factor=2.0)
    local = walker.walk_cost_for(tr, AccessPattern.RANDOM)
    # The regression: leaf_factor used to be dropped, making these equal.
    assert remote > local
    assert remote == walker.walk_cost(AccessPattern.RANDOM, Medium.PMEM,
                                      leaf_factor=2.0)
    assert local == walker.walk_cost(AccessPattern.RANDOM, Medium.PMEM)


# ---------------------------------------------------------------------------
# Satellite: teardown must detach, never free, shared file tables.
# ---------------------------------------------------------------------------
def _table_snapshot(table):
    """Complete observable file-table content (nodes + entries)."""
    return {
        "filled": table.filled_pages,
        "huge": dict(table.huge_frames),
        "pte": {region: sorted((idx, entry.frame)
                               for idx, entry in node.entries.items())
                for region, node in table.pte_nodes.items()},
        "pmd": sorted(table.pmd_nodes),
    }


def _table_frames(table):
    """Structure-node frames plus every data frame the table points at."""
    frames = set()
    for node in table.pte_nodes.values():
        frames.add(node.frame)
        frames.update(e.frame for e in node.entries.values())
    for node in table.pmd_nodes.values():
        frames.add(node.frame)
    frames.update(table.huge_frames.values())
    return frames


def _watch_frees(system):
    freed = []
    original = system.physmem.free_frame

    def recording(frame):
        freed.append(frame)
        original(frame)

    system.physmem.free_frame = recording
    return freed


def test_munmap_detaches_but_never_frees_table(scheme_name):
    system = System(device_bytes=1 << 30, scheme=scheme_name)
    system.fs.allow_huge = False  # force populated PTE fragments
    proc = system.new_process()
    dax = system.daxvm_for(proc)
    inode = make_file(system, 1 << 20)
    table = system.filetables.table_for(inode)
    before = _table_snapshot(table)
    protected = _table_frames(table)
    freed = _watch_frees(system)

    vma = dax_map(system, dax, inode, 1 << 20)
    assert len(vma.attachments) == 1
    dax_unmap(system, dax, vma)

    assert _table_snapshot(table) == before
    assert not (set(freed) & protected), (
        f"{scheme_name}: teardown freed shared file-table frames")


def test_double_attach_detach_leaves_table_reusable(scheme_name):
    system = System(device_bytes=1 << 30, scheme=scheme_name)
    system.fs.allow_huge = False
    proc = system.new_process()
    dax = system.daxvm_for(proc)
    inode = make_file(system, 1 << 20)
    table = system.filetables.table_for(inode)
    before = _table_snapshot(table)
    freed = _watch_frees(system)

    first = dax_map(system, dax, inode, 1 << 20)
    second = dax_map(system, dax, inode, 1 << 20)
    assert first.start != second.start
    dax_unmap(system, dax, first)
    # The surviving mapping still translates after its twin detached.
    assert proc.mm.page_table.translate(second.user_addr) is not None
    dax_unmap(system, dax, second)

    assert _table_snapshot(table) == before
    assert not (set(freed) & _table_frames(table))
    # And the table is still attachable: a third mapping works.
    third = dax_map(system, dax, inode, 1 << 20)
    assert proc.mm.page_table.translate(third.user_addr) is not None


def test_teardown_while_another_process_attached(scheme_name):
    system = System(device_bytes=1 << 30, scheme=scheme_name)
    system.fs.allow_huge = False
    proc1 = system.new_process("p1")
    proc2 = system.new_process("p2")
    dax1 = system.daxvm_for(proc1)
    dax2 = system.daxvm_for(proc2)
    inode = make_file(system, 1 << 20)
    table = system.filetables.table_for(inode)
    freed = _watch_frees(system)

    vma1 = dax_map(system, dax1, inode, 1 << 20)
    vma2 = dax_map(system, dax2, inode, 1 << 20)
    snapshot = _table_snapshot(table)
    dax_unmap(system, dax1, vma1)  # p1 exits while p2 is attached

    assert _table_snapshot(table) == snapshot
    assert not (set(freed) & _table_frames(table))
    t = proc2.mm.page_table.translate(vma2.user_addr)
    assert t.frame in {frame for _idx, frame
                       in sum(snapshot["pte"].values(), [])} \
        or snapshot["huge"]
    with pytest.raises(SegmentationFault):
        proc1.mm.page_table.translate(vma1.user_addr)


# ---------------------------------------------------------------------------
# Satellite: to_state/from_state losslessness + worker parity.
# ---------------------------------------------------------------------------
def test_state_roundtrip_is_lossless(scheme_name):
    system = System(device_bytes=1 << 30, scheme=scheme_name)
    proc = system.new_process()
    inode = make_file(system, 256 << 10)

    def flow():
        vma = yield from proc.mm.mmap(system.fs, inode, 0, 256 << 10,
                                      Protection.rw(), MapFlags.SHARED)
        for page in range(0, 64, 3):  # fault in owned translations
            yield from proc.mm.fault(vma, page, write=True)
        return vma

    vma = run(system, flow())
    original = proc.mm.scheme
    state = original.to_state()
    # JSON-safe: the snapshot survives the pool/cache boundary.
    assert json.loads(json.dumps(state)) == state

    restored = restore_scheme(state)
    assert restored.name == scheme_name
    assert restored.physmem is None  # detached: translate-only
    assert restored.to_state() == state
    for page in range(0, 64, 3):
        vaddr = vma.start + page * PAGE
        assert (restored.translate(vaddr).frame
                == original.translate(vaddr).frame)


def test_worker_points_are_deterministic_per_scheme(scheme_name):
    point = SweepPoint(
        experiment="syncbench", series=f"syncbench+{scheme_name}",
        x=0.0,
        params={"file_size": 4 << 20, "op_size": 1 << 10,
                "ops_per_sync": 8, "num_syncs": 4,
                "discipline": "daxvm+fsync"},
        media="optane", device_gib=1, aged=True, scheme=scheme_name)
    first = run_point(point.to_payload())
    second = run_point(point.to_payload())

    def strip(state):
        return {k: v for k, v in state.items() if k != "wall_seconds"}

    assert (json.dumps(strip(first), sort_keys=True)
            == json.dumps(strip(second), sort_keys=True))


# ---------------------------------------------------------------------------
# Satellite: scheme and its cost parameters fingerprint the cache.
# ---------------------------------------------------------------------------
def _point(scheme, media="optane"):
    return SweepPoint(experiment="syncbench", series="s", x=1.0,
                      params={"file_size": 4 << 20}, media=media,
                      scheme=scheme)


def test_cache_key_covers_scheme_name():
    keys = {_point(name).cache_key("fp") for name in SCHEME_NAMES}
    assert len(keys) == len(SCHEME_NAMES)
    assert _point("radix4").cache_key("fp") \
        == _point("radix4").cache_key("fp")


def test_cache_key_covers_scheme_cost_params():
    stable = MEDIA_PRESETS["optane"]().to_stable_dict()
    for param in ("walk5_upper_extra_seq", "walk5_upper_extra_rand",
                  "hashed_walk_compute", "hashed_probe_avg",
                  "hashed_insert", "range_walk_base", "range_walk_step",
                  "range_insert"):
        assert param in stable
    # Retuning a scheme constant must invalidate cached results.
    base = MEDIA_PRESETS["optane"]
    MEDIA_PRESETS["_tweak"] = base
    try:
        before = _point("hashed", media="_tweak").cache_key("fp")
        MEDIA_PRESETS["_tweak"] = \
            lambda: dataclasses.replace(base(), hashed_insert=999.0)
        after = _point("hashed", media="_tweak").cache_key("fp")
    finally:
        del MEDIA_PRESETS["_tweak"]
    assert before != after


# ---------------------------------------------------------------------------
# The attach asymmetry, at unit scale (the sweep benchmark holds the
# full-workload version).
# ---------------------------------------------------------------------------
def test_hashed_attach_degrades_to_per_page_inserts():
    attach = {}
    for name in SCHEME_NAMES:
        system = System(device_bytes=1 << 30, scheme=name)
        system.fs.allow_huge = False  # huge leaves would hide the cost
        proc = system.new_process()
        dax = system.daxvm_for(proc)
        inode = make_file(system, 8 << 20)
        dax_map(system, dax, inode, 8 << 20)
        attach[name] = system.ledger.event_total(CostDomain.FILETABLE,
                                                 "attach")
    assert attach["radix4"] == attach["radix5"] > 0
    assert attach["hashed"] > 50 * attach["radix4"]
    assert attach["hashed"] > 5 * attach["range"]


def test_range_attach_pays_for_aged_images():
    def attach_cycles(aged):
        system = System(device_bytes=1 << 30, aged=aged, scheme="range")
        proc = system.new_process()
        dax = system.daxvm_for(proc)
        inode = make_file(system, 8 << 20)
        vma = dax_map(system, dax, inode, 8 << 20)
        scheme = proc.mm.scheme
        assert isinstance(scheme, RangeScheme)
        assert vma is not None
        return system.ledger.event_total(CostDomain.FILETABLE, "attach")

    assert attach_cycles(aged=True) > attach_cycles(aged=False)


# ---------------------------------------------------------------------------
# map_run: a run of 4 KB pages equals one map_page per page, in order.
# ---------------------------------------------------------------------------
def _recording_scheme(name):
    """A fresh scheme whose structure-frame allocations are logged."""
    physmem = PhysicalMemory(dram_bytes=256 << 20, pmem_bytes=256 << 20)
    allocated = []
    alloc = physmem.alloc_frame

    def recording_alloc(*args, **kwargs):
        frame = alloc(*args, **kwargs)
        allocated.append(frame)
        return frame

    physmem.alloc_frame = recording_alloc
    return make_scheme(name, physmem, DEFAULT_COSTS), allocated


def _map_outcome(call):
    try:
        return ("ok", call())
    except AddressSpaceError as exc:
        return ("raised", str(exc))


def _translation(scheme, vaddr):
    try:
        t = scheme.translate(vaddr)
    except SegmentationFault:
        return None
    return t.frame, int(t.flags.value), t.leaf_level


@pytest.mark.parametrize("mmu", SCHEME_NAMES)
@settings(max_examples=30, deadline=None)
@given(existing=st.lists(st.integers(0, 4 * 512 - 1), max_size=10),
       huge=st.lists(st.integers(0, 3), max_size=1),
       start=st.integers(0, 3 * 512),
       length=st.integers(1, 600),
       base_frame=st.integers(0, 1 << 20),
       stride=st.integers(0, 3),
       writable=st.booleans())
def test_map_run_matches_map_page_loop(mmu, existing, huge, start, length,
                                       base_frame, stride, writable):
    flags = PageFlags.rw() if writable else PageFlags.ro()
    frames = [base_frame + i * stride for i in range(length)]
    run_vaddr = BASE + start * PAGE
    after = BASE + (start + length) * PAGE
    sides = []
    for use_run in (False, True):
        scheme, allocated = _recording_scheme(mmu)
        # Neighbouring and overlapping state: PMD leaves and PTEs,
        # possibly in the nodes the run lands in.
        for region in huge:
            scheme.map_page(BASE + region * PMD, 9 << 20, PageFlags.rw(),
                            PMD_LEVEL)
        for page in existing:
            _map_outcome(lambda: scheme.map_page(
                BASE + page * PAGE, 5000 + page, PageFlags.ro()))
        if use_run:
            outcome = _map_outcome(
                lambda: scheme.map_run(run_vaddr, frames, flags))
        else:
            outcome = _map_outcome(lambda: sum(
                scheme.map_page(run_vaddr + i * PAGE, frame, flags)
                for i, frame in enumerate(frames)))
        # The PTE node a run leaves cached must still be the right one.
        _map_outcome(lambda: scheme.map_page(after, 777, flags))
        sides.append({
            "outcome": outcome,
            "state": scheme.to_state(),
            "allocated": list(allocated),
            "structure_frames": scheme.structure_frames(),
            "nodes": getattr(scheme, "nodes_allocated", None),
            "translations": [_translation(scheme, vaddr) for vaddr in (
                run_vaddr, run_vaddr + (length - 1) * PAGE, after)],
        })
    assert sides[0] == sides[1]
    if sides[1]["outcome"][0] == "ok":
        assert sides[1]["translations"][1][0] == frames[-1]
        assert sides[1]["translations"][2][0] == 777
