"""The NUMA topology model and its end-to-end effects.

Unit coverage of :mod:`repro.topology` (core map, distance matrices,
interleave map, placement resolution), the per-node allocator policies
of :class:`~repro.mem.physmem.PhysicalMemory`, and behavioural checks
on a 2-socket :class:`~repro.system.System`: remote file placement
must cost more than local, and cross-socket shootdown IPIs must be
counted and priced.
"""

import pytest

from repro.config import DEFAULT_COSTS, NUMA_IPI_CROSS_SOCKET_EXTRA
from repro.errors import InvalidArgumentError, MemoryError_
from repro.mem.physmem import Medium, PhysicalMemory
from repro.obs import CostDomain
from repro.paging.tlb import AccessPattern
from repro.system import System
from repro.topology import (
    INTERLEAVE_BLOCKS,
    InterleaveMap,
    MachineTopology,
    NodeSpec,
    device_placement,
)
from repro.vm.vma import MapFlags, Protection
from repro.workloads import EphemeralConfig, Interface, run_ephemeral

MACHINE = DEFAULT_COSTS.machine


def two_nodes() -> MachineTopology:
    return MachineTopology.with_kinds(MACHINE, ("ddr", "ddr"))


# ---------------------------------------------------------------------------
# The static model.
# ---------------------------------------------------------------------------
def test_single_node_matches_machine():
    topo = MachineTopology.with_kinds(MACHINE, ("ddr",))
    assert topo.num_nodes == 1
    assert topo.nodes[0] == NodeSpec(MACHINE.dram_bytes,
                                     MACHINE.pmem_bytes)
    assert topo.num_cores == MACHINE.num_cores


def test_split_is_even_and_frame_aligned():
    topo = two_nodes()
    assert topo.num_nodes == 2
    for node in topo.nodes:
        assert node.dram_bytes % MACHINE.page_size == 0
        assert node.pmem_bytes % MACHINE.page_size == 0
    assert topo.nodes[0] == topo.nodes[1]
    with pytest.raises(InvalidArgumentError):
        MachineTopology.with_kinds(MACHINE, ())


def test_core_map_partitions_all_cores():
    topo = two_nodes()
    seen = []
    for node in range(topo.num_nodes):
        cores = topo.cores_of_node(node)
        assert all(topo.node_of_core(c) == node for c in cores)
        seen.extend(cores)
    assert seen == list(range(topo.num_cores))


def test_same_node_factors_are_exactly_neutral():
    """The 1-node equivalence contract: same-socket factors must be
    the exact float 1.0 (and IPI extras exactly 0.0), not merely
    close, so multiplying by them cannot perturb golden numbers."""
    topo = two_nodes()
    for medium in Medium:
        assert topo.latency_factor(1, 1, medium) == 1.0
        assert topo.bandwidth_factor(0, 0, medium) == 1.0
    assert topo.ipi_extra(0, 0) == 0.0


def test_cross_socket_factors_penalise():
    topo = two_nodes()
    assert topo.latency_factor(0, 1, Medium.PMEM) > \
        topo.latency_factor(0, 1, Medium.DRAM) > 1.0
    assert topo.bandwidth_factor(0, 1, Medium.PMEM) < \
        topo.bandwidth_factor(0, 1, Medium.DRAM) < 1.0
    assert topo.ipi_extra(0, 1) == NUMA_IPI_CROSS_SOCKET_EXTRA
    assert topo.ipi_matrix() == [[0.0, NUMA_IPI_CROSS_SOCKET_EXTRA],
                                 [NUMA_IPI_CROSS_SOCKET_EXTRA, 0.0]]


# ---------------------------------------------------------------------------
# Interleaving and placement.
# ---------------------------------------------------------------------------
def test_interleave_map_round_trips_and_stripes():
    frames = 4 * INTERLEAVE_BLOCKS
    imap = InterleaveMap([(1000, frames), (9000, frames)])
    for block in (0, 1, INTERLEAVE_BLOCKS - 1, INTERLEAVE_BLOCKS,
                  3 * INTERLEAVE_BLOCKS + 7, 8 * INTERLEAVE_BLOCKS - 1):
        assert imap.block_of(imap.frame_of(block)) == block
    # Consecutive 2 MB chunks alternate sockets.
    assert imap.frame_of(0) == 1000
    assert imap.frame_of(INTERLEAVE_BLOCKS) == 9000
    assert imap.frame_of(2 * INTERLEAVE_BLOCKS) == 1000 + INTERLEAVE_BLOCKS
    with pytest.raises(InvalidArgumentError):
        imap.frame_of(8 * INTERLEAVE_BLOCKS)
    with pytest.raises(InvalidArgumentError):
        imap.block_of(999)


def test_device_placement_resolution():
    topo = two_nodes()
    bases, frames = [100, 900], [800, 800]
    assert device_placement(topo, bases, frames, "local") == (100, None)
    assert device_placement(topo, bases, frames, "remote") == (900, None)
    base, imap = device_placement(topo, bases, frames, "interleave")
    assert base == 100 and imap is not None
    assert imap.ranges == [(100, 800), (900, 800)]
    with pytest.raises(InvalidArgumentError):
        device_placement(topo, bases, frames, "nearest")


def test_device_placement_collapses_on_one_node():
    topo = MachineTopology.with_kinds(MACHINE, ("ddr",))
    for placement in ("local", "remote", "interleave"):
        assert device_placement(topo, [42], [100], placement) == (42, None)


# ---------------------------------------------------------------------------
# Per-node physical memory.
# ---------------------------------------------------------------------------
def test_physmem_frame_numbers_recover_medium_and_node():
    pm = PhysicalMemory(topology=two_nodes())
    assert pm.num_nodes == 2
    for medium in (Medium.DRAM, Medium.PMEM):
        for node in (0, 1):
            frame = pm.alloc_frame(medium, node=node)
            assert pm.medium_of(frame) is medium
            assert pm.node_of(frame) == node


def test_physmem_recovers_expander_media_too():
    """Same round-trip on a machine with CXL and far-memory nodes;
    each expander medium resolves to the node that carries it."""
    topo = MachineTopology.with_kinds(MACHINE, ("ddr", "cxl", "far"))
    pm = PhysicalMemory(topology=topo)
    assert pm.media_present() == [Medium.DRAM, Medium.PMEM,
                                  Medium.CXL, Medium.FAR]
    for medium, node in ((Medium.DRAM, 0), (Medium.PMEM, 0),
                         (Medium.CXL, 1), (Medium.FAR, 2)):
        frame = pm.alloc_frame(medium, node=node)
        assert pm.medium_of(frame) is medium
        assert pm.node_of(frame) == node


def test_physmem_refuses_absent_medium():
    pm = PhysicalMemory(topology=two_nodes())
    with pytest.raises(MemoryError_):
        pm.alloc_frame(Medium.CXL, node=0)


def test_physmem_preferred_policy_spills_in_node_order():
    topo = MachineTopology(nodes=(NodeSpec(2 * 4096, 4096),
                                  NodeSpec(2 * 4096, 4096)),
                           num_cores=4)
    pm = PhysicalMemory(topology=topo)
    pm.alloc_frame(Medium.PMEM, node=0)
    spilled = pm.alloc_frame(Medium.PMEM, node=0)
    assert pm.node_of(spilled) == 1
    with pytest.raises(MemoryError_):  # every node is full
        pm.alloc_frame(Medium.PMEM, node=0)


def test_single_node_layout_matches_historical_construction():
    topo = MachineTopology.with_kinds(MACHINE, ("ddr",))
    modern = PhysicalMemory(topology=topo)
    legacy = PhysicalMemory(dram_bytes=MACHINE.dram_bytes,
                            pmem_bytes=MACHINE.pmem_bytes)
    for medium in (Medium.DRAM, Medium.PMEM):
        ours, theirs = modern.region(medium), legacy.region(medium)
        assert ours.base_frame == theirs.base_frame
        assert ours.total_frames == theirs.total_frames


# ---------------------------------------------------------------------------
# End to end on two sockets.
# ---------------------------------------------------------------------------
def _ephemeral_cycles(placement: str):
    system = System(costs=DEFAULT_COSTS, device_bytes=1 << 30,
                    topology=two_nodes(), placement=placement)
    cfg = EphemeralConfig(file_size=32 << 10, num_files=30,
                          num_threads=2, interface=Interface.MMAP,
                          pin_node=0)
    run_ephemeral(system, cfg)
    return system.engine.now, system.stats


def test_remote_placement_costs_more_than_local():
    local_cycles, local_stats = _ephemeral_cycles("local")
    remote_cycles, remote_stats = _ephemeral_cycles("remote")
    assert remote_cycles > local_cycles
    # Pinned threads see a pure access mix: all-local vs all-remote.
    assert local_stats.get("numa.remote_accesses") == 0
    assert local_stats.get("numa.local_accesses") > 0
    assert remote_stats.get("numa.local_accesses") == 0
    assert remote_stats.get("numa.remote_accesses") > 0


def test_remote_accesses_charge_the_numa_domain():
    system = System(costs=DEFAULT_COSTS, device_bytes=1 << 30,
                    topology=two_nodes(), placement="remote")
    cfg = EphemeralConfig(file_size=32 << 10, num_files=20,
                          num_threads=1, interface=Interface.MMAP,
                          pin_node=0)
    run_ephemeral(system, cfg)
    assert system.ledger.domain_total(CostDomain.NUMA) > 0


@pytest.mark.parametrize("write", [True, False])
def test_remote_access_tax_is_remote_price_minus_uniform_price(write):
    """A remote mapped access ledgers, as ``numa/remote-access``, its
    price at the NUMA factors minus its price at uniform ones."""
    system = System(costs=DEFAULT_COSTS, device_bytes=1 << 30,
                    topology=two_nodes(), placement="remote")
    proc = system.new_process()
    nbytes = 4 << 12
    pattern = AccessPattern.SEQUENTIAL if write else AccessPattern.RANDOM

    def flow():
        handle = yield from system.fs.open("/remote", create=True)
        yield from system.fs.write(handle, 0, 16 << 12)
        vma = yield from proc.mm.mmap(
            system.fs, handle.inode, 0, 16 << 12,
            Protection.READ | Protection.WRITE,
            MapFlags.SHARED | MapFlags.POPULATE)
        before = system.ledger.event_total(CostDomain.NUMA, "remote-access")
        yield from proc.mm.access(vma, 0, nbytes, write=write, copy=not write,
                                  pattern=pattern)
        after = system.ledger.event_total(CostDomain.NUMA, "remote-access")
        return handle.inode, after - before

    thread = system.spawn(flow(), core=0)
    system.run()
    inode, tax = thread.result
    mem = system.mem
    lat, bw, node, remote = mem.numa_factors(
        0, system.fs.frame_for_page(inode, 0), Medium.PMEM)
    assert remote and bw < 1.0

    def price(lat_factor, bw_factor):
        if write:
            return mem.stream_write(nbytes, Medium.PMEM, node=node,
                                    bw_factor=bw_factor)
        return (mem.memcpy(nbytes, Medium.PMEM, Medium.DRAM,
                           bw_factor=bw_factor)
                + mem.load_latency(Medium.PMEM, factor=lat_factor))

    assert tax > 0
    assert tax == price(lat, bw) - price(1.0, 1.0)


def test_cross_socket_shootdowns_are_counted_and_priced():
    """Unpinned threads span both sockets, so every munmap's IPI fan
    crosses the UPI link for half its targets."""
    system = System(costs=DEFAULT_COSTS, device_bytes=1 << 30,
                    topology=two_nodes(), placement="local")
    cfg = EphemeralConfig(file_size=32 << 10, num_files=32,
                          num_threads=16, interface=Interface.MMAP)
    run_ephemeral(system, cfg)
    ipis = system.stats.get("numa.cross_socket_ipis")
    assert ipis > 0
    assert system.stats.get("numa.cross_socket_ipi_cycles") == \
        pytest.approx(ipis * NUMA_IPI_CROSS_SOCKET_EXTRA)


def test_one_node_runs_keep_numa_counters_silent(aged_system):
    cfg = EphemeralConfig(file_size=32 << 10, num_files=20,
                          num_threads=4, interface=Interface.MMAP)
    run_ephemeral(aged_system, cfg)
    for name in ("numa.local_accesses", "numa.remote_accesses",
                 "numa.cross_socket_ipis"):
        assert aged_system.stats.get(name) == 0
    assert aged_system.ledger.domain_total(CostDomain.NUMA) == 0


def test_frame_lookup_failure_propagates_on_two_nodes(monkeypatch):
    """On a multi-node machine a mapped access asks where its frame
    lives.  A hole (``None``) prices as uniform; a lookup that fails is
    a fault and must surface, not price as uniform."""
    system = System(costs=DEFAULT_COSTS, device_bytes=1 << 30,
                    topology=two_nodes(), placement="remote")
    proc = system.new_process()

    class LookupFailed(Exception):
        pass

    def hole(inode, page):
        return None

    def broken(inode, page):
        raise LookupFailed(page)

    def flow():
        handle = yield from system.fs.open("/numa", create=True)
        yield from system.fs.write(handle, 0, 4 << 12)
        vma = yield from proc.mm.mmap(
            system.fs, handle.inode, 0, 4 << 12, Protection.READ,
            MapFlags.SHARED | MapFlags.POPULATE)
        monkeypatch.setattr(system.fs, "frame_for_page", hole)
        yield from proc.mm.access(vma, 0, 4 << 12)
        monkeypatch.setattr(system.fs, "frame_for_page", broken)
        yield from proc.mm.access(vma, 0, 4 << 12)

    system.spawn(flow(), core=0)
    with pytest.raises(LookupFailed):
        system.run()
    assert system.stats.get("numa.local_accesses") == 1
    assert system.stats.get("numa.remote_accesses") == 0
