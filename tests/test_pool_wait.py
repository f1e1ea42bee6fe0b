"""A device-pool wait is one one-direction call on a node's pool, and
that wait is the two-direction token-bucket step it replaced
(``_reference_delay`` below) of the same transfer, bit for bit: the
same wait and the same bucket state, at clocks before and after the
bucket's paid-until time, with and without an admission hook.  A
mapped access waits on its target node's pool, an out-of-range node
clamps to the last pool, and a reboot's new pools are the ones later
accesses wait on."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_COSTS
from repro.mem.latency import SharedBandwidth
from repro.mem.physmem import Medium
from repro.obs import ChargeSpan
from repro.system import System
from repro.topology import MachineTopology
from repro.vm.vma import MapFlags, Protection

PAGE = 4096
FILE_PAGES = 32
BW = (19.8e9, 7.5e9, 2.7e9)

#: One transfer: its direction, its size, and its clock's offset from
#: the bucket's paid-until time (negative: the bucket is still busy).
_STEPS = st.lists(
    st.tuples(st.booleans(), st.integers(1, 1 << 24),
              st.floats(-5e5, 5e5, allow_nan=False)),
    min_size=1, max_size=40)


def _reference_delay(pool, read_bytes, write_bytes, now):
    """The two-direction pool wait the one-direction calls replaced:
    each named direction's bucket step, the larger wait, then the
    admission hook's."""
    wait = 0.0
    if read_bytes:
        bucket = pool._read
        paid_until = bucket._paid_until
        start = paid_until if paid_until > now else now
        bucket._paid_until = start + int(read_bytes) / bucket.bytes_per_cycle
        wait = bucket._paid_until - now
    if write_bytes:
        bucket = pool._write
        paid_until = bucket._paid_until
        start = paid_until if paid_until > now else now
        bucket._paid_until = start + int(write_bytes) / bucket.bytes_per_cycle
        write_wait = bucket._paid_until - now
        if write_wait > wait:
            wait = write_wait
    if pool.admission is not None:
        wait = max(wait, pool.admission.extra_delay(
            pool, read_bytes, write_bytes, now))
    return wait


def _buckets(pool):
    return pool._read._paid_until.hex(), pool._write._paid_until.hex()


class _Admission:
    """A deterministic stand-in for the tenancy admission hook."""

    def __init__(self):
        self.calls = []

    def extra_delay(self, pool, read_bytes, write_bytes, now):
        self.calls.append((read_bytes, write_bytes, now))
        return (read_bytes + 3 * write_bytes) / 7.0


def _replay(steps, folded, reference):
    for write, nbytes, offset in steps:
        bucket = reference._write if write else reference._read
        now = max(0.0, bucket._paid_until + offset)
        if write:
            got = folded.delay_write(nbytes, now)
            want = _reference_delay(reference, 0, nbytes, now)
        else:
            got = folded.delay_read(nbytes, now)
            want = _reference_delay(reference, nbytes, 0, now)
        assert got.hex() == want.hex()
        assert _buckets(folded) == _buckets(reference)


@settings(max_examples=100, deadline=None)
@given(steps=_STEPS)
def test_one_direction_wait_is_delay(steps):
    _replay(steps, SharedBandwidth(*BW), SharedBandwidth(*BW))


@settings(max_examples=50, deadline=None)
@given(steps=_STEPS)
def test_admission_hook_sees_each_transfer(steps):
    folded, reference = SharedBandwidth(*BW), SharedBandwidth(*BW)
    folded.admission, reference.admission = _Admission(), _Admission()
    _replay(steps, folded, reference)
    assert folded.admission.calls == reference.admission.calls
    assert len(folded.admission.calls) == len(steps)


def _machine(num_nodes=1):
    """A machine with one file mapped shared read-write, every page
    already written once, so no later access faults before it takes
    its pool wait."""
    topology = MachineTopology.with_kinds(DEFAULT_COSTS.machine,
                                          ("ddr",) * num_nodes)
    system = System(device_bytes=64 << 20, topology=topology)
    proc = system.new_process()

    def flow():
        f = yield from system.fs.open("/pooled", create=True)
        yield from system.fs.write(f, 0, FILE_PAGES * PAGE)
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0,
                                      FILE_PAGES * PAGE, Protection.rw(),
                                      MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, FILE_PAGES * PAGE, write=True)
        return vma

    return system, proc.mm, _run(system, flow())


def _run(system, gen):
    thread = system.spawn(gen, core=0)
    system.run()
    return thread.result


def _charged(gen, out):
    """Forward ``gen``'s effects to the engine, summing each event."""
    while True:
        try:
            effect = gen.send(None)
        except StopIteration as stop:
            return stop.value
        if effect.__class__ is ChargeSpan:
            for _, event, cycles in effect.entries:
                out[event] = out.get(event, 0.0) + cycles
        yield effect


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from([0, 1, 5]), st.booleans(),
                                st.integers(1, FILE_PAGES)),
                      min_size=1, max_size=12))
def test_access_waits_on_its_node_pool(steps):
    """Node 5 of a two-node machine clamps to node 1's pool.  Each
    access's data charge is its shape's price or its pool wait,
    whichever is larger, and the pools end where the reference wait
    leaves twins of them."""
    system, mm, vma = _machine(num_nodes=2)
    twins = [SharedBandwidth(pool.read_bw, pool.write_bw, pool.freq_hz)
             for pool in system.mem.pools]
    for twin, pool in zip(twins, system.mem.pools):
        twin._read._paid_until = pool._read._paid_until
        twin._write._paid_until = pool._write._paid_until
    shape = SimpleNamespace(numa=(1.0, 1.0, 0, False))
    mm._uniform = False
    mm._numa_info = lambda vma, first_page, medium: shape.numa
    seen = []

    def flow():
        for node, write, pages in steps:
            shape.numa = (1.0, 1.0, node, False)
            nbytes = pages * PAGE
            twin = twins[min(node, len(twins) - 1)]
            now = system.engine.now
            wait = (_reference_delay(twin, 0, nbytes, now) if write
                    else _reference_delay(twin, nbytes, 0, now))
            price = mm._data_cycles(nbytes, Medium.PMEM, write, False,
                                    False, True, node, 1.0, 1.0)
            charged = {}
            yield from _charged(mm.access(vma, 0, nbytes, write=write),
                                charged)
            seen.append((charged["data-access"].hex(),
                         max(price, wait).hex()))

    _run(system, flow())
    assert [got for got, _ in seen] == [want for _, want in seen]
    assert [_buckets(p) for p in system.mem.pools] == \
        [_buckets(t) for t in twins]


def test_reboot_pools_are_the_ones_accesses_wait_on():
    system, _mm, _vma = _machine()
    old = system.mem.pools
    before = [_buckets(pool) for pool in old]
    system._reboot()
    new = system.mem.pools
    assert len(new) == len(old)
    assert all(n is not o for n, o in zip(new, old))
    mm, vma = _remap(system)
    mapped = _buckets(new[0])
    _run(system, mm.access(vma, 0, 4 * PAGE, write=True))
    assert _buckets(new[0]) != mapped
    assert [_buckets(pool) for pool in old] == before


def _remap(system):
    """A new process's mapping of a new file, made after a reboot."""
    proc = system.new_process()

    def flow():
        f = yield from system.fs.open("/after", create=True)
        yield from system.fs.write(f, 0, 4 * PAGE)
        return (yield from proc.mm.mmap(system.fs, f.inode, 0, 4 * PAGE,
                                        Protection.rw(), MapFlags.SHARED))

    return proc.mm, _run(system, flow())
