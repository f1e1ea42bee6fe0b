"""The mapped-access path's shape memo prices exactly like the direct
pricing calls it replaces, forgets its prices when media interference
changes, and stays warm: a repeated shape is priced once."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.physmem import Medium
from repro.obs import ChargeSpan, CostDomain
from repro.paging.schemes import SCHEME_NAMES
from repro.paging.tlb import AccessPattern
from repro.system import System
from repro.vm.mm import MMStruct
from repro.vm.vma import MapFlags, Protection

PAGE = 4096
FILE_PAGES = 64


def _machine(scheme="radix4"):
    """A one-file machine with one shared read-write mapping of the
    file.  Device bandwidth contention is off (no pools), so an access
    is priced by its shape alone, never by when it runs."""
    system = System(device_bytes=64 << 20, scheme=scheme)
    proc = system.new_process()

    def flow():
        f = yield from system.fs.open("/priced", create=True)
        yield from system.fs.write(f, 0, FILE_PAGES * PAGE)
        return (yield from proc.mm.mmap(system.fs, f.inode, 0,
                                        FILE_PAGES * PAGE, Protection.rw(),
                                        MapFlags.SHARED))

    vma = _run(system, flow())
    system.mem.set_pools([None])
    return system, proc.mm, vma


def _run(system, gen):
    thread = system.spawn(gen, core=0)
    system.run()
    return thread.result


def _spans(gen, out):
    """Forward ``gen``'s effects to the engine, keeping every span."""
    value = None
    while True:
        try:
            effect = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if effect.__class__ is ChargeSpan:
            out.append(effect.entries)
        value = yield effect


def _steer(mm, mem):
    """Make the access path ask ``shape`` for its data medium and NUMA
    placement, so a test can choose both per access."""
    shape = SimpleNamespace(medium=Medium.PMEM, numa=(1.0, 1.0, 0, False))
    mm._uniform = False
    mm._numa_info = lambda vma, first_page, medium: shape.numa
    mem.tiers = SimpleNamespace(
        medium_for=lambda inode, file_page: shape.medium,
        note_touch=lambda *args, **kwargs: None)
    return shape


_SHAPES = st.fixed_dictionaries({
    "first_page": st.integers(0, FILE_PAGES - 1),
    "pages": st.integers(1, 9),
    "write": st.booleans(),
    "copy": st.sampled_from([False, False, True]),
    "pattern": st.sampled_from(list(AccessPattern)),
    "ntstore": st.booleans(),
    "medium": st.sampled_from([Medium.PMEM, Medium.PMEM, Medium.DRAM,
                               Medium.CXL]),
    "leaf": st.sampled_from([Medium.DRAM, Medium.PMEM]),
    "numa": st.sampled_from([(1.0, 1.0, 0, False), (1.7, 0.6, 1, True),
                             (1.3, 0.8, 0, False), (1.0, 1.0, 1, True)]),
})
#: A step is an access (an index into the example's shape pool), a
#: stream entering interference on a node, or the oldest one exiting.
_STEPS = st.lists(st.one_of(
    st.integers(0, 3),
    st.tuples(st.sampled_from([2.0, 1.25, 3.5]), st.sampled_from([0, 1])),
    st.just("exit")), min_size=4, max_size=24)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@settings(max_examples=25, deadline=None)
@given(pool=st.lists(_SHAPES, min_size=1, max_size=3), steps=_STEPS,
       huge=st.booleans(), nested=st.booleans())
def test_memoised_price_equals_direct_price(scheme, pool, steps, huge,
                                            nested):
    """Random shapes, media, NUMA factors and interleaved interference:
    every access charges, bit for bit, what ``_data_cycles`` and
    ``_tlb_cost`` price for it when called directly."""
    system, mm, vma = _machine(scheme)
    mem = system.mem
    steer = _steer(mm, mem)
    if huge:
        vma.huge_regions.add(0)
    if nested:
        mm.guest = SimpleNamespace(nested=True,
                                   on_access=lambda *a, **k: iter(()))
    active = []
    for step in steps:
        if step == "exit":
            if active:
                factor, node = active.pop(0)
                mem.exit_interference(factor, node=node)
            continue
        if isinstance(step, tuple):
            mem.enter_interference(*step)
            active.append(step)
            continue
        shape = pool[step % len(pool)]
        steer.medium = shape["medium"]
        steer.numa = shape["numa"]
        vma.leaf_medium = shape["leaf"]
        first_page = shape["first_page"]
        npages = min(shape["pages"], FILE_PAGES - first_page)
        spans = []
        _run(system, _spans(mm.access(
            vma, first_page * PAGE, npages * PAGE, write=shape["write"],
            pattern=shape["pattern"], ntstore=shape["ntstore"],
            copy=shape["copy"]), spans))
        charged = {event: cycles for entries in spans
                   for _, event, cycles in entries}

        # The direct price, taken after the access: nothing the access
        # does after pricing changes a price.
        lat_f, bw_f, node, remote = shape["numa"]
        nbytes = npages * PAGE
        args = (nbytes, shape["medium"], shape["write"], shape["copy"],
                shape["pattern"] is AccessPattern.RANDOM, shape["ntstore"],
                node)
        data = mm._data_cycles(*args, lat_f, bw_f)
        extra = (data - mm._data_cycles(*args, 1.0, 1.0)
                 if remote else 0.0)
        walk = mm._tlb_cost(vma, first_page, npages, shape["pattern"],
                            nbytes, leaf_factor=lat_f)
        expected = {"data-access": data - extra, "tlb-walk": walk}
        if extra:
            expected["remote-access"] = extra
        assert {k: v.hex() for k, v in charged.items()} == \
            {k: v.hex() for k, v in expected.items()}


def test_memo_reprices_after_interference_change():
    """Regression: a shape priced before a background stream starts
    must be re-priced while it runs and again once it stops; a memo
    that ignored the interference epoch would keep the first price."""
    system, mm, vma = _machine()
    mem = system.mem

    def data_cycles():
        spans = []
        _run(system, _spans(mm.access(vma, 0, 4 * PAGE), spans))
        return sum(cycles for entries in spans
                   for _, event, cycles in entries
                   if event == "data-access")

    quiet = data_cycles()
    mem.enter_interference(2.0)
    noisy = data_cycles()
    assert noisy > quiet
    assert noisy == mm._data_cycles(4 * PAGE, Medium.PMEM, False, False,
                                    False, True, 0, 1.0, 1.0)
    mem.exit_interference(2.0)
    assert data_cycles() == quiet
    mem.enter_interference(2.0)
    mem.reset_interference()
    assert data_cycles() == quiet


def test_same_shape_accesses_price_once(monkeypatch):
    """1,000 accesses of one shape price its data and its walk once
    each: the memo is what keeps the mapped-access path cheap, and a
    memo that silently went cold would only show as host time."""
    system, mm, vma = _machine()
    calls = {"data": 0, "walk": 0}
    data_cycles, walk_cost = mm._data_cycles, mm._walk_cost

    def counted_data(*args, **kwargs):
        calls["data"] += 1
        return data_cycles(*args, **kwargs)

    def counted_walk(*args, **kwargs):
        calls["walk"] += 1
        return walk_cost(*args, **kwargs)

    monkeypatch.setattr(mm, "_data_cycles", counted_data)
    monkeypatch.setattr(mm, "_walk_cost", counted_walk)
    monkeypatch.setattr(MMStruct, "_tlb_cost", None)  # never reached

    def flow():
        for _ in range(1000):
            yield from mm.access(vma, 8 * PAGE, 2 * PAGE)

    _run(system, flow())
    assert calls == {"data": 1, "walk": 1}
    assert system.ledger.event_total(CostDomain.USERSPACE,
                                     "data-access") > 0
