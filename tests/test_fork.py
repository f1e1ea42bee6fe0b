"""fork() address-space duplication tests."""

from repro.obs import CostDomain
from repro.vm.vma import MapFlags, Protection

PAGE = 4096


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


def test_fork_copies_vmas_and_translations(system):
    inode = make_file(system, 16 * PAGE)
    parent = system.new_process("parent")
    child = system.new_process("child")

    def flow():
        vma = yield from parent.mm.mmap(system.fs, inode, 0, 16 * PAGE,
                                        Protection.rw(), MapFlags.SHARED)
        yield from parent.mm.access(vma, 0, 16 * PAGE)
        yield from parent.mm.fork(child.mm)
        return vma

    vma = run(system, flow())
    clone = child.mm.find_vma(vma.start)
    assert clone is not None
    assert clone is not vma
    assert clone.populated == vma.populated
    # Both address spaces translate to the same PMem frames.
    pt = parent.mm.scheme.translate(vma.start)
    ct = child.mm.scheme.translate(vma.start)
    assert pt.frame == ct.frame
    assert system.stats.get("vm.forks") == 1


def test_fork_restarts_dirty_tracking_in_both(system):
    inode = make_file(system, 8 * PAGE)
    parent = system.new_process("parent")
    child = system.new_process("child")

    def flow():
        vma = yield from parent.mm.mmap(system.fs, inode, 0, 8 * PAGE,
                                        Protection.rw(), MapFlags.SHARED)
        yield from parent.mm.access(vma, 0, 8 * PAGE, write=True)
        assert len(vma.writable) == 8
        yield from parent.mm.fork(child.mm)
        # Parent's write-enable state was cleared (pages re-protected).
        assert len(vma.writable) == 0
        before = system.stats.get("vm.dirty_faults")
        yield from parent.mm.access(vma, 0, PAGE, write=True)
        return before, system.stats.get("vm.dirty_faults")

    before, after = run(system, flow())
    assert after == before + 1  # tracking restarted


def test_fork_skips_ephemeral_and_daxvm_mappings(system):
    inode = make_file(system, 1 << 20)
    parent = system.new_process("parent")
    child = system.new_process("child")
    dax = system.daxvm_for(parent)

    def flow():
        dvma = yield from dax.mmap(inode, 0, 1 << 20, Protection.READ)
        pvma = yield from parent.mm.mmap(system.fs, inode, 0, 4 * PAGE,
                                         Protection.READ,
                                         MapFlags.SHARED)
        yield from parent.mm.fork(child.mm)
        return dvma, pvma

    dvma, pvma = run(system, flow())
    # The POSIX mapping was duplicated; the DaxVM attachment was not
    # (children re-establish it with an O(1) daxvm_mmap).
    assert child.mm.find_vma(pvma.start) is not None
    assert child.mm.find_vma(dvma.start) is None


def test_fork_copies_vmas_in_address_order(system):
    """fork walks the parent's VMAs by address, not by when they were
    mapped.  The fourth mapping recycles the first one's freed range,
    so it is the newest VMA at the lowest address; it maps the second
    file again, so that file's ``i_mmap`` holds two parent mappings
    whose clones land in walk order."""
    size = 4 * PAGE
    inodes = [make_file(system, size, path=f"/f{i}") for i in range(3)]
    parent = system.new_process("parent")
    child = system.new_process("child")

    def flow():
        vmas = []
        for pages, inode in enumerate(inodes, start=1):
            vma = yield from parent.mm.mmap(system.fs, inode, 0, size,
                                            Protection.READ,
                                            MapFlags.SHARED)
            yield from parent.mm.access(vma, 0, pages * PAGE)
            vmas.append(vma)
        yield from parent.mm.munmap(vmas[0])
        fourth = yield from parent.mm.mmap(system.fs, inodes[1], 0, size,
                                           Protection.READ,
                                           MapFlags.SHARED)
        yield from parent.mm.access(fourth, 0, size)
        return vmas[0].start, fourth

    first_start, fourth = run(system, flow())
    assert fourth.start == first_start
    assert list(parent.mm.vmas)[-1] == fourth.start
    in_order = [vma for _, vma in sorted(parent.mm.vmas.items())]
    assert in_order[0] is fourth
    before = {inode.number: list(inode.i_mmap) for inode in inodes}
    fork_copy = system.ledger.event_total(CostDomain.COPY, "fork-copy")

    def fork():
        yield from parent.mm.fork(child.mm)

    run(system, fork())
    assert list(child.mm.vmas) == [vma.start for vma in in_order]
    clones = list(child.mm.vmas.values())
    for inode in inodes:
        assert inode.i_mmap == before[inode.number] + [
            clone for clone in clones if clone.inode is inode]
    assert [c.start for c in inodes[1].i_mmap[2:]] == [
        fourth.start, in_order[1].start]
    expected = 0.0
    for vma in in_order:
        expected += system.costs.vma_alloc
        expected += len(vma.populated) * system.costs.pte_teardown
    assert (system.ledger.event_total(CostDomain.COPY, "fork-copy")
            - fork_copy) == expected
