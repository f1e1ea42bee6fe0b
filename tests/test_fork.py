"""fork() address-space duplication tests."""

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
