"""The antagonist tenant: a stress-ng style ``--vm`` hog.

Each iteration maps a window of its scratch file, dirties every page
(write faults → page-table allocation, dirty tracking, TLB pressure)
and unmaps it again (shootdowns) — the classic noisy neighbour that
hammers mmap_sem, the fault path and the device write bandwidth all
at once.  Under quotas the hog is the tenant the CPU throttle and
bandwidth admission are expected to box in.

The window is a DAX file, so the pages the hog dirties are device
blocks, not frames: the tenant's frame books see only the page-table
frames its faults allocate.  The stressor it imitates dirties
anonymous memory instead, which this model does not have, so no
memory limit applies to the hog.
"""

from __future__ import annotations

from repro.obs.counters import Counter
from repro.paging.tlb import AccessPattern
from repro.vm.vma import MapFlags, Protection

#: Bytes mapped and dirtied per iteration.
WINDOW_BYTES = 2 << 20


def hog_loop(runtime, tenant, ctx):
    """The antagonist's closed loop (generator for one SimThread)."""
    system = runtime.system
    process = ctx["process"]
    handle = ctx["handle"]
    window = ctx["window_bytes"]
    pages = window // 4096
    for _ in range(tenant.requests):
        vma = yield from process.mm.mmap(
            system.fs, handle.inode, 0, window,
            Protection.rw(), MapFlags.SHARED)
        yield from process.mm.access(
            vma, 0, window, write=True,
            pattern=AccessPattern.SEQUENTIAL)
        system.stats.add(Counter.TENANCY_ANTAGONIST_PAGES, pages)
        yield from process.mm.munmap(vma)
        runtime.note_request(tenant, 0.0, observe=False)


def hog_setup(runtime, tenant):
    """Create the hog's scratch file and process (outside the loop)."""
    from repro.workloads.filegen import create_files

    system = runtime.system
    inode = create_files(system, [WINDOW_BYTES],
                         prefix=f"/hog-{tenant.name}")[0]
    process = system.new_process(name=tenant.name, aslr_seed=tenant.seed)
    return {"process": process, "inode": inode,
            "window_bytes": WINDOW_BYTES}


def hog_boot(runtime, tenant, ctx):
    """Open the scratch file once (boot phase, unmeasured)."""
    system = runtime.system
    handle = yield from system.fs.open(f"/hog-{tenant.name}/f000000")
    ctx["handle"] = handle
