"""System facade tests: wiring, processes, crash-image basics."""

import random

import pytest

from repro.crash import PersistenceDomain, RecoveryChecker, StorageImage
from repro.errors import InvalidArgumentError
from repro.fs.ext4 import Ext4Dax
from repro.fs.nova import Nova
from repro.system import System


def test_fs_type_selection():
    assert isinstance(System(device_bytes=1 << 30).fs, Ext4Dax)
    assert isinstance(System(device_bytes=1 << 30, fs_type="nova").fs,
                      Nova)
    with pytest.raises(InvalidArgumentError):
        System(device_bytes=1 << 30, fs_type="btrfs")


def test_default_scheme_is_explicit_radix4():
    """``System()`` and ``System(scheme="radix4")`` are one machine:
    the ``mmu`` golden gate replays only the sweep path, so this pins
    the default construction."""
    default = System(device_bytes=1 << 30).new_process().mm.scheme
    radix4 = System(device_bytes=1 << 30,
                    scheme="radix4").new_process().mm.scheme
    assert type(default) is type(radix4)
    assert default.to_state() == radix4.to_state()


def test_device_frames_live_in_pmem_range():
    system = System(device_bytes=1 << 30)
    frame = system.device.frame_of(0)
    assert system.physmem.medium_of(frame).value == "pmem"


def test_processes_have_independent_address_spaces():
    system = System(device_bytes=1 << 30)
    a = system.new_process()
    b = system.new_process()
    assert a.mm is not b.mm
    assert a.mm.mmap_sem is not b.mm.mmap_sem
    assert a.name != b.name


def test_filetable_manager_is_shared_across_processes():
    system = System(device_bytes=1 << 30)
    a = system.new_process()
    b = system.new_process()
    dax_a = system.daxvm_for(a)
    dax_b = system.daxvm_for(b)
    assert dax_a.filetables is dax_b.filetables
    # But the per-process machinery is private.
    assert dax_a.ephemeral is not dax_b.ephemeral
    assert dax_a.unmapper is not dax_b.unmapper


def test_spawn_registers_core_in_cpumask():
    system = System(device_bytes=1 << 30)
    proc = system.new_process()

    def idle():
        from repro.sim.engine import Compute
        yield Compute(1)

    system.spawn(idle(), core=3, process=proc)
    system.run()
    assert 3 in proc.mm.active_cores


def test_seconds_conversion():
    from repro.sim.engine import Compute

    system = System(device_bytes=1 << 30)

    def worker():
        yield Compute(2.7e9)

    system.engine.spawn(worker())
    system.run()
    assert system.seconds() == pytest.approx(1.0)


def test_shared_bandwidth_is_wired():
    system = System(device_bytes=1 << 30)
    assert system.mem.pools[0] is not None
    assert system.fs.engine is system.engine


def _crashed_image(system):
    """Copy ``system``'s storage and power-fail the copy."""
    image = StorageImage(system)
    state = image.persistence.apply_crash(random.Random(0))
    return image, state


def test_storage_image_mounts_on_a_fresh_engine_with_a_cold_cache():
    system = System(device_bytes=1 << 30)
    system.attach_persistence(PersistenceDomain())
    proc = system.new_process()

    def flow():
        from repro.sim.engine import Compute
        f = yield from system.fs.open("/x", create=True)
        yield from system.fs.write(f, 0, 4096)
        yield from system.fs.fsync(f)
        yield Compute(1000)

    system.spawn(flow(), core=0, process=proc)
    system.run()
    assert system.engine.now > 0
    image, state = _crashed_image(system)
    assert image.engine is not system.engine
    assert image.engine.now == 0.0
    assert len(image.vfs.inode_cache) == 0
    # Storage persisted.
    assert "/x" in image.vfs
    assert image.vfs.lookup("/x").block_count == 1
    assert RecoveryChecker(image, image.persistence, state).run(0).ok
    assert image.vfs.lookup("/x").block_count == 1


def test_image_without_filetables_replays_no_table():
    system = System(device_bytes=1 << 30)
    system.attach_persistence(PersistenceDomain())
    image, state = _crashed_image(system)
    assert image._filetables is None
    outcome = RecoveryChecker(image, image.persistence, state).run(0)
    assert outcome.ok
    assert outcome.tables_repaired == outcome.ptes_replayed == 0
