"""VFS tests: namespace, inode cache LRU and lifecycle hooks."""

import pytest

from repro.errors import (
    BadFileDescriptorError,
    FileExistsError_,
    NoSuchFileError,
)
from repro.fs.vfs import VFS, DaxFile, Inode, InodeCache


def test_namespace_create_lookup_remove():
    vfs = VFS()
    inode = vfs.create("/a")
    assert vfs.lookup("/a") is inode
    assert "/a" in vfs
    with pytest.raises(FileExistsError_):
        vfs.create("/a")
    vfs.remove("/a")
    with pytest.raises(NoSuchFileError):
        vfs.lookup("/a")
    with pytest.raises(NoSuchFileError):
        vfs.remove("/a")


def test_paths_sorted():
    vfs = VFS()
    for p in ("/c", "/a", "/b"):
        vfs.create(p)
    assert vfs.paths() == ["/a", "/b", "/c"]
    assert len(vfs) == 3


def test_inode_numbers_unique():
    a, b = Inode("/x"), Inode("/y")
    assert a.number != b.number


def test_cache_hit_miss_and_lru_eviction():
    cache = InodeCache()
    cache.capacity = 2
    inodes = [Inode(f"/f{i}") for i in range(3)]
    hit, _ = cache.lookup(inodes[0])
    assert not hit
    hit, _ = cache.lookup(inodes[0])
    assert hit
    cache.lookup(inodes[1])
    cache.lookup(inodes[2])  # evicts inodes[0] (LRU)
    assert inodes[0] not in cache
    assert inodes[1] in cache
    assert cache.hits == 1
    assert cache.misses == 3


def test_cache_hooks_fire_and_charge():
    cache = InodeCache()
    cache.capacity = 1
    events = []
    cache.load_hooks.append(lambda i: events.append(("load", i.path)) or 42.0)
    cache.evict_hooks.append(lambda i: events.append(("evict", i.path)))
    a, b = Inode("/a"), Inode("/b")
    _hit, cycles = cache.lookup(a)
    assert cycles == 42.0
    cache.lookup(b)
    assert ("load", "/a") in events
    assert ("evict", "/a") in events


def test_evict_all():
    cache = InodeCache()
    evicted = []
    cache.evict_hooks.append(lambda i: evicted.append(i.path))
    for i in range(3):
        cache.lookup(Inode(f"/f{i}"))
    cache.evict_all()
    assert len(cache) == 0
    assert len(evicted) == 3


def test_closed_fd_rejected():
    f = DaxFile(Inode("/x"), None)
    f.closed = True
    with pytest.raises(BadFileDescriptorError):
        f._check_open()
