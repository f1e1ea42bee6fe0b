"""The benchmark's four workloads, each a fixed list of sweep points.

Every point goes straight to :func:`repro.runner.worker.run_point`, the
function a sweep-pool worker executes, so the result cache, the pool
and oversubscription never enter the numbers.  ``seed`` feeds every
input that takes one (crash and fault seeds ``s`` and ``s+1``, the
consolidation tenant streams, the migration retry RNG); every other
input is seed-free.  ``smoke`` shrinks each point about eightfold for
the benchmark's own tests.

Why each workload exists (measured with the traced pass at the seed
commit, see README.md):

* ``read_contended`` -- the paper's mmap-vs-DaxVM read-once comparison
  (Fig. 1b/8a) with 16 simulated threads.  The engine's contended path
  (heap scheduling, lock block/wake, shootdown IPIs) is the largest
  host-time layer here.
* ``append_single`` -- the write side, one simulated thread.  A lone
  thread runs on the engine's fast-forward drain, so ``vm``+``mem``
  dominate and an engine change should not move this workload.
* ``attached`` -- the only workload where ``tenancy``, ``tiering``,
  ``virt`` and a non-radix MMU run.
* ``audit_replicas`` -- crash and media-fault audits that build about
  a thousand fresh machines per pass, so machine construction and
  replica reset are multiplied here and invisible elsewhere.
"""

from __future__ import annotations

from typing import List

from repro.runner.manifest import SweepPoint
from repro.tenancy import consolidate_config

#: Full DaxVM (ephemeral mappings + asynchronous unmap), Fig. 8a's
#: last bar.
_DAXVM_FULL = {"ephemeral": True, "unmap_async": True, "sync": True,
               "nosync": False}
#: The kvstore's DaxVM options in the ``mmu`` sweep: long-lived
#: WAL/SSTable mappings, synchronous unmap.
_DAXVM_KV = {"ephemeral": False, "unmap_async": False, "sync": True,
             "nosync": False}


def _kvstore(num_ops: int) -> dict:
    return {"workload": "load_a", "num_ops": num_ops,
            "preload_records": 0, "interface": "daxvm",
            "record_size": 4096, "memtable_limit": 1 << 20,
            "sstable_size": 1 << 20, "wal_size": 1 << 20,
            "daxvm": _DAXVM_KV}


def _read_contended(seed: int, n) -> List[SweepPoint]:
    files = {"file_size": 32 << 10, "num_files": n(8000),
             "num_threads": 16}
    return [
        SweepPoint("ephemeral", "mmap", 16, {**files, "interface": "mmap"}),
        SweepPoint("ephemeral", "daxvm", 16,
                   {**files, "interface": "daxvm"}),
        SweepPoint("apache", "daxvm", 16,
                   {"num_workers": 16, "requests": n(8000),
                    "interface": "daxvm", "daxvm": _DAXVM_FULL}),
    ]


def _append_single(seed: int, n) -> List[SweepPoint]:
    return [
        SweepPoint("kvstore", "kvstore", 1, _kvstore(n(128_000)),
                   aged=False),
        SweepPoint("syncbench", "daxvm+fsync", 1,
                   {"file_size": 4 << 20, "op_size": 1 << 10,
                    "ops_per_sync": 16, "num_syncs": n(8192),
                    "discipline": "daxvm+fsync"},
                   aged=False),
    ]


def _attached(seed: int, n) -> List[SweepPoint]:
    points = [
        SweepPoint("consolidate", "predis+q+hog", 16, {},
                   tenancy=consolidate_config(
                       16, "predis", quotas=True, antagonist=True,
                       requests=n(128), seed=seed).to_state()),
        SweepPoint("consolidate", "mixed+q+hog", 8, {},
                   tenancy=consolidate_config(
                       8, "mixed", quotas=True, antagonist=True,
                       requests=n(256), seed=seed).to_state()),
        SweepPoint("ephemeral", "mmap+ktierd", 2,
                   {"file_size": 32 << 10, "num_files": n(2000),
                    "num_threads": 4, "interface": "mmap"},
                   node_kinds="ddr,cxl",
                   tiering={"data": "cxl", "daemon": True,
                            "scan_interval": 5e5, "hot_touches": 1,
                            "cold_scans": 4}),
    ]
    for workload in ("kvstore", "syncbench"):
        points.append(SweepPoint(
            "migrate", f"{workload}+prefetch", 8, {"workload": workload},
            aged=False,
            virt={"nested": True, "migrate": True, "migrate_after": 8,
                  "prefetch": True, "seed": seed}))
    points.append(SweepPoint("kvstore", "kvstore+hashed", 1,
                             _kvstore(n(12_800)), scheme="hashed"))
    return points


def _audit_replicas(seed: int, n) -> List[SweepPoint]:
    points = []
    for workload in ("syncbench", "kvstore"):
        for s in (seed, seed + 1):
            points.append(SweepPoint(
                "crash", workload, s,
                {"workload": workload, "seed": s, "max_points": n(336),
                 "media": "optane", "device_gib": 4},
                aged=False))
    for workload in ("kvstore", "readbench"):
        for s in (seed, seed + 1):
            points.append(SweepPoint(
                "faults", workload, s,
                {"workload": workload, "seed": s, "max_sites": n(64),
                 "media": "optane", "device_gib": 4},
                aged=False))
    return points


_BUILDERS = {"read_contended": _read_contended,
             "append_single": _append_single,
             "attached": _attached,
             "audit_replicas": _audit_replicas}

#: Divisor applied to every size under ``--smoke``.
SMOKE_DIVISOR = 8


def workload_points(name: str, seed: int,
                    smoke: bool = False) -> List[SweepPoint]:
    """The fixed point list of workload ``name`` at ``seed``."""
    divisor = SMOKE_DIVISOR if smoke else 1
    return _BUILDERS[name](seed, lambda size: max(1, size // divisor))
