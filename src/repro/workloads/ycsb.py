"""YCSB driver over the Pmem-RocksDB-like store (paper Fig. 9c).

Standard YCSB mixes: Load phases are pure inserts; A = 50/50
read/update, B = 95/5, C = read-only, D = 95/5 read/insert (latest),
E = 95/5 scan/insert, F = 50/50 read/read-modify-write.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.analysis.results import RunResult
from repro.system import System
from repro.workloads.common import Interface, Measurement
from repro.workloads.kvstore import KVConfig, PmemKVStore

#: (read, update, insert, scan, rmw) fractions per workload.
WORKLOAD_MIXES: Dict[str, Tuple[float, float, float, float, float]] = {
    "load_a": (0.0, 0.0, 1.0, 0.0, 0.0),
    "load_e": (0.0, 0.0, 1.0, 0.0, 0.0),
    "run_a": (0.5, 0.5, 0.0, 0.0, 0.0),
    "run_b": (0.95, 0.05, 0.0, 0.0, 0.0),
    "run_c": (1.0, 0.0, 0.0, 0.0, 0.0),
    "run_d": (0.95, 0.0, 0.05, 0.0, 0.0),
    "run_e": (0.0, 0.0, 0.05, 0.95, 0.0),
    "run_f": (0.5, 0.0, 0.0, 0.0, 0.5),
}


@dataclass
class YCSBConfig:
    workload: str = "load_a"
    num_ops: int = 20000
    #: Records preloaded before a run_* phase (not measured).
    preload_records: int = 20000
    kv: KVConfig = field(default_factory=KVConfig)
    #: Pre-zero all free space before the measured phase (the Fig. 9c
    #: "pre-zero in advance" DaxVM configuration).
    prezero: bool = False
    #: DaxVM MMU-monitor tick interval in ops (0 = off).
    monitor_every: int = 4000
    seed: int = 11


#: The op a draw picks, by its index in the mix; a draw past the
#: mix's last bound (a mix summing below 1.0) picks the last, a read.
OPS = ("read", "update", "insert", "scan", "rmw", "read")


def _op_stream(cfg: YCSBConfig):
    """The index into :data:`OPS` of each op, one draw per op.

    An op's bound is the running sum of the mix up to it, and a draw
    picks the first op whose bound lies above it.
    """
    bounds = []
    acc = 0.0
    for frac in WORKLOAD_MIXES[cfg.workload]:
        acc += frac
        bounds.append(acc)
    draw = random.Random(cfg.seed).random
    for _ in range(cfg.num_ops):
        yield bisect_right(bounds, draw())


def _driver(store: PmemKVStore, cfg: YCSBConfig):
    yield from store.start()
    if cfg.workload.startswith("run_") and cfg.preload_records:
        for _ in range(cfg.preload_records):
            yield from store.put()


def _measured(store: PmemKVStore, cfg: YCSBConfig):
    daxvm = store.process.daxvm
    by_name = {"read": store.get, "update": store.put,
               "insert": store.put, "scan": store.scan,
               "rmw": store.read_modify_write}
    handlers = tuple(by_name[name] for name in OPS)
    # Ops left until the next DaxVM MMU-monitor tick; with no monitor,
    # one more than there are ops, so it never reaches zero.
    every = cfg.monitor_every if daxvm is not None else 0
    until_tick = every or cfg.num_ops + 1
    for op in _op_stream(cfg):
        yield from handlers[op]()
        until_tick -= 1
        if not until_tick:
            until_tick = every
            vmas = [vma for _f, vma in store.sstables]
            if store.wal is not None:
                vmas.append(store.wal[1])
            yield from daxvm.monitor_check(vmas)


def run_ycsb(system: System, cfg: YCSBConfig) -> RunResult:
    """Preload (unmeasured), then run the workload phase."""
    if cfg.workload not in WORKLOAD_MIXES:
        raise ValueError(f"unknown YCSB workload {cfg.workload!r}")
    process = system.new_process(f"ycsb-{cfg.workload}")
    if cfg.kv.interface is Interface.DAXVM:
        dax = system.daxvm_for(process)
        if cfg.prezero:
            dax.prezero.prezero_all_free()
    store = PmemKVStore(system, process, cfg.kv)
    system.spawn(_driver(store, cfg), core=0, name="ycsb-preload",
                 process=process)
    system.run()

    measure = Measurement(system)
    measure.start()
    system.spawn(_measured(store, cfg), core=0, name="ycsb-run",
                 process=process)
    system.run()
    label = f"{cfg.workload}/{cfg.kv.interface.value}"
    return measure.finish(label, operations=cfg.num_ops,
                          bytes_processed=cfg.num_ops
                          * cfg.kv.record_size)


__all__ = ["WORKLOAD_MIXES", "YCSBConfig", "run_ycsb"]
