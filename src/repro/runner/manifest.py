"""Sweep manifests: points, sweeps, and their (de)serialised results.

The paper's figures are sweeps — thread counts (Figs. 1b, 8a), append
sizes (Fig. 7), ablation matrices (§V-C) — and every sweep decomposes
into independent *points*: one simulated :class:`~repro.system.System`
built from a media preset, driven by one workload configuration.  A
:class:`SweepPoint` captures everything a point depends on as plain
JSON-safe data, which buys three things at once:

* points can be shipped to ``multiprocessing`` workers (picklable,
  no live simulator state crosses the process boundary);
* points can be *content-hashed* — experiment + full config + cost
  model + code fingerprint — giving each a stable cache key;
* a point's result is a pure function of the point (the DES engine is
  deterministic), so a cache hit is exact, not approximate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.results import RunResult
from repro.config import MEDIA_PRESETS
from repro.obs.ledger import Ledger
from repro.sim.stats import Stats


@dataclass
class SweepPoint:
    """One independent simulation: workload config + machine config."""

    #: Point-runner registry key (see :mod:`repro.runner.sweeps`).
    experiment: str
    #: Figure line / bar this point belongs to (e.g. ``"mmap"``).
    series: str
    #: Sweep-axis value (threads, workers, append size, ...).
    x: float
    #: Keyword arguments for the point runner.  JSON-safe values only.
    params: Dict[str, object] = field(default_factory=dict)
    #: Media preset naming the :class:`~repro.config.CostModel`.
    media: str = "optane"
    #: Device size in GiB.
    device_gib: int = 4
    #: Aged (fragmented) file-system image?
    aged: bool = True
    #: File system on the device (``ext4``, ``nova`` or ``xfs``).
    fs_type: str = "ext4"
    #: NUMA sockets (1 = the historical uniform machine).
    num_nodes: int = 1
    #: File/device placement relative to ``pin_node`` — one of
    #: :data:`repro.topology.PLACEMENTS`; a no-op on one node.
    placement: str = "local"
    #: Socket the placement is defined against.
    pin_node: int = 0
    #: Translation architecture (see :data:`repro.paging.schemes.
    #: SCHEMES`); part of the payload, hence of the cache key.
    scheme: str = "radix4"
    #: Memory-expander node kinds beyond the ddr sockets, as a
    #: comma-joined string (e.g. ``"cxl"`` or ``"cxl,far"``); empty =
    #: the historical DRAM+PMem machine.  JSON-safe by construction.
    node_kinds: str = ""
    #: Tier overlay for the point: ``{}`` = none (pre-tiering model);
    #: otherwise ``{"data": "cxl", "daemon": true, ...}`` — consumed by
    #: the worker's ``attach_tiering`` call.  Part of the payload,
    #: hence of the cache key.
    tiering: Dict[str, object] = field(default_factory=dict)
    #: Tenancy shape for the point: ``{}`` = an un-tenanted machine;
    #: otherwise a :meth:`repro.tenancy.TenancyConfig.to_state` dict —
    #: consumed by the worker's ``attach_tenancy`` call.  Part of the
    #: payload, hence of the cache key.
    tenancy: Dict[str, object] = field(default_factory=dict)
    #: Hypervisor/migration shape for the point: ``{}`` = a bare
    #: machine; otherwise a :meth:`repro.virt.VirtConfig.to_state`
    #: dict — consumed by the ``migrate`` point runner.  Part of the
    #: payload, hence of the cache key.
    virt: Dict[str, object] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.series}@{self.x:g}"

    def to_payload(self) -> Dict[str, object]:
        """Plain-dict form for worker processes and hashing.

        Machine fields are part of the payload, so cache keys cover
        the machine's shape: the same workload on ext4 vs NOVA, or on
        1 vs 2 sockets, hashes to different results.
        """
        return {
            "experiment": self.experiment,
            "series": self.series,
            "x": self.x,
            "params": dict(self.params),
            "media": self.media,
            "device_gib": self.device_gib,
            "aged": self.aged,
            "fs_type": self.fs_type,
            "num_nodes": self.num_nodes,
            "placement": self.placement,
            "pin_node": self.pin_node,
            "scheme": self.scheme,
            "node_kinds": self.node_kinds,
            "tiering": dict(self.tiering),
            "tenancy": dict(self.tenancy),
            "virt": dict(self.virt),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "SweepPoint":
        return cls(**payload)

    def cache_key(self, code_fingerprint: str) -> str:
        """Content hash identifying this point's result.

        The key covers the experiment name, the full point config, the
        *values* of every cost-model constant the media preset expands
        to (not just the preset's name — retuning ``config.py`` must
        invalidate old results), and a fingerprint of the package
        source, so any code change re-simulates.
        """
        costs = MEDIA_PRESETS[self.media]()
        blob = json.dumps(
            {"point": self.to_payload(),
             "costs": costs.to_stable_dict(),
             "code": code_fingerprint},
            sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:40]


@dataclass
class Sweep:
    """A named collection of points plus presentation metadata."""

    name: str
    title: str
    points: List[SweepPoint]
    #: Label of the x axis ("threads", "cores", ...).
    axis: str = "x"

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class PointResult:
    """One point's outcome, rehydrated from a worker or the cache."""

    point: SweepPoint
    run: RunResult
    stats: Stats
    ledger: Ledger
    locks: List[Dict[str, float]]
    #: The raw state dict the worker produced / the cache stored —
    #: kept verbatim so round-trip verification can compare runs
    #: byte-for-byte.
    state: Dict[str, object]
    cached: bool = False
    #: Wall-clock seconds spent producing (or loading) this result.
    wall_seconds: float = 0.0

    @classmethod
    def from_state(cls, point: SweepPoint, state: Dict[str, object],
                   cached: bool, wall_seconds: float) -> "PointResult":
        run = state["run"]
        result = RunResult(
            label=run["label"],
            cycles=float(run["cycles"]),
            operations=float(run["operations"]),
            bytes_processed=float(run["bytes_processed"]),
            counters={k: float(v) for k, v in run["counters"].items()},
            domains={k: float(v) for k, v in run["domains"].items()},
            percentiles={k: dict(v)
                         for k, v in run["percentiles"].items()},
            freq_hz=float(run["freq_hz"]),
        )
        return cls(
            point=point,
            run=result,
            stats=Stats.from_state(state["stats"]),
            ledger=Ledger.from_state(state["ledger"]),
            locks=[dict(rep) for rep in state["locks"]],
            state=state,
            cached=cached,
            wall_seconds=wall_seconds,
        )

    def comparable_state(self) -> Dict[str, object]:
        """The state minus fields that vary run-to-run (wall time,
        profiler tables)."""
        return {k: v for k, v in self.state.items()
                if k not in ("wall_seconds", "profile")}


def result_state(run: RunResult, stats: Stats, ledger: Ledger,
                 locks: List[Dict[str, float]],
                 wall_seconds: float) -> Dict[str, object]:
    """Serialise one point's outcome for the pool / cache boundary."""
    return {
        "run": {
            "label": run.label,
            "cycles": run.cycles,
            "operations": run.operations,
            "bytes_processed": run.bytes_processed,
            "counters": dict(run.counters),
            "domains": dict(run.domains),
            "percentiles": {k: dict(v)
                            for k, v in run.percentiles.items()},
            "freq_hz": run.freq_hz,
        },
        "stats": stats.to_state(),
        "ledger": ledger.to_state(),
        "locks": [dict(rep) for rep in locks],
        "wall_seconds": wall_seconds,
    }
