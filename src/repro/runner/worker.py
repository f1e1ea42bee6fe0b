"""Execution of one sweep point (in-process or in a pool worker).

The function crossing the ``multiprocessing`` boundary takes a plain
payload dict and returns a plain state dict — no simulator object is
ever pickled.  Each point builds a fresh :class:`~repro.system.System`
through :func:`build_system`, so a point's result is independent of
which process (and in which order) it runs.
"""

from __future__ import annotations

import itertools
import sys
import time
from typing import Callable, Dict, Optional

from repro.config import MEDIA_PRESETS
from repro.runner.manifest import SweepPoint, result_state
from repro.system import System
from repro.topology import MachineTopology

#: Which delivery attempt of the current point this worker is running
#: (0 = first try).  Published by the pool's guarded wrapper before
#: ``run_point``; diagnostic workloads (the ``selftest`` flaky mode)
#: read it to fail deterministically on early attempts only.
CURRENT_ATTEMPT = 0


def _reset_naming_counters() -> None:
    """Make point output independent of in-process run history.

    Workload modules draw file-set prefixes and process names from
    module-level ``itertools.count`` counters, and those names leak
    into lock reports (``eph3.mmap_sem`` vs ``eph0.mmap_sem``).  A
    point executed third in a sequential parent must produce the same
    bytes as the same point executed first in a pool worker, so every
    workload counter restarts from zero before a point runs.  The
    crash injector leans on the same reset for replica determinism:
    every crash point rebuilds the machine and must see identical
    file-set and store names.
    """
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.workloads"):
            continue
        for counter in ("_run_counter", "_store_counter"):
            if hasattr(module, counter):
                setattr(module, counter, itertools.count())


def _attach_tiering(system: System, spec: Dict[str, object]) -> None:
    """Build the point's tier overlay from its JSON-safe ``tiering``
    dict: ``data`` names the default medium, ``daemon`` starts the
    migration kthread, and the optional policy knobs map straight onto
    :class:`~repro.tiering.TieringConfig` fields."""
    from repro.mem.physmem import Medium
    from repro.tiering import TieringConfig

    data = Medium(spec.get("data", "pmem"))
    daemon = bool(spec.get("daemon", False))
    knobs = {key: spec[key] for key in
             ("scan_interval", "hot_touches", "cold_scans",
              "migrate_budget_bytes", "bw_budget_fraction")
             if key in spec}
    if "hot" in spec:
        knobs["hot_medium"] = Medium(spec["hot"])
    config = TieringConfig(**knobs) if (daemon and knobs) else None
    system.attach_tiering(data_medium=data, daemon=daemon, config=config)


def _attach_tenancy(system: System, spec: Dict[str, object]) -> None:
    """Rehydrate the point's ``tenancy`` dict (a ``TenancyConfig.
    to_state`` payload) and attach the runtime.  Passive configs
    attach without installing any hook, keeping the degenerate point
    bit-identical to an un-tenanted run."""
    from repro.tenancy import TenancyConfig

    system.attach_tenancy(TenancyConfig.from_state(spec))


def _attach_virt(system: System, spec: Dict[str, object]) -> None:
    """Rehydrate the point's ``virt`` dict (a ``VirtConfig.to_state``
    payload) and attach the hypervisor; processes created afterwards
    by the point's workload enroll as guests automatically."""
    from repro.virt import VirtConfig

    system.attach_hypervisor(VirtConfig.from_state(spec))


def build_system(point: SweepPoint) -> System:
    """Build the machine ``point`` describes, subsystems attached.

    This is the one place a machine's shape is decided: the media
    preset, device size, file system and image, the topology
    (``with_kinds`` when the point names node kinds, an even ``split``
    across sockets when it has more than one node, the uniform machine
    otherwise), the placement and translation scheme, then the point's
    tier overlay, tenancy and hypervisor.  The sweep worker, the audit replicas and
    the golden gates all build through it.
    """
    costs = MEDIA_PRESETS[point.media]()
    if point.node_kinds:
        kinds = tuple(k.strip() for k in point.node_kinds.split(",")
                      if k.strip())
        topology = MachineTopology.with_kinds(costs.machine, kinds)
    else:
        topology = (MachineTopology.split(costs.machine, point.num_nodes)
                    if point.num_nodes > 1 else None)
    system = System(costs=costs, device_bytes=point.device_gib << 30,
                    fs_type=point.fs_type, aged=point.aged, topology=topology,
                    placement=point.placement, pin_node=point.pin_node,
                    scheme=point.scheme)
    if point.tiering:
        _attach_tiering(system, point.tiering)
    if point.tenancy:
        _attach_tenancy(system, point.tenancy)
    if point.virt:
        _attach_virt(system, point.virt)
    return system


#: Rows kept from a per-point profile (sorted by tottime).
PROFILE_TOP = 15


def _profile_top(profiler, top: int = PROFILE_TOP):
    """Flatten a cProfile run into JSON-safe top-N rows."""
    import pstats

    rows = []
    for func, (_cc, ncalls, tottime, cumtime, _callers) in \
            pstats.Stats(profiler).stats.items():
        filename, line, name = func
        # Trim the path to the package-relative part when possible.
        marker = filename.rfind("repro/")
        where = filename[marker:] if marker >= 0 else filename
        rows.append({"function": f"{where}:{line}({name})",
                     "ncalls": ncalls,
                     "tottime": round(tottime, 6),
                     "cumtime": round(cumtime, 6)})
    rows.sort(key=lambda row: -row["tottime"])
    return rows[:top]


def run_point(payload: Dict[str, object], profile: bool = False,
              attach: Optional[Callable[[System], None]] = None
              ) -> Dict[str, object]:
    """Simulate one sweep point; returns its JSON-safe result state.

    ``profile=True`` wraps the simulation in :mod:`cProfile` and
    attaches the top functions by own-time as ``state["profile"]``.
    Profiled walls include the profiler's overhead, so the pool never
    caches a profiled state.  ``attach`` receives the built machine
    before the point runs (the golden gates arm passive subsystems
    through it).
    """
    # Imported lazily: the registry module imports the workloads, and
    # a spawned worker must finish importing this module first.
    from repro.runner.sweeps import POINT_RUNNERS

    point = SweepPoint.from_payload(payload)
    runner = POINT_RUNNERS.get(point.experiment)
    if runner is None:
        raise KeyError(f"unknown point experiment {point.experiment!r}; "
                       f"known: {sorted(POINT_RUNNERS)}")
    _reset_naming_counters()
    system = build_system(point)
    if attach is not None:
        attach(system)
    params = dict(point.params, point=point) if runner.replicas \
        else point.params
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
        try:
            run = runner(system, **params)
        finally:
            profiler.disable()
    else:
        run = runner(system, **params)
    wall = time.perf_counter() - started
    locks = [lock.report() for lock in system.engine.locks
             if lock.acquisitions]
    state = result_state(run, system.stats, system.ledger, locks, wall)
    if profiler is not None:
        state["profile"] = _profile_top(profiler)
    return state
