"""Execution of one sweep point (in-process or in a pool worker).

The function crossing the ``multiprocessing`` boundary takes a plain
payload dict and returns a plain state dict — no simulator object is
ever pickled.  Each point builds a fresh :class:`~repro.system.System`
through :func:`build_system`, so a point's result is independent of
which process (and in which order) it runs.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, Optional

from repro.config import MEDIA_PRESETS
from repro.obs.ledger import Ledger
from repro.runner.manifest import SweepPoint, result_state
from repro.sim.stats import Stats
from repro.system import System
from repro.topology import MachineTopology


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
              "migrate_budget_bytes")
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
    (``with_kinds`` over the point's node kinds, the one-socket
    machine when it names none), the placement and translation
    scheme, then the point's tier overlay, tenancy and hypervisor.
    The sweep worker, the audit replicas and the golden gates all
    build through it.
    """
    costs = MEDIA_PRESETS[point.media]()
    kinds = tuple(k.strip() for k in point.node_kinds.split(",")
                  if k.strip())
    topology = (MachineTopology.with_kinds(costs.machine, kinds)
                if kinds else None)
    system = System(costs=costs, device_bytes=point.device_gib << 30,
                    fs_type=point.fs_type, aged=point.aged, topology=topology,
                    placement=point.placement, scheme=point.scheme)
    if point.tiering:
        _attach_tiering(system, point.tiering)
    if point.tenancy:
        _attach_tenancy(system, point.tenancy)
    if point.virt:
        _attach_virt(system, point.virt)
    return system


def replicas(point: SweepPoint,
             attach: Optional[Callable[[System], None]] = None
             ) -> Callable[..., System]:
    """The builder of ``point``'s machines: each call builds a fresh
    one of the point's shape (keyword ``fields`` override point
    fields) and hands it to ``attach``.  A point runner's machine and
    every replica an audit runner builds come from it."""
    def build(**fields) -> System:
        system = build_system(replace(point, **fields) if fields else point)
        if attach is not None:
            attach(system)
        return system
    return build


def run_point(payload: Dict[str, object],
              attach: Optional[Callable[[System], None]] = None
              ) -> Dict[str, object]:
    """Simulate one sweep point; returns its JSON-safe result state.

    ``attach`` receives every machine the point builds before it runs
    (the golden gates arm passive subsystems through it).  A runner
    registered with ``replicas=True`` is an audit: it gets the
    point's :func:`replicas` builder instead of a machine, and its
    state carries empty stats, ledger and locks: the audit's summary
    is its run.
    """
    # Imported lazily: the registry module imports the workloads, and
    # a spawned worker must finish importing this module first.
    from repro.runner.sweeps import POINT_RUNNERS

    point = SweepPoint.from_payload(payload)
    runner = POINT_RUNNERS.get(point.experiment)
    if runner is None:
        raise KeyError(f"unknown point experiment {point.experiment!r}; "
                       f"known: {sorted(POINT_RUNNERS)}")
    build = replicas(point, attach)
    if runner.replicas:
        started = time.perf_counter()
        run = runner(build, **point.params)
        wall = time.perf_counter() - started
        return result_state(run, Stats(), Ledger(), [], wall)
    system = build()
    started = time.perf_counter()
    run = runner(system, **point.params)
    wall = time.perf_counter() - started
    locks = [lock.report() for lock in system.engine.locks
             if lock.acquisitions]
    return result_state(run, system.stats, system.ledger, locks, wall)
