"""The golden registry: every bit-identicality gate as data.

Each refactor that promised to move no simulated number — the 1-node
topology (DESIGN.md §8), crash replay (§9), the translation-scheme
interface (§11), the fast-forward engine (§12), the memory-tier
registry (§13), the fault hooks (§10), tenancy (§14) and the
hypervisor (§15) — is pinned by one file under ``tests/golden/``.  A
gate here is that file, a *reference* capture that (re)writes it, and
named *candidates* that must reproduce it byte for byte:

* the ``mmu``, ``tier``, ``engine`` and ``faults`` gates are pinned
  ``(sweep, knobs, x filter, series filter)`` points replayed through
  :func:`repro.runner.worker.run_point`, optionally with an
  ``attach(system)`` that arms a passive subsystem or picks the
  classic engine path on every machine a point builds (an audit
  point's replicas included);
* ``one_node``, ``crash``, ``tenancy`` and ``virt`` keep their own
  capture callables, because their states have other shapes; they
  still build every machine through
  :func:`repro.runner.worker.build_system`.

``tests/test_goldens.py`` runs every (gate, candidate) pair.
``python -m repro golden --recapture NAME|all`` rewrites files from
their references; do that only when a change intends to move
simulated numbers, and say so in the change.

Nothing on the run path imports this module.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.runner.manifest import SweepPoint, result_state
from repro.runner.worker import build_system, run_point

GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

#: A capture returns a gate's complete JSON-safe state.
Capture = Callable[[], Dict[str, object]]

#: ``(sweep, knobs, x filter, series filter or None)``; the knobs are
#: merged over :data:`SHARED_KNOBS`.
Pinned = Tuple[str, Dict[str, object], Tuple[float, ...],
               Optional[Tuple[str, ...]]]

#: Machine knobs shared by every pinned sweep: small enough for CI.
SHARED_KNOBS = {"size": 64 << 10, "media": "optane", "device_gib": 1}


def _pinned_points(pinned: Tuple[Pinned, ...]):
    """Yield ``(key, point)``; the key is the sweep name, suffixed
    ``-aged`` on aged images."""
    from repro.runner.sweeps import build_sweep

    for name, knobs, xs, series in pinned:
        key = f"{name}-aged" if knobs["aged"] else name
        for point in build_sweep(name, **SHARED_KNOBS, **knobs).points:
            if point.x in xs and (series is None
                                  or point.series in series):
                yield key, point


def _points(pinned: Tuple[Pinned, ...],
            attach: Optional[Callable] = None) -> Capture:
    """Capture ``pinned`` through ``run_point``, minus the wall."""
    def capture() -> Dict[str, object]:
        out: Dict[str, Dict[str, object]] = {}
        for key, point in _pinned_points(pinned):
            state = run_point(point.to_payload(), attach=attach)
            del state["wall_seconds"]
            out.setdefault(key, {})[point.label] = state
        return out
    return capture


def _machine(device_gib: int, aged: bool, **fields):
    """A fresh optane machine of the given shape, named from zero."""
    return build_system(SweepPoint("golden", "", 0, device_gib=device_gib,
                                   aged=aged, **fields))


# ---------------------------------------------------------------------------
# Pinned sweeps.
# ---------------------------------------------------------------------------
#: Demand faults, file-table attach/detach, TLB walks, fork/teardown.
MMU: Tuple[Pinned, ...] = (
    ("scaling", {"ops": 8, "aged": False}, (1, 2), None),
    ("scaling", {"ops": 6, "aged": True}, (2,), None),
    ("apache", {"ops": 12, "aged": True}, (1, 4), None),
)

#: Stream pricing, FS copies, attach/detach, PMem-leaf walks, msync
#: flushes and the two-socket factor matrices.
TIER: Tuple[Pinned, ...] = (
    ("scaling", {"ops": 8, "aged": False}, (1, 4), None),
    ("apache", {"ops": 12, "aged": True}, (4,), None),
    ("mmu", {"ops": 16, "aged": False}, (0, 1),
     ("syncbench+radix4", "kvstore+radix4")),
    ("numa", {"ops": 6, "aged": False}, (2,), None),
)

#: Deep drains, charge spans, contended wakes, interrupts, remote NUMA.
ENGINE: Tuple[Pinned, ...] = (
    ("mmu", {"ops": 8, "aged": False}, (0.0,), None),
    ("scaling", {"ops": 8, "aged": False}, (1, 2), None),
    ("apache", {"ops": 12, "aged": False}, (4,), None),
    ("numa", {"ops": 6, "aged": True}, (1, 2), None),
)

#: The read/write/mmap/DaxVM, NUMA and crash paths the fault hooks
#: sit on.
FAULTS: Tuple[Pinned, ...] = (
    ("scaling", {"ops": 8, "aged": False}, (1, 2), None),
    ("apache", {"ops": 12, "aged": False}, (1, 4), None),
    ("numa", {"ops": 6, "aged": False}, (1, 2), None),
    ("crash", {"ops": 6, "aged": False}, (0,), None),
)

#: One plain tenant, no quotas, no antagonist: the passive points.
TENANCY: Tuple[Pinned, ...] = (
    ("consolidate", {"ops": 8, "aged": True}, (1,),
     ("apache+noq+nohog", "predis+noq+nohog", "kvstore+noq+nohog")),
)


def _classic_engine(system) -> None:
    system.engine.fast_forward = False


def _empty_fault_plan(system) -> None:
    from repro.faults import FaultPlan, MediaFaults

    system.attach_faults(MediaFaults(FaultPlan.empty()))


# ---------------------------------------------------------------------------
# Gates with their own state shapes.
# ---------------------------------------------------------------------------
def _one_node() -> Dict[str, object]:
    """An apache and a scaling run on the default 1-node machine, with
    every observable: cycles, counters, ledger, histograms."""
    from repro.workloads import (
        ApacheConfig,
        EphemeralConfig,
        Interface,
        ServerInterface,
        run_apache,
        run_ephemeral,
    )

    runs = {
        "apache": lambda system: run_apache(system, ApacheConfig(
            num_workers=4, requests=160,
            interface=ServerInterface.DAXVM)),
        "scaling": lambda system: run_ephemeral(system, EphemeralConfig(
            file_size=32 << 10, num_files=120, num_threads=4,
            interface=Interface.MMAP)),
    }
    out: Dict[str, object] = {}
    for name, workload in runs.items():
        system = _machine(2, aged=True)
        run = workload(system)
        out[name] = {
            "label": run.label,
            "cycles": run.cycles,
            "operations": run.operations,
            "bytes_processed": run.bytes_processed,
            "counters": dict(sorted(run.counters.items())),
            "domains": dict(sorted(run.domains.items())),
            "stats": system.stats.to_json(),
            "ledger": system.ledger.to_json(),
        }
    return out


def _crash() -> Dict[str, object]:
    """Pinned crash sweeps; refuses any state with a violation or with
    nothing explored, so such a state can never become the golden."""
    from repro.crash.injector import run_crash

    out: Dict[str, object] = {}
    for workload, seed, max_points in (("syncbench", 0, 12),
                                       ("kvstore", 0, 8)):
        summary = run_crash(lambda: _machine(1, aged=False), workload,
                            seed=seed, max_points=max_points)
        state = summary.to_state()
        name = f"{workload}/seed{seed}"
        assert state["invariant_violations"] == 0, (
            f"crash gate: {name} violated a recovery invariant")
        assert state["points_explored"] > 0, (
            f"crash gate: {name} explored no crash point")
        out[name] = state
    return out


def _untenanted() -> Dict[str, object]:
    """The passive tenancy points run by the plain workload runners on
    a machine that never heard of tenants."""
    from repro.tenancy.runtime import _run_untenanted
    from repro.tenancy.spec import TenancyConfig

    out: Dict[str, object] = {}
    for _key, point in _pinned_points(TENANCY):
        config = TenancyConfig.from_state(point.tenancy)
        assert config.passive, "tenancy gate points must be passive"
        system = build_system(replace(point, tenancy={}))
        run = _run_untenanted(system, config.tenants[0])
        locks = [lock.report() for lock in system.engine.locks
                 if lock.acquisitions]
        state = result_state(run, system.stats, system.ledger, locks, 0.0)
        del state["wall_seconds"]
        out[point.label] = state
    return out


def _passive_tenancy() -> Dict[str, object]:
    """The same points through ``run_point`` with their tenancy
    payload attached."""
    return _points(TENANCY)()["consolidate-aged"]


def _virt(passive: bool) -> Capture:
    """The migration guests' workloads on a bare machine, or under a
    pass-through hypervisor that must never start a migration."""
    def capture() -> Dict[str, object]:
        from repro.crash.workloads import CRASH_WORKLOADS
        from repro.obs import CostDomain
        from repro.virt import VirtConfig

        virt = VirtConfig().to_state() if passive else {}
        out: Dict[str, object] = {}
        for workload in ("syncbench", "kvstore"):
            system = _machine(1, aged=False, virt=virt)
            CRASH_WORKLOADS[workload](system)
            if passive:
                system.hypervisor.finalize()
                assert not system.hypervisor.jobs, (
                    "virt gate: a passive hypervisor started a migration")
            out[workload] = {
                "now": system.engine.now,
                "counters": dict(sorted(system.stats.counters.items())),
                "domains": {d.value: system.engine.ledger.domain_total(d)
                            for d in CostDomain},
            }
        return out
    return capture


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------
#: gate -> (golden file, reference capture, {candidate: capture}).
#: The reference writes the file; every candidate must reproduce it.
GATES: Dict[str, Tuple[str, Capture, Dict[str, Capture]]] = {
    "one_node": ("numa_equivalence.json", _one_node,
                 {"replay": _one_node}),
    "mmu": ("mmu_equivalence.json", _points(MMU),
            {"run_point": _points(MMU)}),
    "tier": ("tier_equivalence.json", _points(TIER),
             {"run_point": _points(TIER)}),
    "engine": ("engine_equivalence.json",
               _points(ENGINE, _classic_engine),
               {"fast_forward": _points(ENGINE),
                "classic": _points(ENGINE, _classic_engine)}),
    "faults": ("faults_equivalence.json", _points(FAULTS),
               {"empty_plan": _points(FAULTS, _empty_fault_plan)}),
    "crash": ("crash_smoke.json", _crash, {"replay": _crash}),
    "tenancy": ("tenancy_equivalence.json", _untenanted,
                {"untenanted": _untenanted,
                 "run_point": _passive_tenancy}),
    "virt": ("virt_equivalence.json", _virt(passive=False),
             {"bare": _virt(passive=False),
              "passive": _virt(passive=True)}),
}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / GATES[name][0]


def dump(state: Dict[str, object]) -> str:
    """The canonical golden-file text of a state."""
    return json.dumps(state, indent=2, sort_keys=True) + "\n"


def _first_difference(current, golden, where=()):
    """``(path, current, golden)`` at the first differing value, or
    ``None``; ``1`` and ``1.0`` differ, as they do in the file."""
    if isinstance(current, dict) and isinstance(golden, dict):
        for key in sorted(set(current) | set(golden)):
            found = _first_difference(current.get(key, "<missing>"),
                                      golden.get(key, "<missing>"),
                                      where + (key,))
            if found:
                return found
        return None
    if type(current) is not type(golden) or current != golden:
        return where, current, golden
    return None


def compare(name: str, state: Dict[str, object], path: Path) -> None:
    """Raise ``AssertionError`` unless ``state`` serialises to the
    bytes of ``path``; the message names the gate and the path (label,
    field, ...) of the first drifted value."""
    current, golden = dump(state), path.read_text()
    if current == golden:
        return
    found = _first_difference(json.loads(current), json.loads(golden))
    where, got, want = found or ((), "<formatting>", "<formatting>")
    raise AssertionError(
        f"{name} gate: {'/'.join(where) or '<root>'} drifted from "
        f"{path.name}: got {str(got)[:200]}, golden {str(want)[:200]}")


def check(name: str, candidate: str) -> None:
    """Replay one candidate of one gate against its golden file."""
    _file, _reference, candidates = GATES[name]
    compare(name, candidates[candidate](), golden_path(name))


def recapture(name: str) -> Path:
    """Rewrite one gate's golden file from its reference capture."""
    path = golden_path(name)
    path.write_text(dump(GATES[name][1]()))
    return path
