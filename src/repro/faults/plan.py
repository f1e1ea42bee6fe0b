"""Fault plans: *where* and *what* goes wrong, decided up front.

A plan maps **touch indices** to fault sites.  A touch is one
instrumented media operation — a file-system read/append window or a
mapped-access window — counted by :class:`repro.faults.model.
MediaFaults` in the deterministic order the simulation performs them.
Because replicas are fresh machines from one factory, and a fresh
machine names its runs from 0, touch *k* always lands on the same
operation of the same file, so a site armed at *k* fires identically
in every replica (the same property the crash injector relies on for
crash points).

Plans are usually *generated* from a probe run: the probe records each
touch's category and UE eligibility, and :meth:`FaultPlan.generate`
draws a seeded sample over them — uncorrectable errors where they can
arm, bandwidth-degradation windows and device stalls anywhere.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.errors import InvalidArgumentError


class FaultKind(enum.Enum):
    """What a fault site injects when its touch arrives."""

    #: Uncorrectable media error on a device block, encountered through
    #: the FS read/append path (badblocks -> remap or clear-poison).
    UE_BLOCK = "ue-block"
    #: Uncorrectable error on a mapped frame: ``memory_failure()``
    #: unmaps it everywhere and the access gets SIGBUS.
    UE_MAP = "ue-map"
    #: Media bandwidth degradation for the next ``duration`` touches.
    BW_WINDOW = "bw-window"
    #: One device stall episode (a firmware hiccup), charged in cycles.
    STALL = "stall"

    def __str__(self) -> str:  # pragma: no cover - display aid
        return self.value


UE_KINDS = (FaultKind.UE_BLOCK, FaultKind.UE_MAP)

#: A generated bandwidth window slows the media 3x for 8 touches.
BW_WINDOW_FACTOR = 3.0
BW_WINDOW_TOUCHES = 8
#: A generated stall freezes the device for 200 k cycles (~74 us).
STALL_CYCLES = 200_000.0


class TouchRecord(NamedTuple):
    """One instrumented media operation seen by a probe run."""

    index: int
    #: ``read``/``write`` (FS block path) or ``map-read``/``map-write``.
    category: str
    #: Can an uncorrectable error arm here?  (The window resolved to at
    #: least one target and, for mapped touches, the mapping is not a
    #: DaxVM file-table attachment — those route errors via the FS.)
    ue_eligible: bool
    #: Blocks or pages in the touched window.
    targets: int


@dataclass(frozen=True)
class FaultSite:
    """One armed fault: fires when the touch clock reaches ``touch``."""

    touch: int
    kind: FaultKind
    #: BW_WINDOW: media slowdown factor while the window is open.
    factor: float = 1.0
    #: BW_WINDOW: touches the window stays open for.
    duration: int = 0
    #: STALL: cycles the device is unresponsive.
    stall_cycles: float = 0.0

    def describe(self) -> str:
        if self.kind is FaultKind.BW_WINDOW:
            return (f"touch {self.touch}: {self.kind} x{self.factor:g} "
                    f"for {self.duration} touches")
        if self.kind is FaultKind.STALL:
            return (f"touch {self.touch}: {self.kind} "
                    f"{self.stall_cycles:g} cycles")
        return f"touch {self.touch}: {self.kind}"


class FaultPlan:
    """An immutable set of fault sites keyed by touch index."""

    def __init__(self, sites: Iterable[FaultSite] = ()):
        self.sites: Dict[int, FaultSite] = {}
        for site in sites:
            if site.touch in self.sites:
                raise InvalidArgumentError(
                    f"duplicate fault site at touch {site.touch}")
            if site.touch < 0:
                raise InvalidArgumentError("touch index must be >= 0")
            self.sites[site.touch] = site

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls(())

    def __len__(self) -> int:
        return len(self.sites)

    def __bool__(self) -> bool:
        return bool(self.sites)

    def site_at(self, touch: int) -> Optional[FaultSite]:
        return self.sites.get(touch)

    def ordered(self) -> List[FaultSite]:
        return [self.sites[touch] for touch in sorted(self.sites)]

    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, probe: Sequence[TouchRecord], *, seed: int,
                 max_sites: int = 64, bw_windows: int = 4,
                 stalls: int = 6) -> "FaultPlan":
        """Draw a seeded site sample over a probe run's touches.

        UE sites take the budget left after the requested bandwidth
        windows and stalls, restricted to UE-eligible touches; the
        auxiliary kinds then land on any remaining touches.  The same
        probe and seed always produce the same plan.
        """
        if max_sites <= 0:
            return cls.empty()
        rng = random.Random(seed)
        ue_ok = [r.index for r in probe if r.ue_eligible]
        categories = {r.index: r.category for r in probe}
        n_ue = min(len(ue_ok), max(0, max_sites - bw_windows - stalls))
        chosen_ue = sorted(rng.sample(ue_ok, n_ue))
        taken = set(chosen_ue)
        remaining = [r.index for r in probe if r.index not in taken]
        n_aux = min(len(remaining), max_sites - n_ue,
                    bw_windows + stalls)
        chosen_aux = sorted(rng.sample(remaining, n_aux))
        rng.shuffle(chosen_aux)
        sites: List[FaultSite] = []
        for touch in chosen_ue:
            kind = (FaultKind.UE_MAP
                    if categories[touch].startswith("map")
                    else FaultKind.UE_BLOCK)
            sites.append(FaultSite(touch=touch, kind=kind))
        for i, touch in enumerate(chosen_aux):
            if i < min(bw_windows, n_aux):
                sites.append(FaultSite(touch=touch,
                                       kind=FaultKind.BW_WINDOW,
                                       factor=BW_WINDOW_FACTOR,
                                       duration=BW_WINDOW_TOUCHES))
            else:
                sites.append(FaultSite(touch=touch, kind=FaultKind.STALL,
                                       stall_cycles=STALL_CYCLES))
        return cls(sites)


__all__ = ["FaultKind", "FaultPlan", "FaultSite", "TouchRecord",
           "UE_KINDS"]
