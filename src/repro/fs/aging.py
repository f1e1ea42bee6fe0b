"""Geriatrix-style file system aging (Kadekodi et al., ATC'18).

The paper ages its ext4 image with Geriatrix under the Agrawal profile
(FAST'07 file-size distribution) and 100 TB of write churn at 70 %
utilisation, then runs every experiment on the resulting *fragmented*
image.  We reproduce the churn's steady state rather than the churn:
a free list whose holes follow the dead-file size distribution, which
leaves the device with the property every aged-image result depends on
— **few 2 MB-aligned free runs**, so newly created files get patchy
huge-page coverage.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.fs.block import BLOCK_SIZE, BlockDevice


@dataclass(frozen=True)
class AgingProfile:
    """Parameters of an aging run."""

    seed: int = 1234
    #: Target live-data fraction of the device (paper: 70 %).
    utilization: float = 0.70
    #: Largest hole, in bytes (the Agrawal tail's 64 MB cap).
    max_file_bytes: int = 64 << 20
    #: Hole-size distribution (median/sigma), calibrated so roughly
    #: 30 % of free bytes sit in >=2 MB holes,
    #: giving new large files the partial, non-deterministic huge-page
    #: coverage the paper reports for its aged image.
    hole_median_bytes: int = 32 << 10
    hole_sigma: float = 1.8


def synthesize_aged_state(device: BlockDevice,
                          profile: AgingProfile = AgingProfile()) -> None:
    """Impose an aged steady-state free list on a fresh device.

    Walks the device linearly, alternating live runs and free holes;
    hole sizes follow the dead-file distribution (lognormal, median
    ``hole_median_bytes``), and live-run sizes are scaled so overall
    utilisation hits the profile target.  This reproduces the property
    every aged-image experiment depends on: most free bytes live in
    holes too small or misaligned for 2 MB huge pages.
    """
    rng = random.Random(profile.seed)
    util = profile.utilization
    live_per_free = util / (1.0 - util)
    mu = math.log(profile.hole_median_bytes)

    def _hole_blocks() -> int:
        size = int(rng.lognormvariate(mu, profile.hole_sigma))
        size = max(BLOCK_SIZE, min(size, profile.max_file_bytes))
        return -(-size // BLOCK_SIZE)

    # Mark everything used, then punch holes.
    device.alloc(device.total_blocks, prefer_contiguous=True)
    cursor = 0
    while cursor < device.total_blocks:
        hole = _hole_blocks()
        live = max(1, int(hole * live_per_free
                          * rng.uniform(0.5, 1.5)))
        cursor += live
        if cursor >= device.total_blocks:
            break
        hole = min(hole, device.total_blocks - cursor)
        device.free(cursor, hole)
        cursor += hole


# ---------------------------------------------------------------------------
# Cached aged images: aging is deterministic, so each (size, base)
# pair is aged once per process and cloned for every experiment.
# ---------------------------------------------------------------------------
_AGED_CACHE: dict = {}


def _clone_device(device: BlockDevice) -> BlockDevice:
    from repro.fs.block import FreeExtent

    clone = BlockDevice(device.total_blocks * BLOCK_SIZE,
                        base_frame=device.base_frame)
    clone._free = [FreeExtent(e.start, e.length) for e in device._free]
    clone._starts = list(device._starts)
    clone.free_blocks = device.free_blocks
    return clone


def aged_device(size_bytes: int, base_frame: int = 1 << 30,
                frame_map=None) -> BlockDevice:
    """A device aged under the default :class:`AgingProfile`
    (memoised per (size, base)).

    Aging operates purely on block numbers, so the NUMA ``frame_map``
    (if any) is attached to the clone after the fact — the same aged
    image serves every placement.
    """
    key = (size_bytes, base_frame)
    if key not in _AGED_CACHE:
        device = BlockDevice(size_bytes, base_frame=base_frame)
        synthesize_aged_state(device)
        _AGED_CACHE[key] = device
    clone = _clone_device(_AGED_CACHE[key])
    clone.frame_map = frame_map
    return clone
