"""``repro.runner`` — parallel sweep execution with result caching.

The paper's figures are sweeps of independent simulation points; this
subsystem fans them out across a ``multiprocessing`` pool and caches
each point's full result (``RunResult`` + ``Stats`` + ``Ledger`` +
lock reports) by content hash.  See DESIGN.md §7.
"""

from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    code_fingerprint,
)
from repro.runner.manifest import PointResult, Sweep, SweepPoint, pooled
from repro.runner.pool import SweepResult, run_sweep
from repro.runner.sweeps import POINT_RUNNERS, SWEEPS, build_sweep
from repro.runner.worker import run_point

__all__ = [
    "DEFAULT_CACHE_DIR",
    "POINT_RUNNERS",
    "PointResult",
    "ResultCache",
    "SWEEPS",
    "Sweep",
    "SweepPoint",
    "SweepResult",
    "build_sweep",
    "code_fingerprint",
    "pooled",
    "run_point",
    "run_sweep",
]
