"""Content-addressed result cache for sweep points.

A point's cache key (:meth:`~repro.runner.manifest.SweepPoint.
cache_key`) hashes the experiment, its full configuration, the
expanded cost-model constants and a fingerprint of the package source.
Because the DES engine is deterministic and each point simulates a
fresh :class:`~repro.system.System`, the stored result is *exact*: a
hit reproduces the simulation bit-for-bit without running it.

Entries are single JSON files under ``.repro_cache/`` (or any
directory handed to :class:`ResultCache`), written atomically via a
temp file + rename so a crashed or parallel run never leaves a torn
entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, Optional

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every source file in the ``repro`` package.

    Part of every cache key: any code change (a cost tweak, a kernel
    bugfix) silently invalidates all cached points, so stale results
    can never masquerade as current ones.  Computed once per process.
    """
    global _fingerprint
    if _fingerprint is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _fingerprint = digest.hexdigest()[:16]
    return _fingerprint


class ResultCache:
    """Keyed JSON store with hit/miss accounting."""

    def __init__(self, root: Optional[str] = None):
        self.root = Path(root or DEFAULT_CACHE_DIR)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Load a stored point state, or None (counts as a miss).

        A present-but-unreadable entry (torn write, disk error, bad
        JSON) is never silently dropped: it is counted in ``corrupt``,
        moved aside with a ``.corrupt`` suffix for post-mortem and
        named in one stderr line, then treated as a miss so the point
        re-runs.
        """
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                state = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError) as err:
            self.corrupt += 1
            self.misses += 1
            moved_to = ""
            try:
                target = path.with_suffix(".corrupt")
                os.replace(path, target)
                moved_to = str(target)
            except OSError:
                pass
            print(f"cache: corrupt entry {key} "
                  f"({type(err).__name__}: {err}); moved to "
                  f"{moved_to or '(not moved)'}", file=sys.stderr)
            return None
        self.hits += 1
        return state

    def put(self, key: str, state: Dict[str, object]) -> None:
        """Store a point state atomically."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(state, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, path)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
