"""NOVA: a log-structured, PMem-aware file system model.

NOVA (Xu & Swanson, FAST'16) differs from ext4-DAX in exactly the ways
Fig. 7 (right panel) and the NOVA YCSB results exercise:

* per-inode logs: each metadata update is one log append, synchronous
  and in-place — cheap, and **MAP_SYNC becomes a no-op** (no deferred
  allocation metadata to force out on a write fault);
* the write() syscall path does **not** zero freshly allocated blocks
  (nt-stores overwrite them anyway), so syscall appends are much
  faster than on ext4;
* fallocate still must zero — secure DAX mmap appends depend on it —
  which is why mmap appends trail write() on NOVA until DaxVM's
  asynchronous pre-zeroing closes the gap.
"""

from __future__ import annotations

from repro.fs.base import FileSystem
from repro.obs import Counter, CostDomain, charge


class Nova(FileSystem):
    """NOVA in relaxed mode (in-place DAX updates allowed)."""

    name = "nova"
    zeroes_on_write_path = False
    zeroes_on_fallocate = True
    mapsync_needs_commit = False

    def _metadata_update(self):
        self.stats.add(Counter.NOVA_LOG_APPENDS)
        yield charge(CostDomain.JOURNAL, "nova-log-append",
                     self.costs.nova_log_append)
        if self.persistence is not None:
            # A NOVA log append is nt-stored and fenced in place: each
            # metadata update is its own committed transaction.
            self.persistence.commit_metadata(acked=True)

    def _commit_sync(self):
        # In-place synchronous metadata: nothing deferred to flush.
        yield charge(CostDomain.JOURNAL, "nova-commit-noop", 0.0)
