"""A jbd2-style journal cost model for ext4-DAX metadata updates.

Two commit flavours matter for the paper's results:

* **Batched (asynchronous) commits** — ordinary metadata updates join
  the running transaction; the commit cost is amortised over every
  operation that joined it, so the per-operation overhead is small.

* **Synchronous commits** — the ext4 ``MAP_SYNC`` write-fault path must
  flush the allocating metadata *before* returning to user space, so
  each such fault pays a full commit.  On an aged image these faults
  are per-4 KB-page and their commit cost is the dominant reason
  default mmap collapses in Fig. 9c; DaxVM's 2 MB-granularity tracking
  divides their frequency by up to 512.

A commit record is a real PMem write, not just latency: synchronous
commits book :data:`COMMIT_RECORD_BYTES` against the device's shared
write-bandwidth pool, so journal traffic is visible to bandwidth
interference like every other store.

When the owning file system has a :class:`~repro.crash.PersistenceDomain`
attached, commits also seal the domain's open metadata transaction —
flush, commit record, fence — which is where crash-point exploration
gets its jbd2 ordering from.
"""

from __future__ import annotations

from typing import Optional

from repro.config import CostModel
from repro.obs import Counter, CostDomain, charge
from repro.sim.stats import Stats

#: One journal block plus descriptor — what a commit physically writes.
COMMIT_RECORD_BYTES = 8 << 10


class Journal:
    """Transaction cost accounting for a journaling file system."""

    #: Metadata updates amortised into one running-transaction commit.
    BATCH_FACTOR = 32

    def __init__(self, costs: CostModel, stats: Stats, fs: Optional[object] = None):
        self.costs = costs
        self.stats = stats
        self.fs = fs
        self.batched_updates = 0
        #: Test-only fault fixture: seal transactions without flushing or
        #: fencing the commit record while acknowledging them anyway —
        #: the ordering bug the crash RecoveryChecker must catch.
        self.skip_commit_fence = False

    @property
    def _domain(self):
        return self.fs.persistence if self.fs is not None else None

    def metadata_update(self):
        """Join the running transaction (amortised commit share)."""
        self.batched_updates += 1
        self.stats.add(Counter.JOURNAL_BATCHED_UPDATES)
        yield charge(CostDomain.JOURNAL, "batched-commit",
                     self.costs.journal_commit / Journal.BATCH_FACTOR)
        domain = self._domain
        if (domain is not None
                and self.batched_updates % Journal.BATCH_FACTOR == 0):
            domain.commit_metadata(acked=False,
                                   skip_fence=self.skip_commit_fence)

    def commit_sync(self):
        """Force the running transaction to commit synchronously."""
        self.stats.add(Counter.JOURNAL_SYNC_COMMITS)
        cost = self.costs.journal_commit
        if self.fs is not None:
            # The commit record contends for device write bandwidth; a
            # saturated pool stretches the commit past its base latency.
            cost = max(cost, self.fs._device_wait(COMMIT_RECORD_BYTES, True))
        yield charge(CostDomain.JOURNAL, "sync-commit", cost)
        domain = self._domain
        if domain is not None:
            domain.commit_metadata(acked=True,
                                   skip_fence=self.skip_commit_fence)
