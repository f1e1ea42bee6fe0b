"""The hardware page-walker cost model (Table II calibration).

A TLB miss triggers a radix walk.  Its cost depends on the access
pattern (how well the paging-structure caches and the data caches hold
the intermediate entries) and, crucially for DaxVM, on the **medium**
holding the leaf level: persistent file tables put PTEs in PMem, where
a leaf read costs ~10x a DRAM read.  The model reproduces the paper's
Table II (28/111 cycles DRAM, 103/821 cycles PMem for seq/rand access)
and feeds both the workload cost accounting and the DaxVM MMU
performance monitor (Table III).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config import CostModel
from repro.mem.physmem import Medium
from repro.mem.tiers import medium_specs
from repro.paging.pagetable import PMD_LEVEL, PTE_LEVEL
from repro.paging.tlb import AccessPattern


class PageWalker:
    """Average walk-cost model parameterised by pattern and leaf medium."""

    def __init__(self, costs: CostModel):
        self.costs = costs
        #: Per-medium leaf-read cycles via the tier registry (DRAM and
        #: PMem specs carry walk_leaf_dram/walk_leaf_pmem verbatim).
        self._specs = medium_specs(costs)
        #: (pattern, leaf medium, leaf factor) -> base-page walk cost.
        #: The cost is a pure function of the key and the frozen cost
        #: model, and every TLB-missing access asks for it.
        self._walk_memo: Dict[Tuple[AccessPattern, Medium, float],
                              float] = {}

    def walk_cost(self, pattern: AccessPattern, leaf_medium: Medium,
                  leaf_level: int = PTE_LEVEL,
                  leaf_factor: float = 1.0) -> float:
        """Average cycles per TLB miss.

        ``leaf_factor`` is the NUMA latency multiplier on the leaf
        read: persistent file tables live on the *file's* socket, so a
        remote mapping pays the remote-PMem penalty on every leaf walk
        (exactly 1.0 — bit-identical — on uniform machines).
        """
        if leaf_level >= PMD_LEVEL:
            # Huge leaf: one fewer level and the PMD entry lives in the
            # process's private DRAM tables with high locality.
            return self.costs.walk_huge
        key = (pattern, leaf_medium, leaf_factor)
        cost = self._walk_memo.get(key)
        if cost is None:
            if pattern is AccessPattern.SEQUENTIAL:
                upper = self.costs.walk_upper_seq
                miss = self.costs.walk_leaf_miss_seq
            else:
                upper = self.costs.walk_upper_rand
                miss = self.costs.walk_leaf_miss_rand
            # An unknown medium raises here, before anything is stored.
            leaf = self._specs[leaf_medium].walk_leaf
            cost = self._walk_memo[key] = upper + miss * leaf * leaf_factor
        return cost
