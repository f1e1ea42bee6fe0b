"""x86-64 paging substrate: radix page tables, walk costs, TLBs."""

from repro.paging.flags import PageFlags
from repro.paging.pagetable import (
    PAGE_SHIFT,
    PGD_LEVEL,
    PMD_LEVEL,
    PTE_LEVEL,
    PUD_LEVEL,
    Level,
    PageTable,
    PageTableNode,
    Translation,
    level_shift,
    level_size,
)
from repro.paging.schemes import (
    SCHEME_NAMES,
    SCHEMES,
    HashedScheme,
    Radix4Scheme,
    Radix5Scheme,
    RangeScheme,
    TranslationScheme,
    make_scheme,
)
from repro.paging.tlb import AccessPattern, ShootdownController, TLBModel
from repro.paging.walker import PageWalker

__all__ = [
    "AccessPattern",
    "HashedScheme",
    "Level",
    "PAGE_SHIFT",
    "PGD_LEVEL",
    "PMD_LEVEL",
    "PTE_LEVEL",
    "PUD_LEVEL",
    "PageFlags",
    "PageTable",
    "PageTableNode",
    "PageWalker",
    "Radix4Scheme",
    "Radix5Scheme",
    "RangeScheme",
    "SCHEMES",
    "SCHEME_NAMES",
    "ShootdownController",
    "TLBModel",
    "TranslationScheme",
    "Translation",
    "level_shift",
    "level_size",
    "make_scheme",
]
