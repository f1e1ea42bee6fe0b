"""Extent tree tests: append/merge/truncate/lookup/huge geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgumentError
from repro.fs.block import BLOCKS_PER_PMD
from repro.fs.extent import Extent, ExtentTree


def test_extent_basics():
    e = Extent(0, 100, 10)
    assert e.logical_end == 10
    assert e.physical_for(3) == 103
    with pytest.raises(InvalidArgumentError):
        e.physical_for(10)
    with pytest.raises(InvalidArgumentError):
        Extent(0, 0, 0)


def test_append_dense_and_merge():
    tree = ExtentTree()
    tree.append(100, 5)
    tree.append(105, 5)  # physically contiguous -> merges
    assert len(tree) == 1
    assert tree.block_count == 10
    tree.append(500, 3)  # discontiguous -> new extent
    assert len(tree) == 2
    tree.check_invariants()


def test_lookup():
    tree = ExtentTree()
    tree.append(100, 10)
    tree.append(500, 10)
    assert tree.physical_block(0) == 100
    assert tree.physical_block(9) == 109
    assert tree.physical_block(10) == 500
    assert tree.physical_block(25) is None
    assert tree.find(12).physical == 500


def test_truncate_returns_freed_runs():
    tree = ExtentTree()
    tree.append(100, 10)
    tree.append(500, 10)
    freed = tree.truncate_to(15)
    assert freed == [(505, 5)]
    assert tree.block_count == 15
    freed = tree.truncate_to(0)
    assert sorted(freed) == [(100, 10), (500, 5)]
    assert tree.block_count == 0
    tree.check_invariants()


def test_pmd_capable_requires_double_alignment():
    tree = ExtentTree()
    # Physically aligned, covers a full region.
    tree.append(BLOCKS_PER_PMD * 4, BLOCKS_PER_PMD)
    assert tree.pmd_capable(0)

    misaligned = ExtentTree()
    misaligned.append(BLOCKS_PER_PMD * 4 + 1, BLOCKS_PER_PMD)
    assert not misaligned.pmd_capable(0)

    short = ExtentTree()
    short.append(BLOCKS_PER_PMD * 4, BLOCKS_PER_PMD - 1)
    assert not short.pmd_capable(0)


def test_huge_coverage_fraction():
    tree = ExtentTree()
    tree.append(0, BLOCKS_PER_PMD)          # aligned region
    tree.append(BLOCKS_PER_PMD * 3 + 7, BLOCKS_PER_PMD)  # misaligned
    assert tree.huge_coverage() == pytest.approx(0.5)
    assert ExtentTree().huge_coverage() == 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 600)),
                min_size=1, max_size=30))
def test_property_append_truncate_roundtrip(appends):
    """Appends keep logical density; truncate frees exactly the tail."""
    tree = ExtentTree()
    total = 0
    for phys, length in appends:
        tree.append(phys, length)
        total += length
        tree.check_invariants()
    assert tree.block_count == total
    keep = total // 2
    freed = tree.truncate_to(keep)
    assert sum(l for _p, l in freed) == total - keep
    assert tree.block_count == keep
    tree.check_invariants()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(0, 4_000),
              st.integers(1, 300)),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("replace"), st.floats(0.0, 1.0),
              st.integers(0, 4_000))), max_size=40))
def test_property_block_count_is_sum_of_lengths(ops):
    """The tail-end ``block_count`` equals the sum over every extent
    under random append / truncate / replace_block sequences."""
    tree = ExtentTree()
    for op in ops:
        total = sum(e.length for e in tree)
        if op[0] == "append":
            tree.append(op[1], op[2])
        elif op[0] == "truncate":
            tree.truncate_to(int(total * op[1]))
        elif total:
            tree.replace_block(min(int(total * op[1]), total - 1), op[2])
        tree.check_invariants()
        assert tree.block_count == sum(e.length for e in tree)
