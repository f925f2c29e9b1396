"""Tests for the virtual-memory substrate: VA layout and page tables."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidAddressError, MappingError
from repro.units import BIG_PAGE, MIB
from repro.vm import AddressSpace, PageTable, PteState, VaRange
from repro.vm.page_table import BitmapPageTable, MappingCosts


class TestVaRange:
    def test_basic_geometry(self):
        rng = VaRange(0x1000, 0x2000)
        assert rng.end == 0x3000
        assert 0x1000 in rng
        assert 0x2fff in rng
        assert 0x3000 not in rng

    def test_validation(self):
        with pytest.raises(InvalidAddressError):
            VaRange(-1, 10)
        with pytest.raises(InvalidAddressError):
            VaRange(0, -1)

    def test_contains_and_overlaps(self):
        outer = VaRange(0, 100)
        inner = VaRange(10, 20)
        disjoint = VaRange(200, 10)
        assert outer.contains_range(inner)
        assert not inner.contains_range(outer)
        assert outer.overlaps(inner)
        assert not outer.overlaps(disjoint)

    def test_intersection(self):
        a = VaRange(0, 100)
        b = VaRange(50, 100)
        inter = a.intersection(b)
        assert inter.start == 50 and inter.length == 50
        assert a.intersection(VaRange(500, 10)).length == 0

    def test_subrange(self):
        rng = VaRange(1000, 100)
        sub = rng.subrange(10, 20)
        assert sub.start == 1010 and sub.length == 20
        with pytest.raises(InvalidAddressError):
            rng.subrange(90, 20)

    def test_block_span_partial(self):
        rng = VaRange(BIG_PAGE // 2, BIG_PAGE)
        first, last = rng.block_span()
        assert (first, last) == (0, 2)
        assert list(rng.blocks()) == [0, 1]

    def test_full_blocks_ignores_partials(self):
        """§5.4's alignment filter."""
        rng = VaRange(BIG_PAGE // 2, 3 * BIG_PAGE)
        assert list(rng.full_blocks()) == [1, 2]
        aligned = VaRange(BIG_PAGE, 2 * BIG_PAGE)
        assert list(aligned.full_blocks()) == [1, 2]

    def test_empty_range(self):
        rng = VaRange(BIG_PAGE, 0)
        assert rng.num_blocks() == 0
        assert list(rng.blocks()) == []

    @given(
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=1, max_value=2**32),
    )
    def test_full_blocks_subset_of_blocks(self, start, length):
        rng = VaRange(start, length)
        full = set(rng.full_blocks())
        touched = set(rng.blocks())
        assert full <= touched
        # Every full block is entirely inside the range.
        for index in full:
            assert rng.contains_range(VaRange(index * BIG_PAGE, BIG_PAGE))


class TestAddressSpace:
    def test_allocations_are_block_aligned_and_disjoint(self):
        space = AddressSpace()
        a = space.allocate(3 * MIB)
        b = space.allocate(1 * MIB)
        assert a.start % BIG_PAGE == 0
        assert b.start % BIG_PAGE == 0
        assert not a.overlaps(b)
        # Distinct allocations never share a 2 MiB block.
        assert set(a.blocks()).isdisjoint(set(b.blocks()))

    def test_find(self):
        space = AddressSpace()
        rng = space.allocate(MIB)
        assert space.find(rng.start) == rng
        with pytest.raises(InvalidAddressError):
            space.find(rng.start - 1)

    def test_free_removes_range(self):
        space = AddressSpace()
        rng = space.allocate(MIB)
        space.free(rng)
        assert rng not in space.live_ranges
        with pytest.raises(InvalidAddressError):
            space.free(rng)

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidAddressError):
            AddressSpace().allocate(0)

    @given(st.lists(st.integers(min_value=1, max_value=64 * MIB), min_size=1, max_size=40))
    def test_no_allocation_overlap(self, sizes):
        space = AddressSpace()
        ranges = [space.allocate(s) for s in sizes]
        for i, a in enumerate(ranges):
            for b in ranges[i + 1 :]:
                assert not a.overlaps(b)


class TestPageTable:
    """Unit tests for the scalar reference; :class:`TestBitmapPageTable`
    re-runs every one against the table the driver builds."""

    table_cls = PageTable

    def test_map_unmap_cycle(self):
        table = self.table_cls("gpu0")
        assert table.state(5) is PteState.UNMAPPED
        cost = table.map_block(5)
        assert cost > 0
        assert table.is_mapped(5)
        assert table.mapped_blocks == 1
        cost = table.unmap_block(5)
        assert cost > 0
        assert not table.is_mapped(5)

    def test_double_map_rejected(self):
        table = self.table_cls("gpu0")
        table.map_block(1)
        with pytest.raises(MappingError):
            table.map_block(1)

    def test_unmap_unmapped_rejected(self):
        with pytest.raises(MappingError):
            self.table_cls("gpu0").unmap_block(1)

    def test_counters(self):
        table = self.table_cls("gpu0")
        table.map_block(1)
        table.map_block(2)
        table.unmap_block(1)
        assert table.map_count == 2
        assert table.unmap_count == 1
        assert table.tlb_invalidations == 1
        table.reset_counters()
        assert table.map_count == 0

    def test_unmap_without_tlb_is_cheaper(self):
        """The batched-shootdown path eager discard uses (§5.1)."""
        table = self.table_cls("gpu0")
        table.map_block(1)
        table.map_block(2)
        with_tlb = table.unmap_block(1, invalidate_tlb=True)
        without = table.unmap_block(2, invalidate_tlb=False)
        assert without < with_tlb
        assert table.tlb_invalidations == 1

    def test_custom_costs(self):
        costs = MappingCosts(
            map_block=1.0, unmap_block=2.0, tlb_invalidate=3.0, batch_overhead=0.5
        )
        table = self.table_cls("gpu0", costs)
        assert table.map_block(1) == pytest.approx(1.5)
        assert table.unmap_block(1, invalidate_tlb=False) == pytest.approx(2.0)
        assert table.tlb_invalidate() == pytest.approx(3.0)


class TestBitmapPageTable(TestPageTable):
    table_cls = BitmapPageTable
