"""Tests for the address-space region allocator."""

import numpy as np
import pytest

from repro.mem.address import AddressSpace, Region


class TestRegion:
    def test_addr_bounds_checked(self):
        region = Region("r", base=64, size=16)
        assert region.addr(0) == 64
        assert region.addr(15) == 79
        with pytest.raises(IndexError):
            region.addr(16)
        with pytest.raises(IndexError):
            region.addr(-1)

    def test_element_addressing(self):
        region = Region("r", base=0, size=80)
        assert region.element(3) == 24
        assert region.element(2, element_size=16) == 32

    def test_elements_vector_addressing(self):
        region = Region("r", base=64, size=80)
        addrs = region.elements(np.array([[0, 9], [3, 3]]))
        assert addrs.dtype == np.int64
        assert addrs.tolist() == [[64, 136], [88, 88]]
        assert region.elements([2], element_size=2).tolist() == [68]
        assert region.elements(np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_elements_first_and_last_valid_index(self):
        region = Region("r", base=64, size=80)
        assert region.elements([0, 9]).tolist() == [
            region.element(0),
            region.element(9),
        ]
        voxels = Region("v", base=64, size=10)
        assert voxels.elements([0, 4], element_size=2).tolist() == [64, 72]

    @pytest.mark.parametrize("index", [-1, 10])
    def test_elements_one_past_either_end_raises_like_element(self, index):
        region = Region("r", base=64, size=80)
        with pytest.raises(IndexError) as scalar:
            region.element(index)
        with pytest.raises(IndexError) as vector:
            region.elements([3, index, 5])
        assert str(vector.value) == str(scalar.value)

    def test_elements_bounds_respect_element_size(self):
        voxels = Region("v", base=64, size=10)
        with pytest.raises(IndexError):
            voxels.elements([5], element_size=2)
        with pytest.raises(IndexError):
            voxels.elements([-1], element_size=2)

    def test_contains(self):
        region = Region("r", base=64, size=16)
        assert region.contains(64)
        assert region.contains(79)
        assert not region.contains(80)
        assert not region.contains(63)

    def test_end(self):
        assert Region("r", base=10, size=5).end == 15


class TestAddressSpace:
    def test_regions_disjoint(self):
        space = AddressSpace()
        a = space.allocate("a", 100)
        b = space.allocate("b", 100)
        assert a.end <= b.base

    def test_alignment(self):
        space = AddressSpace(alignment=64)
        a = space.allocate("a", 10)
        b = space.allocate("b", 10)
        assert a.base % 64 == 0
        assert b.base % 64 == 0

    def test_address_zero_unused(self):
        space = AddressSpace()
        a = space.allocate("a", 8)
        assert a.base > 0

    def test_duplicate_name_rejected(self):
        space = AddressSpace()
        space.allocate("a", 8)
        with pytest.raises(ValueError):
            space.allocate("a", 8)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().allocate("a", 0)

    def test_bad_alignment_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace(alignment=48)

    def test_allocate_array(self):
        space = AddressSpace()
        region = space.allocate_array("arr", 10, element_size=8)
        assert region.size == 80

    def test_lookup_by_name(self):
        space = AddressSpace()
        region = space.allocate("matrix", 128)
        assert space.region("matrix") is region
        assert "matrix" in space
        assert "other" not in space

    def test_owner_of(self):
        space = AddressSpace()
        a = space.allocate("a", 64)
        b = space.allocate("b", 64)
        assert space.owner_of(a.base) is a
        assert space.owner_of(b.base + 10) is b
        with pytest.raises(KeyError):
            space.owner_of(10**9)

    def test_total_allocated_grows(self):
        space = AddressSpace()
        assert space.total_allocated == 0
        space.allocate("a", 100)
        assert space.total_allocated >= 100
