"""Shared-address-space layout helpers.

Application trace generators allocate named regions (matrices, grids,
octree node pools, voxel arrays) from an :class:`AddressSpace` so that
distinct data structures never alias and traces from different program
phases compose correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass(frozen=True)
class Region:
    """A contiguous, aligned run of addresses in the shared space.

    Attributes:
        name: Human-readable label (``"matrix A"``, ``"octree cells"``).
        base: First byte address.
        size: Extent in bytes.
    """

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        """One past the last byte address."""
        return self.base + self.size

    def addr(self, offset_bytes: int) -> int:
        """Byte address at ``offset_bytes`` into the region (bounds-checked)."""
        if not 0 <= offset_bytes < self.size:
            raise IndexError(
                f"offset {offset_bytes} outside region {self.name!r} of size {self.size}"
            )
        return self.base + offset_bytes

    def element(self, index: int, element_size: int = 8) -> int:
        """Byte address of element ``index`` of ``element_size`` bytes."""
        return self.addr(index * element_size)

    def elements(self, indices, element_size: int = 8) -> np.ndarray:
        """Byte addresses (int64, same shape) of elements ``indices``.

        The vector form of :meth:`element`: raises the same
        :class:`IndexError` if any index falls outside the region,
        checked once per array with its min and max.
        """
        offsets = np.asarray(indices, dtype=np.int64) * element_size
        if offsets.size:
            self.addr(int(offsets.min()))
            self.addr(int(offsets.max()))
        return offsets + self.base

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class AddressSpace:
    """A bump allocator for laying out application data structures.

    All regions are aligned to ``alignment`` bytes (default 64, a typical
    cache-line multiple) so that block-granular cache simulation never
    sees false sharing between logically distinct structures.
    """

    def __init__(self, alignment: int = 64) -> None:
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise ValueError("alignment must be a positive power of two")
        self.alignment = alignment
        self._next = alignment  # keep address 0 unused as a sentinel
        self._regions: Dict[str, Region] = {}

    def allocate(self, name: str, size_bytes: int) -> Region:
        """Allocate a new named region of ``size_bytes`` bytes."""
        if size_bytes <= 0:
            raise ValueError("region size must be positive")
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        base = self._next
        aligned = (size_bytes + self.alignment - 1) & ~(self.alignment - 1)
        self._next = base + aligned
        region = Region(name=name, base=base, size=size_bytes)
        self._regions[name] = region
        return region

    def allocate_array(
        self, name: str, count: int, element_size: int = 8
    ) -> Region:
        """Allocate an array of ``count`` elements."""
        return self.allocate(name, count * element_size)

    def region(self, name: str) -> Region:
        return self._regions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    @property
    def total_allocated(self) -> int:
        """Bytes allocated so far (including alignment padding)."""
        return self._next - self.alignment

    def owner_of(self, addr: int) -> Region:
        """The region containing ``addr`` (linear scan; debugging aid)."""
        for region in self._regions.values():
            if region.contains(addr):
                return region
        raise KeyError(f"address {addr:#x} not in any region")
