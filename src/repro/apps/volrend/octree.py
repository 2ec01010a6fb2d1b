"""Min-max octree over voxel opacity for empty-space skipping.

Levoy's spatial hierarchy: each node records the opacity extrema of its
subcube so the ray caster can (a) find the first interesting voxel
along a ray efficiently and (b) skip fully transparent regions between
samples (Section 7.2: "An octree data structure is used to find the
first interesting (non-transparent) voxel in a ray's path").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.apps.volrend.volume import Volume


@dataclass
class OctreeNode:
    """One node of the min-max octree.

    Attributes:
        lo: Inclusive voxel lower corner (3 ints).
        hi: Exclusive voxel upper corner.
        min_opacity: Minimum opacity in the subcube.
        max_opacity: Maximum opacity in the subcube.
        children: Child nodes (empty for leaves).
        index: Stable id (used by the trace generator).
    """

    lo: Tuple[int, int, int]
    hi: Tuple[int, int, int]
    min_opacity: float
    max_opacity: float
    children: List["OctreeNode"] = field(default_factory=list)
    index: int = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_transparent(self) -> bool:
        return self.max_opacity <= 0.0

    def contains(self, x: float, y: float, z: float) -> bool:
        return (
            self.lo[0] <= x < self.hi[0]
            and self.lo[1] <= y < self.hi[1]
            and self.lo[2] <= z < self.hi[2]
        )


class MinMaxOctree:
    """Min-max octree over a :class:`Volume`.

    Args:
        volume: The voxel data.
        leaf_size: Stop subdividing below this many voxels per side.
    """

    def __init__(self, volume: Volume, leaf_size: int = 4) -> None:
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.volume = volume
        self.leaf_size = leaf_size
        self._nodes: List[OctreeNode] = []
        #: Root-to-node index path of every node, by node index.
        self.paths: List[Tuple[int, ...]] = []
        shape = volume.shape
        self.root = self._build((0, 0, 0), shape, ())

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> List[OctreeNode]:
        return self._nodes

    def _build(
        self,
        lo: Tuple[int, int, int],
        hi: Tuple[int, int, int],
        parent_path: Tuple[int, ...],
    ) -> OctreeNode:
        sub = self.volume.opacities[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
        node = OctreeNode(
            lo=lo,
            hi=hi,
            min_opacity=float(sub.min()) if sub.size else 0.0,
            max_opacity=float(sub.max()) if sub.size else 0.0,
            index=len(self._nodes),
        )
        self._nodes.append(node)
        path = parent_path + (node.index,)
        self.paths.append(path)
        extent = [hi[d] - lo[d] for d in range(3)]
        if max(extent) <= self.leaf_size or node.max_opacity == node.min_opacity:
            return node
        mids = [lo[d] + max(1, extent[d] // 2) for d in range(3)]
        for ix in range(2):
            for iy in range(2):
                for iz in range(2):
                    child_lo = (
                        lo[0] if ix == 0 else mids[0],
                        lo[1] if iy == 0 else mids[1],
                        lo[2] if iz == 0 else mids[2],
                    )
                    child_hi = (
                        mids[0] if ix == 0 else hi[0],
                        mids[1] if iy == 0 else hi[1],
                        mids[2] if iz == 0 else hi[2],
                    )
                    if any(child_hi[d] <= child_lo[d] for d in range(3)):
                        continue
                    node.children.append(self._build(child_lo, child_hi, path))
        return node

    def terminal_node(self, x: float, y: float, z: float) -> Optional[OctreeNode]:
        """Where a point's root-to-leaf walk stops: the first fully
        transparent node or leaf containing it (or the deepest node
        none of whose children does), or None outside the root."""
        node = self.root
        if not node.contains(x, y, z):
            return None
        while not (node.is_transparent or node.is_leaf):
            for child in node.children:
                if child.contains(x, y, z):
                    node = child
                    break
            else:
                return node
        return node

    def deepest_transparent_node(
        self, x: float, y: float, z: float
    ) -> Optional[OctreeNode]:
        """The largest fully transparent node containing the point, or
        None if the point's region contains interesting voxels."""
        node = self.terminal_node(x, y, z)
        return node if node is not None and node.is_transparent else None

    def path_to(self, x: float, y: float, z: float) -> List[OctreeNode]:
        """Root-to-terminal node path for a point (see
        :meth:`terminal_node`; empty outside the root)."""
        node = self.terminal_node(x, y, z)
        if node is None:
            return []
        return [self._nodes[index] for index in self.paths[node.index]]

    def skip_distance(
        self, x: float, y: float, z: float, direction: np.ndarray
    ) -> float:
        """Parametric distance a ray at (x,y,z) may advance such that
        every intermediate sample's trilinear support (its 8 corner
        voxels) stays inside the deepest fully transparent node — i.e.
        every skipped sample is *exactly* zero.  Returns 0 if the
        region is interesting.

        The upper bound per axis is ``hi - 1`` rather than ``hi``
        because a sample at position x interpolates voxels
        ``int(x)`` and ``int(x)+1``.
        """
        return self.skip_distance_from(
            self.terminal_node(x, y, z), x, y, z, direction
        )

    def skip_distance_from(
        self,
        node: Optional[OctreeNode],
        x: float,
        y: float,
        z: float,
        direction,
    ) -> float:
        """:meth:`skip_distance` given the point's :meth:`terminal_node`
        ``node``, so a caller that also needs the node walks the tree
        once."""
        if node is None or not node.is_transparent:
            return 0.0
        position = (x, y, z)
        # The whole support box must start inside the node: on axes the
        # ray does not advance along (or moves backward along), the
        # parametric bound below cannot pull the position back under
        # hi - 1, so demand it up front.
        for axis in range(3):
            if not node.lo[axis] <= position[axis] <= node.hi[axis] - 1:
                return 0.0
        t_exit = float("inf")
        for axis in range(3):
            d = float(direction[axis])
            if d > 1e-12:
                t_exit = min(t_exit, (node.hi[axis] - 1 - position[axis]) / d)
            elif d < -1e-12:
                t_exit = min(t_exit, (node.lo[axis] - position[axis]) / d)
        return max(0.0, t_exit)
