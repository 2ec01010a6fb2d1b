"""Unstructured problems for iterative solvers (paper Section 4.3).

"Many important problems (e.g., unstructured problems that model
complex physical structures) will not be nearly as regular as the 2-D
and 3-D grids considered here.  This reduced regularity will require
more sophisticated strategies for partitioning ... the computational
load balance among the processors will certainly not be as good [and
the communication volume worse]."

We build unstructured planar meshes by Delaunay triangulation of random
points, partition them with era-appropriate recursive coordinate
bisection (RCB), and measure exactly the quantities the paper predicts
degrade: edge cut (communication) and per-partition work balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.obs.tracing import traced


@dataclass
class UnstructuredMesh:
    """A planar unstructured mesh.

    Attributes:
        points: (n, 2) vertex coordinates.
        neighbors: adjacency lists (each an int array), symmetric.
    """

    points: np.ndarray
    neighbors: List[np.ndarray]

    @property
    def num_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def num_edges(self) -> int:
        return sum(len(adj) for adj in self.neighbors) // 2

    def degrees(self) -> np.ndarray:
        return np.array([len(adj) for adj in self.neighbors])

    def laplacian_matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = (L + I) x`` — the shifted graph Laplacian (SPD)."""
        y = (self.degrees() + 1.0) * x
        for i, adj in enumerate(self.neighbors):
            y[i] -= x[adj].sum()
        return y


def _triangulate(points: np.ndarray) -> UnstructuredMesh:
    # Imported here: scipy costs ~0.5 s, and every CLI start imports
    # this module through the experiment registry.
    import scipy.spatial

    tri = scipy.spatial.Delaunay(points)
    adjacency = [set() for _ in range(points.shape[0])]
    for simplex in tri.simplices:
        for a in simplex:
            for b in simplex:
                if a != b:
                    adjacency[a].add(int(b))
    return UnstructuredMesh(
        points=points,
        neighbors=[np.array(sorted(adj), dtype=np.int64) for adj in adjacency],
    )


@traced("apps.cg.mesh")
def delaunay_mesh(num_points: int, seed: int = 0) -> UnstructuredMesh:
    """Delaunay triangulation of uniform random points in the unit
    square."""
    if num_points < 4:
        raise ValueError("need at least 4 points for a triangulation")
    rng = np.random.default_rng(seed)
    return _triangulate(rng.uniform(0.0, 1.0, size=(num_points, 2)))


@traced("apps.cg.mesh")
def clustered_mesh(
    num_points: int, seed: int = 0, cluster_fraction: float = 0.7
) -> UnstructuredMesh:
    """A locally refined mesh: most points concentrated in small
    regions (as adaptive refinement around physical features produces),
    the remainder uniform.  The shape that stresses geometric
    partitioners."""
    if not 0.0 < cluster_fraction < 1.0:
        raise ValueError("cluster_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    clustered = int(num_points * cluster_fraction)
    centers = rng.uniform(0.2, 0.8, size=(3, 2))
    assignments = rng.integers(0, len(centers), size=clustered)
    dense = centers[assignments] + rng.normal(0.0, 0.03, size=(clustered, 2))
    sparse = rng.uniform(0.0, 1.0, size=(num_points - clustered, 2))
    points = np.clip(np.vstack([dense, sparse]), 0.0, 1.0)
    return _triangulate(points)


@traced("apps.cg.mesh")
def regular_mesh(side: int) -> UnstructuredMesh:
    """A regular 2-D grid expressed in the same mesh format (the
    baseline the paper compares against)."""
    n = side * side
    coords = np.array(
        [(i / (side - 1), j / (side - 1)) for i in range(side) for j in range(side)]
    )
    neighbors: List[np.ndarray] = []
    for i in range(side):
        for j in range(side):
            adj = []
            if i > 0:
                adj.append((i - 1) * side + j)
            if i < side - 1:
                adj.append((i + 1) * side + j)
            if j > 0:
                adj.append(i * side + j - 1)
            if j < side - 1:
                adj.append(i * side + j + 1)
            neighbors.append(np.array(adj, dtype=np.int64))
    return UnstructuredMesh(points=coords, neighbors=neighbors)


@traced("apps.cg.partition")
def recursive_coordinate_bisection(
    points: np.ndarray, num_parts: int
) -> np.ndarray:
    """RCB partitioning: recursively split along the wider coordinate
    axis at the median.  Returns a part id per point.

    The standard geometric partitioner of the paper's era (before
    multilevel graph partitioners).
    """
    if num_parts < 1 or (num_parts & (num_parts - 1)) != 0:
        raise ValueError("num_parts must be a power of two")
    assignment = np.zeros(points.shape[0], dtype=np.int64)

    def split(indices: np.ndarray, parts: int, base: int) -> None:
        if parts == 1:
            assignment[indices] = base
            return
        extent = points[indices].max(axis=0) - points[indices].min(axis=0)
        axis = int(np.argmax(extent))
        order = indices[np.argsort(points[indices, axis], kind="stable")]
        half = len(order) // 2
        split(order[:half], parts // 2, base)
        split(order[half:], parts // 2, base + parts // 2)

    split(np.arange(points.shape[0]), num_parts, 0)
    return assignment


@traced("apps.cg.partition")
def random_partition(
    num_points: int, num_parts: int, seed: int = 0
) -> np.ndarray:
    """Random balanced assignment — the no-locality baseline."""
    rng = np.random.default_rng(seed)
    assignment = np.repeat(np.arange(num_parts), math.ceil(num_points / num_parts))
    rng.shuffle(assignment)
    return assignment[:num_points]


def edge_cut(mesh: UnstructuredMesh, assignment: np.ndarray) -> int:
    """Edges whose endpoints lie in different partitions — the data
    communicated every iteration."""
    cut = 0
    for i, adj in enumerate(mesh.neighbors):
        cut += int((assignment[adj] != assignment[i]).sum())
    return cut // 2


def work_imbalance(
    mesh: UnstructuredMesh,
    assignment: np.ndarray,
    remote_edge_weight: float = 0.0,
) -> float:
    """Max over mean per-partition work.  1.0 is perfect.

    A vertex's work is its edge count (the matvec's operations); each
    *cut* edge additionally costs ``remote_edge_weight`` (the remote
    gather a boundary vertex performs every iteration).  With weight 0
    this is pure computational balance; positive weights expose the
    communication-induced imbalance the paper warns about.
    """
    num_parts = int(assignment.max()) + 1
    work = np.zeros(num_parts)
    for i, adj in enumerate(mesh.neighbors):
        cut = int((assignment[adj] != assignment[i]).sum())
        work[assignment[i]] += len(adj) + remote_edge_weight * cut
    mean = work.mean()
    return float(work.max() / mean) if mean > 0 else 1.0


def communication_fraction(mesh: UnstructuredMesh, assignment: np.ndarray) -> float:
    """Cut edges over all edges — proportional to the communication-to-
    computation ratio of the iteration."""
    return edge_cut(mesh, assignment) / mesh.num_edges
