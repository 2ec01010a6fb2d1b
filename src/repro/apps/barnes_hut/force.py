"""Force computation: the theta-criterion tree walk and the O(n^2)
direct sum it approximates.

A cell is accepted (interacted with as a multipole) when
``l / d < theta`` where ``l`` is the cell's side length and ``d`` the
distance from the body to the cell's center of mass (Section 6.1);
otherwise it is opened.  Quadrupole corrections follow Hernquist (1987).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.apps.barnes_hut.bodies import BodySet
from repro.apps.barnes_hut.octree import Cell, Octree


@dataclass
class WalkStats:
    """Counters from one force-computation phase."""

    body_cell_interactions: int = 0
    body_body_interactions: int = 0
    cells_opened: int = 0

    @property
    def interactions(self) -> int:
        return self.body_cell_interactions + self.body_body_interactions


def _pairwise_acceleration(
    delta: np.ndarray, mass: float, softening: float, g: float
) -> np.ndarray:
    r2 = float(delta @ delta) + softening * softening
    inv_r3 = r2**-1.5
    return g * mass * inv_r3 * delta


def _quadrupole_acceleration(
    delta: np.ndarray, quad: np.ndarray, softening: float, g: float
) -> np.ndarray:
    """Acceleration correction from the traceless quadrupole tensor.

    Potential ``phi_quad = -G (r^T Q r) / (2 r^5)`` with ``r`` the vector
    from the cell's center of mass to the body; the acceleration is its
    negative gradient, ``G [Q r / r^5 - (5/2) (r^T Q r) r / r^7]``.
    ``delta`` points from the body toward the center of mass
    (``delta = -r``), so both terms change sign relative to that form.
    """
    r2 = float(delta @ delta) + softening * softening
    inv_r5 = r2**-2.5
    inv_r7 = r2**-3.5
    qd = quad @ delta
    dqd = float(delta @ qd)
    return g * (2.5 * dqd * inv_r7 * delta - qd * inv_r5)


def accelerate_body(
    tree: Octree,
    body_index: int,
    theta: float,
    softening: float = 1e-4,
    gravitational_constant: float = 1.0,
    quadrupole: bool = True,
    stats: Optional[WalkStats] = None,
) -> np.ndarray:
    """Acceleration on one body via the Barnes-Hut walk.

    Args:
        tree: An octree with moments computed.
        body_index: The body to accelerate.
        theta: Opening-angle parameter (0 degenerates to direct sum).
        softening: Plummer softening length.
        gravitational_constant: G.
        quadrupole: Apply quadrupole corrections for accepted cells.
        stats: Optional interaction counters to update.

    Returns:
        The (3,) acceleration vector.
    """
    if not tree.moments_ready:
        raise RuntimeError("call compute_moments() before force evaluation")
    position = tree.bodies.positions[body_index]
    acc = np.zeros(3)
    stack: List[Cell] = [tree.root]
    while stack:
        cell = stack.pop()
        if cell.count == 0 or cell.mass == 0.0:
            continue
        if cell.is_leaf:
            if cell.body_index == body_index:
                continue
            delta = tree.bodies.positions[cell.body_index] - position
            acc += _pairwise_acceleration(
                delta, float(tree.bodies.masses[cell.body_index]), softening,
                gravitational_constant,
            )
            if stats is not None:
                stats.body_body_interactions += 1
            continue
        delta = cell.com - position
        distance = float(np.sqrt(delta @ delta)) + 1e-300
        if cell.side / distance < theta:
            acc += _pairwise_acceleration(
                delta, cell.mass, softening, gravitational_constant
            )
            if quadrupole:
                acc += _quadrupole_acceleration(
                    delta, cell.quad, softening, gravitational_constant
                )
            if stats is not None:
                stats.body_cell_interactions += 1
        else:
            if stats is not None:
                stats.cells_opened += 1
            for child in cell.children:
                if child is not None:
                    stack.append(child)
    return acc


def compute_accelerations(
    bodies: BodySet,
    theta: float,
    softening: float = 1e-4,
    gravitational_constant: float = 1.0,
    quadrupole: bool = True,
    stats: Optional[WalkStats] = None,
) -> np.ndarray:
    """Barnes-Hut accelerations for every body (rebuilds the tree)."""
    tree = Octree(bodies)
    tree.compute_moments(quadrupole=quadrupole)
    acc = np.empty_like(bodies.positions)
    for i in range(len(bodies)):
        acc[i] = accelerate_body(
            tree,
            i,
            theta,
            softening=softening,
            gravitational_constant=gravitational_constant,
            quadrupole=quadrupole,
            stats=stats,
        )
    bodies.accelerations = acc
    return acc


def direct_sum(
    bodies: BodySet,
    softening: float = 1e-4,
    gravitational_constant: float = 1.0,
) -> np.ndarray:
    """Exact O(n^2) accelerations (vectorized ground truth)."""
    pos = bodies.positions
    n = len(bodies)
    acc = np.zeros((n, 3))
    for i in range(n):
        delta = pos - pos[i]
        r2 = (delta**2).sum(axis=1) + softening**2
        r2[i] = 1.0
        inv_r3 = r2**-1.5
        inv_r3[i] = 0.0
        acc[i] = gravitational_constant * (
            (bodies.masses * inv_r3)[:, None] * delta
        ).sum(axis=0)
    return acc
