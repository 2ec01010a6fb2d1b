"""Image-plane partitioning and ray stealing.

Every processor statically owns a contiguous rectangular block of
pixels (the source of ray-to-ray voxel reuse behind the lev2WS); idle
processors then steal rays from loaded ones.  "Stealing ... is the
main source of performance loss if the number of rays stolen by a
processor is large compared to the number initially assigned to it"
(Section 7.3); :func:`simulate_ray_stealing` quantifies that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.obs.tracing import traced


@dataclass(frozen=True)
class ImagePartition:
    """Contiguous rectangular pixel blocks over a square image.

    Args:
        image_size: Pixels per side.
        num_processors: Must be a perfect square for square blocks.
    """

    image_size: int
    num_processors: int

    def __post_init__(self) -> None:
        side = int(round(math.sqrt(self.num_processors)))
        if side * side != self.num_processors:
            raise ValueError("num_processors must be a perfect square")
        if self.image_size % side != 0:
            raise ValueError("image size must divide among processors")

    @property
    def proc_side(self) -> int:
        return int(round(math.sqrt(self.num_processors)))

    @property
    def block_side(self) -> int:
        return self.image_size // self.proc_side

    def block(self, pid: int) -> Tuple[range, range]:
        """(rows, cols) pixel ranges of processor ``pid``'s block."""
        s = self.block_side
        row = pid // self.proc_side
        col = pid % self.proc_side
        return (
            range(row * s, (row + 1) * s),
            range(col * s, (col + 1) * s),
        )

    def rays_per_processor(self) -> int:
        return self.block_side**2

    def owner(self, px: int, py: int) -> int:
        s = self.block_side
        return (py // s) * self.proc_side + (px // s)


@dataclass
class StealingOutcome:
    """Result of a ray-stealing simulation.

    Attributes:
        finish_times: Per-processor completion time (cost units).
        rays_stolen: Total rays executed away from their home processor.
        steal_fraction: Stolen rays over all rays.
        balance_efficiency: Mean finish time over max finish time — 1.0
            is perfect balance.
    """

    finish_times: np.ndarray
    rays_stolen: int
    steal_fraction: float

    @property
    def balance_efficiency(self) -> float:
        peak = float(self.finish_times.max())
        if peak == 0:
            return 1.0
        return float(self.finish_times.mean()) / peak


@traced("apps.volrend.ray_stealing")
def simulate_ray_stealing(
    ray_costs: Sequence[np.ndarray],
    steal_overhead: float = 0.0,
) -> StealingOutcome:
    """Greedy list-scheduling model of ray stealing.

    Args:
        ray_costs: One array of per-ray costs per processor (the static
            assignment).
        steal_overhead: Extra cost added to each stolen ray
            (synchronization + communication).

    Returns:
        A :class:`StealingOutcome`.

    The model: processors consume their own queues; when empty they
    repeatedly steal the next ray from the most-loaded remaining queue.
    """
    num_processors = len(ray_costs)
    queues: List[List[float]] = [list(map(float, costs)) for costs in ray_costs]
    clocks = np.zeros(num_processors)
    # Run own work first.
    for pid in range(num_processors):
        clocks[pid] = sum(queues[pid])
    remaining = [list(q) for q in queues]
    consumed = [0] * num_processors  # rays taken from each queue by theft
    stolen = 0
    # Idle processors steal from the queue with the most leftover work.
    # We approximate time-ordering by repeatedly giving the earliest-
    # finishing processor one ray from the latest-finishing one.
    total_rays = sum(len(q) for q in queues)
    while True:
        fastest = int(np.argmin(clocks))
        slowest = int(np.argmax(clocks))
        if fastest == slowest:
            break
        victim_queue = remaining[slowest]
        if not victim_queue:
            break
        cost = victim_queue.pop()
        if clocks[fastest] + cost + steal_overhead >= clocks[slowest]:
            victim_queue.append(cost)
            break
        clocks[slowest] -= cost
        clocks[fastest] += cost + steal_overhead
        stolen += 1
    return StealingOutcome(
        finish_times=clocks,
        rays_stolen=stolen,
        steal_fraction=stolen / total_rays if total_rays else 0.0,
    )
