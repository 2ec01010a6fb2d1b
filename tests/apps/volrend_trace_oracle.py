"""Per-reference volume-rendering trace emitter: the test oracle for
the columnar generator in :mod:`repro.apps.volrend.trace`.

Marches every ray with its own copy of the ray caster's loop and emits
one reference at a time through ``TraceBuilder.read``/``write`` and
bounds-checked ``Region`` addressing, exactly as the generator did
before it recorded ray-march events and expanded them with numpy: a
skip decision re-walks the octree from the root to read the path's
nodes, and a sample reads its 8 corner voxels from ``int()``-truncated
coordinates.
"""

from __future__ import annotations

from repro.apps.volrend.render import TERMINATION_OPACITY, Camera, RayCaster
from repro.apps.volrend.trace import (
    NODE_DOUBLEWORDS,
    SCRATCH_DOUBLEWORDS,
    VolrendTraceGenerator,
)
from repro.apps.volrend.volume import VOXEL_BYTES
from repro.mem.shards import trace_builder


def _path_to(octree, x: float, y: float, z: float):
    """Root-to-terminal node path (terminal = first transparent node,
    a leaf, or a node no child of which contains the point)."""
    path = []
    node = octree.root
    if not node.contains(x, y, z):
        return path
    while True:
        path.append(node)
        if node.is_transparent or node.is_leaf:
            return path
        next_node = None
        for child in node.children:
            if child.contains(x, y, z):
                next_node = child
                break
        if next_node is None:
            return path
        node = next_node


def _march(gen, caster, origin, direction, sample_hook, skip_hook) -> None:
    """The ray caster's loop, with octree skipping, calling the hooks
    with the position of every skip decision and every sample."""
    span = caster._entry_exit(origin, direction)
    if span is None:
        return
    t, t_end = span
    accumulated = 0.0
    while t <= t_end and accumulated < TERMINATION_OPACITY:
        position = origin + t * direction
        x, y, z = float(position[0]), float(position[1]), float(position[2])
        skip = gen.octree.skip_distance(x, y, z, direction)
        skip_hook(x, y, z)
        whole_steps = int(skip // gen.step)
        if whole_steps >= 1:
            t += whole_steps * gen.step
            continue
        alpha = gen.volume.trilinear(x, y, z)
        sample_hook(x, y, z)
        accumulated += (1.0 - accumulated) * alpha
        t += gen.step


def trace(
    gen: VolrendTraceGenerator,
    pid: int,
    frames: int = 1,
    angle_start: float = 0.3,
    angle_step: float = 0.05,
):
    """``(trace, rays_cast, samples)`` of processor ``pid`` rendering its
    block over ``frames`` frames."""
    tb = trace_builder()
    rows, cols = gen.partition.block(pid)
    counts = {"rays": 0, "samples": 0}

    def voxel_addr(i: int, j: int, k: int) -> int:
        return gen.voxel_region.addr(gen.volume.voxel_index(i, j, k) * VOXEL_BYTES)

    def node_addr(node_index: int, offset: int = 0) -> int:
        return gen.node_region.element(node_index * NODE_DOUBLEWORDS + offset)

    def sample_hook(x: float, y: float, z: float) -> None:
        counts["samples"] += 1
        for (i, j, k) in gen.volume.corner_voxels(x, y, z):
            tb.read(voxel_addr(i, j, k))
        for s in range(0, SCRATCH_DOUBLEWORDS, 2):
            tb.read(gen.scratch.element(s))
        for s in range(0, SCRATCH_DOUBLEWORDS, 4):
            tb.write(gen.scratch.element(s))

    def skip_hook(x: float, y: float, z: float) -> None:
        for node in _path_to(gen.octree, x, y, z):
            tb.read(node_addr(node.index))
            tb.read(node_addr(node.index, 1))

    for frame in range(frames):
        camera = Camera(
            angle=angle_start + frame * angle_step,
            image_size=gen.image_size,
            step=gen.step,
        )
        caster = RayCaster(gen.volume, gen.octree)
        for py in rows:
            for px in cols:
                origin, direction = camera.ray(gen.volume.shape, px, py)
                for s in range(SCRATCH_DOUBLEWORDS):
                    tb.write(gen.scratch.element(s))
                _march(gen, caster, origin, direction, sample_hook, skip_hook)
                tb.write(gen.pixel_region.element(py * gen.image_size + px))
                counts["rays"] += 1
    return tb.build(), counts["rays"], counts["samples"]
