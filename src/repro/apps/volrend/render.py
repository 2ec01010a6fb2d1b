"""The ray-casting renderer.

Orthographic rays are cast from a rotating viewpoint through every
pixel of the image plane; voxel opacity is resampled by trilinear
interpolation at unit steps along each ray, composited front-to-back,
terminated early when accumulated opacity approaches 1, and accelerated
by min-max-octree space skipping (Section 7.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.apps.volrend.octree import MinMaxOctree, OctreeNode
from repro.apps.volrend.volume import Volume

#: Accumulated opacity at which a ray is terminated early.
TERMINATION_OPACITY = 0.95


@dataclass
class Camera:
    """An orthographic camera orbiting the volume.

    Attributes:
        angle: Azimuthal viewing angle in radians (rotation about the
            volume's z axis); successive frames change this gradually.
        image_size: Pixels per side of the square image plane.
        supersample: Sample step along the ray, in voxels.
    """

    angle: float = 0.0
    image_size: int = 64
    step: float = 1.0

    def ray(
        self, volume_shape: Tuple[int, int, int], px: int, py: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The (origin, direction) of the ray through pixel (px, py).

        The image plane is perpendicular to the viewing direction and
        sized to cover the volume's diagonal footprint.
        """
        nx, ny, nz = volume_shape
        center = np.array([nx / 2.0, ny / 2.0, nz / 2.0])
        direction = np.array(
            [math.cos(self.angle), math.sin(self.angle), 0.0]
        )
        right = np.array([-math.sin(self.angle), math.cos(self.angle), 0.0])
        up = np.array([0.0, 0.0, 1.0])
        diag = math.sqrt(nx * nx + ny * ny + nz * nz)
        u = (px + 0.5) / self.image_size - 0.5
        v = (py + 0.5) / self.image_size - 0.5
        origin = center - direction * diag + right * (u * diag) + up * (v * diag)
        return origin, direction


class RayCaster:
    """Renders frames of a volume, optionally with octree skipping.

    Args:
        volume: The voxel data.
        octree: Min-max octree for empty-space skipping (None disables
            skipping — the brute-force reference the tests compare
            against).
    """

    def __init__(self, volume: Volume, octree: Optional[MinMaxOctree] = None) -> None:
        self.volume = volume
        self.octree = octree
        self.samples_taken = 0
        self.samples_skipped = 0

    def _entry_exit(
        self, origin: np.ndarray, direction: np.ndarray
    ) -> Optional[Tuple[float, float]]:
        """Parametric entry/exit of the ray against the volume box."""
        t0, t1 = 0.0, float("inf")
        for axis in range(3):
            extent = self.volume.shape[axis] - 1
            o, d = float(origin[axis]), float(direction[axis])
            if abs(d) < 1e-12:
                if not 0.0 <= o <= extent:
                    return None
                continue
            ta = (0.0 - o) / d
            tb = (extent - o) / d
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
        if t0 >= t1:
            return None
        return t0, t1

    def cast(
        self,
        origin: np.ndarray,
        direction: np.ndarray,
        sample_hook: Optional[Callable[[float, float, float], None]] = None,
        skip_hook: Optional[Callable[[Optional[OctreeNode]], None]] = None,
        step: float = 1.0,
    ) -> float:
        """Cast one ray; returns the composited opacity in [0, 1].

        Args:
            origin, direction: The ray (direction need not be unit).
            sample_hook: Called with the position of every trilinear
                sample taken (the trace generator hooks this).
            skip_hook: Called at every octree skip decision with the
                sample position's :meth:`MinMaxOctree.terminal_node`
                (None outside the volume).
            step: Sampling interval along the ray, in voxels.
        """
        span = self._entry_exit(origin, direction)
        if span is None:
            return 0.0
        t, t_end = span
        # Scalar arithmetic, rounded exactly as ``origin + t * direction``.
        ox, oy, oz = (float(c) for c in origin)
        dx, dy, dz = (float(c) for c in direction)
        octree = self.octree
        accumulated = 0.0
        while t <= t_end and accumulated < TERMINATION_OPACITY:
            x, y, z = ox + t * dx, oy + t * dy, oz + t * dz
            if octree is not None:
                terminal = octree.terminal_node(x, y, z)
                skip = octree.skip_distance_from(terminal, x, y, z, (dx, dy, dz))
                if skip_hook is not None:
                    skip_hook(terminal)
                # Advance in whole steps so sample positions stay on the
                # same grid as a non-skipping caster; skip_distance
                # guarantees every skipped sample is exactly transparent,
                # so the rendered image is bit-identical.
                whole_steps = int(skip // step)
                if whole_steps >= 1:
                    self.samples_skipped += whole_steps
                    t += whole_steps * step
                    continue
            alpha = self.volume.trilinear(x, y, z)
            if sample_hook is not None:
                sample_hook(x, y, z)
            self.samples_taken += 1
            accumulated += (1.0 - accumulated) * alpha
            t += step
        return min(accumulated, 1.0)

    def render(
        self,
        camera: Camera,
        pixels: Optional[np.ndarray] = None,
        pixel_range: Optional[Tuple[range, range]] = None,
    ) -> np.ndarray:
        """Render (a block of) a frame.  Returns the image array."""
        size = camera.image_size
        if pixels is None:
            pixels = np.zeros((size, size))
        rows, cols = pixel_range or (range(size), range(size))
        for py in rows:
            for px in cols:
                origin, direction = camera.ray(self.volume.shape, px, py)
                pixels[py, px] = self.cast(origin, direction, step=camera.step)
        return pixels


def render_frame(
    volume: Volume,
    angle: float = 0.0,
    image_size: int = 64,
    use_octree: bool = True,
) -> np.ndarray:
    """Convenience wrapper: render one full frame."""
    octree = MinMaxOctree(volume) if use_octree else None
    caster = RayCaster(volume, octree)
    return caster.render(Camera(angle=angle, image_size=image_size))


def save_pgm(image: np.ndarray, path) -> None:
    """Write an opacity image as a binary PGM (grayscale) file.

    PGM needs no external imaging library, so rendered frames can be
    inspected with any viewer.
    """
    if image.ndim != 2:
        raise ValueError("save_pgm expects a 2-D image")
    clipped = np.clip(image, 0.0, 1.0)
    pixels = (clipped * 255).astype(np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(pixels.tobytes())


def load_pgm(path) -> np.ndarray:
    """Read a binary PGM written by :func:`save_pgm` back into [0, 1]."""
    with open(path, "rb") as handle:
        magic = handle.readline().strip()
        if magic != b"P5":
            raise ValueError("not a binary PGM file")
        width, height = map(int, handle.readline().split())
        maxval = int(handle.readline())
        data = np.frombuffer(handle.read(width * height), dtype=np.uint8)
    return data.reshape(height, width).astype(float) / maxval
