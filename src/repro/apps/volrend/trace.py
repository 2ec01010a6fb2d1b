"""Memory-reference trace generator for the volume renderer.

Emits one processor's reference stream while it renders its image block
over one or more frames (successive frames rotate the viewing angle
gradually, as in the paper's lev3WS measurement).  Traced structures:

- **voxels**: 2 bytes each (Section 7.3), 4 voxels per 8-byte cache
  block, read 8-at-a-time by trilinear samples;
- **octree nodes**: 2 double words each, read along the root-to-leaf
  path consulted per sample;
- **ray scratch**: the per-sample temporary state (the lev1WS of
  ~0.4 KB together with the sample's voxel/octree neighbourhood);
- **pixels**: 1 double word each, written once per ray.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.apps.volrend.octree import MinMaxOctree
from repro.apps.volrend.partition import ImagePartition
from repro.apps.volrend.render import Camera, RayCaster
from repro.apps.volrend.volume import VOXEL_BYTES, Volume
from repro.mem.address import AddressSpace
from repro.mem.trace import READ, WRITE, Trace, TraceBuilder
from repro.obs.tracing import traced

if TYPE_CHECKING:
    from repro.validate.report import ValidationReport

#: Double words of per-ray scratch state.
SCRATCH_DOUBLEWORDS = 24
#: Double words per octree node record.
NODE_DOUBLEWORDS = 2

#: Ray-march event codes (see :meth:`VolrendTraceGenerator._emit`).
_START, _SKIP, _SAMPLE, _PIXEL = range(4)

#: Recorded events expanded at a time: bounds the expansion temporaries.
_EMIT_EVENTS = 1 << 14


class VolrendTraceGenerator:
    """Trace generator for the parallel ray caster.

    Args:
        volume: The voxel data.
        num_processors: Perfect square; the image is partitioned into
            contiguous rectangular blocks.
        image_size: Image plane side in pixels (defaults to the volume
            side).
        step: Ray sampling interval in voxels.
        seed: Determinism-audit seed recording how ``volume`` was
            generated (use :meth:`from_synthetic_head` to thread it
            explicitly); also parameterizes :meth:`self_check`.
    """

    def __init__(
        self,
        volume: Volume,
        num_processors: int = 4,
        image_size: Optional[int] = None,
        step: float = 1.0,
        seed: int = 0,
    ) -> None:
        self.seed = seed
        self.volume = volume
        self.num_processors = num_processors
        self.image_size = image_size or volume.shape[0]
        self.step = step
        self.octree = MinMaxOctree(volume)
        self.partition = ImagePartition(self.image_size, num_processors)
        self.space = AddressSpace()
        self.voxel_region = self.space.allocate(
            "voxels", volume.num_voxels * VOXEL_BYTES
        )
        self.node_region = self.space.allocate_array(
            "octree nodes", self.octree.num_nodes * NODE_DOUBLEWORDS
        )
        self.scratch = self.space.allocate_array("ray scratch", SCRATCH_DOUBLEWORDS)
        self.pixel_region = self.space.allocate_array(
            "pixels", self.image_size * self.image_size
        )
        self.rays_cast = 0
        self.samples = 0

    @classmethod
    def from_synthetic_head(
        cls,
        n: int,
        seed: int = 0,
        num_processors: int = 4,
        image_size: Optional[int] = None,
        step: float = 1.0,
    ) -> "VolrendTraceGenerator":
        """Seeded construction from the synthetic head data set: the
        only randomness in the volrend trace is the voxel noise, so
        equal seeds yield byte-identical traces."""
        from repro.apps.volrend.volume import synthetic_head

        return cls(
            synthetic_head(n, seed=seed),
            num_processors=num_processors,
            image_size=image_size,
            step=step,
            seed=seed,
        )

    def self_check(self) -> "ValidationReport":
        """Mathematical self-check of the traced algorithm: verify the
        min-max octree bounds against brute-force voxel extrema and the
        rendered image against physical bounds.

        Returns the passing
        :class:`~repro.validate.report.ValidationReport`; raises
        :class:`~repro.runtime.errors.SelfCheckError` on failure.
        """
        from repro.validate.selfchecks import assert_self_check

        return assert_self_check(
            "volrend", seed=self.seed, n=min(self.volume.shape[0], 16)
        )

    # -- trace ---------------------------------------------------------------

    def _path_table(self):
        """The node reads of a skip decision at each terminal node, flat:
        node ``t``'s path reads are ``refs[first[t] : first[t] +
        counts[t]]`` (both words of every node on its root-to-``t``
        path).  Index -1, a skip outside the volume, reads nothing."""
        paths = self.octree.paths
        nodes = np.fromiter(
            (index for path in paths for index in path), dtype=np.int64
        )
        refs = self.node_region.elements(
            (NODE_DOUBLEWORDS * nodes[:, None] + np.arange(2)).reshape(-1)
        )
        counts = np.array([2 * len(path) for path in paths] + [0], dtype=np.int64)
        first = np.cumsum(counts) - counts
        return refs, first, counts

    def _sample_voxels(self, positions: np.ndarray) -> np.ndarray:
        """Byte addresses of the 8 corner voxels each sample position
        reads, ``(samples, 8)`` in :meth:`Volume.corner_voxels` order:
        ``int()``-truncated lower corners, upper corners clipped to the
        volume."""
        shape = np.array(self.volume.shape, dtype=np.int64)
        lower = positions.astype(np.int64)
        corners = np.stack([lower, np.minimum(lower + 1, shape - 1)], axis=1)
        i = corners[:, :, 0, None, None]
        j = corners[:, None, :, 1, None]
        k = corners[:, None, None, :, 2]
        index = (i * shape[1] + j) * shape[2] + k
        return self.voxel_region.elements(
            index.reshape(-1, 8), element_size=VOXEL_BYTES
        )

    def _emit(
        self, tb, codes: List[int], ids: List[int], positions: List[float]
    ) -> None:
        """Expand a trace's recorded ray-march events into ``tb``.

        Event ``e`` with code ``codes[e]`` and id ``ids[e]`` expands to:
        ``_START``, the ray's scratch initialization; ``_SKIP``, the reads
        of both words of every node on the root-to-``ids[e]`` octree
        path; ``_SAMPLE``, sample ``ids[e]``'s 8 corner voxel reads plus
        the scratch churn; ``_PIXEL``, the write of pixel ``ids[e]``.
        """
        path_refs, path_first, path_counts = self._path_table()
        scratch_init = self.scratch.elements(np.arange(SCRATCH_DOUBLEWORDS))
        churn_reads = self.scratch.elements(np.arange(0, SCRATCH_DOUBLEWORDS, 2))
        churn_writes = self.scratch.elements(np.arange(0, SCRATCH_DOUBLEWORDS, 4))
        churn = np.concatenate([churn_reads, churn_writes])
        churn_kinds = np.full(churn.shape, READ, dtype=np.uint8)
        churn_kinds[churn_reads.shape[0] :] = WRITE
        fixed_lengths = np.zeros(4, dtype=np.int64)
        fixed_lengths[[_START, _SAMPLE, _PIXEL]] = [
            SCRATCH_DOUBLEWORDS,
            8 + churn.shape[0],
            1,
        ]
        all_codes = np.asarray(codes, dtype=np.int64)
        all_ids = np.asarray(ids, dtype=np.int64)
        all_positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        for start in range(0, all_codes.shape[0], _EMIT_EVENTS):
            event_codes = all_codes[start : start + _EMIT_EVENTS]
            event_ids = all_ids[start : start + _EMIT_EVENTS]
            skips = event_codes == _SKIP
            lengths = fixed_lengths[event_codes]
            lengths[skips] = path_counts[event_ids[skips]]
            first = np.cumsum(lengths) - lengths
            addrs = np.empty(int(lengths.sum()), dtype=np.int64)
            kinds = np.empty(addrs.shape[0], dtype=np.uint8)

            def fill(code: int, rows: np.ndarray, row_kinds, offset: int = 0) -> None:
                """Place ``rows`` (one row per ``code`` event, or one row
                for all) at ``offset`` into those events' references."""
                at = first[event_codes == code][:, None] + offset
                at = at + np.arange(rows.shape[-1])
                addrs[at] = rows
                kinds[at] = row_kinds

            fill(_START, scratch_init, WRITE)
            sampled = all_positions[event_ids[event_codes == _SAMPLE]]
            fill(_SAMPLE, self._sample_voxels(sampled), READ)
            fill(_SAMPLE, churn, churn_kinds, offset=8)
            pixels = self.pixel_region.elements(event_ids[event_codes == _PIXEL])
            fill(_PIXEL, pixels[:, None], WRITE)
            # Skips: ragged runs of their terminal node's path reads.
            counts = lengths[skips]
            rank = np.arange(int(counts.sum()))
            rank -= np.repeat(np.cumsum(counts) - counts, counts)
            at = np.repeat(first[skips], counts) + rank
            source = np.repeat(path_first[event_ids[skips]], counts) + rank
            addrs[at] = path_refs[source]
            kinds[at] = READ
            tb.extend_arrays(addrs, kinds)

    @traced("apps.volrend.trace_for_processor")
    def trace_for_processor(
        self,
        pid: int,
        frames: int = 1,
        angle_start: float = 0.3,
        angle_step: float = 0.05,
    ) -> Trace:
        """Trace processor ``pid`` rendering its block over ``frames``
        frames with a gradually changing viewing angle.

        Per ray: initialize the ray scratch, then at every octree skip
        decision read the nodes on the root-to-terminal path, and at
        every trilinear sample read its 8 corner voxels and churn the
        scratch (read every other word, write every fourth); finally
        write the pixel.  The ray march records these as events, and
        :meth:`_emit` expands them afterwards.
        """
        if not 0 <= pid < self.num_processors:
            raise IndexError("processor id out of range")
        tb = TraceBuilder()
        rows, cols = self.partition.block(pid)
        codes: List[int] = []
        ids: List[int] = []
        positions: List[float] = []

        def sample_hook(x: float, y: float, z: float) -> None:
            codes.append(_SAMPLE)
            ids.append(len(positions) // 3)
            positions.extend((x, y, z))

        def skip_hook(node) -> None:
            codes.append(_SKIP)
            ids.append(-1 if node is None else node.index)

        for frame in range(frames):
            camera = Camera(
                angle=angle_start + frame * angle_step,
                image_size=self.image_size,
                step=self.step,
            )
            caster = RayCaster(self.volume, self.octree)
            for py in rows:
                for px in cols:
                    origin, direction = camera.ray(self.volume.shape, px, py)
                    codes.append(_START)
                    ids.append(0)
                    caster.cast(
                        origin,
                        direction,
                        sample_hook=sample_hook,
                        skip_hook=skip_hook,
                        step=self.step,
                    )
                    codes.append(_PIXEL)
                    ids.append(py * self.image_size + px)
        self.rays_cast = frames * len(rows) * len(cols)
        self.samples = len(positions) // 3
        self._emit(tb, codes, ids, positions)
        return tb.build()

    @property
    def dataset_bytes(self) -> int:
        return self.voxel_region.size + self.node_region.size

    def samples_per_ray(self) -> float:
        if self.rays_cast == 0:
            return 0.0
        return self.samples / self.rays_cast
