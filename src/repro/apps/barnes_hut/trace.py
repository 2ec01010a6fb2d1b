"""Memory-reference trace generator for the Barnes-Hut force phase.

Emits one processor's double-word reference stream while it computes
forces on its (Morton-contiguous) partition of bodies.  The traced data
structures:

- **body records**: position (3 dw), velocity (3 dw), mass (1 dw),
  acceleration (3 dw) — 80 bytes per body;
- **cell records**: center of mass (3 dw), mass (1 dw), quadrupole
  (6 dw), child pointers (4 dw), geometry (2 dw) — 128 bytes per cell;
- **interaction scratch**: a ~0.6 KB temporary region read and written
  by every particle-particle / particle-cell interaction.  This is the
  paper's lev1WS ("the amount of temporary storage used to compute an
  interaction ... about 0.7 Kbytes"); caching it takes the read miss
  rate from ~100% to ~20%, with the remaining misses going to tree
  data that only the lev2WS captures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.apps.barnes_hut.bodies import BodySet
from repro.apps.barnes_hut.force import WalkStats, accelerate_body
from repro.apps.barnes_hut.octree import Cell, Octree
from repro.apps.barnes_hut.partition import morton_partition
from repro.mem.address import AddressSpace
from repro.mem.shards import trace_builder
from repro.mem.trace import READ, WRITE, Trace
from repro.obs.tracing import traced
from repro.units import DOUBLE_WORD

if TYPE_CHECKING:
    from repro.validate.report import ValidationReport

#: Double words per body record (pos 3 + vel 3 + mass 1 + acc 3).
BODY_DOUBLEWORDS = 10
#: Double words per cell record (com 3 + mass 1 + quad 6 + children 4 + misc 2).
CELL_DOUBLEWORDS = 16
#: Double words of interaction scratch (the lev1WS; ~0.6 KB).
SCRATCH_DOUBLEWORDS = 48

#: Force-phase event codes (indices into the phase's templates).
_START, _OPEN, _ACCEPT, _BODY, _END = range(5)

#: Recorded events expanded at a time (up to ~84K references): bounds
#: the expansion temporaries and the columns a streamed trace holds in
#: memory.  Larger slices measured a higher peak RSS.
_EMIT_EVENTS = 1024


class _Templates(NamedTuple):
    """Per-event reference templates, flattened: event code ``c`` owns
    references ``first[c] : first[c] + lengths[c]`` of the other columns."""

    base: np.ndarray
    stride: np.ndarray
    kind: np.ndarray
    first: np.ndarray
    lengths: np.ndarray


class BarnesHutTraceGenerator:
    """Trace generator for one force-computation phase.

    Args:
        bodies: The body set (tree is built once at construction).
        theta: Opening-angle parameter.
        num_processors: Machine size (bodies are Morton-partitioned).
        quadrupole: Trace quadrupole reads for accepted cells.
        seed: Determinism-audit seed recording how ``bodies`` was
            generated (use :meth:`from_plummer` to thread it
            explicitly); also parameterizes :meth:`self_check`.
    """

    def __init__(
        self,
        bodies: BodySet,
        theta: float = 1.0,
        num_processors: int = 4,
        quadrupole: bool = True,
        seed: int = 0,
    ) -> None:
        self.seed = seed
        self.bodies = bodies
        self.theta = theta
        self.num_processors = num_processors
        self.quadrupole = quadrupole
        self.tree = Octree(bodies)
        self.tree.compute_moments(quadrupole=quadrupole)
        self.partitions = morton_partition(bodies, num_processors)
        self.space = AddressSpace()
        self.body_region = self.space.allocate_array(
            "bodies", len(bodies) * BODY_DOUBLEWORDS
        )
        self.cell_region = self.space.allocate_array(
            "cells", self.tree.num_cells * CELL_DOUBLEWORDS
        )
        # One private scratch buffer per processor: interaction
        # temporaries are thread-local state, never shared.
        self.scratch_regions = [
            self.space.allocate_array(
                f"interaction scratch p{pid}", SCRATCH_DOUBLEWORDS
            )
            for pid in range(num_processors)
        ]
        self.stats = WalkStats()

    @classmethod
    def from_plummer(
        cls,
        n: int,
        seed: int = 0,
        theta: float = 1.0,
        num_processors: int = 4,
        quadrupole: bool = True,
    ) -> "BarnesHutTraceGenerator":
        """Seeded construction from a Plummer-model body set: the only
        randomness in the Barnes-Hut trace is the initial conditions,
        so equal seeds yield byte-identical traces."""
        from repro.apps.barnes_hut.bodies import plummer_model

        return cls(
            plummer_model(n, seed=seed),
            theta=theta,
            num_processors=num_processors,
            quadrupole=quadrupole,
            seed=seed,
        )

    def self_check(self) -> "ValidationReport":
        """Mathematical self-check of the traced algorithm: integrate a
        seeded N-body system with exact (theta=0) forces and verify
        momentum conservation.

        Returns the passing
        :class:`~repro.validate.report.ValidationReport`; raises
        :class:`~repro.runtime.errors.SelfCheckError` on failure.
        """
        from repro.validate.selfchecks import assert_self_check

        return assert_self_check(
            "barnes-hut", seed=self.seed, n=min(len(self.bodies), 64)
        )

    # -- columnar emission ------------------------------------------------
    #
    # Every phase is a sequence of events -- a body's start or end, one
    # walk step, one tree update -- and each event emits a fixed run of
    # references: a template of (base, stride, kind) per reference, whose
    # address is ``base + id * stride`` for the event's body or cell id.
    # The walks record (event, id) codes; numpy expands them.

    def _templates(
        self, events: Sequence[Sequence[Tuple[str, int, int]]], pid: int = 0
    ) -> _Templates:
        """Address templates from ``(region, field offset, kind)`` runs,
        one run per event code; region is "body", "cell" or "scratch"
        (``pid``'s scratch buffer, indexed by the offset)."""
        strides = {
            "body": BODY_DOUBLEWORDS * DOUBLE_WORD,
            "cell": CELL_DOUBLEWORDS * DOUBLE_WORD,
            "scratch": 0,
        }
        bases = {
            "body": self.body_region.base,
            "cell": self.cell_region.base,
            "scratch": self.scratch_regions[pid].base,
        }
        refs = [ref for run in events for ref in run]
        base = np.array(
            [bases[region] + offset * DOUBLE_WORD for region, offset, _ in refs],
            dtype=np.int64,
        )
        stride = np.array([strides[region] for region, _, _ in refs], dtype=np.int64)
        kind = np.array([access for _, _, access in refs], dtype=np.uint8)
        lengths = np.array([len(run) for run in events], dtype=np.int64)
        return _Templates(base, stride, kind, np.cumsum(lengths) - lengths, lengths)

    @staticmethod
    def _emit(tb, templates: _Templates, codes: List[int], ids: List[int]) -> Trace:
        """Expand a phase's recorded ``(code, id)`` events into ``tb`` and
        build it.

        Events are recorded for the whole phase first, so the expanded
        columns are allocated after the walk rather than interleaved
        with its allocations, which keeps the peak RSS down.
        """
        all_codes = np.asarray(codes, dtype=np.int64)
        all_ids = np.asarray(ids, dtype=np.int64)
        for start in range(0, all_codes.shape[0], _EMIT_EVENTS):
            event_codes = all_codes[start : start + _EMIT_EVENTS]
            lengths = templates.lengths[event_codes]
            # Each reference's index into the flat templates: its event's
            # first template slot plus its rank within the event.
            slot = np.arange(int(lengths.sum()))
            slot += np.repeat(
                templates.first[event_codes] - (np.cumsum(lengths) - lengths),
                lengths,
            )
            addrs = np.repeat(all_ids[start : start + _EMIT_EVENTS], lengths)
            addrs *= templates.stride[slot]
            addrs += templates.base[slot]
            tb.extend_arrays(addrs, templates.kind[slot])
        return tb.build()

    # -- trace ---------------------------------------------------------------

    @traced("apps.barneshut.force_phase")
    def trace_for_processor(self, pid: int) -> Trace:
        """Trace processor ``pid`` computing forces on its partition.

        Per body: read its position, walk the tree (an opened cell reads
        its center of mass, mass and child pointers; an accepted cell
        its center of mass, mass and quadrupole; a body-body interaction
        the other body's position and mass; every interaction churns the
        scratch buffer: read all of it, write half back), then write the
        acceleration back.
        """
        if not 0 <= pid < self.num_processors:
            raise IndexError("processor id out of range")
        tb = trace_builder()
        self.stats = WalkStats()
        scratch = [("scratch", i, READ) for i in range(SCRATCH_DOUBLEWORDS)] + [
            ("scratch", i, WRITE) for i in range(0, SCRATCH_DOUBLEWORDS, 2)
        ]
        com_mass = [("cell", offset, READ) for offset in range(4)]
        quad = [("cell", offset, READ) for offset in range(4, 10)]
        templates = self._templates(
            [
                [("body", offset, READ) for offset in range(3)],  # _START
                com_mass + [("cell", offset, READ) for offset in range(10, 14)],
                com_mass + (quad if self.quadrupole else []) + scratch,
                [("body", offset, READ) for offset in (0, 1, 2, 6)] + scratch,
                [("body", offset, WRITE) for offset in range(7, 10)],  # _END
            ],
            pid,
        )
        codes: List[int] = []
        ids: List[int] = []

        def visit(cell: Cell, event: str) -> None:
            if event == "body":
                codes.append(_BODY)
                ids.append(cell.body_index)
            else:
                codes.append(_OPEN if event == "open" else _ACCEPT)
                ids.append(cell.index)

        for body in self.partitions[pid]:
            body = int(body)
            codes.append(_START)
            ids.append(body)
            accelerate_body(
                self.tree,
                body,
                self.theta,
                quadrupole=self.quadrupole,
                stats=self.stats,
                visit=visit,
            )
            codes.append(_END)
            ids.append(body)
        return self._emit(tb, templates, codes, ids)

    # -- other phases (Section 6.4) ---------------------------------------

    def _body_owner(self, body: int) -> int:
        if not hasattr(self, "_owner_of_body"):
            owners = {}
            for pid, part in enumerate(self.partitions):
                for b in part:
                    owners[int(b)] = pid
            self._owner_of_body = owners
        return self._owner_of_body[body]

    def cell_owner(self, cell: Cell) -> int:
        """The processor responsible for a cell in the parallel build:
        the owner of the first body beneath it (leaves: the resident
        body's owner)."""
        node = cell
        while not node.is_leaf:
            node = next(c for c in node.children if c is not None)
        if node.body_index >= 0:
            return self._body_owner(node.body_index)
        return 0

    @traced("apps.barneshut.tree_build_phase")
    def build_trace_for_processor(self, pid: int) -> Trace:
        """Trace of the tree-build phase: processor ``pid`` inserts its
        bodies, walking root-to-leaf and updating child pointers.

        Each body's position is read; every traversed cell's child
        pointers are read and its body count is read-modify-written (as
        in the sequential algorithm); the last cell on the path also
        rewrites its child pointers (install the body / split the leaf).
        The upper tree cells are traversed (and, near the root, written)
        by every processor — the contention the paper cites when noting
        that "building the octree ... do[es] not yield quite as good
        speedups" (Section 6.4).
        """
        tb = trace_builder()
        step = [("cell", offset, READ) for offset in range(10, 14)] + [
            ("cell", 14, READ),
            ("cell", 14, WRITE),
        ]
        templates = self._templates(
            [
                [("body", offset, READ) for offset in range(3)],
                step,
                step + [("cell", offset, WRITE) for offset in range(10, 14)],
            ]
        )
        codes: List[int] = []
        ids: List[int] = []
        for body in self.partitions[pid]:
            body = int(body)
            path = self.tree.insertion_paths[body]
            codes.append(0)
            ids.append(body)
            codes.extend([1] * (len(path) - 1) + [2])
            ids.extend(path)
        return self._emit(tb, templates, codes, ids)

    @traced("apps.barneshut.moments_phase")
    def moments_trace_for_processor(self, pid: int) -> Trace:
        """Trace of the moment-computation phase: processor ``pid``
        computes mass/center-of-mass/quadrupole for the cells it owns,
        reading its children's records (which other processors wrote):
        a leaf reads its body's position and mass, an internal cell each
        child's center of mass, mass and quadrupole; then the cell writes
        its own moment fields."""
        tb = trace_builder()
        templates = self._templates(
            [
                [("body", offset, READ) for offset in (0, 1, 2, 6)],
                [("cell", offset, READ) for offset in range(10)],
                [("cell", offset, WRITE) for offset in range(10)],
            ]
        )
        codes: List[int] = []
        ids: List[int] = []
        for cell in self.tree.cells:
            if self.cell_owner(cell) != pid:
                continue
            if cell.is_leaf:
                if cell.body_index >= 0:
                    codes.append(0)
                    ids.append(cell.body_index)
            else:
                for child in cell.children:
                    if child is not None:
                        codes.append(1)
                        ids.append(child.index)
            codes.append(2)
            ids.append(cell.index)
        return self._emit(tb, templates, codes, ids)

    # -- summary quantities ---------------------------------------------------

    def interactions_per_body(self, pid: int = 0) -> float:
        """Average interactions per body in the partition (available
        after :meth:`trace_for_processor`)."""
        bodies = len(self.partitions[pid])
        if bodies == 0 or self.stats.interactions == 0:
            return 0.0
        return self.stats.interactions / bodies

    @property
    def dataset_bytes(self) -> int:
        return (
            len(self.bodies) * BODY_DOUBLEWORDS
            + self.tree.num_cells * CELL_DOUBLEWORDS
        ) * DOUBLE_WORD

    def bytes_per_body(self) -> float:
        """Total data per particle — the paper reports ~230 bytes with
        quadrupole moments."""
        return self.dataset_bytes / len(self.bodies)
