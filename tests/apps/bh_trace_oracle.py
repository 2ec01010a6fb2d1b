"""Per-reference Barnes-Hut trace emitters: the test oracle for the
columnar generator in :mod:`repro.apps.barnes_hut.trace`.

Each function emits one processor's phase trace one reference at a
time through ``ReferenceBuilder.read``/``write`` and bounds-checked
``Region.element`` addressing, exactly as the generator did before it
expanded per-event address templates with numpy.  The force trace
walks each body's tree with :func:`decisions`, the scalar stack walk
of :func:`~repro.apps.barnes_hut.force.accelerate_body` without its
force arithmetic, one body at a time.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.apps.barnes_hut.force import WalkStats
from repro.apps.barnes_hut.octree import Cell, Octree
from repro.apps.barnes_hut.trace import (
    BODY_DOUBLEWORDS,
    CELL_DOUBLEWORDS,
    SCRATCH_DOUBLEWORDS,
    BarnesHutTraceGenerator,
)
from tests.harness.builder import ReferenceBuilder


def _body_addr(gen: BarnesHutTraceGenerator, body: int, offset: int) -> int:
    return gen.body_region.element(body * BODY_DOUBLEWORDS + offset)


def _cell_addr(gen: BarnesHutTraceGenerator, cell, offset: int) -> int:
    return gen.cell_region.element(cell.index * CELL_DOUBLEWORDS + offset)


def _read_body_position(gen, tb, body: int) -> None:
    for offset in range(3):
        tb.read(_body_addr(gen, body, offset))


def _read_cell(gen, tb, cell, offsets) -> None:
    for offset in offsets:
        tb.read(_cell_addr(gen, cell, offset))


def _interaction_scratch(tb, scratch) -> None:
    for i in range(SCRATCH_DOUBLEWORDS):
        tb.read(scratch.element(i))
    for i in range(0, SCRATCH_DOUBLEWORDS, 2):
        tb.write(scratch.element(i))


def decisions(tree: Octree, body: int, theta: float) -> Iterator[Tuple[Cell, str]]:
    """``(cell, event)`` for each step of ``body``'s walk, in the order
    ``accelerate_body`` takes them; event is "open", "accept" or "body"."""
    position = tree.bodies.positions[body]
    stack = [tree.root]
    while stack:
        cell = stack.pop()
        if cell.count == 0 or cell.mass == 0.0:
            continue
        if cell.is_leaf:
            if cell.body_index != body:
                yield cell, "body"
            continue
        delta = cell.com - position
        distance = float(np.sqrt(delta @ delta)) + 1e-300
        if cell.side / distance < theta:
            yield cell, "accept"
        else:
            yield cell, "open"
            stack.extend(child for child in cell.children if child is not None)


def walk_stats(tree: Octree, bodies, theta: float) -> WalkStats:
    """The open/accept/body counts of :func:`decisions` over ``bodies``."""
    stats = WalkStats()
    for body in bodies:
        for _, event in decisions(tree, int(body), theta):
            if event == "open":
                stats.cells_opened += 1
            elif event == "accept":
                stats.body_cell_interactions += 1
            else:
                stats.body_body_interactions += 1
    return stats


def force_trace(gen: BarnesHutTraceGenerator, pid: int):
    """Processor ``pid`` computing forces on its partition."""
    tb = ReferenceBuilder()
    scratch = gen.scratch_regions[pid]
    for body in gen.partitions[pid]:
        body = int(body)
        _read_body_position(gen, tb, body)
        for cell, event in decisions(gen.tree, body, gen.theta):
            if event == "open":
                _read_cell(gen, tb, cell, range(4))
                _read_cell(gen, tb, cell, range(10, 14))
            elif event == "accept":
                _read_cell(gen, tb, cell, range(4))
                if gen.quadrupole:
                    _read_cell(gen, tb, cell, range(4, 10))
                _interaction_scratch(tb, scratch)
            else:  # body-body
                _read_body_position(gen, tb, cell.body_index)
                tb.read(_body_addr(gen, cell.body_index, 6))  # mass
                _interaction_scratch(tb, scratch)
        for offset in range(7, 10):  # acceleration write-back
            tb.write(_body_addr(gen, body, offset))
    return tb.build()


def build_trace(gen: BarnesHutTraceGenerator, pid: int):
    """Processor ``pid`` inserting its bodies into the octree."""
    tb = ReferenceBuilder()
    cells = gen.tree.cells
    for body in gen.partitions[pid]:
        body = int(body)
        _read_body_position(gen, tb, body)
        path = gen.tree.insertion_paths[body]
        for step, cell_index in enumerate(path):
            cell = cells[cell_index]
            _read_cell(gen, tb, cell, range(10, 14))
            tb.read(_cell_addr(gen, cell, 14))
            tb.write(_cell_addr(gen, cell, 14))
            if step == len(path) - 1:
                for offset in range(10, 14):
                    tb.write(_cell_addr(gen, cell, offset))
    return tb.build()


def moments_trace(gen: BarnesHutTraceGenerator, pid: int):
    """Processor ``pid`` computing the moments of the cells it owns."""
    tb = ReferenceBuilder()
    for cell in gen.tree.cells:
        if gen.cell_owner(cell) != pid:
            continue
        if cell.is_leaf:
            if cell.body_index >= 0:
                _read_body_position(gen, tb, cell.body_index)
                tb.read(_body_addr(gen, cell.body_index, 6))  # mass
        else:
            for child in cell.children:
                if child is None:
                    continue
                _read_cell(gen, tb, child, range(4))
                _read_cell(gen, tb, child, range(4, 10))
        for offset in range(10):
            tb.write(_cell_addr(gen, cell, offset))
    return tb.build()
