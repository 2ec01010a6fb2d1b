"""Per-reference Barnes-Hut trace emitters: the test oracle for the
columnar generator in :mod:`repro.apps.barnes_hut.trace`.

Each function emits one processor's phase trace one reference at a
time through ``TraceBuilder.read``/``write`` and bounds-checked
``Region.element`` addressing, exactly as the generator did before it
expanded per-event address templates with numpy.
"""

from __future__ import annotations

from repro.apps.barnes_hut.force import WalkStats, accelerate_body
from repro.apps.barnes_hut.trace import (
    BODY_DOUBLEWORDS,
    CELL_DOUBLEWORDS,
    SCRATCH_DOUBLEWORDS,
    BarnesHutTraceGenerator,
)
from repro.mem.shards import trace_builder


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


def force_trace(gen: BarnesHutTraceGenerator, pid: int):
    """Processor ``pid`` computing forces on its partition."""
    tb = trace_builder()
    stats = WalkStats()
    scratch = gen.scratch_regions[pid]

    def visit(cell, event: str) -> None:
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

    for body in gen.partitions[pid]:
        body = int(body)
        _read_body_position(gen, tb, body)
        accelerate_body(
            gen.tree,
            body,
            gen.theta,
            quadrupole=gen.quadrupole,
            stats=stats,
            visit=visit,
        )
        for offset in range(7, 10):  # acceleration write-back
            tb.write(_body_addr(gen, body, offset))
    return tb.build()


def build_trace(gen: BarnesHutTraceGenerator, pid: int):
    """Processor ``pid`` inserting its bodies into the octree."""
    tb = trace_builder()
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
    tb = trace_builder()
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
