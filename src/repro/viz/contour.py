"""Marching-squares iso-contour extraction.

Used to outline eddy cores (the ``W = -0.2 σ_W`` level) on rendered frames.
Returns open/closed polylines in fractional grid coordinates ``(row, col)``.

The extraction is array-at-a-time: corner cases, saddle centers and edge
crossings (linear interpolation along each crossed edge) are computed as
NumPy arrays, only for the cells a contour crosses, and the resulting
segments are then chained into polylines by shared endpoint.  Saddle cells
(cases 5 and 10) are disambiguated by the cell-center average, the standard
approach.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["marching_squares"]

# For each of the 16 corner-sign cases, the pairs of cell edges the contour
# crosses.  Corner bits: 1 = top-left, 2 = top-right, 4 = bottom-right,
# 8 = bottom-left ("above" corners).  Edges: 0 = top, 1 = right, 2 = bottom,
# 3 = left.  A case and its complement cross the same edges.
_CASES: dict[int, tuple[tuple[int, int], ...]] = {
    0: (),
    1: ((3, 0),),          # TL isolated
    2: ((0, 1),),          # TR isolated
    3: ((3, 1),),          # top half above
    4: ((1, 2),),          # BR isolated
    5: ((3, 0), (1, 2)),   # saddle; resolved at runtime by cell center
    6: ((0, 2),),          # right half above
    7: ((3, 2),),          # all but BL
    8: ((3, 2),),          # BL isolated
    9: ((0, 2),),          # left half above
    10: ((0, 1), (3, 2)),  # saddle; resolved at runtime by cell center
    11: ((1, 2),),         # all but BR
    12: ((3, 1),),         # bottom half above
    13: ((0, 1),),         # all but TR
    14: ((3, 0),),         # all but TL
    15: (),
}


# Edge e of cell (r, c) starts at corner (r + _EDGE_DR[e], c + _EDGE_DC[e]) and
# runs one step down the rows (right and left edges) or along the columns (top
# and bottom edges).
_EDGE_DR = np.array([0, 0, 1, 0])
_EDGE_DC = np.array([0, 1, 0, 0])
_ALONG_ROWS = np.array([False, True, False, True])

# _CASES as arrays: pair count and (pair, end) -> edge for each case.
_PAIR_COUNT = np.array([len(_CASES[case]) for case in range(16)])
_PAIR_EDGES = np.array(
    [list(_CASES[case]) + [(0, 0)] * (2 - len(_CASES[case])) for case in range(16)]
)


def marching_squares(field: np.ndarray, level: float) -> list[np.ndarray]:
    """Extract iso-contour polylines of ``field`` at ``level``.

    Returns a list of ``(n, 2)`` float arrays of ``(row, col)`` vertices.
    Cells where a corner equals ``level`` exactly are nudged by a tiny
    epsilon to avoid degenerate intersections.  Segments are generated cell
    by cell in row-major order, each cell's pairs in ``_CASES`` order, and a
    crossing on an edge from corner ``a`` to corner ``b`` lies at
    ``t = (level - a) / (b - a)`` along it.
    """
    f = np.asarray(field, dtype=float)
    if f.ndim != 2 or f.shape[0] < 2 or f.shape[1] < 2:
        raise ConfigurationError(f"field must be at least 2x2, got {f.shape}")
    # Nudge exact hits off the level so interpolation is well defined.
    eps = 1e-12 * (np.abs(f).max() + 1.0)
    f = np.where(f == level, f + eps, f)
    above = (f > level).astype(np.uint8)
    case = (
        above[:-1, :-1]
        | (above[:-1, 1:] << 1)
        | (above[1:, 1:] << 2)
        | (above[1:, :-1] << 3)
    )
    # Only cells the contour crosses; np.nonzero keeps row-major order.
    r, c = np.nonzero((case != 0) & (case != 15))
    cases = case[r, c].astype(np.intp)
    saddle = np.flatnonzero((cases == 5) | (cases == 10))
    if saddle.size:
        sr, sc = r[saddle], c[saddle]
        center = 0.25 * (((f[sr, sc] + f[sr, sc + 1]) + f[sr + 1, sc]) + f[sr + 1, sc + 1])
        # A saddle whose center is above the level joins the above corners
        # across the cell, so it takes the other saddle case's pairs.
        cases[saddle] = np.where(center > level, 15 - cases[saddle], cases[saddle])
    counts = _PAIR_COUNT[cases]
    cell = np.repeat(np.arange(len(cases)), counts)
    pair = np.arange(len(cell)) - (np.cumsum(counts) - counts)[cell]
    # Segment i's two endpoints are nodes 2i and 2i + 1.
    edge = _PAIR_EDGES[cases[cell], pair].ravel()
    node_cell = np.repeat(cell, 2)
    along = _ALONG_ROWS[edge]
    ar = r[node_cell] + _EDGE_DR[edge]
    ac = c[node_cell] + _EDGE_DC[edge]
    a = f[ar, ac]
    t = (level - a) / (f[ar + along, ac + ~along] - a)
    vertices = np.stack([np.where(along, ar + t, ar), np.where(along, ac, ac + t)], axis=1)
    return _chain_segments(vertices)


def _chain_segments(vertices: np.ndarray) -> list[np.ndarray]:
    """Join shared-endpoint segments into polylines.

    Segment ``i`` runs from ``vertices[2i]`` to ``vertices[2i + 1]``.  Two
    endpoints are shared when their coordinates agree after rounding to
    millionths (``np.rint(p * 1e6)``, half to even).  Each unused segment
    starts a chain that grows from its tail, then from its head, always
    taking the first unused segment (in endpoint order) at the tip.
    """
    if not len(vertices):
        return []
    if not np.isfinite(vertices).all():
        bad = int(np.flatnonzero(~np.isfinite(vertices).all(axis=1))[0])
        raise ConfigurationError(
            f"non-finite contour vertex {tuple(vertices[bad].tolist())} "
            f"(segment {bad // 2}); the field must be finite where it crosses the level"
        )
    keys = np.rint(vertices * 1e6)
    # Group the endpoints by key; the stable sort keeps each group in node order.
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    new_group = np.ones(len(order), dtype=bool)
    new_group[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    bounds = np.flatnonzero(np.append(new_group, True))
    group = np.cumsum(new_group) - 1
    first = np.empty(len(order), dtype=np.intp)
    last = np.empty(len(order), dtype=np.intp)
    first[order] = bounds[group]
    last[order] = bounds[group + 1]
    nodes, first, last = order.tolist(), first.tolist(), last.tolist()

    used = bytearray(len(nodes) // 2)
    polylines: list[np.ndarray] = []
    for start in range(len(used)):
        if used[start]:
            continue
        used[start] = 1
        tail = [2 * start, 2 * start + 1]
        head: list[int] = []
        # Extend forward from the tail, then backward from the head.
        for tip, grown in ((2 * start + 1, tail), (2 * start, head)):
            while True:
                for p in range(first[tip], last[tip]):
                    node = nodes[p]
                    if not used[node >> 1]:
                        break
                else:
                    break
                used[node >> 1] = 1
                tip = node ^ 1
                grown.append(tip)
        head.reverse()
        polylines.append(vertices[head + tail])
    return polylines
