"""Dynamic position warping: order-preserving alignment of 2D feature matrices.

The aligner pairs rows of the two matrices first (the hierarchical level)
and elements within each paired row second; both levels are lattice paths
under one set of boundary, monotonicity and unit-step rules.  The minimum
total element cost is the dpw distance (plain DTW on one-row matrices), and
the two-level path achieving it is recovered by backtracking the tables.

:func:`dpw` keeps the full tables of both levels for backtracking.  The
distance matrix in :mod:`warpmatch.swim` needs only distances, so it streams
the same element-distance layout one target column at a time, keeping two
rows of cells, and shares the row-pair view and the hierarchical level with it.

Index convention: hierarchical path nodes carry 1-based indices in the
data model; everything internal is 0-based and converted at the boundary.
One private walk backtracks both levels and one flattener turns row nodes
into four index arrays; the inner loop and ``dpw align`` read their pairs
from the walk directly, and only :func:`optimal_hipa` wraps it in a ``HiPa``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .dtw import accumulate_tables, dtw_path
from .errors import ValidationError
from .matrix import _as_index, _as_pairs, _check_type, as_feature_array

_STEPS = ((1, 1), (1, 0), (0, 1))

# Largest element-distance block (float64 count) that dpw copies into
# contiguous cells before the row-level DP.  Median process CPU on a 2-vCPU
# host: below it the copy wins (36 align-like pairs, 6..14 at C=160: 51.1 ms
# against 54.7 ms strided); from 160,000 floats up strided cells tie or win
# (20x20x8: 4.5 against 5.2 ms copied; 48x48x4: 47.3 against 51.2 ms).
_CONTIGUOUS_MAX = 1 << 16


@dataclass(frozen=True)
class PathNode:
    """One paired row (hs, he) and its within-row element pairs, 1-based."""

    hs: int
    he: int
    cols: tuple

    def __post_init__(self):
        object.__setattr__(self, "hs", _as_index(self.hs))
        object.__setattr__(self, "he", _as_index(self.he))
        pairs = _as_pairs(self.cols, "cols must be a sequence of (ws, we) index pairs")
        object.__setattr__(self, "cols", tuple((_as_index(a), _as_index(b)) for a, b in pairs))


@dataclass(frozen=True)
class HiPa:
    """Hierarchical warping path: a sequence of paired rows with element pairs."""

    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not all(isinstance(node, PathNode) for node in self.nodes):
            raise ValidationError("HiPa nodes must be PathNode values")

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def n_aligned(self) -> int:
        """Total number of aligned element pairs."""
        return sum(len(node.cols) for node in self.nodes)

    def index_arrays(self) -> tuple:
        """The aligned pairs as four 0-based intp arrays (hs, ws, he, we), in path order."""
        return _flatten(((node.hs, node.he, node.cols) for node in self.nodes), 1)


def _flatten(nodes, base: int = 0) -> tuple:
    """``(h, e, cols)`` row nodes with indices from ``base`` as four 0-based
    intp arrays (hs, ws, he, we), one entry per element pair in path order."""
    idx = np.array([(h, w, e, v) for h, e, cols in nodes for w, v in cols],
                   dtype=np.intp).reshape(-1, 4) - base
    return tuple(idx.T)


@dataclass(frozen=True, eq=False)
class DpwTables:
    """Intermediate tables of one dpw run, retained for backtracking.

    ``hier_acc[h, e]`` is the minimum alignment cost of the first h+1 rows of
    the first matrix against the first e+1 rows of the second.  ``row_tables``
    holds the per-row-pair accumulated DTW tables as a (Ws, We, Hs, He) volume.
    """

    hier_acc: np.ndarray
    row_tables: np.ndarray

    @property
    def distance(self) -> float:
        return float(self.hier_acc[-1, -1])

    @property
    def shape_s(self) -> tuple[int, int]:
        return self.row_tables.shape[2], self.row_tables.shape[0]

    @property
    def shape_e(self) -> tuple[int, int]:
        return self.row_tables.shape[3], self.row_tables.shape[1]

    def row_table(self, h: int, e: int) -> np.ndarray:
        """Accumulated DTW table for row h of the source vs row e of the target."""
        return self.row_tables[:, :, h, e]


def column_rows(stack: np.ndarray) -> np.ndarray:
    """The elements of an (N, H, W, C) stack as rows ordered by column, matrix, row.

    This is the order of the sources in the element-distance blocks of
    :func:`dpw` and of the distance matrix.
    """
    return np.ascontiguousarray(stack.transpose(2, 0, 1, 3)).reshape(-1, stack.shape[3])


def _row_pair_volume(costs: np.ndarray, we: int, ws: int) -> np.ndarray:
    """``costs``, the distances of ``we`` columns of one (He, We, C) target's
    elements (row-major) to :func:`column_rows` of (Hs, Ws, C) sources, as a
    view: the (We, Ws, He, sources * Hs) volume of row-pair problems.

    Each (target column, source column) cell is a slab of the block whose
    rows run contiguously over all source rows, so the row level accumulates
    in the block itself, with no transposed copy.
    """
    return costs.reshape(-1, we, ws, costs.shape[1] // ws).transpose(1, 2, 0, 3)


def _hier_tables(last: np.ndarray, hs: int) -> np.ndarray:
    """The hierarchical level: ``last`` is the last cell of the row level, a
    (He, sources * Hs) block of row-pair distances, and the result
    ``hier[:, :, s]`` is the accumulated hierarchical table of source s."""
    # A copy, not a view: last is part of the row tables that backtracking
    # reads, and accumulate_tables works in place.
    return accumulate_tables(last.reshape(len(last), -1, hs).transpose(2, 0, 1).copy())


def dpw(s, e) -> tuple[float, DpwTables]:
    """Dynamic position warping distance between two feature matrices.

    Parameters
    ----------
    s, e : FeatureMatrix or array-like
        Matrices of shape (H, W, C) with a shared channel count; 2-D input
        is treated as scalar-element (C=1).

    Returns
    -------
    (distance, tables)
        One-row matrices give plain DTW: ``dpw(a[None], b[None])`` for (W, C)
        rows, with ``tables.row_table(0, 0)`` their accumulated-cost table.
    """
    a = as_feature_array(s)
    b = as_feature_array(e)
    (hs, ws, c), (he, we) = a.shape, b.shape[:2]
    if b.shape[2] != c:
        raise ValidationError(f"channel mismatch: {c} vs {b.shape[2]}")
    costs = cdist(b.reshape(-1, c), column_rows(a[None]))
    vol = _row_pair_volume(costs, we, ws)
    if costs.size <= _CONTIGUOUS_MAX:
        vol = np.ascontiguousarray(vol).reshape(we, ws, -1)
    # The DP runs with the target column as first index; the recurrence is
    # symmetric, so its tables are the transposes of the source-first ones.
    acc = accumulate_tables(vol).reshape(we, ws, he, hs)
    tables = DpwTables(_hier_tables(acc[-1, -1], hs)[:, :, 0], acc.transpose(1, 0, 3, 2))
    return tables.distance, tables


def optimal_hipa(s, e, tables: DpwTables | None = None) -> HiPa:
    """Minimum-cost hierarchical warping path between two feature matrices.

    ``tables`` must come from ``dpw(s, e)``; when omitted it is computed
    here.  Ties prefer the diagonal predecessor, then the row/element of
    the first matrix, then of the second.
    """
    a = as_feature_array(s)
    b = as_feature_array(e)
    if tables is None:
        _, tables = dpw(s, e)
    _check_type(tables, DpwTables, "tables")
    if tables.shape_s != (a.shape[0], a.shape[1]) or tables.shape_e != (b.shape[0], b.shape[1]):
        raise ValidationError("tables do not match the given matrices")

    return HiPa(tuple(PathNode(h + 1, e0 + 1, tuple((i + 1, j + 1) for i, j in cols))
                      for h, e0, cols in _walk(tables)))


def _walk(tables: DpwTables) -> list:
    """The optimal two-level path as 0-based ``(h, e, element path)`` row nodes."""
    return [(h, e, dtw_path(tables.row_table(h, e))) for h, e in dtw_path(tables.hier_acc)]


def path_cost(s, e, hipa: HiPa) -> float:
    """Total element distance accumulated along a hierarchical warping path.

    The path is validated against the matrix dimensions first; an invalid
    path raises ValidationError naming the first violated condition.
    """
    a = as_feature_array(s)
    b = as_feature_array(e)
    violations = validate_hipa(hipa, (a.shape[0], a.shape[1]), (b.shape[0], b.shape[1]))
    if violations:
        raise ValidationError(violations[0])
    return float(_pair_costs(a, b, *hipa.index_arrays()).sum())


def _pair_costs(a: np.ndarray, b: np.ndarray, hs, ws, he, we) -> np.ndarray:
    """Euclidean distance of every aligned element pair, given as 0-based index arrays."""
    diff = a[hs, ws] - b[he, we]
    return np.sqrt((diff * diff).sum(axis=1))


def validate_hipa(hipa: HiPa, shape_s, shape_e) -> list[str]:
    """Check a hierarchical path against the three path conditions.

    Returns a list of human-readable violations (empty when the path is
    valid): boundary (must span both matrices completely), monotonicity
    (indices never decrease) and step size (unit steps only), plus plain
    index-range checks, for the row path and then each row node's element path.
    The shapes are (rows, columns) pairs of integers >= 1.
    """
    _check_type(hipa, HiPa, "hipa")
    (hs, ws), (he, we) = _as_pairs((shape_s, shape_e),
                                   "shape_s and shape_e must be (rows, columns) pairs")
    hs, ws = (_as_index(n, "each entry of shape_s", 1) for n in (hs, ws))
    he, we = (_as_index(n, "each entry of shape_e", 1) for n in (he, we))
    if not hipa.nodes:
        return ["boundary: path has no row nodes"]
    out = _lattice_violations([(node.hs, node.he) for node in hipa.nodes], hs, he, "row node {}")
    for l, node in enumerate(hipa.nodes, 1):
        if not node.cols:
            out.append(f"boundary: row node {l} has no element pairs")
            continue
        out += _lattice_violations(node.cols, ws, we, f"element node {{}} of row node {l}")
    return out


def _lattice_violations(points, n: int, m: int, label: str) -> list[str]:
    """Violations of one nonempty path of 1-based points from (1,1) to (n,m);
    ``label.format(k)`` names point k; boundary messages leave out the number."""
    out = [f"range: {label.format(k)} ({i},{j}) outside [1,{n}]x[1,{m}]"
           for k, (i, j) in enumerate(points, 1) if not (1 <= i <= n and 1 <= j <= m)]
    for end, (i, j), want in (("first", points[0], (1, 1)), ("last", points[-1], (n, m))):
        if (i, j) != want:
            out.append(f"boundary: {end} {label.replace(' {}', '')} is ({i},{j}), "
                       f"expected ({want[0]},{want[1]})")
    for k, ((i0, j0), (i1, j1)) in enumerate(zip(points, points[1:]), 2):
        di, dj = i1 - i0, j1 - j0
        if di < 0 or dj < 0:
            out.append(f"monotonicity: {label.format(k)} steps backwards ({di},{dj})")
        if (di, dj) not in _STEPS:
            out.append(f"step size: {label.format(k)} delta ({di},{dj}) not in "
                       "{(1,0),(0,1),(1,1)}")
    return out
