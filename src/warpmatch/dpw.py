"""Dynamic position warping: order-preserving alignment of 2D feature matrices.

The aligner pairs rows of the two matrices first (the hierarchical level)
and elements within each paired row second; both levels are lattice paths
under one set of boundary, monotonicity and unit-step rules.  The minimum
total element cost is the dpw distance (plain DTW on one-row matrices), and
the two-level path achieving it is recovered by backtracking the tables.

:func:`two_level_tables` is the one owner of that two-level volume layout:
:func:`dpw` is its single-pair case, and the batched distance matrix in
:mod:`warpmatch.swim` calls it once per chunk of stacked matrices.

Index convention: hierarchical path nodes carry 1-based indices in the
data model; everything internal is 0-based and converted at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .dtw import accumulate_tables, dtw_path
from .errors import ValidationError
from .matrix import _as_index, as_feature_array

_STEPS = ((1, 1), (1, 0), (0, 1))

# Largest element-distance block (float64 count) that two_level_tables
# copies into contiguous cells before the row-level DP.  On small blocks the
# DP is per-call overhead, which a strided cell about doubles, and the copy
# is cheap; on large ones a second array of the block's size costs more in
# memory traffic and page faults than the strided cells do.
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
        object.__setattr__(self, "cols", tuple((_as_index(a), _as_index(b)) for a, b in self.cols))


@dataclass(frozen=True)
class HiPa:
    """Hierarchical warping path: a sequence of paired rows with element pairs."""

    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def n_aligned(self) -> int:
        """Total number of aligned element pairs."""
        return sum(len(node.cols) for node in self.nodes)

    def aligned_pairs(self):
        """Yield (hs, ws, he, we) tuples, 1-based, in path order."""
        for node in self.nodes:
            for ws, we in node.cols:
                yield node.hs, ws, node.he, we

    def index_arrays(self) -> tuple:
        """The aligned pairs as four 0-based intp arrays (hs, ws, he, we)."""
        idx = np.array(list(self.aligned_pairs()), dtype=np.intp).reshape(-1, 4) - 1
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

    This is the order :func:`two_level_tables` expects for the sources of its
    element-distance block.
    """
    return np.ascontiguousarray(stack.transpose(2, 0, 1, 3)).reshape(-1, stack.shape[3])


def two_level_tables(costs: np.ndarray, n_s: int, shape_s, n_e: int, shape_e):
    """Both levels of accumulated tables for a batch of matrix pairs.

    ``costs`` is ``cdist(targets.reshape(-1, C), column_rows(sources))`` for
    ``n_e`` stacked (He, We, C) targets and ``n_s`` stacked (Hs, Ws, C)
    sources.  In that layout each (target column, source column) cell of the
    row-pair problems is a slab of the block whose rows run contiguously
    over all source rows, so the row level accumulates in the block itself
    (overwriting ``costs``) with no transposed copy; only blocks of at most
    ``_CONTIGUOUS_MAX`` entries are copied first.  The DP runs with the
    target column as first index; the recurrence is symmetric, so its
    tables are the transposes of the source-first ones, bit for bit.

    Returns ``(row_acc, hier_acc)``, both indexed source first:
    ``row_acc[:, :, s * Hs + h, t * He + f]`` is the DTW table of row h of
    source s against row f of target t, and ``hier_acc[:, :, s, t]`` the
    hierarchical table of that pair.
    """
    hs, ws = shape_s
    he, we = shape_e
    vol = costs.reshape(n_e * he, we, ws, n_s * hs).transpose(1, 2, 0, 3)
    if costs.size <= _CONTIGUOUS_MAX:
        vol = np.ascontiguousarray(vol).reshape(we, ws, -1)
    acc = accumulate_tables(vol).reshape(we, ws, n_e * he, n_s * hs)
    # A copy, not a view: acc[-1, -1] is part of the row tables that
    # backtracking reads, and accumulate_tables works in place.
    hier = acc[-1, -1].reshape(n_e, he, n_s, hs).transpose(3, 1, 2, 0).copy()
    accumulate_tables(hier.reshape(hs, he, -1))
    return acc.transpose(1, 0, 3, 2), hier


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
    c = a.shape[2]
    if b.shape[2] != c:
        raise ValidationError(f"channel mismatch: {c} vs {b.shape[2]}")
    row_acc, hier_acc = two_level_tables(
        cdist(b.reshape(-1, c), column_rows(a[None])), 1, a.shape[:2], 1, b.shape[:2])
    tables = DpwTables(hier_acc[:, :, 0, 0], row_acc)
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
    if tables.shape_s != (a.shape[0], a.shape[1]) or tables.shape_e != (b.shape[0], b.shape[1]):
        raise ValidationError("tables do not match the given matrices")

    first_level = dtw_path(tables.hier_acc)
    nodes = []
    for h, e0 in first_level:
        cols = tuple((i + 1, j + 1) for i, j in dtw_path(tables.row_table(h, e0)))
        nodes.append(PathNode(h + 1, e0 + 1, cols))
    return HiPa(tuple(nodes))


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
    return float(_pair_costs(a, b, hipa).sum())


def _pair_costs(a: np.ndarray, b: np.ndarray, hipa: HiPa) -> np.ndarray:
    """Euclidean distance of every aligned element pair, in path order."""
    hs, ws, he, we = hipa.index_arrays()
    diff = a[hs, ws] - b[he, we]
    return np.sqrt((diff * diff).sum(axis=1))


def validate_hipa(hipa: HiPa, shape_s, shape_e) -> list[str]:
    """Check a hierarchical path against the three path conditions.

    Returns a list of human-readable violations (empty when the path is
    valid): boundary (must span both matrices completely), monotonicity
    (indices never decrease) and step size (unit steps only), plus plain
    index-range checks, for the row path and then each row node's element path.
    """
    if not hipa.nodes:
        return ["boundary: path has no row nodes"]
    out = _lattice_violations([(node.hs, node.he) for node in hipa.nodes],
                              int(shape_s[0]), int(shape_e[0]), "row node {}")
    for l, node in enumerate(hipa.nodes, 1):
        if not node.cols:
            out.append(f"boundary: row node {l} has no element pairs")
            continue
        out += _lattice_violations(node.cols, int(shape_s[1]), int(shape_e[1]),
                                   f"element node {{}} of row node {l}")
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
