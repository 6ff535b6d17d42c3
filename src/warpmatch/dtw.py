"""The alignment DP kernel and its backtrack.

:func:`accumulate_tables` is the only alignment DP in the library: it runs
the DTW recurrence over a batch of problems at once and in place, a whole
anti-diagonal per numpy call, which is what makes plain numpy fast enough.
It powers both levels of :func:`warpmatch.dpw.dpw` (plain DTW of two element
rows is ``dpw`` on one-row matrices).  There the tables are kept in full
because :func:`dtw_path` backtracks through interior prefix values; the
batched distance matrix, which needs only the last cells, gives it one row at
a time with the accumulated row above as ``prev``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .matrix import _as_float_array


def accumulate_tables(vol: np.ndarray, prev: np.ndarray | None = None) -> np.ndarray:
    """Accumulated-cost tables for a batch of alignment problems, in place.

    ``vol[i, j, ...]`` is the local cost of pairing position i with position
    j, one problem per index of the trailing axes (a 2-D ``vol`` is one
    problem); ``vol`` may be a strided view whose first two axes merge
    (``strides[0] == m * strides[1]``).  It is overwritten with its tables and
    returned: the first row and column become running sums and
    ``acc[i, j] = min(acc[i-1, j-1], acc[i-1, j], acc[i, j-1]) + vol[i, j]``
    fills the rest, so each anti-diagonal needs only the two before it.  Each
    numpy call does one anti-diagonal of every problem.

    ``prev``, shaped like ``vol[0]``, is the accumulated row above ``vol``:
    the first row then continues that table instead of starting one, so a
    table accumulated a few rows per call, each call given the last row of
    the one before, equals the table accumulated at once, bit for bit.
    """
    n, m = vol.shape[:2]
    if min(n, m) > 1 and vol.strides[0] != m * vol.strides[1]:
        raise ValueError(f"the first two axes of vol do not merge: strides {vol.strides}")
    if prev is not None and prev.shape != vol.shape[1:]:
        raise ValueError(f"prev has shape {prev.shape}, not that of a row {vol.shape[1:]}")
    # A unit trailing axis on a 2-D volume makes its cells views, so the
    # in-place updates below reach it.  np.add.accumulate along the edges loops
    # once per problem inside, several times slower on the batched matrices'
    # thousands of problems.
    cells = vol[..., None] if vol.ndim == 2 else vol
    row = cells[0]
    if prev is None:
        for j in range(1, m):
            cell = row[j]
            cell += row[j - 1]
    else:
        above = prev[..., None] if vol.ndim == 2 else prev
        cell = row[0]
        cell += above[0]
        for j in range(1, m):
            _relax(row[j], above[j - 1], above[j], row[j - 1])
    for i in range(1, n):
        cell = cells[i, 0]
        cell += cells[i - 1, 0]
    if min(n, m) < 2:
        return vol
    # Cell (i, j) is flat[i * m + j], so an anti-diagonal i + j = d is one slice of step m - 1.
    flat = cells.reshape(n * m, *cells.shape[2:])
    for d in range(2, n + m - 1):
        k = d + max(1, d - m + 1) * (m - 1)
        end = d + min(n - 1, d - 1) * (m - 1) + 1
        _relax(flat[k:end:m - 1], flat[k - m - 1:end - m - 1:m - 1],
               flat[k - m:end - m:m - 1], flat[k - 1:end - 1:m - 1])
    return vol


def _relax(cell, diag, up, left) -> None:
    """``cell += min(diag, up, left)`` in place: the recurrence on one run of cells."""
    best = np.minimum(diag, up)
    np.minimum(best, left, out=best)
    # One view as input and output skips numpy's overlap check.
    cell += best


def dtw_path(table: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost warping path recovered from an accumulated-cost table.

    Returns 0-based (i, j) index pairs from (0, 0) to the last cell.  Inside
    the table each step takes the cheapest predecessor, ties preferring the
    diagonal, then stepping back in the first index, then in the second; once
    the walk reaches the first row or column, it runs straight to (0, 0).
    A table not 2-D, empty or non-finite raises ValidationError.
    """
    table = _as_float_array(table, "table")
    if table.ndim != 2 or not table.size or not np.isfinite(table).all():
        raise ValidationError(f"table must be 2-D, nonempty and finite; got shape {table.shape}")
    i, j = table.shape[0] - 1, table.shape[1] - 1
    path = [(i, j)]
    while i and j:
        diag, up, left = table[i - 1, j - 1], table[i - 1, j], table[i, j - 1]
        if diag <= up and diag <= left:
            i, j = i - 1, j - 1
        elif up <= left:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path += [(k, 0) for k in range(i - 1, -1, -1)] + [(0, k) for k in range(j - 1, -1, -1)]
    path.reverse()
    return path
