"""Dynamic time warping over sequences of feature elements.

The accumulated-cost table is always kept in full because the hierarchical
aligner backtracks through interior prefix values.  One accumulation kernel,
:func:`accumulate_tables`, is the only alignment DP in the library: it
powers plain DTW here and both levels of
:func:`warpmatch.dpw.two_level_tables`, which owns the two-level volume
layout for ``dpw`` and the batched distance matrix.  It runs the recurrence
over a whole batch of problems at once and in place, which is what makes
plain numpy fast enough here.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ValidationError


def _as_rows(row) -> np.ndarray:
    arr = np.asarray(row, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValidationError("expected a nonempty sequence of feature elements")
    return arr


def accumulate_tables(vol: np.ndarray) -> np.ndarray:
    """Accumulated-cost tables for a batch of alignment problems, in place.

    ``vol[i, j, ...]`` is the local cost of pairing position i with position
    j, one problem per index of the trailing axes; ``vol`` may be a strided
    view.  It is overwritten with its tables and returned: they obey the
    running-sum boundary cases and the interior recurrence
    ``acc[i, j] = min(acc[i-1, j-1], acc[i-1, j], acc[i, j-1]) + vol[i, j]``.
    Callers that only need the final costs read ``[-1, -1]``.
    """
    n, m = vol.shape[:2]
    for i in range(1, n):
        cell = vol[i, 0]
        cell += vol[i - 1, 0]
    for j in range(1, m):
        cell = vol[0, j]
        cell += vol[0, j - 1]
    for i in range(1, n):
        prev = vol[i - 1]
        cur = vol[i]
        for j in range(1, m):
            best = np.minimum(prev[j - 1], prev[j])
            np.minimum(best, cur[j - 1], out=best)
            # One view as input and output skips numpy's overlap check.
            cell = cur[j]
            cell += best
    return vol


def dtw(row_a, row_b) -> tuple[float, np.ndarray]:
    """Dynamic time warping distance between two element sequences.

    Parameters
    ----------
    row_a, row_b : array-like
        Sequences of feature elements, shape (n, C); 1-D input is treated
        as a scalar sequence.

    Returns
    -------
    (distance, table)
        ``distance`` is the alignment cost; ``table`` is the full read-only
        accumulated-cost matrix with ``table[i, j]`` the cost of aligning the
        first i+1 elements of ``row_a`` with the first j+1 of ``row_b``.
    """
    a = _as_rows(row_a)
    b = _as_rows(row_b)
    if a.shape[1] != b.shape[1]:
        raise ValidationError(f"channel mismatch: {a.shape[1]} vs {b.shape[1]}")
    vol = cdist(a, b)[:, :, None]
    table = accumulate_tables(vol)[:, :, 0]
    table.flags.writeable = False
    return float(table[-1, -1]), table


def dtw_path(table: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost warping path recovered from an accumulated-cost table.

    Returns 0-based (i, j) index pairs from (0, 0) to the last cell.  Ties
    prefer the diagonal predecessor, then stepping back in the first index,
    then in the second.
    """
    n, m = table.shape
    i, j = n - 1, m - 1
    path = [(i, j)]
    while i or j:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best = (i - 1, j - 1)
            value = table[best]
            for cand in ((i - 1, j), (i, j - 1)):
                if table[cand] < value:
                    best, value = cand, table[cand]
            i, j = best
        path.append((i, j))
    path.reverse()
    return path
