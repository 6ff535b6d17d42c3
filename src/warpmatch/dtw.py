"""The alignment DP kernel and its backtrack.

:func:`accumulate_tables` is the only alignment DP in the library: it runs
the DTW recurrence over a batch of problems at once and in place, which is
what makes plain numpy fast enough.  It powers both levels of
:func:`warpmatch.dpw.two_level_tables` (plain DTW of two element rows is
``dpw`` on one-row matrices).  The tables are kept in full because
:func:`dtw_path` backtracks through interior prefix values.
"""

from __future__ import annotations

import numpy as np


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
