"""Outer self-reinforcing loop: grow the candidate pair set, refine, repeat.

Every outer iteration rebuilds the candidate set from scratch: among the
still-unassigned emerging matrices it greedily takes the one whose best
alignment distance to any seen matrix (under the current adapter) is
smallest, pairs it with that seen matrix, and once the set has reached
its per-iteration quota hands it to the inner loop.  The quota grows by
``alpha`` per iteration and clamps at N, so the loop runs exactly
ceil(N / alpha) times.

The distance-matrix driver groups the seen matrices by shape and deals
work items, one seen group and one target each, to pool threads.  A thread
streams each item one target column at a time: one ``cdist`` writes that
column's row of cells into one half of the block it owns for the call, and
:func:`warpmatch.dtw.accumulate_tables` accumulates it against the row above,
in the other half.  The last row's last cells feed the hierarchical level
that :func:`warpmatch.dpw.dpw` also runs, so every entry equals ``dpw`` bit
for bit, for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .adapter import TrainConfig, adapt_matrix, init_adapter
from .dpw import _hier_tables, _row_pair_volume, column_rows
from .dtw import accumulate_tables
from .errors import ValidationError
from .matrix import _as_index, _as_matrix_list, _check_fields, _check_type, as_feature_array
from .sloma import MatchedPairSet, run_sloma

# Cap on one worker's two rows of cells (float64 count, 8 MiB), unless one seen
# matrix against one target needs more (2 * He * Ws * Hs floats).  Each worker
# gets one block of the largest item's size per call and reuses it for all
# its items, so a call holds ``workers`` blocks.
_CHUNK_BUDGET = 1 << 20


@dataclass(frozen=True)
class SwimConfig:
    """Knobs of the outer loop.

    Checked on construction: ``alpha``, ``hidden`` >= 1; ``max_sloma_iters``,
    ``seed`` >= 0; ``eps`` in (0, inf); ``train`` a :class:`TrainConfig`.
    """

    alpha: int = 1
    eps: float = 1e-3
    hidden: int = 64
    train: TrainConfig = field(default_factory=TrainConfig)
    max_sloma_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, alpha=1, eps="(0, inf)", hidden=1, max_sloma_iters=0, seed=0)
        _check_type(self.train, TrainConfig, "train")


@dataclass(frozen=True)
class SwimStep:
    """One outer iteration: the pair set built, its selection distances
    (nondecreasing by construction), accuracies when class ids were supplied,
    and the inner-loop trace."""

    iteration: int
    n_pairs: int
    pairs: MatchedPairSet
    pair_distances: tuple
    top1: float | None
    top5: float | None
    inner: tuple


# ---------------------------------------------------------------------------
# Distance-matrix driver

def dpw_distance_matrix(seen, emerging, workers: int = 1) -> np.ndarray:
    """Alignment distance between every seen and every emerging matrix.

    Entry (i, j) equals ``dpw(seen[i], emerging[j])[0]`` exactly; evaluation
    order, batching and the worker count never change the result.  Items
    are dealt round-robin to ``workers`` threads, the calling thread being
    the first (numpy and ``cdist`` release the GIL); each thread reuses one
    block of two rows of cells and fills disjoint entries.
    """
    workers = _as_index(workers, "workers", 1)
    arrs_a = [as_feature_array(m) for m in _as_matrix_list(seen, "seen")]
    arrs_b = [as_feature_array(m) for m in _as_matrix_list(emerging, "emerging")]
    if not arrs_a or not arrs_b:
        raise ValidationError("distance matrix needs nonempty matrix sets")
    channels = {a.shape[2] for a in arrs_a} | {b.shape[2] for b in arrs_b}
    if len(channels) != 1:
        raise ValidationError(f"channel mismatch across matrices: {sorted(channels)}")
    groups: dict[tuple, list[int]] = {}
    for i, arr in enumerate(arrs_a):
        groups.setdefault(arr.shape[:2], []).append(i)
    he_max = max(b.shape[0] for b in arrs_b)
    items = []  # (seen indices, their column_rows, emerging index)
    block_size = 0
    for (hs, ws), ia in groups.items():
        # Seen sub-groups whose two rows of cells for one target fit the budget.
        sub = max(1, _CHUNK_BUDGET // (2 * he_max * ws * hs))
        for part in (ia[k:k + sub] for k in range(0, len(ia), sub)):
            rows_a = column_rows(np.stack([arrs_a[i] for i in part]))
            items += [(part, rows_a, j) for j in range(len(arrs_b))]
            block_size = max(block_size, 2 * he_max * len(rows_a))
    out = np.empty((len(arrs_a), len(arrs_b)))

    def fill(part, block):
        for ia, rows_a, j in part:
            hs, ws = arrs_a[ia[0]].shape[:2]
            size = arrs_b[j].shape[0] * len(rows_a)
            halves = block[:size], block[size:2 * size]
            prev = None
            # One target column a step: its row of cells goes into one half of
            # the block and accumulates against the row above, in the other.
            for w, col in enumerate(arrs_b[j].transpose(1, 0, 2)):
                costs = halves[w % 2].reshape(len(col), len(rows_a))
                cdist(col, rows_a, out=costs)
                prev = accumulate_tables(_row_pair_volume(costs, 1, ws), prev=prev)[0]
            out[ia, j] = _hier_tables(prev[-1], hs)[-1, -1]

    workers = min(workers, len(items))
    blocks = [np.empty(block_size) for _ in range(workers)]
    with ThreadPoolExecutor(workers) as pool:
        done = pool.map(fill, [items[w::workers] for w in range(1, workers)], blocks[1:])
        fill(items[::workers], blocks[0])
        list(done)
    return out


def rank_columns(dist: np.ndarray, seen_ids, emerging_ids) -> tuple:
    """Rank every column of ``dist`` (seen x emerging) by the one ranking rule:
    ascending distance, ties to the lower seen class id.

    Returns ``(order, top1, top5)``: ``order[:, j]`` lists the seen indices
    best first for emerging column j; top-k is the fraction of columns whose
    emerging id is among the seen ids of their first min(k, n_seen) rows."""
    seen_ids = np.asarray(seen_ids)
    order = np.lexsort((np.broadcast_to(seen_ids[:, None], dist.shape), dist), axis=0)
    hits = seen_ids[order[:5]] == np.asarray(emerging_ids)
    top1, top5 = (int(np.count_nonzero(h)) / dist.shape[1] for h in (hits[0], hits.any(axis=0)))
    return order, top1, top5


# ---------------------------------------------------------------------------
# Outer loop

def _greedy_pairs(dist: np.ndarray, n: int) -> tuple[MatchedPairSet, tuple]:
    """Pick n emerging matrices by ascending best distance; ties take the
    lowest index.  Each is paired with its closest seen matrix."""
    best = dist.min(axis=0)
    best_seen = dist.argmin(axis=0)
    picked = np.argsort(best, kind="stable")[:n]
    pairs = tuple((int(best_seen[l]), int(l)) for l in picked)
    return MatchedPairSet(pairs), tuple(best[picked].tolist())


def run_swim(seen, emerging, cfg: SwimConfig, class_ids=None, workers: int = 1):
    """Match two equally sized modality sets end to end.

    Parameters
    ----------
    seen, emerging : sequences of FeatureMatrix (or arrays), same length N
    cfg : SwimConfig
    class_ids : optional ``(seen_ids, emerging_ids)``, the same N unique ids
        When given, every outer iteration records top-1/top-5 accuracy under
        the freshly trained adapter by the reports' one ranking rule,
        :func:`rank_columns`: ascending distance, ties to the lower seen class id.
    workers : worker count for the distance-matrix driver.

    Returns
    -------
    (assignment, params, steps, dist)
        The final pair set (n == N), the final adapter params, the
        per-iteration trace, and the seen x emerging distance matrix under
        the final params (the one the last trace row ranks), ready for
        :func:`warpmatch.evaluate.rank_report`.
    """
    _check_type(cfg, SwimConfig, "cfg")
    seen, emerging = _as_matrix_list(seen, "seen"), _as_matrix_list(emerging, "emerging")
    n_total = len(seen)
    if n_total == 0 or len(emerging) != n_total:
        raise ValidationError("seen and emerging sets must be nonempty and equally sized")
    if cfg.alpha > n_total:
        raise ValidationError(f"alpha {cfg.alpha} exceeds set size {n_total}")
    if class_ids is not None:
        try:
            seen_ids, emerging_ids = class_ids
            ok = (len(seen_ids) == len(emerging_ids) == len(set(seen_ids)) == n_total
                  and set(emerging_ids) == set(seen_ids))
        except (TypeError, ValueError):  # not a pair of id sequences
            ok = False
        if not ok:
            raise ValidationError(f"class_ids must be the same {n_total} unique ids on both sides")
    channels = as_feature_array(seen[0]).shape[2]
    params = init_adapter(channels, cfg.hidden, seed=cfg.seed, pass_through=True)

    dist = dpw_distance_matrix(seen, [adapt_matrix(params, m) for m in emerging], workers)
    steps: list[SwimStep] = []
    for t_outer in range(1, math.ceil(n_total / cfg.alpha) + 1):
        n_t = min(cfg.alpha * t_outer, n_total)
        pairs, sel_dists = _greedy_pairs(dist, n_t)
        params, inner = run_sloma(seen, emerging, pairs, params,
                                  cfg.eps, cfg.train, cfg.max_sloma_iters)
        dist = dpw_distance_matrix(seen, [adapt_matrix(params, m) for m in emerging], workers)
        top1 = top5 = None
        if class_ids is not None:
            _, top1, top5 = rank_columns(dist, seen_ids, emerging_ids)
        steps.append(SwimStep(t_outer, n_t, pairs, sel_dists, top1, top5, tuple(inner)))
    return pairs, params, steps, dist
