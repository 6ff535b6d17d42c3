"""Top-k match reports and the pointwise-distance nearest-template baseline.

Ground truth is class-id equality across the two modality datasets; the
evaluator refuses dataset pairs whose class-id sets differ.  Every report
comes from a seen x emerging distance matrix through :func:`rank_report`
(``match run`` passes it the last matrix ``run_swim`` returns), and every
ranking follows one rule, :func:`warpmatch.swim.rank_columns`: ascending
distance, ties to the lower seen class id.  ``run_swim``'s per-iteration
accuracies use the same function, so a trace and a report on the same
adapter agree.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .adapter import AdapterParams, adapt_matrix
from .errors import ValidationError
from .matrix import Dataset, _as_float_array, _as_index, _check_type, _csv_lines
from .swim import dpw_distance_matrix, rank_columns


@dataclass(frozen=True)
class ItemMatches:
    """Ranked seen-modality candidates for one emerging item."""

    emerging_class: int
    ranked: tuple  # ((seen class id, distance), ...) ascending

    def __post_init__(self):
        object.__setattr__(
            self, "ranked", tuple((int(c), float(d)) for c, d in self.ranked))


@dataclass(frozen=True)
class MatchReport:
    """Per-item rankings truncated to k, plus overall top-1/top-5 accuracy."""

    items: tuple
    top1: float
    top5: float
    k: int


def _check_datasets(seen: Dataset, emerging: Dataset, k: int, one_shape=False) -> int:
    _check_type(seen, Dataset, "seen")
    _check_type(emerging, Dataset, "emerging")
    if set(seen.class_ids) != set(emerging.class_ids):
        raise ValidationError("seen and emerging datasets must share one class-id set")
    if seen.channels != emerging.channels:
        raise ValidationError(
            f"channel mismatch: {seen.channels} vs {emerging.channels}")
    k = _as_index(k, "k", 1)
    if one_shape:
        shapes = {m.shape for m in seen.matrices} | {m.shape for m in emerging.matrices}
        if len(shapes) != 1:
            raise ValidationError(
                f"pointwise baseline needs one common shape, got {sorted(shapes)}")
    if k > seen.size:
        warnings.warn(f"k={k} exceeds dataset size {seen.size}; clamping", stacklevel=3)
        k = seen.size
    return k


def rank_report(dist, seen: Dataset, emerging: Dataset, k: int = 5) -> MatchReport:
    """Rank a seen x emerging distance matrix into a report.

    Entry (i, j) of ``dist`` is the distance between seen item i and
    emerging item j, in dataset order.  Accuracies always come from the full
    ranking; ``k`` only truncates the stored per-item lists (clamped to the
    dataset size with a warning).
    """
    k = _check_datasets(seen, emerging, k)
    dist = _as_float_array(dist, "distance matrix")
    if dist.shape != (seen.size, emerging.size):
        raise ValidationError(
            f"distance matrix shape {dist.shape} is not {(seen.size, emerging.size)}")
    if not np.isfinite(dist).all():
        raise ValidationError("distance matrix must be finite")
    order, top1, top5 = rank_columns(dist, seen.class_ids, emerging.class_ids)
    ids = np.asarray(seen.class_ids)[order[:k]].T.tolist()
    dists = np.take_along_axis(dist, order[:k], axis=0).T.tolist()
    items = tuple(ItemMatches(int(cid), tuple(zip(i, d)))
                  for cid, i, d in zip(emerging.class_ids, ids, dists))
    return MatchReport(items, top1, top5, k)


def match_topk(seen: Dataset, emerging: Dataset, params: AdapterParams,
               k: int = 5, workers: int = 1) -> MatchReport:
    """Rank every emerging item against all seen templates by alignment distance.

    Every emerging matrix is adapted with ``params`` first; the dpw distance
    matrix is then ranked by :func:`rank_report`.
    """
    k = _check_datasets(seen, emerging, k)
    adapted = [adapt_matrix(params, m) for m in emerging.matrices]
    return rank_report(dpw_distance_matrix(seen.matrices, adapted, workers), seen, emerging, k)


def knn_baseline(seen: Dataset, emerging: Dataset, params: AdapterParams,
                 k: int = 5) -> MatchReport:
    """Same pipeline as match_topk but ranked by pointwise L1 distance.

    Requires every matrix in both datasets to share one (H, W, C) shape,
    since the entrywise distance has no notion of alignment.
    """
    k = _check_datasets(seen, emerging, k, one_shape=True)
    adapted = np.stack([adapt_matrix(params, m).data.ravel() for m in emerging.matrices])
    buf = np.empty_like(adapted)
    dist = np.empty((seen.size, emerging.size))
    for i, s in enumerate(seen.matrices):  # a row sum adds a pair's terms in the same order
        np.subtract(s.data.ravel(), adapted, out=buf)
        np.abs(buf, out=buf)
        buf.sum(axis=1, out=dist[i])
    return rank_report(dist, seen, emerging, k)


def report_json(report: MatchReport) -> str:
    """Full ranked lists as a JSON document."""
    _check_type(report, MatchReport, "report")
    doc = {
        "k": report.k,
        "top1": report.top1,
        "top5": report.top5,
        "items": [
            {
                "emerging_class": item.emerging_class,
                "ranked": [{"seen_class": c, "distance": d} for c, d in item.ranked],
            }
            for item in report.items
        ],
    }
    return json.dumps(doc, indent=2)


def report_csv_lines(report: MatchReport) -> list[str]:
    """Summary metrics as `metric,value` lines."""
    _check_type(report, MatchReport, "report")
    return _csv_lines("metric,value", [("top1", report.top1), ("top5", report.top5),
                                       ("k", report.k), ("items", len(report.items))])
