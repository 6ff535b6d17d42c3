"""Inner self-reinforcing loop over a fixed set of candidate pairs.

Each iteration adapts the paired emerging matrices with the current
adapter, aligns every seen matrix with its adapted pair, retrains the
adapter on the element pairs those alignments produce, and stops once the
adapter weights move less than a threshold.  Because adaptation never
moves elements, alignments computed on adapted matrices transfer directly
to raw positions, so training inputs are always the raw emerging elements.
The element pairs come straight off each alignment's tables: one backtrack
walk, flattened to four index arrays, with no ``HiPa`` built in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adapter import AdapterParams, TrainConfig, adapt_matrix, param_delta, train_on_pairs
from .dpw import _flatten, _walk, dpw
from .errors import ValidationError
from .matrix import _as_index, _as_matrix_list, _as_pairs, _as_real, _check_type, as_feature_array


@dataclass(frozen=True)
class MatchedPairSet:
    """Candidate correspondences: (seen index, emerging index), 0-based.

    Emerging indices must be pairwise distinct; seen indices may repeat.
    """

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((_as_index(k), _as_index(l)) for k, l in _as_pairs(
            self.pairs, "pairs must be a sequence of (seen, emerging) index pairs"))
        emerging = [l for _, l in pairs]
        if len(set(emerging)) != len(emerging):
            raise ValidationError("emerging indices in a pair set must be distinct")
        object.__setattr__(self, "pairs", pairs)

    @property
    def n(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


@dataclass(frozen=True)
class SlomaStep:
    """One iteration record: alignment cost before the optimize step,
    training loss after it, and how far the weights moved."""

    iteration: int
    match_cost: float
    train_loss: float
    weight_delta: float


def run_sloma(seen, emerging, pairs: MatchedPairSet, params0: AdapterParams,
              eps: float, cfg: TrainConfig, max_iters: int):
    """Alternate adapt / align / retrain until the weights settle.

    Parameters
    ----------
    seen, emerging : sequences of FeatureMatrix (or arrays)
        The full modality sets; ``pairs`` indexes into them.
    pairs : MatchedPairSet
        Candidate correspondences to learn from (nonempty).
    params0 : AdapterParams
        Starting adapter; each optimize step warm-starts from the previous.
    eps : float
        Stop once the L2 weight movement of an iteration is <= eps.
    cfg : TrainConfig
        Hyperparameters of each optimize step.
    max_iters : int
        Hard cap on iterations, >= 0; 0 returns ``params0`` untouched.

    Returns
    -------
    (params, steps) : final adapter params and the per-iteration trace.
    """
    if not isinstance(pairs, MatchedPairSet):
        pairs = MatchedPairSet(pairs)
    if pairs.n == 0:
        raise ValidationError("pair set must be nonempty")
    _check_type(params0, AdapterParams, "params0")
    _check_type(cfg, TrainConfig, "cfg")
    eps = _as_real(eps, "eps", "(0, inf)")
    max_iters = _as_index(max_iters, "max_iters", 0)
    seen_arrs = [as_feature_array(m) for m in _as_matrix_list(seen, "seen")]
    emerging_arrs = [as_feature_array(m) for m in _as_matrix_list(emerging, "emerging")]
    for k, l in pairs:
        if not (0 <= k < len(seen_arrs) and 0 <= l < len(emerging_arrs)):
            raise ValidationError(f"pair ({k},{l}) out of range")

    # Annealed learning is this loop's convergence mechanism, so the step
    # counter restarts here: every invocation gets a full warm-to-cold sweep.
    params = replace(params0, opt_steps=0) if max_iters > 0 else params0
    steps: list[SlomaStep] = []
    for t in range(1, max_iters + 1):
        xs, ys, costs = [], [], []
        for k, l in pairs:
            ad = adapt_matrix(params, emerging_arrs[l])
            dist, tables = dpw(seen_arrs[k], ad)
            costs.append(dist)
            hs, ws, he, we = _flatten(_walk(tables))
            xs.append(emerging_arrs[l][he, we])
            ys.append(seen_arrs[k][hs, ws])
        params_next, loss = train_on_pairs(
            params, (np.concatenate(xs), np.concatenate(ys)), cfg)
        delta = param_delta(params_next, params)
        params = params_next
        steps.append(SlomaStep(t, float(np.mean(costs)), loss, delta))
        if delta <= eps:
            break
    return params, steps
