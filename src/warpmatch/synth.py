"""Synthetic paired-modality tasks with known ground truth.

Each class gets a smooth random "glyph" feature matrix for the seen
modality.  Its emerging counterpart is the same glyph pushed through a
monotone spatial rewarp (stretch / compress / translate realized as
nondecreasing row and column index maps onto the same grid), then through
a hidden per-channel map shared by the whole modality, plus optional
Gaussian noise.  Monotone warps guarantee a low-cost order-preserving
alignment exists, and the affine-plus-sigmoid hidden map is representable
by the adapter, so recovery is possible rather than guaranteed-failed.

Datasets are byte-identical for a given config as long as the draws from
the seeded generator keep their order: the hidden map's gains and biases,
the components, then per class the field grid, the Dirichlet weights, the
row map, the column map and the noise.  Vectorizing any step is free only
if it keeps that order and each element's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrix import Dataset, FeatureMatrix, _check_fields, _check_type


@dataclass(frozen=True)
class SynthConfig:
    """Task shape and difficulty knobs; everything derives from the seed.

    With ``n_components`` > 0 every class glyph is a convex mixture of that
    many shared component fields, the way characters share strokes; classes
    become confusable and nearest-template matching actually has to work.
    0 keeps classes as independent random fields (easy to separate).

    Checked on construction: ``n_classes`` >= 2; ``height``, ``width``,
    ``channels`` >= 1; ``n_components``, ``seed`` >= 0; ``warp`` and
    ``component_mix`` in [0, 1]; ``map_gain`` in (-inf, inf); ``noise_std`` in
    [0, inf); ``map_kind`` "affine_sigmoid" or "identity".
    """

    n_classes: int = 20
    height: int = 10
    width: int = 10
    channels: int = 8
    warp: float = 0.5            # 0 = no spatial distortion, 1 = fully random monotone
    map_kind: str = "affine_sigmoid"  # or "identity"
    map_gain: float = 2.5        # spread of the hidden per-channel gains
    noise_std: float = 0.0
    n_components: int = 0
    component_mix: float = 0.65  # share of the glyph drawn from the common dictionary
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, n_classes=2, height=1, width=1, channels=1, warp="[0, 1]",
                      map_gain="(-inf, inf)", noise_std="[0, inf)", n_components=0,
                      component_mix="[0, 1]", seed=0)
        if self.map_kind not in ("identity", "affine_sigmoid"):
            raise ValidationError(f"unknown map_kind {self.map_kind!r}")


def _smooth_field(h: int, w: int):
    """Return ``draw(rng, c)``: an (h, w, c) field of per-channel
    low-resolution noise upsampled bilinearly, all channels in one pass.

    The interpolation set-up depends only on (h, w), so one sampler serves a
    whole task.  Values live in [0.1, 0.9]: off the sigmoid rails, so an
    adapter whose output is a sigmoid can actually reach them.
    """
    gh = max(2, (h + 2) // 3)
    gw = max(2, (w + 2) // 3)
    ys = np.linspace(0, gh - 1, h)
    xs = np.linspace(0, gw - 1, w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]

    def draw(rng, c: int) -> np.ndarray:
        g = rng.uniform(0.1, 0.9, size=(c, gh, gw)).transpose(1, 2, 0)
        top = g[y0][:, x0] * (1 - fx) + g[y0][:, x1] * fx
        bot = g[y1][:, x0] * (1 - fx) + g[y1][:, x1] * fx
        return top * (1 - fy) + bot * fy

    return draw


def _monotone_map(rng, n: int, intensity: float) -> np.ndarray:
    """Nondecreasing index map [0, n) -> [0, n) with pinned endpoints."""
    if intensity <= 0 or n <= 2:
        return np.arange(n)
    anchors = np.sort(rng.uniform(0, n - 1, size=n))
    anchors[0] = 0.0
    anchors[-1] = n - 1.0
    blended = (1 - intensity) * np.arange(n) + intensity * anchors
    idx = np.rint(blended).astype(int)
    return np.maximum.accumulate(np.clip(idx, 0, n - 1))


def _hidden_map(x: np.ndarray, gains: np.ndarray, biases: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-(gains * (x - 0.5) + biases)))


def gen_task(cfg: SynthConfig):
    """Generate (seen, emerging, truth) for one synthetic matching task.

    ``truth`` maps each emerging class id to its seen class id (here the
    identity bijection on 0..N-1).  Deterministic per seed.
    """
    _check_type(cfg, SynthConfig, "cfg")
    rng = np.random.default_rng([cfg.seed, 0])
    if cfg.map_kind == "affine_sigmoid":
        gains = rng.uniform(1.0, max(1.0001, cfg.map_gain), size=cfg.channels)
        biases = rng.uniform(-0.5, 0.5, size=cfg.channels) * cfg.map_gain / 2.5
    else:
        gains = biases = None

    smooth_field = _smooth_field(cfg.height, cfg.width)
    components = None
    if cfg.n_components > 0:
        components = np.stack([smooth_field(rng, cfg.channels) for _ in range(cfg.n_components)])

    seen_entries = []
    emerging_entries = []
    for cid in range(cfg.n_classes):
        base = smooth_field(rng, cfg.channels)
        if components is not None:
            weights = rng.dirichlet(np.full(cfg.n_components, 0.5))
            shared = np.tensordot(weights, components, axes=1)
            base = cfg.component_mix * shared + (1.0 - cfg.component_mix) * base
        rows = _monotone_map(rng, cfg.height, cfg.warp)
        cols = _monotone_map(rng, cfg.width, cfg.warp)
        warped = base[rows][:, cols]
        if gains is not None:
            warped = _hidden_map(warped, gains, biases)
        if cfg.noise_std > 0:
            warped = warped + rng.normal(0.0, cfg.noise_std, size=warped.shape)
        seen_entries.append((cid, FeatureMatrix(base)))
        emerging_entries.append((cid, FeatureMatrix(warped)))

    truth = {cid: cid for cid in range(cfg.n_classes)}
    return (Dataset("seen", tuple(seen_entries)),
            Dataset("emerging", tuple(emerging_entries)),
            truth)
