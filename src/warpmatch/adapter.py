"""Element-to-element local feature adapter.

A small shared-weight perceptron maps a C-dimensional feature element of
the emerging modality toward the seen modality's feature space; every
layer is affine followed by a logistic sigmoid.  Training minimizes the
mean squared distance between adapted and target elements with analytic
gradients and Nesterov-corrected adaptive-moment updates; inverted dropout
(seeded, deterministic) applies during training only.

A params object can carry a ``pass_through`` flag: it then behaves as the
identity at inference until its first training call completes, which is
how the outer matching loop starts from an unadapted emerging modality.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DivergenceError, FormatError, ValidationError
from .matrix import FeatureMatrix, as_feature_array

CKPT_MAGIC = b"LFA1"


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training call.

    ``learning_rate`` is the initial rate; with ``lr_decay`` > 0 the rate
    anneals as lr * exp(-lr_decay * t) over the adapter's cumulative update
    count t, which persists across training calls.  Annealing is what lets
    the weight movement of successive calls actually fall below a small
    convergence threshold; adaptive-moment steps at a constant rate orbit
    the optimum at lr scale instead of settling.
    """

    learning_rate: float = 1e-3
    schedule_decay: float = 0.004
    epochs: int = 20
    batch_size: int | None = None  # None: full batch up to 4096 pairs, else 1024
    dropout: bool = False
    lr_decay: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.schedule_decay < 0:
            raise ValidationError("schedule_decay must be nonnegative")
        if self.epochs < 1:
            raise ValidationError("epochs must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValidationError("batch_size must be positive")
        if self.lr_decay < 0:
            raise ValidationError("lr_decay must be nonnegative")


@dataclass(frozen=True, eq=False)
class AdapterParams:
    """Weights of the adapter: ((W, b), ...) per layer, sigmoid activations."""

    layers: tuple
    dropout_p: float = 0.2
    seed: int = 0
    train_calls: int = 0
    opt_steps: int = 0
    pass_through: bool = False

    def __post_init__(self):
        layers = []
        prev = None
        for w, b in self.layers:
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise ValidationError("each layer needs a (n_in, n_out) weight and (n_out,) bias")
            if prev is not None and w.shape[0] != prev:
                raise ValidationError("layer dimensions do not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValidationError("adapter weights must be finite")
            prev = w.shape[1]
            w = w.copy()
            b = b.copy()
            w.flags.writeable = False
            b.flags.writeable = False
            layers.append((w, b))
        if not layers:
            raise ValidationError("adapter needs at least one layer")
        if layers[0][0].shape[0] != layers[-1][0].shape[1]:
            raise ValidationError("adapter input and output dimensions must both equal C")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValidationError("dropout probability must be in [0, 1)")
        object.__setattr__(self, "layers", tuple(layers))

    @property
    def n_in(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def n_out(self) -> int:
        return self.layers[-1][0].shape[1]

    @property
    def layer_sizes(self) -> tuple:
        return (self.n_in,) + tuple(w.shape[1] for w, _ in self.layers)


def init_adapter(channels: int, hidden: int, seed: int = 0,
                 dropout_p: float = 0.2, pass_through: bool = False) -> AdapterParams:
    """Fresh adapter with shape C -> hidden -> C.

    Weights are uniform in +-sqrt(6 / (fan_in + fan_out)), biases zero,
    drawn deterministically from the seed.
    """
    if channels < 1 or hidden < 1:
        raise ValidationError("channels and hidden size must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    for n_in, n_out in ((channels, hidden), (hidden, channels)):
        lim = np.sqrt(6.0 / (n_in + n_out))
        layers.append((rng.uniform(-lim, lim, size=(n_in, n_out)), np.zeros(n_out)))
    return AdapterParams(tuple(layers), dropout_p=dropout_p, seed=seed,
                         pass_through=pass_through)


# ---------------------------------------------------------------------------
# Forward / backward

def _forward(layers, x, masks=None):
    """Forward pass; returns (output, cache) with pre-dropout activations."""
    a = x
    cache = []
    last = len(layers) - 1
    for idx, (w, b) in enumerate(layers):
        z = a @ w + b
        s = sigmoid(z)
        out = s
        if masks is not None and idx < last and masks[idx] is not None:
            out = s * masks[idx]
        cache.append((a, s))
        a = out
    return a, cache


def _backward(layers, cache, dout, masks=None):
    grads = [None] * len(layers)
    last = len(layers) - 1
    da = dout
    for idx in range(last, -1, -1):
        w, _ = layers[idx]
        a_in, s = cache[idx]
        if masks is not None and idx < last and masks[idx] is not None:
            da = da * masks[idx]
        dz = da * s * (1.0 - s)
        grads[idx] = (a_in.T @ dz, dz.sum(axis=0))
        da = dz @ w.T
    return grads


def training_loss_and_gradients(layers, x, y, masks=None):
    """Mean squared element distance and its analytic weight gradients.

    Loss is the mean over pairs of the squared Euclidean distance between
    the adapted input and the target.  ``masks`` fixes the dropout masks so
    the same loss surface can be probed by finite differences.
    """
    out, cache = _forward(layers, x, masks)
    diff = out - y
    n = x.shape[0]
    loss = float((diff * diff).sum() / n)
    grads = _backward(layers, cache, (2.0 / n) * diff, masks)
    return loss, grads


# ---------------------------------------------------------------------------
# Inference

def adapt_element(params: AdapterParams, element) -> np.ndarray:
    """Map one feature element through the adapter (deterministic, no dropout)."""
    x = np.atleast_1d(np.asarray(element, dtype=np.float64))
    if x.ndim != 1:
        raise ValidationError("feature element must be a 1-D component vector")
    if x.shape[0] != params.n_in:
        raise ValidationError(f"element dimension mismatch: {x.shape[0]} vs {params.n_in}")
    if params.pass_through:
        return x.copy()
    out, _ = _forward(params.layers, x[None, :])
    return out[0]


def adapt_matrix(params: AdapterParams, m) -> FeatureMatrix:
    """Adapt every element of a feature matrix; positions and dims unchanged."""
    arr = as_feature_array(m)
    if arr.shape[2] != params.n_in:
        raise ValidationError(f"channel mismatch: {arr.shape[2]} vs {params.n_in}")
    if params.pass_through:
        return m if isinstance(m, FeatureMatrix) else FeatureMatrix(arr)
    flat = arr.reshape(-1, arr.shape[2])
    out, _ = _forward(params.layers, flat)
    return FeatureMatrix(out.reshape(arr.shape))


# ---------------------------------------------------------------------------
# Training

class _Nadam:
    """Adaptive-moment descent with Nesterov momentum correction.

    Moment state is fresh per training call; the learning-rate anneal runs
    on the adapter's cumulative step count via ``step_offset``.
    """

    def __init__(self, lr, schedule_decay, lr_decay=0.0, step_offset=0,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.sd = schedule_decay
        self.lr_decay = lr_decay
        self.offset = step_offset
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.mu_product = 1.0
        self.m = None
        self.v = None

    def step(self, arrays, grads):
        if self.m is None:
            self.m = [np.zeros_like(a) for a in arrays]
            self.v = [np.zeros_like(a) for a in arrays]
        self.t += 1
        lr_t = self.lr
        if self.lr_decay:
            lr_t = self.lr * np.exp(-self.lr_decay * (self.offset + self.t - 1))
        mu_t = self.beta1 * (1.0 - 0.5 * 0.96 ** (self.t * self.sd))
        mu_next = self.beta1 * (1.0 - 0.5 * 0.96 ** ((self.t + 1) * self.sd))
        self.mu_product *= mu_t
        mu_product_next = self.mu_product * mu_next
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            g_hat = g / (1.0 - self.mu_product)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - mu_product_next)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            m_bar = (1.0 - mu_t) * g_hat + mu_next * m_hat
            a -= lr_t * m_bar / (np.sqrt(v_hat) + self.eps)


def _pairs_to_arrays(pairs):
    if isinstance(pairs, tuple) and len(pairs) == 2 and not isinstance(pairs[0], (tuple, list)):
        x = np.asarray(pairs[0], dtype=np.float64)
        y = np.asarray(pairs[1], dtype=np.float64)
        if x.ndim == 1:  # a single (input, target) element pair
            x = x[None, :]
            y = np.atleast_1d(y)[None, :]
    else:
        try:
            seq = [(p, t) for p, t in pairs]
        except (TypeError, ValueError):
            raise ValidationError("every training pair must be an (input, target) pair") from None
        if not seq:
            raise ValidationError("no training pairs")
        x = np.stack([np.atleast_1d(np.asarray(p, dtype=np.float64)) for p, _ in seq])
        y = np.stack([np.atleast_1d(np.asarray(t, dtype=np.float64)) for _, t in seq])
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("no training pairs")
    if x.shape != y.shape:
        raise ValidationError(f"input/target shape mismatch: {x.shape} vs {y.shape}")
    return x, y


def train_on_pairs(params: AdapterParams, pairs, cfg: TrainConfig,
                   on_epoch=None) -> tuple[AdapterParams, float]:
    """Train the adapter on (emerging element, seen element) pairs.

    ``pairs`` is either an iterable of (input, target) element pairs or a
    ready-made ``(X, Y)`` pair of (n, C) arrays.  Returns the trained params
    (with the pass-through flag cleared) and the final epoch's mean loss.
    ``on_epoch(epoch, mean_loss)`` is called after every epoch when given.

    Dropout masks and minibatch order come from a stream seeded by
    ``(params.seed, params.train_calls)``, so repeated calls on an evolving
    params object stay deterministic without replaying the same masks.
    """
    x, y = _pairs_to_arrays(pairs)
    n = x.shape[0]
    if x.shape[1] != params.n_in:
        raise ValidationError(f"pair dimension mismatch: {x.shape[1]} vs {params.n_in}")
    rng = np.random.default_rng([params.seed, params.train_calls])
    batch = cfg.batch_size if cfg.batch_size is not None else (n if n <= 4096 else 1024)
    batch = min(batch, n)
    use_dropout = cfg.dropout and params.dropout_p > 0.0
    keep = 1.0 - params.dropout_p
    hidden_shapes = [w.shape[1] for w, _ in params.layers[:-1]]

    layers = [(w.copy(), b.copy()) for w, b in params.layers]
    flat = [a for pair in layers for a in pair]
    opt = _Nadam(cfg.learning_rate, cfg.schedule_decay,
                 lr_decay=cfg.lr_decay, step_offset=params.opt_steps)
    final_loss = None
    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if batch < n else np.arange(n)
        total = 0.0
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            masks = None
            if use_dropout:
                masks = [
                    (rng.random((len(idx), h)) >= params.dropout_p) / keep
                    for h in hidden_shapes
                ]
            loss, grads = training_loss_and_gradients(layers, x[idx], y[idx], masks)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            opt.step(flat, [g for pair in grads for g in pair])
            total += loss * len(idx)
        final_loss = total / n
        if not all(np.isfinite(a).all() for a in flat):
            raise DivergenceError(f"non-finite adapter weights at epoch {epoch}")
        if on_epoch is not None:
            on_epoch(epoch, final_loss)
    new_params = replace(params, layers=tuple((w, b) for w, b in layers),
                         pass_through=False, train_calls=params.train_calls + 1,
                         opt_steps=params.opt_steps + opt.t)
    return new_params, float(final_loss)


def param_delta(a: AdapterParams, b: AdapterParams) -> float:
    """L2 norm of the difference between two parameter sets, all arrays flattened."""
    if len(a.layers) != len(b.layers):
        raise ValidationError("parameter shapes differ")
    total = 0.0
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        if wa.shape != wb.shape or ba.shape != bb.shape:
            raise ValidationError("parameter shapes differ")
        dw = wa - wb
        db = ba - bb
        total += float((dw * dw).sum()) + float((db * db).sum())
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# Checkpoints

def save_adapter(params: AdapterParams, path) -> None:
    """Write adapter weights as an LFA1 checkpoint (weights only, bit-exact)."""
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", len(params.layers)))
        for w, b in params.layers:
            f.write(struct.pack("<II", w.shape[0], w.shape[1]))
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_adapter(path, dropout_p: float = 0.2, seed: int = 0) -> AdapterParams:
    """Read an LFA1 checkpoint back into adapter params."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise FormatError(f"{path}: truncated header at byte offset {len(raw)}")
    if raw[:4] != CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r} at byte offset 0")
    (n_layers,) = struct.unpack_from("<I", raw, 4)
    if n_layers == 0:
        raise FormatError(f"{path}: zero layer count at byte offset 4")
    pos = 8
    layers = []
    for _ in range(n_layers):
        if len(raw) < pos + 8:
            raise FormatError(f"{path}: truncated layer header at byte offset {len(raw)}")
        rows, cols = struct.unpack_from("<II", raw, pos)
        pos += 8
        if rows == 0 or cols == 0:
            raise FormatError(f"{path}: zero layer dimension at byte offset {pos - 8}")
        need = (rows * cols + cols) * 8
        if len(raw) < pos + need:
            raise FormatError(f"{path}: truncated payload at byte offset {len(raw)}")
        w = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=pos).reshape(rows, cols)
        pos += rows * cols * 8
        b = np.frombuffer(raw, dtype="<f8", count=cols, offset=pos)
        pos += cols * 8
        layers.append((w, b))
    if pos != len(raw):
        raise FormatError(f"{path}: trailing data at byte offset {pos}")
    return AdapterParams(tuple(layers), dropout_p=dropout_p, seed=seed)
