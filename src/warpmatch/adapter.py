"""Element-to-element local feature adapter.

A small shared-weight perceptron maps a C-dimensional feature element of
the emerging modality toward the seen modality's feature space; every
layer is affine followed by a logistic sigmoid.  Training takes the
element pairs as two (n, C) arrays, inputs X and targets Y, and minimizes
the mean squared distance between adapted and target elements with
analytic gradients and Nesterov-corrected adaptive-moment updates (NADAM,
momentum-schedule constant 0.004); inverted dropout at
``TrainConfig.dropout_p`` (seeded, deterministic) applies during training
only.

A training call copies the weights into one flat float64 vector laid out
``W1, b1, ..., Wn, bn``; each layer's W and b are reshaped views into it,
and the gradient and optimizer moments share that layout, so one update
is the NADAM formula written once over the whole vector.  Activation and
delta buffers are allocated once per call and written in place.
Inference runs the same forward pass.  A non-finite batch loss or, at the
end of an epoch, a non-finite weight raises ``DivergenceError``.

A params object can carry a ``pass_through`` flag: it then behaves as the
identity at inference until its first training call completes, which is
how the outer matching loop starts from an unadapted emerging modality.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, FormatError, ValidationError
from .matrix import (FeatureMatrix, _as_float_array, _as_index, _as_pairs, _check_fields,
                     _check_type, _container, _finite_f8, as_feature_array)

CKPT_MAGIC = b"LFA1"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training call.

    ``learning_rate`` is the initial rate; with ``lr_decay`` > 0 the rate
    anneals as lr * exp(-lr_decay * t) over the adapter's cumulative update
    count t, which persists across training calls.  Annealing is what lets
    the weight movement of successive calls actually fall below a small
    convergence threshold; adaptive-moment steps at a constant rate orbit
    the optimum at lr scale instead of settling.  ``dropout_p`` is the
    inverted-dropout rate of the hidden layers; 0 trains without dropout.

    Checked on construction: ``learning_rate`` in (0, inf), ``epochs`` >= 1,
    ``batch_size`` >= 0, ``dropout_p`` in [0, 1), ``lr_decay`` in [0, inf).
    """

    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 0  # 0: full batch up to 4096 pairs, else 1024
    dropout_p: float = 0.0
    lr_decay: float = 0.0

    def __post_init__(self):
        _check_fields(self, learning_rate="(0, inf)", epochs=1, batch_size=0,
                      dropout_p="[0, 1)", lr_decay="[0, inf)")


@dataclass(frozen=True, eq=False)
class AdapterParams:
    """Weights of the adapter: ((W, b), ...) per layer, sigmoid activations;
    ``seed`` and ``train_calls`` seed its training stream.  ``seed``,
    ``train_calls`` and ``opt_steps`` are checked to be >= 0."""

    layers: tuple
    seed: int = 0
    train_calls: int = 0
    opt_steps: int = 0
    pass_through: bool = False

    def __post_init__(self):
        _check_fields(self, seed=0, train_calls=0, opt_steps=0)
        layers = []
        prev = None
        for w, b in _as_pairs(self.layers, "layers must be a sequence of (weight, bias) pairs"):
            w, b = _as_float_array(w, "adapter weights"), _as_float_array(b, "adapter weights")
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
                 pass_through: bool = False) -> AdapterParams:
    """Fresh adapter with shape C -> hidden -> C.

    Weights are uniform in +-sqrt(6 / (fan_in + fan_out)), biases zero,
    drawn deterministically from the seed, which also seeds training.
    """
    channels, hidden, seed = (_as_index(channels, "channels", 1), _as_index(hidden, "hidden", 1),
                              _as_index(seed, "seed", 0))
    rng = np.random.default_rng(seed)
    layers = []
    for n_in, n_out in ((channels, hidden), (hidden, channels)):
        lim = np.sqrt(6.0 / (n_in + n_out))
        layers.append((rng.uniform(-lim, lim, size=(n_in, n_out)), np.zeros(n_out)))
    return AdapterParams(tuple(layers), seed=seed, pass_through=pass_through)


# ---------------------------------------------------------------------------
# Forward / backward

def _layer_views(flat, sizes):
    """Per-layer (W, b) views into a vector laid out W1, b1, ..., Wn, bn."""
    views, pos = [], 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        w = flat[pos:pos + n_in * n_out].reshape(n_in, n_out)
        pos += n_in * n_out
        views.append((w, flat[pos:pos + n_out]))
        pos += n_out
    return views


def _forward(layers, x, acts, masks=None, fed=None):
    """Forward pass written into ``acts``, one (rows, n_out) buffer per layer.

    ``acts[i]`` receives layer i's sigmoid output before dropout.  With
    ``masks``, hidden layer i feeds ``fed[i] = acts[i] * masks[i]`` to the
    next layer.  Returns the output buffer.
    """
    a = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        s = np.matmul(a, w, out=acts[i])
        s += b
        np.negative(s, out=s)  # 1 / (1 + exp(-z)), in place
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        a = s if masks is None or i == last else np.multiply(s, masks[i], out=fed[i])
    return a


class _Workspace:
    """Flat weights, their flat gradient, and the batch buffers of one
    training call.

    ``layers`` and ``grads`` are per-layer (W, b) views into ``flat`` and
    ``grad``.  Every buffer holds ``rows`` rows; a shorter batch uses the
    leading rows.
    """

    def __init__(self, params, rows, dropout):
        sizes = params.layer_sizes
        self.flat = np.concatenate([a.ravel() for pair in params.layers for a in pair])
        self.grad = np.empty_like(self.flat)
        self.layers = _layer_views(self.flat, sizes)
        self.grads = _layer_views(self.grad, sizes)
        self.acts = [np.empty((rows, k)) for k in sizes[1:]]
        self.deltas = [np.empty((rows, k)) for k in sizes[1:]]
        self.one_minus = [np.empty((rows, k)) for k in sizes[1:]]
        hidden = sizes[1:-1] if dropout else ()
        self.masks = [np.empty((rows, k)) for k in hidden]
        self.fed = [np.empty((rows, k)) for k in hidden]

    def draw_masks(self, rng, rows, p):
        """Inverted-dropout masks for the hidden layers, one draw per layer."""
        masks = [m[:rows] for m in self.masks]
        for m in masks:
            rng.random(out=m)
            np.greater_equal(m, p, out=m)
            m /= 1.0 - p
        return masks

    def loss_and_grad(self, x, y, masks=None):
        """Mean squared distance of the batch; writes its gradient to ``grad``."""
        rows = x.shape[0]
        acts = [a[:rows] for a in self.acts]
        fed = [a[:rows] for a in self.fed]
        da = np.subtract(_forward(self.layers, x, acts, masks, fed), y,
                         out=self.deltas[-1][:rows])
        sq = np.multiply(da, da, out=self.one_minus[-1][:rows])
        loss = float(sq.sum() / rows)
        da *= 2.0 / rows
        last = len(self.layers) - 1
        for i in range(last, -1, -1):
            s = acts[i]
            if masks is not None and i < last:
                da *= masks[i]
            da *= s  # dz = (da * s) * (1 - s), in da's buffer
            da *= np.subtract(1.0, s, out=self.one_minus[i][:rows])
            a_in = x if i == 0 else (acts[i - 1] if masks is None else fed[i - 1])
            gw, gb = self.grads[i]
            np.matmul(a_in.T, da, out=gw)
            np.sum(da, axis=0, out=gb)
            if i:
                da = np.matmul(da, self.layers[i][0].T, out=self.deltas[i - 1][:rows])
        return loss


# ---------------------------------------------------------------------------
# Inference

def adapt_matrix(params: AdapterParams, m) -> FeatureMatrix:
    """Adapt every element of a feature matrix; positions and dims unchanged."""
    _check_type(params, AdapterParams, "params")
    arr = as_feature_array(m)
    if arr.shape[2] != params.n_in:
        raise ValidationError(f"channel mismatch: {arr.shape[2]} vs {params.n_in}")
    if params.pass_through:
        return m if isinstance(m, FeatureMatrix) else FeatureMatrix(arr)
    x = arr.reshape(-1, arr.shape[2])
    acts = [np.empty((x.shape[0], w.shape[1])) for w, _ in params.layers]
    return FeatureMatrix(_forward(params.layers, x, acts).reshape(arr.shape))


# ---------------------------------------------------------------------------
# Training

def train_on_pairs(params: AdapterParams, pairs, cfg: TrainConfig,
                   on_epoch=None) -> tuple[AdapterParams, float]:
    """Train the adapter on (emerging element, seen element) pairs.

    ``pairs`` is a tuple ``(X, Y)`` of two (n, C) arrays: row i of X is an
    input element and row i of Y its target.  Returns the trained params
    (with the pass-through flag cleared) and the final epoch's mean loss.
    ``on_epoch(epoch, mean_loss)`` is called after every epoch when given.

    Dropout masks and minibatch order come from a stream seeded by
    ``(params.seed, params.train_calls)``, so repeated calls on an evolving
    params object stay deterministic without replaying the same masks.

    Each optimizer step is one NADAM update (Adam with Nesterov momentum,
    Dozat 2016) over the flat weight vector, with moments fresh per call,
    the momentum-schedule constant fixed at 0.004 and the learning-rate
    anneal on the cumulative ``opt_steps``.
    """
    _check_type(params, AdapterParams, "params")
    _check_type(cfg, TrainConfig, "cfg")
    if on_epoch is not None and not callable(on_epoch):
        raise ValidationError(f"on_epoch must be callable or None, got {on_epoch!r}")
    if not (isinstance(pairs, tuple) and len(pairs) == 2
            and all(isinstance(a, np.ndarray) and a.ndim == 2 for a in pairs)):
        raise ValidationError("pairs must be a tuple (X, Y) of two (n, C) arrays")
    x, y = (np.ascontiguousarray(_as_float_array(a, "pairs")) for a in pairs)
    n = x.shape[0]
    if n == 0:
        raise ValidationError("no training pairs")
    if x.shape != y.shape:
        raise ValidationError(f"input/target shape mismatch: {x.shape} vs {y.shape}")
    if x.shape[1] != params.n_in:
        raise ValidationError(f"pair dimension mismatch: {x.shape[1]} vs {params.n_in}")
    rng = np.random.default_rng([params.seed, params.train_calls])
    batch = min(cfg.batch_size or (n if n <= 4096 else 1024), n)
    use_dropout = cfg.dropout_p > 0.0
    ws = _Workspace(params, batch, use_dropout)
    if batch < n:
        xb = np.empty((batch, x.shape[1]))
        yb = np.empty((batch, y.shape[1]))

    flat, grad = ws.flat, ws.grad
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    beta1, beta2, eps, sd = 0.9, 0.999, 1e-8, 0.004
    t, mu_product = 0, 1.0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if batch < n else None
        total = 0.0
        for start in range(0, n, batch):
            if order is None:
                xs, ys = x, y
            else:
                idx = order[start:start + batch]
                xs = np.take(x, idx, axis=0, out=xb[:len(idx)])
                ys = np.take(y, idx, axis=0, out=yb[:len(idx)])
            rows = xs.shape[0]
            masks = ws.draw_masks(rng, rows, cfg.dropout_p) if use_dropout else None
            loss = ws.loss_and_grad(xs, ys, masks)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")

            t += 1
            # At lr_decay 0 the factor is exp(-0.0) == 1.0, so lr_t is the rate exactly.
            lr_t = cfg.learning_rate * np.exp(-cfg.lr_decay * (params.opt_steps + t - 1))
            mu_t = beta1 * (1.0 - 0.5 * 0.96 ** (t * sd))
            mu_next = beta1 * (1.0 - 0.5 * 0.96 ** ((t + 1) * sd))
            mu_product *= mu_t
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad * grad
            m_bar = ((1.0 - mu_t) * (grad / (1.0 - mu_product))
                     + mu_next * (m / (1.0 - mu_product * mu_next)))
            flat -= lr_t * m_bar / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
            total += loss * rows
        final_loss = total / n
        if not np.isfinite(flat).all():
            raise DivergenceError(f"non-finite adapter weights at epoch {epoch}")
        if on_epoch is not None:
            on_epoch(epoch, final_loss)
    new_params = replace(params, layers=tuple(ws.layers),
                         pass_through=False, train_calls=params.train_calls + 1,
                         opt_steps=params.opt_steps + t)
    return new_params, float(final_loss)


def param_delta(a: AdapterParams, b: AdapterParams) -> float:
    """L2 norm of the difference between two parameter sets, all arrays flattened."""
    _check_type(a, AdapterParams, "a")
    _check_type(b, AdapterParams, "b")
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
    """Write adapter weights as an LFA1 checkpoint (weights only, bit-exact).

    LFA1 has no pass-through flag, so pass-through params (an adapter never
    trained) raise ValidationError rather than reload as their random weights.
    """
    _check_type(params, AdapterParams, "params")
    if params.pass_through:
        raise ValidationError("a pass-through adapter cannot be saved: LFA1 stores weights only")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", len(params.layers)))
        for w, b in params.layers:
            f.write(struct.pack("<II", w.shape[0], w.shape[1]))
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_adapter(path) -> AdapterParams:
    """Read an LFA1 checkpoint back into adapter params (training seed 0).

    Malformed files, including non-finite weights and layer dimensions that
    do not chain from C back to C, raise FormatError naming the path.
    """
    raw, (n_layers,) = _container(path, CKPT_MAGIC, 1)
    if n_layers == 0:
        raise FormatError(f"{path}: zero layer count at byte offset 4")
    pos = 8
    layers = []
    for _ in range(n_layers):
        if len(raw) < pos + 8:
            raise FormatError(f"{path}: truncated layer header at byte offset {len(raw)}")
        rows, cols = struct.unpack_from("<II", raw, pos)
        if rows == 0 or cols == 0:
            raise FormatError(f"{path}: zero layer dimension at byte offset {pos}")
        if layers and rows != layers[-1][1].shape[0]:
            raise FormatError(f"{path}: layer dimensions do not chain at byte offset {pos}")
        flat = _finite_f8(raw, pos + 8, rows * cols + cols, path)
        layers.append((flat[:rows * cols].reshape(rows, cols), flat[rows * cols:]))
        pos += 8 + flat.nbytes
    if pos != len(raw):
        raise FormatError(f"{path}: trailing data at byte offset {pos}")
    if layers[0][0].shape[0] != layers[-1][1].shape[0]:
        raise FormatError(f"{path}: adapter input and output dimensions differ")
    return AdapterParams(tuple(layers))
