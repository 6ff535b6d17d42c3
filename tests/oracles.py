"""Independent oracles shared by the unit and acceptance tests.

Everything here is deliberately written without the library's DP kernels
and its fused training loop: recursive path enumeration, a pure-Python DTW,
pure-Python sums, finite differences, the per-array adapter training loop,
the cell-by-cell DP kernel that the anti-diagonal one replaced, the per-step
backtrack with one branch per table edge, and the synthetic field upsampled
one channel at a time.  The one exception is
``training_loss_and_gradients``: it runs the training loop's own forward
and backward pass on one batch, so that finite differences can check it.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from warpmatch.adapter import AdapterParams, _Workspace
from warpmatch.dpw import HiPa, PathNode
from warpmatch.errors import DivergenceError, ValidationError


def enum_paths_rec(n, m):
    """Every monotone unit-step path from (1,1) to (n,m), pure recursion."""
    if n == 1 and m == 1:
        return [[(1, 1)]]
    out = []
    for di, dj in ((1, 1), (1, 0), (0, 1)):
        pi, pj = n - di, m - dj
        if pi >= 1 and pj >= 1:
            out.extend(p + [(n, m)] for p in enum_paths_rec(pi, pj))
    return out


def lattice_paths(n: int, m: int) -> list[tuple]:
    """All monotone unit-step paths from (1,1) to (n,m), as 1-based tuples."""
    if n < 1 or m < 1:
        raise ValidationError("lattice dimensions must be >= 1")
    paths = {(1, 1): [((1, 1),)]}
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if (i, j) in paths:
                continue
            acc = []
            for di, dj in ((1, 1), (1, 0), (0, 1)):
                prev = (i - di, j - dj)
                if prev in paths:
                    acc.extend(p + ((i, j),) for p in paths[prev])
            paths[(i, j)] = acc
    return paths[(n, m)]


def enumerate_hipas(shape_s, shape_e):
    """Yield every valid hierarchical warping path between the given shapes.

    Guarded to Hs*He <= 9 and Ws*We <= 9 because the count grows
    exponentially; larger shapes raise ValidationError.
    """
    hs, ws = int(shape_s[0]), int(shape_s[1])
    he, we = int(shape_e[0]), int(shape_e[1])
    if hs * he > 9 or ws * we > 9:
        raise ValidationError(
            f"enumeration limited to Hs*He <= 9 and Ws*We <= 9, got {hs * he} and {ws * we}"
        )
    col_paths = lattice_paths(ws, we)
    for rows in lattice_paths(hs, he):
        for combo in itertools.product(col_paths, repeat=len(rows)):
            yield HiPa(tuple(
                PathNode(h, e, cols) for (h, e), cols in zip(rows, combo)
            ))


def element_pairs_per_node(seen_arr, raw_e_arr, hipa):
    """Training arrays (raw emerging inputs, seen targets) gathered one row
    node at a time, in path order."""
    xs, ys = [], []
    for node in hipa.nodes:
        row_s = seen_arr[node.hs - 1]
        row_e = raw_e_arr[node.he - 1]
        iw = np.fromiter((ws - 1 for ws, _ in node.cols), dtype=np.intp)
        je = np.fromiter((we - 1 for _, we in node.cols), dtype=np.intp)
        xs.append(row_e[je])
        ys.append(row_s[iw])
    return np.concatenate(xs), np.concatenate(ys)


def brute_min_row_cost(row_a, row_b):
    """Minimum pairing cost between two scalar rows over all enumerated paths."""
    best = None
    for p in enum_paths_rec(len(row_a), len(row_b)):
        c = 0.0
        for i, j in p:
            c += abs(row_a[i - 1] - row_b[j - 1])
        if best is None or c < best:
            best = c
    return best


def dtw_distance(a, b):
    """DTW distance of two (n, C) element sequences: a pure-Python DP over
    ``math.dist`` element costs, with none of the library's kernel."""
    a = [tuple(map(float, x)) for x in a]
    b = [tuple(map(float, y)) for y in b]
    acc = [[math.inf] * (len(b) + 1) for _ in range(len(a) + 1)]
    acc[0][0] = 0.0
    for i, x in enumerate(a, 1):
        for j, y in enumerate(b, 1):
            acc[i][j] = min(acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1]) + math.dist(x, y)
    return acc[-1][-1]


def reference_accumulate_tables(vol):
    """The DP kernel cell by cell in row order, three numpy calls per interior
    cell; ``warpmatch.dtw.accumulate_tables`` must give its tables bit for bit.

    ``vol`` needs at least one trailing problem axis (ndim >= 3): each cell is
    updated through a view of it, which a 2-D volume's scalar cells are not.
    Pass one problem as ``vol[:, :, None]``."""
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


def reference_dtw_path(table):
    """The backtrack one step at a time, with a branch for each table edge;
    ``warpmatch.dtw.dtw_path`` must return its paths exactly.  Ties prefer the
    diagonal, then a step back in the first index, then in the second."""
    i, j = table.shape[0] - 1, table.shape[1] - 1
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


def brute_dpw_min(a, b):
    """Exhaustive-enumeration minimum over all hierarchical warping paths.

    Enumerates every first-level path and, per row pair, every second-level
    path; per-row minima factor out of the total because second-level
    choices are independent across row nodes.
    """
    hs = a.shape[0]
    he = b.shape[0]
    row_min = {}
    best = None
    for fp in enum_paths_rec(hs, he):
        c = 0.0
        for h, e in fp:
            if (h, e) not in row_min:
                row_min[(h, e)] = brute_min_row_cost(a[h - 1], b[e - 1])
            c += row_min[(h, e)]
        if best is None or c < best:
            best = c
    return best


def l1_distance_matrix(seen, emerging):
    """Pointwise L1 distance of every seen and emerging array, one pair at a time."""
    dist = np.empty((len(seen), len(emerging)))
    for i, s in enumerate(seen):
        for j, e in enumerate(emerging):
            dist[i, j] = np.abs(s - e).sum()
    return dist


def reference_smooth_field(rng, h, w, c) -> np.ndarray:
    """Per-channel low-resolution noise upsampled bilinearly, one channel at
    a time: the generator's field before it ran all channels in one pass."""
    gh = max(2, (h + 2) // 3)
    gw = max(2, (w + 2) // 3)
    grid = rng.uniform(0.1, 0.9, size=(c, gh, gw))
    ys = np.linspace(0, gh - 1, h)
    xs = np.linspace(0, gw - 1, w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    out = np.empty((h, w, c))
    for ch in range(c):
        g = grid[ch]
        top = g[y0][:, x0] * (1 - fx) + g[y0][:, x1] * fx
        bot = g[y1][:, x0] * (1 - fx) + g[y1][:, x1] * fx
        out[:, :, ch] = top * (1 - fy) + bot * fy
    return out


def training_loss_and_gradients(layers, x, y, masks=None):
    """Mean squared element distance and its analytic weight gradients,
    from the training loop's own forward and backward pass.

    ``masks`` (one per hidden layer) fixes the dropout masks so the same
    loss surface can be probed by finite differences.  The gradients are
    per-layer (dW, db) views into one flat vector.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    ws = _Workspace(AdapterParams(tuple(layers)), x.shape[0], masks is not None)
    loss = ws.loss_and_grad(x, np.asarray(y, dtype=np.float64), masks)
    return loss, ws.grads


def finite_difference_grads(layers, x, y, masks=None, h=1e-5):
    """Central differences on the training loss, one parameter at a time."""
    work = [(w.copy(), b.copy()) for w, b in layers]
    grads = []
    for li in range(len(work)):
        for ai in range(2):
            arr = work[li][ai]
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _ = training_loss_and_gradients(work, x, y, masks)
                arr[idx] = orig - h
                dn, _ = training_loss_and_gradients(work, x, y, masks)
                arr[idx] = orig
                g[idx] = (up - dn) / (2 * h)
            grads.append(g)
    return grads


def max_relative_gradient_error(params, n=6, dropout_p=0.0, seed=0):
    """Worst relative disagreement between analytic and numeric gradients,
    under fixed dropout masks of rate ``dropout_p`` when it is > 0."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, (n, params.n_in))
    y = rng.uniform(0.05, 0.95, (n, params.layer_sizes[-1]))
    masks = None
    if dropout_p > 0.0:
        keep = 1.0 - dropout_p
        masks = [(rng.random((n, w.shape[1])) >= dropout_p) / keep
                 for w, _ in params.layers[:-1]]
    _, analytic = training_loss_and_gradients(params.layers, x, y, masks)
    flat_analytic = [g for pair in analytic for g in pair]
    numeric = finite_difference_grads(params.layers, x, y, masks)
    worst = 0.0
    for ga, gn in zip(flat_analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1.0)
        worst = max(worst, float((np.abs(ga - gn) / denom).max()))
    return worst


# ---------------------------------------------------------------------------
# Per-array adapter training, the reference for the library's fused loop

def _reference_forward(layers, x, masks=None):
    """Forward pass; returns (output, cache) with pre-dropout activations."""
    a = x
    cache = []
    last = len(layers) - 1
    for idx, (w, b) in enumerate(layers):
        z = a @ w + b
        s = 1.0 / (1.0 + np.exp(-z))
        out = s
        if masks is not None and idx < last and masks[idx] is not None:
            out = s * masks[idx]
        cache.append((a, s))
        a = out
    return a, cache


def _reference_backward(layers, cache, dout, masks=None):
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


def reference_loss_and_gradients(layers, x, y, masks=None):
    """Mean squared element distance and its gradients, one array at a time."""
    out, cache = _reference_forward(layers, x, masks)
    diff = out - y
    n = x.shape[0]
    loss = float((diff * diff).sum() / n)
    grads = _reference_backward(layers, cache, (2.0 / n) * diff, masks)
    return loss, grads


class _Nadam:
    """Adaptive-moment descent with Nesterov momentum correction, one
    update per array.

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


def reference_train_on_pairs(params, pairs, cfg, on_epoch=None):
    """``train_on_pairs`` as a loop over separate weight arrays: fresh
    temporaries for every product, one optimizer update per array."""
    x, y = pairs
    n = x.shape[0]
    rng = np.random.default_rng([params.seed, params.train_calls])
    batch = min(cfg.batch_size or (n if n <= 4096 else 1024), n)
    use_dropout = cfg.dropout_p > 0.0
    keep = 1.0 - cfg.dropout_p
    hidden_shapes = [w.shape[1] for w, _ in params.layers[:-1]]

    layers = [(w.copy(), b.copy()) for w, b in params.layers]
    flat = [a for pair in layers for a in pair]
    opt = _Nadam(cfg.learning_rate, 0.004,
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
                    (rng.random((len(idx), h)) >= cfg.dropout_p) / keep
                    for h in hidden_shapes
                ]
            loss, grads = reference_loss_and_gradients(layers, x[idx], y[idx], masks)
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
