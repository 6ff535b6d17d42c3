"""Independent oracles shared by the unit and acceptance tests.

Everything here is deliberately written without the library's DP kernels:
recursive path enumeration, pure-Python sums, and finite differences.
"""

import itertools

import numpy as np

from warpmatch.adapter import training_loss_and_gradients
from warpmatch.dpw import HiPa, PathNode
from warpmatch.errors import ValidationError


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


def max_relative_gradient_error(params, n=6, dropout_mask=False, seed=0):
    """Worst relative disagreement between analytic and numeric gradients."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, (n, params.n_in))
    y = rng.uniform(0.05, 0.95, (n, params.n_out))
    masks = None
    if dropout_mask:
        keep = 1.0 - params.dropout_p
        masks = [(rng.random((n, w.shape[1])) >= params.dropout_p) / keep
                 for w, _ in params.layers[:-1]]
    _, analytic = training_loss_and_gradients(params.layers, x, y, masks)
    flat_analytic = [g for pair in analytic for g in pair]
    numeric = finite_difference_grads(params.layers, x, y, masks)
    worst = 0.0
    for ga, gn in zip(flat_analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1.0)
        worst = max(worst, float((np.abs(ga - gn) / denom).max()))
    return worst
