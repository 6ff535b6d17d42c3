"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Each test prints one PASS/FAIL line (visible with `pytest -s` or `-rA`).
The end-to-end matching runs take a few minutes; run this module alone with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from oracles import brute_dpw_min, dtw_distance, max_relative_gradient_error

from warpmatch import (
    MatchedPairSet,
    SwimConfig,
    SynthConfig,
    TrainConfig,
    adapt_matrix,
    dpw,
    dpw_distance_matrix,
    gen_task,
    init_adapter,
    knn_baseline,
    match_topk,
    optimal_hipa,
    path_cost,
    run_sloma,
    run_swim,
    toy_pair,
    validate_hipa,
)
from warpmatch.cli import main as cli_main


def report(criterion, ok, detail):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared end-to-end task (criteria 7 and 8 use the same alpha=1 run)

TASK_CFG = SynthConfig(
    n_classes=20, height=10, width=10, channels=8,
    warp=0.95, map_kind="affine_sigmoid", map_gain=3.0,
    noise_std=0.015, n_components=4, component_mix=0.75, seed=13,
)
TRAIN_CFG = TrainConfig(learning_rate=1e-2, lr_decay=1.5e-3, epochs=200)


def swim_config(alpha):
    return SwimConfig(alpha=alpha, eps=1e-3, hidden=64, train=TRAIN_CFG,
                      max_sloma_iters=30, seed=3)


@pytest.fixture(scope="module")
def e2e_task():
    seen, emerging, _ = gen_task(TASK_CFG)
    return seen, emerging


@pytest.fixture(scope="module")
def e2e_alpha1(e2e_task):
    seen, emerging = e2e_task
    started = time.perf_counter()
    assignment, params, steps, _ = run_swim(
        seen.matrices, emerging.matrices, swim_config(1),
        class_ids=(seen.class_ids, emerging.class_ids))
    elapsed = time.perf_counter() - started
    return assignment, params, steps, elapsed


# ---------------------------------------------------------------------------

def test_criterion_01_toy_golden_pair(tmp_path, capsys):
    from test_cli import write_toy_csvs

    s, e = toy_pair()
    started = time.perf_counter()
    distance, _ = dpw(s, e)
    elapsed = time.perf_counter() - started
    pointwise = float(np.abs(s.data - e.data).sum())
    csv_s, csv_e = write_toy_csvs(tmp_path)
    assert cli_main(["dpw", "dist", csv_s, csv_e]) == 0
    printed = capsys.readouterr().out.strip()
    with capsys.disabled():
        report(1, distance == 654.0 and pointwise == 1118.0
               and printed == "654" and elapsed < 1.0,
               f"dpw={distance}, L1={pointwise}, cli='{printed}', {elapsed:.3f}s")


def test_criterion_02_optimality_oracle(capsys):
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    cases = 0
    for _ in range(220):
        hs, ws, he, we = (int(rng.integers(1, 4)) for _ in range(4))
        a = np.round(rng.uniform(0, 10, (hs, ws)), 3)
        b = np.round(rng.uniform(0, 10, (he, we)), 3)
        d, tables = dpw(a, b)
        oracle = brute_dpw_min(a, b)
        hipa = optimal_hipa(a, b, tables)
        cost = path_cost(a, b, hipa)
        worst = max(worst, abs(d - oracle), abs(cost - oracle))
        cases += 1
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(2, worst <= 1e-9 and elapsed < 30.0,
               f"{cases} cases, worst |dp-oracle|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_dtw_reduction(capsys):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        w1, w2, c = rng.integers(1, 8), rng.integers(1, 8), rng.integers(1, 4)
        a = rng.uniform(0, 5, (1, w1, c))
        b = rng.uniform(0, 5, (1, w2, c))
        worst = max(worst, abs(dpw(a, b)[0] - dtw_distance(a[0], b[0])))
    for _ in range(100):
        h1, h2, c = rng.integers(1, 8), rng.integers(1, 8), rng.integers(1, 4)
        a = rng.uniform(0, 5, (h1, 1, c))
        b = rng.uniform(0, 5, (h2, 1, c))
        worst = max(worst, abs(dpw(a, b)[0] - dtw_distance(a[:, 0, :], b[:, 0, :])))
    with capsys.disabled():
        report(3, worst <= 1e-12, f"200 cases, worst gap {worst:.2e}")


def test_criterion_04_hipa_validity(capsys):
    rng = np.random.default_rng(4)
    bad = 0
    for _ in range(500):
        hs, ws, he, we = (int(rng.integers(1, 7)) for _ in range(4))
        c = int(rng.integers(1, 4))
        a = rng.uniform(0, 5, (hs, ws, c))
        b = rng.uniform(0, 5, (he, we, c))
        hipa = optimal_hipa(a, b)
        if validate_hipa(hipa, (hs, ws), (he, we)):
            bad += 1
    with capsys.disabled():
        report(4, bad == 0, f"500 instances, {bad} invalid paths")


def test_criterion_05_gradient_check(capsys):
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(50):
        c = int(rng.integers(1, 6))
        hidden = int(rng.integers(1, 10))
        params = init_adapter(c, hidden, seed=trial)
        dropout_p = 0.2 if trial % 5 == 0 else 0.0
        err = max_relative_gradient_error(
            params, n=int(rng.integers(1, 7)), dropout_p=dropout_p, seed=trial)
        worst = max(worst, err)
    with capsys.disabled():
        report(5, worst <= 1e-4, f"50 configurations, worst rel err {worst:.2e}")


def test_criterion_06_sloma_recovery(capsys):
    cfg = SynthConfig(n_classes=6, height=8, width=8, channels=6,
                      warp=0.0, map_kind="affine_sigmoid", map_gain=2.0,
                      noise_std=0.0, seed=7)
    seen, emerging, _ = gen_task(cfg)
    pairs = MatchedPairSet(tuple((i, i) for i in range(seen.size)))
    params0 = init_adapter(6, 48, seed=1, pass_through=True)
    started = time.perf_counter()
    params, steps = run_sloma(seen.matrices, emerging.matrices, pairs, params0,
                              eps=1e-3, cfg=TRAIN_CFG, max_iters=50)
    elapsed = time.perf_counter() - started
    adapted = [adapt_matrix(params, m) for m in emerging.matrices]
    final = float(np.mean([
        dpw_distance_matrix([s], [a])[0, 0]
        for s, a in zip(seen.matrices, adapted)
    ]))
    initial = steps[0].match_cost
    drop = 1.0 - final / initial
    eps_terminated = steps[-1].weight_delta <= 1e-3 and len(steps) < 50
    with capsys.disabled():
        report(6, drop >= 0.90 and eps_terminated and elapsed < 300.0,
               f"distance {initial:.2f}->{final:.2f} ({drop * 100:.1f}% drop), "
               f"{len(steps)} iterations, eps-terminated={eps_terminated}, {elapsed:.0f}s")


def test_criterion_07_end_to_end_swim(e2e_task, e2e_alpha1, capsys):
    seen, emerging = e2e_task
    _, params, steps, elapsed = e2e_alpha1
    rep = match_topk(seen, emerging, params, k=5)
    base = knn_baseline(seen, emerging, params, k=5)
    rising = steps[-1].top1 > steps[0].top1
    ok = (rep.top1 >= 0.90 and rep.top1 > base.top1 and rising
          and elapsed < 600.0)
    with capsys.disabled():
        report(7, ok,
               f"top1={rep.top1:.2f} (knn {base.top1:.2f}), "
               f"tracked T1={steps[0].top1:.2f} -> T{len(steps)}={steps[-1].top1:.2f}, "
               f"{elapsed:.0f}s")


def test_criterion_08_step_size_study(e2e_task, e2e_alpha1, capsys):
    seen, emerging = e2e_task
    n = seen.size
    finals = {}
    iters = {}
    _, params1, steps1, _ = e2e_alpha1
    iters[1] = len(steps1)
    finals[1] = match_topk(seen, emerging, params1, k=5).top1
    for alpha in (5, 20):
        _, params, steps, _ = run_swim(
            seen.matrices, emerging.matrices, swim_config(alpha),
            class_ids=(seen.class_ids, emerging.class_ids))
        iters[alpha] = len(steps)
        finals[alpha] = match_topk(seen, emerging, params, k=5).top1
    counts_ok = all(iters[a] == math.ceil(n / a) for a in (1, 5, 20))
    trend_ok = finals[1] >= finals[20]
    with capsys.disabled():
        report(8, counts_ok and trend_ok,
               f"iterations {iters} (expected ceil(20/a)), finals {finals}")


def test_criterion_09_performance(capsys):
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 1, (10, 10, 160))
    b = rng.uniform(0, 1, (10, 10, 160))
    for _ in range(3):
        dpw(a, b)
    times = []
    for _ in range(21):
        started = time.perf_counter()
        dpw(a, b)
        times.append(time.perf_counter() - started)
    median_ms = sorted(times)[10] * 1e3

    seen = [rng.uniform(0, 1, (10, 10, 160)) for _ in range(100)]
    emerging = [rng.uniform(0, 1, (10, 10, 160)) for _ in range(100)]
    started = time.perf_counter()
    dist = dpw_distance_matrix(seen, emerging, workers=1)
    matrix_s = time.perf_counter() - started
    with capsys.disabled():
        report(9, median_ms <= 5.0 and matrix_s <= 30.0 and dist.shape == (100, 100),
               f"single call median {median_ms:.2f} ms, 100x100 matrix {matrix_s:.1f} s")


def test_criterion_10_headline_results_out_of_scope(capsys):
    # The published large-scale accuracy numbers need a 3755-class glyph corpus
    # and a trained convolutional encoder; neither is desk-reproducible here.
    # Criteria 6-8 are the property-based substitutes, so this suite must
    # contain them rather than any attempt at those tables.
    substitutes = [
        test_criterion_06_sloma_recovery,
        test_criterion_07_end_to_end_swim,
        test_criterion_08_step_size_study,
    ]
    with capsys.disabled():
        report(10, all(callable(f) for f in substitutes),
               "headline corpus results not reproducible at desk scale; "
               "criteria 6-8 stand in")
