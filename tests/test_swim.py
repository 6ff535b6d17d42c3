import math
import sys
import threading

import numpy as np
import pytest

from warpmatch import (
    Dataset,
    FeatureMatrix,
    SwimConfig,
    SynthConfig,
    TrainConfig,
    ValidationError,
    adapt_matrix,
    dpw,
    dpw_distance_matrix,
    gen_task,
    match_topk,
    run_swim,
)
from warpmatch import swim
from warpmatch.swim import _greedy_pairs, rank_columns


def quick_train() -> TrainConfig:
    return TrainConfig(learning_rate=1e-2, lr_decay=1.5e-3, epochs=40)


def tied_task():
    """Seen ids listed 9, 4, 7 with identical templates for 9 and 4, so the
    emerging item 4 ties exactly between them."""
    rng = np.random.default_rng(11)
    a = FeatureMatrix(rng.uniform(0.1, 0.4, (3, 3, 2)))
    b = rng.uniform(0.6, 0.9, (3, 3, 2))
    c = FeatureMatrix(np.clip(b + rng.normal(0, 0.05, b.shape), 0.01, 0.99))
    b = FeatureMatrix(b)
    return (Dataset("seen", ((9, a), (4, a), (7, b))),
            Dataset("emerging", ((4, a), (7, b), (9, c))))


class TestDistanceMatrix:
    def test_zero_diagonal_for_identical_sets(self):
        rng = np.random.default_rng(0)
        mats = [FeatureMatrix(rng.uniform(0, 1, (3, 4, 2))) for _ in range(4)]
        d = dpw_distance_matrix(mats, mats)
        assert np.array_equal(np.diag(d), np.zeros(4))

    def test_matches_individual_calls(self):
        rng = np.random.default_rng(1)
        seen = [rng.uniform(0, 5, (3, 3, 2)) for _ in range(2)]
        emerging = [rng.uniform(0, 5, (4, 2, 2)) for _ in range(2)]
        d = dpw_distance_matrix(seen, emerging)
        for i in range(2):
            for j in range(2):
                assert d[i, j] == dpw(seen[i], emerging[j])[0]

    def test_mixed_shapes_grouped_correctly(self):
        rng = np.random.default_rng(2)
        # 1-row, 1-column and 1x1 matrices exercise the degenerate DP shapes.
        seen = [rng.uniform(0, 5, (3, 3, 2)), rng.uniform(0, 5, (2, 5, 2)),
                rng.uniform(0, 5, (3, 3, 2)), rng.uniform(0, 5, (1, 4, 2)),
                rng.uniform(0, 5, (3, 1, 2)), rng.uniform(0, 5, (1, 1, 2))]
        emerging = [rng.uniform(0, 5, (4, 2, 2)), rng.uniform(0, 5, (4, 2, 2)),
                    rng.uniform(0, 5, (2, 2, 2)), rng.uniform(0, 5, (1, 3, 2)),
                    rng.uniform(0, 5, (2, 1, 2)), rng.uniform(0, 5, (1, 1, 2))]
        d = dpw_distance_matrix(seen, emerging)
        for i in range(len(seen)):
            for j in range(len(emerging)):
                assert d[i, j] == dpw(seen[i], emerging[j])[0]

    def test_one_target_per_chunk_matches_default(self, monkeypatch):
        rng = np.random.default_rng(5)
        seen = [rng.uniform(0, 5, (3, 3, 2)) for _ in range(3)] + [rng.uniform(0, 5, (2, 4, 2))]
        emerging = [rng.uniform(0, 5, (2, 3, 2)) for _ in range(4)] + [rng.uniform(0, 5, (3, 3, 2))]
        default = dpw_distance_matrix(seen, emerging)
        monkeypatch.setattr(swim, "_CHUNK_BUDGET", 1)
        chunked = dpw_distance_matrix(seen, emerging)
        assert np.array_equal(chunked, default)
        assert np.array_equal(dpw_distance_matrix(seen, emerging, workers=3), default)
        for i in range(len(seen)):
            for j in range(len(emerging)):
                assert chunked[i, j] == dpw(seen[i], emerging[j])[0]

    def test_parallel_equals_serial(self, monkeypatch):
        # One seen matrix and one target per item, so 36 items spread over the threads;
        # a short switch interval makes the threads interleave often.
        monkeypatch.setattr(swim, "_CHUNK_BUDGET", 1)
        rng = np.random.default_rng(3)
        seen = [rng.uniform(0, 1, (3, 3, 2)) for _ in range(6)]
        emerging = [rng.uniform(0, 1, (3, 3, 2)) for _ in range(6)]
        serial = dpw_distance_matrix(seen, emerging, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (3, 8):
                parallel = dpw_distance_matrix(seen, emerging, workers=workers)
                assert np.array_equal(serial, parallel), workers
        finally:
            sys.setswitchinterval(interval)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            dpw_distance_matrix([np.ones((2, 2, 2))], [np.ones((2, 2, 3))])

    def test_workers_below_one_rejected(self):
        for workers in (0, -3):
            with pytest.raises(ValidationError, match="workers must be >= 1"):
                dpw_distance_matrix([np.ones((2, 2, 1))], [np.ones((2, 2, 1))], workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_cost_block_per_worker(self, monkeypatch, workers):
        """Twenty-four one-pair items, one cdist per target column (three
        each), reuse one cost block per worker."""
        monkeypatch.setattr(swim, "_CHUNK_BUDGET", 1)
        blocks = []
        real = swim.cdist

        def recording(*args, **kwargs):
            blocks.append(kwargs["out"].base)
            return real(*args, **kwargs)

        monkeypatch.setattr(swim, "cdist", recording)
        rng = np.random.default_rng(4)
        seen = [rng.uniform(0, 1, (3, 3, 2)) for _ in range(4)]
        emerging = [rng.uniform(0, 1, (3, 3, 2)) for _ in range(6)]
        d = dpw_distance_matrix(seen, emerging, workers)
        assert len(blocks) == 24 * 3
        assert len({id(block) for block in blocks}) == min(workers, 24)
        for i in range(len(seen)):
            for j in range(len(emerging)):
                assert d[i, j] == dpw(seen[i], emerging[j])[0]

    @pytest.mark.parametrize("budget", [1, 200, 700], ids=["below_one_pair", "one_pair",
                                                            "sub_groups"])
    def test_block_within_budget(self, monkeypatch, budget):
        """A seen group larger than the budget is cut into sub-groups, so no
        worker block exceeds the budget or one seen matrix's two rows of cells."""
        monkeypatch.setattr(swim, "_CHUNK_BUDGET", budget)
        blocks = []
        real = swim.cdist

        def recording(*args, **kwargs):
            blocks.append(kwargs["out"].base)
            return real(*args, **kwargs)

        monkeypatch.setattr(swim, "cdist", recording)
        rng = np.random.default_rng(6)
        (hs, ws), (he, we) = (3, 4), (5, 2)
        seen = [rng.uniform(0, 1, (hs, ws, 2)) for _ in range(9)]
        emerging = [rng.uniform(0, 1, (he, we, 2)) for _ in range(4)]
        assert 2 * he * ws * hs * len(seen) > budget
        d = dpw_distance_matrix(seen, emerging, workers=2)
        assert blocks and max(block.size for block in blocks) <= max(budget, 2 * he * ws * hs)
        for i in range(len(seen)):
            for j in range(len(emerging)):
                assert d[i, j] == dpw(seen[i], emerging[j])[0]

    @pytest.mark.parametrize("n_seen, n_emerging", [(0, 2), (2, 0), (0, 0)])
    def test_empty_set_rejected(self, n_seen, n_emerging):
        m = np.ones((2, 2, 1))
        with pytest.raises(ValidationError, match="distance matrix needs nonempty matrix sets"):
            dpw_distance_matrix([m] * n_seen, [m] * n_emerging)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_calling_thread_fills_first_part(self, monkeypatch, workers):
        """The caller runs every workers-th item and the pool the rest, so
        one worker starts no thread."""
        monkeypatch.setattr(swim, "_CHUNK_BUDGET", 1)
        threads = []
        real = swim.cdist

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(swim, "cdist", recording)
        rng = np.random.default_rng(5)
        seen = [rng.uniform(0, 1, (3, 3, 2)) for _ in range(4)]
        emerging = [rng.uniform(0, 1, (3, 3, 2)) for _ in range(6)]
        d = dpw_distance_matrix(seen, emerging, workers)
        assert threads.count(threading.get_ident()) == 3 * math.ceil(24 / workers)
        assert len(set(threads)) <= workers
        assert np.array_equal(d, dpw_distance_matrix(seen, emerging))

    def test_small_matrix_uses_every_worker(self, monkeypatch):
        """One work item per target, so a 20x20 matrix at the default budget
        spreads over both threads."""
        threads = set()
        real = swim.cdist

        def recording(*args, **kwargs):
            threads.add(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(swim, "cdist", recording)
        rng = np.random.default_rng(7)
        seen = [rng.uniform(0, 1, (10, 10, 8)) for _ in range(20)]
        emerging = [rng.uniform(0, 1, (10, 10, 8)) for _ in range(20)]
        d = dpw_distance_matrix(seen, emerging, workers=2)
        assert len(threads) == 2
        assert np.array_equal(d, dpw_distance_matrix(seen, emerging))


class TestGreedyBuild:
    def test_orders_by_best_distance(self):
        dist = np.array([
            [5.0, 1.0, 9.0],
            [4.0, 7.0, 2.0],
        ])
        pairs, dists = _greedy_pairs(dist, 3)
        assert list(dists) == sorted(dists)
        assert pairs.pairs[0] == (0, 1)  # emerging 1 has the global best 1.0
        assert pairs.pairs[1] == (1, 2)

    def test_ties_take_lowest_index(self):
        dist = np.array([
            [3.0, 3.0],
            [3.0, 3.0],
        ])
        pairs, _ = _greedy_pairs(dist, 2)
        assert pairs.pairs == ((0, 0), (0, 1))

    def test_topk_hits_rank_semantics(self):
        dist = np.array([
            [0.0, 2.0],
            [1.0, 1.0],
            [2.0, 0.0],
        ])
        # Seen ids equal row positions, so ties go to the lower index.
        _, top1, top5 = rank_columns(dist, [0, 1, 2], emerging_ids=[0, 2])
        assert top1 == 1.0 and top5 == 1.0
        _, top1, _ = rank_columns(dist, [0, 1, 2], emerging_ids=[1, 1])
        assert top1 == 0.0

    def test_rank_columns_breaks_ties_by_lower_class_id(self):
        dist = np.array([[1.0, 2.0], [1.0, 0.0], [3.0, 0.0]])
        order, top1, top5 = rank_columns(dist, [9, 4, 7], [4, 9])
        assert order.T.tolist() == [[1, 0, 2], [1, 2, 0]]
        assert top1 == 0.5 and top5 == 1.0


class TestSwimConfig:
    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ValidationError, match=rf"^eps must be in \(0, inf\), got {eps}$"):
            SwimConfig(eps=eps)

    @pytest.mark.parametrize("hidden", [0, -4])
    def test_nonpositive_hidden_rejected(self, hidden):
        with pytest.raises(ValidationError, match=f"^hidden must be >= 1, got {hidden}$"):
            SwimConfig(hidden=hidden)


class TestRunSwim:
    def test_single_item_set(self):
        rng = np.random.default_rng(5)
        seen = [FeatureMatrix(rng.uniform(0.2, 0.8, (3, 3, 2)))]
        emerging = [FeatureMatrix(rng.uniform(0.2, 0.8, (3, 3, 2)))]
        cfg = SwimConfig(alpha=1, hidden=4, train=TrainConfig(epochs=1),
                         max_sloma_iters=2, seed=0)
        assignment, params, steps, _ = run_swim(seen, emerging, cfg)
        assert len(steps) == 1
        assert assignment.pairs == ((0, 0),)

    def test_outer_iteration_count_is_ceil_n_over_alpha(self):
        rng = np.random.default_rng(6)
        n = 5
        seen = [FeatureMatrix(rng.uniform(0.2, 0.8, (2, 3, 2))) for _ in range(n)]
        emerging = [FeatureMatrix(rng.uniform(0.2, 0.8, (2, 3, 2))) for _ in range(n)]
        for alpha in (1, 2, 3, 5):
            cfg = SwimConfig(alpha=alpha, hidden=4,
                             train=TrainConfig(epochs=1),
                             max_sloma_iters=1, seed=0)
            _, _, steps, _ = run_swim(seen, emerging, cfg)
            assert len(steps) == math.ceil(n / alpha)
            assert steps[-1].n_pairs == n
            ns = [s.n_pairs for s in steps]
            assert ns == [min(alpha * t, n) for t in range(1, len(steps) + 1)]

    def test_emerging_indices_distinct_and_distances_nondecreasing(self):
        rng = np.random.default_rng(7)
        n = 6
        seen = [FeatureMatrix(rng.uniform(0.2, 0.8, (3, 3, 2))) for _ in range(n)]
        emerging = [FeatureMatrix(rng.uniform(0.2, 0.8, (3, 3, 2))) for _ in range(n)]
        cfg = SwimConfig(alpha=2, hidden=4, train=TrainConfig(epochs=1),
                         max_sloma_iters=1, seed=0)
        _, _, steps, _ = run_swim(seen, emerging, cfg)
        for step in steps:
            ls = [l for _, l in step.pairs]
            assert len(set(ls)) == len(ls)
            assert list(step.pair_distances) == sorted(step.pair_distances)

    def test_alpha_exceeding_set_size_rejected(self):
        rng = np.random.default_rng(8)
        mats = [FeatureMatrix(rng.uniform(0, 1, (2, 2, 1))) for _ in range(2)]
        cfg = SwimConfig(alpha=3, hidden=4, train=TrainConfig(epochs=1), seed=0)
        with pytest.raises(ValidationError):
            run_swim(mats, mats, cfg)

    def test_size_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        a = [FeatureMatrix(rng.uniform(0, 1, (2, 2, 1)))]
        b = [FeatureMatrix(rng.uniform(0, 1, (2, 2, 1)))] * 0
        cfg = SwimConfig(alpha=1, hidden=4, train=TrainConfig(epochs=1), seed=0)
        with pytest.raises(ValidationError):
            run_swim(a, list(b), cfg)

    def test_small_synthetic_task_matches_well(self):
        scfg = SynthConfig(n_classes=6, height=6, width=6, channels=4,
                           warp=0.3, map_kind="affine_sigmoid", map_gain=2.0,
                           noise_std=0.01, seed=21)
        seen, emerging, _ = gen_task(scfg)
        cfg = SwimConfig(alpha=2, eps=1e-3, hidden=24, train=quick_train(),
                         max_sloma_iters=10, seed=1)
        assignment, params, steps, _ = run_swim(
            seen.matrices, emerging.matrices, cfg,
            class_ids=(seen.class_ids, emerging.class_ids))
        assert steps[-1].top1 is not None and steps[-1].top1 >= 0.5
        correct = sum(1 for k, l in assignment.pairs
                      if seen.class_ids[k] == emerging.class_ids[l])
        assert correct >= 3

    def test_alpha_equals_n_single_round(self):
        rng = np.random.default_rng(10)
        n = 4
        seen = [FeatureMatrix(rng.uniform(0.2, 0.8, (2, 3, 2))) for _ in range(n)]
        emerging = [FeatureMatrix(rng.uniform(0.2, 0.8, (2, 3, 2))) for _ in range(n)]
        cfg = SwimConfig(alpha=n, hidden=4, train=TrainConfig(epochs=1),
                         max_sloma_iters=1, seed=0)
        _, _, steps, _ = run_swim(seen, emerging, cfg)
        assert len(steps) == 1
        assert steps[0].n_pairs == n

    def test_trace_accuracy_equals_report_under_exact_tie(self):
        seen, emerging = tied_task()
        cfg = SwimConfig(alpha=3, hidden=8, max_sloma_iters=4, seed=0,
                         train=TrainConfig(learning_rate=1e-2, epochs=40))
        for workers in (1, 2):
            _, params, steps, dist = run_swim(seen.matrices, emerging.matrices, cfg,
                                              class_ids=(seen.class_ids, emerging.class_ids),
                                              workers=workers)
            d = dpw_distance_matrix(seen.matrices,
                                    [adapt_matrix(params, m) for m in emerging.matrices],
                                    workers)
            assert np.array_equal(dist, d)  # the returned matrix is the final one
            assert d[0, 0] == d[1, 0] == d[:, 0].min()  # the tie decides item 4's top-1
            report = match_topk(seen, emerging, params, k=3)
            assert report.items[0].ranked[0][0] == 4
            assert (steps[-1].top1, steps[-1].top5) == (report.top1, report.top5)

    def test_class_ids_validated(self):
        seen, emerging = tied_task()
        cfg = SwimConfig(alpha=3, hidden=4, train=TrainConfig(epochs=1), seed=0)
        for class_ids in (((9, 4), (4, 7, 9)),        # wrong length
                          ((9, 4, 7), (4, 7, 9, 1)),
                          ((9, 9, 7), (9, 9, 7)),     # repeated ids
                          ((9, 4, 7), (4, 7, 8))):    # sets differ
            with pytest.raises(ValidationError, match="class_ids"):
                run_swim(seen.matrices, emerging.matrices, cfg, class_ids=class_ids)
