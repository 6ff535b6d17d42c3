import numpy as np
import pytest

from warpmatch import (
    FeatureMatrix,
    MatchedPairSet,
    SynthConfig,
    TrainConfig,
    ValidationError,
    adapt_matrix,
    gen_task,
    init_adapter,
    param_delta,
    run_sloma,
)
from warpmatch.dpw import PathNode, _flatten, _walk, dpw, optimal_hipa
from warpmatch.swim import dpw_distance_matrix

from oracles import element_pairs_per_node


def identity_pairs(n):
    return MatchedPairSet(tuple((i, i) for i in range(n)))


class TestMatchedPairSet:
    def test_emerging_indices_must_be_distinct(self):
        with pytest.raises(ValidationError):
            MatchedPairSet(((0, 1), (2, 1)))

    def test_seen_indices_may_repeat(self):
        ps = MatchedPairSet(((0, 1), (0, 2)))
        assert ps.n == 2

    @pytest.mark.parametrize("pair", [(1.9, 0), ("2", 1), (0, np.array([1])), (0, 1.0)])
    def test_non_integer_index_rejected(self, pair):
        with pytest.raises(ValidationError, match="index must be an integer"):
            MatchedPairSet((pair,))

    def test_numpy_integers_become_ints(self):
        ps = MatchedPairSet(((np.int64(3), np.uint8(1)),))
        assert ps.pairs == ((3, 1),)
        assert all(type(i) is int for i in ps.pairs[0])


class TestElementPairs:
    def test_equals_per_node_gather(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            hs, ws, he, we = (int(v) for v in rng.integers(1, 7, 4))
            c = int(rng.integers(1, 5))
            seen = rng.uniform(0, 5, (hs, ws, c))
            emerging = rng.uniform(0, 5, (he, we, c))
            _, tables = dpw(seen, emerging)
            hs, ws, he, we = _flatten(_walk(tables))
            x_ref, y_ref = element_pairs_per_node(
                seen, emerging, optimal_hipa(seen, emerging, tables))
            assert np.array_equal(emerging[he, we], x_ref)
            assert np.array_equal(seen[hs, ws], y_ref)


class TestRunSloma:
    def test_already_matched_converges_in_one_iteration(self):
        rng = np.random.default_rng(0)
        mats = [FeatureMatrix(rng.uniform(0.2, 0.8, (4, 4, 3))) for _ in range(3)]
        params0 = init_adapter(3, 8, seed=1, pass_through=True)
        cfg = TrainConfig(epochs=3)
        params, steps = run_sloma(mats, mats, identity_pairs(3), params0,
                                  eps=1e9, cfg=cfg, max_iters=10)
        assert len(steps) == 1
        assert steps[0].match_cost == 0.0

    def test_max_iters_zero_returns_params_unchanged(self):
        rng = np.random.default_rng(1)
        mats = [FeatureMatrix(rng.uniform(0, 1, (3, 3, 2))) for _ in range(2)]
        params0 = init_adapter(2, 4, seed=2)
        params, steps = run_sloma(mats, mats, identity_pairs(2), params0,
                                  eps=1e-3, cfg=TrainConfig(epochs=1), max_iters=0)
        assert steps == []
        assert params is params0

    def test_empty_pair_set_rejected(self):
        with pytest.raises(ValidationError):
            run_sloma([], [], MatchedPairSet(()), init_adapter(2, 4),
                      eps=1e-3, cfg=TrainConfig(), max_iters=1)

    def test_nonpositive_eps_rejected(self):
        rng = np.random.default_rng(2)
        mats = [FeatureMatrix(rng.uniform(0, 1, (2, 2, 2)))]
        with pytest.raises(ValidationError):
            run_sloma(mats, mats, identity_pairs(1), init_adapter(2, 4),
                      eps=0.0, cfg=TrainConfig(), max_iters=1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        rng = np.random.default_rng(2)
        mats = [FeatureMatrix(rng.uniform(0, 1, (2, 2, 2)))]
        with pytest.raises(ValidationError, match=rf"^eps must be in \(0, inf\), got {eps}$"):
            run_sloma(mats, mats, identity_pairs(1), init_adapter(2, 4),
                      eps=eps, cfg=TrainConfig(), max_iters=1)

    @pytest.mark.parametrize("pair", [(0, 2), (3, 0), (-1, 0)])
    def test_pair_out_of_range_rejected(self, pair):
        rng = np.random.default_rng(2)
        mats = [FeatureMatrix(rng.uniform(0, 1, (2, 2, 2))) for _ in range(2)]
        with pytest.raises(ValidationError, match=f"pair \\({pair[0]},{pair[1]}\\) out of range"):
            run_sloma(mats, mats[:2], MatchedPairSet((pair,)), init_adapter(2, 4),
                      eps=1e-3, cfg=TrainConfig(), max_iters=1)

    def test_negative_max_iters_rejected(self):
        rng = np.random.default_rng(2)
        mats = [FeatureMatrix(rng.uniform(0, 1, (2, 2, 2)))]
        with pytest.raises(ValidationError, match="max_iters must be >= 0"):
            run_sloma(mats, mats, identity_pairs(1), init_adapter(2, 4),
                      eps=1e-3, cfg=TrainConfig(), max_iters=-3)

    def test_affine_map_recovery_reduces_distance(self):
        cfg = SynthConfig(n_classes=4, height=6, width=6, channels=4,
                          warp=0.0, map_kind="affine_sigmoid", map_gain=2.0,
                          noise_std=0.0, seed=3)
        seen, emerging, _ = gen_task(cfg)
        params0 = init_adapter(4, 24, seed=5, pass_through=True)
        tc = TrainConfig(learning_rate=1e-2, lr_decay=1.5e-3, epochs=100)
        params, steps = run_sloma(seen.matrices, emerging.matrices,
                                  identity_pairs(4), params0,
                                  eps=1e-3, cfg=tc, max_iters=25)
        assert len(steps) <= 25
        adapted = [adapt_matrix(params, m) for m in emerging.matrices]
        final = float(np.mean([
            dpw_distance_matrix([s], [a])[0, 0]
            for s, a in zip(seen.matrices, adapted)
        ]))
        assert final < steps[0].match_cost * 0.5

    def test_trace_fields_and_position_preservation(self):
        rng = np.random.default_rng(4)
        seen = [FeatureMatrix(rng.uniform(0.2, 0.8, (3, 5, 2))) for _ in range(2)]
        emerging = [FeatureMatrix(rng.uniform(0.2, 0.8, (4, 3, 2))) for _ in range(2)]
        params0 = init_adapter(2, 6, seed=6)
        tc = TrainConfig(epochs=2)
        params, steps = run_sloma(seen, emerging, identity_pairs(2), params0,
                                  eps=1e-12, cfg=tc, max_iters=4)
        assert [s.iteration for s in steps] == list(range(1, len(steps) + 1))
        assert len(steps) <= 4
        for m in emerging:
            assert adapt_matrix(params, m).shape == m.shape

    def test_builds_no_path_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the inner loop built a PathNode")

        monkeypatch.setattr(PathNode, "__post_init__", refuse)
        rng = np.random.default_rng(3)
        mats = [FeatureMatrix(rng.uniform(0.2, 0.8, (3, 4, 2))) for _ in range(2)]
        _, steps = run_sloma(mats, mats[::-1], identity_pairs(2), init_adapter(2, 4, seed=1),
                             eps=1e-12, cfg=TrainConfig(epochs=2), max_iters=3)
        assert len(steps) == 3

    def test_overflowing_alignment_raises(self):
        a = FeatureMatrix(np.full((2, 2, 1), 1e200))
        with pytest.raises(ValidationError, match="nonempty and finite"):
            run_sloma([a], [FeatureMatrix(-a.data)], identity_pairs(1),
                      init_adapter(1, 2, pass_through=True),
                      eps=1e-3, cfg=TrainConfig(epochs=1), max_iters=1)

    def test_pass_through_flag_cleared_after_first_optimize(self):
        rng = np.random.default_rng(5)
        mats = [FeatureMatrix(rng.uniform(0.2, 0.8, (3, 3, 2))) for _ in range(2)]
        params0 = init_adapter(2, 4, seed=7, pass_through=True)
        params, _ = run_sloma(mats, mats, identity_pairs(2), params0,
                              eps=1e9, cfg=TrainConfig(epochs=1),
                              max_iters=3)
        assert params0.pass_through
        assert not params.pass_through

    def test_optimize_step_does_not_increase_fixed_path_objective(self):
        from warpmatch import path_cost, train_on_pairs

        cfg = SynthConfig(n_classes=3, height=5, width=5, channels=3,
                          warp=0.0, map_kind="affine_sigmoid", map_gain=2.0,
                          noise_std=0.0, seed=8)
        seen, emerging, _ = gen_task(cfg)
        params = init_adapter(3, 12, seed=9, pass_through=True)
        hipas = []
        xs, ys = [], []
        for s, e in zip(seen.matrices, emerging.matrices):
            _, tables = dpw(s, adapt_matrix(params, e))
            hp = optimal_hipa(s, adapt_matrix(params, e), tables)
            hipas.append(hp)
            hs, ws, he, we = hp.index_arrays()
            xs.append(e.data[he, we])
            ys.append(s.data[hs, ws])

        def objective(p):
            return float(np.mean([
                path_cost(s, adapt_matrix(p, e), hp)
                for s, e, hp in zip(seen.matrices, emerging.matrices, hipas)
            ]))

        before = objective(params)
        trained, _ = train_on_pairs(
            params, (np.concatenate(xs), np.concatenate(ys)),
            TrainConfig(learning_rate=1e-2, epochs=100))
        after = objective(trained)
        assert after <= before

    def test_training_moves_weights_and_reports_loss(self):
        # adapted matrices keep (H, W); correspondences transfer to raw positions
        rng = np.random.default_rng(6)
        seen = [FeatureMatrix(rng.uniform(0.2, 0.8, (2, 4, 2)))]
        emerging = [FeatureMatrix(rng.uniform(0.2, 0.8, (2, 4, 2)))]
        params0 = init_adapter(2, 4, seed=8)
        params, steps = run_sloma(seen, emerging, identity_pairs(1), params0,
                                  eps=1e-12, cfg=TrainConfig(epochs=1),
                                  max_iters=2)
        assert steps[0].train_loss >= 0.0
        assert param_delta(params, params0) > 0.0
