import math

import numpy as np
import pytest

from warpmatch import (
    DivergenceError,
    FeatureMatrix,
    FormatError,
    ValidationError,
    adapt_matrix,
    init_adapter,
    load_adapter,
    param_delta,
    save_adapter,
    train_on_pairs,
)
from warpmatch.adapter import AdapterParams, TrainConfig


from oracles import max_relative_gradient_error, reference_train_on_pairs


def reference_forward(layers, x):
    """Second, list-based forward implementation used as an oracle."""
    a = list(x)
    for w, b in layers:
        z = []
        for j in range(w.shape[1]):
            s = b[j]
            for i in range(w.shape[0]):
                s += a[i] * w[i, j]
            z.append(s)
        a = [1.0 / (1.0 + math.exp(-v)) for v in z]
    return a


def adapt_one(params, x):
    """One element through ``adapt_matrix``, as a 1 x 1 matrix."""
    return adapt_matrix(params, np.reshape(x, (1, 1, -1))).data[0, 0]


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_adapter(8, 16, seed=5)
        b = init_adapter(8, 16, seed=5)
        assert param_delta(a, b) == 0.0

    def test_different_seed_differs(self):
        assert param_delta(init_adapter(8, 16, seed=5), init_adapter(8, 16, seed=6)) > 0

    def test_character_task_shapes(self):
        p = init_adapter(160, 400, seed=0)
        assert p.layer_sizes == (160, 400, 160)

    def test_sign_task_shapes(self):
        p = init_adapter(80, 200, seed=0)
        assert p.layer_sizes == (80, 200, 80)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValidationError):
            init_adapter(0, 4)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            init_adapter(2, 4, seed=-1)
        layers = init_adapter(2, 4).layers
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            AdapterParams(layers, seed=-1)

    def test_in_out_must_match(self):
        with pytest.raises(ValidationError):
            AdapterParams((
                (np.zeros((3, 4)), np.zeros(4)),
                (np.zeros((4, 2)), np.zeros(2)),
            ))


class TestForward:
    def test_zero_params_give_half(self):
        p = AdapterParams((
            (np.zeros((3, 5)), np.zeros(5)),
            (np.zeros((5, 3)), np.zeros(3)),
        ))
        out = adapt_one(p, [0.3, 0.7, 0.1])
        assert np.allclose(out, 0.5)

    def test_pass_through_is_identity(self):
        p = init_adapter(4, 8, seed=0, pass_through=True)
        x = np.array([0.1, 0.9, 0.4, 0.2])
        assert np.array_equal(adapt_one(p, x), x)
        m = FeatureMatrix(np.random.default_rng(0).uniform(0, 1, (3, 3, 4)))
        assert adapt_matrix(p, m) == m

    def test_matches_reference_forward(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = init_adapter(int(rng.integers(1, 5)), int(rng.integers(1, 7)),
                             seed=int(rng.integers(1000)))
            x = rng.uniform(-1, 1, p.n_in)
            expect = reference_forward(p.layers, x)
            got = adapt_one(p, x)
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        p = init_adapter(4, 8, seed=0)
        with pytest.raises(ValidationError):
            adapt_one(p, [1.0, 2.0])


class TestAdaptMatrix:
    def test_dims_preserved(self):
        rng = np.random.default_rng(3)
        p = init_adapter(3, 6, seed=1)
        for _ in range(5):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)), 3)
            m = FeatureMatrix(rng.uniform(0, 1, shape))
            out = adapt_matrix(p, m)
            assert out.shape == m.shape

    def test_elementwise_consistency(self):
        rng = np.random.default_rng(4)
        p = init_adapter(3, 6, seed=1)
        m = FeatureMatrix(rng.uniform(0, 1, (4, 5, 3)))
        out = adapt_matrix(p, m)
        for _ in range(10):
            h = int(rng.integers(0, 4))
            w = int(rng.integers(0, 5))
            assert np.allclose(out.data[h, w], adapt_one(p, m.data[h, w]),
                               rtol=1e-12, atol=1e-12)


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(12):
            c = int(rng.integers(1, 5))
            hidden = int(rng.integers(1, 8))
            p = init_adapter(c, hidden, seed=trial)
            err = max_relative_gradient_error(p, n=int(rng.integers(1, 7)), seed=trial)
            assert err <= 1e-4

    def test_gradient_check_with_fixed_dropout_mask(self):
        for trial in range(4):
            p = init_adapter(3, 6, seed=100 + trial)
            err = max_relative_gradient_error(p, n=5, dropout_p=0.2, seed=trial)
            assert err <= 1e-4


class TestTraining:
    def test_perfect_targets_leave_params_unchanged(self):
        rng = np.random.default_rng(6)
        p = init_adapter(3, 6, seed=9)
        x = rng.uniform(0, 1, (8, 3))
        # targets are exactly the adapter's own outputs (batch forward,
        # so the fit is exact to the last bit and gradients are truly zero)
        y = adapt_matrix(p, x.reshape(8, 1, 3)).data.reshape(8, 3)
        cfg = TrainConfig(epochs=5)
        p2, loss = train_on_pairs(p, (x, y), cfg)
        assert loss == 0.0
        assert param_delta(p, p2) == 0.0

    def test_single_scalar_pair_converges(self):
        p = init_adapter(1, 8, seed=2)
        cfg = TrainConfig(learning_rate=1e-2, epochs=800)
        p, loss = train_on_pairs(p, (np.array([[0.3]]), np.array([[0.7]])), cfg)
        assert loss < 1e-3

    def test_scalar_map_converges(self):
        # C=1 squashing map learnable far below 1e-3
        rng = np.random.default_rng(7)
        x = rng.uniform(0.1, 0.9, (32, 1))
        y = 1 / (1 + np.exp(-(1.5 * (x - 0.5))))
        p = init_adapter(1, 8, seed=2)
        cfg = TrainConfig(learning_rate=1e-2, epochs=400)
        for _ in range(4):
            p, loss = train_on_pairs(p, (x, y), cfg)
        assert loss < 1e-3

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, (16, 2))
        y = rng.uniform(0, 1, (16, 2))
        cfg = TrainConfig(epochs=10, dropout_p=0.2, batch_size=4)
        p1, l1 = train_on_pairs(init_adapter(2, 5, seed=3), (x, y), cfg)
        p2, l2 = train_on_pairs(init_adapter(2, 5, seed=3), (x, y), cfg)
        assert l1 == l2
        assert param_delta(p1, p2) == 0.0

    def test_epoch_loss_non_increasing_without_dropout(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.1, 0.9, (64, 3))
        y = rng.uniform(0.2, 0.8, (64, 3))
        history = []
        cfg = TrainConfig(learning_rate=1e-3, epochs=30)
        train_on_pairs(init_adapter(3, 10, seed=4), (x, y), cfg,
                       on_epoch=lambda e, loss: history.append(loss))
        assert len(history) == 30
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValidationError, match="no training pairs"):
            train_on_pairs(init_adapter(2, 4), (np.empty((0, 2)), np.empty((0, 2))),
                           TrainConfig())

    def test_pairs_other_than_two_arrays_rejected(self):
        # A list or tuple of element pairs, or one pair of 1-D elements.
        x = np.array([[0.1, 0.2], [0.3, 0.4]])
        y = np.array([[0.2, 0.1], [0.4, 0.3]])
        listed = [(x[0], y[0]), (x[1], y[1])]
        for pairs in (listed, tuple(listed), (x[0], y[0]), [x, y]):
            with pytest.raises(ValidationError, match=r"tuple \(X, Y\) of two \(n, C\) arrays"):
                train_on_pairs(init_adapter(2, 4), pairs, TrainConfig(epochs=1))

    def test_non_finite_input_raises_divergence(self):
        x = np.array([[np.nan, 0.0]])
        y = np.array([[0.5, 0.5]])
        with pytest.raises(DivergenceError):
            train_on_pairs(init_adapter(2, 4), (x, y), TrainConfig(epochs=1))

    @pytest.mark.parametrize("bad", [np.array([["a", "b"], ["c", "d"]]),
                                     np.array([[0.1, 0.2], [0.3, 0.4]]) + 1j,
                                     np.array([[0.1, None], [0.3, 0.4]], dtype=object)],
                             ids=["str", "complex", "object"])
    def test_non_numeric_pairs_rejected(self, bad):
        good = np.array([[0.2, 0.1], [0.4, 0.3]])
        for pairs in ((bad, good), (good, bad)):
            with pytest.raises(ValidationError, match="^pairs must be numeric, got dtype"):
                train_on_pairs(init_adapter(2, 4), pairs, TrainConfig(epochs=1))

    @pytest.mark.parametrize("on_epoch", [5, "log"], ids=repr)
    def test_non_callable_on_epoch_rejected(self, on_epoch):
        x = np.array([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(ValidationError, match="^on_epoch must be callable or None, got "):
            train_on_pairs(init_adapter(2, 4), (x, x), TrainConfig(epochs=1), on_epoch=on_epoch)

    def test_lr_decay_shrinks_updates(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0.1, 0.9, (32, 2))
        y = rng.uniform(0.2, 0.8, (32, 2))
        p = init_adapter(2, 6, seed=5)
        cfg = TrainConfig(learning_rate=1e-2, lr_decay=5e-3, epochs=100)
        deltas = []
        for _ in range(12):
            p2, _ = train_on_pairs(p, (x, y), cfg)
            deltas.append(param_delta(p2, p))
            p = p2
        assert deltas[-1] < deltas[0] / 10


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": math.nan}, {"learning_rate": math.inf}, {"learning_rate": 0.0},
        {"lr_decay": math.nan}, {"lr_decay": math.inf}, {"lr_decay": -1e-3},
    ])
    def test_bad_float_rejected(self, kwargs):
        (name, value), = kwargs.items()
        interval = {"learning_rate": "(0, inf)", "lr_decay": "[0, inf)"}[name]
        with pytest.raises(ValidationError) as exc:
            TrainConfig(**kwargs)
        assert str(exc.value) == f"{name} must be in {interval}, got {value!r}"

    @pytest.mark.parametrize("kwargs", [
        {"dropout_p": 1.0}, {"dropout_p": -0.1}, {"dropout_p": math.nan}, {"batch_size": -1},
    ])
    def test_bad_rate_or_batch_rejected(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValidationError, match=f"{name} must be"):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_nonpositive_epochs_rejected(self, epochs):
        with pytest.raises(ValidationError, match=f"^epochs must be >= 1, got {epochs}$"):
            TrainConfig(epochs=epochs)


class TestAdapterParamsChecks:
    @pytest.mark.parametrize("layers, message", [
        (((np.zeros(3), np.zeros(3)),), r"each layer needs a \(n_in, n_out\) weight"),
        (((np.zeros((3, 3)), np.zeros(2)),), r"each layer needs a \(n_in, n_out\) weight"),
        (((np.zeros((2, 3)), np.zeros(3)), (np.zeros((4, 2)), np.zeros(2))),
         "layer dimensions do not chain"),
        (((np.full((2, 2), np.nan), np.zeros(2)),), "adapter weights must be finite"),
        (((np.zeros((2, 2)), np.array([0.0, np.inf])),), "adapter weights must be finite"),
        ((), "adapter needs at least one layer"),
    ], ids=["1d_weight", "bias_size", "no_chain", "nan_weight", "inf_bias", "no_layers"])
    def test_bad_layers_rejected(self, layers, message):
        with pytest.raises(ValidationError, match=message):
            AdapterParams(layers)

    def test_train_on_pairs_shape_checks(self):
        p = init_adapter(2, 4, seed=0)
        with pytest.raises(ValidationError, match=r"input/target shape mismatch: \(4, 2\) vs \(3, 2\)"):
            train_on_pairs(p, (np.zeros((4, 2)), np.zeros((3, 2))), TrainConfig(epochs=1))
        with pytest.raises(ValidationError, match="pair dimension mismatch: 3 vs 2"):
            train_on_pairs(p, (np.zeros((4, 3)), np.zeros((4, 3))), TrainConfig(epochs=1))


def adapter_with_layers(n_layers):
    """C=4 adapter with 1, 2 or 3 layers; random nonzero biases."""
    sizes = {1: (4, 4), 2: (4, 9, 4), 3: (4, 7, 5, 4)}[n_layers]
    rng = np.random.default_rng(20 + n_layers)
    return AdapterParams(tuple(
        (rng.uniform(-0.8, 0.8, (n_in, n_out)), rng.uniform(-0.1, 0.1, n_out))
        for n_in, n_out in zip(sizes, sizes[1:])
    ), seed=20 + n_layers)


def assert_same_bits(a, b):
    assert len(a.layers) == len(b.layers)
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        assert wa.tobytes() == wb.tobytes()
        assert ba.tobytes() == bb.tobytes()
    assert a.opt_steps == b.opt_steps
    assert a.train_calls == b.train_calls


class TestFusedEqualsReference:
    """The fused flat-vector loop against the per-array reference loop."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    # (batch, dropout, rate): batch None is the automatic full batch, and
    # dropout False trains at rate 0 whatever the rate.
    @pytest.mark.parametrize("batch, dropout, rate", [
        (None, False, 0.2),   # full batch
        (8, False, 0.2),      # minibatches, short last batch (37 = 4 * 8 + 5)
        (8, True, 0.2),
        (8, True, 0.5),
        (None, True, 0.5),    # dropout on the full batch
    ])
    @pytest.mark.parametrize("lr_decay", [0.0, 2e-3])
    def test_bit_identical(self, n_layers, batch, dropout, rate, lr_decay):
        rng = np.random.default_rng(n_layers)
        x = rng.uniform(0.0, 1.0, (37, 4))
        y = rng.uniform(0.1, 0.9, (37, 4))
        cfg = TrainConfig(learning_rate=1e-2, epochs=6, batch_size=batch or 0,
                          dropout_p=rate if dropout else 0.0, lr_decay=lr_decay)
        fused = reference = adapter_with_layers(n_layers)
        for _ in range(2):  # the RNG stream and both counters carry over
            hist_f, hist_r = [], []
            fused, loss_f = train_on_pairs(fused, (x, y), cfg,
                                           on_epoch=lambda e, l: hist_f.append((e, l)))
            reference, loss_r = reference_train_on_pairs(
                reference, (x, y), cfg, on_epoch=lambda e, l: hist_r.append((e, l)))
            assert_same_bits(fused, reference)
            assert loss_f == loss_r
            assert hist_f == hist_r
        assert fused.train_calls == 2
        assert fused.opt_steps == 2 * 6 * (1 if batch is None else 5)

    def test_acceptance_shape_bit_identical(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(0.05, 0.95, (1003, 8))
        y = rng.uniform(0.1, 0.9, (1003, 8))
        cfg = TrainConfig(learning_rate=1e-2, lr_decay=1.5e-3, epochs=20)
        params = init_adapter(8, 64, seed=3)
        fused, loss_f = train_on_pairs(params, (x, y), cfg)
        reference, loss_r = reference_train_on_pairs(params, (x, y), cfg)
        assert_same_bits(fused, reference)
        assert loss_f == loss_r

    # batch_size 0 trains on the full batch up to 4,096 rows and on 1,024-row
    # minibatches above that: 4 * 1,024 + 1 rows take 5 steps per epoch.
    @pytest.mark.parametrize("n, steps", [(4096, 2), (4097, 10)])
    def test_automatic_batch_switch(self, n, steps):
        rng = np.random.default_rng(n)
        x = rng.uniform(0.0, 1.0, (n, 4))
        y = rng.uniform(0.1, 0.9, (n, 4))
        cfg = TrainConfig(learning_rate=1e-2, epochs=2)
        params = init_adapter(4, 8, seed=5)
        fused, loss_f = train_on_pairs(params, (x, y), cfg)
        reference, loss_r = reference_train_on_pairs(params, (x, y), cfg)
        assert fused.opt_steps == steps
        assert_same_bits(fused, reference)
        assert loss_f == loss_r

    @pytest.mark.parametrize("case", ["nan_input", "weight_overflow"])
    def test_same_divergence(self, case):
        rng = np.random.default_rng(32)
        x = rng.uniform(0.0, 1.0, (20, 3))
        y = rng.uniform(0.0, 1.0, (20, 3))
        if case == "nan_input":
            x[4, 1] = np.nan
            cfg = TrainConfig(epochs=3)
            expect = "non-finite training loss at epoch 0"
        else:
            cfg = TrainConfig(learning_rate=1.7e308, epochs=3)  # huge but finite
            expect = "non-finite adapter weights at epoch"
        params = init_adapter(3, 5, seed=1)
        messages = []
        for train in (train_on_pairs, reference_train_on_pairs):
            with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=expect) as err:
                train(params, (x, y), cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestParamDelta:
    def test_zero_for_identical(self):
        p = init_adapter(3, 5, seed=1)
        assert param_delta(p, p) == 0.0

    def test_single_weight_shift(self):
        p = init_adapter(3, 5, seed=1)
        layers = [(w.copy(), b.copy()) for w, b in p.layers]
        layers[0][0][1, 2] += 3.0
        q = AdapterParams(tuple(layers), seed=1)
        assert param_delta(p, q) == 3.0

    def test_matches_flatten_and_norm_oracle(self):
        a = init_adapter(4, 7, seed=2)
        b = init_adapter(4, 7, seed=3)
        flat = np.concatenate([
            np.concatenate([(wa - wb).ravel(), (ba - bb).ravel()])
            for (wa, ba), (wb, bb) in zip(a.layers, b.layers)
        ])
        assert param_delta(a, b) == pytest.approx(float(np.linalg.norm(flat)), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            param_delta(init_adapter(3, 5), init_adapter(3, 6))

    def test_layer_count_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="parameter shapes differ"):
            param_delta(adapter_with_layers(1), adapter_with_layers(2))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        p = init_adapter(5, 9, seed=11)
        path = tmp_path / "a.lfa"
        save_adapter(p, path)
        back = load_adapter(path)
        assert param_delta(p, back) == 0.0
        for (w1, b1), (w2, b2) in zip(p.layers, back.layers):
            assert w1.tobytes() == w2.tobytes()
            assert b1.tobytes() == b2.tobytes()

    def test_pass_through_params_refused(self, tmp_path):
        path = tmp_path / "p.lfa"
        with pytest.raises(ValidationError, match="^a pass-through adapter cannot be saved"):
            save_adapter(init_adapter(3, 4, pass_through=True), path)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lfa"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="byte offset 0"):
            load_adapter(path)

    def test_truncated(self, tmp_path):
        p = init_adapter(3, 4, seed=0)
        path = tmp_path / "t.lfa"
        save_adapter(p, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_adapter(path)
