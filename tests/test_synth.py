import math

import numpy as np
import pytest

from warpmatch import SynthConfig, ValidationError, dpw_distance_matrix, gen_task, synth
from warpmatch.swim import rank_columns
from warpmatch.synth import _monotone_map, _smooth_field

from oracles import reference_smooth_field


class TestConfig:
    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            SynthConfig(n_classes=1)

    def test_rejects_bad_warp(self):
        with pytest.raises(ValidationError):
            SynthConfig(warp=1.5)

    def test_rejects_unknown_map(self):
        with pytest.raises(ValidationError):
            SynthConfig(map_kind="rotation")

    @pytest.mark.parametrize("setting, message", [
        ({"height": 0}, "height must be >= 1, got 0"),
        ({"width": -1}, "width must be >= 1, got -1"),
        ({"channels": 0}, "channels must be >= 1, got 0"),
        ({"n_components": -1}, "n_components must be >= 0, got -1"),
        ({"component_mix": -0.1}, r"component_mix must be in \[0, 1\]"),
        ({"component_mix": 1.5}, r"component_mix must be in \[0, 1\]"),
        ({"component_mix": math.nan}, r"component_mix must be in \[0, 1\]"),
        ({"seed": -1}, "seed must be >= 0"),
    ], ids=str)
    def test_rejects_out_of_range(self, setting, message):
        with pytest.raises(ValidationError, match=message):
            SynthConfig(**setting)

    @pytest.mark.parametrize("setting", [{"map_gain": math.inf}, {"map_gain": math.nan},
                                         {"noise_std": math.nan}], ids=str)
    def test_rejects_non_finite(self, setting):
        (name, value), = setting.items()
        interval = {"map_gain": "(-inf, inf)", "noise_std": "[0, inf)"}[name]
        with pytest.raises(ValidationError) as exc:
            SynthConfig(**setting)
        assert str(exc.value) == f"{name} must be in {interval}, got {value!r}"


class TestSmoothField:
    @pytest.mark.parametrize("c", [1, 8, 160])
    @pytest.mark.parametrize("w", [1, 2, 3, 14])
    @pytest.mark.parametrize("h", [1, 2, 3, 14])
    def test_equals_reference_bytes(self, h, w, c):
        rng, ref_rng = np.random.default_rng([h, w, c]), np.random.default_rng([h, w, c])
        field = _smooth_field(h, w)(rng, c)
        ref = reference_smooth_field(ref_rng, h, w, c)
        assert field.shape == ref.shape == (h, w, c)
        assert field.tobytes() == ref.tobytes()
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("warp", [0.0, 0.95])
    @pytest.mark.parametrize("noise_std", [0.0, 0.02])
    @pytest.mark.parametrize("map_kind", ["identity", "affine_sigmoid"])
    @pytest.mark.parametrize("n_components", [0, 4])
    def test_gen_task_equals_reference(self, monkeypatch, n_components, map_kind, noise_std, warp):
        cfg = SynthConfig(n_classes=5, height=6, width=9, channels=3, warp=warp, map_kind=map_kind,
                          noise_std=noise_std, n_components=n_components, seed=11)
        task = gen_task(cfg)
        monkeypatch.setattr(synth, "_smooth_field",
                            lambda h, w: lambda rng, c: reference_smooth_field(rng, h, w, c))
        ref = gen_task(cfg)
        assert task[2] == ref[2]
        for ds, ref_ds in zip(task[:2], ref[:2]):
            assert [cid for cid, _ in ds.entries] == [cid for cid, _ in ref_ds.entries]
            for (_, m), (_, r) in zip(ds.entries, ref_ds.entries):
                assert m.shape == r.shape
                assert m.data.tobytes() == r.data.tobytes()


class TestMonotoneMap:
    def test_identity_at_zero_intensity(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(_monotone_map(rng, 7, 0.0), np.arange(7))

    def test_endpoints_pinned_and_nondecreasing(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            m = _monotone_map(rng, n, float(rng.uniform(0.1, 1.0)))
            assert m[0] == 0 and m[-1] == n - 1
            assert (np.diff(m) >= 0).all()
            assert ((0 <= m) & (m < n)).all()


class TestGenTask:
    def test_deterministic_per_seed(self):
        cfg = SynthConfig(n_classes=3, height=5, width=5, channels=2, seed=9)
        a_seen, a_em, a_truth = gen_task(cfg)
        b_seen, b_em, b_truth = gen_task(cfg)
        assert a_truth == b_truth
        for (_, ma), (_, mb) in zip(a_seen.entries, b_seen.entries):
            assert ma.data.tobytes() == mb.data.tobytes()
        for (_, ma), (_, mb) in zip(a_em.entries, b_em.entries):
            assert ma.data.tobytes() == mb.data.tobytes()

    def test_identity_settings_reproduce_seen(self):
        cfg = SynthConfig(n_classes=3, height=4, width=6, channels=2,
                          warp=0.0, map_kind="identity", noise_std=0.0, seed=2)
        seen, emerging, _ = gen_task(cfg)
        for (_, s), (_, e) in zip(seen.entries, emerging.entries):
            assert s == e
        d = dpw_distance_matrix(seen.matrices, emerging.matrices)
        assert np.array_equal(np.diag(d), np.zeros(3))

    def test_dims_preserved_and_truth_bijective(self):
        cfg = SynthConfig(n_classes=4, height=5, width=7, channels=3,
                          warp=0.9, seed=3)
        seen, emerging, truth = gen_task(cfg)
        for _, m in emerging.entries:
            assert m.shape == (5, 7, 3)
        assert sorted(truth.keys()) == sorted(truth.values()) == list(range(4))

    def test_shared_components_make_classes_similar(self):
        base = dict(n_classes=6, height=6, width=6, channels=3, warp=0.0,
                    map_kind="identity", noise_std=0.0, seed=4)
        free = gen_task(SynthConfig(**base))[0]
        shared = gen_task(SynthConfig(**base, n_components=3, component_mix=0.9))[0]

        def mean_gap(ds):
            mats = [m.data for m in ds.matrices]
            gaps = [np.abs(a - b).mean()
                    for i, a in enumerate(mats) for b in mats[i + 1:]]
            return float(np.mean(gaps))

        assert mean_gap(shared) < mean_gap(free) * 0.6

    def test_alignment_ranking_beats_pointwise_under_warp(self):
        # averaged over seeds: raw alignment distance ranks true classes at
        # least as well as raw pointwise distance when only warps separate
        # the modalities
        dpw_acc, l1_acc = [], []
        for seed in range(20):
            cfg = SynthConfig(n_classes=5, height=6, width=6, channels=3,
                              warp=0.6, map_kind="identity", noise_std=0.02,
                              seed=seed)
            seen, emerging, tm = gen_task(cfg)
            ids = (seen.class_ids, [tm[cid] for cid in emerging.class_ids])
            d = dpw_distance_matrix(seen.matrices, emerging.matrices)
            dpw_acc.append(rank_columns(d, *ids)[1])
            l1 = np.array([
                [float(np.abs(s.data - e.data).sum()) for e in emerging.matrices]
                for s in seen.matrices
            ])
            l1_acc.append(rank_columns(l1, *ids)[1])
        assert np.mean(dpw_acc) >= np.mean(l1_acc)
