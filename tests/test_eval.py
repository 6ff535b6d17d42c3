import json

import numpy as np
import pytest

from warpmatch import (
    Dataset,
    FeatureMatrix,
    ValidationError,
    adapt_matrix,
    dpw,
    dpw_distance_matrix,
    init_adapter,
    knn_baseline,
    match_topk,
    rank_report,
    report_csv_lines,
    report_json,
    toy_pair,
)

from oracles import l1_distance_matrix


def make_dataset(name, arrays, ids=None):
    ids = ids if ids is not None else range(len(arrays))
    return Dataset(name, tuple((cid, FeatureMatrix(a)) for cid, a in zip(ids, arrays)))


def random_task(seed, n=5, shape=(3, 4, 2)):
    rng = np.random.default_rng(seed)
    seen = make_dataset("seen", [rng.uniform(0, 1, shape) for _ in range(n)])
    emerging = make_dataset(
        "emerging", [m.data + rng.normal(0, 0.05, shape) for _, m in seen.entries])
    return seen, emerging


def pass_through(c):
    return init_adapter(c, 4, seed=0, pass_through=True)


class TestMatchTopk:
    def test_self_match_is_perfect(self):
        seen, _ = random_task(0)
        report = match_topk(seen, seen, pass_through(2), k=3)
        assert report.top1 == 1.0
        assert report.top5 == 1.0

    def test_k_equal_n_always_hits(self):
        seen, emerging = random_task(1)
        report = match_topk(seen, emerging, pass_through(2), k=5)
        assert report.top5 == 1.0

    def test_k_clamped_with_warning(self):
        seen, emerging = random_task(2)
        with pytest.warns(UserWarning, match="clamp"):
            report = match_topk(seen, emerging, pass_through(2), k=99)
        assert report.k == seen.size

    def test_rankings_match_independent_resort(self):
        seen, emerging = random_task(3)
        params = init_adapter(2, 6, seed=4)
        report = match_topk(seen, emerging, params, k=5)
        for item, (_, em) in zip(report.items, emerging.entries):
            adapted = adapt_matrix(params, em)
            dists = sorted(
                (dpw(sm, adapted)[0], scid) for scid, sm in seen.entries)
            assert [c for c, _ in item.ranked] == [c for _, c in dists]
            assert [d for _, d in item.ranked] == [d for d, _ in dists]

    def test_top1_never_exceeds_top5(self):
        for seed in range(5):
            seen, emerging = random_task(seed + 10)
            report = match_topk(seen, emerging, init_adapter(2, 4, seed=seed), k=5)
            assert report.top1 <= report.top5

    def test_order_permutation_invariance(self):
        seen, emerging = random_task(20)
        perm = [3, 1, 4, 0, 2]
        shuffled = Dataset("emerging", tuple(emerging.entries[i] for i in perm))
        a = match_topk(seen, emerging, pass_through(2), k=2)
        b = match_topk(seen, shuffled, pass_through(2), k=2)
        assert a.top1 == b.top1 and a.top5 == b.top5
        by_class_a = {i.emerging_class: i.ranked for i in a.items}
        by_class_b = {i.emerging_class: i.ranked for i in b.items}
        assert by_class_a == by_class_b

    def test_class_id_sets_must_agree(self):
        seen, emerging = random_task(30)
        other = Dataset("emerging", tuple(
            (cid + 100, m) for cid, m in emerging.entries))
        with pytest.raises(ValidationError):
            match_topk(seen, other, pass_through(2), k=1)

    def test_distance_ties_break_by_lower_class_id(self):
        m = np.full((2, 2, 1), 0.5)
        seen = make_dataset("seen", [m, m, m], ids=[9, 4, 7])
        emerging = make_dataset("emerging", [m, m, m], ids=[4, 7, 9])
        report = match_topk(seen, emerging, pass_through(1), k=3)
        for item in report.items:
            assert [c for c, _ in item.ranked] == [4, 7, 9]


class TestRankReport:
    def test_equals_match_topk_and_checks_shape(self):
        seen, emerging = random_task(50)
        params = init_adapter(2, 6, seed=5)
        dist = dpw_distance_matrix(seen.matrices,
                                   [adapt_matrix(params, m) for m in emerging.matrices])
        for k in (1, 3):
            assert rank_report(dist, seen, emerging, k) == match_topk(seen, emerging, params, k)
        for bad in (dist[:, :-1], dist.ravel()):
            with pytest.raises(ValidationError, match="distance matrix shape"):
                rank_report(bad, seen, emerging, k=3)

    @pytest.mark.parametrize("entries", [[(0, 0)], [(0, 1), (2, 2)], "all"], ids=str)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_distance_rejected(self, entries, value):
        seen, emerging = random_task(51, n=3)
        dist = np.ones((3, 3))
        for i, j in (np.ndindex(3, 3) if entries == "all" else entries):
            dist[i, j] = value
        with pytest.raises(ValidationError, match="distance matrix must be finite"):
            rank_report(dist, seen, emerging, k=3)

    @pytest.mark.parametrize("dist", [[["a"] * 3] * 3, [[None] * 3] * 3,
                                      np.ones((3, 3), dtype=complex)], ids=["str", "none", "complex"])
    def test_non_numeric_distance_rejected(self, dist):
        seen, emerging = random_task(52, n=3)
        with pytest.raises(ValidationError, match="distance matrix must be numeric"):
            rank_report(dist, seen, emerging, k=3)

    def test_ragged_distance_rejected(self):
        seen, emerging = random_task(52, n=3)
        with pytest.raises(ValidationError, match="distance matrix must be a numeric array"):
            rank_report([[1.0, 2.0, 3.0], [1.0], [2.0, 3.0]], seen, emerging, k=3)

    def test_integer_distances_rank_as_floats(self):
        seen, emerging = random_task(53, n=3)
        dist = [[3, 1, 2], [1, 2, 3], [2, 3, 1]]
        report = rank_report(dist, seen, emerging, k=2)
        assert report == rank_report(np.array(dist, dtype=float), seen, emerging, k=2)
        assert json.loads(report_json(report))["items"][0]["ranked"][0]["distance"] == 1.0

    def test_dataset_checks(self):
        seen, emerging = random_task(54, n=3)
        wide = make_dataset("emerging", [np.ones((3, 4, 3))] * 3)
        with pytest.raises(ValidationError, match="channel mismatch: 2 vs 3"):
            rank_report(np.ones((3, 3)), seen, wide, k=3)
        for k in (0, -1):
            with pytest.raises(ValidationError, match="k must be >= 1"):
                rank_report(np.ones((3, 3)), seen, emerging, k=k)


class TestKnnBaseline:
    def test_self_match_is_perfect(self):
        seen, _ = random_task(40)
        report = knn_baseline(seen, seen, pass_through(2), k=3)
        assert report.top1 == 1.0

    def test_toy_pair_reports_pointwise_distance(self):
        s, e = toy_pair()
        seen = Dataset("seen", ((0, s),))
        emerging = Dataset("emerging", ((0, e),))
        with pytest.warns(UserWarning):
            report = knn_baseline(seen, emerging, pass_through(1), k=5)
        assert report.items[0].ranked[0][1] == 1118.0

    def test_ranking_matches_brute_resort(self):
        seen, emerging = random_task(41)
        report = knn_baseline(seen, emerging, pass_through(2), k=5)
        for item, (cid, em) in zip(report.items, emerging.entries):
            dists = sorted(
                (float(np.abs(sm.data - em.data).sum()), scid)
                for scid, sm in seen.entries)
            assert [c for c, _ in item.ranked] == [c for _, c in dists]

    def test_distances_equal_per_pair_sums(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            shape = (int(rng.integers(1, 13)), int(rng.integers(1, 13)), int(rng.integers(1, 9)))
            seen = make_dataset("seen", [rng.uniform(-2, 2, shape) for _ in range(n)])
            emerging = make_dataset("emerging", [rng.uniform(-2, 2, shape) for _ in range(n)])
            params = init_adapter(shape[2], 4, seed=int(rng.integers(100)))
            dist = l1_distance_matrix(
                [m.data for m in seen.matrices],
                [adapt_matrix(params, m).data for m in emerging.matrices])
            assert knn_baseline(seen, emerging, params, k=n) == rank_report(dist, seen, emerging, k=n)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(42)
        seen = make_dataset("seen", [rng.uniform(0, 1, (3, 3, 2))])
        emerging = make_dataset("emerging", [rng.uniform(0, 1, (3, 4, 2))])
        with pytest.raises(ValidationError):
            knn_baseline(seen, emerging, pass_through(2), k=1)


class TestReportEmission:
    def test_json_round_trip(self):
        seen, emerging = random_task(60)
        report = match_topk(seen, emerging, pass_through(2), k=2)
        doc = json.loads(report_json(report))
        assert doc["top1"] == report.top1
        assert len(doc["items"]) == seen.size
        assert all(len(item["ranked"]) == 2 for item in doc["items"])

    def test_csv_summary_shape(self):
        seen, emerging = random_task(61)
        report = match_topk(seen, emerging, pass_through(2), k=2)
        lines = report_csv_lines(report)
        assert lines[0] == "metric,value"
        assert any(line.startswith("top1,") for line in lines)
