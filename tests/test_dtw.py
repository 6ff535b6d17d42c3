"""The DP kernel, DTW of two element rows (dpw on one-row matrices) and its backtrack."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial.distance import cdist

from oracles import reference_accumulate_tables, reference_dtw_path
from warpmatch import ValidationError, dpw, dtw_path
from warpmatch.dpw import _hier_tables, _row_pair_volume, column_rows
from warpmatch.dtw import accumulate_tables


def row_dtw(row_a, row_b):
    """One-row dpw of two element rows: their DTW distance and accumulated-cost table."""
    d, tables = dpw(np.asarray(row_a)[None], np.asarray(row_b)[None])
    return d, tables.row_table(0, 0)


def enum_step_paths(n, m):
    """Every monotone unit-step path from (0,0) to (n-1,m-1); test-local recursion."""
    if n == 1 and m == 1:
        return [[(0, 0)]]
    out = []
    for di, dj in ((1, 1), (1, 0), (0, 1)):
        pi, pj = n - di, m - dj
        if pi >= 1 and pj >= 1:
            out.extend(p + [(n - 1, m - 1)] for p in enum_step_paths(pi, pj))
    return out


def brute_force_dtw(a, b):
    """Minimum over exhaustively enumerated warping paths, sequential float sums."""
    best = None
    for path in enum_step_paths(len(a), len(b)):
        cost = 0.0
        for i, j in path:
            cost += abs(a[i] - b[j])
        if best is None or cost < best:
            best = cost
    return best


class TestDtwDistance:
    def test_identical_rows_zero(self):
        row = np.array([1.0, 5.0, 2.0, 7.0])
        d, _ = row_dtw(row, row)
        assert d == 0.0

    def test_single_element_row_forces_full_sweep(self):
        # |1-1| + |1-2| + |1-3| = 3
        d, _ = row_dtw([1.0], [1.0, 2.0, 3.0])
        assert d == 3.0

    @given(st.data())
    def test_matches_brute_force_exactly(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 4))
        # rounding keeps squared differences clear of underflow
        vals = st.floats(min_value=-10, max_value=10, allow_nan=False).map(
            lambda x: round(x, 6))
        a = data.draw(st.lists(vals, min_size=n, max_size=n))
        b = data.draw(st.lists(vals, min_size=m, max_size=m))
        d, _ = row_dtw(a, b)
        assert d == brute_force_dtw(a, b)

    @given(st.data())
    def test_symmetric(self, data):
        vals = st.floats(min_value=-10, max_value=10, allow_nan=False)
        a = data.draw(st.lists(vals, min_size=1, max_size=5))
        b = data.draw(st.lists(vals, min_size=1, max_size=5))
        assert row_dtw(a, b)[0] == row_dtw(b, a)[0]

    def test_table_boundary_semantics(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 5, (4, 3))
        b = rng.uniform(0, 5, (5, 3))
        d, table = row_dtw(a, b)
        assert table.shape == (4, 5)
        assert table[0, 0] == np.linalg.norm(a[0] - b[0])
        # first row/col are running sums
        for j in range(1, 5):
            assert table[0, j] == pytest.approx(
                table[0, j - 1] + np.linalg.norm(a[0] - b[j]), abs=1e-12)
        assert d == table[-1, -1]


class TestDtwPath:
    def test_single_cell(self):
        _, table = row_dtw([2.0], [5.0])
        assert dtw_path(table) == [(0, 0)]

    def test_equal_rows_take_diagonal(self):
        row = np.array([1.0, 2.0, 3.0])
        _, table = row_dtw(row, row)
        assert dtw_path(table) == [(0, 0), (1, 1), (2, 2)]

    def test_path_is_valid_and_reproduces_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, m = rng.integers(1, 7, size=2)
            a = rng.uniform(0, 9, (n, 2))
            b = rng.uniform(0, 9, (m, 2))
            d, table = row_dtw(a, b)
            path = dtw_path(table)
            assert path[0] == (0, 0) and path[-1] == (n - 1, m - 1)
            cost = 0.0
            for (i0, j0), (i1, j1) in zip(path, path[1:]):
                assert (i1 - i0, j1 - j0) in ((1, 0), (0, 1), (1, 1))
            for i, j in path:
                cost += float(np.linalg.norm(a[i] - b[j]))
            assert abs(cost - d) <= 1e-12 * max(1.0, abs(d))

    def test_toy_row_pairs_cost_matches_stored_value(self):
        from warpmatch import toy_pair

        s, e = toy_pair()
        for h in range(s.height):
            for h2 in range(e.height):
                d, table = row_dtw(s.row(h), e.row(h2))
                cost = sum(
                    float(np.linalg.norm(s.row(h)[i] - e.row(h2)[j]))
                    for i, j in dtw_path(table))
                assert abs(cost - d) <= 1e-12 * max(1.0, d)

    def test_accumulated_values_nondecreasing_along_optimal_path(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.uniform(0, 9, (rng.integers(1, 6), 1))
            b = rng.uniform(0, 9, (rng.integers(1, 6), 1))
            _, table = row_dtw(a, b)
            path = dtw_path(table)
            values = [table[i, j] for i, j in path]
            assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))

    def test_list_table_same_path_as_array(self):
        rng = np.random.default_rng(5)
        _, table = row_dtw(rng.uniform(0, 9, (5, 2)), rng.uniform(0, 9, (4, 2)))
        assert dtw_path(table.tolist()) == dtw_path(table)

    def test_ties_keep_their_order(self):
        # Every predecessor ties: diagonal first, then back in the first index.
        assert dtw_path(np.zeros((3, 3))) == [(0, 0), (1, 1), (2, 2)]
        assert dtw_path([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]) == [(0, 0), (1, 0), (2, 1)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_per_step_oracle(self, n):
        """Every shape from 1x1 to 8x8, on tables of costs in {0, 1, 2} (so
        many predecessors tie exactly), both raw and accumulated."""
        rng = np.random.default_rng(n)
        for m in range(1, 9):
            for _ in range(8):
                costs = rng.integers(0, 3, (n, m)).astype(float)
                for table in (costs, accumulate_tables(costs.copy())):
                    assert dtw_path(table) == reference_dtw_path(table), table

    @pytest.mark.parametrize("table", [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(4),
                                       np.zeros((2, 2, 2)), [[0.0, np.nan], [1.0, 2.0]],
                                       [[0.0, 1.0], [np.inf, 2.0]]],
                             ids=["empty_rows", "empty_cols", "1d", "3d", "nan", "inf"])
    def test_bad_table_raises_validation_error(self, table):
        with pytest.raises(ValidationError, match="2-D, nonempty and finite"):
            dtw_path(table)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_tables(vol):
    """accumulate_tables and the cell-by-cell oracle agree bit for bit on ``vol``."""
    want = reference_accumulate_tables(vol.copy())
    got = accumulate_tables(vol)
    assert np.array_equal(bits(got), bits(want))


class TestAccumulateTables:
    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 7, 4), (7, 3, 4), (10, 10, 5),
                                       (14, 9, 2), (2, 9, 1), (9, 2, 1), (9, 11, 3, 4),
                                       (11, 9, 12)])
    @pytest.mark.parametrize("quantised", [False, True], ids=["random", "ties"])
    def test_equals_cell_by_cell_oracle(self, shape, quantised):
        rng = np.random.default_rng(list(shape))
        vol = rng.uniform(0, 3, shape)
        # Whole-number costs make many predecessors tie exactly.
        assert_same_tables(np.round(vol) if quantised else vol)

    @pytest.mark.parametrize("shape", [(1, 1, 3), (1, 6, 3), (6, 1, 3), (1, 6, 2, 2)])
    def test_one_row_or_column(self, shape):
        assert_same_tables(np.random.default_rng(1).uniform(0, 3, shape))

    @pytest.mark.parametrize("shape", [(3, 4), (1, 5), (5, 1), (6, 8), (9, 2)])
    def test_two_dimensional_volume_is_one_problem(self, shape):
        vol = np.random.default_rng(6).uniform(0, 3, shape)
        want = reference_accumulate_tables(vol[:, :, None].copy())[:, :, 0]
        got = accumulate_tables(vol)
        assert got is vol and np.array_equal(bits(got), bits(want))

    def test_two_dimensional_running_sums(self):
        got = accumulate_tables(np.arange(1.0, 13.0).reshape(3, 4))
        assert got.tolist() == [[1, 3, 6, 10], [6, 7, 10, 14], [15, 16, 18, 22]]

    @pytest.mark.parametrize("batch", [(5,), (3, 4)], ids=["one_axis", "two_axes"])
    def test_trailing_batch_axes(self, batch):
        assert_same_tables(np.random.default_rng(2).uniform(0, 3, (6, 8, *batch)))

    @pytest.mark.parametrize("shape", [(1, 1, 3), (1, 6, 3), (6, 1, 3), (5, 7, 4), (9, 4, 2, 3),
                                       (1, 1), (1, 5), (5, 1), (6, 8)])
    @pytest.mark.parametrize("quantised", [False, True], ids=["random", "ties"])
    def test_row_by_row_from_prev(self, shape, quantised):
        """Each row accumulated against the accumulated row above it, as the
        distance matrix streams target columns, gives the table bit for bit."""
        rng = np.random.default_rng(list(shape))
        vol = rng.uniform(0, 3, shape)
        vol = np.round(vol) if quantised else vol
        want = reference_accumulate_tables(vol[:, :, None].copy() if vol.ndim == 2 else vol.copy())
        prev = None
        for i in range(len(vol)):
            got = accumulate_tables(vol[i:i + 1], prev=prev)
            assert got.base is vol
            prev = got[0]
        assert np.array_equal(bits(vol), bits(want.reshape(vol.shape)))

    @pytest.mark.parametrize("rows", [1, 2, 3, 7], ids=lambda r: f"{r}_rows")
    def test_strided_strips_from_prev(self, rows):
        """Strips of a strided view laid out as the matrix's cost rows are
        (target rows outermost), each continuing the strip above."""
        rng = np.random.default_rng(rows)
        block = np.round(rng.uniform(0, 3, (4, 7, 5, 3)))
        vol = block.transpose(1, 2, 0, 3)
        assert vol.strides[0] == 5 * vol.strides[1] and not vol.flags.c_contiguous
        want = reference_accumulate_tables(vol.copy())
        accumulate_tables(vol[:rows])
        for top in range(rows, len(vol), rows):
            accumulate_tables(vol[top:top + rows], prev=vol[top - 1])
        assert np.array_equal(bits(vol), bits(want))

    def test_strided_two_level_layout_in_place(self):
        """The row level accumulates in the cost block itself, as _row_pair_volume
        lays it out for stacked sources and targets, and _hier_tables gives each
        target's hierarchical tables from its rows of the last cell."""
        rng = np.random.default_rng(4)
        (n_s, hs, ws), (n_e, he, we), c = (2, 3, 4), (3, 2, 5), 3
        sources = rng.uniform(0, 5, (n_s, hs, ws, c))
        targets = rng.uniform(0, 5, (n_e, he, we, c))
        costs = cdist(targets.reshape(-1, c), column_rows(sources))
        want = costs.copy()
        vol = want.reshape(n_e * he, we, ws, n_s * hs).transpose(1, 2, 0, 3)
        assert vol.strides[0] == ws * vol.strides[1] and not vol.flags.c_contiguous
        reference_accumulate_tables(vol)
        row_acc = accumulate_tables(_row_pair_volume(costs, we, ws))
        assert np.array_equal(bits(costs), bits(want))
        assert np.shares_memory(row_acc, costs)
        hier = vol[-1, -1].reshape(n_e, he, n_s, hs).transpose(3, 1, 2, 0).copy()
        reference_accumulate_tables(hier.reshape(hs, he, -1))
        for t in range(n_e):
            got = _hier_tables(row_acc[-1, -1, t * he:(t + 1) * he], hs)
            assert np.array_equal(bits(got), bits(hier[:, :, :, t]))

    @pytest.mark.parametrize("prev_shape", [(6, 3), (5, 1), (5, 3, 1)])
    def test_prev_of_wrong_shape_raises(self, prev_shape):
        vol = np.ones((2, 5, 3))
        with pytest.raises(ValueError, match="prev has shape"):
            accumulate_tables(vol, prev=np.zeros(prev_shape))
        assert (vol == 1).all()

    @pytest.mark.parametrize("make", [lambda v: v.transpose(1, 0, 2), lambda v: v[:, :5],
                                      lambda v: v[::2]], ids=["transposed", "column_slice",
                                                              "row_step"])
    def test_unmergeable_axes_raise(self, make):
        vol = make(np.ones((6, 8, 3)))
        with pytest.raises(ValueError, match="do not merge"):
            accumulate_tables(vol)
        assert (vol == 1).all()
