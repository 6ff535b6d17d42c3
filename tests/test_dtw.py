"""DTW of two element rows, which is dpw on one-row matrices, and its backtrack."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from warpmatch import dpw, dtw_path


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
