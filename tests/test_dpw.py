import itertools
import re
from importlib import import_module

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from warpmatch import (
    ValidationError,
    dpw,
    optimal_hipa,
    path_cost,
    toy_pair,
    validate_hipa,
)
from warpmatch.dpw import HiPa, PathNode

# By import path: the package's `dpw` attribute is the function, not the module.
dpw_module = import_module("warpmatch.dpw")


from oracles import (brute_dpw_min, dtw_distance, enum_paths_rec, enumerate_hipas,
                     lattice_paths, reference_accumulate_tables)


def count_paths_rec(n, m, _memo={}):
    if (n, m) in _memo:
        return _memo[(n, m)]
    if n == 1 and m == 1:
        return 1
    total = 0
    for di, dj in ((1, 1), (1, 0), (0, 1)):
        if n - di >= 1 and m - dj >= 1:
            total += count_paths_rec(n - di, m - dj)
    _memo[(n, m)] = total
    return total


def random_case(rng, max_dim=3):
    hs, ws, he, we = (int(rng.integers(1, max_dim + 1)) for _ in range(4))
    a = np.round(rng.uniform(0, 10, (hs, ws)), 3)
    b = np.round(rng.uniform(0, 10, (he, we)), 3)
    return a, b


def path_key(nodes):
    return tuple((n.hs, n.he, n.cols) for n in nodes)


SHIFTS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def one_edit_away(nodes):
    """Row-node lists one edit away from ``nodes``: a row node or element pair
    dropped, duplicated or shifted by one, or an element pair added after one."""
    def edits(seq, shift):
        for k, item in enumerate(seq):
            yield seq[:k] + seq[k + 1:]
            yield seq[:k + 1] + seq[k:]
            for d in SHIFTS:
                yield seq[:k] + [shift(item, d)] + seq[k + 1:]

    yield from edits(nodes, lambda n, d: PathNode(n.hs + d[0], n.he + d[1], n.cols))
    for k, node in enumerate(nodes):
        cols = list(node.cols)
        added = (cols[:j + 1] + [(w + dw, v + dv)] + cols[j + 1:]
                 for j, (w, v) in enumerate(cols) for dw, dv in ((1, 0), (0, 1), (1, 1)))
        for edited in itertools.chain(edits(cols, lambda c, d: (c[0] + d[0], c[1] + d[1])),
                                      added):
            yield nodes[:k] + [PathNode(node.hs, node.he, edited)] + nodes[k + 1:]


# ---------------------------------------------------------------------------

class TestDpwDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        for shape in ((1, 1, 1), (3, 4, 2), (5, 2, 3)):
            m = rng.uniform(0, 1, shape)
            assert dpw(m, m)[0] == 0.0

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            dpw(np.ones((2, 2, 2)), np.ones((2, 2, 3)))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError):
            dpw(np.ones((0, 2)), np.ones((2, 2)))

    def test_oracle_equivalence_small_scalar(self):
        rng = np.random.default_rng(42)
        for _ in range(80):
            a, b = random_case(rng)
            d, tables = dpw(a, b)
            oracle = brute_dpw_min(a, b)
            assert abs(d - oracle) <= 1e-9
            hipa = optimal_hipa(a, b, tables)
            assert abs(path_cost(a, b, hipa) - oracle) <= 1e-9

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            a = rng.uniform(0, 5, (rng.integers(1, 5), rng.integers(1, 5), 2))
            b = rng.uniform(0, 5, (rng.integers(1, 5), rng.integers(1, 5), 2))
            d_ab = dpw(a, b)[0]
            assert d_ab >= 0.0
            assert abs(d_ab - dpw(b, a)[0]) <= 1e-9

    def test_toy_pair_golden_values(self):
        from warpmatch import toy_pair

        s, e = toy_pair()
        d, tables = dpw(s, e)
        assert d == 654.0
        assert float(np.abs(s.data - e.data).sum()) == 1118.0
        hipa = optimal_hipa(s, e, tables)
        assert path_cost(s, e, hipa) == 654.0

    def test_reduces_to_dtw_for_single_row(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            w1, w2, c = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 4)
            a = rng.uniform(0, 5, (1, w1, c))
            b = rng.uniform(0, 5, (1, w2, c))
            assert abs(dpw(a, b)[0] - dtw_distance(a[0], b[0])) <= 1e-12

    def test_reduces_to_dtw_for_single_column(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            h1, h2, c = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 4)
            a = rng.uniform(0, 5, (h1, 1, c))
            b = rng.uniform(0, 5, (h2, 1, c))
            cols_a = a[:, 0, :]
            cols_b = b[:, 0, :]
            assert abs(dpw(a, b)[0] - dtw_distance(cols_a, cols_b)) <= 1e-12

    def test_row_tables_match_individual_dtw(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 5, (3, 4, 2))
        b = rng.uniform(0, 5, (2, 5, 2))
        _, tables = dpw(a, b)
        for h in range(3):
            for e in range(2):
                _, row_pair = dpw(a[h:h + 1], b[e:e + 1])
                assert np.array_equal(tables.row_table(h, e), row_pair.row_table(0, 0))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestTwoLevelTables:
    def test_strided_cells_equal_per_pair_dpw(self, monkeypatch):
        """Blocks above the copy cap accumulate in place, in strided cells of
        the cost block, and give the default path's tables and the cell-by-cell
        oracle's, bit for bit, 1-row and 1-column shapes included."""
        rng = np.random.default_rng(15)
        c = 3
        shapes = [((3, 4), (2, 5)), ((1, 4), (3, 5)), ((3, 1), (2, 4)), ((2, 3), (1, 1)),
                  ((1, 1), (1, 6)), ((4, 1), (1, 3)), ((1, 5), (4, 1))]
        cases = [(rng.uniform(0, 5, (*s, c)), rng.uniform(0, 5, (*e, c))) for s, e in shapes]
        default = [dpw(a, b)[1] for a, b in cases]
        blocks = []
        real = dpw_module.cdist

        def recording(*args):
            blocks.append(real(*args))
            return blocks[-1]

        monkeypatch.setattr(dpw_module, "cdist", recording)
        monkeypatch.setattr(dpw_module, "_CONTIGUOUS_MAX", 0)
        for (a, b), want in zip(cases, default):
            (hs, ws, _), (he, we, _) = a.shape, b.shape
            d, tables = dpw(a, b)
            assert np.shares_memory(tables.row_tables, blocks[-1])
            assert d == want.distance
            assert np.array_equal(bits(tables.row_tables), bits(want.row_tables))
            assert np.array_equal(bits(tables.hier_acc), bits(want.hier_acc))
            # Source first: vol[i, j, h, f] pairs element i of row h of a with j of row f of b.
            vol = cdist(b.reshape(-1, c), a.reshape(-1, c)).reshape(he, we, hs, ws)
            vol = reference_accumulate_tables(vol.transpose(3, 1, 2, 0).copy())
            hier = reference_accumulate_tables(vol[-1, -1, :, :, None].copy())[:, :, 0]
            assert np.array_equal(bits(tables.row_tables), bits(vol))
            assert np.array_equal(bits(tables.hier_acc), bits(hier))


class TestOptimalHipa:
    def test_1x1_forced(self):
        hipa = optimal_hipa(np.ones((1, 1)), np.zeros((1, 1)))
        assert len(hipa) == 1
        assert (hipa.nodes[0].hs, hipa.nodes[0].he) == (1, 1)
        assert hipa.nodes[0].cols == ((1, 1),)

    def test_identical_matrices_pure_diagonal(self):
        rng = np.random.default_rng(12)
        m = rng.uniform(0, 9, (3, 3))
        hipa = optimal_hipa(m, m)
        assert [(n.hs, n.he) for n in hipa.nodes] == [(1, 1), (2, 2), (3, 3)]
        for node in hipa.nodes:
            assert node.cols == ((1, 1), (2, 2), (3, 3))

    def test_every_result_is_valid(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            hs, ws = rng.integers(1, 7, size=2)
            he, we = rng.integers(1, 7, size=2)
            c = int(rng.integers(1, 4))
            a = rng.uniform(0, 5, (hs, ws, c))
            b = rng.uniform(0, 5, (he, we, c))
            hipa = optimal_hipa(a, b)
            assert validate_hipa(hipa, (hs, ws), (he, we)) == []

    def test_index_arrays_follow_aligned_pairs(self):
        rng = np.random.default_rng(16)
        hipa = optimal_hipa(rng.uniform(0, 5, (3, 4, 2)), rng.uniform(0, 5, (2, 3, 2)))
        idx = hipa.index_arrays()
        assert all(i.dtype == np.intp for i in idx)
        expected = [(node.hs - 1, ws - 1, node.he - 1, we - 1)
                    for node in hipa.nodes for ws, we in node.cols]
        assert list(zip(*(i.tolist() for i in idx))) == expected
        assert len(expected) == hipa.n_aligned

    def test_tables_of_other_matrices_rejected(self):
        rng = np.random.default_rng(18)
        a, b = rng.uniform(0, 1, (3, 4, 2)), rng.uniform(0, 1, (2, 3, 2))
        _, tables = dpw(a, b)
        for s, e in ((b, a), (a, b[:, :2]), (a[:2], b)):
            with pytest.raises(ValidationError, match="tables do not match the given matrices"):
                optimal_hipa(s, e, tables)

    def test_overflowing_tables_raise(self):
        """Element distances that overflow make an infinite table; the
        backtrack's finite check is what turns that into a ValidationError."""
        a = np.full((2, 2, 1), 1e200)
        assert dpw(a, -a)[0] == np.inf
        with pytest.raises(ValidationError, match="nonempty and finite"):
            optimal_hipa(a, -a)

    def test_cost_never_below_distance_on_sampled_paths(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a, b = random_case(rng, max_dim=2)
            d, _ = dpw(a, b)
            for hipa in enumerate_hipas(a.shape[:2], b.shape[:2]):
                assert path_cost(a, b, hipa) >= d - 1e-9


class TestPathNode:
    @pytest.mark.parametrize("hs, he, cols", [
        (1, 1, ((1.5, 1),)), (1, 1, ((1, "2"),)), (1.0, 1, ((1, 1),)),
        (1, "1", ((1, 1),)), (np.array([1]), 1, ((1, 1),))])
    def test_non_integer_index_rejected(self, hs, he, cols):
        with pytest.raises(ValidationError, match="index must be an integer"):
            PathNode(hs, he, cols)

    @pytest.mark.parametrize("cols", [5, None, ((1,),), ((1, 2, 3),), ((1, 1), 7), [[1]]],
                             ids=str)
    def test_cols_must_be_index_pairs(self, cols):
        with pytest.raises(ValidationError, match=r"cols must be a sequence of \(ws, we\) index pairs"):
            PathNode(1, 1, cols)

    def test_cols_accept_any_pair_sequence(self):
        node = PathNode(1, 2, [[1, 1], np.array([2, 3])])
        assert node.cols == ((1, 1), (2, 3))

    def test_numpy_integers_become_ints(self):
        node = PathNode(np.int64(2), np.intp(1), ((np.int32(1), np.uint8(1)),))
        assert (node.hs, node.he, node.cols) == (2, 1, ((1, 1),))
        assert all(type(i) is int for i in (node.hs, node.he, *node.cols[0]))


class TestValidateHipa:
    def test_diagonal_is_ok(self):
        hipa = optimal_hipa(np.ones((2, 2)), np.ones((2, 2)))
        assert validate_hipa(hipa, (2, 2), (2, 2)) == []

    def test_missing_terminal_row_node(self):
        bad = HiPa((PathNode(1, 1, ((1, 1), (2, 2))),))
        issues = validate_hipa(bad, (2, 2), (2, 2))
        assert any("boundary" in v and "last row node" in v for v in issues)

    def test_oversize_first_level_step(self):
        bad = HiPa((
            PathNode(1, 1, ((1, 1), (2, 2))),
            PathNode(3, 1, ((1, 1), (2, 2))),
        ))
        issues = validate_hipa(bad, (3, 2), (2, 2))
        assert any("step size" in v for v in issues)

    def test_backwards_second_level(self):
        bad = HiPa((
            PathNode(1, 1, ((1, 1), (2, 2), (1, 2), (2, 2))),
        ))
        issues = validate_hipa(bad, (1, 2), (1, 2))
        assert any("monotonicity" in v for v in issues)

    @pytest.mark.parametrize("shape_s, shape_e", [
        ((1, 1), (1, 1)), ((2, 2), (2, 2)), ((2, 1), (1, 3)),
        ((1, 2), (3, 2)), ((3, 1), (2, 1)), ((2, 3), (2, 1))])
    def test_accepts_exactly_the_enumerated_paths(self, shape_s, shape_e):
        valid = {path_key(p.nodes) for p in enumerate_hipas(shape_s, shape_e)}
        verdicts = set()
        for hipa in enumerate_hipas(shape_s, shape_e):
            for nodes in one_edit_away(list(hipa.nodes)):
                ok = validate_hipa(HiPa(nodes), shape_s, shape_e) == []
                assert ok == (path_key(nodes) in valid), nodes
                verdicts.add(ok)
        assert verdicts == ({True, False} if len(valid) > 1 else {False})

    @pytest.mark.parametrize("hipa", ["x", None, ((1, 1, ((1, 1),)),)], ids=str)
    def test_non_hipa_rejected(self, hipa):
        message = f"^hipa must be of type HiPa, got {type(hipa).__name__}$"
        with pytest.raises(ValidationError, match=message):
            validate_hipa(hipa, (1, 1), (1, 1))
        with pytest.raises(ValidationError, match=message):
            path_cost(np.ones((1, 1)), np.ones((1, 1)), hipa)

    @pytest.mark.parametrize("shape_s, shape_e, message", [
        ((2.7, 8), (8, 8), "each entry of shape_s must be an integer, got 2.7"),
        (("x", 8), (8, 8), "each entry of shape_s must be an integer, got 'x'"),
        ((8, 8), (8, 0), "each entry of shape_e must be >= 1, got 0")],
        ids=["float", "string", "zero"])
    def test_shape_entries_must_be_positive_integers(self, shape_s, shape_e, message):
        hipa = optimal_hipa(*toy_pair())
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            validate_hipa(hipa, shape_s, shape_e)

    def test_numpy_integer_shapes_accepted(self):
        hipa = optimal_hipa(*toy_pair())
        assert validate_hipa(hipa, (np.int64(8), 8), (8, np.uint8(8))) == []

    def test_nodes_must_be_path_nodes(self):
        with pytest.raises(ValidationError, match="HiPa nodes must be PathNode values"):
            HiPa(((1, 1, ((1, 1),)),))

    def test_path_cost_raises_on_invalid(self):
        bad = HiPa((PathNode(1, 1, ((1, 1),)),))
        with pytest.raises(ValidationError):
            path_cost(np.ones((2, 2)), np.ones((2, 2)), bad)


class TestEnumeration:
    def test_1x1_single_path(self):
        assert sum(1 for _ in enumerate_hipas((1, 1), (1, 1))) == 1

    def test_two_row_scalar_count(self):
        # width-1 rows: 3 monotone row pairings, single column node each
        assert sum(1 for _ in enumerate_hipas((2, 1), (2, 1))) == 3

    def test_2x2_count_against_recursive_counter(self):
        n_rows = count_paths_rec(2, 2)
        per_node = count_paths_rec(2, 2)
        expected = sum(
            per_node ** len(p) for p in enum_paths_rec(2, 2)
        )
        got = sum(1 for _ in enumerate_hipas((2, 2), (2, 2)))
        assert got == expected == 63
        assert n_rows == len(lattice_paths(2, 2)) == 3

    def test_all_yielded_paths_are_valid_and_unique(self):
        seen = set()
        for hipa in enumerate_hipas((2, 2), (2, 2)):
            assert validate_hipa(hipa, (2, 2), (2, 2)) == []
            key = tuple((n.hs, n.he, n.cols) for n in hipa.nodes)
            assert key not in seen
            seen.add(key)

    def test_guard_rejects_large_shapes(self):
        with pytest.raises(ValidationError):
            next(enumerate_hipas((4, 3), (3, 3)))

    def test_full_stream_min_matches_factorized_oracle(self):
        rng = np.random.default_rng(15)
        for shapes in (((2, 2), (2, 2)), ((3, 2), (3, 2)), ((2, 3), (3, 2))):
            (hs, ws), (he, we) = shapes
            a = np.round(rng.uniform(0, 10, (hs, ws)), 3)
            b = np.round(rng.uniform(0, 10, (he, we)), 3)
            stream_min = min(
                path_cost(a, b, hipa) for hipa in enumerate_hipas((hs, ws), (he, we)))
            assert abs(stream_min - brute_dpw_min(a, b)) <= 1e-9
            assert abs(stream_min - dpw(a, b)[0]) <= 1e-9
