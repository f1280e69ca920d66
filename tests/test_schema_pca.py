import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwkit.errors import InvalidCorrelationError, ZeroVarianceColumnError
from dwkit.schema_pca import (Moments, NumericMatrix, correlation_matrix,
                              cumulative_variance, design_schema,
                              extract_factors, select_components)


def matrix(values, names=None):
    values = np.asarray(values, dtype=float)
    names = names or [f"X{j + 1}" for j in range(values.shape[1])]
    return NumericMatrix(values=values, col_names=names)


def random_correlation(rng, n):
    """Random valid correlation matrix via random data."""
    data = rng.normal(size=(n + 10, n)) @ rng.normal(size=(n, n))
    data += rng.normal(size=(n + 10, n)) * 0.1
    return correlation_matrix(matrix(data))


class TestCorrelation:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(0)
        corr = correlation_matrix(matrix(rng.normal(size=(20, 4))))
        assert np.allclose(np.diag(corr.values), 1.0)

    def test_affine_dependence_is_one(self):
        x = np.arange(10.0)
        corr = correlation_matrix(matrix(np.column_stack([x, 2 * x + 3])))
        assert corr.values[0, 1] == pytest.approx(1.0)

    def test_hand_computed_pearson(self):
        corr = correlation_matrix(
            matrix(np.column_stack([[1, 2, 3, 4], [2, 1, 4, 3]])))
        assert corr.values[0, 1] == pytest.approx(0.6, abs=1e-12)

    def test_zero_variance_column_named(self):
        data = matrix(np.column_stack([[1, 2, 3], [5, 5, 5]]), ["a", "b"])
        with pytest.raises(ZeroVarianceColumnError) as err:
            correlation_matrix(data)
        assert err.value.column == "b"

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        corr = random_correlation(rng, 6).values
        assert np.allclose(corr, corr.T, atol=1e-12)
        assert np.all(corr <= 1.0) and np.all(corr >= -1.0)


    def test_constant_column_is_zero_variance_exactly(self):
        # 0.1 three times has a sample variance of about 3e-34 in floats
        data = matrix(np.column_stack([[0.1, 0.1, 0.1], [1, 2, 4]]),
                      ["a", "b"])
        with pytest.raises(ZeroVarianceColumnError) as err:
            correlation_matrix(data)
        assert err.value.column == "a"

    def test_sum_of_squares_out_of_range_is_named(self):
        for column, what in (([0.0, 5e-324, 0.0], "underflows to 0"),
                             ([1e308, -1e308, 0.0], "overflows")):
            data = matrix(np.column_stack([[1, 2, 4], column]), ["a", "b"])
            with pytest.raises(InvalidCorrelationError) as err:
                correlation_matrix(data)
            assert str(err.value) == (f"column 'b''s sum of squared "
                                      f"deviations {what}")


def fold(blocks, names):
    """The ``Moments`` of ``blocks`` merged left to right, as a chunked
    read folds them."""
    moments = Moments.of(np.empty((0, len(names))), names)
    for block in blocks:
        moments = moments.merge(Moments.of(block, names))
    return moments


@given(st.data())
def test_fold_equals_corrcoef(data):
    """Moments folded over any split of the rows, 1-row blocks included,
    correlate the columns as np.corrcoef of the whole matrix does."""
    ncols = data.draw(st.integers(1, 12))
    nrows = data.draw(st.integers(2, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** np.array(data.draw(st.lists(
        st.floats(-3, 6), min_size=ncols, max_size=ncols)))
    offset = scale * np.array(data.draw(st.lists(
        st.floats(-100, 100), min_size=ncols, max_size=ncols)))
    mix = rng.standard_normal((ncols, ncols))
    mix /= np.linalg.norm(mix, axis=0)   # each column of unit spread
    values = offset + scale * (rng.standard_normal((nrows, ncols)) @ mix)
    cuts = data.draw(st.one_of(
        st.just(range(1, nrows)),   # one row per block
        st.sets(st.integers(1, nrows - 1)).map(sorted)))
    names = [f"X{j}" for j in range(ncols)]
    moments = fold(np.split(values, list(cuts)), names)
    assert moments.n == nrows
    np.testing.assert_array_equal(moments.low, values.min(axis=0))
    np.testing.assert_array_equal(moments.high, values.max(axis=0))
    want = np.atleast_2d(np.corrcoef(values, rowvar=False))
    np.testing.assert_allclose(moments.correlation().values, want,
                               rtol=0, atol=1e-12)


def test_fold_means_of_a_long_block_are_within_an_ulp_of_fsum():
    # 0.1 added to a running total 1e5 times drifts 13,581 ulps from the
    # exact sum; summed pairwise it stays within one
    values = np.full((100_000, 2), 0.1)
    values[:, 1] *= np.arange(100_000) % 7
    mean = Moments.of(values, ["a", "b"]).mean
    for j in range(2):
        want = math.fsum(values[:, j]) / len(values)
        assert abs(mean[j] - want) <= np.spacing(want)


@given(st.integers(1, 100_000), st.integers(0, 2**32 - 1),
       st.integers(-250, 250), st.floats(-1e3, 1e3))
def test_fold_means_stay_within_the_pairwise_bound(n, seed, decade, offset):
    """Each column's mean is within an ulp of fsum / n, plus the error
    bound of numpy's pairwise sum: a term passes at most 15 additions in
    its block's running sum, 3 joining the block's eight sums, 7 adding
    its leftovers and one per halving above the block, gamma_d times the
    sum of magnitudes with d under log2(n) + 25.  Adding row after row
    bounds it only by n - 1."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** decade
    values = np.column_stack([np.full(n, offset * scale),
                              (offset + rng.uniform(-1, 1, n)) * scale])
    mean = Moments.of(values, ["c", "u"]).mean
    depth = math.ceil(math.log2(n)) + 25
    for j in range(2):
        col = values[:, j]
        want = math.fsum(col) / n
        bound = depth * 2.0**-53 * (math.fsum(np.abs(col)) / n)
        assert abs(mean[j] - want) <= np.spacing(abs(want)) + bound


def test_fold_of_no_rows_is_the_identity():
    values = np.array([[1.0, 2.0], [3.0, 5.0], [4.0, 4.0]])
    whole = Moments.of(values, ["a", "b"])
    for moments in (fold([values[:0], values], ["a", "b"]),
                    whole.merge(Moments.of(values[:0], ["a", "b"]))):
        assert moments.n == 3
        np.testing.assert_array_equal(moments.comoment, whole.comoment)
        np.testing.assert_array_equal(moments.mean, whole.mean)


class TestEigen:
    def test_uncorrelated_eigenvalues_near_one(self):
        from dwkit.schema_pca import CorrelationMatrix
        res = extract_factors(CorrelationMatrix(np.eye(5),
                                                [f"X{i}" for i in range(5)]))
        assert np.allclose(res.eigenvalues, 1.0)

    def test_two_by_two_closed_form(self):
        from dwkit.schema_pca import CorrelationMatrix
        corr = CorrelationMatrix(np.array([[1.0, 0.6], [0.6, 1.0]]),
                                 ["a", "b"])
        res = extract_factors(corr)
        assert res.eigenvalues == pytest.approx([1.6, 0.4], abs=1e-10)

    def test_equicorrelation_closed_form(self):
        from dwkit.schema_pca import CorrelationMatrix
        n, r = 3, 0.5
        corr = CorrelationMatrix(
            np.full((n, n), r) + (1 - r) * np.eye(n), ["a", "b", "c"])
        res = extract_factors(corr)
        assert res.eigenvalues == pytest.approx([2.0, 0.5, 0.5], abs=1e-10)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            corr = random_correlation(rng, int(rng.integers(2, 9)))
            res = extract_factors(corr)
            v, lam = res.eigenvectors, res.eigenvalues
            assert np.max(np.abs(v @ np.diag(lam) @ v.T - corr.values)) < 1e-8
            assert np.max(np.abs(v.T @ v - np.eye(len(lam)))) < 1e-10

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        corr = random_correlation(rng, 7)
        res = extract_factors(corr)
        assert res.eigenvalues.sum() == pytest.approx(7.0, rel=1e-9)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        res = extract_factors(random_correlation(rng, 5))
        for k in range(5):
            col = res.eigenvectors[:, k]
            assert col[np.argmax(np.abs(col))] > 0


class TestCumulativeAndSelect:
    def test_hand_fractions(self):
        assert cumulative_variance([1.6, 0.4]) == pytest.approx([0.8, 1.0])

    def test_equal_eigenvalues(self):
        assert cumulative_variance([2, 2, 2, 2]) == pytest.approx(
            [0.25, 0.5, 0.75, 1.0])

    def test_single_component(self):
        assert cumulative_variance([3.0]) == pytest.approx([1.0])

    def test_last_entry_is_one(self):
        rng = np.random.default_rng(6)
        cum = cumulative_variance(rng.uniform(0, 5, size=9))
        assert np.all(np.diff(cum) >= 0)
        assert cum[-1] == pytest.approx(1.0, abs=1e-12)

    def _result(self, eigenvalues):
        from dwkit.schema_pca import PcaResult
        ev = np.asarray(eigenvalues, dtype=float)
        return PcaResult(eigenvalues=ev, eigenvectors=np.eye(len(ev)),
                         col_names=[f"X{i}" for i in range(len(ev))])

    def test_prefix_threshold(self):
        assert select_components(self._result([1.6, 0.4]), 0.75) == [0]

    def test_threshold_one_selects_all(self):
        assert select_components(self._result([1.6, 0.4]), 1.0) == [0, 1]

    def test_tiny_threshold_selects_first(self):
        assert select_components(self._result([1.0, 1.0, 2.0]), 1e-9) == [0]


class TestDesignSchema:
    def test_correlated_pair_plus_independent(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=200)
        z = rng.normal(size=200)
        data = matrix(np.column_stack([x, x * 3 + 1, z]),
                      ["X1", "X2", "X3"])
        proposal = design_schema(data, threshold=0.9)
        groups = [sorted(g) for g in proposal.factors if g]
        assert ["X1", "X2"] in groups
        assert ["X3"] in groups
        assert proposal.unassigned == []

    def test_uncorrelated_gives_singletons(self):
        # Hadamard columns are exactly orthogonal, so the sample
        # correlation is the exact identity matrix
        from scipy.linalg import hadamard
        data = matrix(hadamard(8)[:, 1:5].astype(float))
        proposal = design_schema(data, threshold=1.0)
        assert sorted(len(g) for g in proposal.factors) == [1, 1, 1, 1]

    def test_single_column(self):
        data = matrix(np.array([[1.0], [2.0], [5.0]]), ["only"])
        proposal = design_schema(data, threshold=0.5)
        assert proposal.factors == [["only"]]

    def test_every_variable_appears_once(self):
        rng = np.random.default_rng(9)
        data = matrix(rng.normal(size=(60, 6)))
        proposal = design_schema(data, threshold=0.7)
        names = sorted(sum(proposal.factors, []) + proposal.unassigned)
        assert names == sorted(data.col_names)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        vals = rng.normal(size=(80, 5)) @ rng.normal(size=(5, 5))
        names = ["a", "b", "c", "d", "e"]
        perm = [3, 0, 4, 1, 2]
        p1 = design_schema(matrix(vals, names), threshold=0.8)
        p2 = design_schema(
            matrix(vals[:, perm], [names[j] for j in perm]), threshold=0.8)
        set1 = {frozenset(g) for g in p1.factors if g}
        set2 = {frozenset(g) for g in p2.factors if g}
        assert set1 == set2
        assert sorted(p1.unassigned) == sorted(p2.unassigned)

    def test_column_scale_invariance(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(80, 4))
        scaled = vals * np.array([1.0, 250.0, 1e-6, 3.0])
        c1 = correlation_matrix(matrix(vals)).values
        c2 = correlation_matrix(matrix(scaled)).values
        assert np.max(np.abs(c1 - c2)) < 1e-10
        p1 = design_schema(matrix(vals), threshold=0.8)
        p2 = design_schema(matrix(scaled), threshold=0.8)
        assert p1.factors == p2.factors
        assert np.allclose(p1.pca.eigenvalues, p2.pca.eigenvalues,
                           atol=1e-10)
