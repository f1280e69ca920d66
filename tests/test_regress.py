import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad
from scipy.special import beta as beta_fn, betainc

from dwkit import regress
from dwkit.chunkstore import DataTable
from dwkit.errors import (DwkitError, NonBinaryColumnError,
                          RankDeficientError)
from dwkit.fixtures import warehouse_survey_table
from dwkit.regress import (ModelSpec, anova, anova_from_sums, encode_binary,
                           f_pvalue, factor_lines, fit_model, fit_ols,
                           simple_fit, summarize, summary_from_sums,
                           survey_identity_report)


def make_table(**cols):
    n = len(next(iter(cols.values())))
    columns, missing, kinds = {}, {}, {}
    for name, vals in cols.items():
        if all(isinstance(v, str) for v in vals):
            columns[name] = np.array(vals, dtype=object)
            kinds[name] = "text"
        else:
            columns[name] = np.array(vals, dtype=float)
            kinds[name] = "real"
        missing[name] = np.zeros(n, dtype=bool)
    return DataTable(columns, missing, kinds)


class TestEncodeBinary:
    def test_yes_no(self):
        t = make_table(flag=["yes", "no", "yes", "no"])
        out = encode_binary(t, ["flag"])
        np.testing.assert_array_equal(out.column("flag"), [1, 0, 1, 0])

    def test_lexicographic_fallback(self):
        t = make_table(flag=["alpha", "beta", "alpha"])
        out = encode_binary(t, ["flag"])
        np.testing.assert_array_equal(out.column("flag"), [0, 1, 0])

    def test_zero_one_passthrough(self):
        t = make_table(flag=[0.0, 1.0, 1.0])
        out = encode_binary(t, ["flag"])
        np.testing.assert_array_equal(out.column("flag"), [0, 1, 1])

    def test_three_values_rejected(self):
        t = make_table(flag=["a", "b", "c"])
        with pytest.raises(NonBinaryColumnError):
            encode_binary(t, ["flag"])


class TestFitOls:
    def test_exact_line(self):
        # y = 2 + x fits exactly: slope 1, intercept 2, zero residual
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = fit_ols(x, 2.0 + x)
        assert fit.intercept == pytest.approx(2.0, abs=1e-12)
        assert fit.slopes[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.ss_residual == pytest.approx(0.0, abs=1e-20)

    def test_hand_computed_fit(self):
        # x=[0,1,2], y=[0,1,3]: slope 3/2, intercept -1/6
        fit = fit_ols([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
        assert fit.slopes[0] == pytest.approx(1.5, abs=1e-12)
        assert fit.intercept == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert fit.ss_residual == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_sum_decomposition(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 3))
        y = X @ [1.0, -2.0, 0.5] + rng.normal(size=40)
        fit = fit_ols(X, y)
        assert fit.ss_total == pytest.approx(
            fit.ss_regression + fit.ss_residual, rel=1e-10)

    def test_collinear_column_named(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=20)
        X = np.column_stack([a, 2.0 * a])
        with pytest.raises(RankDeficientError) as err:
            fit_ols(X, rng.normal(size=20), names=("a", "twice_a"))
        assert err.value.column in ("a", "twice_a")

    def test_constant_column_collides_with_intercept(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.normal(size=15), np.ones(15)])
        with pytest.raises(RankDeficientError) as err:
            fit_ols(X, rng.normal(size=15), names=("a", "const"))
        assert err.value.column == "const"

    @pytest.mark.filterwarnings("error")
    def test_constant_column_past_the_norm_range_is_collinear(self):
        # the column's norm overflows, which scales it to zero: collinear
        # with the intercept, and no numpy warning
        X = np.column_stack([np.full(5, 1e308), [1.0, 0.0, 1.0, 0.0, 1.0]])
        with pytest.raises(RankDeficientError) as err:
            fit_ols(X, np.arange(5.0), names=("b", "c"))
        assert err.value.column == "b"

    def test_infinite_cell_names_its_column(self):
        X = np.column_stack([np.arange(5.0), [1.0, 2.0, np.inf, 4.0, 0.0]])
        with pytest.raises(ValueError, match="'b'"):
            fit_ols(X, np.arange(5.0), names=("a", "b"))
        with pytest.raises(ValueError, match="'y'"):
            fit_ols(X[:, 0], [1.0, -np.inf, 3.0, 4.0, 5.0])

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            fit_ols(np.ones((3, 2)), np.zeros(3))

    def test_fit_model_matches_fit_ols(self):
        t = make_table(y=[1.0, 2.0, 4.0, 8.0, 9.0],
                       x=[0.0, 1.0, 2.0, 3.0, 4.0])
        fit = fit_model(t, ModelSpec(response="y", predictors=("x",)))
        direct = fit_ols(np.array(t.column("x")), np.array(t.column("y")))
        assert fit.intercept == pytest.approx(direct.intercept)
        assert fit.predictor_names == ("x",)

    def test_model_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(response="y", predictors=())
        with pytest.raises(ValueError):
            ModelSpec(response="y", predictors=("y", "x"))
        with pytest.raises(ValueError):
            ModelSpec(response="y", predictors=("x", "x"))


@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
           st.just(m), st.integers(0, m),
           st.lists(st.integers(-3, 3), min_size=m + 1, max_size=m + 1))),
       st.integers(3, 20), st.integers(0, 2**32 - 1))
def test_rank_test_names_the_inserted_column(shape, extra_rows, seed):
    # a full-rank X fits as lstsq solves it; a column inserted at k that
    # is a combination of the columns before it, the intercept's among
    # them, is named, whatever follows it
    m, k, weights = shape
    rng = np.random.default_rng(seed)
    n = m + extra_rows
    X, y = rng.normal(size=(n, m)), rng.normal(size=n)
    design = np.column_stack([np.ones(n), X])
    fit = fit_ols(X, y)
    np.testing.assert_array_equal([fit.intercept, *fit.slopes],
                                  np.linalg.lstsq(design, y, rcond=None)[0])
    names = tuple(f"x{j}" for j in range(m + 1))
    dependent = design[:, :k + 1] @ weights[:k + 1]
    with pytest.raises(RankDeficientError) as err:
        fit_ols(np.insert(X, k, dependent, axis=1), y, names=names)
    assert err.value.column == names[k]


@given(st.sampled_from([1e10, 1e12, 1e15]), st.integers(0, 2**32 - 1))
def test_rank_of_a_large_predictor_is_judged_on_scaled_columns(scale, seed):
    # y = 2 x / scale + N(0, 1) over 50 rows: the design's singular value
    # ratio is under 1e-10, and from 1e15 on lstsq's own cutoff truncates
    # it, but its column-scaled ratio is about 0.25
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, scale, 50)
    y = 2 * x / scale + rng.normal(size=50)
    fit = fit_ols(x, y)
    design = np.column_stack([np.ones(50), x / scale])
    want = np.linalg.lstsq(design, y, rcond=None)[0] / [1.0, scale]
    np.testing.assert_allclose([fit.intercept, *fit.slopes], want,
                               rtol=1e-9, atol=1e-12)


class TestSummaryAnova:
    def test_summary_from_survey_sums(self):
        s = summary_from_sums(20.0, 62.5, 6, 5)
        assert s.r_square == pytest.approx(0.242424, abs=1e-6)
        assert s.multiple_r == pytest.approx(0.492366, abs=1e-6)
        assert s.standard_error == pytest.approx(3.535534, abs=1e-6)
        assert s.observations == 12

    def test_anova_from_survey_sums(self):
        a = anova_from_sums(20.0, 62.5, 6, 5)
        assert a.ms_regression == pytest.approx(20.0 / 6.0, abs=1e-9)
        assert a.ms_residual == pytest.approx(12.5, abs=1e-12)
        assert a.f == pytest.approx(0.266667, abs=1e-6)
        assert a.ss_total == pytest.approx(82.5)
        assert a.df_total == 11

    def test_summarize_matches_fit(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 2))
        y = X @ [1.0, 1.0] + rng.normal(size=30)
        fit = fit_ols(X, y)
        s = summarize(fit)
        assert s.observations == 30
        assert s.r_square == pytest.approx(
            fit.ss_regression / fit.ss_total, rel=1e-12)
        a = anova(fit)
        assert a.df_regression == 2
        assert a.df_residual == 27

    def test_nested_models_never_lose_r_square(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 4))
        y = X @ [1.0, 0.5, 0.0, 0.0] + rng.normal(size=50)
        r2 = [summarize(fit_ols(X[:, :k], y)).r_square
              for k in range(1, 5)]
        assert all(b >= a - 1e-12 for a, b in zip(r2, r2[1:]))

    def test_affine_invariance(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(25, 3))
        y = X @ [2.0, -1.0, 0.3] + rng.normal(size=25)
        base = summarize(fit_ols(X, y)).r_square
        scaled = summarize(fit_ols(X * [10.0, 0.01, 3.0] + 5.0, y)).r_square
        assert scaled == pytest.approx(base, rel=1e-9)


class TestFPvalue:
    def quad_oracle(self, f, df1, df2):
        a, b = df2 / 2.0, df1 / 2.0
        x = df2 / (df2 + df1 * f)
        val, _ = quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1)
                      / beta_fn(a, b), 0.0, x)
        return val

    @pytest.mark.parametrize("f,df1,df2", [
        (0.4, 6, 5), (0.266667, 6, 5), (1.0, 3, 10), (5.5, 2, 20),
        (0.01, 1, 4), (12.0, 8, 3),
    ])
    def test_matches_quadrature(self, f, df1, df2):
        assert f_pvalue(f, df1, df2) == pytest.approx(
            self.quad_oracle(f, df1, df2), abs=1e-9)

    def test_survey_published_value(self):
        # the printed 0.8435099 is only loosely consistent with (0.4, 6, 5);
        # the exact value there is 0.8522421
        value = f_pvalue(0.4, 6, 5)
        assert value == pytest.approx(0.8522421, abs=1e-6)
        assert value == pytest.approx(0.8435099, abs=2e-2)

    def test_monotone_decreasing_in_f(self):
        ps = [f_pvalue(f, 4, 12) for f in np.linspace(0.0, 20.0, 50)]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_endpoints(self):
        assert f_pvalue(0.0, 3, 7) == pytest.approx(1.0)
        assert f_pvalue(1e9, 3, 7) < 1e-10
        with pytest.raises(ValueError):
            f_pvalue(-0.1, 3, 7)

    # F from 1e-4 to 1e4, spread evenly in its logarithm
    F_VALUES = st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)

    @given(st.integers(1, 500), st.integers(1, 10**6), F_VALUES)
    # the survey, the bundled fit and the warehouse-fit benchmark's report
    @example(df1=6, df2=5, f=0.4)
    @example(df1=6, df2=5, f=267.5)
    @example(df1=11, df2=9988, f=133.88)
    # where a plain continued fraction and lgamma-difference kernel erred
    @example(df1=1, df2=446886, f=3.1226)
    @example(df1=28, df2=326951, f=53.5967)
    @example(df1=279, df2=93, f=8440.6)
    def test_agrees_with_scipy(self, df1, df2, f):
        # below about 1e-240 scipy's betainc itself drifts: against 50-digit
        # mpmath it is 2% off at (53.5967, 28, 326951), 2.7e-298, and 56%
        # off at (2967.6, 76, 214), 1.0e-289; the tail is checked against
        # exact sums and pinned values below
        ref = float(betainc(df2 / 2, df1 / 2, df2 / (df2 + df1 * f)))
        if ref >= 1e-200:
            rel = 1e-12 if df2 <= 10**4 else 1e-10
            assert f_pvalue(f, df1, df2) == pytest.approx(ref, rel=rel,
                                                          abs=0)

    @staticmethod
    def exact_tail(f, df1, df2):
        """The upper tail at even df1, to 60 digits from the same float x:
        x^a times the finite sum over k < df1/2 of (a)_k / k! y^k, with
        a = df2/2 and y = 1 - x."""
        with localcontext() as ctx:
            ctx.prec = 60
            x = Decimal(df2 / (df2 + df1 * f))
            a, y = Decimal(df2) / 2, 1 - x
            term = total = Decimal(1)
            for k in range(1, df1 // 2):
                term *= (a + k - 1) / k * y
                total += term
            return float((x ** df2).sqrt() * total)

    @given(st.integers(1, 250).map(lambda half: 2 * half),
           st.integers(1, 10**6), st.floats(-4.0, 6.0).map(
               lambda e: 10.0 ** e))
    @example(df1=28, df2=326951, f=53.5967)
    def test_tail_matches_the_exact_sum(self, df1, df2, f):
        # relative accuracy holds down to the smallest normal float
        exact = self.exact_tail(f, df1, df2)
        if exact >= sys.float_info.min:
            assert f_pvalue(f, df1, df2) == pytest.approx(exact, rel=1e-12,
                                                          abs=0)

    @pytest.mark.parametrize("f,df1,df2,value", [
        # from mpmath at 50 and at 80 digits, which agree
        (133.88, 11, 9988, 4.140601695409262e-288),
        (53.5967, 28, 326951, 2.736736470728126e-298),
        (3.1226, 1, 446886, 0.07721417426711238),
        (8440.6, 279, 93, 2.306714557148321e-161),
    ])
    def test_tail_matches_pinned_values(self, f, df1, df2, value):
        assert f_pvalue(f, df1, df2) == pytest.approx(value, rel=1e-12, abs=0)

    def test_a_fraction_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr(regress, "_MAX_FRACTION_TERMS", 2)
        with pytest.raises(DwkitError, match="did not converge"):
            f_pvalue(3.1226, 1, 446886)


class TestSimpleFitAndFactorLines:
    def test_closed_form_matches_fit_ols(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=30)
        y = 3.0 * x + rng.normal(size=30)
        slope, intercept, r2 = simple_fit(x, y)
        fit = fit_ols(x, y)
        assert slope == pytest.approx(fit.slopes[0], rel=1e-12)
        assert intercept == pytest.approx(fit.intercept, rel=1e-12)
        assert r2 == pytest.approx(summarize(fit).r_square, rel=1e-12)

    @pytest.mark.parametrize("x_scale, y_scale", [
        (1e9, 3e153), (1e10, 3e153), (1e10, 1.2e144), (1e-100, 1e-100)],
        ids=["both-overflow", "both-overflow-wider", "sxx-syy-overflows",
             "sxx-syy-underflows"])
    def test_r_square_where_a_product_leaves_the_float_range(
            self, x_scale, y_scale):
        rng = np.random.default_rng(29)
        u = rng.uniform(0, 1, 10)
        v = u + rng.uniform(-1, 1, 10)
        x, y = u * x_scale, v * y_scale
        xm, ym = x.mean(), y.mean()
        sxy = float((x - xm) @ (y - ym))
        products = [sxy * sxy,
                    float((x - xm) @ (x - xm)) * float((y - ym) @ (y - ym))]
        assert not all(0 < p < math.inf for p in products)
        _, _, r2 = simple_fit(x, y)
        assert r2 == pytest.approx(simple_fit(u, v)[2], rel=1e-12)

    def test_constant_x(self):
        slope, intercept, r2 = simple_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert (slope, intercept, r2) == (0.0, 2.0, 0.0)

    def test_survey_table_strongest_factor(self):
        t = warehouse_survey_table()
        lines = factor_lines(t, "DW")
        assert lines[0].predictor == "UP"
        r2s = [ln.r_square for ln in lines]
        assert r2s == sorted(r2s, reverse=True)
        assert len(lines) == 6

    def test_explicit_predictor_subset(self):
        t = warehouse_survey_table()
        lines = factor_lines(t, "DW", predictors=["MS", "UP"])
        assert {ln.predictor for ln in lines} == {"MS", "UP"}


class TestSurveyIdentityReport:
    def test_recomputed_values(self):
        rep = survey_identity_report()
        assert rep["anova"].f == pytest.approx(0.266667, abs=1e-6)
        assert rep["summary"].r_square == pytest.approx(0.242424, abs=1e-6)
        assert rep["summary"].standard_error == pytest.approx(3.535534,
                                                              abs=1e-6)
        assert rep["significance_at_published_f"] == pytest.approx(
            0.8522421, abs=1e-6)
        assert rep["significance_at_published_f"] == pytest.approx(
            rep["published"]["significance_f"], abs=2e-2)

    def test_three_inconsistencies_flagged(self):
        rep = survey_identity_report()
        assert len(rep["warnings"]) == 3
        joined = " ".join(rep["warnings"])
        assert "F = 0.4" in joined
        assert "Observations = 10" in joined
        assert "Adjusted R Square" in joined

    def test_adjusted_r_square_standard_formula(self):
        rep = survey_identity_report()
        assert rep["summary"].adjusted_r_square == pytest.approx(
            -0.666667, abs=1e-6)
        assert rep["published"]["adjusted_r_square"] == -0.76364


def reference_encode_binary(table, columns):
    """encode_binary as three Python passes per column, cell by cell."""
    from dwkit.regress import _TRUTHY
    new_cols, new_kinds = dict(table.columns), dict(table.kinds)
    for name in columns:
        mask, vals = table.missing[name], table.columns[name]
        distinct = sorted({str(v) for v, m in zip(vals, mask) if not m})
        if {v for v, m in zip(vals, mask) if not m} <= {0, 1, 0.0, 1.0}:
            continue
        if len(distinct) != 2:
            raise NonBinaryColumnError(name, distinct)
        truthy = [t for t in distinct if t.lower() in _TRUTHY]
        pos = truthy[0] if truthy else distinct[-1]
        new_cols[name] = np.array([not m and str(v) == pos
                                   for v, m in zip(vals, mask)], np.int64)
        new_kinds[name] = "integer"
    return DataTable(new_cols, dict(table.missing), new_kinds)


@given(st.data())
def test_encode_binary_equals_cell_by_cell_reference(data):
    n = data.draw(st.integers(0, 8))
    kind = data.draw(st.sampled_from(["text", "real", "integer"]))
    cells = {"text": st.sampled_from(["yes", "no", "Y", "a", "b", "TRUE"]),
             "real": st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan]),
             "integer": st.sampled_from([0, 1, 2, -3])}[kind]
    values = data.draw(st.lists(cells, min_size=n, max_size=n))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=bool)
    col = np.array(values, dtype={"text": object, "real": float,
                                  "integer": np.int64}[kind])
    if kind == "text":
        col[mask] = None
    table = DataTable({"f": col}, {"f": mask}, {"f": kind})

    def run(encode):
        try:
            out = encode(table, ["f"])
        except NonBinaryColumnError as exc:
            return str(exc)
        return (out.kinds["f"], out.columns["f"].dtype,
                out.columns["f"].tobytes())
    assert run(encode_binary) == run(reference_encode_binary)
