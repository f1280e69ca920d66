import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from dwkit import regress
from dwkit.chunkstore import DataTable
from dwkit.errors import NonBinaryColumnError, RankDeficientError
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

    def test_explicit_presence_token(self):
        t = make_table(flag=["alpha", "beta", "alpha"])
        out = encode_binary(t, ["flag"], presence={"flag": "alpha"})
        np.testing.assert_array_equal(out.column("flag"), [1, 0, 1])

    def test_zero_one_passthrough(self):
        t = make_table(flag=[0.0, 1.0, 1.0])
        out = encode_binary(t, ["flag"])
        np.testing.assert_array_equal(out.column("flag"), [0, 1, 1])

    def test_three_values_rejected(self):
        t = make_table(flag=["a", "b", "c"])
        with pytest.raises(NonBinaryColumnError):
            encode_binary(t, ["flag"])

    def test_bad_presence_token_rejected(self):
        t = make_table(flag=["a", "b"])
        with pytest.raises(NonBinaryColumnError):
            encode_binary(t, ["flag"], presence={"flag": "zzz"})


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
        with pytest.raises(RankDeficientError):
            fit_ols(X, rng.normal(size=15), names=("a", "const"))

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


def reference_encode_binary(table, columns, presence=None):
    """encode_binary as three Python passes per column, cell by cell."""
    from dwkit.regress import _TRUTHY
    presence = presence or {}
    new_cols, new_kinds = dict(table.columns), dict(table.kinds)
    for name in columns:
        mask, vals = table.missing[name], table.columns[name]
        distinct = sorted({str(v) for v, m in zip(vals, mask) if not m})
        if {v for v, m in zip(vals, mask) if not m} <= {0, 1, 0.0, 1.0}:
            continue
        if len(distinct) != 2:
            raise NonBinaryColumnError(name, distinct)
        if name in presence:
            pos = str(presence[name])
            if pos not in distinct:
                raise NonBinaryColumnError(name, distinct)
        else:
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
    presence = data.draw(st.sampled_from(
        [None, {"f": "a"}, {"f": "yes"}, {"f": 2.5}]))

    def run(encode):
        try:
            out = encode(table, ["f"], presence)
        except NonBinaryColumnError as exc:
            return str(exc)
        return (out.kinds["f"], out.columns["f"].dtype,
                out.columns["f"].tobytes())
    assert run(encode_binary) == run(reference_encode_binary)
