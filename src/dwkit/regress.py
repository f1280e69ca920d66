"""OLS fitting, summary statistics, ANOVA, and per-factor fitted lines.

Each fit is solved by one SVD (never the normal equations), which also
gives its rank test; the F-test significance goes through the regularized
incomplete beta function.  A bundled set of published figures from the
five-warehouse data-wastage survey is reproduced from its own sums of
squares, with the survey's internal inconsistencies surfaced as warnings
rather than silently adopted.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .chunkstore import DataTable
from .errors import DwkitError, NonBinaryColumnError, RankDeficientError

_RANK_TOL = 1e-10   # singular value ratio below which a column is collinear

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# the beta fraction takes at most 67 terms for df1 <= 500, df2 <= 1e6, and
# 165 at df1 = df2 = 1e6
_MAX_FRACTION_TERMS = 1000

# truthy tokens recognized as the presence value of a binary column
_TRUTHY = {"yes", "true", "y", "1", "present"}


@dataclass(frozen=True)
class ModelSpec:
    response: str
    predictors: tuple[str, ...]

    def __post_init__(self):
        preds = tuple(self.predictors)
        object.__setattr__(self, "predictors", preds)
        if not preds or len(set(preds)) != len(preds):
            raise ValueError("predictors must be non-empty and distinct")
        if self.response in preds:
            raise ValueError("response cannot be a predictor")


@dataclass(frozen=True)
class RegressionFit:
    intercept: float
    slopes: np.ndarray
    predictor_names: tuple[str, ...]
    fitted: np.ndarray
    residuals: np.ndarray
    y: np.ndarray

    @property
    def n(self):
        return len(self.y)

    @property
    def p(self):
        return len(self.slopes)

    @property
    def ss_residual(self):
        return float(self.residuals @ self.residuals)

    @property
    def ss_total(self):
        d = self.y - self.y.mean()
        return float(d @ d)

    @property
    def ss_regression(self):
        d = self.fitted - self.y.mean()
        return float(d @ d)


@dataclass(frozen=True)
class RegressionSummary:
    """The CLI reports these fields in this order."""
    multiple_r: float
    r_square: float
    adjusted_r_square: float
    standard_error: float
    observations: int


@dataclass(frozen=True)
class AnovaTable:
    """The CLI reports these fields in this order."""
    df_regression: int
    df_residual: int
    ss_regression: float
    ss_residual: float
    ss_total: float
    ms_regression: float
    ms_residual: float
    f: float
    significance_f: float

    @property
    def df_total(self):
        return self.df_regression + self.df_residual


@dataclass(frozen=True)
class FactorLine:
    predictor: str
    slope: float
    intercept: float
    r_square: float
    x: np.ndarray
    y: np.ndarray
    fitted: np.ndarray


def encode_binary(table: DataTable, columns) -> DataTable:
    """Encode two-valued columns as 1 (presence) / 0 (absence).

    A recognized truthy token is the presence value, else the
    lexicographically larger token.  Columns already holding {0, 1} pass
    through unchanged.
    """
    new_cols = dict(table.columns)
    new_kinds = dict(table.kinds)
    for name in columns:
        mask = table.missing[name]
        cells = table.columns[name][~mask]
        if cells.dtype != object:   # numbers are told apart as strings
            if ((cells == 0) | (cells == 1)).all():
                continue
            cells = np.array([str(v) for v in cells], dtype=object)
        distinct = sorted(set(cells.tolist()))
        if not distinct:
            continue   # no value to encode
        if len(distinct) != 2:
            raise NonBinaryColumnError(name, distinct)
        truthy = [t for t in distinct if t.lower() in _TRUTHY]
        pos = truthy[0] if truthy else distinct[-1]
        encoded = np.zeros(len(mask), np.int64)
        encoded[~mask] = cells == pos
        new_cols[name] = encoded
        new_kinds[name] = "integer"
    return DataTable(new_cols, dict(table.missing), new_kinds)


def fit_ols(X, y, names=None, response="y") -> RegressionFit:
    """Least-squares fit of y on X plus an intercept column.

    A value that is not finite raises ValueError naming its column, for
    a library caller, as the chunk engine builds no infinite cell.  The
    fit is solved by ``np.linalg.lstsq``, whose SVD also gives the rank
    test: a smallest-to-largest singular value ratio under 1e-10, on the
    design and again on its columns scaled to unit norm, raises
    RankDeficientError naming the first predictor that adds no rank to
    the columns before it.  A design that passes only when scaled is
    solved scaled.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 1 and X.shape[1] > 1 and np.asarray(y).size == X.shape[1]:
        X = X.T
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if names is None:
        names = tuple(f"x{j + 1}" for j in range(p))
    if n <= p + 1:
        raise ValueError(f"need more than {p + 1} observations, got {n}")
    # LAPACK is handed no infinity or NaN: it would print its own errors
    for name, col in zip((*names, response), (*X.T, y)):
        if not np.isfinite(col).all():
            raise ValueError(f"column {name!r} holds a non-finite value")
    design = np.column_stack([np.ones(n), X])

    beta, _, _, sv = np.linalg.lstsq(design, y, rcond=None)
    if sv[-1] < _RANK_TOL * sv[0]:
        # a predictor far larger than the intercept's ones makes a
        # well-conditioned design look singular: rank is judged, and the
        # fit solved, on columns scaled to unit norm (a zero column stays
        # zero, as does one whose norm overflows: it is named collinear)
        with np.errstate(over="ignore"):
            norms = np.hypot.reduce(design, axis=0)
        norms[norms == 0] = 1.0
        scaled = design / norms
        beta, _, _, sv = np.linalg.lstsq(scaled, y, rcond=None)
        if sv[-1] < _RANK_TOL * sv[0]:
            # the whole design decides; a prefix only names the column,
            # and the last is named when no shorter prefix fails
            for k in range(1, p):
                s = np.linalg.svd(scaled[:, :k + 1], compute_uv=False)
                if s[-1] < _RANK_TOL * s[0]:
                    raise RankDeficientError(names[k - 1])
            raise RankDeficientError(names[-1])
        beta = beta / norms
    fitted = design @ beta
    return RegressionFit(intercept=float(beta[0]), slopes=beta[1:],
                         predictor_names=tuple(names), fitted=fitted,
                         residuals=y - fitted, y=y)


def fit_model(table: DataTable, spec: ModelSpec) -> RegressionFit:
    X = np.column_stack([np.asarray(table.column(p), dtype=float)
                         for p in spec.predictors])
    y = np.asarray(table.column(spec.response), dtype=float)
    return fit_ols(X, y, names=spec.predictors, response=spec.response)


def summary_from_sums(ss_regression, ss_residual, df_regression,
                      df_residual) -> RegressionSummary:
    """Summary statistics computed from the sums of squares alone."""
    ss_total = ss_regression + ss_residual
    n = df_regression + df_residual + 1
    r2 = 1.0 if ss_total == 0 else ss_regression / ss_total
    adj = 1.0 - (1.0 - r2) * (n - 1) / df_residual if df_residual > 0 else r2
    se = math.sqrt(ss_residual / df_residual) if df_residual > 0 else 0.0
    return RegressionSummary(multiple_r=math.sqrt(max(r2, 0.0)), r_square=r2,
                             adjusted_r_square=adj, standard_error=se,
                             observations=n)


def summarize(fit: RegressionFit) -> RegressionSummary:
    return summary_from_sums(fit.ss_regression, fit.ss_residual,
                             fit.p, fit.n - fit.p - 1)


def _stirling_remainder(z):
    """lgamma(z) less Stirling's (z - 1/2) ln z - z + ln sqrt(2 pi).

    From z = 10 on, by its asymptotic series, whose truncation error is
    under 1e-16 there; below, lgamma's own value is small enough to
    subtract from.
    """
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _LN_SQRT_2PI
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w * (
        1 / 1188 - w * (691 / 360360 - w / 156)))))) / z


def _rlog1(e, ratio):
    """e - ln(1 + e), which is never negative; ``ratio`` is 1 + e computed
    without cancellation, for e near -1.  Near 0, where the difference
    cancels, it is summed as we - 2 (w^3/3 + w^5/5 + ...) with
    w = e / (2 + e), from ln(1 + e) = 2 atanh(w)."""
    if abs(e) > 0.5:
        return e - math.log(ratio)
    w = e / (2.0 + e)
    w2 = w * w
    power, total, k = w2, 1 / 3, 5
    while power > 1e-17:   # |w| <= 1/3, so at most 18 terms
        total += power / k
        power *= w2
        k += 2
    return w * e - 2.0 * w * w2 * total


def _log_beta_kernel(a, b, x, y):
    """ln(x^a y^b / B(a, b)), with y = 1 - x.

    With lam = a y - b x, x / x0 = 1 - lam/a and y / y0 = 1 + lam/b around
    the mean x0 = a / (a + b), so (DiDonato & Morris, TOMS 708, brcomp)

        x^a y^b / B(a, b) = sqrt(ab / (2 pi (a + b)))
                            exp(-a rlog1(-lam/a) - b rlog1(lam/b) - d)

    with d the Stirling remainders of a and b less that of a + b.  Both
    rlog1 terms are >= 0, so no two large logarithms cancel, as lgamma(a +
    b) - lgamma(a) would at large a.
    """
    lam = a * y - b * x
    s = a + b
    return (0.5 * math.log(a * b / (2.0 * math.pi * s))
            - a * _rlog1(-lam / a, x * s / a)
            - b * _rlog1(lam / b, y * s / b)
            - (_stirling_remainder(a) + _stirling_remainder(b)
               - _stirling_remainder(s)))


def _beta_fraction(a, b, x, y):
    """I_x(a, b) over its kernel x^a y^b / B(a, b), for x at most
    (a + 1) / (a + b + 2): the even part of the continued fraction, started
    from 1 + lam with lam = a y - b x (TOMS 708, bfrac), summed by the
    three-term recurrence with rescaling.  Raises DwkitError rather than
    return a value that has not converged."""
    c = 1.0 + (a * y - b * x)
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = 1.0 + y
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _MAX_FRACTION_TERMS + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= sys.float_info.epsilon * r:
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise DwkitError(f"the incomplete beta fraction at a={a!r}, b={b!r}, "
                     f"x={x!r} did not converge in {_MAX_FRACTION_TERMS} "
                     f"terms")


def f_pvalue(f, df1, df2) -> float:
    """Upper tail of the F distribution at (df1, df2).

    That is the regularized incomplete beta I_x(df2/2, df1/2) at
    x = df2 / (df2 + df1 f), as its kernel times its continued fraction,
    or one less those of I_(1-x)(df1/2, df2/2) above the fraction's
    switch point x = (a + 1) / (a + b + 2) (Press et al., Numerical
    Recipes, 6.4).  The kernel is summed in log space, so the tail keeps
    its relative accuracy down to the subnormal range.
    """
    if not f >= 0:
        raise ValueError("F statistic must be >= 0")
    x = df2 / (df2 + df1 * f)
    if x in (0.0, 1.0):   # F is 0, or df1 * F overflows
        return x
    y = 1.0 - x
    a, b = df2 / 2.0, df1 / 2.0
    if x <= (a + 1.0) / (a + b + 2.0):
        return math.exp(_log_beta_kernel(a, b, x, y)) * _beta_fraction(
            a, b, x, y)
    return 1.0 - math.exp(_log_beta_kernel(b, a, y, x)) * _beta_fraction(
        b, a, y, x)


def anova_from_sums(ss_regression, ss_residual, df_regression,
                    df_residual) -> AnovaTable:
    ms_reg = ss_regression / df_regression
    ms_res = ss_residual / df_residual
    f = ms_reg / ms_res if ms_res > 0 else math.inf
    sig = f_pvalue(f, df_regression, df_residual) if math.isfinite(f) else 0.0
    return AnovaTable(df_regression=df_regression, df_residual=df_residual,
                      ss_regression=ss_regression, ss_residual=ss_residual,
                      ss_total=ss_regression + ss_residual,
                      ms_regression=ms_reg, ms_residual=ms_res, f=f,
                      significance_f=sig)


def anova(fit: RegressionFit) -> AnovaTable:
    return anova_from_sums(fit.ss_regression, fit.ss_residual,
                           fit.p, fit.n - fit.p - 1)


def simple_fit(x, y):
    """Closed-form one-variable OLS: (slope, intercept, r_square)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    sxx = float((x - xm) @ (x - xm))
    syy = float((y - ym) @ (y - ym))
    sxy = float((x - xm) @ (y - ym))
    if sxx == 0:
        return 0.0, ym, 0.0
    slope = sxy / sxx
    num, den = sxy * sxy, sxx * syy
    if syy == 0:
        r2 = 1.0
    elif math.isfinite(num) and 0 < den < math.inf:
        r2 = num / den
    else:   # a product overflowed, or underflowed to zero
        r2 = (sxy / sxx) * (sxy / syy)
    return slope, ym - slope * xm, r2


def factor_lines(table: DataTable, response, predictors=None):
    """One-variable fit of the response on each predictor, strongest
    single-variable R-square first (ties by predictor name)."""
    if predictors is None:
        predictors = [c for c in table.column_names if c != response]
    y = np.asarray(table.column(response), dtype=float)
    lines = []
    for name in predictors:
        x = np.asarray(table.column(name), dtype=float)
        slope, intercept, r2 = simple_fit(x, y)
        lines.append(FactorLine(predictor=name, slope=slope,
                                intercept=intercept, r_square=r2, x=x, y=y,
                                fitted=intercept + slope * x))
    lines.sort(key=lambda ln: (-ln.r_square, ln.predictor))
    return lines


# --- bundled reference figures from the five-warehouse survey ---

# what the survey printed for its Model 1 regression and ANOVA table
SURVEY_MODEL1_PRINTED = {
    "multiple_r": 0.492366,
    "r_square": 0.242424,
    "adjusted_r_square": -0.76364,
    "standard_error": 3.535534,
    "observations": 10,
    "ss_regression": 20.0,
    "ss_residual": 62.5,
    "df_regression": 6,
    "df_residual": 5,
    "f": 0.4,
    "significance_f": 0.8435099,
}
# the ANOVA entries the audit recomputes, in the order a report lists them
SURVEY_RECOMPUTED = ("ms_regression", "ms_residual", "f", "significance_f",
                     "ss_total")


def survey_identity_report() -> dict:
    """Recompute the survey's Model 1 statistics from its own sums of
    squares and flag every internal inconsistency in the printed table."""
    ref = SURVEY_MODEL1_PRINTED
    summary = summary_from_sums(ref["ss_regression"], ref["ss_residual"],
                                ref["df_regression"], ref["df_residual"])
    table = anova_from_sums(ref["ss_regression"], ref["ss_residual"],
                            ref["df_regression"], ref["df_residual"])
    warnings = []
    if abs(table.f - ref["f"]) > 1e-6:
        warnings.append(
            f"published ANOVA prints F = {ref['f']} with "
            f"Significance F = {ref['significance_f']}, but its own MS "
            f"values give F = {table.f:.6f}; F is recomputed from MS")
    if summary.observations != ref["observations"]:
        warnings.append(
            f"published Observations = {ref['observations']} conflicts "
            f"with ANOVA df_total = {table.df_total} (implies n = "
            f"{summary.observations}); df-consistent n is used")
    if abs(summary.adjusted_r_square - ref["adjusted_r_square"]) > 1e-5:
        warnings.append(
            f"published Adjusted R Square = {ref['adjusted_r_square']} is "
            f"not reproducible from (R^2, n, p); standard formula gives "
            f"{summary.adjusted_r_square:.6f}")
    return {
        "summary": summary,
        "anova": table,
        "published": dict(ref),
        "significance_at_published_f": f_pvalue(
            ref["f"], ref["df_regression"], ref["df_residual"]),
        "warnings": warnings,
    }
