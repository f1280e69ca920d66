"""OLS fitting, summary statistics, ANOVA, and per-factor fitted lines.

Fits are solved by orthogonal factorization (never the normal equations);
the F-test significance goes through the regularized incomplete beta
function.  A bundled set of published figures from the five-warehouse
data-wastage survey is reproduced from its own sums of squares, with the
survey's internal inconsistencies surfaced as warnings rather than
silently adopted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chunkstore import DataTable
from .errors import NonBinaryColumnError, RankDeficientError

_RANK_TOL = 1e-10   # singular value ratio below which a column is collinear

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


def encode_binary(table: DataTable, columns, presence=None) -> DataTable:
    """Encode two-valued columns as 1 (presence) / 0 (absence).

    ``presence`` maps column name to its presence token; without it, a
    recognized truthy token is the presence value, else the
    lexicographically larger token.  Columns already holding {0, 1} pass
    through unchanged.
    """
    presence = presence or {}
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
        if name in presence:
            pos = str(presence[name])
            if pos not in distinct:
                raise NonBinaryColumnError(name, distinct)
        else:
            truthy = [t for t in distinct if t.lower() in _TRUTHY]
            pos = truthy[0] if truthy else distinct[-1]
        encoded = np.zeros(len(mask), np.int64)
        encoded[~mask] = cells == pos
        new_cols[name] = encoded
        new_kinds[name] = "integer"
    return DataTable(new_cols, dict(table.missing), new_kinds)


def fit_ols(X, y, names=None) -> RegressionFit:
    """Least-squares fit of y on X plus an intercept column.

    Solved via QR; a singular value ratio under 1e-10 raises
    RankDeficientError naming the collinear column (pivoted QR identifies
    it).
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
    design = np.column_stack([np.ones(n), X])

    import scipy.linalg   # here, so importing dwkit does not load scipy
    _, r, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    bad = np.nonzero(diag < _RANK_TOL * diag.max())[0]
    if bad.size:
        col = piv[bad[0]]
        raise RankDeficientError("intercept" if col == 0 else names[col - 1])

    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ beta
    return RegressionFit(intercept=float(beta[0]), slopes=beta[1:],
                         predictor_names=tuple(names), fitted=fitted,
                         residuals=y - fitted, y=y)


def fit_model(table: DataTable, spec: ModelSpec) -> RegressionFit:
    X = np.column_stack([np.asarray(table.column(p), dtype=float)
                         for p in spec.predictors])
    y = np.asarray(table.column(spec.response), dtype=float)
    return fit_ols(X, y, names=spec.predictors)


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


def f_pvalue(f, df1, df2) -> float:
    """Upper tail of the F distribution at (df1, df2)."""
    if f < 0:
        raise ValueError("F statistic must be >= 0")
    from scipy.special import betainc   # loaded on first use, as in fit_ols
    x = df2 / (df2 + df1 * f)
    return float(betainc(df2 / 2.0, df1 / 2.0, x))


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
    r2 = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
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
