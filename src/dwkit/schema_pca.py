"""Correlation-PCA warehouse schema design.

Four-stage pipeline over a numeric candidate data set: correlate the
variables, eigendecompose the correlation matrix, accumulate explained
variance, and retain the leading components.  Retained components become
proposed warehouse dimensions; each variable joins the component on which
its absolute loading is largest.

The correlation comes from ``Moments``: the row count, column means,
centred cross-product matrix and column extremes of a block of rows.
Blocks fold by the pairwise update of Chan, Golub & LeVeque (1979), as
Pebay (SAND2008-6212, 2008) extends it to co-moments, so a table read a
chunk at a time is correlated from one chunk's rows in memory.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidCorrelationError, ZeroVarianceColumnError

# |loading| below this sends a variable to the unassigned pool
ASSIGNMENT_FLOOR = 0.3
DEFAULT_VARIANCE_THRESHOLD = 0.8
_EIG_CLAMP = 1e-9   # tiny negative eigenvalues clamped to zero


@dataclass(frozen=True)
class NumericMatrix:
    """Observations x variables, no missing entries; a value that is not
    finite is refused, for a library caller (the CLI folds ``Moments``)."""
    values: np.ndarray
    col_names: list[str]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 1:
            raise ValueError("need a 2-D matrix with >= 2 rows, >= 1 column")
        if v.shape[1] != len(self.col_names):
            raise ValueError("col_names length must match column count")
        if not np.all(np.isfinite(v)):
            raise ValueError("matrix contains non-finite entries; handle "
                             "missing values upstream")


@dataclass(frozen=True)
class CorrelationMatrix:
    values: np.ndarray
    col_names: list[str]


@dataclass(frozen=True)
class PcaResult:
    eigenvalues: np.ndarray      # descending
    eigenvectors: np.ndarray     # column k loads component k
    col_names: list[str]
    cumulative: np.ndarray | None = None
    selected: list[int] | None = None


@dataclass(frozen=True)
class SchemaProposal:
    factors: list[list[str]]            # one variable group per component
    proposed_dimensions: list[str]
    unassigned: list[str]
    pca: PcaResult


@dataclass(frozen=True)
class Moments:
    """The row count, column means, centred cross-product matrix
    (``comoment[i, j]`` sums (x_i - mean_i)(x_j - mean_j) over the rows)
    and column minima and maxima of a block of rows."""
    n: int
    mean: np.ndarray
    comoment: np.ndarray
    low: np.ndarray
    high: np.ndarray
    col_names: list[str]

    @classmethod
    def of(cls, values, names) -> Moments:
        """The moments of ``values`` (rows x columns, any number of rows),
        centred at the block's own means.  Operations that leave the float
        range give infinities or NaNs, without a warning."""
        v = np.asarray(values, dtype=float)
        n = len(v)
        with np.errstate(all="ignore"):
            mean = v.sum(axis=0) / max(n, 1)
            d = v - mean
            comoment = d.T @ d
        return cls(n, mean, comoment, v.min(axis=0, initial=np.inf),
                   v.max(axis=0, initial=-np.inf), list(names))

    def merge(self, other: Moments) -> Moments:
        """The moments of this block's rows and ``other``'s together."""
        if not other.n:
            return self
        if not self.n:
            return other
        n = self.n + other.n
        with np.errstate(all="ignore"):
            delta = other.mean - self.mean
            mean = self.mean + delta * (other.n / n)
            comoment = (self.comoment + other.comoment
                        + np.outer(delta, delta * (self.n * other.n / n)))
        return Moments(n, mean, comoment, np.minimum(self.low, other.low),
                       np.maximum(self.high, other.high), self.col_names)

    def correlation(self) -> CorrelationMatrix:
        """Pearson correlation of every column pair.  A column is of zero
        variance exactly when its minimum equals its maximum; one whose sum
        of squared deviations leaves the float range is refused too."""
        names = self.col_names
        constant = np.flatnonzero(self.low == self.high)
        if constant.size:
            raise ZeroVarianceColumnError(names[constant[0]])
        ss = np.diagonal(self.comoment)
        bad = np.flatnonzero(~np.isfinite(ss) | (ss == 0))
        if bad.size:
            j = bad[0]
            raise InvalidCorrelationError(
                f"column {names[j]!r}'s sum of squared deviations "
                + ("underflows to 0" if ss[j] == 0 else "overflows"))
        scale = np.sqrt(ss)
        with np.errstate(all="ignore"):
            corr = self.comoment / scale[:, None] / scale[None, :]
        corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(corr, 1.0)
        return CorrelationMatrix(values=corr, col_names=list(names))


def correlation_matrix(data: NumericMatrix) -> CorrelationMatrix:
    """Pearson correlation of every column pair, from the matrix's
    ``Moments``."""
    return Moments.of(data.values, data.col_names).correlation()


def extract_factors(corr: CorrelationMatrix) -> PcaResult:
    """Full eigendecomposition, eigenvalues descending.

    Sign convention: the largest-magnitude entry of each eigenvector is
    made positive, so loadings are deterministic.
    """
    evals, evecs = np.linalg.eigh(corr.values)
    if np.min(evals) < -_EIG_CLAMP:
        raise InvalidCorrelationError(
            f"matrix has eigenvalue {np.min(evals):.3g}; not a valid "
            f"correlation matrix")
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    for k in range(evecs.shape[1]):
        pivot = np.argmax(np.abs(evecs[:, k]))
        if evecs[pivot, k] < 0:
            evecs[:, k] = -evecs[:, k]
    return PcaResult(eigenvalues=evals, eigenvectors=evecs,
                     col_names=list(corr.col_names))


def cumulative_variance(eigenvalues) -> np.ndarray:
    """Prefix sums of the (clamped) eigenvalues over their total."""
    ev = np.asarray(eigenvalues, dtype=float)
    if np.min(ev) < -_EIG_CLAMP:
        raise InvalidCorrelationError(
            f"negative eigenvalue {np.min(ev):.3g}")
    ev = np.clip(ev, 0.0, None)
    total = ev.sum()
    if total == 0:
        raise InvalidCorrelationError("all eigenvalues are zero")
    return np.cumsum(ev) / total


def select_components(result: PcaResult, threshold: float) -> list[int]:
    """Smallest prefix of components whose cumulative explained variance
    reaches the threshold; always at least one."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    cum = (result.cumulative if result.cumulative is not None
           else cumulative_variance(result.eigenvalues))
    k = int(np.searchsorted(cum, threshold - 1e-12)) + 1
    k = min(max(k, 1), len(cum))
    return list(range(k))


def design_schema(data: Moments | NumericMatrix,
                  threshold: float = DEFAULT_VARIANCE_THRESHOLD
                  ) -> SchemaProposal:
    """Run the full pipeline and group variables into proposed dimensions.

    ``data`` is folded ``Moments``, or a matrix, folded as one block.
    Each variable is assigned to the retained component with its largest
    absolute loading (ties to the lower component index); variables whose
    best |loading| is under ASSIGNMENT_FLOOR stay unassigned.
    """
    if isinstance(data, NumericMatrix):
        data = Moments.of(data.values, data.col_names)
    pca = extract_factors(data.correlation())
    pca = replace(pca, cumulative=cumulative_variance(pca.eigenvalues))
    selected = select_components(pca, threshold)
    pca = replace(pca, selected=selected)

    loadings = pca.eigenvectors[:, selected]
    factors = [[] for _ in selected]
    unassigned = []
    for j, name in enumerate(pca.col_names):
        best = int(np.argmax(np.abs(loadings[j])))
        if abs(loadings[j, best]) < ASSIGNMENT_FLOOR:
            unassigned.append(name)
        else:
            factors[best].append(name)
    dimensions = []
    for k, members in enumerate(factors):
        if members:
            lead = max(members, key=lambda n: abs(
                loadings[pca.col_names.index(n), k]))
            dimensions.append(f"dim{k + 1}_{lead}")
        else:
            dimensions.append(f"dim{k + 1}_empty")
    return SchemaProposal(factors=factors, proposed_dimensions=dimensions,
                         unassigned=unassigned, pca=pca)
