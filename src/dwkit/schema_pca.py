"""Correlation-PCA warehouse schema design.

Four-stage pipeline over a numeric candidate data set: correlate the
variables, eigendecompose the correlation matrix, accumulate explained
variance, and retain the leading components.  Retained components become
proposed warehouse dimensions; each variable joins the component on which
its absolute loading is largest.
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
    """Observations x variables, no missing entries."""
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

    @property
    def cols(self):
        return self.values.shape[1]


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


def correlation_matrix(data: NumericMatrix) -> CorrelationMatrix:
    """Pearson correlation of every column pair ((n-1) sample convention)."""
    stds = np.std(data.values, axis=0, ddof=1)
    for j, s in enumerate(stds):
        if s == 0:
            raise ZeroVarianceColumnError(data.col_names[j])
    if data.cols == 1:
        corr = np.ones((1, 1))
    else:
        corr = np.corrcoef(data.values, rowvar=False)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(values=corr, col_names=list(data.col_names))


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


def design_schema(data: NumericMatrix,
                  threshold: float = DEFAULT_VARIANCE_THRESHOLD
                  ) -> SchemaProposal:
    """Run the full pipeline and group variables into proposed dimensions.

    Each variable is assigned to the retained component with its largest
    absolute loading (ties to the lower component index); variables whose
    best |loading| is under ASSIGNMENT_FLOOR stay unassigned.
    """
    pca = extract_factors(correlation_matrix(data))
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
