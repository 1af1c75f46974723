"""Covariance estimation: centering, shrinkage, and the structured estimate.

Data matrices are ``D x N_e`` (one flattened channel-prime epoch per
column).  ``estimate_covariance`` is the estimation pipeline on data that
the caller has already centered (``lda.fit`` centers with :func:`center`):
sample covariance with divisor ``N_e - 1``, analytic shrinkage toward the
scaled identity, then the structure that the estimator names in
``ESTIMATORS``: block-diagonal averaging, linear tapering, both (the compact
block-Toeplitz estimate), or neither.  The dense ``D x D`` sample covariance
is formed once per estimate, and the Ledoit-Wolf intensity works on the
smaller of the ``D x D`` and ``N_e x N_e`` products.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blockmat import (
    BlockCov,
    BlockDims,
    BlockToeplitzCov,
    _owned_cov,
    apply_taper,
    apply_taper_dense,
    block_diagonal_average,
)
from .errors import ShapeError

#: Structure applied after shrinkage, per estimator: (block-diagonal
#: averaging, linear tapering).
_STRUCTURE = {
    "slda": (False, False),
    "toeplitz": (True, True),
    "toeplitz_a1_only": (True, False),
    "toeplitz_a2_only": (False, True),
}
ESTIMATORS = tuple(_STRUCTURE)


@dataclass(frozen=True)
class ClassStats:
    """Per-class mean vectors and epoch counts.

    Row ``k`` of ``means`` is the mean of class ``k`` (0 = non-target,
    1 = target).
    """

    means: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        means = np.array(self.means, dtype=np.float64)
        counts = np.array(self.counts, dtype=np.int64)
        if means.ndim != 2 or means.shape[0] != 2:
            raise ShapeError(f"class means must have shape (2, D), got {means.shape}")
        if counts.shape != (2,):
            raise ShapeError(f"class counts must have shape (2,), got {counts.shape}")
        means.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class ShrinkageResult:
    """Shrunk covariance together with the intensity and target scale used.

    ``matrix`` is dense, except after block-diagonal averaging in
    :func:`estimate_covariance`, which returns the compact form.
    """

    matrix: BlockCov | BlockToeplitzCov
    gamma: float
    nu: float


def _as_data_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"data matrix must be 2-D (D x N_e), got shape {x.shape}")
    return x


def _check_labels(labels, n_epochs: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n_epochs,):
        raise ShapeError(
            f"labels have shape {labels.shape}, expected ({n_epochs},)"
        )
    labels = labels.astype(np.int64)
    if not np.isin(labels, (0, 1)).all():
        raise ShapeError("labels must be 0 (non-target) or 1 (target)")
    return labels


def class_means(x, labels) -> ClassStats:
    """Mean vector and epoch count for each of the two classes."""
    x = _as_data_matrix(x)
    labels = _check_labels(labels, x.shape[1])
    counts = np.array([(labels == 0).sum(), (labels == 1).sum()])
    if counts.min() < 1:
        raise ShapeError("both classes must be present with at least one epoch")
    means = np.stack([x[:, labels == k].mean(axis=1) for k in (0, 1)])
    return ClassStats(means, counts)


def center(x, means=None, labels=None) -> np.ndarray:
    """Subtract a mean assignment from every column.

    With ``labels`` given, each column is centered by its class mean, taken
    from ``means`` when it is a :class:`ClassStats` and estimated from the
    data otherwise.  Without labels the data's overall mean is used.
    """
    x = _as_data_matrix(x)
    if labels is None:
        return x - x.mean(axis=1)[:, None]
    labels = _check_labels(labels, x.shape[1])
    stats = means if isinstance(means, ClassStats) else class_means(x, labels)
    return x - stats.means[labels].T


def sample_covariance(centered, dims: BlockDims) -> BlockCov:
    """Sample covariance of centered data with divisor ``N_e - 1``."""
    xc = _as_data_matrix(centered)
    # On one C- or F-contiguous buffer numpy computes xc @ xc.T with SYRK and
    # mirrors a triangle, so S is exactly symmetric; a strided view goes to GEMM.
    if not (xc.flags.c_contiguous or xc.flags.f_contiguous):
        xc = np.ascontiguousarray(xc)
    d, n = xc.shape
    if d != dims.size:
        raise ShapeError(f"data dimension {d} does not match dims.size {dims.size}")
    if n < 2:
        raise ShapeError(f"need at least 2 epochs for a covariance, got {n}")
    s = xc @ xc.T
    s /= n - 1
    return _owned_cov(dims, s)


def ledoit_wolf_gamma(centered) -> float:
    """Analytic shrinkage intensity toward the scaled identity.

    Standard Ledoit-Wolf estimate computed from centered data ``xc``: the
    summed variance of the entries of ``S = xc xc^T / n`` over the squared
    distance ``delta`` between ``S`` and its target ``mu I`` (``mu =
    trace(S) / D``), clipped to [0, 1].  Both terms depend on ``S`` only
    through its spectrum, which ``M``, the smaller of ``xc^T xc / n`` and
    ``xc xc^T / n`` (size ``m``), shares up to ``D - m`` zero eigenvalues:

    * ``delta = (||M - mu I_m||_F^2 + (D - m) mu^2) / D``
    * ``beta = (sum_k ||x_k||^4 / n - ||M||_F^2) / (D n)``

    so with ``N_e < D`` no ``D x D`` matrix is formed.
    """
    xc = _as_data_matrix(centered)
    d, n = xc.shape
    if n < 2:
        raise ShapeError(f"need at least 2 epochs, got {n}")
    gram = xc.T @ xc if n < d else xc @ xc.T
    gram /= n
    m = gram.shape[0]
    mu = np.trace(gram) / d
    gram_sq = np.vdot(gram, gram)
    gram.flat[:: m + 1] -= mu
    delta = (np.vdot(gram, gram) + (d - m) * mu * mu) / d
    if delta <= 0.0:
        return 0.0
    norms = np.einsum("ij,ij->j", xc, xc)
    beta = (np.vdot(norms, norms) / n - gram_sq) / (d * n)
    beta = min(max(beta, 0.0), delta)
    return float(beta / delta)


def shrink(s: BlockCov, gamma: float | None = None, centered=None) -> ShrinkageResult:
    """Shrink toward ``nu * I`` with ``nu = trace(S) / D``.

    When ``gamma`` is None the analytic Ledoit-Wolf intensity is computed
    from ``centered`` (the data the covariance came from).  The returned
    matrix is ``(1 - gamma) S + gamma nu I``; its trace equals ``trace(S)``.
    """
    if gamma is None:
        if centered is None:
            raise ValueError("either gamma or the centered data must be given")
        gamma = ledoit_wolf_gamma(centered)
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    d = s.dims.size
    nu = float(np.trace(s.data) / d)
    out = (1.0 - gamma) * s.data
    out.flat[:: d + 1] += gamma * nu
    return ShrinkageResult(_owned_cov(s.dims, out), gamma, nu)


def estimate_covariance(
    centered,
    dims: BlockDims,
    estimator: str = "toeplitz",
    gamma: float | None = None,
) -> ShrinkageResult:
    """Shrunk covariance of centered epochs in the structure ``estimator`` names.

    Pipeline: sample covariance of ``centered`` (see :func:`center`),
    shrinkage (analytic intensity unless ``gamma`` is given), then the
    estimator's structure:

    * ``slda``: the dense shrunk covariance itself.
    * ``toeplitz``: block-diagonal averaging followed by linear tapering;
      the compact :class:`BlockToeplitzCov`.
    * ``toeplitz_a1_only``: averaging without tapering (compact form; the
      result may be indefinite for small ``N_e``).
    * ``toeplitz_a2_only``: blockwise tapering of the dense shrunk
      covariance; a dense :class:`BlockCov`.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}"
        )
    xc = _as_data_matrix(centered)
    shrunk = shrink(sample_covariance(xc, dims), gamma, xc)
    average, taper = _STRUCTURE[estimator]
    cov = shrunk.matrix
    if average:
        cov = block_diagonal_average(cov)
    if taper:
        cov = apply_taper(cov) if average else apply_taper_dense(cov)
    return replace(shrunk, matrix=cov)
