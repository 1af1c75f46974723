"""Covariance estimation: centering, shrinkage, and the structured estimate.

Data matrices are ``D x N_e`` (one flattened channel-prime epoch per
column).  ``estimate_covariance`` turns centered data into the shrunk
covariance (divisor ``N_e - 1``, analytic shrinkage toward the scaled
identity) in the structure an estimator of ``ESTIMATORS`` names.  Only
``slda`` and ``toeplitz_a2_only`` form the dense ``D x D`` sample covariance,
and they shrink (and taper) it in the buffer the product lands in;
``toeplitz`` and ``toeplitz_a1_only`` build their lag blocks from the data:
one product per lag on short windows, a cross-spectrum summed over chunks
of epochs on long ones (the size rule ``blockmat._fft_pays``).  The
Ledoit-Wolf intensity works on the smaller of the ``D x D`` and
``N_e x N_e`` products.  ``sample_covariance`` and
``shrink`` (then ``blockmat.apply_taper_dense``) run the dense estimate
stage by stage, each stage on a fresh copy: no fit calls them, so they are
its independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.fftpack

from .blockmat import BlockCov, BlockDims, BlockToeplitzCov, _fft_pays, _owned_cov
from .errors import DataFormatError, ShapeError

ESTIMATORS = ("slda", "toeplitz", "toeplitz_a1_only", "toeplitz_a2_only")


@dataclass(frozen=True)
class ClassStats:
    """Per-class mean vectors and epoch counts.

    Row ``k`` of ``means`` is the mean of class ``k`` (0 = non-target,
    1 = target).  Means that are not real numbers, or counts that are not
    non-negative integers, raise :class:`DataFormatError` instead of being
    cast.
    """

    means: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        means, counts = np.asarray(self.means), np.asarray(self.counts)
        if means.dtype.kind not in "iuf":
            raise DataFormatError(f"class means must be real numbers, got {means.dtype}")
        if counts.dtype.kind not in "iu" or (counts < 0).any():
            raise DataFormatError(
                f"class counts must be non-negative integers, got {counts.tolist()!r}"
            )
        means, counts = means.astype(np.float64), counts.astype(np.int64)
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
    """Shrunk covariance with its intensity and ``nu = trace(S) / D``.

    ``matrix`` is the compact :class:`BlockToeplitzCov` for the averaged
    estimators of :func:`estimate_covariance`, else a dense :class:`BlockCov`.
    """

    matrix: BlockCov | BlockToeplitzCov
    gamma: float
    nu: float


def _as_data_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"data matrix must be 2-D (D x N_e), got shape {x.shape}")
    return x


def _covariance_data(centered, dims: BlockDims) -> np.ndarray:
    """``centered`` as a ``D x N_e`` matrix with ``D = dims.size`` and ``N_e >= 2``."""
    xc = _as_data_matrix(centered)
    d, n = xc.shape
    if d != dims.size:
        raise ShapeError(f"data dimension {d} does not match dims.size {dims.size}")
    if n < 2:
        raise ShapeError(f"need at least 2 epochs for a covariance, got {n}")
    return xc


def _intensity(gamma: float | None, centered) -> float:
    """``gamma``, or the Ledoit-Wolf intensity of ``centered`` if None; in [0, 1]."""
    if gamma is None:
        if centered is None:
            raise ValueError("either gamma or the centered data must be given")
        gamma = ledoit_wolf_gamma(centered)
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    return gamma


def _check_labels(labels, n_epochs: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n_epochs,):
        raise ShapeError(
            f"labels have shape {labels.shape}, expected ({n_epochs},)"
        )
    if not np.isin(labels, (0, 1)).all():
        raise ShapeError("labels must be 0 (non-target) or 1 (target)")
    return labels.astype(np.int64)


def class_means(x, labels) -> ClassStats:
    """Mean vector and epoch count for each of the two classes."""
    x = _as_data_matrix(x)
    labels = _check_labels(labels, x.shape[1])
    counts = np.array([(labels == 0).sum(), (labels == 1).sum()])
    if counts.min() < 1:
        raise ShapeError("both classes must be present with at least one epoch")
    means = np.stack([x[:, labels == k].mean(axis=1) for k in (0, 1)])
    return ClassStats(means, counts)


def center(x, labels=None) -> np.ndarray:
    """Subtract a mean from every column.

    With ``labels`` given, each column is centered by the data's mean of its
    class; without labels, by the data's overall mean.
    """
    x = _as_data_matrix(x)
    if labels is None:
        return x - x.mean(axis=1)[:, None]
    stats = class_means(x, labels)
    return x - stats.means[_check_labels(labels, x.shape[1])].T


def sample_covariance(centered, dims: BlockDims) -> BlockCov:
    """Sample covariance of centered data with divisor ``N_e - 1``."""
    xc = _covariance_data(centered, dims)
    # On one C- or F-contiguous buffer numpy computes xc @ xc.T with SYRK and
    # mirrors a triangle, so S is exactly symmetric; a strided view goes to GEMM.
    if not (xc.flags.c_contiguous or xc.flags.f_contiguous):
        xc = np.ascontiguousarray(xc)
    s = xc @ xc.T
    s /= xc.shape[1] - 1
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

    so with ``N_e < D`` no ``D x D`` matrix is formed.  ``beta`` and
    ``delta`` are fourth powers of the data, so ``M`` and the ``||x_k||^2``
    are first scaled by the power of two that brings the largest
    ``||x_k||^2``, which bounds every entry of ``M``, to [0.5, 1).  That leaves the scale-free ratio unchanged bit for bit, and
    makes it the same at every data scale at which ``M`` is finite.
    """
    xc = _as_data_matrix(centered)
    d, n = xc.shape
    if n < 2:
        raise ShapeError(f"need at least 2 epochs, got {n}")
    gram = xc.T @ xc if n < d else xc @ xc.T
    gram /= n
    norms = np.einsum("ij,ij->j", xc, xc)
    # M is positive semidefinite, so its largest entry is on its diagonal,
    # which is at most trace(M) = mean_k ||x_k||^2 (or ||x_k||^2 / n itself).
    exponent = -math.frexp(norms.max())[1]
    np.ldexp(gram, exponent, out=gram)
    np.ldexp(norms, exponent, out=norms)
    m = gram.shape[0]
    mu = np.trace(gram) / d
    gram_sq = np.vdot(gram, gram)
    gram.flat[:: m + 1] -= mu
    delta = (np.vdot(gram, gram) + (d - m) * mu * mu) / d
    if delta <= 0.0:
        return 0.0
    beta = (np.vdot(norms, norms) / n - gram_sq) / (d * n)
    beta = min(max(beta, 0.0), delta)
    return float(beta / delta)


def shrink(s: BlockCov, gamma: float | None = None, centered=None) -> ShrinkageResult:
    """Shrink toward ``nu * I`` with ``nu = trace(S) / D``.

    When ``gamma`` is None the analytic Ledoit-Wolf intensity is computed
    from ``centered`` (the data the covariance came from).  The returned
    matrix is ``(1 - gamma) S + gamma nu I``; its trace equals ``trace(S)``.
    """
    gamma = _intensity(gamma, centered)
    d = s.dims.size
    nu = float(np.trace(s.data) / d)
    out = (1.0 - gamma) * s.data
    out.flat[:: d + 1] += gamma * nu
    return ShrinkageResult(_owned_cov(s.dims, out), gamma, nu)


def _lag_sums_direct(x3: np.ndarray) -> np.ndarray:
    """``(N_e - 1) R_d`` of ``(n_times, n_channels, N_e)`` epochs, one product per lag.

    The epochs are copied once into the ``nc x (nt N_e)`` matrix ``z`` whose
    column ``t * N_e + e`` is epoch ``e`` at time ``t``, so ``(N_e - 1) R_d``
    is the product of the first and the last ``(nt - d) * N_e`` columns of
    ``z``: ``O(N_e nc^2 nt^2)`` time.
    """
    nt, nc, n = x3.shape
    z = x3.transpose(1, 0, 2).reshape(nc, nt * n)
    sums = np.empty((nt, nc, nc))
    for d in range(nt):
        sums[d] = z[:, : (nt - d) * n] @ z[:, d * n :].T
    return sums


def _lag_sums_fft(x3: np.ndarray) -> np.ndarray:
    """``(N_e - 1) R_d`` of ``(n_times, n_channels, N_e)`` epochs by FFT.

    Wiener-Khinchin: with ``F_e(k)`` the real FFT of epoch ``e`` zero-padded
    to ``nfft >= 2 nt - 1`` samples (so no lag wraps), the inverse transform
    of the cross-spectrum ``sum_e conj(F_e(k)) F_e(k)^T`` is
    ``sum_e sum_t x_t x_{t+d}^T`` at ``d < nt``.  Chunks of at most 32 epochs
    and a quarter of the data (so the chunk buffer stays below half the
    input's size) are transformed in place in FFTPACK's real layout, where
    the real and imaginary parts of frequency ``k`` are adjacent
    ``(epochs, nc)`` planes ``Re``, ``Im``.  The cross-spectrum is then
    ``Re^T Re + Im^T Im + i (M - M^T)`` with ``M = Re^T Im``: two real
    products per frequency and no complex copy.  ``O(N_e nc nt log nt +
    N_e nc^2 nt)`` time.
    """
    nt, nc, n = x3.shape
    half = scipy.fft.next_fast_len(nt, real=True)
    nfft = 2 * half
    # The cross-spectrum in the same real layout: row 0 holds frequency 0,
    # rows 2k - 1 and 2k the real and imaginary part of k, the last row nfft/2.
    spec = np.zeros((nfft, nc, nc))
    spec_re, spec_im = spec[1:-1:2], spec[2:-1:2]
    prod = np.empty((half - 1, nc, nc))
    chunk = max(1, min(32, n // 4))
    buf = np.empty(nfft * chunk * nc)
    for start in range(0, n, chunk):
        width = min(chunk, n - start)
        f = buf[: nfft * width * nc].reshape(nfft, width, nc)
        f[:nt] = x3[:, :, start : start + width].transpose(0, 2, 1)
        f[nt:] = 0.0
        f = scipy.fftpack.rfft(f, axis=0, overwrite_x=True)
        stacked = f[1:-1].reshape(half - 1, 2 * width, nc)  # [Re; Im] per k
        np.matmul(stacked.transpose(0, 2, 1), stacked, out=prod)
        spec_re += prod
        np.matmul(f[1:-1:2].transpose(0, 2, 1), f[2:-1:2], out=prod)
        spec_im += prod
        spec[0] += f[0].T @ f[0]
        spec[-1] += f[-1].T @ f[-1]
    spec_im -= spec_im.transpose(0, 2, 1)
    return scipy.fftpack.irfft(spec, axis=0, overwrite_x=True)[:nt]


def estimate_covariance(
    centered,
    dims: BlockDims,
    estimator: str = "toeplitz",
    gamma: float | None = None,
) -> ShrinkageResult:
    """Shrunk covariance of centered epochs in the structure ``estimator`` names.

    With ``S`` the sample covariance of ``centered``, the shrunk covariance is
    ``(1 - gamma) S + gamma nu I`` (see :func:`shrink`).  ``slda`` returns it
    dense and ``toeplitz_a2_only`` tapers it blockwise (see
    :func:`blockmat.apply_taper_dense`).  These two shrink and taper ``S`` in
    the buffer it is computed in, step by step in the order of
    ``sample_covariance -> shrink (-> apply_taper_dense)``, so they hold one
    ``D x D`` array and equal that chain bit for bit.  The averaged estimators
    return the compact :class:`BlockToeplitzCov`: with ``R_d`` the sum of the
    ``n_times - d`` blocks ``(i, i + d)`` of ``S``, lag ``d`` is
    ``(1 - gamma) R_d / n_d``, plus ``gamma nu I`` at lag 0.  Averaging alone
    (``toeplitz_a1_only``, may be indefinite) has ``n_d = n_times - d``;
    tapering it by ``1 - d / n_times`` makes ``n_d = n_times`` (``toeplitz``).
    Shrinking commutes with averaging, so these two build ``R_d`` from the
    data and never form ``S``: one product per lag on short windows, in
    ``O(N_e D n_channels n_times)`` time, and from the cross-spectrum of
    chunks of epochs on long ones, in ``O(N_e D (log n_times +
    n_channels))``.  ``blockmat._fft_pays`` picks by ``(n_channels, n_times)``,
    the same rule that picks the solve route of ``btsolve.block_toeplitz_solve``.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    xc = _covariance_data(centered, dims)
    gamma = _intensity(gamma, xc)
    nc, nt, n = dims.n_channels, dims.n_times, xc.shape[1]
    if estimator in ("slda", "toeplitz_a2_only"):
        # The steps of sample_covariance, shrink and apply_taper_dense, in place.
        if not (xc.flags.c_contiguous or xc.flags.f_contiguous):
            xc = np.ascontiguousarray(xc)
        s = xc @ xc.T
        s /= n - 1
        nu = float(np.trace(s) / dims.size)
        s *= 1.0 - gamma
        s.flat[:: dims.size + 1] += gamma * nu
        if estimator == "toeplitz_a2_only":
            lag = np.abs(np.arange(nt)[:, None] - np.arange(nt)[None, :])
            grid = s.reshape(nt, nc, nt, nc)  # a view: block (i, j) is grid[i, :, j]
            grid *= (1.0 - lag / nt)[:, None, :, None]
        return ShrinkageResult(_owned_cov(dims, s), gamma, nu)
    x3 = xc.reshape(nt, nc, n)  # a view: epoch e at time t is x3[t, :, e]
    lags = _lag_sums_fft(x3) if _fft_pays(nc, nt) else _lag_sums_direct(x3)
    nu = float(np.trace(lags[0]) / (n - 1) / dims.size)
    divisor = np.full(nt, nt) if estimator == "toeplitz" else np.arange(nt, 0, -1)
    lags *= ((1.0 - gamma) / ((n - 1) * divisor))[:, None, None]
    lags[0].flat[:: nc + 1] += gamma * nu
    return ShrinkageResult(BlockToeplitzCov(dims, lags), gamma, nu)
