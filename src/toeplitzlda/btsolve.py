"""Linear solvers for block-Toeplitz systems.

``block_levinson_solve`` solves ``T x = b`` where ``T`` is the symmetric
positive definite dense expansion of a :class:`BlockToeplitzCov`, without
ever forming ``T``.  It runs the multichannel Levinson–Whittle recursion
(Whittle 1963; Akaike 1973): step ``m`` extends a forward and a backward
predictor of the leading ``m``-block minor by one block with a few GEMMs
over the stacked lag blocks, for O(n_times^2) block operations instead of
the O(n_times^3) of a dense factorization.  The leading ``(m+1)``-block
minor is positive definite exactly when the ``m``-block one and the two new
prediction-error covariances are, so the Cholesky factorizations that the
next step needs also detect breakdown.  ``block_toeplitz_matmul``
multiplies by the dense expansion without forming it, by FFT over a
block-circulant embedding of the lag blocks in O(n_channels^2 n_times log
n_times).  ``dense_solve`` solves a dense symmetric positive definite system
with the same LAPACK Cholesky routines the recursion uses.  Each of the three
takes one length-``D`` vector; other shapes raise :class:`ShapeError`.

Notation: ``L[d]`` is the lag-``d`` block, so the dense matrix has block
``(i, j)`` equal to ``L[j-i]`` above the diagonal and ``L[i-j]^T`` below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotrf, dpotrs

from .blockmat import BlockCov, BlockToeplitzCov
from .errors import ShapeError, SolveBreakdownError, SolveError


@dataclass(frozen=True)
class SolveReport:
    """Solution vector of one linear system and the route that produced it.

    ``method`` names the solver, ``"levinson"`` or ``"dense"``.
    ``well_conditioned`` is False when a positive definite factorization
    failed and an indefinite solve produced the solution.
    """

    solution: np.ndarray
    method: str
    well_conditioned: bool


def _as_vector(b, d: int) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (d,):
        raise ShapeError(f"right-hand side has shape {b.shape}, expected ({d},)")
    return b


def block_toeplitz_matmul(btc: BlockToeplitzCov, x: np.ndarray) -> np.ndarray:
    """Product of the dense expansion of ``btc`` with the vector ``x``, by FFT.

    The lag blocks are embedded in a block circulant of length ``n >= 2
    n_times - 1``, with ``c[0] = L[0]``, ``c[d] = L[d]^T`` and ``c[n - d] =
    L[d]`` for ``1 <= d < n_times``; its first ``n_times`` block rows are the
    dense matrix, so the product is a circular convolution along time:
    ``O(n_channels^2 n_times log n_times)`` time and ``O(n n_channels^2)``
    scratch.
    """
    d = btc.dims.size
    x = _as_vector(x, d)
    nc, nt = btc.dims.n_channels, btc.dims.n_times
    lags = btc.lag_blocks
    n = scipy.fft.next_fast_len(2 * nt - 1, real=True)
    c = np.zeros((n, nc, nc))
    c[0] = lags[0]
    c[1:nt] = lags[1:].transpose(0, 2, 1)
    c[n - nt + 1 :] = lags[:0:-1]
    spec = scipy.fft.rfft(c, axis=0)
    spec = spec @ scipy.fft.rfft(x.reshape(nt, nc, 1), n, axis=0)
    return scipy.fft.irfft(spec, n, axis=0)[:nt].reshape(d)


def _cholesky(v: np.ndarray, order: int) -> np.ndarray:
    """Lower Cholesky factor of a prediction-error covariance of the leading
    ``order``-block minor; given that the smaller minors are positive
    definite, it fails exactly when this one is not."""
    factor, info = dpotrf(v, lower=1)
    if info != 0 or not np.isfinite(v).all():
        raise SolveBreakdownError(order)
    return factor


def block_levinson_solve(btc: BlockToeplitzCov, b) -> SolveReport:
    """Solve the symmetric block-Toeplitz system of ``btc`` for the vector ``b``.

    Raises :class:`SolveBreakdownError` naming the failing recursion step
    when a leading block minor is singular or indefinite; the caller decides
    whether to retry with a dense indefinite solve.
    """
    d = btc.dims.size
    nc, nt = btc.dims.n_channels, btc.dims.n_times
    lags = btc.lag_blocks
    y = _as_vector(b, d).reshape(nt, nc)
    # The last m blocks of ``row`` are [L[m]^T ... L[1]^T]: block row m of
    # the dense matrix, left of the diagonal.
    row = lags[:0:-1].transpose(2, 0, 1).reshape(nc, (nt - 1) * nc)

    # The forward predictor (first block I) fills from the top and the
    # backward one (last block I) from the bottom, so that each step only
    # writes the blocks that change; the unwritten ones are zero.
    fwd = np.eye(d, nc)
    bwd = np.eye(d, nc, nc - d)
    v_f = lags[0].copy()
    v_b = v_f.copy()
    chol_f = chol_b = _cholesky(lags[0], 1)
    x = np.zeros(d)
    x[:nc] = dpotrs(chol_b, y[0], lower=1)[0]

    for m in range(1, nt):
        row_m = row[:, (nt - 1 - m) * nc :]
        delta = row_m @ fwd[: m * nc]
        k_f = dpotrs(chol_b, delta, lower=1)[0]
        k_b = dpotrs(chol_f, delta.T, lower=1)[0]
        # Each predictor update reads the other predictor before it changes.
        fwd_step = bwd[(nt - m) * nc :] @ k_f
        # seg -= fwd[:m nc] @ k_b, written in place through the Fortran-ordered
        # transpose; k_b comes out of dpotrs in Fortran order.
        seg = bwd[(nt - m - 1) * nc : (nt - 1) * nc]
        dgemm(-1.0, k_b, fwd[: m * nc].T, 1.0, seg.T, trans_a=1, overwrite_c=1)
        fwd[nc : (m + 1) * nc] -= fwd_step
        v_f -= delta.T @ k_f
        v_b -= delta @ k_b
        chol_f = _cholesky(v_f, m + 1)
        chol_b = _cholesky(v_b, m + 1)
        err = y[m] - row_m @ x[: m * nc]
        corr = dpotrs(chol_b, err, lower=1)[0]
        x[: (m + 1) * nc] += bwd[(nt - m - 1) * nc :] @ corr

    return SolveReport(x, "levinson", True)


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> SolveReport:
    """Cholesky solve of ``a x = b`` from the lower triangle of ``a``, which
    is factored in place when Fortran-ordered (f2py ignores the write flag)."""
    factor, info = dpotrf(a, lower=1, overwrite_a=1, clean=0)
    if info != 0:
        raise SolveError(f"dense Cholesky factorization failed (dpotrf info {info})")
    solution = dpotrs(factor, b, lower=1)[0]
    if not np.isfinite(solution).all():
        raise SolveError("dense Cholesky solve gave a non-finite solution")
    return SolveReport(solution, "dense", True)


def dense_solve(cov: BlockCov, b) -> SolveReport:
    """Cholesky solve of a dense symmetric positive definite system, on a
    copy of ``cov``.  Raises :class:`SolveError` when the matrix is not
    positive definite or the solution is not finite (a NaN diagonal can
    factor without error)."""
    return _cholesky_solve(cov.data.copy(order="F"), _as_vector(b, cov.dims.size))
