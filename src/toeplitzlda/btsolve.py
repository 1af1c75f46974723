"""Linear solvers for block-Toeplitz systems.

``block_toeplitz_solve`` solves ``T x = b`` where ``T`` is the symmetric
positive definite dense expansion of a :class:`BlockToeplitzCov`; it is the
solve a fit runs.  It takes one of two routes, by the size of the system
(``blockmat._fft_pays``, the rule that also picks the lag-sum kernel of the
estimate), and names it in ``SolveReport.method``:

* ``"dense"``, on small systems: ``blockmat.to_dense`` fills one ``D x D``
  buffer, which LAPACK Cholesky (``dpotrf``/``dpotrs``) factors in place,
  in ``O(D^3)`` time.
* ``"pcg"``, on large ones: conjugate gradients preconditioned by T. Chan's
  optimal block circulant (T. Chan 1988; R. Chan and M. Ng 1996), whose
  inverse is one ``n_channels``-square block per frequency.  Each iteration
  multiplies by ``T`` through the FFT of a block-circulant embedding of the
  lag blocks, so the solve costs ``O(iters n_channels^2 n_times log
  n_times)`` time and never forms ``T``; ``iters`` is typically 10 to 30.

A system that is not positive definite, or that the iterations do not
solve within a fixed cap, raises :class:`SolveError`.

``block_toeplitz_matmul`` multiplies by the dense expansion with the same
FFT product, in ``O(n_channels^2 n_times log n_times)``.  ``dense_solve``
solves a dense symmetric positive definite system with the same LAPACK
Cholesky, on a copy.  ``block_levinson_solve`` runs the multichannel
Levinson–Whittle recursion (Whittle 1963; Akaike 1973) in ``O(n_times^2)``
block operations, raising :class:`SolveBreakdownError` at the first leading
block minor that is not positive definite; it remains only as a reference
that no fit calls.  Each of these takes one finite length-``D`` vector,
read by ``blockmat._finite_array``.

Notation: ``L[d]`` is the lag-``d`` block, so the dense matrix has block
``(i, j)`` equal to ``L[j-i]`` above the diagonal and ``L[i-j]^T`` below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotrf, dpotrs

from .blockmat import BlockCov, BlockToeplitzCov, _fft_pays, _finite_array, to_dense
from .errors import SolveBreakdownError, SolveError


@dataclass(frozen=True)
class SolveReport:
    """Solution vector of one linear system and the route that produced it.

    ``method`` names the solver: ``"dense"`` or ``"pcg"`` from
    :func:`block_toeplitz_solve` and :func:`dense_solve`, ``"levinson"``
    from the reference :func:`block_levinson_solve`.
    ``well_conditioned`` is False when a positive definite factorization
    failed and an indefinite solve produced the solution.
    """

    solution: np.ndarray
    method: str
    well_conditioned: bool


def _lag_spectrum(btc: BlockToeplitzCov) -> tuple[np.ndarray, int]:
    """Real FFT of a block circulant of length ``n >= 2 n_times - 1`` whose
    first ``n_times`` block rows are the dense expansion of ``btc``: ``c[0] =
    L[0]``, ``c[d] = L[d]^T`` and ``c[n - d] = L[d]`` for ``1 <= d < n_times``.
    Returns the ``(n // 2 + 1, n_channels, n_channels)`` spectrum and ``n``."""
    nc, nt = btc.dims.n_channels, btc.dims.n_times
    lags = btc.lag_blocks
    n = scipy.fft.next_fast_len(2 * nt - 1, real=True)
    c = np.zeros((n, nc, nc))
    c[0] = lags[0]
    c[1:nt] = lags[1:].transpose(0, 2, 1)
    c[n - nt + 1 :] = lags[:0:-1]
    return scipy.fft.rfft(c, axis=0), n


def _spectral_product(spec: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    """Product of the dense expansion with the ``(n_times, n_channels)``
    blocks of ``x``, as a circular convolution with the embedded lag blocks."""
    nt, nc = x.shape
    prod = spec @ scipy.fft.rfft(x.reshape(nt, nc, 1), n, axis=0)
    return scipy.fft.irfft(prod, n, axis=0)[:nt, :, 0]


def block_toeplitz_matmul(btc: BlockToeplitzCov, x: np.ndarray) -> np.ndarray:
    """Product of the dense expansion of ``btc`` with the vector ``x``, by FFT.

    The block-circulant embedding of ``_lag_spectrum`` turns the product
    into a circular convolution along time: ``O(n_channels^2 n_times log
    n_times)`` time and ``O(n_times n_channels^2)`` scratch.
    """
    d = btc.dims.size
    x = _finite_array(x, (d,), "x")
    spec, n = _lag_spectrum(btc)
    return _spectral_product(spec, n, x.reshape(btc.dims.n_times, -1)).reshape(d)


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
    y = _finite_array(b, (d,), "b").reshape(nt, nc)
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
    return _cholesky_solve(cov.data.copy(order="F"), _finite_array(b, (cov.dims.size,), "b"))


def _solve_in_place(cov: BlockCov, b: np.ndarray) -> SolveReport:
    """Cholesky solve with a fresh covariance that nothing reads afterwards:
    ``cov.data`` owns its memory and is exactly symmetric, so its transpose
    is the same matrix in Fortran order, which LAPACK factors in place."""
    cov.data.setflags(write=True)
    return _cholesky_solve(cov.data.T, b)


#: The PCG solve stops at ``||r|| <= _PCG_RTOL ||b||``, or raises
#: :class:`SolveError` after ``_PCG_MAX_ITER`` iterations.
_PCG_RTOL = 1e-12
_PCG_MAX_ITER = 1000


def _chan_preconditioner(btc: BlockToeplitzCov) -> np.ndarray:
    """Inverse of T. Chan's optimal block circulant, one block per frequency.

    Of all block circulants of ``n_times`` blocks, ``C_k = ((n_times - k)
    L[k]^T + k L[n_times - k]) / n_times`` (the first block column) is the
    nearest to ``T`` in the Frobenius norm; it is positive definite when
    ``T`` is.  Its real FFT holds the Hermitian blocks it acts by at each
    frequency.  Each is Cholesky-factored as the test of positive
    definiteness, which raises :class:`SolveError` for a block that fails,
    and then inverted.
    """
    nt = btc.dims.n_times
    lags = btc.lag_blocks
    k = np.arange(nt)[:, None, None]
    c = lags.transpose(0, 2, 1) * (nt - k)
    c[1:] += lags[:0:-1] * k[1:]
    c /= nt
    blocks = scipy.fft.rfft(c, axis=0)
    try:
        np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"block circulant preconditioner is not positive definite: {exc}") from exc
    return np.linalg.inv(blocks)


def _pcg_solve(btc: BlockToeplitzCov, b: np.ndarray) -> SolveReport:
    """Preconditioned conjugate gradients for ``T x = b``, from ``x = 0``."""
    nc, nt = btc.dims.n_channels, btc.dims.n_times
    spec, n = _lag_spectrum(btc)
    pre = _chan_preconditioner(btc)

    def precondition(r):
        spectrum = pre @ scipy.fft.rfft(r, axis=0)[:, :, None]
        return scipy.fft.irfft(spectrum[:, :, 0], nt, axis=0)

    # Dividing b by a power of two is exact and keeps the norms finite.
    exp = int(np.frexp(np.abs(b).max(initial=0.0))[1])
    r = np.ldexp(b, -exp).reshape(nt, nc)
    x = np.zeros_like(r)
    stop = _PCG_RTOL * np.linalg.norm(r)
    iterations = 0
    while np.linalg.norm(r) > stop:
        if iterations == _PCG_MAX_ITER:
            raise SolveError(f"PCG did not converge in {_PCG_MAX_ITER} iterations")
        iterations += 1
        z = precondition(r)
        rz = np.vdot(r, z)
        p = z if iterations == 1 else z + (rz / rz_old) * p
        q = _spectral_product(spec, n, p)
        curvature = np.vdot(p, q)
        if not curvature > 0.0:  # also NaN
            raise SolveError(
                f"PCG found a direction of non-positive curvature ({curvature:.3e}): "
                "the system is not positive definite"
            )
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * q
        rz_old = rz
    x = np.ldexp(x, exp).reshape(btc.dims.size)
    if not np.isfinite(x).all():
        raise SolveError("PCG gave a non-finite solution")
    return SolveReport(x, "pcg", True)


def block_toeplitz_solve(btc: BlockToeplitzCov, b) -> SolveReport:
    """Solve the symmetric positive definite block-Toeplitz system of ``btc``
    for the vector ``b``: a dense Cholesky on small systems, PCG with a
    block-circulant preconditioner on large ones (see the module notes).
    Raises :class:`SolveError` when the system is not positive definite or
    the solve does not converge."""
    b = _finite_array(b, (btc.dims.size,), "b")
    if _fft_pays(btc.dims.n_channels, btc.dims.n_times):
        return _pcg_solve(btc, b)
    return _solve_in_place(to_dense(btc), b)
