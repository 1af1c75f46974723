"""Linear solvers for block-Toeplitz systems.

A fit solves its estimate through ``_fit_solve``, the one entry into the
solve, which names its route in ``SolveReport.method`` and takes it from the
type of the estimate: ``covest`` alone applies the size rule.  Below ``N_e =
D`` a fit's ``slda`` estimate comes as ``covest._GramCov``, ``a xc xc^T +
r I`` held as γ's ``N_e``-square Gram ``G = xc^T xc``, and takes the
``"woodbury"`` route in the Gram's buffer, ``w = (b - a xc (r I + a G)^-1
xc^T b) / r``: one Cholesky of ``r I + a G`` and two passes over the row
chunks of the centered data, in ``O(N_e^2 D + N_e^3)`` time with nothing
of size ``D^2``; without shrinkage it raises :class:`SolveError`, as the
dense Cholesky of the same estimate does.  Every dense estimate (``slda`` from ``N_e = D`` on and
``toeplitz_a2_only``, cut from γ's Gram there) is the fit's own and is
factored in place (route ``"dense"``).  A ``toeplitz`` estimate takes one
of two routes, by the size of the system (``covest._fft_pays``, the rule
by which ``covest`` picks the lag-sum kernel and the form of the estimate):

* ``"dense"``, on small systems, where the estimate is its lag blocks
  (``BlockToeplitzCov``): ``blockmat.to_dense`` fills one ``D x D`` buffer,
  which LAPACK Cholesky (``dpotrf``/``dpotrs``) factors in place, in
  ``O(D^3)`` time.
* ``"pcg"``, on large ones, where the estimate is the spectrum of a
  block-circulant embedding of ``T`` (``covest._SpectralCov``), about
  ``n_times`` complex ``n_channels``-square blocks: conjugate gradients
  (``_pcg_solve``).  Each iteration multiplies by ``T`` through the FFT of
  that embedding, so the solve costs ``O(iters n_channels^2 n_times log
  n_times)`` time and never forms ``T`` (README step 4 gives ``iters``).
  The preconditioner is the inverse of T. Chan's optimal block circulant
  (T. Chan 1988), positive definite whenever ``T`` is, built from the
  inverse transform of the spectrum over slices of channel rows and
  inverted over slices of frequencies (``blockmat._slices``).  Any other
  compact estimate is transformed to its spectrum one channel column at a
  time by ``_lag_spectrum``, which no fit calls, for ``_pcg_solve`` to
  solve.

``toeplitz_a1_only`` (averaging without tapering) may be indefinite, so it
always takes the dense route, with a symmetric indefinite fallback.  Any
other system that a step of its route finds not positive definite, or that
the iterations do not solve within a fixed cap, raises :class:`SolveError`.
One function, ``_report``, checks the solution of every route and of
``dense_solve``: a non-finite one raises :class:`SolveError` naming the
route.
PCG stops on a small residual, which a consistent singular system admits:
an unshrunk estimate with a duplicated channel can return weights on the
PCG route where the dense route raises, or other weights.

No fit calls the public ``block_toeplitz_matmul`` (the same FFT product),
``dense_solve`` (the same Cholesky, on a copy) or ``block_levinson_solve``
(the multichannel Levinson–Whittle recursion, Whittle 1963; Akaike 1973,
in ``O(n_times^2)`` block operations); each reads one finite length-``D``
vector with ``blockmat._finite_array``.

Notation: ``L[d]`` is the lag-``d`` block, so the dense matrix has block
``(i, j)`` equal to ``L[j-i]`` above the diagonal and ``L[i-j]^T`` below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotrf, dpotrs

from .blockmat import (BlockCov, BlockToeplitzCov, _embedding_length, _finite_array, _slices,
                       to_dense)
from .covest import _GramCov, _SpectralCov
from .errors import SolveBreakdownError, SolveError


@dataclass(frozen=True)
class SolveReport:
    """Solution vector of one linear system and the route that produced it.

    ``method`` names the solver: ``"woodbury"``, ``"dense"`` or ``"pcg"``
    from a fit's ``_fit_solve``, ``"dense"`` from :func:`dense_solve` and
    ``"levinson"`` from the reference :func:`block_levinson_solve`.
    ``well_conditioned`` is False when a positive definite factorization
    failed and an indefinite solve produced the solution.
    """

    solution: np.ndarray
    method: str
    well_conditioned: bool


def _lag_spectrum(btc: BlockToeplitzCov) -> tuple[np.ndarray, int]:
    """Real FFT of the block circulant of length ``n =
    blockmat._embedding_length(n_times)``, the FFT cross-spectrum's length, whose
    first ``n_times`` block rows are the dense expansion of ``btc``: ``c[0] =
    L[0]``, ``c[d] = L[d]^T`` and ``c[n - d] = L[d]`` for ``1 <= d < n_times``,
    zero between.  Returns the ``(n // 2 + 1, n_channels, n_channels)``
    spectrum, a ``toeplitz`` estimate's scaled cross-spectrum plus ``gamma nu
    I``, and ``n``.
    The embedding is built and transformed one channel column at a time, in
    an ``(n, n_channels)`` scratch, so the spectrum is its one large array."""
    nc, nt = btc.dims.n_channels, btc.dims.n_times
    lags = btc.lag_blocks
    n = _embedding_length(nt)
    spec = np.empty((n // 2 + 1, nc, nc), dtype=complex)
    col = np.zeros((n, nc))
    for j in range(nc):
        col[0] = lags[0, :, j]
        col[1:nt] = lags[1:, j]
        col[n - nt + 1 :] = lags[:0:-1, :, j]
        spec[:, :, j] = scipy.fft.rfft(col, axis=0)
    return spec, n


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


def _report(solution: np.ndarray, method: str, well_conditioned: bool = True) -> SolveReport:
    """The report of a finite ``solution``: the one exit of :func:`dense_solve`
    and of every route of :func:`_fit_solve`, and the one place that scans a
    solution.  A non-finite one raises :class:`SolveError` naming the route
    (a NaN diagonal can factor without error, and a finite system can still
    overflow its solution)."""
    if not np.isfinite(solution).all():
        route = method if well_conditioned else "symmetric indefinite"
        raise SolveError(f"{route} solve gave a non-finite solution")
    return SolveReport(solution, method, well_conditioned)


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cholesky solve of ``a x = b`` from the lower triangle of ``a``, which
    is factored in place when Fortran-ordered (f2py ignores the write flag)."""
    factor, info = dpotrf(a, lower=1, overwrite_a=1, clean=0)
    if info != 0:
        raise SolveError(f"dense Cholesky factorization failed (dpotrf info {info})")
    return dpotrs(factor, b, lower=1)[0]


def dense_solve(cov: BlockCov, b) -> SolveReport:
    """Cholesky solve of a dense symmetric positive definite system, on a
    copy of ``cov``.  Raises :class:`SolveError` when the matrix is not
    positive definite or the solution is not finite."""
    b = _finite_array(b, (cov.dims.size,), "b")
    return _report(_cholesky_solve(cov.data.copy(order="F"), b), "dense")


def _solve_in_place(cov: BlockCov, b: np.ndarray) -> SolveReport:
    """Cholesky solve with a fresh covariance that nothing reads afterwards:
    ``cov.data`` owns its memory and is exactly symmetric, so its transpose
    is the same matrix in Fortran order, which LAPACK factors in place."""
    cov.data.setflags(write=True)
    return _report(_cholesky_solve(cov.data.T, b), "dense")


#: The PCG solve stops at ``||r|| <= _PCG_RTOL ||b||``, or raises
#: :class:`SolveError` after ``_PCG_MAX_ITER`` iterations.
_PCG_RTOL = 1e-12
_PCG_MAX_ITER = 1000


def _chan_preconditioner(spec: np.ndarray, nt: int) -> np.ndarray:
    """Inverse of T. Chan's optimal block circulant of the operator whose
    embedding has the spectrum ``spec``, one block per frequency: the
    preconditioner of :func:`_pcg_solve`.

    Of all block circulants of ``n_times`` blocks, ``C_k = ((n_times - k)
    L[k]^T + k L[n_times - k]) / n_times`` (the first block column) is the
    nearest to ``T`` in the Frobenius norm; it is positive definite when
    ``T`` is (T. Chan, SIAM J. Sci. Stat. Comput. 9, 1988).  The lags come
    from the embedding's first block column ``c``, the inverse transform of
    ``spec``: ``c[d] = L[d]^T`` and ``c[n - d] = L[d]``.  The real FFT of
    ``C`` holds the Hermitian blocks it acts by at each frequency.  Both
    transforms run over slices of channel rows, which are contiguous in
    ``spec``, and the inverse over slices of frequencies
    (``blockmat._slices``), so ``spec`` and the blocks are the only large
    arrays.  Each block is Cholesky-factored as the test
    of positive definiteness and then inverted in place; a block that fails
    either raises :class:`SolveError` (a nearly singular block can pass the
    Cholesky and fail the inverse).
    """
    n, nc = 2 * (len(spec) - 1), spec.shape[-1]
    k = np.arange(nt)[:, None, None]
    blocks = np.empty((nt // 2 + 1, nc, nc), dtype=complex)
    for rows in _slices(nc, 8 * n * nc):
        c = scipy.fft.irfft(spec[:, rows], n, axis=0)
        col = c[:nt] * (nt - k)
        col[1:] += c[n - nt + 1 :] * k[1:]
        col /= nt
        blocks[:, rows] = scipy.fft.rfft(col, axis=0)
    for freqs in _slices(len(blocks), 16 * nc * nc):
        try:
            np.linalg.cholesky(blocks[freqs])
            blocks[freqs] = np.linalg.inv(blocks[freqs])
        except np.linalg.LinAlgError as exc:
            raise SolveError(
                f"T. Chan's block circulant preconditioner is not positive definite: {exc}"
            ) from exc
    return blocks


def _pcg_solve(spec: np.ndarray, b: np.ndarray) -> SolveReport:
    """Preconditioned conjugate gradients for ``T x = b``, from ``x = 0``,
    with ``T`` the leading ``n_times`` blocks of the block circulant whose
    spectrum ``spec`` is (``n = 2 (len(spec) - 1)``), preconditioned by T.
    Chan's circulant of ``n_times`` blocks (:func:`_chan_preconditioner`),
    which is positive definite whenever ``T`` is."""
    nc = spec.shape[-1]
    nt, n = len(b) // nc, 2 * (len(spec) - 1)
    pre = _chan_preconditioner(spec, nt)
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
        z = _spectral_product(pre, nt, r)
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
    # Undoing 2**-exp can overflow; _report raises on the result.
    with np.errstate(over="ignore"):
        x = np.ldexp(x, exp)
    return _report(x.reshape(len(b)), "pcg")


def _woodbury_solve(cov: _GramCov, b: np.ndarray) -> SolveReport:
    """``(a xc xc^T + r I) w = b`` by the Woodbury identity, in γ's
    ``N_e``-square Gram ``G = xc^T xc``: ``a G + r I`` overwrites it and
    LAPACK factors it in place as its Fortran-ordered transpose.  Without
    shrinkage (``r = 0``) the system is singular."""
    a, r, gram = cov.scale, cov.ridge, cov.gram
    if not r > 0.0:
        raise SolveError(
            f"the shrunk covariance is singular: gamma nu = {r:.3e} with fewer epochs "
            f"({len(gram)}) than features ({cov.dims.size})"
        )
    gram *= a
    gram.flat[:: len(gram) + 1] += r
    w = b - a * cov.dot(_cholesky_solve(gram.T, cov.t_dot(b)))
    with np.errstate(over="ignore"):  # _report raises on an overflow
        w /= r
    return _report(w, "woodbury")


def _fit_solve(
    cov: BlockCov | BlockToeplitzCov | _GramCov | _SpectralCov, b: np.ndarray,
    maybe_indefinite: bool
) -> SolveReport:
    """Solve a fit's own estimate for the finite vector ``b``: an ``slda``
    estimate below ``D``, held as γ's Gram, is solved in it by Woodbury; a
    ``toeplitz`` estimate held as its spectrum takes the PCG route; a dense
    ``cov``, read no more, is factored in place; a compact one takes the
    dense route on its expansion.
    With ``maybe_indefinite`` a failed Cholesky, or one whose solution is
    not finite, is not an error: a fresh expansion is solved by a symmetric
    indefinite factorization, and the report says so.  The lag blocks are
    finite; every route returns through :func:`_report`, which scans its
    solution.
    """
    if isinstance(cov, _GramCov):
        return _woodbury_solve(cov, b)
    if isinstance(cov, _SpectralCov):
        return _pcg_solve(cov.spectrum, b)
    if not isinstance(cov, BlockToeplitzCov):
        return _solve_in_place(cov, b)
    try:
        return _solve_in_place(to_dense(cov), b)
    except SolveError:
        if not maybe_indefinite:
            raise
    try:
        solution = scipy.linalg.solve(to_dense(cov).data, b, assume_a="sym", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"symmetric indefinite solve failed: {exc}") from exc
    return _report(solution, "dense", False)
