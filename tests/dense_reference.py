"""Dense reference helpers that no fit, score, synth or bench run calls.

The tests check the package's block layout and taper against these direct
element-wise definitions, the spectral stages of a ``toeplitz`` fit
against whole-array versions of them, and ``slda`` fits against the dense
chain of public stages.
"""

import numpy as np
import scipy.fft
import scipy.fftpack

from toeplitzlda import covest
from toeplitzlda.blockmat import BlockCov, BlockDims, BlockToeplitzCov, _embedding_length
from toeplitzlda.btsolve import dense_solve
from toeplitzlda.errors import ShapeError, SolveError


def block_at(cov: BlockCov, i: int, j: int) -> np.ndarray:
    """Cross-channel block ``(i, j)`` of a covariance, 0-based."""
    nc, nt = cov.dims.n_channels, cov.dims.n_times
    if not (0 <= i < nt and 0 <= j < nt):
        raise ShapeError(f"block index ({i}, {j}) out of range for n_times={nt}")
    return cov.data[i * nc:(i + 1) * nc, j * nc:(j + 1) * nc].copy()


def taper_weight(d: int, n_times: int) -> float:
    """Linear taper ``1 - |d| / n_times`` for temporal lag ``d``."""
    if n_times < 1:
        raise ShapeError(f"n_times must be >= 1, got {n_times}")
    if abs(d) > n_times:
        raise ShapeError(f"lag {d} out of range for n_times={n_times}")
    return 1.0 - abs(d) / n_times


def slda_estimate(x, labels, dims: BlockDims, cov_mode="within", gamma=None):
    """The dense ``slda`` estimate, stage by stage: ``center -> sample_covariance
    -> shrink``, centred by the class means of ``labels`` ('within') or by
    the overall mean ('global')."""
    xc = covest.center(x, labels=labels if cov_mode == "within" else None)
    return covest.shrink(covest.sample_covariance(xc, dims), gamma, xc)


def slda_weights(x, labels, dims: BlockDims, cov_mode="within", gamma=None, means=None):
    """``dense_solve`` of :func:`slda_estimate` for the difference of the
    class means ``means`` (a ``ClassStats``; by default those of ``x``)."""
    means = covest.class_means(x, labels) if means is None else means
    shrunk = slda_estimate(x, labels, dims, cov_mode, gamma).matrix
    return dense_solve(shrunk, means.means[1] - means.means[0]).solution


# The whole-array spectral stages of a toeplitz fit, which the fit computes
# by channel columns or rows and slices of frequencies: each allocates its full
# spectra at once, and the fit's stages must equal them bit for bit.


def cross_spectrum(centred: covest._Centred, dims: BlockDims) -> np.ndarray:
    """``covest._cross_spectrum`` with the product buffers of all interior
    frequencies at once: ``H_k = [Re; Im]^T [Re + Im; Im - Re]``."""
    nc, nt, n = dims.n_channels, dims.n_times, centred.x.shape[1]
    nfft = _embedding_length(nt)
    half = nfft // 2
    spec = np.zeros((half + 1, nc, nc))
    prod = np.empty((half - 1, nc, nc))
    chunk = max(1, min(covest._FFT_EPOCHS, n // 4))
    buf = np.empty(nfft * chunk * nc)
    for start in range(0, n, chunk):
        width = min(chunk, n - start)
        f = buf[: nfft * width * nc].reshape(nfft, width, nc)
        centred.write(f[:nt].transpose(0, 2, 1), cols=slice(start, start + width))
        f[nt:] = 0.0
        f = scipy.fftpack.rfft(f, axis=0, overwrite_x=True)
        re, im = f[1:-1:2], f[2:-1:2]
        stacked = f[1:-1].reshape(half - 1, 2 * width, nc)
        turned = np.concatenate([re + im, im - re], axis=1)
        np.matmul(stacked.transpose(0, 2, 1), turned, out=prod)
        spec[1:-1] += prod
        spec[0] += f[0].T @ f[0]
        spec[-1] += f[-1].T @ f[-1]
    return spec


def lag_sums_fft(centred: covest._Centred, dims: BlockDims) -> np.ndarray:
    """The lag sums of :func:`cross_spectrum`: its symmetric and antisymmetric
    parts are the real and imaginary parts of the cross-spectrum, in
    FFTPACK's real layout for one inverse FFT."""
    spec = cross_spectrum(centred, dims)
    inner = spec[1:-1]
    full = np.empty((2 * len(spec) - 2,) + spec.shape[1:])
    full[0], full[-1] = spec[0], spec[-1]
    full[1:-1:2] = (inner + inner.transpose(0, 2, 1)) * 0.5
    full[2:-1:2] = (inner - inner.transpose(0, 2, 1)) * 0.5
    return scipy.fftpack.irfft(full, axis=0)[: dims.n_times]


def lag_spectrum(btc: BlockToeplitzCov) -> tuple[np.ndarray, int]:
    """``btsolve._lag_spectrum`` from the whole ``(n, nc, nc)`` real embedding."""
    nc, nt = btc.dims.n_channels, btc.dims.n_times
    lags = btc.lag_blocks
    n = _embedding_length(nt)
    c = np.zeros((n, nc, nc))
    c[0] = lags[0]
    c[1:nt] = lags[1:].transpose(0, 2, 1)
    c[n - nt + 1 :] = lags[:0:-1]
    return scipy.fft.rfft(c, axis=0), n


def chan_preconditioner(spec: np.ndarray, nt: int) -> np.ndarray:
    """``btsolve._chan_preconditioner`` from the whole inverse transform of
    ``spec``, one block column of T. Chan's circulant at a time: ``C_k =
    ((nt - k) L[k]^T + k L[nt - k]) / nt``; its blocks are Cholesky-tested
    and inverted at once."""
    n = 2 * (len(spec) - 1)
    c = scipy.fft.irfft(spec, n, axis=0)
    lags = c[:nt].transpose(0, 2, 1)  # c[d] = L[d]^T
    col = np.empty_like(lags)
    for k in range(nt):
        col[k] = (nt - k) * lags[k].T
        if k:
            col[k] += k * c[n - nt + k]  # c[n - d] = L[d]
    blocks = scipy.fft.rfft(col / nt, axis=0)
    try:
        np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError as exc:
        raise SolveError(
            f"T. Chan's block circulant preconditioner is not positive definite: {exc}"
        ) from exc
    return np.linalg.inv(blocks)
