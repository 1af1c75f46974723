"""Covariance estimation: centering, shrinkage, and the structured estimate.

Data matrices are ``D x N_e`` (one flattened channel-prime epoch per
column).  ``estimate_covariance`` turns centered data into the shrunk
covariance (divisor ``N_e - 1``, analytic shrinkage toward the scaled
identity) in the structure an estimator of ``ESTIMATORS`` names.  Only
``slda`` and ``toeplitz_a2_only`` form the dense ``D x D`` sample covariance,
and they shrink (and taper) it in the buffer the product lands in: in a
fit from ``N_e = D`` on, γ's Gram.  Below ``D`` a fit's ``slda`` is γ's
``N_e``-square Gram (``_GramCov``), solved by Woodbury.  ``toeplitz`` and
``toeplitz_a1_only`` build their lag blocks from the data: one product per
lag on short windows, and on long ones (the size rule
``covest._fft_pays``) a Hermitian-packed cross-spectrum, one real product
per frequency summed over chunks of epochs and formed over slices of
frequencies in small buffers, then one inverse FFT.  A fit's
``toeplitz`` on a long window skips that transform: its estimate is the
operator spectrum built from the packed one (``_SpectralCov``), which the
PCG solve takes as it is.  The Ledoit-Wolf
intensity sums the smaller of the ``D x D`` and ``N_e x N_e`` products over
chunks of the data.  ``sample_covariance`` and ``shrink`` (then
``blockmat.apply_taper_dense``) run the dense estimate stage by stage, each
stage on a fresh copy: no fit calls them, so they are its independent
reference.

``lda.fit`` makes one call here, ``_fit_estimate``, which returns an
``_Estimates`` of a ``_Centred``: the data minus its class means or its
overall mean (``_centring``, which ``center`` and ``class_means`` share),
divided by a power of two.  ``_Estimates`` runs the stages the estimators
share once (γ, and the lag sums or cross-spectrum of the averaged ones) and forms each
estimator's estimate when asked for it: the benchmark fits all estimators
of a draw from one.  Each kernel writes the centered, scaled values into
its own buffer laid out like the data, the chunks of ``blockmat._slices``
(but for the one ``D x N_e`` buffer of the direct lag sums); below ``N_e
= D`` a fit's ``toeplitz_a2_only`` writes one centered copy and its
``slda`` reads the data twice more by row chunks.  The public functions
check their input once and run the same code on data that is already
centered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fftpack

from . import blockmat
from .blockmat import (BlockCov, BlockDims, BlockToeplitzCov, _check_labels, _embedding_length,
                       _finite_array, _own, _owned, _owned_toeplitz, _slices)
from .errors import ShapeError

ESTIMATORS = ("slda", "toeplitz", "toeplitz_a1_only", "toeplitz_a2_only")
#: The estimators that form the dense sample covariance.
_DENSE = ("slda", "toeplitz_a2_only")
#: Most epochs in one chunk of the FFT cross-spectrum.
_FFT_EPOCHS = 32


def _fft_pays(n_channels: int, n_times: int) -> bool:
    """Whether the FFT lag sums and the PCG solve (``btsolve``) pay here.

    Below the rule a ``toeplitz`` fit takes one product per lag and one
    dense Cholesky.  Crossovers measured with one BLAS thread, in CPU time:

    * Lag sums (N_e 24 to 384): the FFT wins from about 100 samples at 2
      channels, 64 at 8, 32 at 16 and 16-20 at 31 or 64 channels.
    * Solve (min of 5-200 calls, ``toeplitz`` estimates of 96 noise epochs):
      PCG takes at least about 0.6 ms (two spectral products per iteration,
      15-72 iterations on the data of README step 4), the dense route grows
      as ``D^3``.  Dense wins up to ``D = 384``
      at 8 channels (1.2 against 1.4-2.1 ms) and PCG from ``D = 512`` (8 x 64:
      2.3-2.8 against 1.4-2.0 ms); 16 x 32, 24 x 24 and 31 x 20 are about even.

    Below 16 samples the per-lag products always win, and so does the dense
    route, even at 128 x 8 (15 against 17-23 ms): there the
    ``n_channels``-cubed preconditioner blocks dominate.
    """
    return n_times >= 16 and n_channels * n_times >= 512


@dataclass(frozen=True)
class ClassStats:
    """Per-class mean vectors.

    Row ``k`` of ``means`` is the mean of class ``k`` (0 = non-target,
    1 = target).  ``means`` is read by ``blockmat._finite_array`` (a
    ``(2, D)`` array of finite real numbers) and copied; the means a fit
    takes are wrapped with ``blockmat._owned`` instead.
    """

    means: np.ndarray

    def __post_init__(self):
        _own(self, means=_finite_array(self.means, (2, None), "class means").copy())


@dataclass(frozen=True)
class ShrinkageResult:
    """Shrunk covariance with its intensity and ``nu = trace(S) / D``.

    ``matrix`` is the compact :class:`BlockToeplitzCov` for the averaged
    estimators, else a dense :class:`BlockCov` (in a fit from ``N_e = D`` on,
    γ's Gram); a fit's ``slda`` estimate below ``D`` is a :class:`_GramCov`,
    and its ``toeplitz`` estimate on the PCG route a :class:`_SpectralCov`.
    """

    matrix: BlockCov | BlockToeplitzCov | _GramCov | _SpectralCov
    gamma: float
    nu: float


@dataclass(frozen=True)
class _Centred:
    """Data minus per-epoch means, times a power of two, written by chunks.

    Stands for ``(x - offsets @ indicator) * 2**-exp``: ``x`` is the
    checked ``D x N_e`` data, ``offsets`` a ``D x k`` matrix of means (the
    two class means, or the overall mean) and ``indicator`` the ``k x N_e``
    one-hot matrix of the mean each epoch takes (a row of ones for the
    overall mean).  Without them nothing is subtracted.  A one-hot column
    picks its offset exactly, so every chunk a kernel writes holds the bits
    of the same entries of ``ldexp(x - means, -exp)``, while no ``D x N_e``
    centered array need exist.
    """

    x: np.ndarray
    offsets: np.ndarray | None = None
    indicator: np.ndarray | None = None
    exp: int = 0

    @property
    def plain(self) -> bool:
        """Whether there is nothing to subtract or scale."""
        return self.offsets is None and not self.exp

    def write(self, out: np.ndarray, rows=slice(None), cols=slice(None)):
        """The centered ``x[rows, cols]`` into ``out``, returned.

        ``out`` has the shape of ``x[rows, cols]`` with its rows split into
        leading axes, ``(n_times, n_channels, epochs)`` for a kernel that
        walks the epochs by time: the rows of ``x`` are split to
        ``out.shape`` and those of ``offsets`` to ``out.shape[:-1] + (-1,)``.
        Splitting an axis is a view, so nothing is copied.
        """
        # The element-wise steps walk out in its memory order: numpy makes a
        # full-size copy of an input that is also the output unless the output
        # is contiguous in the order it is walked.
        axes = sorted(range(out.ndim), key=out.strides.__getitem__, reverse=True)
        x, walk = self.x[rows, cols].reshape(out.shape).transpose(axes), out.transpose(axes)
        if self.offsets is None:
            np.copyto(walk, x)
        else:
            offsets = self.offsets[rows].reshape(out.shape[:-1] + (-1,))
            np.matmul(offsets, self.indicator[:, cols], out=out)
            np.subtract(x, walk, out=walk)
        if self.exp:
            np.ldexp(walk, -self.exp, out=walk)
        return out

    def chunks(self, axis: int):
        """The centered data by ranges of rows (``axis`` 0) or of epochs (1),
        as ``(range, chunk)`` pairs.

        The ranges are the ``blockmat._slices`` of ``blockmat._CHUNK_BYTES``.
        With nothing to subtract or scale the chunks are views of ``x``;
        else they are written into one buffer, which the next chunk reuses.
        The buffer takes the stride order of ``x``, as ``np.empty_like(x)``
        does for a centered copy of ``x``, so the products over chunks are
        those over views of such a copy.
        """
        size, other = self.x.shape[axis], self.x.shape[1 - axis]
        parts = _slices(size, 8 * max(other, 1), blockmat._CHUNK_BYTES)
        buf = None if self.plain else np.empty(parts[0].stop * other)
        order = "F" if abs(self.x.strides[0]) < abs(self.x.strides[1]) else "C"
        for part in parts:
            index = (part, slice(None)) if axis == 0 else (slice(None), part)
            chunk = self.x[index]
            if buf is not None:
                out = buf[: chunk.size].reshape(chunk.shape, order=order)
                chunk = self.write(out, *index)
            yield part, chunk


@dataclass(frozen=True)
class _GramCov:
    """``scale * xc xc^T + ridge * I``, a fit's ``slda`` estimate at ``N_e <
    D``, held as γ's Gram ``gram = xc^T xc`` of the data ``xc`` that
    ``centred`` centers; ``scale`` is ``(1 - gamma) / (N_e - 1)`` and
    ``ridge`` is ``gamma nu``.  ``btsolve._woodbury_solve`` solves it in the
    Gram's buffer through :meth:`t_dot` and :meth:`dot`, each one pass over
    the row chunks of ``centred``, with no ``D x D`` array."""

    dims: BlockDims
    centred: _Centred
    gram: np.ndarray
    scale: float
    ridge: float

    def t_dot(self, v: np.ndarray) -> np.ndarray:
        """``xc^T v`` for a length-``D`` vector ``v``."""
        return sum(chunk.T @ v[rows] for rows, chunk in self.centred.chunks(0))

    def dot(self, u: np.ndarray) -> np.ndarray:
        """``xc u`` for a length-``N_e`` vector ``u``."""
        out = np.empty(self.dims.size)
        for rows, chunk in self.centred.chunks(0):
            np.matmul(chunk, u, out=out[rows])
        return out


@dataclass(frozen=True)
class _SpectralCov:
    """A fit's ``toeplitz`` estimate on the PCG route, held as the spectrum
    of its block-circulant embedding of length
    ``blockmat._embedding_length(n_times)``: ``spectrum[k]`` is the
    Hermitian ``n_channels``-square block that the embedding acts by at
    frequency ``k`` (``n / 2 + 1`` of them), ``btsolve._lag_spectrum`` of
    the estimate's lag blocks.  ``btsolve._pcg_solve`` multiplies by the
    spectrum and builds T. Chan's preconditioner from its inverse
    transform."""

    spectrum: np.ndarray


def _centring(x: np.ndarray, labels, within: bool) -> tuple[_Centred, ClassStats | None, int]:
    """Checked data minus its class means (``within``) or its overall mean.

    Also returns the class means of the checked ``labels`` (None without)
    and ``exp``, one more than the exponent of ``max|x|``, so ``2**exp``
    bounds every ``|x - mean|`` whatever offset a row has: the centered
    data times ``2**-exp`` lies within [-1, 1] and its squares stay in the
    normal range, without a pass that centers it.  The centring itself is
    not scaled; a fit divides it by ``2**exp`` (:func:`_fit_estimate`).
    Every mean is one product of
    :func:`_class_means`, summed under ``2**-max(exp, 0)``, below which
    ``N_e`` values of ``x`` sum without overflow.
    """
    exp = math.frexp(max(x.max(initial=0.0), -x.min(initial=0.0)))[1] + 1
    shift = max(exp, 0)
    stats = onehot = None
    if labels is not None:
        onehot = np.eye(2)[:, labels]
        stats = _owned(ClassStats, means=_class_means(x, onehot, shift).T)
    if within:
        offsets, indicator = stats.means.T, onehot
    else:
        indicator = np.ones((1, x.shape[1]))
        offsets = _class_means(x, indicator, shift)
    return _Centred(x, offsets, indicator), stats, exp


def _fit_estimate(
    x: np.ndarray, labels, within: bool, dims: BlockDims, estimators, gamma: float | None
) -> tuple[_Estimates, ClassStats | None, int]:
    """The estimates of a fit: checked data, centered and divided by ``2**exp``.

    Returns the :class:`_Estimates` of ``estimators``, the class means of
    ``labels`` (None without labels) and ``exp`` (see :func:`_centring`).
    Each pass centers its own chunks; when a dense estimator is among
    ``estimators`` (at ``N_e < D``, ``toeplitz_a2_only`` writes a centered
    copy and ``slda`` reads the data three times), data of at most
    ``blockmat._CHUNK_BYTES`` is centered once into a copy laid out like
    ``x`` instead.
    """
    centred, stats, exp = _centring(x, labels, within)
    centred = replace(centred, exp=exp)
    if x.nbytes <= blockmat._CHUNK_BYTES and any(e in _DENSE for e in estimators):
        centred = _Centred(centred.write(np.empty_like(x)))
    return _Estimates(centred, dims, estimators, gamma, solve_only=True), stats, exp


def _check_epochs(n_epochs: int) -> None:
    if n_epochs < 2:
        raise ShapeError(f"need at least 2 epochs for a covariance, got {n_epochs}")


def _check_estimator(estimator: str) -> None:
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")


def _covariance_data(centered, size: int | None) -> np.ndarray:
    """``centered`` as a finite ``size x N_e`` matrix (any size if None) with
    at least one row and ``N_e >= 2``."""
    xc = _finite_array(centered, (size, None), "centered")
    if not xc.shape[0]:
        raise ShapeError("centered has 0 rows; a covariance needs at least 1 feature")
    _check_epochs(xc.shape[1])
    return xc


def _unit_gamma(gamma) -> float | None:
    if gamma is None:  # the analytic intensity
        return None
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    return gamma


def _class_means(x: np.ndarray, indicator: np.ndarray, shift: int) -> np.ndarray:
    """The ``D x k`` means of checked data over the rows of the ``k x N_e`` ``indicator``.

    A two-row one-hot indicator gives the class means, a row of ones the
    overall mean.  The sums ``x @ indicator.T`` read ``x`` once and copy no
    class out of it; the means differ from ``x[:, labels == k].mean(axis=1)``
    only by the rounding of the sums.  Sums and counts are both taken with
    the indicator times ``2**-shift``, so that data near the top of the
    float range sums without overflow and no scaled copy of the data is
    made; scaling by a power of two is exact, so the quotients are the means
    of the unscaled sums, bit for bit.
    """
    weights = np.ldexp(indicator, -shift)
    counts = weights.sum(axis=1)
    if not counts.all():
        raise ShapeError("both classes must be present with at least one epoch")
    return x @ weights.T / counts


def class_means(x, labels) -> ClassStats:
    """Mean vector of each of the two classes."""
    x = _finite_array(x, (None, None), "x")
    return _centring(x, _check_labels(labels, x.shape[1]), within=True)[1]


def center(x, labels=None) -> np.ndarray:
    """Subtract a mean from every column.

    With ``labels`` given, each column is centered by the data's mean of its
    class; without labels, by the data's overall mean.  The values are
    those a fit centers its chunks to, in a new array laid out like ``x``.
    """
    x = _finite_array(x, (None, None), "x")
    if not x.shape[1]:
        raise ShapeError("x has 0 epochs; a mean needs at least 1")
    if labels is not None:
        labels = _check_labels(labels, x.shape[1])
    return _centring(x, labels, within=labels is not None)[0].write(np.empty_like(x))


def sample_covariance(centered, dims: BlockDims) -> BlockCov:
    """Sample covariance of centered data with divisor ``N_e - 1``."""
    xc = _covariance_data(centered, dims.size)
    # On one C- or F-contiguous buffer numpy computes xc @ xc.T with SYRK and
    # mirrors a triangle, so S is exactly symmetric; a strided view goes to GEMM.
    if not (xc.flags.c_contiguous or xc.flags.f_contiguous):
        xc = np.ascontiguousarray(xc)
    s = xc @ xc.T
    s /= xc.shape[1] - 1
    return _owned(BlockCov, dims=dims, data=s)


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

    so with ``N_e < D`` no ``D x D`` matrix is formed.  ``n M`` is summed
    over the chunks of rows (``N_e < D``) or of epochs of
    ``blockmat._slices``; a fit runs the same code on chunks it centers
    itself.  ``beta`` and ``delta`` are fourth powers of the data, so ``M``
    and the ``||x_k||^2`` are first scaled by the power of two that brings
    the largest ``||x_k||^2``, which bounds every entry of ``M``, to [0.5,
    1).  That leaves the scale-free ratio unchanged bit for bit, and makes it
    the same at every data scale at which ``M`` is finite.
    """
    return _ledoit_wolf(_Centred(_covariance_data(centered, None)))[0]


def _ledoit_wolf(centred: _Centred) -> tuple[float, np.ndarray]:
    """γ of the data ``centred`` centers and the raw Gram of :func:`_gram` it
    came from (γ reads ``M`` from a copy), for a fit's dense estimators:
    ``xc^T xc`` at ``N_e < D``, ``xc xc^T`` from ``N_e = D`` on."""
    d, n = centred.x.shape
    gram, norms = _gram(centred)
    return _intensity(gram / n, norms, d, n), gram


def _gram(centred: _Centred) -> tuple[np.ndarray, np.ndarray]:
    """``n M`` of :func:`ledoit_wolf_gamma`, summed over the chunks of
    ``centred``, and the squared norms ``||x_k||^2`` of the epochs.

    Each chunk's product is let go once it is added, so the sum holds at
    most two arrays of its size beside the chunk buffer.
    """
    d, n = centred.x.shape
    gram, norms = None, []
    for _, chunk in centred.chunks(0 if n < d else 1):
        if n < d:
            part = chunk.T @ chunk
        else:
            part = chunk @ chunk.T
            norms.append(np.einsum("ij,ij->j", chunk, chunk))
        if gram is None:
            gram = part
        else:
            gram += part
        del part
    norms = gram.diagonal().copy() if n < d else np.concatenate(norms)
    return gram, norms


def _intensity(m: np.ndarray, norms: np.ndarray, d: int, n: int) -> float:
    """The Ledoit-Wolf intensity of ``M`` (which it overwrites) and the norms."""
    # M is positive semidefinite, so its largest entry is on its diagonal,
    # which is at most trace(M) = mean_k ||x_k||^2 (or ||x_k||^2 / n itself).
    exponent = -math.frexp(norms.max())[1]
    np.ldexp(m, exponent, out=m)
    np.ldexp(norms, exponent, out=norms)
    size = m.shape[0]
    mu = np.trace(m) / d
    m_sq = np.vdot(m, m)
    m.flat[:: size + 1] -= mu
    delta = (np.vdot(m, m) + (d - size) * mu * mu) / d
    if delta <= 0.0:
        return 0.0
    beta = (np.vdot(norms, norms) / n - m_sq) / (d * n)
    beta = min(max(beta, 0.0), delta)
    return float(beta / delta)


def shrink(s: BlockCov, gamma: float | None = None, centered=None) -> ShrinkageResult:
    """Shrink toward ``nu * I`` with ``nu = trace(S) / D``.

    When ``gamma`` is None the analytic Ledoit-Wolf intensity is computed
    from ``centered`` (the data the covariance came from).  The returned
    matrix is ``(1 - gamma) S + gamma nu I``; its trace equals ``trace(S)``.
    """
    if gamma is None and centered is None:
        raise ValueError("either gamma or the centered data must be given")
    gamma = ledoit_wolf_gamma(centered) if gamma is None else _unit_gamma(gamma)
    d = s.dims.size
    nu = float(np.trace(s.data) / d)
    out = (1.0 - gamma) * s.data
    out.flat[:: d + 1] += gamma * nu
    return ShrinkageResult(_owned(BlockCov, dims=s.dims, data=out), gamma, nu)


def _lag_sums_direct(centred: _Centred, dims: BlockDims) -> np.ndarray:
    """``(N_e - 1) R_d`` of the centered epochs, one product per lag.

    The epochs are written once, centered, into the ``nc x (nt N_e)`` matrix
    ``z`` whose column ``t * N_e + e`` is epoch ``e`` at time ``t``, so
    ``(N_e - 1) R_d`` is the product of the first and the last
    ``(nt - d) * N_e`` columns of ``z``: ``O(N_e nc^2 nt^2)`` time.
    """
    nc, nt, n = dims.n_channels, dims.n_times, centred.x.shape[1]
    z = np.empty((nc, nt, n))
    centred.write(z.transpose(1, 0, 2))
    z = z.reshape(nc, nt * n)
    sums = np.empty((nt, nc, nc))
    for d in range(nt):
        sums[d] = z[:, : (nt - d) * n] @ z[:, d * n :].T
    return sums


def _cross_spectrum(centred: _Centred, dims: BlockDims) -> np.ndarray:
    """The cross-spectrum of the centered epochs, Hermitian-packed.

    With ``F_e(k)`` the real FFT of epoch ``e`` zero-padded to the ``nfft =
    blockmat._embedding_length(nt)`` samples of every block-circulant
    embedding (so no lag wraps), the cross-spectrum ``sum_e conj(F_e(k))
    F_e(k)^T = Re_k + i Im_k`` has a symmetric ``Re_k`` and an antisymmetric
    ``Im_k``, so one real ``nc x nc`` block ``H_k = Re_k + Im_k`` holds both:
    the result is ``(nfft / 2 + 1, nc, nc)``, and its inverse transform
    (:func:`_spectrum_lags`) is ``(N_e - 1) R_d = sum_e sum_t x_t
    x_{t+d}^T`` at ``d < nt`` (Wiener-Khinchin).  The ``blockmat._slices``
    of at most ``_FFT_EPOCHS`` epochs and a quarter of the data (so the
    chunk buffer stays below half the input's size) are centered into the
    chunk buffer and transformed there in FFTPACK's real layout, where the
    real and imaginary parts of frequency ``k`` are adjacent ``(epochs,
    nc)`` planes ``Re``, ``Im``.  ``H_k`` is then one real product ``[Re;
    Im]^T [Re + Im; Im - Re]``, formed over slices of frequencies
    (``blockmat._slices``) in small buffers and added into the spectrum.
    Beyond the data the kernel holds the spectrum, the chunk buffer and the
    slice buffers.  ``O(N_e nc nt log nt + N_e nc^2 nt)`` time.
    """
    nc, nt, n = dims.n_channels, dims.n_times, centred.x.shape[1]
    nfft = _embedding_length(nt)
    half = nfft // 2
    spec = np.zeros((half + 1, nc, nc))
    chunks = _slices(n, 1, min(_FFT_EPOCHS, n // 4))  # a budget of epochs
    most = chunks[0].stop
    freqs = _slices(half - 1, 8 * nc * (nc + 2 * most))
    step = freqs[0].stop if freqs else 0
    prod, turned = np.empty((step, nc, nc)), np.empty(step * 2 * most * nc)
    buf = np.empty(nfft * most * nc)
    for cols in chunks:
        width = cols.stop - cols.start
        f = buf[: nfft * width * nc].reshape(nfft, width, nc)
        centred.write(f[:nt].transpose(0, 2, 1), cols=cols)
        f[nt:] = 0.0
        f = scipy.fftpack.rfft(f, axis=0, overwrite_x=True)
        stacked = f[1:-1].reshape(half - 1, 2 * width, nc)  # [Re; Im] per k
        re, im = f[1:-1:2], f[2:-1:2]
        for k in freqs:
            size = k.stop - k.start
            other = turned[: size * 2 * width * nc].reshape(size, 2 * width, nc)
            np.add(re[k], im[k], out=other[:, :width])
            np.subtract(im[k], re[k], out=other[:, width:])
            np.matmul(stacked[k].transpose(0, 2, 1), other, out=prod[:size])
            spec[k.start + 1 : k.stop + 1] += prod[:size]
        spec[0] += f[0].T @ f[0]
        spec[-1] += f[-1].T @ f[-1]
    return spec


def _spectrum_lags(spec: np.ndarray, nt: int) -> np.ndarray:
    """The lag sums ``(N_e - 1) R_d``, ``d < nt``, of the packed cross-spectrum
    of :func:`_cross_spectrum`: ``Re_k`` and ``Im_k`` are the symmetric and
    antisymmetric parts of ``H_k``, unpacked into FFTPACK's real layout for
    one inverse FFT, which runs in place; a copy of the first ``nt`` lags
    lets the ``nfft`` lags go."""
    half, nc = len(spec) - 1, spec.shape[1]
    full = np.empty((2 * half, nc, nc))
    full[0], full[-1] = spec[0], spec[-1]
    inner = spec[1:-1]
    np.add(inner, inner.transpose(0, 2, 1), out=full[1:-1:2])
    np.subtract(inner, inner.transpose(0, 2, 1), out=full[2:-1:2])
    full[1:-1] *= 0.5
    return scipy.fftpack.irfft(full, axis=0, overwrite_x=True)[:nt].copy()


def _spectral_estimate(spec: np.ndarray, dims: BlockDims, n: int, gamma: float) -> ShrinkageResult:
    """A fit's ``toeplitz`` estimate on the PCG route, from the packed
    cross-spectrum ``spec`` of ``n`` epochs, as a :class:`_SpectralCov`.

    The estimate's lag blocks ``(1 - gamma) R_d / ((n - 1) nt)``, plus
    ``gamma nu I`` at lag 0, are the leading blocks of the block circulant
    whose spectrum is that scale times ``conj(Re_k + i Im_k)``, plus ``gamma
    nu I`` at every frequency.  ``nu`` is ``trace(R_0) / ((n - 1) D)``, and
    ``trace(R_0)`` is the mean trace over the full spectrum.  No inverse
    transform runs, and no lag block is formed.
    """
    nc, nt = dims.n_channels, dims.n_times
    traces = np.einsum("kii->k", spec)
    trace = (traces[0] + traces[-1] + 2.0 * traces[1:-1].sum()) / (2 * (len(spec) - 1))
    nu = float(trace / (n - 1) / dims.size)
    op = np.empty(spec.shape, dtype=complex)
    turned = spec.transpose(0, 2, 1)
    np.add(spec, turned, out=op.real)
    np.subtract(turned, spec, out=op.imag)
    op *= 0.5 * (1.0 - gamma) / ((n - 1) * nt)
    op.reshape(len(op), -1)[:, :: nc + 1] += gamma * nu
    return ShrinkageResult(_SpectralCov(op), gamma, nu)


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
    ``O(N_e D n_channels n_times)`` time, and on long ones from the packed
    cross-spectrum of chunks of epochs, through one inverse FFT, in
    ``O(N_e D (log n_times + n_channels))``.  :func:`_fft_pays` picks by
    ``(n_channels, n_times)``, the same rule that picks the solve route of a
    fit (``btsolve._fit_solve``).
    """
    _check_estimator(estimator)
    centred = _Centred(_covariance_data(centered, dims.size))
    return _Estimates(centred, dims, (estimator,), _unit_gamma(gamma))(estimator)


class _Estimates:
    """The estimates of :func:`estimate_covariance` for ``estimators`` on one
    checked data set (at least 2 epochs) that ``centred`` centers.

    Calling it with an estimator returns that estimator's estimate; each
    estimator of ``estimators`` is asked for once, in any order.  The stages
    the estimators share run once: γ (the Ledoit-Wolf intensity when
    ``gamma`` is None) here, and at the first averaged estimator the direct
    lag sums, kept while another is pending and handed out as a copy, or
    the packed cross-spectrum, which no estimator writes.  Each estimator
    then takes only its own steps: the inverse transform of the spectrum,
    the divisor and shrink of the lag sums, or those of its dense ``S``, so
    that no two ``D x D`` arrays exist unless a caller keeps one estimate
    while it asks for the next, or a fit's second dense estimator is
    pending.  The centered data and the shared sums are let go with the
    last estimator that reads them.

    A fit's estimates are only solved (``solve_only``).  There γ's raw Gram
    ``G`` (summed by γ's code, also when ``gamma`` is given) is kept for the
    dense estimators that read it.  From ``N_e = D`` on ``G = xc xc^T`` is
    the ``S`` of both, the first asked taking a copy while the other is
    pending.  Below ``D`` only ``slda`` reads ``G = xc^T xc``, as a
    :class:`_GramCov` with ``nu = trace(G) / ((N_e - 1) D)``.  Where the
    spectrum is summed, a fit's ``toeplitz`` is the :class:`_SpectralCov`
    of :func:`_spectral_estimate`, which the PCG route solves.
    """

    def __init__(self, centred: _Centred, dims: BlockDims, estimators, gamma: float | None,
                 solve_only: bool = False):
        self._centred, self._dims = centred, dims
        self._pending = list(estimators)
        readers = _DENSE if centred.x.shape[1] >= dims.size else ("slda",)
        keep = solve_only and any(e in readers for e in estimators)
        if gamma is None:
            gamma, gram = _ledoit_wolf(centred)
        else:
            gram = _gram(centred)[0] if keep else None
        self._gamma, self._gram = gamma, gram if keep else None
        self._sums, self._solve_only = None, solve_only

    def __call__(self, estimator: str) -> ShrinkageResult:
        self._pending.remove(estimator)
        centred, dims, gamma = self._centred, self._dims, self._gamma
        if not self._pending:
            self._centred = None
        n = centred.x.shape[1]
        nc, nt = dims.n_channels, dims.n_times
        if estimator == "slda" and n < dims.size and self._gram is not None:
            gram, self._gram = self._gram, None
            nu = float(np.trace(gram) / (n - 1) / dims.size)
            cov = _GramCov(dims, centred, gram, (1.0 - gamma) / (n - 1), gamma * nu)
            return ShrinkageResult(cov, gamma, nu)
        if estimator in _DENSE:
            # The steps of sample_covariance, shrink and apply_taper_dense, in
            # place on S = xc xc^T: a fit's Gram from D on, else a new product.
            s = self._gram if n >= dims.size else None
            if s is None:
                xc = centred.x
                if not (centred.plain and (xc.flags.c_contiguous or xc.flags.f_contiguous)):
                    xc = centred.write(np.empty_like(xc))
                s = xc @ xc.T
            elif any(e in _DENSE for e in self._pending):
                s = s.copy()
            else:
                self._gram = None
            s /= n - 1
            nu = float(np.trace(s) / dims.size)
            s *= 1.0 - gamma
            s.flat[:: dims.size + 1] += gamma * nu
            if estimator == "toeplitz_a2_only":
                lag = np.abs(np.arange(nt)[:, None] - np.arange(nt)[None, :])
                grid = s.reshape(nt, nc, nt, nc)  # a view: block (i, j) is grid[i, :, j]
                grid *= (1.0 - lag / nt)[:, None, :, None]
            return ShrinkageResult(_owned(BlockCov, dims=dims, data=s), gamma, nu)
        fft, sums = _fft_pays(nc, nt), self._sums
        if sums is None:
            sums = (_cross_spectrum if fft else _lag_sums_direct)(centred, dims)
        pending = any(e not in _DENSE for e in self._pending)
        self._sums = sums if pending else None
        if fft and estimator == "toeplitz" and self._solve_only:
            return _spectral_estimate(sums, dims, n, gamma)
        if fft:
            lags = _spectrum_lags(sums, nt)
        else:
            lags = sums.copy() if pending else sums
        nu = float(np.trace(lags[0]) / (n - 1) / dims.size)
        divisor = np.full(nt, nt) if estimator == "toeplitz" else np.arange(nt, 0, -1)
        lags *= ((1.0 - gamma) / ((n - 1) * divisor))[:, None, None]
        lags[0].flat[:: nc + 1] += gamma * nu
        return ShrinkageResult(_owned_toeplitz(dims, lags), gamma, nu)
