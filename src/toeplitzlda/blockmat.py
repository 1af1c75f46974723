"""Block-structured matrices for spatiotemporal covariance.

An epoch with ``n_channels`` channels and ``n_times`` samples flattens to a
channel-prime vector of dimension ``D = n_channels * n_times``:
``x[t * n_channels + c] = epoch[c, t]`` (channels cycle fastest).  A
``D x D`` covariance matrix is then an ``n_times x n_times`` grid of
``n_channels x n_channels`` blocks whose block ``(i, j)`` is the
cross-channel covariance between time samples ``i`` and ``j``.

For stationary data the block grid is block-Toeplitz: block ``(i, j)``
depends only on the lag ``d = j - i``, with ``C_{-d} = C_d^T``.  The compact
``BlockToeplitzCov`` type stores one block per non-negative lag
(``n_times * n_channels**2`` values) instead of the full ``D x D`` matrix.

``_finite_array`` is the package's one rule for a caller's float array,
``_check_labels`` for a caller's labels: every public function and
constructor reads its input through them once, and the private code it
hands the result to reads it no more.  ``_finite_array`` rejects non-real
dtypes (bool, complex, str, object) before any cast, a shape that does not
match, and NaN or +-inf.  ``BlockCov(dims, data)`` and
``BlockToeplitzCov(dims, lag_blocks)`` copy its result and also reject
asymmetry.  An array the package builds itself is not read again: the
function that builds it wraps it with ``_owned`` instead of calling the
public constructor; ``_owned_toeplitz`` wraps fresh lag blocks, whose lag-0
block it symmetrizes as the constructor does.  Every record, built either
way, freezes and sets its fields through ``_own``, which makes each array
among them read-only in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import DataFormatError, ShapeError

#: Relative tolerance for the symmetry check on covariance data.
SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True)
class BlockDims:
    """Channel/time block dimensions of flattened epochs: integers >= 1."""

    n_channels: int
    n_times: int

    def __post_init__(self):
        for n in (self.n_channels, self.n_times):
            if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
                raise ShapeError(f"block dimensions must be integers, got {n!r}")
        if self.n_channels < 1 or self.n_times < 1:
            raise ShapeError(
                f"block dimensions must be >= 1, got "
                f"(n_channels={self.n_channels}, n_times={self.n_times})"
            )

    @property
    def size(self) -> int:
        """Total feature dimension ``D = n_channels * n_times``."""
        return self.n_channels * self.n_times


def _embedding_length(n_times: int) -> int:
    """Length of every block-circulant embedding of ``n_times`` lags (FFT lag
    sums, PCG operator): even, at least ``2 n_times``, half a fast FFT size."""
    return 2 * scipy.fft.next_fast_len(n_times, real=True)


#: Bytes of the temporaries that the spectral stages of a ``toeplitz`` fit
#: (``covest``'s FFT cross-spectrum, ``btsolve``'s preconditioner) compute over one
#: slice of frequencies, or of channel rows, at a time.
_SLICE_BYTES = 128 << 10
#: Bytes of one chunk of ``covest``'s data passes (and of the most data a
#: fit centers once) and of one block of ``synth.generate_noise``.
_CHUNK_BYTES = 1 << 20


def _slices(size: int, item_bytes: int, budget: int | None = None) -> list[slice]:
    """``range(size)`` in consecutive slices, each of at most ``budget`` bytes
    (``_SLICE_BYTES`` when None) of items of ``item_bytes`` and at least one
    item; none when ``size`` is 0.  The first slice is the longest.  Every
    pass of the package that works in bounded pieces takes them from here."""
    step = max(1, (_SLICE_BYTES if budget is None else budget) // item_bytes)
    return [slice(start, min(start + step, size)) for start in range(0, size, step)]


def _finite_array(values, shape: tuple, name: str) -> np.ndarray:
    """``values`` as a float64 array of ``shape``, all finite.

    ``None`` in ``shape`` matches any length.  Only integer and floating
    dtypes are read: any other (bool, complex, str, object) raises
    :class:`DataFormatError` before a cast could drop or invent a value, as
    does NaN or +-inf; a shape mismatch raises :class:`ShapeError`.  Errors
    name the array ``name``.  float64 input is returned without a copy.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "iuf":
        raise DataFormatError(f"{name} must hold real numbers, got dtype {a.dtype}")
    if a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape)):
        expected = ", ".join("*" if n is None else str(n) for n in shape)
        raise ShapeError(f"{name} has shape {a.shape}, expected ({expected})")
    a = a.astype(np.float64, copy=False)
    if not _all_finite(a):
        raise DataFormatError(f"{name} contains non-finite values (NaN or inf)")
    return a


#: Most values whose finiteness ``_all_finite`` tests in one mask.
_FINITE_VALUES = 1 << 15


def _all_finite(a: np.ndarray) -> bool:
    """Whether every value of the float array ``a`` is finite.

    Larger arrays are tested over the ``_slices`` of their first or last
    axis, whichever has the larger stride, each of at most ``_FINITE_VALUES``
    values or one index of that axis, so the one-byte mask of
    ``np.isfinite`` stays small; the first non-finite slice ends the scan.
    """
    if a.size <= _FINITE_VALUES:
        return bool(np.isfinite(a).all())
    outer = a if abs(a.strides[0]) >= abs(a.strides[-1]) else a.T
    parts = _slices(outer.shape[0], a.size // outer.shape[0], _FINITE_VALUES)
    return all(np.isfinite(outer[part]).all() for part in parts)


def _check_labels(labels, n_epochs: int) -> np.ndarray:
    """A copy of ``labels`` as uint8, after a :class:`ShapeError` for a shape
    other than ``(n_epochs,)`` and a :class:`DataFormatError` for a value
    other than 0 or 1, checked before the cast could truncate 0.5 or wrap 256."""
    labels = np.asarray(labels)
    if labels.shape != (n_epochs,):
        raise ShapeError(f"labels have shape {labels.shape}, expected ({n_epochs},)")
    if not ((labels == 0) | (labels == 1)).all():
        raise DataFormatError("labels must be 0 (non-target) or 1 (target)")
    return labels.astype(np.uint8)


def _check_symmetric(a: np.ndarray, what: str) -> None:
    scale = np.abs(a).max() if a.size else 0.0
    tol = SYMMETRY_RTOL * max(scale, np.finfo(np.float64).tiny)
    worst = np.abs(a - a.T).max() if a.size else 0.0
    if worst > tol:
        raise ShapeError(
            f"{what} is not symmetric: max |A - A^T| = {worst:.3e} "
            f"exceeds {tol:.3e}"
        )


@dataclass(frozen=True)
class BlockCov:
    """Dense symmetric ``D x D`` covariance with block metadata.

    ``data`` is read by ``_finite_array`` and copied; symmetry is validated
    to ``SYMMETRY_RTOL`` (relative to the largest entry).
    """

    dims: BlockDims
    data: np.ndarray

    def __post_init__(self):
        d = self.dims.size
        a = _finite_array(self.data, (d, d), "covariance data").copy()
        _check_symmetric(a, "covariance data")
        _own(self, data=a)


def _own(obj, **fields):
    """Set ``fields`` on the frozen dataclass instance ``obj``, each array
    among them made read-only in place; returns ``obj``."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _owned(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given,
    unchecked and uncopied: for values built inside the package, which hands
    over every field."""
    return _own(object.__new__(cls), **fields)


@dataclass(frozen=True)
class BlockToeplitzCov:
    """Compact block-Toeplitz covariance: one block per non-negative lag.

    ``lag_blocks[d]`` is the cross-channel covariance block at temporal lag
    ``d`` (block ``(i, i+d)`` of the dense matrix); it is read by
    ``_finite_array`` and copied.  The lag-0 block is validated to
    be symmetric and then symmetrized exactly so that round trips through
    ``to_dense`` / ``block_diagonal_average`` are bit-exact.
    """

    dims: BlockDims
    lag_blocks: np.ndarray

    def __post_init__(self):
        nc, nt = self.dims.n_channels, self.dims.n_times
        a = _finite_array(self.lag_blocks, (nt, nc, nc), "lag_blocks").copy()
        _check_symmetric(a[0], "lag-0 block")
        _symmetrize_lag0(a)
        _own(self, lag_blocks=a)


def _symmetrize_lag0(lags: np.ndarray) -> None:
    """Make the lag-0 block exactly symmetric, in place: ``(L0 + L0^T) / 2``."""
    lags[0] = (lags[0] + lags[0].T) / 2.0


def _owned_toeplitz(dims: BlockDims, lags: np.ndarray) -> BlockToeplitzCov:
    """Wrap fresh, finite ``(n_times, n_channels, n_channels)`` lag blocks whose
    lag-0 block is symmetric up to rounding, symmetrized exactly in place."""
    _symmetrize_lag0(lags)
    return _owned(BlockToeplitzCov, dims=dims, lag_blocks=lags)


def block_diagonal_average(cov: BlockCov) -> BlockToeplitzCov:
    """Average each block diagonal into one lag block (stationarity fit).

    Lag ``d`` averages the ``n_times - d`` blocks ``(i, i+d)``.  The mean is
    computed as ``first + mean(others - first)`` so that the operation is
    exactly idempotent on inputs that are already block-Toeplitz.  The lag-0
    result is symmetrized as ``(M + M^T) / 2``.
    """
    nc, nt = cov.dims.n_channels, cov.dims.n_times
    grid = cov.data.reshape(nt, nc, nt, nc)
    lags = np.empty((nt, nc, nc))
    for d in range(nt):
        rows = np.arange(nt - d)
        blocks = grid[rows, :, rows + d, :]
        base = blocks[0]
        mean = base + (blocks - base).sum(axis=0) / (nt - d)
        if d == 0:
            mean = (mean + mean.T) / 2.0
        lags[d] = mean
    return BlockToeplitzCov(cov.dims, lags)


def apply_taper(btc: BlockToeplitzCov) -> BlockToeplitzCov:
    """Scale each lag block by the linear taper weight.

    The lag-0 weight is exactly 1.0, so the zero-lag block is unchanged
    bit-for-bit.
    """
    nt = btc.dims.n_times
    w = 1.0 - np.arange(nt) / nt
    return BlockToeplitzCov(btc.dims, btc.lag_blocks * w[:, None, None])


def apply_taper_dense(cov: BlockCov) -> BlockCov:
    """Taper a dense covariance blockwise without averaging.

    Block ``(i, j)`` is scaled by ``1 - |j - i| / n_times``.  The
    taper weights form a positive semidefinite (Bartlett) matrix, so the
    blockwise product keeps a positive definite input positive definite.
    """
    nc, nt = cov.dims.n_channels, cov.dims.n_times
    lag = np.abs(np.arange(nt)[:, None] - np.arange(nt)[None, :])
    weights = (1.0 - lag / nt)[:, None, :, None]
    tapered = cov.data.reshape(nt, nc, nt, nc) * weights
    return _owned(BlockCov, dims=cov.dims, data=tapered.reshape(cov.dims.size, cov.dims.size))


def to_dense(btc: BlockToeplitzCov) -> BlockCov:
    """Expand a compact block-Toeplitz covariance into the dense matrix.

    Block ``(i, j)`` is ``lag_blocks[j - i]`` for ``j >= i`` and
    ``lag_blocks[i - j]^T`` below the diagonal, so the result is exactly
    symmetric.  With the ``2 n_times - 1`` blocks ``[L[nt-1]^T ... L[1]^T,
    L[0] ... L[nt-1]]`` laid side by side in ``rows``, channel row ``a`` of
    block row ``i`` is the ``D`` entries of row ``a`` of ``rows`` from block
    ``nt - 1 - i`` on: one copy from a sliding window fills the one ``D x D``
    buffer.
    """
    nc, nt = btc.dims.n_channels, btc.dims.n_times
    d = btc.dims.size
    lags = btc.lag_blocks
    rows = np.empty((nc, 2 * nt - 1, nc))
    rows[:, : nt - 1] = lags[:0:-1].transpose(2, 0, 1)
    rows[:, nt - 1 :] = lags.transpose(1, 0, 2)
    windows = np.lib.stride_tricks.sliding_window_view(rows.reshape(nc, -1), d, axis=1)
    out = np.empty((d, d))
    out.reshape(nt, nc, d)[...] = windows[:, ::-nc].transpose(1, 0, 2)
    return _owned(BlockCov, dims=btc.dims, data=out)


def free_parameter_count(dims: BlockDims) -> tuple[int, int]:
    """Free parameters of (full symmetric, block-Toeplitz) covariances.

    A full symmetric ``D x D`` matrix has ``D (D + 1) / 2`` parameters.  The
    block-Toeplitz form needs the symmetric lag-0 block plus one full block
    per positive lag: ``n_channels (n_channels + 1) / 2 +
    (n_times - 1) n_channels^2``.
    """
    nc, nt = dims.n_channels, dims.n_times
    d = dims.size
    full = d * (d + 1) // 2
    toeplitz = nc * (nc + 1) // 2 + (nt - 1) * nc * nc
    return full, toeplitz
