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

``_finite_array`` is the package's one rule for a caller's float array:
every public function and constructor that reads one takes it through
``_finite_array``, which rejects non-real dtypes (bool, complex, str,
object) before any cast, a shape that does not match, and NaN or +-inf.
``BlockCov(dims, data)`` and ``BlockToeplitzCov(dims, lag_blocks)`` copy
its result and also reject asymmetry.  The functions of this package that
build a fresh, exactly symmetric ``D x D`` array wrap it with ``_owned_cov``
instead, which makes it read-only in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _fft_pays(n_channels: int, n_times: int) -> bool:
    """Whether FFT lag sums (``covest``) and the PCG solve (``btsolve``) pay here.

    Below the rule a ``toeplitz`` fit takes one product per lag and one
    dense Cholesky.  Crossovers measured with one BLAS thread, in CPU time:

    * Lag sums (N_e 24 to 384): the FFT wins from about 100 samples at 2
      channels, 64 at 8, 32 at 16 and 16-20 at 31 or 64 channels.
    * Solve (min of 5-200 calls, ``toeplitz`` estimates of 96 noise epochs):
      PCG takes 10-30 iterations and at least about 0.6 ms, the dense route
      grows as ``D^3``.  Dense wins up to ``D = 384`` at 8 channels (1.2
      against 1.4-2.1 ms) and PCG from ``D = 512`` (8 x 64: 2.3-2.8 against
      1.4-2.0 ms); 16 x 32, 24 x 24 and 31 x 20 are about even.

    Below 16 samples the per-lag products always win, and so does the dense
    route, even at 128 x 8 (15 against 17-23 ms): there the
    ``n_channels``-cubed preconditioner blocks dominate.
    """
    return n_times >= 16 and n_channels * n_times >= 512


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
    if not np.isfinite(a).all():
        raise DataFormatError(f"{name} contains non-finite values (NaN or inf)")
    return a


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

    ``data`` is read by ``_finite_array``, copied and made read-only;
    symmetry is validated to ``SYMMETRY_RTOL``
    (relative to the largest entry).  Package functions return instances
    built by ``_owned_cov``, which skips the copy and both checks.
    """

    dims: BlockDims
    data: np.ndarray

    def __post_init__(self):
        d = self.dims.size
        a = _finite_array(self.data, (d, d), "covariance data").copy()
        _check_symmetric(a, "covariance data")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)


def _owned_cov(dims: BlockDims, data: np.ndarray) -> BlockCov:
    """Wrap a fresh, exactly symmetric ``(D, D)`` float64 array as a BlockCov.

    For arrays built inside the package: ``data`` is made read-only in place
    instead of being copied and checked.
    """
    data.setflags(write=False)
    cov = object.__new__(BlockCov)
    object.__setattr__(cov, "dims", dims)
    object.__setattr__(cov, "data", data)
    return cov


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
        a[0] = (a[0] + a[0].T) / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "lag_blocks", a)


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
    return _owned_cov(cov.dims, tapered.reshape(cov.dims.size, cov.dims.size))


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
    return _owned_cov(btc.dims, out)


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
