"""Dense reference helpers that no fit, score, synth or bench run calls.

The tests check the package's block layout and taper against these direct
element-wise definitions.
"""

import numpy as np

from toeplitzlda.blockmat import BlockCov
from toeplitzlda.errors import ShapeError


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
