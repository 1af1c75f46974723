"""Binary linear discriminant analysis with structured covariance.

The weight vector solves ``Sigma w = mu_target - mu_nontarget`` and the
bias is ``-w^T (mu_nontarget + mu_target) / 2``, so the decision boundary
passes through the midpoint of the class means and ``decision_values`` is
positive on the target side.

``Sigma`` comes from :func:`covest.estimate_covariance`; ``estimator``
selects its structure:

* ``slda`` -- dense shrinkage-regularized sample covariance.
* ``toeplitz`` -- block-diagonal averaging plus linear tapering; solved in
  compact form by the block Levinson recursion.
* ``toeplitz_a1_only`` -- averaging without tapering.  The averaged matrix
  is not guaranteed positive definite; on recursion breakdown the fit
  retries with a dense symmetric indefinite solve and flags the model.
* ``toeplitz_a2_only`` -- blockwise tapering of the dense shrunk covariance
  (no averaging).

``fit`` owns the class statistics: it computes the data's class means at
most once and centers the data before estimating ``Sigma``.  ``cov_mode``
selects the centering: 'within' uses per-class means (needs labels),
'global' uses the overall mean, which requires no labels when the class
means are supplied via ``mean_override``.  The centered data is divided by
a power of two that brings its largest entry into [0.5, 1), which is exact,
so the fit is scale-equivariant: ``fit(a x)`` has weights ``w(x) / a``, bit
for bit when ``a`` is a power of two.

``fit`` and ``decision_values`` reject non-finite input with
:class:`DataFormatError`.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from . import covest
from .blockmat import BlockCov, BlockDims, BlockToeplitzCov, to_dense
from .btsolve import SolveReport, _cholesky_solve, block_levinson_solve
from .covest import ESTIMATORS, ClassStats
from .errors import DataFormatError, ShapeError, SolveBreakdownError, SolveError

MODEL_FORMAT_VERSION = 1
COV_MODES = ("within", "global")


@dataclass(frozen=True)
class LdaModel:
    """Fitted discriminant: weights, bias, and fit metadata."""

    weights: np.ndarray
    bias: float
    dims: BlockDims
    estimator: str
    cov_mode: str
    gamma: float
    well_conditioned: bool = True
    degenerate: bool = False

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        if w.shape != (self.dims.size,):
            raise ShapeError(
                f"weights have shape {w.shape}, expected ({self.dims.size},)"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def _finite_features(x, dims: BlockDims) -> np.ndarray:
    """``x`` as a finite ``D x N_e`` float64 matrix, without copying float64 input."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != dims.size:
        raise ShapeError(
            f"feature matrix has shape {x.shape}, expected ({dims.size}, n_epochs)"
        )
    if not np.isfinite(x).all():
        raise DataFormatError("feature matrix contains non-finite values")
    return x


def _solve(cov: BlockCov | BlockToeplitzCov, delta: np.ndarray, estimator: str) -> SolveReport:
    if not isinstance(cov, BlockToeplitzCov):
        # S is the fit's own, symmetric and read no more: factor it in place as S.T.
        cov.data.setflags(write=True)
        return _cholesky_solve(cov.data.T, delta)
    try:
        return block_levinson_solve(cov, delta)
    except SolveBreakdownError:
        if estimator != "toeplitz_a1_only":
            raise
    # Averaging without tapering may produce an indefinite matrix, which the
    # breakdown has just shown: solve it densely with a symmetric indefinite
    # factorization and flag the model instead of failing.  The lag blocks
    # are finite, so only the solution needs a scan.
    dense = to_dense(cov).data
    try:
        solution = scipy.linalg.solve(dense, delta, assume_a="sym", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"symmetric indefinite solve failed: {exc}") from exc
    if not np.isfinite(solution).all():
        raise SolveError("symmetric indefinite solve gave a non-finite solution")
    return SolveReport(solution, "dense", False)


def fit(
    x,
    labels=None,
    dims: BlockDims | None = None,
    estimator: str = "toeplitz",
    cov_mode: str = "within",
    mean_override: ClassStats | None = None,
    gamma: float | None = None,
) -> LdaModel:
    """Fit the discriminant on channel-prime feature columns.

    ``mean_override`` replaces the estimated class means (for example means
    computed on a larger dataset) while the covariance still comes from
    ``x``.  ``gamma`` overrides the analytic shrinkage intensity.
    """
    if dims is None:
        raise ValueError("dims is required")
    if cov_mode not in COV_MODES:
        raise ValueError(f"unknown cov_mode {cov_mode!r}; expected one of {COV_MODES}")
    x = _finite_features(x, dims)
    if mean_override is not None:
        if mean_override.means.shape[1] != dims.size:
            raise ShapeError(
                f"mean_override dimension {mean_override.means.shape[1]} does not "
                f"match dims.size {dims.size}"
            )
        if not np.isfinite(mean_override.means).all():
            raise DataFormatError("mean_override contains non-finite class means")
    own = None
    if mean_override is None or cov_mode == "within":
        if labels is None:
            raise ValueError(
                "labels are required unless mean_override is given with cov_mode='global'"
            )
        own = covest.class_means(x, labels)
        labels = np.asarray(labels, dtype=np.int64)  # checked by class_means
    stats = own if mean_override is None else mean_override

    if cov_mode == "within":
        # Each column minus its own class mean: the D x 2 means times the
        # 2 x N_e one-hot class indicator, in a buffer laid out like x.
        xc = np.matmul(own.means.T, np.eye(2)[:, labels], out=np.empty_like(x))
        np.subtract(x, xc, out=xc)
    else:
        xc = covest.center(x)
    # Scaling by 2**-exp is exact; it keeps the covariance and the
    # Ledoit-Wolf sums from overflowing or underflowing at any data scale.
    exp = int(np.frexp(max(xc.max(initial=0.0), -xc.min(initial=0.0)))[1])
    np.ldexp(xc, -exp, out=xc)
    shrunk = covest.estimate_covariance(xc, dims, estimator, gamma)
    del xc
    delta = stats.means[1] - stats.means[0]
    degenerate = not delta.any()
    if degenerate:
        warnings.warn(
            "identical class means: returning a degenerate model with zero weights",
            RuntimeWarning,
            stacklevel=2,
        )
        w, bias, well_conditioned = np.zeros(dims.size), 0.0, True
    else:
        report = _solve(shrunk.matrix, np.ldexp(delta, -exp, out=delta), estimator)
        w = np.ldexp(report.solution, -exp)
        bias = float(-0.5 * (w @ (stats.means[0] + stats.means[1])))
        well_conditioned = report.well_conditioned
    return LdaModel(
        weights=w,
        bias=bias,
        dims=dims,
        estimator=estimator,
        cov_mode=cov_mode,
        gamma=shrunk.gamma,
        well_conditioned=well_conditioned,
        degenerate=degenerate,
    )


def decision_values(model: LdaModel, x) -> np.ndarray:
    """Signed scores ``w^T x + b`` for feature columns (positive = target)."""
    return model.weights @ _finite_features(x, model.dims) + model.bias


def save_model(model: LdaModel, path) -> None:
    """Write the model as JSON; floats round-trip exactly."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "n_channels": model.dims.n_channels,
        "n_times": model.dims.n_times,
        "estimator": model.estimator,
        "cov_mode": model.cov_mode,
        "gamma": model.gamma,
        "bias": model.bias,
        "weights": model.weights.tolist(),
        "well_conditioned": model.well_conditioned,
        "degenerate": model.degenerate,
    }
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> LdaModel:
    """Read a model written by :func:`save_model`.

    Each field must already hold the JSON type and range that
    :func:`save_model` writes; nothing is cast into it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        version = payload.get("format_version")
    except (AttributeError, ValueError) as exc:  # not a JSON object
        raise DataFormatError(f"malformed model file {path}: {exc!r}") from exc
    if version != MODEL_FORMAT_VERSION:
        raise DataFormatError(
            f"unsupported model format version {version!r}, "
            f"expected {MODEL_FORMAT_VERSION}"
        )
    if payload.get("estimator") not in ESTIMATORS:
        raise DataFormatError(f"unknown estimator {payload.get('estimator')!r}")
    if payload.get("cov_mode") not in COV_MODES:
        raise DataFormatError(f"unknown cov_mode {payload.get('cov_mode')!r}")

    def field(key, kind, ok, default=None):
        value = payload.get(key, default)
        if not ok(value):
            raise DataFormatError(
                f"model file {path}: {key} must be {kind}, got {value!r:.60}"
            )
        return value

    def number(v):  # JSON true and false load as bool, not int
        return type(v) in (int, float)

    def finite(v):
        return number(v) and -math.inf < v < math.inf

    def integer(v):
        return type(v) is int

    def boolean(v):
        return type(v) is bool

    weights = field("weights", "a list of finite numbers",
                    lambda v: type(v) is list and all(map(finite, v)))
    n_channels = field("n_channels", "a JSON integer", integer)
    n_times = field("n_times", "a JSON integer", integer)
    gamma = field("gamma", "a number in [0, 1]", lambda v: number(v) and 0 <= v <= 1)
    bias = field("bias", "a finite number", finite)
    well_conditioned = field("well_conditioned", "a JSON boolean", boolean, True)
    degenerate = field("degenerate", "a JSON boolean", boolean, False)
    try:
        return LdaModel(
            weights=np.array(weights, dtype=np.float64),
            bias=float(bias),
            dims=BlockDims(n_channels, n_times),
            estimator=payload["estimator"],
            cov_mode=payload["cov_mode"],
            gamma=float(gamma),
            well_conditioned=well_conditioned,
            degenerate=degenerate,
        )
    except (OverflowError, ValueError) as exc:  # an integer beyond float, or a bad size
        raise DataFormatError(f"malformed model file {path}: {exc!r}") from exc
