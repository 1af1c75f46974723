"""Binary linear discriminant analysis with structured covariance.

The weight vector solves ``Sigma w = mu_target - mu_nontarget`` and the
bias is ``-w^T (mu_nontarget + mu_target) / 2``, so the decision boundary
passes through the midpoint of the class means and ``decision_values`` is
positive on the target side.

``Sigma`` comes from :func:`covest.estimate_covariance`; ``estimator``
selects its structure:

* ``slda`` -- dense shrinkage-regularized sample covariance.
* ``toeplitz`` -- block-diagonal averaging plus linear tapering; solved by
  :func:`btsolve.block_toeplitz_solve`: one dense Cholesky of the expanded
  lag blocks on small systems, block-circulant preconditioned conjugate
  gradients on the compact form on large ones.
* ``toeplitz_a1_only`` -- averaging without tapering.  The averaged matrix
  is not guaranteed positive definite, so it always takes the dense route:
  when the Cholesky of the expanded lag blocks fails, the fit solves a fresh
  expansion with a symmetric indefinite factorization and flags the model.
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

``fit`` and ``decision_values`` read their feature matrix, and ``fit`` its
``mean_override``, with ``blockmat._finite_array``: non-finite or non-real
input raises :class:`DataFormatError`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import covest
from .blockmat import BlockCov, BlockDims, BlockToeplitzCov, _finite_array, to_dense
from .btsolve import SolveReport, _solve_in_place, block_toeplitz_solve
from .covest import ESTIMATORS, ClassStats
from .dataio import _finite, _json_object, _json_value, _number, _write_json
from .errors import SolveError

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
        w = _finite_array(self.weights, (self.dims.size,), "weights").copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def _solve(cov: BlockCov | BlockToeplitzCov, delta: np.ndarray, estimator: str) -> SolveReport:
    if not isinstance(cov, BlockToeplitzCov):
        return _solve_in_place(cov, delta)  # S is the fit's own and read no more
    if estimator != "toeplitz_a1_only":
        return block_toeplitz_solve(cov, delta)
    # Averaging without tapering may produce an indefinite matrix, which a
    # failed Cholesky shows: then solve a fresh expansion (the first one was
    # overwritten) with a symmetric indefinite factorization and flag the
    # model instead of failing.  The lag blocks are finite, so only the
    # solution needs a scan.
    try:
        return _solve_in_place(to_dense(cov), delta)
    except SolveError:
        pass
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
    x = _finite_array(x, (dims.size, None), "x")
    if mean_override is not None:
        _finite_array(mean_override.means, (2, dims.size), "mean_override")
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
    return model.weights @ _finite_array(x, (model.dims.size, None), "x") + model.bias


def save_model(model: LdaModel, path) -> None:
    """Write the model as JSON; floats round-trip exactly."""
    _write_json(path, {
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
    })


def load_model(path) -> LdaModel:
    """Read a model written by :func:`save_model`.

    Each key must already hold the JSON type and range that
    :func:`save_model` writes; nothing is cast into it.
    """
    what = f"model file {path}"
    payload = _json_object(path, what)
    _json_value(payload, "format_version", str(MODEL_FORMAT_VERSION),
                lambda v: type(v) is int and v == MODEL_FORMAT_VERSION, what)
    dims = BlockDims(*(
        _json_value(payload, key, "a positive JSON integer",
                    lambda v: type(v) is int and v > 0, what)
        for key in ("n_channels", "n_times")
    ))
    weights = _json_value(
        payload, "weights", f"a list of {dims.size} finite numbers",
        lambda v: type(v) is list and len(v) == dims.size and all(map(_finite, v)), what
    )
    return LdaModel(
        weights=np.array(weights, dtype=np.float64),
        bias=float(_json_value(payload, "bias", "a finite number", _finite, what)),
        dims=dims,
        estimator=_json_value(payload, "estimator", f"one of {ESTIMATORS}",
                              lambda v: v in ESTIMATORS, what),
        cov_mode=_json_value(payload, "cov_mode", f"one of {COV_MODES}",
                             lambda v: v in COV_MODES, what),
        gamma=float(_json_value(payload, "gamma", "a number in [0, 1]",
                                lambda v: _number(v) and 0 <= v <= 1, what)),
        well_conditioned=_json_value(payload, "well_conditioned", "a JSON boolean",
                                     lambda v: type(v) is bool, what, True),
        degenerate=_json_value(payload, "degenerate", "a JSON boolean",
                               lambda v: type(v) is bool, what, False),
    )
