"""Binary linear discriminant analysis with structured covariance.

The weight vector solves ``Sigma w = mu_target - mu_nontarget`` and the
bias is ``-w^T (mu_nontarget + mu_target) / 2``, so the decision boundary
passes through the midpoint of the class means and ``decision_values`` is
positive on the target side.

``estimator`` selects the structure of ``Sigma`` (see
:func:`covest.estimate_covariance`): ``slda`` is the dense shrunk sample
covariance (below ``N_e = D`` a fit solves it through γ's ``N_e``-square
Gram, which never forms it; the weights are the same to rounding),
``toeplitz`` averages its block diagonals and tapers them, ``toeplitz_a1_only``
only averages (which may be indefinite: the solve then falls back to a
symmetric indefinite factorization and the model is flagged) and
``toeplitz_a2_only`` only tapers (from ``N_e = D`` on both dense
estimators shrink γ's ``D``-square Gram in place).  ``cov_mode`` selects the centering:
'within' uses per-class means (needs labels), 'global' the overall mean,
which needs no labels when the class means come via ``mean_override``.

``fit`` checks its arguments, reading ``x`` and ``mean_override`` once with
``blockmat._finite_array`` as ``decision_values`` reads its features
(non-finite or non-real input raises :class:`DataFormatError`) and its
labels with ``blockmat._check_labels``.  Through ``_fitter``, which checks
nothing again, it makes one call to estimate, ``covest._fit_estimate``, and
one to solve, ``btsolve._fit_solve``, and wraps what they return without
reading it again.  The estimates come with the class means and the power
of two ``2**exp`` the centered data was divided by; the fit keeps the LDA
algebra: the mean difference, the degenerate case of identical means, the
bias and the model.  Dividing by ``2**exp`` is exact,
so the fit is scale-equivariant: ``fit(a x)`` has weights ``w(x) / a``, bit
for bit when ``a`` is a power of two.  ``fit`` is the one-estimator case of
``_fitter``, through which the benchmark fits every estimator of a draw.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import btsolve, covest
from .blockmat import BlockDims, _check_labels, _finite_array, _own, _owned
from .covest import ClassStats
from .dataio import _finite, _json_object, _json_value, _number, _write_json
from .errors import DataFormatError, SolveError

MODEL_FORMAT_VERSION = 1
COV_MODES = ("within", "global")


@dataclass(frozen=True)
class LdaModel:
    """Fitted discriminant: weights, bias, and fit metadata.

    Every field is checked as :func:`load_model` checks it: ``weights`` is
    read by ``blockmat._finite_array`` and copied, a non-finite ``bias``
    raises :class:`DataFormatError` and any other bad field ValueError.  A
    fit wraps what it made with ``blockmat._owned`` instead.
    """

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
        if not _finite(self.bias):
            raise DataFormatError(f"bias must be a finite number, got {self.bias!r}")
        covest._check_estimator(self.estimator)
        _check_cov_mode(self.cov_mode)
        if not (_number(self.gamma) and 0 <= self.gamma <= 1):
            raise ValueError(f"gamma must be a number in [0, 1], got {self.gamma!r}")
        if {type(self.well_conditioned), type(self.degenerate)} != {bool}:
            raise ValueError("well_conditioned and degenerate must be bools, got "
                             f"{self.well_conditioned!r} and {self.degenerate!r}")
        _own(self, weights=w)


def _check_cov_mode(cov_mode: str) -> None:
    if cov_mode not in COV_MODES:
        raise ValueError(f"unknown cov_mode {cov_mode!r}; expected one of {COV_MODES}")


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
    _check_cov_mode(cov_mode)
    covest._check_estimator(estimator)
    x = _finite_array(x, (dims.size, None), "x")
    if mean_override is not None:
        _finite_array(mean_override.means, (2, dims.size), "mean_override")
    needs_labels = mean_override is None or cov_mode == "within"
    if needs_labels and labels is None:
        raise ValueError(
            "labels are required unless mean_override is given with cov_mode='global'"
        )
    covest._check_epochs(x.shape[1])
    labels = _check_labels(labels, x.shape[1]) if needs_labels else None
    gamma = covest._unit_gamma(gamma)
    return _fitter(x, labels, dims, (estimator,), cov_mode, mean_override, gamma)(estimator)


def _fitter(x, labels, dims, estimators, cov_mode, mean_override, gamma):
    """:func:`fit` of each of ``estimators`` on arguments as :func:`fit` checks them.

    Runs the stages no estimator owns once: the class means, the centering
    and the shared stages of ``covest._Estimates``.  Returns
    ``fit_one(estimator)``, to be called once per estimator, which runs only
    that estimator's estimate and solve.
    """
    needs_labels = mean_override is None or cov_mode == "within"
    # The data minus its class means or its overall mean, divided by 2**exp,
    # 2 to 4 times max|x|: exact, and it keeps the covariance and the
    # Ledoit-Wolf sums from overflowing or underflowing at any data scale.
    estimates, own, exp = covest._fit_estimate(
        x, labels if needs_labels else None, cov_mode == "within", dims, estimators, gamma
    )
    stats = own if mean_override is None else mean_override

    def fit_one(estimator: str) -> LdaModel:
        shrunk = estimates(estimator)
        delta = stats.means[1] - stats.means[0]
        degenerate = not delta.any()
        if degenerate:
            warnings.warn(
                "identical class means: returning a degenerate model with zero weights",
                RuntimeWarning,
                stacklevel=3,
            )
            w, bias, well_conditioned = np.zeros(dims.size), 0.0, True
        else:
            report = btsolve._fit_solve(
                shrunk.matrix, np.ldexp(delta, -exp, out=delta), estimator == "toeplitz_a1_only"
            )
            # The solution is finite, but undoing 2**exp can overflow it when
            # the data is tiny and the estimate nearly singular.
            with np.errstate(over="ignore"):
                w = np.ldexp(report.solution, -exp)
            if not np.isfinite(w).all():
                raise SolveError("the weights overflow at the scale of the data")
            bias = float(-0.5 * (w @ (stats.means[0] + stats.means[1])))
            well_conditioned = report.well_conditioned
        return _owned(
            LdaModel,
            weights=w,
            bias=bias,
            dims=dims,
            estimator=estimator,
            cov_mode=cov_mode,
            gamma=shrunk.gamma,
            well_conditioned=well_conditioned,
            degenerate=degenerate,
        )

    return fit_one


def decision_values(model: LdaModel, x) -> np.ndarray:
    """Signed scores ``w^T x + b`` for feature columns (positive = target)."""
    return _decision_values(model, _finite_array(x, (model.dims.size, None), "x"))


def _decision_values(model: LdaModel, x: np.ndarray) -> np.ndarray:
    """:func:`decision_values` of checked ``D x N_e`` features."""
    return model.weights @ x + model.bias


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
    :func:`save_model` writes (and :class:`LdaModel` checks); nothing is cast.
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
    try:
        return LdaModel(np.array(weights, dtype=np.float64), payload.get("bias"), dims,
                        payload.get("estimator"), payload.get("cov_mode"), payload.get("gamma"),
                        payload.get("well_conditioned", True), payload.get("degenerate", False))
    except ValueError as exc:  # the fields LdaModel checks
        raise DataFormatError(f"malformed {what}: {exc}") from exc
