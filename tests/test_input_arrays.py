"""Every public function and constructor that reads a float array reads it
through ``blockmat._finite_array``: NaN, +-inf and non-real dtypes (bool,
complex, str) raise ``DataFormatError`` naming the argument.  Every one that
reads class labels reads them through ``blockmat._check_labels``: a value
other than 0 or 1 raises ``DataFormatError``, a wrong length ``ShapeError``."""

import numpy as np
import pytest

from toeplitzlda.bench import auc, draw_subsets
from toeplitzlda.blockmat import BlockCov, BlockDims, BlockToeplitzCov, to_dense
from toeplitzlda.btsolve import block_levinson_solve, block_toeplitz_matmul, dense_solve
from toeplitzlda.covest import (
    ESTIMATORS,
    ClassStats,
    center,
    class_means,
    estimate_covariance,
    ledoit_wolf_gamma,
    sample_covariance,
    shrink,
)
from toeplitzlda.dataio import Epochs, FeatureMatrix
from toeplitzlda.errors import DataFormatError, ShapeError
from toeplitzlda.lda import LdaModel, decision_values, fit
from toeplitzlda.synth import ErpSpec, NoiseModel

DIMS = BlockDims(2, 3)
X = np.random.default_rng(0).standard_normal((DIMS.size, 12))
LABELS = np.arange(12) % 2
LAGS = np.zeros((3, 2, 2))
LAGS[0] = [[2.0, 0.5], [0.5, 1.5]]
LAGS[1] = [[0.4, 0.1], [-0.2, 0.3]]
BTC = BlockToeplitzCov(DIMS, LAGS)
MODEL = fit(X, LABELS, dims=DIMS)

# (id, argument name, a valid value of the argument, the call on a value)
CASES = [
    ("BlockCov", "data", to_dense(BTC).data, lambda a: BlockCov(DIMS, a)),
    ("BlockToeplitzCov", "lag_blocks", LAGS, lambda a: BlockToeplitzCov(DIMS, a)),
    ("ClassStats", "means", X[:, :2].T, ClassStats),
    ("Epochs", "data", X.T.reshape(12, 3, 2), lambda a: Epochs(a, 10.0, 0.0, ("a", "b", "c"))),
    ("FeatureMatrix", "data", X, lambda a: FeatureMatrix(a, DIMS)),
    ("LdaModel", "weights", MODEL.weights,
     lambda a: LdaModel(a, 0.0, DIMS, "toeplitz", "within", 0.1)),
    ("NoiseModel-mix", "spatial_mix", np.eye(2), lambda a: NoiseModel(a, np.ones(2))),
    ("NoiseModel-fir", "temporal_fir", np.ones((2, 3)), lambda a: NoiseModel(np.eye(2), a)),
    ("ErpSpec-target", "target_template", np.ones((2, 3)),
     lambda a: ErpSpec(a, np.zeros((2, 3)))),
    ("ErpSpec-nontarget", "nontarget_template", np.zeros((2, 3)),
     lambda a: ErpSpec(np.ones((2, 3)), a)),
    ("class_means", "x", X, lambda a: class_means(a, LABELS)),
    ("center", "x", X, center),
    ("center-labels", "x", X, lambda a: center(a, LABELS)),
    ("sample_covariance", "centered", X, lambda a: sample_covariance(a, DIMS)),
    ("ledoit_wolf_gamma", "centered", X, ledoit_wolf_gamma),
    ("shrink", "centered", X, lambda a: shrink(sample_covariance(X, DIMS), None, a)),
    *[(f"estimate_covariance-{est}", "centered", X,
       lambda a, est=est: estimate_covariance(a, DIMS, est, gamma=0.1))
      for est in ESTIMATORS],
    ("fit", "x", X, lambda a: fit(a, LABELS, dims=DIMS)),
    ("fit-global", "x", X,
     lambda a: fit(a, None, dims=DIMS, cov_mode="global",
                   mean_override=ClassStats(X[:, :2].T))),
    ("decision_values", "x", X, lambda a: decision_values(MODEL, a)),
    ("block_levinson_solve", "b", np.ones(DIMS.size), lambda a: block_levinson_solve(BTC, a)),
    ("dense_solve", "b", np.ones(DIMS.size), lambda a: dense_solve(to_dense(BTC), a)),
    ("block_toeplitz_matmul", "x", np.ones(DIMS.size), lambda a: block_toeplitz_matmul(BTC, a)),
    ("auc", "scores", np.arange(12.0), lambda a: auc(a, LABELS)),
]

NON_FINITE = ("nan", "inf", "-inf")


def poisoned(valid, kind):
    """``valid`` with one NaN or +-inf entry, or cast to a non-real dtype."""
    if kind in NON_FINITE:
        a = np.array(valid, dtype=np.float64)
        a.flat[a.size // 2] = float(kind)
        return a
    if kind == "complex":
        return valid * (1 + 1j)
    if kind == "bool":
        return valid != 0
    return np.asarray(valid).astype(str)


@pytest.mark.parametrize("kind", [*NON_FINITE, "complex", "bool", "str"])
@pytest.mark.parametrize(("argument", "valid", "call"), [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_float_arrays_are_read_by_one_rule(argument, valid, call, kind):
    call(valid)
    if kind in NON_FINITE:
        expected = rf"\b{argument} contains non-finite values \(NaN or inf\)"
    else:
        expected = rf"\b{argument} must hold real numbers"
    with pytest.raises(DataFormatError, match=expected):
        call(poisoned(valid, kind))


@pytest.mark.parametrize(("argument", "valid", "call"), [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_a_shape_mismatch_stays_a_shape_error(argument, valid, call):
    with pytest.raises(ShapeError, match=rf"\b{argument} has shape"):
        call(np.zeros(np.shape(valid) + (1,)))


# (id, the call on labels for the 12 epochs of X)
LABEL_READERS = [
    ("Epochs", lambda y: Epochs(X.T.reshape(12, 3, 2), 10.0, 0.0, ("a", "b", "c"), labels=y)),
    ("fit", lambda y: fit(X, y, dims=DIMS)),
    ("class_means", lambda y: class_means(X, y)),
    ("center", lambda y: center(X, y)),
    ("auc", lambda y: auc(np.arange(12.0), y)),
    ("draw_subsets", lambda y: draw_subsets(y, 2, 1, seed=0, stratified=False)),
]


def one_bad_label(value):
    """``LABELS`` with one entry replaced by ``value``."""
    labels = LABELS.astype(type(value))
    labels[5] = value
    return labels


# A cast first would truncate 0.5 and 1.7 to 0 and 1, and wrap or overflow
# -1 and 256.  (id, labels, error)
BAD_LABELS = [
    *[(f"value-{v}", one_bad_label(v), DataFormatError) for v in (0.5, 1.7, -1, 2, 256, np.nan)],
    ("short", LABELS[:-1], ShapeError),
    ("column", LABELS[:, None], ShapeError),
]


@pytest.mark.parametrize(("call", "labels", "error"), [
    pytest.param(call, labels, error, id=f"{name}-{kind}")
    for name, call in LABEL_READERS
    for kind, labels, error in BAD_LABELS
    # draw_subsets takes its epoch count from the labels: no length is wrong.
    if (name, kind) != ("draw_subsets", "short")
])
def test_labels_are_read_by_one_rule(call, labels, error):
    call(LABELS)
    expected = "labels must be 0" if error is DataFormatError else "labels have shape"
    with pytest.raises(error, match=expected):
        call(labels)
