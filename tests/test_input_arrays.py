"""Every public function and constructor that reads a float array reads it
through ``blockmat._finite_array``: NaN, +-inf and non-real dtypes (bool,
complex, str) raise ``DataFormatError`` naming the argument."""

import numpy as np
import pytest

from toeplitzlda import (
    BlockCov,
    BlockDims,
    BlockToeplitzCov,
    ClassStats,
    Epochs,
    ErpSpec,
    FeatureMatrix,
    LdaModel,
    NoiseModel,
    auc,
    block_levinson_solve,
    block_toeplitz_matmul,
    block_toeplitz_solve,
    class_means,
    decision_values,
    dense_solve,
    estimate_covariance,
    fit,
    ledoit_wolf_gamma,
    sample_covariance,
    shrink,
    to_dense,
)
from toeplitzlda.covest import ESTIMATORS, center
from toeplitzlda.errors import DataFormatError, ShapeError

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
    ("block_toeplitz_solve", "b", np.ones(DIMS.size), lambda a: block_toeplitz_solve(BTC, a)),
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
