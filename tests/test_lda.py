"""Discriminant fitting, scoring, and model serialization."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toeplitzlda import blockmat, btsolve, covest, lda, synth
from toeplitzlda.blockmat import (
    BlockDims,
    apply_taper,
    apply_taper_dense,
    block_diagonal_average,
    to_dense,
)
from toeplitzlda.btsolve import dense_solve
from toeplitzlda.covest import ClassStats
from toeplitzlda.errors import DataFormatError, ShapeError, SolveError
from toeplitzlda.lda import LdaModel, decision_values, fit, load_model, save_model


def flatten_epochs(epochs):
    return np.stack([ep.T.ravel() for ep in epochs.data], axis=1)


def labeled_features(nc, nt, n_epochs, seed, scale=None):
    dims = BlockDims(nc, nt)
    noise = synth.generate_noise(synth.default_noise_model(dims), n_epochs,
                                 dims, seed=seed)
    kwargs = {} if scale is None else {"scale": scale}
    spec = synth.default_erp_spec(dims, **kwargs)
    epochs = synth.inject_erp(noise, spec, seed=seed)
    return flatten_epochs(epochs), np.asarray(epochs.labels), dims


# -------------------------------------------------------- scalar oracle

def test_scalar_case_matches_hand_computation():
    # Class 0 samples {-1, 1} (mean 0), class 1 samples {0, 2} (mean 1).
    # Pooled within-class variance with n-1 normalization: 4/3.
    # w = delta / var = 3/4; bias = -w * midpoint = -3/8.
    x = np.array([[-1.0, 1.0, 0.0, 2.0]])
    labels = np.array([0, 0, 1, 1])
    model = fit(x, labels, dims=BlockDims(1, 1), estimator="slda")
    assert np.allclose(model.weights, [0.75], atol=1e-14)
    assert model.bias == pytest.approx(-0.375, abs=1e-14)
    scores = decision_values(model, np.array([[0.5, 0.0, 1.0]]))
    assert np.allclose(scores, [0.0, -0.375, 0.375], atol=1e-14)
    assert model.gamma == 0.0  # one-dimensional: target equals the estimate


def test_boundary_passes_through_class_mean_midpoint():
    x, labels, dims = labeled_features(2, 4, 60, seed=0)
    model = fit(x, labels, dims=dims, estimator="toeplitz")
    stats = covest.class_means(x, labels)
    midpoint = 0.5 * (stats.means[0] + stats.means[1])
    assert decision_values(model, midpoint[:, None])[0] == pytest.approx(0.0, abs=1e-12)
    assert decision_values(model, stats.means[1][:, None])[0] > 0
    assert decision_values(model, stats.means[0][:, None])[0] < 0


# ------------------------------------------------- estimator vs oracle

def test_toeplitz_weights_solve_the_structured_system():
    x, labels, dims = labeled_features(2, 4, 60, seed=1)
    model = fit(x, labels, dims=dims, estimator="toeplitz")
    xc = covest.center(x, labels=labels)
    cov = covest.estimate_covariance(xc, dims, "toeplitz").matrix
    stats = covest.class_means(x, labels)
    delta = stats.means[1] - stats.means[0]
    oracle = dense_solve(to_dense(cov), delta)
    assert np.allclose(model.weights, oracle.solution, atol=1e-8)
    assert model.bias == pytest.approx(
        -0.5 * float(model.weights @ (stats.means[0] + stats.means[1])), abs=1e-12
    )


def test_slda_weights_solve_the_shrunk_dense_system():
    x, labels, dims = labeled_features(2, 3, 48, seed=2)
    model = fit(x, labels, dims=dims, estimator="slda")
    xc = covest.center(x, labels=labels)
    shrunk = covest.shrink(covest.sample_covariance(xc, dims), None, xc)
    stats = covest.class_means(x, labels)
    delta = stats.means[1] - stats.means[0]
    oracle = np.linalg.solve(shrunk.matrix.data, delta)
    assert np.allclose(model.weights, oracle, atol=1e-10)
    assert model.gamma == pytest.approx(shrunk.gamma, abs=1e-15)


def test_full_shrinkage_weights_are_proportional_to_mean_difference():
    # gamma=1 shrinks to nu * I, so w = delta / nu exactly.
    x, labels, dims = labeled_features(2, 4, 36, seed=3)
    model = fit(x, labels, dims=dims, estimator="slda", gamma=1.0)
    xc = covest.center(x, labels=labels)
    s = covest.sample_covariance(xc, dims)
    nu = np.trace(s.data) / dims.size
    stats = covest.class_means(x, labels)
    delta = stats.means[1] - stats.means[0]
    assert np.allclose(model.weights, delta / nu, atol=1e-12)
    assert model.gamma == 1.0


def test_estimators_agree_given_ample_stationary_data():
    # 50x more epochs than dimensions and a correlation length far below
    # the window, so the structural assumptions hold and the dense and
    # structured fits point the same way.
    dims = BlockDims(2, 12)
    model = synth.NoiseModel(
        spatial_mix=np.array([[1.0, 0.4], [-0.3, 0.9]]),
        temporal_fir=np.array([1.0, 0.6]),
        noise_floor=0.4,
    )
    template_rng = np.random.default_rng(99)
    spec = synth.ErpSpec(
        target_template=0.4 * template_rng.standard_normal((2, 12)),
        nontarget_template=0.4 * template_rng.standard_normal((2, 12)),
    )
    for seed in range(5):
        noise = synth.generate_noise(model, 1200, dims, seed=seed)
        epochs = synth.inject_erp(noise, spec, seed=seed)
        x, labels = flatten_epochs(epochs), np.asarray(epochs.labels)
        w_s = fit(x, labels, dims=dims, estimator="slda").weights
        w_t = fit(x, labels, dims=dims, estimator="toeplitz").weights
        cos = w_s @ w_t / (np.linalg.norm(w_s) * np.linalg.norm(w_t))
        assert cos >= 0.99


def stage_by_stage_covariance(x, labels, dims, estimator, cov_mode):
    """Dense oracle: each stage of the estimator run by hand."""
    xc = covest.center(x, labels=labels if cov_mode == "within" else None)
    shrunk = covest.shrink(covest.sample_covariance(xc, dims), None, xc).matrix
    if estimator == "slda":
        return shrunk.data
    if estimator == "toeplitz_a2_only":
        return apply_taper_dense(shrunk).data
    averaged = block_diagonal_average(shrunk)
    if estimator == "toeplitz":
        averaged = apply_taper(averaged)
    return to_dense(averaged).data


@pytest.mark.parametrize("cov_mode", lda.COV_MODES)
@pytest.mark.parametrize("estimator", lda.ESTIMATORS)
@settings(max_examples=25, deadline=None)
@given(
    nc=st.integers(1, 3),
    nt=st.integers(1, 6),
    n=st.integers(4, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_pipeline_weights_match_the_stage_by_stage_dense_oracle(
    estimator, cov_mode, nc, nt, n, seed
):
    dims = BlockDims(nc, nt)
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    shift = np.outer(rng.standard_normal(dims.size), labels)
    x = rng.standard_normal((dims.size, n)) + 0.5 * shift
    cov = stage_by_stage_covariance(x, labels, dims, estimator, cov_mode)
    # A cosine of 1 - 1e-10 allows a relative error near 1e-5, which any
    # solver reaches on a system this well conditioned.
    assume(np.linalg.cond(cov) < 1e8)
    stats = covest.class_means(x, labels)
    oracle = np.linalg.solve(cov, stats.means[1] - stats.means[0])
    w = fit(x, labels, dims=dims, estimator=estimator, cov_mode=cov_mode).weights
    cos = w @ oracle / (np.linalg.norm(w) * np.linalg.norm(oracle))
    assert cos >= 1.0 - 1e-10


DENSE_REFERENCE = (
    "sample_covariance",
    "shrink",
    "apply_taper_dense",
    "block_diagonal_average",
    "apply_taper",
)


@pytest.mark.parametrize("cov_mode", lda.COV_MODES)
@pytest.mark.parametrize("estimator", lda.ESTIMATORS)
def test_fit_runs_none_of_the_dense_reference_stages(monkeypatch, estimator, cov_mode):
    # Those stages each return a fresh D x D; they are the oracle above, so a
    # fit that ran them would be checked against itself.  Nor does a fit
    # multiply by its block-Toeplitz estimate: nothing reads such a product.
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for module in (covest, blockmat, btsolve, lda):
        for name in DENSE_REFERENCE + ("block_toeplitz_matmul",):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    x, labels, dims = labeled_features(3, 5, 42, seed=12)
    fit(x, labels, dims=dims, estimator=estimator, cov_mode=cov_mode)
    assert calls == []


# (n_channels, n_times) on each side of the size rule of block_toeplitz_solve.
ROUTE_SIZES = {"dense": (3, 5), "pcg": (4, 128)}


@pytest.mark.parametrize("route", sorted(ROUTE_SIZES))
@pytest.mark.parametrize("estimator", lda.ESTIMATORS)
def test_no_fit_runs_the_levinson_recursion(monkeypatch, estimator, route):
    # block_levinson_solve remains only as a reference; the block-Toeplitz
    # estimates go through block_toeplitz_solve, on the route its size picks.
    calls, routes = [], []
    real = btsolve.block_toeplitz_solve

    def solve(*args):
        report = real(*args)
        routes.append(report.method)
        return report

    def levinson(*args):
        calls.append(args)
        raise AssertionError("a fit called block_levinson_solve")

    for module in (btsolve, lda):
        monkeypatch.setattr(module, "block_levinson_solve", levinson, raising=False)
    monkeypatch.setattr(lda, "block_toeplitz_solve", solve)
    nc, nt = ROUTE_SIZES[route]
    x, labels, dims = labeled_features(nc, nt, 42, seed=12)
    fit(x, labels, dims=dims, estimator=estimator)
    assert calls == []
    assert routes == ([route] if estimator == "toeplitz" else [])


# (n_channels, n_times) close to the size rule blockmat._fft_pays, on each side.
RULE_SIZES = {
    "dense": [(8, 20), (31, 15), (16, 31), (64, 8)],
    "pcg": [(8, 64), (16, 32), (2, 256), (4, 128)],
}


@pytest.mark.parametrize(
    ("route", "nc", "nt"),
    [(route, nc, nt) for route, sizes in sorted(RULE_SIZES.items()) for nc, nt in sizes],
)
def test_estimate_and_solve_switch_together(monkeypatch, route, nc, nt):
    # One rule picks both the lag-sum kernel of the estimate and the route
    # of the solve: FFT lag sums exactly when the solve is PCG.
    ffts, routes = [], []
    real_fft, real_solve = covest._lag_sums_fft, btsolve.block_toeplitz_solve

    def lag_sums_fft(*args):
        ffts.append(args)
        return real_fft(*args)

    def solve(*args):
        report = real_solve(*args)
        routes.append(report.method)
        return report

    monkeypatch.setattr(covest, "_lag_sums_fft", lag_sums_fft)
    monkeypatch.setattr(lda, "block_toeplitz_solve", solve)
    x, labels, dims = labeled_features(nc, nt, 42, seed=12)
    fit(x, labels, dims=dims, estimator="toeplitz")
    assert routes == [route]
    assert len(ffts) == (route == "pcg")


def label_channel_features(nc, nt, n_epochs=48):
    """Noise whose channel 0 holds only the class label, at every sample.

    Within each class that channel is constant, so every lag block of the
    unshrunk estimate has a zero row and column there, while the class mean
    difference is 1 on it: the difference is outside the covariance's range.
    """
    x, labels, dims = labeled_features(nc, nt, n_epochs, seed=3)
    x.reshape(nt, nc, n_epochs)[:, 0, :] = labels
    return x, labels, dims


@pytest.mark.parametrize("route", sorted(ROUTE_SIZES))
def test_singular_unshrunk_toeplitz_fit_raises_solve_error(route):
    x, labels, dims = label_channel_features(*ROUTE_SIZES[route])
    assert btsolve._fft_pays(dims.n_channels, dims.n_times) == (route == "pcg")
    with pytest.raises(SolveError):
        fit(x, labels, dims=dims, estimator="toeplitz", gamma=0.0)
    # With shrinkage the same data fits.
    assert np.isfinite(fit(x, labels, dims=dims, estimator="toeplitz").weights).all()


def column_strided(x):
    """``x`` as every other column of a C-ordered buffer twice as wide."""
    wide = np.zeros((x.shape[0], 2 * x.shape[1]))
    wide[:, ::2] = x
    return wide[:, ::2]


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray, column_strided])
def test_within_class_centring_matches_center_bit_for_bit(monkeypatch, layout, flip):
    # What the fit hands to the estimator is the prescaled class-centred data
    # of covest.center, in values and in memory order; F-ordered input is
    # where an output buffer of fixed order would differ.
    x, labels, dims = labeled_features(3, 5, 42, seed=21)
    x = layout(x)
    labels = 1 - labels if flip else labels
    seen = []
    real = covest.estimate_covariance

    def spy(xc, *args, **kwargs):
        seen.append((xc.copy(order="K"), xc.flags.c_contiguous, xc.flags.f_contiguous))
        return real(xc, *args, **kwargs)

    monkeypatch.setattr(covest, "estimate_covariance", spy)
    fit(x, labels, dims=dims, estimator="toeplitz")
    centred = covest.center(x, labels)
    exp = int(np.frexp(np.abs(centred).max())[1])
    expected = np.ldexp(centred, -exp)
    [(got, c_order, f_order)] = seen
    assert np.array_equal(got, expected)
    assert (c_order, f_order) == (expected.flags.c_contiguous, expected.flags.f_contiguous)


def test_global_and_within_agree_without_shrinkage():
    # With gamma pinned to zero the global-mean covariance differs from the
    # within-class one by a multiple of delta delta^T, which cannot rotate
    # the solution of Sigma w = delta.
    for seed in range(3):
        x, labels, dims = labeled_features(2, 4, 396, seed=10 + seed)
        w_w = fit(x, labels, dims=dims, estimator="slda", cov_mode="within",
                  gamma=0.0).weights
        w_g = fit(x, labels, dims=dims, estimator="slda", cov_mode="global",
                  gamma=0.0).weights
        cos = w_w @ w_g / (np.linalg.norm(w_w) * np.linalg.norm(w_g))
        assert cos >= 1.0 - 1e-8


# ------------------------------------------------------- special cases

def test_identical_class_means_yield_degenerate_model():
    rng = np.random.default_rng(4)
    dims = BlockDims(2, 2)
    x = rng.standard_normal((4, 20))
    labels = (np.arange(20) % 2).astype(np.uint8)
    same = np.ones((2, 4))
    override = ClassStats(means=same)
    with pytest.warns(RuntimeWarning, match="identical class means"):
        model = fit(x, labels, dims=dims, mean_override=override)
    assert model.degenerate
    assert np.array_equal(model.weights, np.zeros(4))
    assert model.bias == 0.0
    assert np.array_equal(decision_values(model, x), np.zeros(20))


def test_mean_override_supplies_the_solved_difference():
    x, labels, dims = labeled_features(2, 3, 36, seed=5)
    override = ClassStats(means=np.stack([np.zeros(dims.size), np.ones(dims.size)]))
    model = fit(x, labels, dims=dims, estimator="slda", gamma=1.0,
                mean_override=override)
    xc = covest.center(x, labels=labels)
    nu = np.trace(covest.sample_covariance(xc, dims).data) / dims.size
    assert np.allclose(model.weights, np.ones(dims.size) / nu, atol=1e-12)


def test_mean_override_allows_unlabeled_global_fit():
    x, labels, dims = labeled_features(2, 3, 36, seed=6)
    stats = covest.class_means(x, labels)
    model = fit(x, labels=None, dims=dims, estimator="slda",
                cov_mode="global", mean_override=stats)
    assert model.cov_mode == "global"
    assert np.isfinite(model.weights).all()


@pytest.mark.parametrize(
    ("cov_mode", "override", "expected"),
    [("within", False, 1), ("within", True, 1), ("global", False, 1), ("global", True, 0)],
)
def test_fit_computes_class_means_at_most_once(monkeypatch, cov_mode, override, expected):
    x, labels, dims = labeled_features(2, 3, 36, seed=6)
    stats = covest.class_means(x, labels) if override else None
    calls = []
    real = covest.class_means

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(covest, "class_means", counting)
    fit(x, labels if expected else None, dims=dims, cov_mode=cov_mode,
        mean_override=stats)
    assert len(calls) == expected


@pytest.mark.parametrize("override", [False, True])
def test_within_class_fit_checks_the_labels_once(monkeypatch, override):
    x, labels, dims = labeled_features(2, 3, 36, seed=6)
    stats = covest.class_means(x, labels) if override else None
    calls = []
    real = covest._check_labels

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(covest, "_check_labels", counting)
    fit(x, labels, dims=dims, cov_mode="within", mean_override=stats)
    assert len(calls) == 1


def test_long_window_toeplitz_fit_forms_no_dense_covariance():
    # At 8 x 2048, D = 16384: one D x D float64 matrix would take 2 GiB.  The
    # lag-block estimate needs the centered D x N_e copy plus chunk buffers
    # below its size, the PCG solve a few 8 x 8 blocks per frequency.
    for n_times in (1024, 2048):
        dims = BlockDims(8, n_times)
        rng = np.random.default_rng(0)
        labels = np.arange(48) % 2
        x = rng.standard_normal((dims.size, 48)) + 0.5 * np.outer(
            rng.standard_normal(dims.size), labels
        )
        tracemalloc.start()
        try:
            model = fit(x, labels, dims=dims, estimator="toeplitz")
            scores = decision_values(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * x.nbytes, f"n_times {n_times}: peak {peak / 2**20:.1f} MiB"
        assert scores[labels == 1].mean() > scores[labels == 0].mean()


@pytest.mark.parametrize("estimator", ["slda", "toeplitz_a2_only"])
def test_dense_fit_holds_one_dense_covariance(estimator):
    # At 8 x 128, D = 1024: one D x D float64 matrix is 8 MiB, the D x N_e
    # data 0.4 MiB.  The solve factors the fit's own estimate in place
    # instead of a copy of it.
    dims = BlockDims(8, 128)
    rng = np.random.default_rng(0)
    labels = np.arange(48) % 2
    x = rng.standard_normal((dims.size, 48)) + 0.5 * np.outer(
        rng.standard_normal(dims.size), labels
    )
    tracemalloc.start()
    try:
        fit(x, labels, dims=dims, estimator=estimator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * dims.size**2 * 8, f"peak {peak / 2**20:.1f} MiB"


def test_indefinite_fallback_holds_one_dense_matrix_at_a_time():
    # At 8 x 128 on 8 epochs toeplitz_a1_only falls back: the failed
    # Cholesky overwrote its D x D expansion, which is freed before the
    # symmetric indefinite solve gathers a fresh one.
    dims = BlockDims(8, 128)
    rng = np.random.default_rng(0)
    labels = np.arange(8) % 2
    x = rng.standard_normal((dims.size, 8)) + 0.5 * np.outer(
        rng.standard_normal(dims.size), labels
    )
    tracemalloc.start()
    try:
        model = fit(x, labels, dims=dims, estimator="toeplitz_a1_only")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not model.well_conditioned
    assert peak < 1.25 * dims.size**2 * 8, f"peak {peak / 2**20:.1f} MiB"


def indefinite_fit_data():
    """Eight epochs of 4 x 8 on which `toeplitz_a1_only` falls back."""
    dims = BlockDims(4, 8)
    noise = synth.generate_noise(synth.default_noise_model(dims), 8, dims, seed=9)
    return flatten_epochs(noise), (np.arange(8) % 2).astype(np.uint8), dims


def test_averaging_without_taper_flags_indefinite_fallback(monkeypatch):
    # Eight epochs in 32 dimensions: plain block-diagonal averaging goes
    # indefinite, the fit falls back to a dense symmetric solve and says so.
    # toeplitz_a1_only always solves densely: exactly one Cholesky of the
    # expanded lag blocks, which fails and so shows the matrix is not
    # positive definite, then one symmetric indefinite solve.
    x, labels, dims = indefinite_fit_data()
    calls = []
    real_cholesky, real_solve = lda._solve_in_place, scipy.linalg.solve

    def cholesky(*args, **kwargs):
        try:
            report = real_cholesky(*args, **kwargs)
        except SolveError:
            calls.append("failed Cholesky")
            raise
        calls.append("Cholesky")
        return report

    def solve(*args, **kwargs):
        calls.append(kwargs.get("assume_a"))
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(lda, "_solve_in_place", cholesky)
    monkeypatch.setattr(scipy.linalg, "solve", solve)
    model_a1 = fit(x, labels, dims=dims, estimator="toeplitz_a1_only")
    monkeypatch.undo()
    assert not model_a1.well_conditioned
    assert calls == ["failed Cholesky", "sym"]
    # The oracle runs the fit's steps by hand: centre, prescale, estimate, solve.
    xc = covest.center(x, labels=labels)
    exp = int(np.frexp(np.abs(xc).max())[1])
    xc = np.ldexp(xc, -exp)
    cov = covest.estimate_covariance(xc, dims, "toeplitz_a1_only").matrix
    stats = covest.class_means(x, labels)
    delta = np.ldexp(stats.means[1] - stats.means[0], -exp)
    oracle = scipy.linalg.solve(to_dense(cov).data, delta, assume_a="sym")
    assert np.array_equal(model_a1.weights, np.ldexp(oracle, -exp))
    model_full = fit(x, labels, dims=dims, estimator="toeplitz")
    assert model_full.well_conditioned


def test_indefinite_fallback_does_not_rescan_its_matrix(monkeypatch):
    # The dense expansion comes from validated lag blocks: a finite scan of
    # it would only cost a D x D bool array.
    x, labels, dims = indefinite_fit_data()
    calls = []
    real = scipy.linalg.solve

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve", spy)
    model = fit(x, labels, dims=dims, estimator="toeplitz_a1_only")
    assert not model.well_conditioned
    assert [kw.get("check_finite") for kw in calls] == [False]


def test_indefinite_fallback_rejects_a_non_finite_solution(monkeypatch):
    x, labels, dims = indefinite_fit_data()
    monkeypatch.setattr(
        scipy.linalg, "solve", lambda a, b, **kwargs: np.full_like(b, np.nan)
    )
    with pytest.raises(SolveError, match="non-finite"):
        fit(x, labels, dims=dims, estimator="toeplitz_a1_only")


# ------------------------------------------------------ scale equivariance

SCALE_DATA = labeled_features(4, 5, 60, seed=0)


@pytest.mark.parametrize("estimator", ["toeplitz", "slda"])
@settings(max_examples=40, deadline=None)
@given(k=st.integers(-600, 600))
def test_power_of_two_scaling_scales_weights_exactly(estimator, k):
    x, labels, dims = SCALE_DATA
    alpha = 2.0**k
    base = fit(x, labels, dims=dims, estimator=estimator)
    scaled = fit(alpha * x, labels, dims=dims, estimator=estimator)
    assert np.array_equal(scaled.weights, base.weights / alpha)
    assert scaled.bias == base.bias
    assert scaled.gamma == base.gamma


# 10**-200 underflows and 10**200 overflows a covariance formed at the data's
# own scale: a zero-weight "degenerate" model and a NaN shrinkage intensity.
@pytest.mark.parametrize("estimator", ["toeplitz", "slda"])
@settings(max_examples=40, deadline=None)
@given(k=st.integers(-150, 150))
@example(k=-200)
@example(k=200)
def test_decimal_scaling_keeps_weight_direction(estimator, k):
    x, labels, dims = SCALE_DATA
    base = fit(x, labels, dims=dims, estimator=estimator)
    scaled = fit(x * 10.0**k, labels, dims=dims, estimator=estimator)
    # Normalized by the largest entry first: |w| ~ 10**200 would overflow the norm.
    u, v = (w / np.abs(w).max() for w in (scaled.weights, base.weights))
    assert u @ v / (np.linalg.norm(u) * np.linalg.norm(v)) >= 1.0 - 1e-12


def test_gamma_override_is_recorded():
    x, labels, dims = labeled_features(1, 3, 24, seed=7)
    model = fit(x, labels, dims=dims, gamma=0.7)
    assert model.gamma == 0.7


# ------------------------------------------------------- serialization

def test_save_load_round_trip_is_bit_exact(tmp_path):
    x, labels, dims = labeled_features(2, 4, 48, seed=8)
    model = fit(x, labels, dims=dims, estimator="toeplitz")
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.weights, model.weights)
    assert back.bias == model.bias
    assert back.dims == model.dims
    assert back.estimator == model.estimator
    assert back.cov_mode == model.cov_mode
    assert back.gamma == model.gamma
    assert back.well_conditioned == model.well_conditioned
    assert back.degenerate == model.degenerate
    assert np.array_equal(decision_values(back, x), decision_values(model, x))


# The file save_model wrote for this model before the package's JSON writers
# were merged into one.
SHA_HAND_BUILT_MODEL = "df74ea152738414cd2061002d69a6482ed0a461f994cca7c11a5b78165706222"


def test_saved_model_bytes_are_frozen(tmp_path):
    model = LdaModel(
        weights=np.array([0.5, -1.25, 3e-7, 1 / 3, -0.0, 2.0**-60]),
        bias=0.1,
        dims=BlockDims(2, 3),
        estimator="toeplitz",
        cov_mode="global",
        gamma=0.25,
        well_conditioned=False,
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SHA_HAND_BUILT_MODEL
    back = load_model(path)
    assert np.array_equal(back.weights, model.weights)
    assert (back.bias, back.gamma, back.well_conditioned) == (0.1, 0.25, False)


def test_load_rejects_bad_payloads(tmp_path):
    x, labels, dims = labeled_features(1, 2, 12, seed=9)
    model = fit(x, labels, dims=dims)
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 2
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError, match="version"):
        load_model(path)
    payload["format_version"] = 1
    payload["estimator"] = "mystery"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError, match="estimator"):
        load_model(path)


@pytest.mark.parametrize(
    ("key", "value"),
    [
        ("weights", ["0.5", 1.0]),
        ("weights", [float("nan"), 1.0]),
        ("weights", "0.5"),
        ("n_channels", 1.0),
        ("n_channels", "1"),
        ("n_channels", True),
        ("n_times", 2.7),
        ("gamma", 7.0),
        ("gamma", "0.5"),
        ("gamma", float("nan")),
        ("gamma", True),
        ("bias", "0.25"),
        ("bias", float("inf")),
        ("bias", None),
        ("well_conditioned", "no"),
        ("well_conditioned", 0),
        ("degenerate", "yes"),
        ("degenerate", 1),
    ],
)
def test_load_rejects_values_it_would_have_to_cast(tmp_path, key, value):
    # save_model writes JSON integers, numbers and booleans; a file holding
    # anything else is malformed, not something to cast into shape.
    x, labels, dims = labeled_features(1, 2, 12, seed=9)
    path = tmp_path / "model.json"
    save_model(fit(x, labels, dims=dims), path)
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError, match=key):
        load_model(path)


# ----------------------------------------------------------- validation

def test_fit_validates_inputs():
    x = np.zeros((4, 10))
    labels = (np.arange(10) % 2).astype(np.uint8)
    dims = BlockDims(2, 2)
    with pytest.raises(ValueError, match="estimator"):
        fit(x, labels, dims=dims, estimator="nope")
    with pytest.raises(ValueError, match="cov_mode"):
        fit(x, labels, dims=dims, cov_mode="nope")
    with pytest.raises(ShapeError):
        fit(np.zeros(4), labels, dims=dims)
    with pytest.raises(ValueError, match="dims"):
        fit(x, labels)
    with pytest.raises(ShapeError):
        fit(np.zeros((5, 10)), labels, dims=dims)
    with pytest.raises(ValueError, match="labels"):
        fit(x, None, dims=dims, cov_mode="within")
    with pytest.raises(ValueError, match="labels"):
        fit(x, None, dims=dims, cov_mode="global")
    stats = ClassStats(means=np.zeros((2, 4)))
    with pytest.raises(ValueError, match="labels"):
        fit(x, None, dims=dims, cov_mode="within", mean_override=stats)
    with pytest.raises(ShapeError):
        fit(x, None, dims=dims, cov_mode="global",
            mean_override=ClassStats(means=np.zeros((2, 5))))


def test_labels_must_be_exactly_zero_or_one():
    x = np.random.default_rng(0).standard_normal((4, 6))
    dims = BlockDims(2, 2)
    fractional = [0.5, 1.7, 0.2, 1.9, 0, 1]  # int64 truncation would give 0/1
    with pytest.raises(ShapeError, match="labels"):
        covest.class_means(x, fractional)
    with pytest.raises(ShapeError, match="labels"):
        fit(x, fractional, dims=dims)
    ints = np.array([0, 1, 0, 1, 0, 1])
    expected = fit(x, ints, dims=dims)
    for labels in (ints.astype(bool), ints.astype(np.uint8), ints.astype(float)):
        assert np.array_equal(covest.class_means(x, labels).means,
                              covest.class_means(x, ints).means)
        assert np.array_equal(fit(x, labels, dims=dims).weights, expected.weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_and_scoring_reject_non_finite_input(bad):
    x, labels, dims = labeled_features(2, 3, 24, seed=11)
    for estimator in ("slda", "toeplitz"):
        poisoned = x.copy()
        poisoned[4, 7] = bad
        with pytest.raises(DataFormatError, match="non-finite"):
            fit(poisoned, labels, dims=dims, estimator=estimator)
    stats = covest.class_means(x, labels)
    means = stats.means.copy()
    means[1, 0] = bad
    with pytest.raises(DataFormatError, match="non-finite"):
        fit(x, labels, dims=dims, mean_override=ClassStats(means))
    model = fit(x, labels, dims=dims)
    poisoned = x.copy()
    poisoned[0, 0] = bad
    with pytest.raises(DataFormatError, match="non-finite"):
        decision_values(model, poisoned)


def test_decision_values_validate_shape():
    x, labels, dims = labeled_features(1, 2, 12, seed=10)
    model = fit(x, labels, dims=dims)
    with pytest.raises(ShapeError):
        decision_values(model, np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        decision_values(model, np.zeros(2))
