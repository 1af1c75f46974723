"""Discriminant fitting, scoring, and model serialization."""

import ast
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toeplitzlda import blockmat, btsolve, covest, lda, synth
from toeplitzlda.blockmat import (
    BlockCov,
    BlockDims,
    BlockToeplitzCov,
    apply_taper,
    apply_taper_dense,
    block_diagonal_average,
    to_dense,
)
from toeplitzlda.btsolve import dense_solve
from toeplitzlda.covest import ClassStats
from toeplitzlda.errors import DataFormatError, ShapeError, SolveError
from toeplitzlda.lda import LdaModel, decision_values, fit, load_model, save_model

from conftest import traced_peak
from dense_reference import slda_estimate, slda_weights


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
    assert np.allclose(model.weights, slda_weights(x, labels, dims), atol=1e-10)
    assert model.gamma == pytest.approx(slda_estimate(x, labels, dims).gamma, abs=1e-15)


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
    shrunk = slda_estimate(x, labels, dims, cov_mode).matrix
    if estimator == "slda":
        return shrunk.data
    if estimator == "toeplitz_a2_only":
        return apply_taper_dense(shrunk).data
    averaged = block_diagonal_average(shrunk)
    if estimator == "toeplitz":
        averaged = apply_taper(averaged)
    return to_dense(averaged).data


@pytest.mark.parametrize("cov_mode", lda.COV_MODES)
@pytest.mark.parametrize("estimator", covest.ESTIMATORS)
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
@pytest.mark.parametrize("estimator", covest.ESTIMATORS)
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


# (n_channels, n_times) on each side of the size rule of the block-Toeplitz solve.
ROUTE_SIZES = {"dense": (3, 5), "pcg": (4, 128)}


@pytest.mark.parametrize("route", sorted(ROUTE_SIZES))
@pytest.mark.parametrize("estimator", covest.ESTIMATORS)
def test_no_fit_runs_the_levinson_recursion(monkeypatch, estimator, route):
    # block_levinson_solve remains only as a reference; the toeplitz
    # estimates take the route of _fit_solve that their size picks.
    calls, routes = [], []
    real = btsolve._fit_solve

    def solve(cov, b, maybe_indefinite):
        report = real(cov, b, maybe_indefinite)
        if isinstance(cov, (BlockToeplitzCov, covest._SpectralCov)) and not maybe_indefinite:
            routes.append(report.method)
        return report

    def levinson(*args):
        calls.append(args)
        raise AssertionError("a fit called block_levinson_solve")

    for module in (btsolve, lda):
        monkeypatch.setattr(module, "block_levinson_solve", levinson, raising=False)
    monkeypatch.setattr(btsolve, "_fit_solve", solve)
    nc, nt = ROUTE_SIZES[route]
    x, labels, dims = labeled_features(nc, nt, 42, seed=12)
    fit(x, labels, dims=dims, estimator=estimator)
    assert calls == []
    assert routes == ([route] if estimator == "toeplitz" else [])


# (n_channels, n_times) close to the size rule covest._fft_pays, on each side.
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
    # of the solve: an FFT cross-spectrum exactly when the solve is PCG.
    ffts, routes = [], []
    real_fft, real_solve = covest._cross_spectrum, btsolve._fit_solve

    def cross_spectrum(*args):
        ffts.append(args)
        return real_fft(*args)

    def solve(*args):
        report = real_solve(*args)
        routes.append(report.method)
        return report

    monkeypatch.setattr(covest, "_cross_spectrum", cross_spectrum)
    monkeypatch.setattr(btsolve, "_fit_solve", solve)
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


def rank_deficient_features(nc, nt, n_epochs):
    """Noise epochs with a class shift, every third one a target."""
    dims = BlockDims(nc, nt)
    noise = synth.generate_noise(synth.default_noise_model(dims), n_epochs, dims, seed=0)
    x = flatten_epochs(noise)
    labels = (np.arange(n_epochs) % 3 == 0).astype(np.uint8)
    x[:, labels == 1] += 0.5
    return x, labels, dims


@pytest.mark.parametrize(("nc", "nt", "n_epochs"), [(8, 64, 9), (31, 32, 32)])
def test_chan_preconditioner_solves_fits_of_a_rank_deficient_cross_spectrum(
    monkeypatch, nc, nt, n_epochs
):
    # Unshrunk, with N_e - 2 < n_channels: each frequency's cross-spectrum
    # has rank at most N_e - 2, so the circulant of the even frequencies of
    # the operator spectrum (R. Chan's, at n = 2 n_times) is singular.  T.
    # Chan's preconditioner, positive definite with T, still solves it on
    # its natural PCG route.
    x, labels, dims = rank_deficient_features(nc, nt, n_epochs)
    assert covest._fft_pays(nc, nt)
    model = fit(x, labels, dims=dims, gamma=0.0)
    shrunk = covest.estimate_covariance(covest.center(x, labels), dims, "toeplitz", gamma=0.0)
    spec, n = btsolve._lag_spectrum(shrunk.matrix)
    eig = np.linalg.eigvalsh(spec[::2])
    assert n == 2 * nt and (eig[:, 0] <= 1e-12 * eig.max()).all()
    monkeypatch.setattr(covest, "_fft_pays", lambda nc, nt: False)
    dense = fit(x, labels, dims=dims, gamma=0.0).weights
    assert np.linalg.norm(model.weights - dense) <= 1e-8 * np.linalg.norm(dense)


@pytest.mark.parametrize("gamma", [None, 0.0])
def test_a_pcg_fit_solves_the_spectrum_of_its_cross_spectrum(monkeypatch, gamma):
    # A lone toeplitz fit on the PCG route hands the operator spectrum it
    # builds from the packed cross-spectrum to the solve: no inverse FFT of
    # the cross-spectrum, no lag blocks transformed again, and T. Chan's
    # preconditioner, shrunk or not.
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(covest.scipy.fftpack, "irfft")
    spy(btsolve, "_lag_spectrum")
    spy(btsolve, "_chan_preconditioner")
    spy(btsolve, "_pcg_solve")
    x, labels, dims = rank_deficient_features(8, 64, 9)
    fit(x, labels, dims=dims, gamma=gamma)
    assert calls == ["_pcg_solve", "_chan_preconditioner"]


@pytest.mark.parametrize(
    ("nc", "nt", "n_epochs", "gamma"),
    [
        (8, 64, 9, 1e-6), (16, 64, 12, 1e-6), (31, 32, 32, 1e-6), (31, 100, 24, 1e-4),
        (8, 64, 9, 1e-3), (31, 100, 24, 1e-3), (8, 64, 48, 0.0),
    ],
)
def test_a_pcg_fit_with_few_epochs_and_little_shrinkage_matches_the_dense_route(
    monkeypatch, nc, nt, n_epochs, gamma
):
    # With N_e - 2 < n_channels and a small given gamma the circulant of the
    # operator spectrum's even frequencies is nearly singular, and PCG
    # preconditioned by it does not converge in 1000 iterations on the
    # first four, and takes 279 and 904 on the next two.  T. Chan's circulant
    # is positive definite with T.  The last case is unshrunk at full rank.
    # A relative error of 1e-8 is C1's bound.
    x, labels, dims = rank_deficient_features(nc, nt, n_epochs)
    assert covest._fft_pays(nc, nt)
    w = fit(x, labels, dims=dims, gamma=gamma).weights
    monkeypatch.setattr(covest, "_fft_pays", lambda nc, nt: False)
    dense = fit(x, labels, dims=dims, gamma=gamma).weights
    assert np.linalg.norm(w - dense) <= 1e-8 * np.linalg.norm(dense)


@pytest.mark.parametrize(("nc", "nt"), [(8, 101), (16, 67), (31, 97)])
def test_pcg_fit_matches_the_dense_route_where_the_embedding_is_padded(monkeypatch, nc, nt):
    # At these n_times the embedding is longer than 2 n_times, so zero
    # blocks lie between the lags and their transposes in the operator
    # spectrum.  A relative error of 1e-8 is C1's bound.
    assert blockmat._embedding_length(nt) // 2 > nt
    x, labels, dims = labeled_features(nc, nt, 48, seed=nt)
    routes = []
    real = btsolve._fit_solve

    def solve(*args):
        report = real(*args)
        routes.append(report.method)
        return report

    monkeypatch.setattr(btsolve, "_fit_solve", solve)
    w = fit(x, labels, dims=dims).weights
    monkeypatch.setattr(covest, "_fft_pays", lambda nc, nt: False)
    dense = fit(x, labels, dims=dims).weights
    assert routes == ["pcg", "dense"]
    assert np.linalg.norm(w - dense) <= 1e-8 * np.linalg.norm(dense)


def test_a_lone_toeplitz_fit_holds_no_centred_copy(monkeypatch):
    # Only the dense estimators read a centred copy of the data.  A lone
    # toeplitz fit on the direct route centres its data into the lag sums'
    # own buffer: when they start, it holds no D x N_e array beyond x.
    x, labels, dims = labeled_features(8, 20, 96, seed=5)
    held = []
    real = covest._lag_sums_direct

    def lag_sums(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return real(*args)

    monkeypatch.setattr(covest, "_lag_sums_direct", lag_sums)
    traced_peak(lambda: fit(x, labels, dims=dims, estimator="toeplitz"))
    assert len(held) == 1 and held[0] < x.nbytes / 4


@pytest.mark.parametrize("route", sorted(ROUTE_SIZES))
def test_singular_unshrunk_toeplitz_fit_raises_solve_error(route):
    x, labels, dims = label_channel_features(*ROUTE_SIZES[route])
    assert covest._fft_pays(dims.n_channels, dims.n_times) == (route == "pcg")
    with pytest.raises(SolveError):
        fit(x, labels, dims=dims, estimator="toeplitz", gamma=0.0)
    # With shrinkage the same data fits.
    assert np.isfinite(fit(x, labels, dims=dims, estimator="toeplitz").weights).all()


def column_strided(x):
    """``x`` as every other column of a C-ordered buffer twice as wide."""
    wide = np.zeros((x.shape[0], 2 * x.shape[1]))
    wide[:, ::2] = x
    return wide[:, ::2]


def fortran_row_strided(x):
    """``x`` as every other row of an F-ordered buffer twice as tall."""
    return np.asfortranarray(np.repeat(x, 2, axis=0))[::2]


def fortran_column_strided(x):
    """``x`` as every other column of an F-ordered buffer twice as wide."""
    return np.asfortranarray(np.repeat(x, 2, axis=1))[:, ::2]


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("far", [False, True])
@pytest.mark.parametrize(("estimator", "use_fft"), [("toeplitz", False), ("toeplitz", True),
                                                    ("slda", False), ("toeplitz_a2_only", False)])
@pytest.mark.parametrize("cov_mode", lda.COV_MODES)
@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray, column_strided,
                                    fortran_row_strided, fortran_column_strided])
def test_fit_equals_the_estimate_and_solve_of_its_centred_data(
    monkeypatch, layout, flip, cov_mode, estimator, use_fft, far, chunked
):
    # The fit never writes its centred data as a whole: each kernel centres
    # and prescales its own chunk, or, on data of one chunk, one copy.  The
    # reference centres the data with covest.center, prescales it by the
    # largest centred entry, and runs the public estimate and solve.  The
    # centred values are the same bits, the lag sums run the same products
    # on the same buffers, and gamma's Gram sums the same chunks: the fit's
    # copy and chunk buffers take the stride order of x, and so does the
    # array covest.center writes, whose views the reference's Gram takes.
    # At N_e = 42 >= D = 15 the dense estimators' S is that Gram, which on
    # data of one chunk is the reference's product of the whole array.
    # The fit prescales by 2 to 4 times max|x| instead, a power of two
    # apart, which is exact.  So gamma is equal bit for bit, on every layout,
    # and so are the weights but on the FFT route, where the fit's toeplitz
    # estimate is the operator spectrum that PCG solves and the reference's
    # the lag blocks of its inverse transform, which _fit_solve expands and
    # factors; with far-apart class means and per-row offsets the two
    # exponents differ.
    x, labels, dims = labeled_features(3, 5, 42, seed=21)
    if far:
        rng = np.random.default_rng(21)
        x = (x + 2.0**12 * np.outer(rng.standard_normal(dims.size), labels)
             + 2.0**20 * rng.standard_normal((dims.size, 1)))
    x = layout(x)
    labels = 1 - labels if flip else labels
    if chunked:
        small_chunks(monkeypatch, 3, x.shape[1], dims.size)
    monkeypatch.setattr(covest, "_fft_pays", lambda nc, nt: use_fft)
    model = fit(x, labels, dims=dims, estimator=estimator, cov_mode=cov_mode)

    centred = covest.center(x, labels if cov_mode == "within" else None)
    exp = int(np.frexp(np.abs(centred).max())[1])
    if far:
        assert exp != int(np.frexp(np.abs(x).max())[1]) + 1
    shrunk = covest.estimate_covariance(np.ldexp(centred, -exp), dims, estimator)
    stats = covest.class_means(x, labels)
    delta = np.ldexp(stats.means[1] - stats.means[0], -exp)
    w = np.ldexp(btsolve._fit_solve(shrunk.matrix, delta, False).solution, -exp)
    assert model.gamma == shrunk.gamma
    if chunked and estimator in covest._DENSE:
        # S is gamma's Gram summed over 14 chunks of 3 epochs, the
        # reference's one product: 1.9e-14 apart at most, at cond 352.
        assert np.linalg.norm(model.weights - w) <= 1e-12 * np.linalg.norm(w)
    elif use_fft:
        # PCG on the fit's operator spectrum, built from the packed
        # cross-spectrum, to a relative residual of 1e-12, against the dense
        # Cholesky solve of the estimate's lag blocks: the same system to
        # rounding.
        assert np.linalg.norm(model.weights - w) <= 1e-10 * np.linalg.norm(w)
    else:
        assert np.array_equal(model.weights, w)


@pytest.mark.parametrize("cov_mode", lda.COV_MODES)
@pytest.mark.parametrize("estimator", covest.ESTIMATORS)
def test_fit_checks_its_data_once(monkeypatch, estimator, cov_mode):
    # fit reads x through _finite_array once and then calls covest's
    # unchecked cores, which scan neither x nor anything centred from it.
    x, labels, dims = labeled_features(3, 5, 42, seed=12)
    names = []
    real = blockmat._finite_array

    def spy(values, shape, name):
        a = np.asarray(values)
        if a.ndim == 2 and a.shape[1] == x.shape[1]:
            names.append(name)
        return real(values, shape, name)

    for module in (blockmat, covest, btsolve, lda):
        monkeypatch.setattr(module, "_finite_array", spy)
    fit(x, labels, dims=dims, estimator=estimator, cov_mode=cov_mode)
    assert names == ["x"]


@pytest.mark.parametrize("route", sorted(ROUTE_SIZES))
@pytest.mark.parametrize("estimator", covest.ESTIMATORS)
def test_fit_reads_no_array_it_made(monkeypatch, estimator, route):
    # The class means, lag blocks, right-hand side and weights a fit makes
    # are wrapped as made: the only arrays _finite_array reads are the
    # caller's data and mean override.
    x, labels, dims = labeled_features(*ROUTE_SIZES[route], 42, seed=12)
    override = covest.class_means(x, labels)
    names = []
    real = blockmat._finite_array

    def spy(values, shape, name):
        names.append(name)
        return real(values, shape, name)

    for module in (blockmat, covest, btsolve, lda):
        monkeypatch.setattr(module, "_finite_array", spy)
    fit(x, labels, dims=dims, estimator=estimator)
    fit(x, labels, dims=dims, estimator=estimator, mean_override=override)
    assert names == ["x", "x", "mean_override"]


def small_chunks(monkeypatch, n_rows_or_epochs, n, d):
    """Chunk constants so that every pass over a ``d x n`` matrix takes several chunks.

    A row chunk then holds ``n_rows_or_epochs`` rows when ``n < d`` (the
    Gram's rows), an epoch chunk that many epochs when ``n >= d``, and an
    FFT chunk that many epochs; the data is too large to be centred once.
    """
    monkeypatch.setattr(blockmat, "_CHUNK_BYTES", 8 * min(n, d) * n_rows_or_epochs)
    monkeypatch.setattr(covest, "_FFT_EPOCHS", n_rows_or_epochs)


@pytest.mark.parametrize("cov_mode", lda.COV_MODES)
@pytest.mark.parametrize("estimator", ["toeplitz", "toeplitz_a1_only"])
@settings(max_examples=25, deadline=None)
@given(
    nc=st.integers(1, 3),
    nt=st.integers(2, 8),
    n=st.integers(8, 40),
    per_chunk=st.integers(1, 3),
    use_fft=st.booleans(),
    override=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_multi_chunk_fit_matches_the_stage_by_stage_dense_oracle(
    estimator, cov_mode, nc, nt, n, per_chunk, use_fft, override, seed
):
    # At test sizes every pass fits in one chunk; here the chunk constants
    # are patched so that each pass centres its own chunks, and the Gram of
    # gamma and the FFT lag sums cross several, the last one usually ragged.
    dims = BlockDims(nc, nt)
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    shift = np.outer(rng.standard_normal(dims.size), labels)
    x = rng.standard_normal((dims.size, n)) + 0.5 * shift + rng.standard_normal((dims.size, 1))
    cov = stage_by_stage_covariance(x, labels, dims, estimator, cov_mode)
    assume(np.linalg.cond(cov) < 1e8)
    stats = covest.class_means(x, labels)
    if override:
        stats = ClassStats(stats.means + 0.1 * rng.standard_normal(stats.means.shape))
    oracle = np.linalg.solve(cov, stats.means[1] - stats.means[0])
    # Unlabelled when the override makes labels unnecessary.
    fit_labels = None if override and cov_mode == "global" else labels
    with pytest.MonkeyPatch.context() as patch:
        small_chunks(patch, per_chunk, n, dims.size)
        patch.setattr(covest, "_fft_pays", lambda nc, nt: use_fft)
        w = fit(x, fit_labels, dims=dims, estimator=estimator, cov_mode=cov_mode,
                mean_override=stats if override else None).weights
    cos = w @ oracle / (np.linalg.norm(w) * np.linalg.norm(oracle))
    assert cos >= 1.0 - 1e-10


@settings(max_examples=150, deadline=None)
@given(
    nc=st.integers(1, 4),
    nt=st.integers(1, 8),
    n=st.integers(4, 40),
    cov_mode=st.sampled_from(lda.COV_MODES),
    override=st.booleans(),
    gamma=st.one_of(st.none(), st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    layout=st.sampled_from([np.ascontiguousarray, np.asfortranarray]),
    per_chunk=st.one_of(st.none(), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
)
@example(nc=4, nt=8, n=12, cov_mode="within", override=False, gamma=None,
         layout=np.ascontiguousarray, per_chunk=2, seed=0)  # the Gram route, chunked
@example(nc=2, nt=3, n=40, cov_mode="global", override=True, gamma=1.0,
         layout=np.asfortranarray, per_chunk=None, seed=1)  # the dense route
@example(nc=2, nt=3, n=40, cov_mode="within", override=False, gamma=None,
         layout=np.ascontiguousarray, per_chunk=2, seed=2)  # the D-square Gram, chunked
def test_slda_fit_matches_the_dense_oracle_on_either_side_of_n_equals_d(
    nc, nt, n, cov_mode, override, gamma, layout, per_chunk, seed
):
    # The fit solves through gamma's Gram: N_e-square below N_e = D
    # (Woodbury), D-square from D on (the estimate itself); the oracle always
    # shrinks and solves the dense S.  per_chunk patches the chunk constants so that the
    # Gram and the products with the centred data cross several row chunks.
    dims = BlockDims(nc, nt)
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    shift = np.outer(rng.standard_normal(dims.size), labels)
    x = rng.standard_normal((dims.size, n)) + 0.5 * shift + rng.standard_normal((dims.size, 1))
    stats = covest.class_means(x, labels)
    if override:
        stats = ClassStats(stats.means + 0.1 * rng.standard_normal(stats.means.shape))
    cond = np.linalg.cond(slda_estimate(x, labels, dims, cov_mode, gamma).matrix.data)
    assume(cond < 1e8)
    oracle = slda_weights(x, labels, dims, cov_mode, gamma, stats)
    fit_labels = None if override and cov_mode == "global" else labels
    with pytest.MonkeyPatch.context() as patch:
        if per_chunk is not None:
            small_chunks(patch, per_chunk, n, dims.size)
        w = fit(layout(x), fit_labels, dims=dims, estimator="slda", cov_mode=cov_mode,
                mean_override=stats if override else None, gamma=gamma).weights
    # Both routes are backward stable, so each is within about eps * cond of
    # the exact weights, the oracle included: at cond 8.2e7 (gamma = 6e-8,
    # N_e = 4 < D = 6) a 50-digit solve put the oracle 8.1e-10 and the fit
    # 1.9e-9 from it.  So the bound is 1e-10 up to cond 1e5, and grows with
    # cond beyond.
    tol = max(1e-10, 1e-15 * cond)
    assert np.linalg.norm(w - oracle) <= tol * np.linalg.norm(oracle)


@pytest.mark.parametrize("cov_mode", lda.COV_MODES)
@pytest.mark.parametrize(("nc", "nt", "n"), [(1, 8, 6), (2, 10, 12), (4, 10, 24), (8, 20, 96)])
def test_unshrunk_slda_below_n_equals_d_raises_on_both_routes(nc, nt, n, cov_mode):
    # With gamma = 0 and N_e < D the estimate has rank below D: the dense
    # chain's Cholesky fails, and the Gram route has no ridge to divide by.
    x, labels, dims = labeled_features(nc, nt, n, seed=n)
    assert n < dims.size
    with pytest.raises(SolveError):
        slda_weights(x, labels, dims, cov_mode, gamma=0.0)
    with pytest.raises(SolveError):
        fit(x, labels, dims=dims, estimator="slda", cov_mode=cov_mode, gamma=0.0)


@pytest.mark.parametrize("gamma", [None, 0.5])
@pytest.mark.parametrize("n", [6, 42, 48, 54, 96])
def test_slda_solves_through_the_gram_on_both_sides_of_n_equals_d(monkeypatch, n, gamma):
    # At 4 x 12, D = 48.  Below N_e = D slda's estimate is gamma's Gram,
    # solved by Woodbury; from D on both dense estimators are BlockCovs cut
    # from the Gram itself, which the dense route factors in place.  Only
    # slda below D ever takes the Woodbury route.
    solved, grams = {}, []
    real_solve, real_gram = btsolve._fit_solve, covest._gram

    def gram(centred):
        result = real_gram(centred)
        grams.append(result[0])
        return result

    def solve(cov, *args):
        report = real_solve(cov, *args)
        solved[estimator] = cov, report.method, list(grams)
        return report

    monkeypatch.setattr(covest, "_gram", gram)
    monkeypatch.setattr(btsolve, "_fit_solve", solve)
    x, labels, dims = labeled_features(4, 12, n, seed=n)
    for estimator in covest.ESTIMATORS:
        grams.clear()
        fit(x, labels, dims=dims, estimator=estimator, gamma=gamma)
    below = n < dims.size
    for estimator, (cov, route, _) in solved.items():
        woodbury = estimator == "slda" and below
        assert isinstance(cov, covest._GramCov) == woodbury
        assert (route == "woodbury") == woodbury
    if not below:
        for estimator in ("slda", "toeplitz_a2_only"):
            cov, route, (gram,) = solved[estimator]
            assert type(cov) is BlockCov and route == "dense"
            assert np.shares_memory(cov.data, gram)


def test_a_many_epoch_slda_fit_holds_less_than_its_data():
    # At 8 x 8 with N_e = 4096 the data is 2 MiB, two 1 MiB epoch chunks:
    # slda solves gamma's 64-square Gram in place and writes no centred copy.
    dims = BlockDims(8, 8)
    rng = np.random.default_rng(8)
    labels = np.arange(4096) % 2
    x = rng.standard_normal((dims.size, 4096)) + 0.5 * np.outer(
        rng.standard_normal(dims.size), labels
    )
    assert x.nbytes == 2 * blockmat._CHUNK_BYTES
    peak = traced_peak(lambda: fit(x, labels, dims=dims, estimator="slda")).peak
    assert peak < x.nbytes, f"peak {peak / 2**20:.2f} MiB"


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


def test_fit_reaches_covest_and_btsolve_only_through_their_fit_entries():
    # fit checks its arguments, makes one call to estimate and one to solve,
    # and keeps the LDA algebra: the stages' internals stay in their modules.
    used = set()
    for node in ast.walk(ast.parse(Path(lda.__file__).read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("covest", "btsolve") and node.attr.startswith("_")):
            used.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("covest", "btsolve"):
            used.update(f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_"))
    assert used == {"covest._fit_estimate", "covest._check_estimator", "covest._check_epochs",
                    "covest._unit_gamma", "btsolve._fit_solve"}


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


def test_global_fit_without_epochs_raises_shape_error_before_any_reduction():
    # An empty mean or range would warn (an error under the test settings)
    # or raise a bare ValueError before the epoch count is checked.
    x, labels, dims = labeled_features(2, 3, 36, seed=6)
    stats = covest.class_means(x, labels)
    for n in (0, 1):
        with pytest.raises(ShapeError, match="at least 2 epochs"):
            fit(x[:, :n], None, dims=dims, cov_mode="global", mean_override=stats)


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
    real = covest._class_means  # the means product, which fit calls

    def counting(x, indicator, shift):
        # A two-row one-hot indicator takes the class means; the one-row
        # overall mean of a global fit goes through the same product.
        if indicator.shape[0] == 2:
            calls.append(1)
        return real(x, indicator, shift)

    monkeypatch.setattr(covest, "_class_means", counting)
    fit(x, labels if expected else None, dims=dims, cov_mode=cov_mode,
        mean_override=stats)
    assert len(calls) == expected


@pytest.mark.parametrize("override", [False, True])
def test_within_class_fit_checks_the_labels_once(monkeypatch, override):
    x, labels, dims = labeled_features(2, 3, 36, seed=6)
    stats = covest.class_means(x, labels) if override else None
    calls = []
    real = blockmat._check_labels

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (blockmat, covest, lda):
        monkeypatch.setattr(module, "_check_labels", counting)
    fit(x, labels, dims=dims, cov_mode="within", mean_override=stats)
    assert len(calls) == 1


def test_long_window_toeplitz_fit_forms_no_dense_covariance():
    # At 8 x 2048, D = 16384: one D x D float64 matrix would take 2 GiB.  The
    # lag-block estimate needs chunk buffers below the data's size (the fit
    # centres each chunk in place and makes no centred copy), the PCG solve
    # a few 8 x 8 blocks per frequency.
    for n_times in (1024, 2048):
        dims = BlockDims(8, n_times)
        rng = np.random.default_rng(0)
        labels = np.arange(48) % 2
        x = rng.standard_normal((dims.size, 48)) + 0.5 * np.outer(
            rng.standard_normal(dims.size), labels
        )
        scores, peak, _ = traced_peak(
            lambda: decision_values(fit(x, labels, dims=dims, estimator="toeplitz"), x))
        assert peak <= 3 * x.nbytes, f"n_times {n_times}: peak {peak / 2**20:.1f} MiB"
        assert scores[labels == 1].mean() > scores[labels == 0].mean()


@pytest.mark.parametrize("gamma", [None, 0.0])
@pytest.mark.parametrize(
    ("nc", "nt", "n", "bound"),
    [(31, 100, 192, 0.6), (8, 512, 96, 1.25), (31, 1000, 96, 1.5)],
    ids=["31-100-192", "8-512-96", "31-1000-96"],
)
def test_toeplitz_fit_holds_little_beyond_its_data(nc, nt, n, bound, gamma):
    # The perfbench fit-paper and fit-long shapes, and a long window on few
    # epochs, shrunk by the Ledoit-Wolf gamma and unshrunk.  No D x N_e
    # array is written: the passes over the data centre chunks of at most
    # blockmat._CHUNK_BYTES, or of 32 epochs for the FFT.  No lag block is
    # formed: the peak is the packed cross-spectrum beside the FFT chunk
    # buffer and slices of frequencies, or the operator spectrum beside T.
    # Chan's preconditioner of half its size, built over slices of channel
    # rows.  At 31 x 100 the peak read 0.560 x the data (2.55 MiB) at
    # either gamma; the bound leaves 7% over it.
    dims = BlockDims(nc, nt)
    rng = np.random.default_rng(0)
    labels = np.arange(n) % 6 == 0
    x = rng.standard_normal((dims.size, n)) + 0.5 * np.outer(
        rng.standard_normal(dims.size), labels
    )
    peak = traced_peak(
        lambda: fit(x, labels.astype(int), dims=dims, estimator="toeplitz", gamma=gamma)).peak
    assert peak <= bound * x.nbytes, f"peak {peak / x.nbytes:.2f} x the data"


@pytest.mark.parametrize("estimator", ["slda", "toeplitz_a2_only"])
def test_dense_fit_holds_one_dense_covariance(monkeypatch, estimator):
    # At 8 x 128, D = 1024: one D x D float64 matrix is 8 MiB, the D x N_e
    # data 0.4 MiB.  toeplitz_a2_only factors the fit's own estimate in
    # place instead of a copy of it.  slda, with N_e < D, solves through
    # gamma's 48-square Gram and forms no D x D array.  Data of one chunk is
    # centred once into a copy; with four chunks, the Gram route centres
    # each chunk in one buffer and holds less than the data.
    dims = BlockDims(8, 128)
    rng = np.random.default_rng(0)
    labels = np.arange(48) % 2
    x = rng.standard_normal((dims.size, 48)) + 0.5 * np.outer(
        rng.standard_normal(dims.size), labels
    )
    if estimator == "slda":
        monkeypatch.setattr(blockmat, "_CHUNK_BYTES", x.nbytes // 4)
    peak = traced_peak(lambda: fit(x, labels, dims=dims, estimator=estimator)).peak
    bound = x.nbytes if estimator == "slda" else 1.25 * dims.size**2 * 8
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB"


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
    model, peak, _ = traced_peak(lambda: fit(x, labels, dims=dims, estimator="toeplitz_a1_only"))
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
    real_cholesky, real_solve = btsolve._solve_in_place, scipy.linalg.solve

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

    monkeypatch.setattr(btsolve, "_solve_in_place", cholesky)
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


def fail_the_indefinite_solve(monkeypatch):
    def solve(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(scipy.linalg, "solve", solve)
    return "toeplitz_a1_only", 0


def overflow_the_weights(monkeypatch):
    # A finite solution of 2**1000 on data of 2**-60: undoing the prescale
    # by 2**exp (exp about -57) leaves the float range.
    def solve(cov, b, maybe_indefinite):
        return btsolve.SolveReport(np.full_like(b, 2.0**1000), "dense", True)

    monkeypatch.setattr(btsolve, "_fit_solve", solve)
    return "toeplitz", -60


@pytest.mark.parametrize(
    ("inject", "message"),
    [(fail_the_indefinite_solve, "^symmetric indefinite solve failed: injected$"),
     (overflow_the_weights, "^the weights overflow at the scale of the data$")],
    ids=["indefinite-solve-fails", "weights-overflow"],
)
def test_a_fit_reports_a_failed_solve_as_solve_error(monkeypatch, inject, message):
    x, labels, dims = indefinite_fit_data()
    estimator, log2_scale = inject(monkeypatch)
    with pytest.raises(SolveError, match=message):
        fit(np.ldexp(x, log2_scale), labels, dims=dims, estimator=estimator)


# ------------------------------------------------------ scale equivariance

SCALE_DATA = labeled_features(4, 5, 60, seed=0)
# N_e < D: slda solves through gamma's Gram.
WIDE_SCALE_DATA = labeled_features(4, 10, 24, seed=0)


@pytest.mark.parametrize("estimator", ["toeplitz", "slda"])
@settings(max_examples=40, deadline=None)
@given(k=st.integers(-600, 600))
def test_power_of_two_scaling_scales_weights_exactly(estimator, k):
    alpha = 2.0**k
    for x, labels, dims in (SCALE_DATA, WIDE_SCALE_DATA):
        base = fit(x, labels, dims=dims, estimator=estimator)
        scaled = fit(alpha * x, labels, dims=dims, estimator=estimator)
        assert np.array_equal(scaled.weights, base.weights / alpha)
        assert scaled.bias == base.bias
        assert scaled.gamma == base.gamma


@pytest.mark.parametrize("use_fft", [False, True])
@pytest.mark.parametrize("k", [-600, 600])
def test_power_of_two_scaling_is_exact_across_chunks(monkeypatch, k, use_fft):
    monkeypatch.setattr(covest, "_fft_pays", lambda nc, nt: use_fft)
    for (x, labels, dims), estimator in ((SCALE_DATA, "toeplitz"), (WIDE_SCALE_DATA, "slda")):
        with pytest.MonkeyPatch.context() as patch:
            small_chunks(patch, 3, x.shape[1], dims.size)
            base = fit(x, labels, dims=dims, estimator=estimator)
            scaled = fit(2.0**k * x, labels, dims=dims, estimator=estimator)
        assert np.array_equal(scaled.weights, base.weights / 2.0**k)
        assert scaled.bias == base.bias
        assert scaled.gamma == base.gamma


@pytest.mark.parametrize("cov_mode", lda.COV_MODES)
@pytest.mark.parametrize("estimator", covest.ESTIMATORS)
@pytest.mark.parametrize("k", [1018, 1019])
def test_power_of_two_scaling_is_exact_at_the_top_of_the_float_range(estimator, cov_mode, k):
    # Positive data: a row of the 40 epochs sums to about 2**6.3 times 2**k,
    # beyond the largest float, and one class of 20 to 2**(k + 5.3), beyond
    # it at 2**1019.  The means are summed under 2**-exp, the power of two
    # the fit divides the centred data by.
    rng = np.random.default_rng(3)
    dims = BlockDims(3, 5)
    x = 2.0 + 0.5 * rng.standard_normal((dims.size, 40))
    labels = np.arange(40) % 2
    assert np.log2(x.sum(axis=1).max()) + k > 1024
    base = fit(x, labels, dims=dims, estimator=estimator, cov_mode=cov_mode)
    scaled = fit(np.ldexp(x, k), labels, dims=dims, estimator=estimator, cov_mode=cov_mode)
    assert np.array_equal(scaled.weights, np.ldexp(base.weights, -k))
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
    path.write_text("[1, 2]")
    with pytest.raises(DataFormatError, match="not a JSON object"):
        load_model(path)


@pytest.mark.parametrize(
    ("field", "value", "error"),
    [
        ("bias", float("nan"), DataFormatError),
        ("bias", float("inf"), DataFormatError),
        ("bias", "0.25", DataFormatError),
        ("estimator", "bogus", ValueError),
        ("cov_mode", "x", ValueError),
        ("gamma", 7.0, ValueError),
        ("gamma", float("nan"), ValueError),
        ("gamma", None, ValueError),
        ("well_conditioned", "no", ValueError),
        ("degenerate", 1, ValueError),
    ],
)
def test_model_constructs_only_what_load_model_reads(field, value, error):
    # save_model would write each of these, and load_model reject the file.
    fields = dict(weights=np.zeros(4), bias=0.0, dims=BlockDims(2, 2), estimator="slda",
                  cov_mode="within", gamma=0.5)
    with pytest.raises(error, match=field):
        LdaModel(**{**fields, field: value})
    LdaModel(**fields)


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
    with pytest.raises(DataFormatError, match="labels"):
        covest.class_means(x, fractional)
    with pytest.raises(DataFormatError, match="labels"):
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
