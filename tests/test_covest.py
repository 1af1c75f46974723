"""Centering, sample covariance, shrinkage, and the structured estimator."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toeplitzlda import blockmat, covest, synth
from toeplitzlda.blockmat import (
    BlockCov,
    BlockDims,
    apply_taper,
    apply_taper_dense,
    block_diagonal_average,
    to_dense,
)
from toeplitzlda.covest import (
    ClassStats,
    center,
    class_means,
    estimate_covariance,
    ledoit_wolf_gamma,
    sample_covariance,
    shrink,
)
from toeplitzlda.errors import DataFormatError, ShapeError

from conftest import traced_peak
from dense_reference import cross_spectrum, lag_sums_fft


def flatten_epochs(epochs):
    """Channel-prime feature columns from an (n_e, n_c, n_t) tensor."""
    return np.stack([ep.T.ravel() for ep in epochs.data], axis=1)


def brute_force_covariance(xc):
    """Double-loop sample covariance of centered columns, divisor n-1."""
    d, n = xc.shape
    out = np.zeros((d, d))
    for k in range(n):
        for i in range(d):
            for j in range(d):
                out[i, j] += xc[i, k] * xc[j, k]
    return out / (n - 1)


def brute_force_lw_gamma(xc):
    """Independent shrinkage-intensity computation.

    beta^2 = (1/n^2) sum_k ||x_k x_k^T - S||_F^2 (centered columns x_k,
    S the divisor-n sample covariance), capped by delta^2 = ||S - nu I||_F^2;
    gamma = beta^2 / delta^2 clipped to [0, 1].
    """
    d, n = xc.shape
    s = (xc @ xc.T) / n
    nu = np.trace(s) / d
    delta2 = np.sum((s - nu * np.eye(d)) ** 2)
    beta2 = 0.0
    for k in range(n):
        outer = np.outer(xc[:, k], xc[:, k])
        beta2 += np.sum((outer - s) ** 2)
    beta2 /= n * n
    if delta2 == 0.0:
        return 0.0
    return float(min(1.0, max(0.0, beta2 / delta2)))


# ------------------------------------------------------------- centering

def test_global_centering_zeroes_constant_data():
    x = np.full((3, 5), 7.0)
    assert np.allclose(center(x), 0.0, atol=1e-15)


def test_class_centering_zeroes_each_class_mean():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 10))
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
    xc = center(x, labels=labels)
    scale = np.abs(x).max()
    for cls in (0, 1):
        assert np.abs(xc[:, labels == cls].mean(axis=1)).max() < 1e-10 * scale


def test_global_vs_class_centering_differ_by_class_mean_offsets():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 8))
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    xg = center(x)
    xk = center(x, labels=labels)
    stats = class_means(x, labels)
    grand = x.mean(axis=1)
    for cls in (0, 1):
        offset = stats.means[cls] - grand
        diff = xg[:, labels == cls] - xk[:, labels == cls]
        assert np.allclose(diff, offset[:, None], rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 12),
    n=st.integers(2, 400),
    log_scale=st.sampled_from([-200, 0, 200]),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_means_equal_per_class_means_to_rounding(d, n, log_scale, seed):
    # Class sums are one product with the one-hot indicator instead of a
    # mean over a copy of each class, so the summation order differs.  Each
    # of the two is a sum of n_k terms of size at most max|x|, so they agree
    # within 2 n_k u max|x| (u = eps / 2), in units of max|x| n_k eps.
    rng = np.random.default_rng(seed)
    x = 10.0**log_scale * (rng.standard_normal((d, n)) + rng.uniform(-100, 100, (d, 1)))
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    got = class_means(x, labels).means
    scale = np.abs(x).max()
    eps = np.finfo(float).eps
    for k in (0, 1):
        ref = x[:, labels == k].mean(axis=1)
        n_k = int((labels == k).sum())
        assert np.abs(got[k] - ref).max() <= n_k * eps * scale
    # The overall mean is the same product with a row of ones: the means
    # agree within n eps max|x|, and each of the two subtractions rounds a
    # value of at most 2 max|x|, by at most eps max|x|.
    ref = x - x.mean(axis=1, keepdims=True)
    assert np.abs(center(x) - ref).max() <= (n + 1) * eps * scale


def test_class_means_without_labels_is_a_shape_error():
    # Not an AttributeError from the missing class means.
    with pytest.raises(ShapeError, match="labels have shape"):
        class_means(np.ones((4, 6)), None)


@pytest.mark.parametrize("labels", [None, np.zeros(0, dtype=int)])
def test_center_without_epochs_names_the_epoch_count(labels):
    # Raised before any reduction, which would warn of an empty mean.
    with pytest.raises(ShapeError, match="0 epochs"):
        center(np.zeros((4, 0)), labels)


@pytest.mark.parametrize("k", [1018, 1019])
def test_means_scale_exactly_at_the_top_of_the_float_range(k):
    # A row of 40 positive entries near 2**(k + 1) sums beyond the largest
    # float; the class and overall means are summed under 2**-exp, where
    # 2**exp is 2 to 4 times max|x|.
    rng = np.random.default_rng(3)
    x = 2.0 + 0.5 * rng.standard_normal((15, 40))
    labels = np.arange(40) % 2
    assert np.log2(x.sum(axis=1).max()) + k > 1024
    scaled = np.ldexp(x, k)
    assert np.array_equal(class_means(scaled, labels).means,
                          np.ldexp(class_means(x, labels).means, k))
    assert np.array_equal(center(scaled, labels), np.ldexp(center(x, labels), k))
    assert np.array_equal(center(scaled), np.ldexp(center(x), k))


@pytest.mark.parametrize(
    "means",
    [
        [["0", "1", "2"], ["0", "1", "2"]],
        np.zeros((2, 3), dtype=bool),
    ],
    ids=["string-means", "bool-means"],
)
def test_class_stats_reject_values_a_cast_would_change(means):
    with pytest.raises(DataFormatError):
        ClassStats(means)


def test_center_rejects_label_length_mismatch():
    with pytest.raises(ShapeError):
        center(np.zeros((2, 4)), labels=np.array([0, 1]))


# ------------------------------------------------------ sample covariance

def test_sample_covariance_of_zeros_is_zero():
    dims = BlockDims(2, 2)
    s = sample_covariance(np.zeros((4, 5)), dims)
    assert np.array_equal(s.data, np.zeros((4, 4)))


def test_sample_covariance_scalar_divisor_is_n_minus_1():
    dims = BlockDims(1, 1)
    s = sample_covariance(np.array([[-1.0, 1.0]]), dims)
    assert s.data[0, 0] == 2.0


def test_sample_covariance_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    dims = BlockDims(2, 3)
    xc = center(rng.standard_normal((6, 20)))
    s = sample_covariance(xc, dims)
    expect = brute_force_covariance(xc)
    err = np.abs(s.data - expect).max() / np.abs(expect).max()
    assert err < 1e-12


def test_sample_covariance_is_positive_semidefinite():
    rng = np.random.default_rng(3)
    dims = BlockDims(3, 2)
    xc = center(rng.standard_normal((6, 4)))  # rank deficient on purpose
    s = sample_covariance(xc, dims)
    eigs = np.linalg.eigvalsh(s.data)
    assert eigs.min() >= -1e-10 * np.abs(s.data).max()


def test_sample_covariance_requires_two_epochs():
    with pytest.raises(ShapeError):
        sample_covariance(np.zeros((2, 1)), BlockDims(1, 2))


# -------------------------------------------------------------- shrinkage

def test_shrink_gamma_zero_returns_input():
    rng = np.random.default_rng(4)
    dims = BlockDims(2, 2)
    xc = center(rng.standard_normal((4, 9)))
    s = sample_covariance(xc, dims)
    res = shrink(s, 0.0)
    assert np.array_equal(res.matrix.data, s.data)
    assert res.gamma == 0.0


def test_shrink_gamma_one_returns_scaled_identity():
    rng = np.random.default_rng(5)
    dims = BlockDims(2, 2)
    xc = center(rng.standard_normal((4, 9)))
    s = sample_covariance(xc, dims)
    res = shrink(s, 1.0)
    nu = np.trace(s.data) / 4
    assert np.allclose(res.matrix.data, nu * np.eye(4), rtol=0, atol=1e-15)
    assert res.nu == pytest.approx(nu, rel=1e-15)


def test_identity_is_a_fixed_point_of_analytic_shrinkage():
    dims = BlockDims(2, 1)
    xc = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
    s = BlockCov(dims=dims, data=np.eye(2))
    res = shrink(s, None, xc)
    assert np.allclose(res.matrix.data, np.eye(2), rtol=0, atol=1e-14)


def test_shrink_preserves_trace():
    rng = np.random.default_rng(6)
    dims = BlockDims(3, 2)
    xc = center(rng.standard_normal((6, 12)))
    s = sample_covariance(xc, dims)
    for gamma in (None, 0.3, 0.9):
        res = shrink(s, gamma, xc)
        assert np.trace(res.matrix.data) == pytest.approx(
            np.trace(s.data), rel=1e-12
        )


def test_analytic_gamma_matches_independent_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        xc = center(rng.standard_normal((5, 14)))
        assert ledoit_wolf_gamma(xc) == pytest.approx(
            brute_force_lw_gamma(xc), rel=1e-10
        )


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 24),
    n=st.integers(2, 40),
    log_scale=st.sampled_from([-50, 0, 50]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=1, n=2, log_scale=0, seed=0)
@example(d=1, n=2, log_scale=50, seed=1)
@example(d=20, n=3, log_scale=-50, seed=2)
@example(d=3, n=40, log_scale=50, seed=3)
def test_analytic_gamma_matches_oracle_on_either_side_of_n_equals_d(d, n, log_scale, seed):
    # The intensity is computed from the smaller of the N_e x N_e and D x D
    # products; the oracle always forms the D x D covariance.
    rng = np.random.default_rng(seed)
    mix = rng.standard_normal((d, d)) * rng.uniform(0.1, 3.0, size=d)
    xc = center(10.0**log_scale * (mix @ rng.standard_normal((d, n))))
    assert abs(ledoit_wolf_gamma(xc) - brute_force_lw_gamma(xc)) <= 1e-12


@pytest.mark.parametrize("shape", [(12, 30), (30, 12)])
def test_analytic_gamma_is_scale_free_over_the_float_range(shape):
    # The intensity sums fourth powers of the data; unscaled they overflow
    # from about 2**255 and underflow below about 2**-255.
    rng = np.random.default_rng(9)
    xc = center(np.geomspace(0.1, 10.0, shape[0])[:, None] * rng.standard_normal(shape))
    gamma = ledoit_wolf_gamma(xc)
    assert 0.0 < gamma < 1.0
    for k in (-300, 300):
        assert ledoit_wolf_gamma(xc * 2.0**k) == gamma
    dims = BlockDims(shape[0], 1)
    for estimator in covest.ESTIMATORS:
        assert estimate_covariance(xc * 2.0**300, dims, estimator).gamma == gamma


def test_zero_feature_rows_raise_shape_error():
    # An empty Gram would give gamma = nan with RuntimeWarnings, which the
    # test settings turn into errors: a ShapeError shows none escapes.
    with pytest.raises(ShapeError, match="0 rows"):
        ledoit_wolf_gamma(np.zeros((0, 5)))
    s = BlockCov(dims=BlockDims(1, 2), data=np.eye(2))
    with pytest.raises(ShapeError, match="0 rows"):
        shrink(s, centered=np.zeros((0, 5)))


def test_gamma_gram_holds_at_most_two_arrays_of_its_size(monkeypatch):
    # N_e >= D: the Gram is D x D, summed over 5 chunks of 80 epochs.  Each
    # chunk's product is let go once it is added, so the sum holds the
    # running Gram and one product beside the chunk (here a view of x).
    d, n, per_chunk = 300, 400, 80
    xc = center(np.random.default_rng(0).standard_normal((d, n)))
    monkeypatch.setattr(blockmat, "_CHUNK_BYTES", 8 * d * per_chunk)
    assert len(blockmat._slices(n, 8 * d, blockmat._CHUNK_BYTES)) >= 3
    gamma, peak, _ = traced_peak(lambda: ledoit_wolf_gamma(xc))
    assert gamma == ledoit_wolf_gamma(xc)
    bound = 1.05 * (2 * 8 * d * d + blockmat._CHUNK_BYTES)
    assert peak <= bound, f"peak {peak / (8 * d * d):.2f} Grams"


def test_analytic_gamma_grows_when_samples_shrink():
    # Anisotropic truth: with ample data the sample covariance is trusted
    # (small gamma); starved of data the intensity rises.
    rng = np.random.default_rng(8)
    mix = np.diag([4.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05, 0.02])
    x = mix @ rng.standard_normal((8, 400))
    g_small = ledoit_wolf_gamma(center(x[:, :12]))
    g_large = ledoit_wolf_gamma(center(x))
    assert 0.0 <= g_large < g_small <= 1.0


def test_shrink_rejects_gamma_outside_unit_interval():
    s = BlockCov(dims=BlockDims(1, 2), data=np.eye(2))
    with pytest.raises(ValueError):
        shrink(s, -0.1)
    with pytest.raises(ValueError):
        shrink(s, 1.5)
    with pytest.raises(ValueError, match="either gamma or the centered data"):
        shrink(s)


# ------------------------------------------------------ internal producers

@settings(max_examples=50, deadline=None)
@given(
    nc=st.integers(1, 4),
    nt=st.integers(1, 6),
    n=st.integers(2, 30),
    gamma=st.one_of(st.none(), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_producers_return_read_only_exactly_symmetric_data(nc, nt, n, gamma, seed):
    dims = BlockDims(nc, nt)
    rng = np.random.default_rng(seed)
    xc = center(rng.standard_normal((dims.size, n)) * rng.uniform(0.1, 5.0))
    sample = sample_covariance(xc, dims)
    shrunk = shrink(sample, gamma, xc).matrix
    produced = [
        sample.data,
        shrunk.data,
        apply_taper_dense(shrunk).data,
        to_dense(block_diagonal_average(shrunk)).data,
    ]
    for a in produced:
        assert not a.flags.writeable
        assert np.array_equal(a, a.T)


def test_sample_covariance_of_strided_view_is_exactly_symmetric():
    # A column-strided view of this size makes numpy's product asymmetric
    # in the last bits; the producer must still hand out an exact S = S^T.
    dims = BlockDims(30, 10)
    xc = center(np.random.default_rng(5).standard_normal((dims.size, 10)))[:, ::2]
    s = sample_covariance(xc, dims).data
    assert np.array_equal(s, s.T)
    assert np.array_equal(s, sample_covariance(xc.copy(), dims).data)


# ------------------------------------------------------- class covariances

def within_class_cov(x, labels, dims):
    return sample_covariance(center(x, labels=labels), dims)


def global_cov(x, dims):
    return sample_covariance(center(x), dims)


def test_within_class_cov_of_per_class_constants_is_zero():
    x = np.array([[1.0, 1.0, 5.0, 5.0], [2.0, 2.0, -3.0, -3.0]])
    labels = np.array([0, 0, 1, 1])
    w = within_class_cov(x, labels, BlockDims(1, 2))
    assert np.allclose(w.data, 0.0, atol=1e-15)


def test_within_class_cov_equals_sample_cov_of_class_centered_data():
    # Oracle: subtract each class mean by hand, then the double-loop sum.
    rng = np.random.default_rng(9)
    dims = BlockDims(2, 3)
    x = rng.standard_normal((6, 15))
    labels = (np.arange(15) % 3 == 0).astype(int)
    manual = x.copy()
    for cls in (0, 1):
        manual[:, labels == cls] -= x[:, labels == cls].mean(axis=1)[:, None]
    w = within_class_cov(x, labels, dims)
    expect = brute_force_covariance(manual)
    assert np.abs(w.data - expect).max() < 1e-12 * np.abs(expect).max()


def test_within_class_cov_ignores_injected_mean_shift():
    rng = np.random.default_rng(10)
    dims = BlockDims(2, 2)
    errs = []
    for seed in range(20):
        gen = np.random.default_rng(seed)
        noise = gen.standard_normal((4, 300))
        labels = (np.arange(300) % 6 == 0).astype(int)
        shift = np.array([3.0, -2.0, 1.0, 0.5])
        x = noise + np.outer(shift, labels)
        w = within_class_cov(x, labels, dims)
        noise_cov = sample_covariance(center(noise, labels=labels), dims)
        errs.append(
            np.linalg.norm(w.data - noise_cov.data) / np.linalg.norm(noise_cov.data)
        )
    # class-centering removes the shift exactly; both sides see the same noise
    assert max(errs) < 1e-12


def test_within_class_cov_requires_two_classes():
    with pytest.raises(ShapeError):
        within_class_cov(np.zeros((2, 4)), np.zeros(4, dtype=int), BlockDims(1, 2))


def test_global_cov_decomposes_into_within_plus_mean_shift_term():
    rng = np.random.default_rng(11)
    dims = BlockDims(2, 3)
    for seed in range(5):
        gen = np.random.default_rng(seed)
        n = 30
        x = gen.standard_normal((6, n)) + gen.standard_normal((6, 1))
        labels = (gen.random(n) < 0.3).astype(int)
        if labels.sum() in (0, n):
            labels[:2] = [0, 1]
        g = global_cov(x, dims)
        w = within_class_cov(x, labels, dims)
        stats = class_means(x, labels)
        delta = stats.means[1] - stats.means[0]
        p1 = (labels == 0).mean()
        p2 = (labels == 1).mean()
        expect = w.data + p1 * p2 * np.outer(delta, delta) * (n / (n - 1))
        err = np.abs(g.data - expect).max() / np.abs(g.data).max()
        assert err < 1e-10


def test_global_cov_on_single_class_equals_within_centering():
    # Both classes share one mean, so global and class centering coincide.
    rng = np.random.default_rng(12)
    dims = BlockDims(2, 2)
    half = rng.standard_normal((4, 5))
    x = np.concatenate([half, 2.0 * half], axis=1)
    x[:, 5:] -= x[:, 5:].mean(axis=1)[:, None] - half.mean(axis=1)[:, None]
    labels = np.repeat([0, 1], 5)
    g = global_cov(x, dims)
    w = within_class_cov(x, labels, dims)
    assert np.allclose(g.data, w.data, rtol=0, atol=1e-14)


def test_global_cov_of_precentered_input_is_stable_under_recentering():
    rng = np.random.default_rng(13)
    dims = BlockDims(2, 2)
    xc = center(rng.standard_normal((4, 9)))
    assert np.allclose(
        global_cov(xc, dims).data,
        sample_covariance(xc, dims).data,
        rtol=0,
        atol=1e-14,
    )


# ------------------------------------------------- structured estimator

def test_structured_estimate_approaches_true_covariance():
    # Correlation length (2-tap filter) far below the window length, so the
    # taper leaves the populated lags essentially untouched and the averaged
    # estimate converges to the analytic covariance.
    dims = BlockDims(2, 32)
    model = synth.NoiseModel(
        spatial_mix=np.array([[1.0, 0.3], [0.2, 0.8]]),
        temporal_fir=np.array([[1.0, 0.6], [1.0, 0.6]]),
        noise_floor=0.3,
    )
    epochs = synth.generate_noise(model, 4000, dims, seed=0)
    x = flatten_epochs(epochs)
    labels = (np.arange(4000) % 6 == 0).astype(int)
    est = estimate_covariance(center(x, labels=labels), dims, "toeplitz").matrix
    true = synth.true_covariance(model, dims)
    err = np.linalg.norm(
        to_dense(est).data - to_dense(true).data
    ) / np.linalg.norm(to_dense(true).data)
    assert err < 0.05


def test_structured_estimate_single_time_sample_is_shrunk_spatial_cov():
    rng = np.random.default_rng(14)
    dims = BlockDims(4, 1)
    x = rng.standard_normal((4, 50))
    labels = (np.arange(50) % 2).astype(int)
    xc = center(x, labels=labels)
    est = estimate_covariance(xc, dims, "toeplitz").matrix
    expect = shrink(sample_covariance(xc, dims), None, xc)
    assert np.allclose(
        est.lag_blocks[0], expect.matrix.data, rtol=0, atol=1e-14
    )


def test_ablation_variants_produce_three_distinct_matrices():
    # Correlated noise keeps the off-diagonal lag blocks nonzero, so the
    # averaging-only, taper-only, and combined matrices genuinely differ.
    dims = BlockDims(2, 4)
    epochs = synth.generate_noise(synth.default_noise_model(dims), 40, dims, seed=15)
    x = flatten_epochs(epochs)
    labels = (np.arange(40) % 2).astype(int)
    xc = center(x, labels=labels)
    shrunk = shrink(sample_covariance(xc, dims), None, xc)
    averaged = to_dense(block_diagonal_average(shrunk.matrix)).data
    tapered_only = apply_taper_dense(shrunk.matrix).data
    both = to_dense(estimate_covariance(xc, dims, "toeplitz").matrix).data
    assert not np.allclose(averaged, tapered_only)
    assert not np.allclose(averaged, both)
    assert not np.allclose(tapered_only, both)


def dense_pipeline_cases(test):
    """Shapes, intensities, memory layouts and data scales of the oracle tests.

    Data at 2**+-300 puts S at 2**+-600 and the fourth powers that the
    Ledoit-Wolf intensity sums beyond the float range.
    """
    for case in (
        dict(nc=4, nt=24, n=40, gamma=None, layout="C", log2_scale=-300, seed=4),
        dict(nc=4, nt=24, n=40, gamma=None, layout="C", log2_scale=300, seed=3),
        dict(nc=2, nt=3, n=40, gamma=None, layout="strided", log2_scale=0, seed=2),
        dict(nc=5, nt=24, n=3, gamma=None, layout="F", log2_scale=0, seed=1),
        dict(nc=1, nt=1, n=2, gamma=None, layout="C", log2_scale=0, seed=0),
    ):
        test = example(**case)(test)
    test = given(
        nc=st.integers(1, 5),
        nt=st.integers(1, 24),
        n=st.integers(2, 40),
        gamma=st.one_of(st.none(), st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        layout=st.sampled_from(["C", "F", "strided"]),
        log2_scale=st.sampled_from([-300, 0, 300]),
        seed=st.integers(0, 2**32 - 1),
    )(test)
    return settings(max_examples=150, deadline=None)(test)


def pipeline_data(nc, nt, n, layout, log2_scale, seed):
    """Centered ``D x n`` data in the given layout, scaled by ``2**log2_scale``."""
    dims = BlockDims(nc, nt)
    rng = np.random.default_rng(seed)
    x = center(rng.standard_normal((dims.size, n)) * 10.0 ** rng.uniform(-3, 3))
    x *= 2.0**log2_scale
    xc = {
        "C": x,
        "F": np.asfortranarray(x),
        "strided": np.repeat(x, 2, axis=1)[:, ::2],
    }[layout]
    return dims, xc


@dense_pipeline_cases
def test_averaged_estimators_match_the_dense_pipeline(
    nc, nt, n, gamma, layout, log2_scale, seed
):
    # The lag path never forms S; the oracle shrinks S, averages its block
    # diagonals and (for `toeplitz`) tapers them.  Both lag-sum kernels run
    # on every example.
    dims, xc = pipeline_data(nc, nt, n, layout, log2_scale, seed)
    s = sample_covariance(xc, dims)
    shrunk = shrink(s, gamma, xc)
    averaged = block_diagonal_average(shrunk.matrix)
    oracles = {"toeplitz": apply_taper(averaged), "toeplitz_a1_only": averaged}
    for use_fft in (False, True):
        with mock.patch.object(covest, "_fft_pays", lambda nc, nt: use_fft):
            for estimator, oracle in oracles.items():
                est = estimate_covariance(xc, dims, estimator, gamma)
                assert est.gamma == shrunk.gamma
                assert abs(est.nu - shrunk.nu) <= 1e-14 * shrunk.nu
                err = np.abs(est.matrix.lag_blocks - oracle.lag_blocks).max()
                assert err <= 1e-12 * np.abs(s.data).max()


@dense_pipeline_cases
def test_dense_estimators_equal_the_dense_pipeline_bit_for_bit(
    nc, nt, n, gamma, layout, log2_scale, seed
):
    # estimate_covariance shrinks and tapers S in place; the oracle runs the
    # stages one copy at a time, in the same order.
    dims, xc = pipeline_data(nc, nt, n, layout, log2_scale, seed)
    shrunk = shrink(sample_covariance(xc, dims), gamma, xc)
    oracles = {"slda": shrunk.matrix, "toeplitz_a2_only": apply_taper_dense(shrunk.matrix)}
    for estimator, oracle in oracles.items():
        est = estimate_covariance(xc, dims, estimator, gamma)
        assert est.gamma == shrunk.gamma
        assert est.nu == shrunk.nu
        assert np.array_equal(est.matrix.data, oracle.data)
        assert not est.matrix.data.flags.writeable


@pytest.mark.parametrize("estimator", ["slda", "toeplitz_a2_only"])
def test_dense_estimate_holds_one_dense_matrix(estimator):
    # The chain's stages each return a fresh D x D; shrinking and tapering in
    # place leaves the product's buffer as the only one.
    dims = BlockDims(8, 64)
    xc = center(np.random.default_rng(0).standard_normal((dims.size, 96)))
    peak = traced_peak(lambda: estimate_covariance(xc, dims, estimator)).peak
    one = dims.size**2 * 8
    assert peak < 1.25 * one, f"peak {peak / one:.3f} x D x D"


@pytest.mark.parametrize(
    ("nc", "nt", "kernel"),
    [
        (8, 20, "_lag_sums_direct"),  # perfbench sweep-cli
        (31, 100, "_cross_spectrum"),  # perfbench fit-paper
        (8, 512, "_cross_spectrum"),  # perfbench fit-long
    ],
)
def test_lag_sum_kernel_follows_the_size_rule(nc, nt, kernel):
    dims = BlockDims(nc, nt)
    xc = center(np.random.default_rng(0).standard_normal((dims.size, 4)))
    with mock.patch.object(covest, kernel, wraps=getattr(covest, kernel)) as spy:
        estimate_covariance(xc, dims, "toeplitz")
    assert spy.call_count == 1


@settings(max_examples=150, deadline=None)
@given(
    nc=st.integers(1, 5),
    nt=st.integers(1, 24),
    n=st.integers(2, 40),
    per_slice=st.integers(1, 7),
    within=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(nc=1, nt=1, n=2, per_slice=1, within=False, seed=0)  # no interior frequency
@example(nc=3, nt=1, n=5, per_slice=3, within=True, seed=1)
@example(nc=1, nt=2, n=2, per_slice=1, within=True, seed=2)
@example(nc=4, nt=21, n=37, per_slice=5, within=False, seed=3)  # 23 frequencies, slices of 5
@example(nc=2, nt=16, n=33, per_slice=4, within=True, seed=4)  # 15 frequencies, slices of 4
def test_fft_lag_sums_equal_the_whole_spectrum_oracle(nc, nt, n, per_slice, within, seed):
    # The kernel forms the products over slices of per_slice frequencies;
    # the oracle forms them over all interior frequencies at once.  Every
    # sum runs in the same order, so the packed cross-spectrum and its lag
    # sums are the same bits.
    dims = BlockDims(nc, nt)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dims.size, n)) * rng.uniform(0.1, 5.0)
    labels = (np.arange(n) % 2).astype(np.uint8) if within else None
    centred, _, exp = covest._centring(x, labels, within)
    centred = covest._Centred(x, centred.offsets, centred.indicator, exp)  # as a fit scales it
    most = max(1, min(covest._FFT_EPOCHS, n // 4))  # epochs of the widest chunk
    with mock.patch.object(blockmat, "_SLICE_BYTES", per_slice * 8 * nc * (nc + 2 * most)):
        spec = covest._cross_spectrum(centred, dims)
    assert np.array_equal(spec, cross_spectrum(centred, dims))
    assert np.array_equal(covest._spectrum_lags(spec, nt), lag_sums_fft(centred, dims))


@settings(max_examples=100, deadline=None)
@given(
    nc=st.integers(1, 5),
    nt=st.integers(1, 40),
    n=st.integers(2, 70),
    log2_scale=st.sampled_from([-300, 0, 300]),
    seed=st.integers(0, 2**32 - 1),
)
@example(nc=3, nt=33, n=70, log2_scale=0, seed=0)  # 3 chunks, nfft = 72 > 2 nt
@example(nc=1, nt=1, n=2, log2_scale=300, seed=1)
def test_packed_lag_sums_match_time_domain_lag_sums(nc, nt, n, log2_scale, seed):
    # The lag sums of the packed cross-spectrum against sum_e sum_t x_t
    # x_{t+d}^T, summed in the time domain, lag by lag.
    dims = BlockDims(nc, nt)
    rng = np.random.default_rng(seed)
    xc = center(rng.standard_normal((dims.size, n))) * 2.0**log2_scale
    sums = covest._spectrum_lags(covest._cross_spectrum(covest._Centred(xc), dims), nt)
    epochs = xc.reshape(nt, nc, n)
    brute = np.stack([np.einsum("tie,tje->ij", epochs[: nt - d], epochs[d:]) for d in range(nt)])
    assert np.abs(sums - brute).max() <= 1e-12 * np.abs(brute).max()


@pytest.mark.parametrize(
    ("shape", "gamma", "error"),
    [
        ((6, 5), None, ShapeError),
        ((4, 1), None, ShapeError),
        ((4,), None, ShapeError),
        ((4, 5), -0.1, ValueError),
        ((4, 5), 1.5, ValueError),
        ((4, 5), np.nan, ValueError),
    ],
    ids=["wrong-D", "one-epoch", "1-D", "gamma-below-0", "gamma-above-1", "gamma-nan"],
)
def test_dense_and_lag_paths_raise_the_same_errors(shape, gamma, error):
    messages = set()
    for estimator in covest.ESTIMATORS:
        with pytest.raises(error) as info:
            estimate_covariance(np.ones(shape), BlockDims(2, 2), estimator, gamma)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_tapered_average_with_shrinkage_is_positive_definite():
    # Small-sample case where plain averaging goes indefinite but the
    # tapered version stays factorizable.
    dims = BlockDims(4, 8)
    model = synth.default_noise_model(dims)
    epochs = synth.generate_noise(model, 8, dims, seed=9)
    x = flatten_epochs(epochs)
    xc = center(x)
    shrunk = shrink(sample_covariance(xc, dims), None, xc)
    assert shrunk.gamma > 0.0
    tapered = apply_taper(block_diagonal_average(shrunk.matrix))
    np.linalg.cholesky(to_dense(tapered).data)  # must not raise


def test_plain_average_can_go_indefinite_at_small_sample_counts():
    # Frozen regression case: 8 epochs of the default 4-channel process
    # with seed 9 yield an averaged (untapered) matrix with a negative
    # eigenvalue even though shrinkage was applied first.
    dims = BlockDims(4, 8)
    model = synth.default_noise_model(dims)
    epochs = synth.generate_noise(model, 8, dims, seed=9)
    x = flatten_epochs(epochs)
    xc = center(x)
    shrunk = shrink(sample_covariance(xc, dims), None, xc)
    averaged = to_dense(block_diagonal_average(shrunk.matrix)).data
    assert np.linalg.eigvalsh(averaged).min() < -1e-6
