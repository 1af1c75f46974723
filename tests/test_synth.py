"""Synthetic data generator: analytic covariance, determinism, labeling."""


from unittest import mock

import numpy as np
import pytest

from toeplitzlda import blockmat, rng, synth
from toeplitzlda.blockmat import BlockDims, to_dense
from toeplitzlda.errors import DataFormatError, GroupSizeError, ShapeError
from toeplitzlda.synth import ErpSpec, NoiseModel

from conftest import traced_peak

# First four doubles of the (seed=0, substream=0) stream; frozen from the
# documented counter-based generator layout.
STREAM_0_0_HEAD = np.array(
    [
        0.15929546600623282,
        -1.7741885208017214,
        1.3265118818830892,
        1.2048090979493156,
    ]
)


def flatten_epochs(epochs):
    return np.stack([ep.T.ravel() for ep in epochs.data], axis=1)


def brute_force_lag_blocks(model: NoiseModel, n_times: int) -> np.ndarray:
    """Autocorrelation of the FIR taps, expanded lag by lag in plain loops."""
    nc, ns = model.n_channels, model.n_sources
    fir = model.temporal_fir
    length = fir.shape[1]
    lags = np.zeros((n_times, nc, nc))
    for d in range(n_times):
        for s in range(ns):
            r = 0.0
            for k in range(length - d):
                r += fir[s, k] * fir[s, k + d]
            lags[d] += r * np.outer(model.spatial_mix[:, s], model.spatial_mix[:, s])
    lags[0] += model.noise_floor**2 * np.eye(nc)
    return lags


# --------------------------------------------------- analytic covariance

def test_single_tap_filter_gives_white_process():
    model = NoiseModel(spatial_mix=np.eye(2), temporal_fir=np.array([1.0]),
                       noise_floor=0.0)
    cov = synth.true_covariance(model, BlockDims(2, 4))
    assert np.allclose(cov.lag_blocks[0], np.eye(2), atol=1e-15)
    assert np.allclose(cov.lag_blocks[1:], 0.0, atol=1e-15)


def test_single_tap_filter_with_floor_adds_identity():
    mix = np.array([[1.0, 0.5], [-0.25, 2.0]])
    model = NoiseModel(spatial_mix=mix, temporal_fir=np.array([1.0]),
                       noise_floor=0.7)
    cov = synth.true_covariance(model, BlockDims(2, 3))
    assert np.allclose(cov.lag_blocks[0], mix @ mix.T + 0.49 * np.eye(2),
                       atol=1e-14)
    assert np.allclose(cov.lag_blocks[1:], 0.0, atol=1e-15)


def test_two_tap_filter_scalar_autocorrelation():
    # taps [1, 1]: r(0) = 2, r(1) = 1, r(d >= 2) = 0
    model = NoiseModel(spatial_mix=np.array([[1.0]]),
                       temporal_fir=np.array([1.0, 1.0]), noise_floor=0.0)
    cov = synth.true_covariance(model, BlockDims(1, 4))
    assert cov.lag_blocks[:, 0, 0].tolist() == [2.0, 1.0, 0.0, 0.0]


def test_analytic_covariance_matches_brute_force_loops():
    rng_ = np.random.default_rng(5)
    model = NoiseModel(
        spatial_mix=rng_.standard_normal((3, 2)),
        temporal_fir=rng_.standard_normal((2, 4)),
        noise_floor=0.3,
    )
    cov = synth.true_covariance(model, BlockDims(3, 6))
    assert np.allclose(cov.lag_blocks, brute_force_lag_blocks(model, 6),
                       atol=1e-12)


def test_true_covariance_is_positive_definite_with_floor():
    dims = BlockDims(3, 5)
    dense = to_dense(synth.true_covariance(synth.default_noise_model(dims), dims))
    assert np.linalg.eigvalsh(dense.data).min() > 0


def test_empirical_covariance_converges_to_analytic():
    dims = BlockDims(2, 6)
    model = NoiseModel(
        spatial_mix=np.array([[1.0, 0.4], [-0.3, 0.9]]),
        temporal_fir=np.array([[1.0, 0.6, 0.2], [0.8, -0.5, 0.1]]),
        noise_floor=0.4,
    )
    epochs = synth.generate_noise(model, 20_000, dims, seed=3)
    x = flatten_epochs(epochs)
    xc = x - x.mean(axis=1, keepdims=True)
    emp = xc @ xc.T / (x.shape[1] - 1)
    true = to_dense(synth.true_covariance(model, dims)).data
    rel = np.linalg.norm(emp - true) / np.linalg.norm(true)
    assert rel < 0.05


def test_empirical_block_diagonal_scatter_shrinks_with_more_epochs():
    # Every diagonal block estimates the same matrix, so their spread
    # around the common mean must fall as the epoch count grows.
    dims = BlockDims(2, 5)
    model = synth.default_noise_model(dims)

    def diag_scatter(n):
        x = flatten_epochs(synth.generate_noise(model, n, dims, seed=21))
        xc = x - x.mean(axis=1, keepdims=True)
        emp = xc @ xc.T / (n - 1)
        nc = dims.n_channels
        blocks = [emp[i * nc:(i + 1) * nc, i * nc:(i + 1) * nc]
                  for i in range(dims.n_times)]
        mean = np.mean(blocks, axis=0)
        return max(np.linalg.norm(b - mean) for b in blocks)

    assert diag_scatter(8000) < diag_scatter(200)


# ----------------------------------------------------------- generation

def test_noise_is_bit_deterministic_in_seed():
    dims = BlockDims(3, 7)
    model = synth.default_noise_model(dims)
    a = synth.generate_noise(model, 12, dims, seed=42)
    b = synth.generate_noise(model, 12, dims, seed=42)
    c = synth.generate_noise(model, 12, dims, seed=43)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_each_epoch_has_its_own_stream():
    # Epoch k is the same array no matter how many epochs are requested.
    dims = BlockDims(2, 4)
    model = synth.default_noise_model(dims)
    short = synth.generate_noise(model, 3, dims, seed=7)
    long = synth.generate_noise(model, 10, dims, seed=7)
    assert np.array_equal(short.data, long.data[:3])


def test_trivial_model_exposes_raw_stream_values():
    # mix=[[1]], one-tap filter, no floor: epoch 0 is exactly the first
    # n_times draws of the (seed, 0) stream.
    model = NoiseModel(spatial_mix=np.array([[1.0]]),
                       temporal_fir=np.array([1.0]), noise_floor=0.0)
    epochs = synth.generate_noise(model, 1, BlockDims(1, 4), seed=0)
    assert np.array_equal(epochs.data[0, 0], STREAM_0_0_HEAD)


def test_generated_epochs_carry_metadata():
    dims = BlockDims(3, 5)
    epochs = synth.generate_noise(synth.default_noise_model(dims), 4, dims,
                                  seed=0, sfreq=100.0, t0=0.25)
    assert epochs.data.shape == (4, 3, 5)
    assert epochs.sfreq == 100.0
    assert epochs.t0 == 0.25
    assert epochs.channel_names == ("c00", "c01", "c02")
    assert epochs.labels is None


def test_epoch_data_is_read_only():
    dims = BlockDims(1, 2)
    epochs = synth.generate_noise(synth.default_noise_model(dims), 1, dims, seed=0)
    with pytest.raises(ValueError):
        epochs.data[0, 0, 0] = 1.0
    labeled = synth.inject_erp(synth.generate_noise(synth.default_noise_model(dims), 6, dims,
                                                    seed=0), zero_spec(1, 2), seed=0)
    for array in (labeled.data, labeled.labels):
        with pytest.raises(ValueError):
            array[0] = 1


def per_epoch_noise(model: NoiseModel, n_epochs: int, dims: BlockDims, seed: int) -> np.ndarray:
    """The generator one epoch and one source at a time: the reference that
    the blocked generator must equal bit for bit."""
    nc, nt = dims.n_channels, dims.n_times
    ns, length = model.n_sources, model.fir_length
    data = np.empty((n_epochs, nc, nt))
    filtered = np.empty((ns, nt))
    for e in range(n_epochs):
        gen = rng.stream(seed, e)
        white = gen.standard_normal((ns, nt + length - 1))
        for s in range(ns):
            filtered[s] = np.convolve(white[s], model.temporal_fir[s], mode="valid")
        data[e] = model.spatial_mix @ filtered
        if model.noise_floor > 0:
            data[e] += model.noise_floor * gen.standard_normal((nc, nt))
    return data


def block_epochs(model, dims):
    """Epochs in a full block of ``generate_noise``: the first slice that
    ``_slices`` cuts with the epoch size and budget the generator hands it,
    out of more epochs than the budget holds."""
    calls = []

    def spy(size, item_bytes, budget=None):
        calls.append((item_bytes, budget))
        return blockmat._slices(size, item_bytes, budget)

    with mock.patch.object(synth, "_slices", spy):
        synth.generate_noise(model, 1, dims, seed=0)
    [(item_bytes, budget)] = calls
    return blockmat._slices(budget // item_bytes + 1, item_bytes, budget)[0].stop


@pytest.mark.parametrize("count", ["one", "block-1", "block+1"])
@pytest.mark.parametrize("noise_floor", [0.0, 0.5])
@pytest.mark.parametrize("fir_length", [1, 2, 8, 40])
@pytest.mark.parametrize("taps", ["distinct", "runs"])
def test_blocked_generator_equals_the_per_epoch_loop(taps, fir_length, noise_floor, count):
    # Distinct taps per source, or a run of two sources sharing taps before
    # a third, and a square mixing matrix of full rank (so a zero floor is
    # allowed); the counts put the last block one short of full, or one
    # epoch into a second block.
    dims = BlockDims(3, 5)
    draws = np.random.default_rng(fir_length)
    fir = draws.standard_normal((3, fir_length))
    if taps == "runs":
        fir[1] = fir[0]
    model = NoiseModel(spatial_mix=draws.standard_normal((3, 3)) + 3 * np.eye(3),
                       temporal_fir=fir, noise_floor=noise_floor)
    block = block_epochs(model, dims)
    n_epochs = {"one": 1, "block-1": block - 1, "block+1": block + 1}[count]
    epochs = synth.generate_noise(model, n_epochs, dims, seed=11)
    assert epochs.data.tobytes() == per_epoch_noise(model, n_epochs, dims, seed=11).tobytes()


def test_generator_holds_its_output_and_one_block():
    dims = BlockDims(8, 64)
    model = synth.default_noise_model(dims)
    n_epochs = 4 * block_epochs(model, dims) + 3
    epochs, peak, _ = traced_peak(lambda: synth.generate_noise(model, n_epochs, dims, seed=1))
    extra = peak - epochs.data.nbytes
    # 64 KiB for the streams and the other small objects of a call.
    assert extra <= blockmat._CHUNK_BYTES + (64 << 10), f"{extra / 2**20:.2f} MiB beyond the output"


def test_non_finite_noise_and_injection_are_rejected():
    # Finite parameters whose products overflow.
    dims = BlockDims(1, 3)
    huge = NoiseModel(spatial_mix=np.array([[1e308]]), temporal_fir=np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(DataFormatError, match="non-finite"):
        synth.generate_noise(huge, 6, dims, seed=0)
    loud = NoiseModel(spatial_mix=np.array([[1e307]]), temporal_fir=np.array([1.0]))
    noise = synth.generate_noise(loud, 6, dims, seed=0)
    spec = ErpSpec(target_template=np.full((1, 3), np.finfo(float).max),
                   nontarget_template=np.full((1, 3), np.finfo(float).max))
    with np.errstate(over="ignore"), pytest.raises(DataFormatError, match="non-finite"):
        synth.inject_erp(noise, spec, seed=0)


# ------------------------------------------------------- erp injection

def zero_spec(nc, nt):
    z = np.zeros((nc, nt))
    return ErpSpec(target_template=z, nontarget_template=z)


def test_zero_templates_leave_data_unchanged_but_label():
    dims = BlockDims(2, 3)
    noise = synth.generate_noise(synth.default_noise_model(dims), 12, dims, seed=1)
    labeled = synth.inject_erp(noise, zero_spec(2, 3), seed=1)
    assert np.array_equal(labeled.data, noise.data)
    assert labeled.labels is not None and labeled.labels.shape == (12,)


def test_every_group_of_six_has_exactly_one_target():
    dims = BlockDims(1, 2)
    noise = synth.generate_noise(synth.default_noise_model(dims), 60, dims, seed=2)
    labeled = synth.inject_erp(noise, zero_spec(1, 2), seed=5)
    groups = labeled.labels.reshape(10, 6)
    assert np.array_equal(groups.sum(axis=1), np.ones(10, dtype=np.uint8))


def test_six_epochs_get_exactly_one_target():
    dims = BlockDims(1, 2)
    noise = synth.generate_noise(synth.default_noise_model(dims), 6, dims, seed=2)
    labeled = synth.inject_erp(noise, zero_spec(1, 2), seed=0)
    assert labeled.labels.sum() == 1


def test_labels_are_deterministic_in_seed():
    dims = BlockDims(1, 2)
    noise = synth.generate_noise(synth.default_noise_model(dims), 48, dims, seed=2)
    a = synth.inject_erp(noise, zero_spec(1, 2), seed=9)
    b = synth.inject_erp(noise, zero_spec(1, 2), seed=9)
    c = synth.inject_erp(noise, zero_spec(1, 2), seed=10)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, c.labels)


def test_injection_adds_each_epoch_its_class_template():
    dims = BlockDims(2, 3)
    noise = synth.generate_noise(synth.default_noise_model(dims), 12, dims, seed=3)
    spec = synth.default_erp_spec(dims)
    labeled = synth.inject_erp(noise, spec, seed=3)
    expect = noise.data.copy()
    expect[labeled.labels == 0] += spec.nontarget_template
    expect[labeled.labels == 1] += spec.target_template
    assert labeled.data.tobytes() == expect.tobytes()


def test_injection_shifts_class_means_by_template_difference():
    # Low-variance noise so the empirical class-mean difference pins down
    # the injected templates to within three standard errors.
    dims = BlockDims(2, 4)
    model = NoiseModel(spatial_mix=0.05 * np.eye(2),
                       temporal_fir=np.array([1.0]), noise_floor=0.01)
    spec = ErpSpec(
        target_template=np.full((2, 4), 0.8),
        nontarget_template=np.full((2, 4), 0.2),
    )
    noise = synth.generate_noise(model, 600, dims, seed=4)
    labeled = synth.inject_erp(noise, spec, seed=4)
    tgt = labeled.data[labeled.labels == 1]
    non = labeled.data[labeled.labels == 0]
    diff = tgt.mean(axis=0) - non.mean(axis=0)
    se = np.sqrt(tgt.var(axis=0).max() / len(tgt) + non.var(axis=0).max() / len(non))
    assert np.abs(diff - 0.6).max() < 3 * se


def test_group_size_must_divide_epoch_count():
    dims = BlockDims(1, 2)
    noise = synth.generate_noise(synth.default_noise_model(dims), 7, dims, seed=0)
    with pytest.raises(GroupSizeError):
        synth.inject_erp(noise, zero_spec(1, 2), seed=0)


def test_template_shape_must_match_epochs():
    dims = BlockDims(2, 3)
    noise = synth.generate_noise(synth.default_noise_model(dims), 6, dims, seed=0)
    with pytest.raises(ShapeError):
        synth.inject_erp(noise, zero_spec(2, 4), seed=0)


# ------------------------------------------------------------- defaults

def test_default_spec_shapes_and_ratio():
    dims = BlockDims(4, 10)
    spec = synth.default_erp_spec(dims)
    assert spec.target_template.shape == (4, 10)
    assert spec.nontarget_template.shape == (4, 10)
    assert synth.TARGET_RATIO == (1, 5)
    # The late response distinguishes the classes.
    assert not np.allclose(spec.target_template, spec.nontarget_template)


def test_default_spec_scale_is_linear():
    dims = BlockDims(3, 8)
    base = synth.default_erp_spec(dims, scale=1.0)
    double = synth.default_erp_spec(dims, scale=2.0)
    assert np.allclose(double.target_template, 2.0 * base.target_template)
    assert np.allclose(double.nontarget_template, 2.0 * base.nontarget_template)


# ------------------------------------------------------------ validation

def test_model_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        NoiseModel(spatial_mix=np.ones(3), temporal_fir=np.array([1.0]))
    with pytest.raises(ShapeError):
        NoiseModel(spatial_mix=np.eye(2),
                   temporal_fir=np.ones((3, 2)))  # wrong source count
    with pytest.raises(ShapeError, match="at least one tap"):
        NoiseModel(spatial_mix=np.eye(2), temporal_fir=np.zeros((2, 0)))
    with pytest.raises(ShapeError):
        NoiseModel(spatial_mix=np.eye(2), temporal_fir=np.array([1.0]),
                   noise_floor=-0.1)


@pytest.mark.parametrize("floor", [np.nan, np.inf, -np.inf])
def test_model_rejects_a_non_finite_noise_floor(floor):
    # A NaN floor would drop the sensor noise (floor > 0 is False) unnoticed.
    with pytest.raises(DataFormatError, match="noise_floor"):
        NoiseModel(spatial_mix=np.eye(2), temporal_fir=np.array([1.0]), noise_floor=floor)


def test_zero_floor_needs_full_row_rank_mixing():
    with pytest.raises(ShapeError):
        NoiseModel(spatial_mix=np.ones((2, 1)), temporal_fir=np.array([1.0]),
                   noise_floor=0.0)
    # Full row rank is fine.
    NoiseModel(spatial_mix=np.eye(2), temporal_fir=np.array([1.0]),
               noise_floor=0.0)


def test_generator_validates_inputs():
    dims = BlockDims(2, 3)
    model = synth.default_noise_model(dims)
    with pytest.raises(ShapeError):
        synth.generate_noise(model, 0, dims, seed=0)
    with pytest.raises(ShapeError):
        synth.generate_noise(model, 4, BlockDims(3, 3), seed=0)
    with pytest.raises(ShapeError):
        synth.true_covariance(model, BlockDims(3, 3))


def test_spec_rejects_mismatched_templates():
    with pytest.raises(ShapeError):
        ErpSpec(target_template=np.zeros((2, 3)),
                nontarget_template=np.zeros((2, 4)))
