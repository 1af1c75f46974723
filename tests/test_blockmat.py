"""Channel-prime layout, block-diagonal averaging, tapering, and parameter counting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toeplitzlda.blockmat import (
    BlockCov,
    BlockDims,
    BlockToeplitzCov,
    apply_taper,
    apply_taper_dense,
    block_diagonal_average,
    free_parameter_count,
    to_dense,
)
from toeplitzlda.dataio import Epochs, all_samples
from toeplitzlda.errors import DataFormatError, ShapeError

from dense_reference import block_at, taper_weight


def random_symmetric(rng, d):
    a = rng.standard_normal((d, d))
    return (a + a.T) / 2.0


def random_spd_block_toeplitz(rng, nc, nt, ridge=None):
    """SPD block-Toeplitz matrix built from a random stationary process."""
    dims = BlockDims(nc, nt)
    mix = rng.standard_normal((nc, nc))
    fir = rng.standard_normal(3)
    r = np.correlate(fir, fir, mode="full")[len(fir) - 1:]
    lags = np.zeros((nt, nc, nc))
    for d in range(min(nt, len(r))):
        lags[d] = r[d] * (mix @ mix.T)
    lags[0] += (ridge if ridge is not None else 0.5) * np.eye(nc)
    return BlockToeplitzCov(dims=dims, lag_blocks=lags)


# ---------------------------------------------------------------- layout

@pytest.mark.parametrize(
    ("n_channels", "n_times"),
    [(2.5, 3), (2, 3.0), (True, 3), (2, "3")],
)
def test_block_dims_take_only_integers(n_channels, n_times):
    with pytest.raises(ShapeError, match="integers"):
        BlockDims(n_channels, n_times)


def test_block_dims_accept_numpy_integers():
    assert BlockDims(np.int64(2), np.int32(3)).size == 6


def flatten(epoch):
    """Channel-prime feature vector of one epoch, through feature extraction."""
    nc, nt = epoch.shape
    epochs = Epochs(epoch[None], sfreq=1.0, t0=0.0, channel_names=range(nc))
    return all_samples(epochs, (0.0, float(nt))).data[:, 0]


def test_flatten_channel_prime_interleaves_channels_fastest():
    # epoch rows = channels, columns = time; sample t=0 carries [1, 3]
    epoch = np.array([[1.0, 2.0], [3.0, 4.0]])
    flat = flatten(epoch)
    assert flat.tolist() == [1.0, 3.0, 2.0, 4.0]


def test_flatten_matches_index_law():
    rng = np.random.default_rng(0)
    nc, nt = 3, 5
    epoch = rng.standard_normal((nc, nt))
    flat = flatten(epoch)
    for c in range(nc):
        for t in range(nt):
            assert flat[t * nc + c] == epoch[c, t]


def test_block_at_reads_channel_blocks():
    rng = np.random.default_rng(3)
    dims = BlockDims(2, 3)
    m = random_symmetric(rng, dims.size)
    cov = BlockCov(dims=dims, data=m)
    assert np.array_equal(block_at(cov, 1, 2), m[2:4, 4:6])
    assert np.array_equal(block_at(cov, 0, 0), m[0:2, 0:2])
    with pytest.raises(ShapeError):
        block_at(cov, 0, 3)


# ----------------------------------------------------- averaging and taper

def test_scalar_block_average_frozen_example():
    # nc=1, nt=2, symmetric input [[1,2],[2,4]]:
    #   lag 0 = mean(1, 4) = 2.5, lag 1 = 2.
    dims = BlockDims(1, 2)
    cov = BlockCov(dims=dims, data=np.array([[1.0, 2.0], [2.0, 4.0]]))
    avg = block_diagonal_average(cov)
    assert avg.lag_blocks[0][0, 0] == 2.5
    assert avg.lag_blocks[1][0, 0] == 2.0


def test_average_lag_blocks_are_plain_means_over_each_diagonal():
    rng = np.random.default_rng(4)
    dims = BlockDims(3, 4)
    m = random_symmetric(rng, dims.size)
    cov = BlockCov(dims=dims, data=m)
    avg = block_diagonal_average(cov)
    for d in range(dims.n_times):
        blocks = [block_at(cov, i, i + d) for i in range(dims.n_times - d)]
        expect = np.mean(blocks, axis=0)
        if d == 0:
            expect = (expect + expect.T) / 2.0
        assert np.allclose(avg.lag_blocks[d], expect, rtol=0, atol=1e-13)


def test_average_is_idempotent_on_block_toeplitz_input():
    rng = np.random.default_rng(5)
    btc = random_spd_block_toeplitz(rng, 3, 5)
    again = block_diagonal_average(to_dense(btc))
    assert np.array_equal(again.lag_blocks, btc.lag_blocks)


def test_average_then_taper_equals_diagonal_sum_over_n_times():
    # Composition law: tapered lag block d = (1/N_t) * sum_i block(i, i+d).
    rng = np.random.default_rng(6)
    dims = BlockDims(2, 5)
    m = random_symmetric(rng, dims.size)
    cov = BlockCov(dims=dims, data=m)
    tapered = apply_taper(block_diagonal_average(cov))
    nt = dims.n_times
    for d in range(nt):
        total = sum(block_at(cov, i, i + d) for i in range(nt - d))
        if d == 0:
            total = (total + total.T) / 2.0
        assert np.allclose(tapered.lag_blocks[d], total / nt, rtol=0, atol=1e-12)


def test_taper_weight_values():
    assert taper_weight(0, 4) == 1.0
    assert taper_weight(3, 4) == 0.25
    assert taper_weight(1, 2) == 0.5


def test_taper_keeps_lag0_and_shrinks_blocks_monotonically():
    rng = np.random.default_rng(7)
    btc = random_spd_block_toeplitz(rng, 2, 6)
    tapered = apply_taper(btc)
    assert np.array_equal(tapered.lag_blocks[0], btc.lag_blocks[0])
    norms = [np.linalg.norm(tapered.lag_blocks[d]) for d in range(6)]
    raw = [np.linalg.norm(btc.lag_blocks[d]) for d in range(6)]
    for d in range(1, 6):
        assert norms[d] <= raw[d] + 1e-15
    # weights themselves decay strictly
    weights = [taper_weight(d, 6) for d in range(6)]
    assert weights == sorted(weights, reverse=True)


def test_apply_taper_dense_matches_blockwise_weights():
    rng = np.random.default_rng(8)
    dims = BlockDims(2, 4)
    m = random_symmetric(rng, dims.size)
    tapered = apply_taper_dense(BlockCov(dims=dims, data=m))
    for i in range(dims.n_times):
        for j in range(dims.n_times):
            w = taper_weight(abs(i - j), dims.n_times)
            expect = w * m[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            assert np.allclose(
                tapered.data[2 * i:2 * i + 2, 2 * j:2 * j + 2],
                expect,
                rtol=0,
                atol=1e-14,
            )


# ------------------------------------------------------------- to_dense

def test_to_dense_single_time_sample_equals_lag0():
    dims = BlockDims(3, 1)
    lag0 = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])
    btc = BlockToeplitzCov(dims=dims, lag_blocks=lag0[None])
    assert np.array_equal(to_dense(btc).data, lag0)


def test_to_dense_is_exactly_symmetric():
    rng = np.random.default_rng(9)
    for _ in range(5):
        btc = random_spd_block_toeplitz(rng, 3, 4)
        dense = to_dense(btc).data
        assert np.array_equal(dense, dense.T)


def test_to_dense_places_lag_blocks_on_diagonals():
    rng = np.random.default_rng(10)
    btc = random_spd_block_toeplitz(rng, 2, 4)
    dense = to_dense(btc)
    for i in range(4):
        for j in range(4):
            if j >= i:
                expect = btc.lag_blocks[j - i]
            else:
                expect = btc.lag_blocks[i - j].T
            assert np.array_equal(block_at(dense, i, j), expect)


@settings(max_examples=100, deadline=None)
@given(nc=st.integers(1, 6), nt=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(nc=1, nt=1, seed=0)
@example(nc=1, nt=12, seed=1)
@example(nc=6, nt=1, seed=2)
def test_to_dense_matches_block_by_block_oracle(nc, nt, seed):
    # Asymmetric lags tell L[d] from L[d]^T; the gather copies, so the result
    # is the oracle's bit for bit.
    rng = np.random.default_rng(seed)
    lags = rng.standard_normal((nt, nc, nc))
    lags[0] = (lags[0] + lags[0].T) / 2.0
    btc = BlockToeplitzCov(dims=BlockDims(nc, nt), lag_blocks=lags)
    oracle = np.empty((nc * nt, nc * nt))
    for i in range(nt):
        for j in range(nt):
            block = btc.lag_blocks[j - i] if j >= i else btc.lag_blocks[i - j].T
            oracle[i * nc:(i + 1) * nc, j * nc:(j + 1) * nc] = block
    assert np.array_equal(to_dense(btc).data, oracle)


def test_to_dense_holds_one_dense_matrix():
    # At 8 x 128, D = 1024: one D x D float64 matrix is 8 MiB; the lag stack
    # the gather reads is 2 n_times blocks.
    btc = random_spd_block_toeplitz(np.random.default_rng(11), 8, 128)
    d = btc.dims.size
    tracemalloc.start()
    try:
        dense = to_dense(btc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense.data.shape == (d, d)
    assert peak < 1.1 * d * d * 8, f"peak {peak / 2**20:.2f} MiB"


def test_lag0_block_is_symmetrized_on_construction():
    dims = BlockDims(2, 2)
    almost = np.array([[1.0, 0.3 + 1e-12], [0.3, 2.0]])
    btc = BlockToeplitzCov(
        dims=dims, lag_blocks=np.stack([almost, np.zeros((2, 2))])
    )
    assert np.array_equal(btc.lag_blocks[0], btc.lag_blocks[0].T)


# ------------------------------------------------------- parameter counts

@pytest.mark.parametrize(
    "nc,nt,full,toeplitz",
    [
        (3, 5, 120, 42),
        (1, 1, 1, 1),
        # formulas: D(D+1)/2 with D=837, and 31*32/2 + 26*31^2
        (31, 27, 350703, 25482),
        (8, 20, 12880, 1252),
    ],
)
def test_free_parameter_count_matches_formulas(nc, nt, full, toeplitz):
    assert free_parameter_count(BlockDims(nc, nt)) == (full, toeplitz)


def test_free_parameter_growth_orders():
    nc = 4
    tops = [free_parameter_count(BlockDims(nc, nt))[1] for nt in (10, 20, 30)]
    fulls = [free_parameter_count(BlockDims(nc, nt))[0] for nt in (10, 20, 30)]
    # affine in n_times: second differences vanish
    assert tops[2] - tops[1] == tops[1] - tops[0]
    # quadratic in n_times: strictly convex
    assert fulls[2] - fulls[1] > fulls[1] - fulls[0]


def test_compact_storage_holds_exactly_nt_nc_squared_values():
    rng = np.random.default_rng(11)
    for nc, nt in ((1, 1), (2, 3), (8, 20)):
        btc = random_spd_block_toeplitz(rng, nc, nt)
        assert btc.lag_blocks.size == nt * nc * nc


# ------------------------------------------------------------ validation

def test_block_cov_rejects_asymmetric_data():
    dims = BlockDims(1, 2)
    with pytest.raises(ShapeError):
        BlockCov(dims=dims, data=np.array([[1.0, 2.0], [0.0, 1.0]]))


@settings(max_examples=50, deadline=None)
@given(nc=st.integers(1, 3), nt=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_public_block_cov_copies_and_checks_its_input(nc, nt, seed):
    rng = np.random.default_rng(seed)
    dims = BlockDims(nc, nt)
    m = random_symmetric(rng, dims.size)
    cov = BlockCov(dims=dims, data=m)
    kept = cov.data.copy()
    m += 1.0
    assert np.array_equal(cov.data, kept)
    assert not cov.data.flags.writeable
    if dims.size > 1:
        skewed = m.copy()
        skewed[0, -1] += 1e-6 * (1.0 + np.abs(m).max())
        with pytest.raises(ShapeError):
            BlockCov(dims=dims, data=skewed)


def test_block_toeplitz_rejects_wrong_shape():
    with pytest.raises(ShapeError):
        BlockToeplitzCov(dims=BlockDims(2, 2), lag_blocks=np.zeros((3, 2, 2)))


# The symmetry check alone lets NaN through (``nan > tol`` is False), and
# to_dense / block_toeplitz_matmul would carry it into every product.

@pytest.mark.parametrize(("lag", "bad"), [(0, np.nan), (1, np.nan), (3, np.nan), (2, np.inf)])
def test_block_toeplitz_rejects_non_finite_lag_blocks(lag, bad):
    btc = random_spd_block_toeplitz(np.random.default_rng(7), 2, 5)
    lags = btc.lag_blocks.copy()
    lags[lag, 1, 0] = bad
    with pytest.raises(DataFormatError, match="non-finite"):
        BlockToeplitzCov(dims=btc.dims, lag_blocks=lags)


def test_block_cov_rejects_non_finite_data():
    btc = random_spd_block_toeplitz(np.random.default_rng(7), 2, 5)
    data = to_dense(btc).data.copy()
    data[3, 1] = data[1, 3] = np.nan
    with pytest.raises(DataFormatError, match="non-finite"):
        BlockCov(dims=btc.dims, data=data)
