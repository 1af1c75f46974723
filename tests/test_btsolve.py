"""The block-Toeplitz solve of the fits, its dense and PCG routes, the
reference block Levinson recursion and the dense reference solver."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toeplitzlda import btsolve, lda
from toeplitzlda.blockmat import BlockCov, BlockDims, BlockToeplitzCov, _owned_cov, to_dense
from toeplitzlda.btsolve import (
    block_levinson_solve,
    block_toeplitz_matmul,
    block_toeplitz_solve,
    dense_solve,
)
from toeplitzlda.errors import DataFormatError, ShapeError, SolveBreakdownError, SolveError


def random_spd_block_toeplitz(rng, nc, nt, ridge=0.5):
    """SPD block-Toeplitz matrix built from a random stationary process."""
    dims = BlockDims(nc, nt)
    mix = rng.standard_normal((nc, nc))
    fir = rng.standard_normal(3)
    r = np.correlate(fir, fir, mode="full")[len(fir) - 1:]
    lags = np.zeros((nt, nc, nc))
    for d in range(min(nt, len(r))):
        lags[d] = r[d] * (mix @ mix.T)
    lags[0] += ridge * np.eye(nc)
    return BlockToeplitzCov(dims=dims, lag_blocks=lags)


def random_lags(rng, nc, nt):
    """Random lag blocks: asymmetric for lags >= 1, symmetric at lag 0."""
    lags = rng.standard_normal((nt, nc, nc))
    lags[0] = (lags[0] + lags[0].T) / 2.0
    return lags


def scalar_toeplitz(first_row):
    """nc=1 block-Toeplitz matrix from its first row of scalars."""
    nt = len(first_row)
    lags = np.asarray(first_row, dtype=float).reshape(nt, 1, 1)
    return BlockToeplitzCov(dims=BlockDims(1, nt), lag_blocks=lags)


# ------------------------------------------------------- matmul oracle

@settings(max_examples=150, deadline=None)
@given(
    nc=st.integers(1, 5),
    nt=st.integers(1, 40),
    log2_scale=st.sampled_from([-200, 0, 200]),
    seed=st.integers(0, 2**32 - 1),
)
@example(nc=1, nt=1, log2_scale=0, seed=0)
@example(nc=5, nt=40, log2_scale=200, seed=1)
@example(nc=3, nt=2, log2_scale=-200, seed=2)
def test_matmul_matches_dense_product(nc, nt, log2_scale, seed):
    # Asymmetric lags tell L[d] from L[d]^T in the circulant embedding.
    rng = np.random.default_rng(seed)
    lags = random_lags(rng, nc, nt) * 2.0**log2_scale
    btc = BlockToeplitzCov(dims=BlockDims(nc, nt), lag_blocks=lags)
    x = rng.standard_normal(btc.dims.size) * 2.0**log2_scale
    dense = to_dense(btc).data
    out = block_toeplitz_matmul(btc, x)
    assert out.shape == x.shape
    err = np.linalg.norm(out - dense @ x)
    assert err <= 1e-13 * np.linalg.norm(dense) * np.linalg.norm(x)


# ------------------------------------------------- block-Toeplitz solve

ROUTES = ("dense", "pcg")


def on_route(monkeypatch, route):
    """Send every block_toeplitz_solve down ``route``, whatever the size."""
    monkeypatch.setattr(btsolve, "_fft_pays", lambda nc, nt: route == "pcg")


def loaded_lags(rng, nc, nt):
    """Random asymmetric lags, diagonally loaded to a condition number of at
    most about 2e3."""
    lags = random_lags(rng, nc, nt)
    eig = np.linalg.eigvalsh(to_dense(BlockToeplitzCov(BlockDims(nc, nt), lags)).data)
    lags[0] += (10.0 ** rng.uniform(-3, 0) * np.abs(eig).max() - eig[0]) * np.eye(nc)
    return lags


@pytest.mark.parametrize("route", ROUTES)
@settings(max_examples=60, deadline=None)
@given(
    nc=st.integers(1, 5),
    nt=st.integers(1, 40),
    lag_scale=st.sampled_from([-200, 0, 200]),
    rhs_scale=st.sampled_from([-200, 0, 200]),
    seed=st.integers(0, 2**32 - 1),
)
@example(nc=1, nt=1, lag_scale=0, rhs_scale=0, seed=0)
@example(nc=5, nt=40, lag_scale=200, rhs_scale=-200, seed=1)
@example(nc=3, nt=2, lag_scale=-200, rhs_scale=200, seed=2)
def test_both_routes_match_dense_solve(route, nc, nt, lag_scale, rhs_scale, seed):
    # Asymmetric lags tell L[d] from L[d]^T in the dense gather and in the
    # circulant embedding; a relative error of 1e-8 is C1's bound.
    rng = np.random.default_rng(seed)
    lags = loaded_lags(rng, nc, nt) * 2.0**lag_scale
    btc = BlockToeplitzCov(dims=BlockDims(nc, nt), lag_blocks=lags)
    b = rng.standard_normal(btc.dims.size) * 2.0**rhs_scale
    with pytest.MonkeyPatch.context() as mp:
        on_route(mp, route)
        report = block_toeplitz_solve(btc, b)
    oracle = dense_solve(to_dense(btc), b).solution
    assert report.method == route
    assert report.well_conditioned
    assert np.linalg.norm(report.solution - oracle) <= 1e-8 * np.linalg.norm(oracle)


@pytest.mark.parametrize(
    ("nc", "nt", "route"),
    [(8, 20, "dense"), (31, 16, "dense"), (64, 8, "dense"), (8, 64, "pcg"),
     (2, 256, "pcg"), (16, 32, "pcg")],
)
def test_size_rule_picks_the_route(nc, nt, route):
    btc = random_spd_block_toeplitz(np.random.default_rng(nt), nc, nt)
    b = np.ones(btc.dims.size)
    report = block_toeplitz_solve(btc, b)
    assert report.method == route
    oracle = dense_solve(to_dense(btc), b).solution
    assert np.linalg.norm(report.solution - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_zero_right_hand_side_gives_zero_on_both_routes(monkeypatch):
    btc = random_spd_block_toeplitz(np.random.default_rng(3), 3, 5)
    for route in ROUTES:
        on_route(monkeypatch, route)
        report = block_toeplitz_solve(btc, np.zeros(btc.dims.size))
        assert np.array_equal(report.solution, np.zeros(btc.dims.size))


def test_dense_route_factors_its_gather_in_place(monkeypatch):
    # The route gathers one D x D expansion, and LAPACK factors that buffer
    # (as its transpose, the same matrix in Fortran order), not a copy of it.
    btc = random_spd_block_toeplitz(np.random.default_rng(4), 3, 5)
    gathered, factored = [], []
    real_gather, real_factor = btsolve.to_dense, btsolve.dpotrf

    def gather(*args):
        cov = real_gather(*args)
        gathered.append(cov.data)
        return cov

    def factor(a, *args, **kwargs):
        factored.append(a)
        return real_factor(a, *args, **kwargs)

    monkeypatch.setattr(btsolve, "to_dense", gather)
    monkeypatch.setattr(btsolve, "dpotrf", factor)
    on_route(monkeypatch, "dense")
    block_toeplitz_solve(btc, np.ones(btc.dims.size))
    [data], [a] = gathered, factored
    assert a.base is data and a.flags.f_contiguous


@pytest.mark.parametrize("route", ROUTES)
def test_indefinite_system_raises_solve_error(monkeypatch, route):
    # Its Chan preconditioner is positive definite, so the PCG route finds
    # the negative curvature; the dense route's Cholesky fails.
    btc = scalar_toeplitz([1.0, -0.5, 0.6, 0.1, -0.3, -0.1])
    assert np.linalg.eigvalsh(to_dense(btc).data)[0] < -0.2
    on_route(monkeypatch, route)
    with pytest.raises(SolveError, match="curvature" if route == "pcg" else "Cholesky"):
        block_toeplitz_solve(btc, np.ones(6))


@pytest.mark.parametrize("route", ROUTES)
def test_singular_system_raises_solve_error(monkeypatch, route):
    # Channel 1 has no variance: every lag block has a zero row and column,
    # and so has every preconditioner block.
    lags = random_spd_block_toeplitz(np.random.default_rng(5), 3, 6).lag_blocks.copy()
    lags[:, 1, :] = 0.0
    lags[:, :, 1] = 0.0
    btc = BlockToeplitzCov(dims=BlockDims(3, 6), lag_blocks=lags)
    on_route(monkeypatch, route)
    with pytest.raises(SolveError, match="preconditioner" if route == "pcg" else "Cholesky"):
        block_toeplitz_solve(btc, np.ones(btc.dims.size))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("route", ROUTES)
def test_overflowing_solution_raises_solve_error(monkeypatch, route):
    # A tiny system matrix and a huge right-hand side: the solution is beyond
    # the float range, and neither route may return it.
    btc = random_spd_block_toeplitz(np.random.default_rng(6), 2, 5)
    small = BlockToeplitzCov(btc.dims, btc.lag_blocks * 2.0**-1000)
    on_route(monkeypatch, route)
    with pytest.raises(SolveError):
        block_toeplitz_solve(small, np.full(small.dims.size, 2.0**1000))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pcg_route_rejects_a_non_finite_rhs(bad):
    # From x = 0 a NaN or inf residual norm never exceeds the (NaN) stopping
    # bound, so PCG itself would return an all-zero solution: b is checked
    # on entry.
    btc = random_spd_block_toeplitz(np.random.default_rng(7), 8, 64)
    b = np.ones(btc.dims.size)
    assert block_toeplitz_solve(btc, b).method == "pcg"
    b[17] = bad
    with pytest.raises(DataFormatError, match="non-finite"):
        block_toeplitz_solve(btc, b)


def test_pcg_iteration_cap_raises_solve_error(monkeypatch):
    btc = random_spd_block_toeplitz(np.random.default_rng(7), 8, 64)
    b = np.random.default_rng(8).standard_normal(btc.dims.size)
    assert block_toeplitz_solve(btc, b).method == "pcg"
    monkeypatch.setattr(btsolve, "_PCG_MAX_ITER", 2)
    with pytest.raises(SolveError, match="did not converge in 2 iterations"):
        block_toeplitz_solve(btc, b)


def test_block_toeplitz_solve_is_deterministic():
    btc = random_spd_block_toeplitz(np.random.default_rng(9), 8, 64)
    b = np.random.default_rng(10).standard_normal(btc.dims.size)
    assert np.array_equal(block_toeplitz_solve(btc, b).solution,
                          block_toeplitz_solve(btc, b).solution)


# ------------------------------------------------------ levinson solve

def test_identity_system_returns_rhs():
    nc, nt = 3, 4
    lags = np.zeros((nt, nc, nc))
    lags[0] = np.eye(nc)
    btc = BlockToeplitzCov(dims=BlockDims(nc, nt), lag_blocks=lags)
    b = np.arange(1.0, nc * nt + 1.0)
    report = block_levinson_solve(btc, b)
    assert np.allclose(report.solution, b, atol=1e-14)
    assert report.method == "levinson"
    assert report.well_conditioned


def test_scalar_tridiagonal_matches_hand_elimination():
    # [[2,1,0],[1,2,1],[0,1,2]] x = e1 has the hand-computed solution
    # [3/4, -1/2, 1/4] (determinant 4, first column of the adjugate).
    btc = scalar_toeplitz([2.0, 1.0, 0.0])
    report = block_levinson_solve(btc, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(report.solution, [0.75, -0.5, 0.25], atol=1e-12)


@pytest.mark.parametrize("nc", [1, 2, 4])
@pytest.mark.parametrize("nt", [1, 3, 8])
def test_levinson_matches_dense_oracle(nc, nt):
    rng = np.random.default_rng(100 * nc + nt)
    btc = random_spd_block_toeplitz(rng, nc, nt)
    b = rng.standard_normal(btc.dims.size)
    report = block_levinson_solve(btc, b)
    dense = to_dense(btc).data
    oracle = np.linalg.solve(dense, b)
    rel = np.linalg.norm(report.solution - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-8
    assert np.linalg.norm(dense @ report.solution - b) <= 1e-8 * (1.0 + np.linalg.norm(b))


@settings(max_examples=80, deadline=None)
@given(
    nc=st.integers(1, 5),
    nt=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_levinson_matches_dense_oracle_with_asymmetric_lags(nc, nt, seed):
    # Symmetric lags cannot tell L[d] from L[d]^T; these can.
    rng = np.random.default_rng(seed)
    btc = BlockToeplitzCov(dims=BlockDims(nc, nt), lag_blocks=loaded_lags(rng, nc, nt))
    b = rng.standard_normal(btc.dims.size)
    report = block_levinson_solve(btc, b)
    oracle = np.linalg.solve(to_dense(btc).data, b)
    assert np.linalg.norm(report.solution - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_levinson_many_seeds():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        btc = random_spd_block_toeplitz(rng, 4, 8)
        b = rng.standard_normal(btc.dims.size)
        report = block_levinson_solve(btc, b)
        oracle = np.linalg.solve(to_dense(btc).data, b)
        assert np.allclose(report.solution, oracle, atol=1e-8)


def test_vector_rhs_returns_vector():
    rng = np.random.default_rng(12)
    btc = random_spd_block_toeplitz(rng, 2, 4)
    b = rng.standard_normal(btc.dims.size)
    report = block_levinson_solve(btc, b)
    assert report.solution.shape == (btc.dims.size,)


def test_levinson_is_deterministic():
    rng = np.random.default_rng(13)
    btc = random_spd_block_toeplitz(rng, 3, 6)
    b = rng.standard_normal(btc.dims.size)
    first = block_levinson_solve(btc, b)
    second = block_levinson_solve(btc, b)
    assert np.array_equal(first.solution, second.solution)


def test_breakdown_names_failing_step():
    # Dense expansion [[1,2],[2,1]] is indefinite: the order-2 leading
    # minor fails, while the order-1 minor [1] is fine.
    btc = scalar_toeplitz([1.0, 2.0])
    with pytest.raises(SolveBreakdownError) as excinfo:
        block_levinson_solve(btc, np.ones(2))
    assert excinfo.value.order == 2
    assert "step 2" in str(excinfo.value)


def test_breakdown_on_non_positive_first_block():
    btc = scalar_toeplitz([-1.0, 0.0])
    with pytest.raises(SolveBreakdownError) as excinfo:
        block_levinson_solve(btc, np.ones(2))
    assert excinfo.value.order == 1


@settings(max_examples=80, deadline=None)
@given(
    nc=st.integers(2, 4),
    nt=st.integers(1, 8),
    pick=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_breakdown_order_is_first_non_pd_leading_minor(nc, nt, pick, seed):
    # Shift lag 0 so that minors 1..k-1 stay positive definite and minor k
    # is indefinite, each by a clear margin.
    rng = np.random.default_rng(seed)
    lags = random_lags(rng, nc, nt)
    dense = to_dense(BlockToeplitzCov(BlockDims(nc, nt), lags)).data
    # Smallest eigenvalue of each leading m-block minor, m = 1..nt.
    mins = [np.linalg.eigvalsh(dense[: m * nc, : m * nc])[0] for m in range(1, nt + 1)]
    k = pick % nt
    upper = mins[k - 1] if k else mins[0] + 1.0
    assume(upper - mins[k] > 1e-6 * np.linalg.norm(dense, 2))
    lags[0] -= (upper + mins[k]) / 2.0 * np.eye(nc)
    btc = BlockToeplitzCov(dims=BlockDims(nc, nt), lag_blocks=lags)
    dense = to_dense(btc).data

    def is_pd(m):
        try:
            np.linalg.cholesky(dense[: m * nc, : m * nc])
        except np.linalg.LinAlgError:
            return False
        return True

    expected = next(m for m in range(1, nt + 1) if not is_pd(m))
    with pytest.raises(SolveBreakdownError) as excinfo:
        block_levinson_solve(btc, np.ones(btc.dims.size))
    assert excinfo.value.order == expected


def test_levinson_rejects_wrong_rhs_length():
    btc = scalar_toeplitz([2.0, 1.0])
    with pytest.raises(ShapeError):
        block_levinson_solve(btc, np.ones(3))


# --------------------------------------------------------- dense solve

def test_dense_solve_diagonal_reciprocals():
    cov = BlockCov(dims=BlockDims(2, 2), data=np.diag([1.0, 2.0, 3.0, 4.0]))
    report = dense_solve(cov, np.ones(4))
    assert np.allclose(report.solution, [1.0, 0.5, 1.0 / 3.0, 0.25], atol=1e-14)
    assert report.method == "dense"
    assert report.well_conditioned


def test_dense_solve_rejects_indefinite_by_default():
    cov = BlockCov(dims=BlockDims(1, 2), data=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SolveError):
        dense_solve(cov, np.ones(2))


def test_dense_solve_indefinite_fallback_solves_and_flags():
    # dense_solve itself only takes the Cholesky path; the dense indefinite
    # fallback belongs to the toeplitz_a1_only solve in lda._solve, which
    # takes it after the failed Cholesky of [[1,2],[2,1]].
    # [[1,2],[2,1]]^-1 = [[-1/3, 2/3], [2/3, -1/3]]
    btc = scalar_toeplitz([1.0, 2.0])
    report = lda._solve(btc, np.array([1.0, 0.0]), "toeplitz_a1_only")
    assert np.allclose(report.solution, [-1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    assert report.method == "dense"
    assert not report.well_conditioned
    with pytest.raises(SolveError):
        lda._solve(btc, np.array([1.0, 0.0]), "toeplitz")


def test_dense_solve_rejects_non_finite_covariance():
    # _owned_cov skips the finiteness check of the BlockCov constructor;
    # dpotrf can factor a NaN diagonal without error, so the solve must catch it.
    dims = BlockDims(2, 2)
    centered = np.random.default_rng(3).standard_normal((dims.size, 6))
    centered[1, 2] = np.nan
    cov = _owned_cov(dims, centered @ centered.T / 5)
    with pytest.raises(SolveError):
        dense_solve(cov, np.ones(dims.size))


def test_dense_solve_rejects_wrong_rhs_length():
    cov = BlockCov(dims=BlockDims(1, 2), data=np.eye(2))
    with pytest.raises(ShapeError):
        dense_solve(cov, np.ones(3))


def test_solvers_agree_on_spd_system():
    rng = np.random.default_rng(21)
    btc = random_spd_block_toeplitz(rng, 3, 4)
    b = rng.standard_normal(btc.dims.size)
    dense = to_dense(btc)
    before = dense.data.copy()
    lev = block_levinson_solve(btc, b)
    den = dense_solve(dense, b)
    assert np.allclose(lev.solution, den.solution, atol=1e-9)
    # LAPACK would factor a Fortran-ordered view in place whatever its write
    # flag; dense_solve works on a copy.
    assert np.array_equal(dense.data, before)


@pytest.mark.parametrize("n_rhs", [1, 2])
@pytest.mark.parametrize("solver", [
    block_toeplitz_solve,
    block_levinson_solve,
    block_toeplitz_matmul,
    lambda btc, b: dense_solve(to_dense(btc), b),
], ids=["block_toeplitz", "levinson", "matmul", "dense"])
def test_matrix_rhs_is_rejected(solver, n_rhs):
    # Each function takes one right-hand side vector, never a matrix.
    btc = random_spd_block_toeplitz(np.random.default_rng(22), 2, 3)
    with pytest.raises(ShapeError):
        solver(btc, np.ones((btc.dims.size, n_rhs)))
