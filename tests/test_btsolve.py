"""The block-Toeplitz solve of the fits, its dense and PCG routes, the
reference block Levinson recursion and the dense reference solver."""

import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toeplitzlda import blockmat, btsolve, covest, lda
from toeplitzlda.blockmat import BlockCov, BlockDims, BlockToeplitzCov, _owned, to_dense
from toeplitzlda.btsolve import (
    block_levinson_solve,
    block_toeplitz_matmul,
    dense_solve,
)
from toeplitzlda.errors import ShapeError, SolveBreakdownError, SolveError

from conftest import random_spd_block_toeplitz
from dense_reference import chan_preconditioner, lag_spectrum


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


def solve_on(route, btc, b):
    """Solve ``btc x = b`` on ``route``: the dense route of ``_fit_solve``,
    or PCG on the spectrum of the lag blocks."""
    if route == "pcg":
        return btsolve._pcg_solve(btsolve._lag_spectrum(btc)[0], b)
    return btsolve._fit_solve(btc, b, False)


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
    report = solve_on(route, btc, b)
    oracle = dense_solve(to_dense(btc), b).solution
    assert report.method == route
    assert report.well_conditioned
    assert np.linalg.norm(report.solution - oracle) <= 1e-8 * np.linalg.norm(oracle)


@pytest.mark.parametrize(("nc", "nt"), [(8, 20), (31, 16), (64, 8), (8, 64), (2, 256), (16, 32)])
def test_lag_blocks_take_the_dense_route_at_every_size(nc, nt):
    # The size rule is covest's: on the FFT side of it a fit's estimate is
    # its spectrum, so lag blocks reach _fit_solve only on the dense side,
    # or from a caller, and are expanded whatever their size.
    btc = random_spd_block_toeplitz(np.random.default_rng(nt), nc, nt)
    b = np.ones(btc.dims.size)
    report = btsolve._fit_solve(btc, b, False)
    assert report.method == "dense"
    oracle = dense_solve(to_dense(btc), b).solution
    assert np.linalg.norm(report.solution - oracle) <= 1e-8 * np.linalg.norm(oracle)


@pytest.mark.parametrize(("nc", "nt"), [(8, 101), (16, 67), (31, 97)])
def test_pcg_matches_dense_solve_where_the_embedding_is_padded(nc, nt):
    # The embedding is longer than 2 n_times, so zero blocks lie between
    # the lags and their transposes, and T. Chan's circulant (n_times
    # blocks) is built from an inverse transform of another length.
    assert blockmat._embedding_length(nt) // 2 > nt
    rng = np.random.default_rng(nt)
    btc = random_spd_block_toeplitz(rng, nc, nt)
    b = rng.standard_normal(btc.dims.size)
    report = solve_on("pcg", btc, b)
    oracle = dense_solve(to_dense(btc), b).solution
    assert report.method == "pcg"
    assert np.linalg.norm(report.solution - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_zero_right_hand_side_gives_zero_on_both_routes():
    btc = random_spd_block_toeplitz(np.random.default_rng(3), 3, 5)
    for route in ROUTES:
        report = solve_on(route, btc, np.zeros(btc.dims.size))
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
    btsolve._fit_solve(btc, np.ones(btc.dims.size), False)
    [data], [a] = gathered, factored
    assert a.base is data and a.flags.f_contiguous


@pytest.mark.parametrize("route", ROUTES)
def test_indefinite_system_raises_solve_error(route):
    # Its Chan preconditioner is positive definite, so the PCG route finds
    # the negative curvature; the dense route's Cholesky fails.
    btc = scalar_toeplitz([1.0, -0.5, 0.6, 0.1, -0.3, -0.1])
    assert np.linalg.eigvalsh(to_dense(btc).data)[0] < -0.2
    with pytest.raises(SolveError, match="curvature" if route == "pcg" else "Cholesky"):
        solve_on(route, btc, np.ones(6))


@pytest.mark.parametrize("route", ROUTES)
def test_singular_system_raises_solve_error(route):
    # Channel 1 has no variance: every lag block has a zero row and column,
    # and so has every preconditioner block.
    lags = random_spd_block_toeplitz(np.random.default_rng(5), 3, 6).lag_blocks.copy()
    lags[:, 1, :] = 0.0
    lags[:, :, 1] = 0.0
    btc = BlockToeplitzCov(dims=BlockDims(3, 6), lag_blocks=lags)
    with pytest.raises(SolveError, match="preconditioner" if route == "pcg" else "Cholesky"):
        solve_on(route, btc, np.ones(btc.dims.size))


@pytest.mark.parametrize("route", ROUTES)
def test_overflowing_solution_raises_solve_error(route):
    # A tiny system matrix and a huge right-hand side: the solution is beyond
    # the float range, and neither route may return it.
    btc = random_spd_block_toeplitz(np.random.default_rng(6), 2, 5)
    small = BlockToeplitzCov(btc.dims, btc.lag_blocks * 2.0**-1000)
    with pytest.raises(SolveError):
        solve_on(route, small, np.full(small.dims.size, 2.0**1000))


def test_pcg_iteration_cap_raises_solve_error(monkeypatch):
    btc = random_spd_block_toeplitz(np.random.default_rng(7), 8, 64)
    b = np.random.default_rng(8).standard_normal(btc.dims.size)
    assert solve_on("pcg", btc, b).method == "pcg"
    monkeypatch.setattr(btsolve, "_PCG_MAX_ITER", 2)
    with pytest.raises(SolveError, match="did not converge in 2 iterations"):
        solve_on("pcg", btc, b)


# ---------------------------------------------------- one exit per solve

#: Every way out of a solve: the routes of ``_fit_solve`` (a compact
#: estimate's dense expansion, a fit's own dense estimate, Woodbury and the
#: indefinite fallback), PCG on the spectrum of lag blocks and
#: ``dense_solve``, with the route the report
#: names and whether it is well conditioned.
EXITS = {
    "dense": ("dense", True),
    "dense-own": ("dense", True),
    "pcg": ("pcg", True),
    "woodbury": ("woodbury", True),
    "fallback": ("dense", False),
    "dense_solve": ("dense", True),
}


def solve_through(exit_, tiny=False):
    """Solve a small system that leaves through ``exit_``.  With ``tiny``
    the system (for ``"woodbury"``, its ridge) is scaled by 2**-1000 and the
    right-hand side by 2**1000, so that the solution overflows."""
    small, big = (2.0**-1000, 2.0**1000) if tiny else (1.0, 1.0)
    if exit_ == "woodbury":  # an slda estimate at N_e < D, as a fit holds it
        dims = BlockDims(3, 4)
        xc = np.random.default_rng(23).standard_normal((dims.size, 6))
        cov = covest._GramCov(dims, covest._Centred(xc), xc.T @ xc, 0.2, 0.5 * small)
    elif exit_ == "fallback":  # [[1, 2], [2, 1]] is indefinite
        cov = scalar_toeplitz([small, 2.0 * small])
    else:
        btc = random_spd_block_toeplitz(np.random.default_rng(24), 2, 5)
        cov = BlockToeplitzCov(btc.dims, btc.lag_blocks * small)
        if exit_ in ("dense-own", "dense_solve"):
            cov = to_dense(cov)
    b = np.full(cov.dims.size, big)
    if exit_ == "dense_solve":
        return dense_solve(cov, b)
    if exit_ == "pcg":
        return solve_on("pcg", cov, b)
    return btsolve._fit_solve(cov, b, exit_ == "fallback")


@pytest.mark.parametrize("exit_", EXITS)
def test_every_solve_returns_through_one_check(monkeypatch, exit_):
    reports = []
    real = btsolve._report

    def spy(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(btsolve, "_report", spy)
    report = solve_through(exit_)
    assert len(reports) == 1 and reports[0] is report
    assert (report.method, report.well_conditioned) == EXITS[exit_]


@pytest.mark.parametrize(
    ("exit_", "route"),
    [("dense", "dense"), ("dense-own", "dense"), ("pcg", "pcg"), ("woodbury", "woodbury"),
     ("fallback", "symmetric indefinite"), ("dense_solve", "dense")],
)
def test_a_non_finite_solution_raises_solve_error_naming_its_route(exit_, route):
    with pytest.raises(SolveError, match=f"^{route} solve gave a non-finite solution$"):
        solve_through(exit_, tiny=True)


def test_a_non_finite_cholesky_solution_falls_back_when_maybe_indefinite(monkeypatch):
    # The Cholesky of the positive definite expansion succeeds, but its
    # solution overflows: that is not an error of a system that may be
    # indefinite, which goes on to the symmetric indefinite solve.
    btc = random_spd_block_toeplitz(np.random.default_rng(24), 2, 5)
    tiny = BlockToeplitzCov(btc.dims, btc.lag_blocks * 2.0**-1000)
    b = np.full(btc.dims.size, 2.0**1000)
    with pytest.raises(SolveError, match="^dense solve gave a non-finite solution$"):
        btsolve._fit_solve(tiny, b, False)
    solved = []
    monkeypatch.setattr(btsolve.scipy.linalg, "solve",
                        lambda a, rhs, **kwargs: solved.append(a) or np.ones_like(rhs))
    report = btsolve._fit_solve(tiny, b, True)
    assert len(solved) == 1 and np.array_equal(report.solution, np.ones_like(b))
    assert (report.method, report.well_conditioned) == ("dense", False)


def test_only_the_exit_and_the_levinson_breakdown_test_scan_for_non_finite_values():
    tree = ast.parse(Path(btsolve.__file__).read_text(encoding="utf-8"))
    scanners = sorted(
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "isfinite" for n in ast.walk(node))
    )
    assert scanners == ["_cholesky", "_report"]


def either(build, *args):
    """``build(*args)``, or the message of the :class:`SolveError` it raised."""
    try:
        return build(*args)
    except SolveError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    nc=st.integers(1, 5),
    nt=st.integers(1, 24),
    per_slice=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
@example(nc=1, nt=1, per_slice=1, seed=0)  # n = 2, one preconditioner frequency
@example(nc=1, nt=2, per_slice=1, seed=1)  # n = 4
@example(nc=3, nt=5, per_slice=2, seed=2)  # odd n_times, 3 preconditioner frequencies
@example(nc=4, nt=20, per_slice=3, seed=3)  # 11 preconditioner frequencies, slices of 3
@example(nc=2, nt=17, per_slice=2, seed=4)  # n = 36 > 2 n_times
@example(nc=5, nt=4, per_slice=3, seed=5)  # channel rows in slices of 3 and 2
def test_spectral_stages_equal_the_whole_spectrum_oracles(nc, nt, per_slice, seed):
    # The embedding is built one channel column at a time, T. Chan's
    # circulant transformed over slices of channel rows and its blocks
    # factored and inverted over slices of per_slice frequencies, all cut by
    # the one patched budget; the oracles transform and invert whole arrays.
    # The spectra, the preconditioner (or the error it raises), and so the
    # PCG solution, are the same bits.
    rng = np.random.default_rng(seed)
    btc = random_spd_block_toeplitz(rng, nc, nt)
    b = rng.standard_normal(btc.dims.size)
    widths = []
    real_irfft = btsolve.scipy.fft.irfft

    def irfft(a, *args, **kwargs):
        widths.append(a.shape[1])
        return real_irfft(a, *args, **kwargs)

    with mock.patch.object(blockmat, "_SLICE_BYTES", per_slice * 16 * nc * nc):
        spec, n = btsolve._lag_spectrum(btc)
        rows = blockmat._slices(nc, 8 * n * nc)
        with mock.patch.object(btsolve.scipy.fft, "irfft", irfft):
            pre = either(btsolve._chan_preconditioner, spec, nt)
        solution = btsolve._pcg_solve(spec, b).solution
    assert widths == [part.stop - part.start for part in rows]
    spec_ref, n_ref = lag_spectrum(btc)
    assert n == n_ref and np.array_equal(spec, spec_ref)
    ref = either(chan_preconditioner, spec, nt)
    assert type(pre) is type(ref) and np.array_equal(pre, ref)
    with mock.patch.object(btsolve, "_chan_preconditioner", chan_preconditioner):
        assert np.array_equal(solution, btsolve._pcg_solve(spec_ref, b).solution)


@pytest.mark.parametrize("per", range(1, 6))
def test_chan_preconditioner_over_any_slicing_of_channel_rows_equals_the_whole_array_build(per):
    # T. Chan's circulant is transformed over slices of per channel rows of
    # the operator spectrum, 5 // per of them and a short last one where per
    # does not divide 5; the oracle transforms the whole array.  The blocks
    # are the same bits.
    nc, nt = 5, 13
    btc = random_spd_block_toeplitz(np.random.default_rng(per), nc, nt)
    spec, n = btsolve._lag_spectrum(btc)
    widths = []
    real_irfft = btsolve.scipy.fft.irfft

    def irfft(a, *args, **kwargs):
        widths.append(a.shape[1])
        return real_irfft(a, *args, **kwargs)

    with mock.patch.object(blockmat, "_SLICE_BYTES", per * 8 * n * nc), \
            mock.patch.object(btsolve.scipy.fft, "irfft", irfft):
        pre = btsolve._chan_preconditioner(spec, nt)
    assert widths == [per] * (nc // per) + ([nc % per] if nc % per else [])
    assert np.array_equal(pre, chan_preconditioner(spec, nt))


@pytest.mark.parametrize(("nt", "freq"), [(7, f) for f in range(4)] + [(10, f) for f in range(6)])
def test_preconditioner_block_that_is_not_positive_definite_raises_in_any_slice(nt, freq):
    # Lag blocks c_k A from a symmetric circulant c make T. Chan's circulant
    # c itself, whose blocks are its spectrum times the SPD matrix A: 1 at
    # every frequency but freq, -1 there.  Slices of two frequencies put
    # freq in each slice and position, the last slice of nt = 10 a short one.
    nc = 3
    mix = np.random.default_rng(nt).standard_normal((nc, nc))
    a = mix @ mix.T + np.eye(nc)

    def preconditioner(spectrum):
        lags = np.fft.irfft(spectrum, nt)[:, None, None] * a
        spec = btsolve._lag_spectrum(BlockToeplitzCov(BlockDims(nc, nt), lags))[0]
        with mock.patch.object(blockmat, "_SLICE_BYTES", 2 * 16 * nc * nc):
            return btsolve._chan_preconditioner(spec, nt)

    spectrum = np.ones(nt // 2 + 1)
    assert np.allclose(preconditioner(spectrum), np.linalg.inv(a))
    spectrum[freq] = -1.0
    with pytest.raises(SolveError, match="^T. Chan's block circulant preconditioner is not"):
        preconditioner(spectrum)


@pytest.mark.parametrize("nt", range(1, 65))
def test_lag_sums_and_operator_spectrum_share_one_embedding(monkeypatch, nt):
    # The FFT lag sums and the operator spectrum of the PCG solve embed the
    # lags at one length, at which the spectrum of a toeplitz estimate is
    # its scaled cross-spectrum sum_e F_e F_e^H plus gamma nu I: the
    # spectrum a fit builds from the packed cross-spectrum, with no inverse
    # transform.
    nc, n_epochs, gamma = 2, 5, 0.25
    xc = np.random.default_rng(nt).standard_normal((nc * nt, n_epochs))
    lengths = []
    real_irfft = covest.scipy.fftpack.irfft

    def irfft(spec, *args, **kwargs):
        lengths.append(len(spec))
        return real_irfft(spec, *args, **kwargs)

    monkeypatch.setattr(covest, "_fft_pays", lambda nc, nt: True)
    monkeypatch.setattr(covest.scipy.fftpack, "irfft", irfft)
    shrunk = covest.estimate_covariance(xc, BlockDims(nc, nt), "toeplitz", gamma)
    spec, n = btsolve._lag_spectrum(shrunk.matrix)
    assert lengths == [n]
    f = np.fft.rfft(xc.reshape(nt, nc, n_epochs), n, axis=0)
    expected = np.einsum("kie,kje->kij", f, f.conj()) * (1.0 - gamma) / ((n_epochs - 1) * nt)
    expected += shrunk.gamma * shrunk.nu * np.eye(nc)
    assert np.abs(spec - expected).max() <= 1e-12 * np.abs(expected).max()
    fitted = covest._Estimates(covest._Centred(xc), BlockDims(nc, nt), ("toeplitz",), gamma,
                               solve_only=True)("toeplitz")
    assert lengths == [n] and isinstance(fitted.matrix, covest._SpectralCov)
    assert abs(fitted.nu - shrunk.nu) <= 1e-14 * shrunk.nu
    assert np.abs(fitted.matrix.spectrum - expected).max() <= 1e-12 * np.abs(expected).max()


def test_a_preconditioner_block_that_fails_its_inverse_raises_solve_error(monkeypatch):
    # Channel 3 copies channel 0, so without shrinkage the lag-0 block, the
    # one block of T. Chan's preconditioner at n_times = 1, is singular.
    # Rounding lets the Cholesky test pass on some draws, and then the
    # inverse fails.
    monkeypatch.setattr(covest, "_fft_pays", lambda nc, nt: True)
    labels = (np.arange(53) % 6 == 0).astype(np.uint8)
    messages = []
    for seed in range(20):
        x = np.random.default_rng(seed).standard_normal((4, 53))
        x[3] = x[0]
        x[:, labels == 1] += 1.0
        try:
            lda.fit(x, labels, dims=BlockDims(4, 1), gamma=0.0)
        except SolveError as exc:
            messages.append(str(exc))
    assert "T. Chan's block circulant preconditioner is not positive definite: Singular matrix" \
        in messages


def test_pcg_solve_is_deterministic():
    btc = random_spd_block_toeplitz(np.random.default_rng(9), 8, 64)
    b = np.random.default_rng(10).standard_normal(btc.dims.size)
    assert np.array_equal(solve_on("pcg", btc, b).solution, solve_on("pcg", btc, b).solution)


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
    # fallback belongs to the solve of a toeplitz_a1_only fit, which takes
    # it after the failed Cholesky of [[1,2],[2,1]].
    # [[1,2],[2,1]]^-1 = [[-1/3, 2/3], [2/3, -1/3]]
    btc = scalar_toeplitz([1.0, 2.0])
    report = btsolve._fit_solve(btc, np.array([1.0, 0.0]), maybe_indefinite=True)
    assert np.allclose(report.solution, [-1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    assert report.method == "dense"
    assert not report.well_conditioned
    with pytest.raises(SolveError):
        btsolve._fit_solve(btc, np.array([1.0, 0.0]), maybe_indefinite=False)


def test_dense_solve_rejects_non_finite_covariance():
    # _owned skips the finiteness check of the BlockCov constructor;
    # dpotrf can factor a NaN diagonal without error, so the solve must catch it.
    dims = BlockDims(2, 2)
    centered = np.random.default_rng(3).standard_normal((dims.size, 6))
    centered[1, 2] = np.nan
    cov = _owned(BlockCov, dims=dims, data=centered @ centered.T / 5)
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
    block_levinson_solve,
    block_toeplitz_matmul,
    lambda btc, b: dense_solve(to_dense(btc), b),
], ids=["levinson", "matmul", "dense"])
def test_matrix_rhs_is_rejected(solver, n_rhs):
    # Each function takes one right-hand side vector, never a matrix.
    btc = random_spd_block_toeplitz(np.random.default_rng(22), 2, 3)
    with pytest.raises(ShapeError):
        solver(btc, np.ones((btc.dims.size, n_rhs)))
