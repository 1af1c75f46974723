"""Package acceptance: twelve end-to-end checks, one summary line each.

Every check prints `[C#] PASS/FAIL - detail` directly to the terminal
(capture is suspended for that line, so the lines always show up in plain
`pytest -v` output) and then asserts, so a failing criterion fails the
suite.
"""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from toeplitzlda import bench, cli, covest, lda, synth
from toeplitzlda.blockmat import (
    BlockCov,
    BlockDims,
    apply_taper,
    block_diagonal_average,
    free_parameter_count,
    to_dense,
)
from toeplitzlda.btsolve import block_toeplitz_solve, dense_solve
from toeplitzlda.covest import ClassStats
from toeplitzlda.dataio import (
    Epochs,
    FeatureConfig,
    extract_features,
    read_dataset,
    write_dataset,
)

from dense_reference import block_at

_CAPTURE = [None]


@pytest.fixture(autouse=True)
def _live_summary_lines(capsys):
    """Let `_report` momentarily suspend capture so its line reaches the
    terminal even when pytest runs without ``-s``."""
    _CAPTURE[0] = capsys
    yield
    _CAPTURE[0] = None


def _report(cid: str, passed: bool, detail: str) -> None:
    line = f"[{cid}] {'PASS' if passed else 'FAIL'} - {detail}"
    if _CAPTURE[0] is not None:
        with _CAPTURE[0].disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert passed, f"{cid}: {detail}"


def spd_block_toeplitz(rng, nc, nt, ridge=0.5):
    """SPD block-Toeplitz matrix from a random stationary process."""
    dims = BlockDims(nc, nt)
    mix = rng.standard_normal((nc, nc))
    fir = rng.standard_normal(3)
    r = np.correlate(fir, fir, mode="full")[len(fir) - 1:]
    lags = np.zeros((nt, nc, nc))
    for d in range(min(nt, len(r))):
        lags[d] = r[d] * (mix @ mix.T)
    lags[0] += ridge * np.eye(nc)
    from toeplitzlda.blockmat import BlockToeplitzCov

    return BlockToeplitzCov(dims=dims, lag_blocks=lags)


N_SEEDS = 20
_GEN_SECONDS = [0.0]


@pytest.fixture(scope="module")
def benchmark_runs():
    """Twenty seeded instances of the default benchmark dataset, split."""
    start = time.perf_counter()
    runs = []
    dims = BlockDims(8, 20)
    model = synth.default_noise_model(dims)
    spec = synth.default_erp_spec(dims)
    fc = FeatureConfig("all_samples", window=(0.1, 0.6))
    for seed in range(N_SEEDS):
        ep = synth.generate_noise(model, 768, dims, seed)
        ep = synth.inject_erp(ep, spec, seed)
        feats = extract_features(ep, fc)
        y = ep.labels.astype(int)
        tr, va = bench.split_train_val(768, seed)
        runs.append({
            "xt": feats.data[:, tr], "yt": y[tr],
            "xv": feats.data[:, va], "yv": y[va],
            "dims": feats.dims,
        })
    _GEN_SECONDS[0] = time.perf_counter() - start
    return runs


def _subset_auc(run, estimator, size, n_draws, seed, mean_override=None):
    draws = bench.draw_subsets(run["yt"], size, n_draws, seed)
    out = []
    for idx in draws:
        model = lda.fit(run["xt"][:, idx], run["yt"][idx], dims=run["dims"],
                        estimator=estimator, mean_override=mean_override)
        out.append(
            (bench.auc(lda.decision_values(model, run["xv"]), run["yv"]),
             model.well_conditioned)
        )
    return out


def test_c1_block_solver_matches_dense_reference():
    # The grid spans both routes of block_toeplitz_solve: 8 x 64 takes PCG,
    # the smaller systems the dense Cholesky.
    start = time.perf_counter()
    grid = [(nc, nt) for nc in (1, 2, 4, 8) for nt in (1, 2, 3, 8, 16, 64)]
    worst = 0.0
    routes = set()
    for seed in range(50):
        nc, nt = grid[seed % len(grid)]
        rng = np.random.default_rng(seed)
        btc = spd_block_toeplitz(rng, nc, nt)
        b = rng.standard_normal(btc.dims.size)
        report = block_toeplitz_solve(btc, b)
        routes.add(report.method)
        den = dense_solve(to_dense(btc), b)
        rel = np.linalg.norm(report.solution - den.solution) / np.linalg.norm(
            den.solution
        )
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(
        "C1",
        worst <= 1e-8 and elapsed < 60.0 and routes == {"dense", "pcg"},
        f"worst relative error {worst:.2e} over 50 systems on the "
        f"{' and '.join(sorted(routes))} routes "
        f"(need <= 1e-8) in {elapsed:.1f}s (need < 60s)",
    )


def test_c2_average_then_taper_composition_and_idempotence():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(5):
        dims = BlockDims(3, 5)
        m = rng.standard_normal((dims.size, dims.size))
        cov = BlockCov(dims=dims, data=(m + m.T) / 2.0)
        tapered = apply_taper(block_diagonal_average(cov))
        nt = dims.n_times
        for d in range(nt):
            direct = sum(block_at(cov, i, i + d) for i in range(nt - d)) / nt
            if d == 0:
                direct = (direct + direct.T) / 2.0
            worst = max(worst, np.abs(tapered.lag_blocks[d] - direct).max())
    idempotent = True
    for seed in range(5):
        btc = spd_block_toeplitz(np.random.default_rng(100 + seed), 3, 6)
        again = block_diagonal_average(to_dense(btc))
        idempotent &= np.array_equal(again.lag_blocks, btc.lag_blocks)
    _report(
        "C2",
        worst <= 1e-12 and idempotent,
        f"composition max deviation {worst:.2e} (need <= 1e-12); "
        f"averaging exactly idempotent on structured input: {idempotent}",
    )


def test_c3_structured_estimator_beats_shrinkage_at_half_dimension_samples():
    start = time.perf_counter()
    dims = BlockDims(8, 20)  # D = 160
    n_epochs = dims.size // 2
    model = synth.default_noise_model(dims)
    truth = to_dense(synth.true_covariance(model, dims)).data
    wins = 0
    for seed in range(20):
        ep = synth.generate_noise(model, n_epochs, dims, seed)
        x = np.stack([e.T.ravel() for e in ep.data], axis=1)
        xc = covest.center(x)
        shrunk = covest.shrink(covest.sample_covariance(xc, dims), None, xc)
        structured = covest.estimate_covariance(xc, dims).matrix
        err_structured = np.linalg.norm(to_dense(structured).data - truth)
        err_shrunk = np.linalg.norm(shrunk.matrix.data - truth)
        wins += err_structured < err_shrunk
    elapsed = time.perf_counter() - start
    _report(
        "C3",
        wins >= 16 and elapsed < 120.0,
        f"structured estimate closer to truth in {wins}/20 seeds at "
        f"N_e=D/2=80 (need >= 16) in {elapsed:.1f}s (need < 120s)",
    )


def test_c4_classification_gain_at_96_training_epochs(benchmark_runs):
    start = time.perf_counter()
    means = {"slda": [], "toeplitz": []}
    anchor = []
    for seed, run in enumerate(benchmark_runs):
        for est in means:
            aucs = [a for a, _ in _subset_auc(run, est, 96, 7, seed)]
            means[est].append(np.mean(aucs))
        full = lda.fit(run["xt"], run["yt"], dims=run["dims"],
                       estimator="slda")
        anchor.append(bench.auc(lda.decision_values(full, run["xv"]),
                                run["yv"]))
    gap = float(np.mean(means["toeplitz"]) - np.mean(means["slda"]))
    anchor_auc = float(np.mean(anchor))
    elapsed = time.perf_counter() - start + _GEN_SECONDS[0]
    _report(
        "C4",
        gap >= 0.02 and abs(anchor_auc - 0.75) <= 0.05 and elapsed < 300.0,
        f"mean AUC gain {gap:+.4f} at subset size 96, 7 draws x 20 seeds "
        f"(need >= +0.02); full-train slda anchor {anchor_auc:.4f} "
        f"(need 0.75 +- 0.05); {elapsed:.0f}s (need < 300s)",
    )


def test_c5_ablation_ordering_with_oracle_means(benchmark_runs):
    sizes = (6, 24, 96)
    n_draws = 3
    aucs = {est: [] for est in ("slda", "toeplitz_a1_only",
                                "toeplitz_a2_only", "toeplitz")}
    small = {"toeplitz_a1_only": [], "toeplitz_a2_only": []}
    ill_conditioned = 0
    for seed, run in enumerate(benchmark_runs):
        oracle = covest.class_means(run["xt"], run["yt"])
        for est in aucs:
            for size in sizes:
                for score, well in _subset_auc(run, est, size, n_draws, seed,
                                               mean_override=oracle):
                    aucs[est].append(score)
                    if est == "toeplitz_a1_only" and not well:
                        ill_conditioned += 1
                    if size <= 24 and est in small:
                        small[est].append(score)
    mean = {est: float(np.mean(v)) for est, v in aucs.items()}
    ordering = (mean["toeplitz"] >= mean["toeplitz_a2_only"] >= mean["slda"])
    a1_penalty = ill_conditioned > 0 or (
        np.mean(small["toeplitz_a1_only"]) < np.mean(small["toeplitz_a2_only"])
    )
    _report(
        "C5",
        ordering and a1_penalty,
        "oracle-mean AUC means "
        f"toeplitz={mean['toeplitz']:.4f} >= "
        f"a2={mean['toeplitz_a2_only']:.4f} >= slda={mean['slda']:.4f}: "
        f"{ordering}; averaging-only hurt (non-PD fits={ill_conditioned}, "
        f"small-subset a1={np.mean(small['toeplitz_a1_only']):.4f} vs "
        f"a2={np.mean(small['toeplitz_a2_only']):.4f}): {a1_penalty}",
    )


def test_c6_global_and_within_weights_are_collinear():
    worst = 1.0
    for seed in range(20):
        nc, nt = (2, 4) if seed % 2 == 0 else (4, 2)
        dims = BlockDims(nc, nt)
        ep = synth.generate_noise(synth.default_noise_model(dims), 396, dims,
                                  seed=seed)
        ep = synth.inject_erp(ep, synth.default_erp_spec(dims), seed=seed)
        x = np.stack([e.T.ravel() for e in ep.data], axis=1)
        y = ep.labels.astype(int)
        w_within = lda.fit(x, y, dims=dims, estimator="slda",
                           cov_mode="within", gamma=0.0).weights
        w_global = lda.fit(x, y, dims=dims, estimator="slda",
                           cov_mode="global", gamma=0.0).weights
        cos = w_within @ w_global / (
            np.linalg.norm(w_within) * np.linalg.norm(w_global)
        )
        worst = min(worst, cos)
    _report(
        "C6",
        worst >= 1.0 - 1e-8,
        f"worst weight-direction cosine {worst:.12f} over 20 datasets "
        f"with N_e > D and no shrinkage (need >= 1 - 1e-8)",
    )


# C7 times the solvers in a child process with one BLAS thread: threaded
# BLAS speeds up the large dense factorizations more than the small ones,
# which flattens the dense slope on a machine with few cores.  With one
# thread the process CPU time is the solver's work, without the time the
# process waits for a core on a shared host; the first call of a size runs
# cold, so each size takes the minimum over several calls.
_C7_TIMINGS = """
import json, sys, time
import numpy as np
from toeplitzlda import synth
from toeplitzlda.blockmat import BlockDims, to_dense
from toeplitzlda.btsolve import block_toeplitz_solve, dense_solve

def timed(fn):
    start = time.process_time()
    fn()
    return time.process_time() - start

nc = 8
t_block, t_dense, storage_ok = [], [], True
for nt in json.loads(sys.argv[1]):
    dims = BlockDims(nc, nt)
    btc = synth.true_covariance(synth.default_noise_model(dims), dims)
    storage_ok &= bool(btc.lag_blocks.size == nt * nc * nc)
    b = np.random.default_rng(nt).standard_normal(dims.size)
    dense = to_dense(btc)
    reps = 5 if nt <= 256 else 2
    t_block.append(min(timed(lambda: block_toeplitz_solve(btc, b)) for _ in range(reps)))
    t_dense.append(min(timed(lambda: dense_solve(dense, b)) for _ in range(reps)))
print(json.dumps({"t_block": t_block, "t_dense": t_dense, "storage_ok": storage_ok}))
"""


def _single_blas_thread_run(script: str, *args: str) -> dict:
    """Run ``script`` on this checkout's package with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(synth.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_c7_solver_scaling_and_compact_storage():
    sizes = (64, 128, 256, 512)
    timings = _single_blas_thread_run(_C7_TIMINGS, json.dumps(sizes))
    t_block, t_dense = timings["t_block"], timings["t_dense"]
    storage_ok = timings["storage_ok"]
    slope_block = float(np.polyfit(np.log(sizes), np.log(t_block), 1)[0])
    slope_dense = float(np.polyfit(np.log(sizes), np.log(t_dense), 1)[0])
    _report(
        "C7",
        slope_block <= 2.5 and slope_dense >= 2.5 and storage_ok,
        f"log-log time slope over n_times 64..512: block-Toeplitz solve {slope_block:.2f} "
        f"(need <= 2.5), dense {slope_dense:.2f} (need >= 2.5); compact "
        f"storage n_times*n_channels^2 exact: {storage_ok}",
    )


# C11 times the structured estimate the same way.  At 8 channels every size
# from 128 samples up is on the FFT side of `blockmat._fft_pays`, whose lag
# sums cost O(n_times log n_times); per-lag products would give a slope of 2.
_C11_TIMINGS = """
import json, sys, time
import numpy as np
from toeplitzlda import covest
from toeplitzlda.blockmat import BlockDims

def timed(fn):
    start = time.process_time()
    fn()
    return time.process_time() - start

nc, n_epochs = 8, 48
t_est = []
for nt in json.loads(sys.argv[1]):
    dims = BlockDims(nc, nt)
    xc = covest.center(np.random.default_rng(nt).standard_normal((dims.size, n_epochs)))
    t_est.append(min(timed(lambda: covest.estimate_covariance(xc, dims, "toeplitz"))
                     for _ in range(7)))
print(json.dumps({"t_est": t_est}))
"""


def test_c11_lag_estimate_time_scaling():
    sizes = (128, 256, 512, 1024)
    t_est = _single_blas_thread_run(_C11_TIMINGS, json.dumps(sizes))["t_est"]
    slope = float(np.polyfit(np.log(sizes), np.log(t_est), 1)[0])
    _report(
        "C11",
        slope <= 1.5,
        f"log-log time slope of the toeplitz covariance estimate over "
        f"n_times 128..1024 at 8 channels, N_e = 48: {slope:.2f} (need <= 1.5)",
    )


# C12 times the block-Toeplitz product ``block_toeplitz_matmul``, which
# multiplies by the dense expansion of the lag blocks without forming it.  As
# an FFT circular convolution it costs O(n_channels^2 n_times log n_times); a
# loop of per-lag products would give a slope of 2.
_C12_TIMINGS = """
import json, sys, time
import numpy as np
from toeplitzlda import synth
from toeplitzlda.blockmat import BlockDims
from toeplitzlda.btsolve import block_toeplitz_matmul

def timed(fn):
    start = time.process_time()
    fn()
    return time.process_time() - start

nc = 8
t_mul = []
for nt in json.loads(sys.argv[1]):
    dims = BlockDims(nc, nt)
    btc = synth.true_covariance(synth.default_noise_model(dims), dims)
    x = np.random.default_rng(nt).standard_normal(dims.size)
    t_mul.append(min(timed(lambda: block_toeplitz_matmul(btc, x)) for _ in range(7)))
print(json.dumps({"t_mul": t_mul}))
"""


def test_c12_residual_product_time_scaling():
    sizes = (128, 256, 512, 1024)
    t_mul = _single_blas_thread_run(_C12_TIMINGS, json.dumps(sizes))["t_mul"]
    slope = float(np.polyfit(np.log(sizes), np.log(t_mul), 1)[0])
    _report(
        "C12",
        slope <= 1.5,
        f"log-log time slope of the block-Toeplitz product over n_times "
        f"128..1024 at 8 channels: {slope:.2f} (need <= 1.5)",
    )


def test_c8_time_dimension_robustness_at_fixed_information():
    start = time.perf_counter()
    q_target = 1.6  # squared class separation delta' Sigma^-1 delta
    results = {}
    for nt, sfreq in ((13, 20.0), (130, 200.0)):
        dims = BlockDims(8, nt)
        model = synth.default_noise_model(dims)
        truth = to_dense(synth.true_covariance(model, dims)).data
        unit = synth.default_erp_spec(dims, sfreq=sfreq, t0=0.1, scale=1.0)
        delta1 = (unit.target_template - unit.nontarget_template).T.ravel()
        q_unit = float(delta1 @ np.linalg.solve(truth, delta1))
        scale = float(np.sqrt(q_target / q_unit))
        spec = synth.default_erp_spec(dims, sfreq=sfreq, t0=0.1, scale=scale)
        oracle_means = np.stack([
            spec.nontarget_template.T.ravel(), spec.target_template.T.ravel()
        ])
        per_est = {"slda": [], "toeplitz": []}
        for seed in range(N_SEEDS):
            ep = synth.generate_noise(model, 768, dims, seed, sfreq=sfreq,
                                      t0=0.1)
            ep = synth.inject_erp(ep, spec, seed)
            fc = FeatureConfig("all_samples", window=(0.1, 0.1 + nt / sfreq))
            feats = extract_features(ep, fc)
            y = ep.labels.astype(int)
            tr, va = bench.split_train_val(768, seed)
            xt, yt = feats.data[:, tr], y[tr]
            xv, yv = feats.data[:, va], y[va]
            draws = bench.draw_subsets(yt, 96, 3, seed)
            for est in per_est:
                vals = []
                for idx in draws:
                    override = ClassStats(means=oracle_means)
                    model_fit = lda.fit(xt[:, idx], yt[idx], dims=feats.dims,
                                        estimator=est, mean_override=override)
                    vals.append(bench.auc(
                        lda.decision_values(model_fit, xv), yv))
                per_est[est].append(np.mean(vals))
        results[nt] = {est: float(np.mean(v)) for est, v in per_est.items()}
    d_toeplitz = results[13]["toeplitz"] - results[130]["toeplitz"]
    d_slda = results[13]["slda"] - results[130]["slda"]
    elapsed = time.perf_counter() - start
    _report(
        "C8",
        d_toeplitz <= 0.03 and d_slda >= 0.06 and d_slda >= 2 * d_toeplitz,
        f"10x time-dimension growth at pinned class separation degrades "
        f"toeplitz by {d_toeplitz:+.4f} (need <= +0.03) and slda by "
        f"{d_slda:+.4f} (need >= +0.06 and >= 2x toeplitz); "
        f"AUC13={results[13]}, AUC130={results[130]} ({elapsed:.0f}s)",
    )


def test_c9_free_parameter_counts():
    cases = {
        (3, 5): (120, 42),
        (1, 1): (1, 1),
        (8, 20): (12880, 1252),
    }
    got = {k: free_parameter_count(BlockDims(*k)) for k in cases}
    _report(
        "C9",
        got == cases,
        f"free parameter counts {got} match the closed forms {cases}",
    )


def test_c10_pipeline_determinism_and_format(tmp_path):
    # synth -> bench through the command line, twice, plus a thread sweep.
    quiet = io.StringIO()
    digests = {}
    for tag, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        ds = tmp_path / f"ds_{tag}"
        rep = tmp_path / f"rep_{tag}"
        with contextlib.redirect_stdout(quiet):
            assert cli.main(["synth", "--out-dir", str(ds), "--n-epochs", "96",
                             "--seed", "7"]) == 0
            assert cli.main(["bench", "--dataset-dir", str(ds), "--out-dir",
                             str(rep), "--sizes", "6,12,24", "--draws", "3",
                             "--seed", "5", "--jobs", jobs]) == 0
        digests[tag] = (
            (ds / "data.bin").read_bytes(),
            (rep / "report.csv").read_bytes(),
        )
    deterministic = digests["a"] == digests["b"] == digests["c"]

    dims = BlockDims(3, 7)
    ep = synth.generate_noise(synth.default_noise_model(dims), 12, dims, seed=1)
    ep = synth.inject_erp(ep, synth.default_erp_spec(dims), seed=1)
    write_dataset(ep, tmp_path / "rt")
    back = read_dataset(tmp_path / "rt")
    round_trip = (np.array_equal(back.data, ep.data)
                  and np.array_equal(back.labels, ep.labels))

    def pairwise(scores, labels):
        t = scores[labels == 1]
        n = scores[labels == 0]
        wins = sum(1.0 if a > b else 0.5 if a == b else 0.0
                   for a in t for b in n)
        return wins / (t.size * n.size)

    # Every ordering-with-ties pattern up to m = 5 (an m-value score grid
    # realizes them all), plus random larger inputs up to m = 12.
    auc_exact = True
    n_cases = 0
    for m in range(2, 6):
        for scores in itertools.product(range(m), repeat=m):
            scores = np.array(scores, dtype=float)
            for bits in range(1, 2 ** m - 1):
                labels = np.array([(bits >> i) & 1 for i in range(m)])
                auc_exact &= bench.auc(scores, labels) == pairwise(scores,
                                                                   labels)
                n_cases += 1
    rng = np.random.default_rng(0)
    for _ in range(300):
        m = int(rng.integers(2, 13))
        labels = np.zeros(m, dtype=int)
        labels[rng.choice(m, int(rng.integers(1, m)), replace=False)] = 1
        scores = np.round(rng.standard_normal(m), 1)
        auc_exact &= bench.auc(scores, labels) == pairwise(scores, labels)
        n_cases += 1
    _report(
        "C10",
        deterministic and round_trip and auc_exact,
        f"byte-identical data.bin and report.csv across reruns and thread "
        f"counts: {deterministic}; dataset round-trip bit-exact: "
        f"{round_trip}; AUC equals the exhaustive pairwise count on all "
        f"{n_cases} enumerated and sampled inputs: {auc_exact}",
    )
