"""One benchmark run of one workload; ``run.py`` starts it in a subprocess.

The process is expected to run with ``OPENBLAS_NUM_THREADS=1`` and with the
checkout's ``src`` on ``PYTHONPATH``.  It prints an ``info`` JSON line
(environment, sample counts, quartiles) and then, as its last line, the
result object with every metric it computed; ``run.py`` keeps the metrics
``BENCHMARK.json`` lists.

Every time is CPU time of this process (``time.process_time``).  With one
BLAS thread and ``--jobs 1`` the work is single-threaded, so CPU time is the
wall time of an idle machine; on a shared host it leaves out the time the
process waits while other tenants' work runs on its core, which made the
wall time of one and the same fit range from 1.66 s to 3.34 s within a
minute on a 2-core host.  The ``info`` line also gives the wall time of the
timed loop.

Untraced run (``--trace 0``): set up ``setup_reps`` times, fit once per
estimator under ``tracemalloc`` (peak memory, and warm-up), then repeat
operations until ``--seconds`` have passed, then check the fitted weights
against a dense reference.

Traced run (``--trace 1``): passes over freshly set-up data, each with a
fixed number of operations: one traced under ``tracemalloc`` (per-stage
peaks), one untraced, and one traced (self times, calls, errors) whose
outputs must be identical to the untraced pass's.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracer import MIB, Tracer

import toeplitzlda
from toeplitzlda import bench, blockmat, btsolve, cli, covest, dataio, lda, synth
from toeplitzlda.errors import ToeplitzLdaError

ROOT = Path(__file__).resolve().parent.parent
N_EPOCHS = 768
T0 = 0.1
WINDOW = (0.1, 0.6)
FIT_ESTIMATORS = ("toeplitz", "slda")
SWEEP_ESTIMATORS = ("slda", "toeplitz", "toeplitz_a1_only", "toeplitz_a2_only")
SWEEP_COV_MODES = ("within", "global")
SWEEP_DRAWS = 7
MAX_OPS = 64
# Weight cosine a fit must reach against the dense reference solve.
COSINE_TOL = 1e-10
LAYERS = (synth, dataio, covest, blockmat, btsolve, lda, bench, cli)
CONSTRUCTORS = (blockmat.BlockCov, blockmat.BlockToeplitzCov)


@dataclass(frozen=True)
class Workload:
    kind: str  # "fit": toeplitz and slda on one draw; "sweep": one `bench` command + direct fits
    n_channels: int
    n_times: int
    sfreq: float
    erp_scale: float  # class template amplitude of the synthetic data
    n_train: int  # training epochs of one fit (N_e)
    auc_ops: int  # operations every run completes; val_auc averages over them
    setup_reps: int  # setups per untraced run; setup_s is their median
    trace_ops: int  # operations in each pass of a traced run


WORKLOADS = {
    # Paper-sized: 31 channels x 100 samples (D = 3100) with N_e = 192 < D.
    # The D x D stages (sample covariance, Ledoit-Wolf gamma, the BlockCov
    # copy and symmetry check, averaging) are most of a fit, and nc = 31
    # makes the Levinson block work large.
    "fit-paper": Workload("fit", 31, 100, 200.0, 3.5, 192, auc_ops=3, setup_reps=5, trace_ops=3),
    # Few epochs and a long window (8 x 512, D = 4096, N_e = 96), the regime
    # the estimator targets: the largest D x D memory peak, 512 Levinson
    # steps of 8 x 8 blocks and a 512-pass lag average.  Once the covariance
    # is matrix-free the solver dominates here.
    "fit-long": Workload("fit", 8, 512, 1024.0, 2.0, 96, auc_ops=2, setup_reps=5, trace_ops=2),
    # The `toeplitzlda bench` command on the default `toeplitzlda synth`
    # dataset (8 x 20, D = 160): 392 tiny fits over all four estimators,
    # both cov modes and sizes 6..384, so N_e reaches beyond D.  It covers
    # the a1 breakdown -> dense fallback, the a2 dense taper, AUC, dataset
    # reading and feature extraction.  D x D kernels are small here: a
    # change aimed at large D must show no loss on this workload.
    "sweep-cli": Workload(
        "sweep", 8, 20, synth.DEFAULT_SFREQ, synth.DEFAULT_ERP_SCALE, 96,
        auc_ops=1, setup_reps=9, trace_ops=3,
    ),
}
# The fit workloads raise the class templates above the default 1.69 (tuned
# for 8 x 20): at the default a 31 x 100 fit on 192 epochs scores a
# validation AUC near 0.6 that moved by 10-13% (quartile spread) between
# seeds; near 0.9 it moves by a few percent.  Run time does not depend on
# the amplitude.


# -- bookkeeping ---------------------------------------------------------------


class Tally:
    """Attempted and failed operations, correctness checks included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_checks: list[str] = []

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, what: str, ok: bool) -> None:
        self.op(ok)
        if not ok:
            self.failed_checks.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)


@dataclass
class Results:
    """Per-operation measurements of one pass."""

    seconds: dict[str, list[float]] = field(default_factory=lambda: {e: [] for e in FIT_ESTIMATORS})
    aucs: dict[str, list[float]] = field(default_factory=lambda: {e: [] for e in FIT_ESTIMATORS})
    cell_rates: list[float] = field(default_factory=list)
    # Bytes of everything an operation produced, compared across repeats
    # and between traced and untraced passes.
    outputs: list[bytes] = field(default_factory=list)
    models: dict[str, lda.LdaModel] = field(default_factory=dict)  # draw 0


# -- workload steps ------------------------------------------------------------


def setup(w: Workload, seed: int, directory: Path):
    """Generate, write and read the dataset, then extract features."""
    dims = blockmat.BlockDims(w.n_channels, w.n_times)
    epochs = synth.generate_noise(
        synth.default_noise_model(dims), N_EPOCHS, dims, seed, sfreq=w.sfreq, t0=T0
    )
    spec = synth.default_erp_spec(dims, sfreq=w.sfreq, t0=T0, scale=w.erp_scale)
    epochs = synth.inject_erp(epochs, spec, seed)
    dataio.write_dataset(epochs, directory)
    epochs = dataio.read_dataset(directory)
    feats = dataio.extract_features(epochs, dataio.FeatureConfig("all_samples", window=WINDOW))
    return epochs, feats


class Data:
    """Train/validation halves and the stratified training draws."""

    def __init__(self, w: Workload, seed: int, epochs, feats, directory: Path):
        y = epochs.labels.astype(np.int64)
        train, val = bench.split_train_val(epochs.n_epochs, seed)
        self.directory = directory
        self.dims = feats.dims
        self.x_train, self.y_train = feats.data[:, train], y[train]
        self.x_val, self.y_val = feats.data[:, val], y[val]
        n_draws = MAX_OPS if w.kind == "fit" else SWEEP_DRAWS
        self.draws = bench.draw_subsets(self.y_train, w.n_train, n_draws, seed)

    def train(self, k: int):
        idx = self.draws[k]
        return self.x_train[:, idx], self.y_train[idx]


def fit_score(data: Data, estimator: str, k: int):
    """Fit on draw ``k``, score the validation half: (model, AUC, seconds)."""
    x, y = data.train(k)
    start = time.process_time()
    model = lda.fit(x, y, dims=data.dims, estimator=estimator, cov_mode="within")
    scores = lda.decision_values(model, data.x_val)
    elapsed = time.process_time() - start
    return model, bench.auc(scores, data.y_val), elapsed


def fit_cells(data: Data, k: int, res: Results, tally: Tally, record_auc: bool) -> bytes:
    """Both estimators on draw ``k``; returns the weights' bytes."""
    out = b""
    for est in FIT_ESTIMATORS:
        try:
            model, score, elapsed = fit_score(data, est, k)
        except (ToeplitzLdaError, np.linalg.LinAlgError) as exc:
            print(f"perfbench: {est} fit on draw {k} raised {exc!r}", file=sys.stderr)
            tally.op(False)
            continue
        tally.op(bool(np.isfinite(score)))
        res.seconds[est].append(elapsed)
        if record_auc:
            res.aucs[est].append(score)
        if k == 0:
            res.models[est] = model
        out += model.weights.tobytes() + np.float64(model.bias).tobytes()
    return out


def sweep_args(data: Data, seed: int) -> list[str]:
    return [
        "bench",
        "--dataset-dir", str(data.directory),
        "--out-dir", str(data.directory.parent / "report"),
        "--estimators", ",".join(SWEEP_ESTIMATORS),
        "--cov-modes", ",".join(SWEEP_COV_MODES),
        "--jobs", "1",
        "--seed", str(seed),
    ]


def check_cells(agg: dict, csv: bytes, tally: Tally) -> None:
    """Every cell of the grid is in aggregate.json with all draws accounted."""
    sizes = bench.DEFAULT_SUBSET_SIZES
    expected = {(e, m, s) for e in SWEEP_ESTIMATORS for m in SWEEP_COV_MODES for s in sizes}
    cells = agg["cells"]
    found = {(c["estimator"], c["cov_mode"], c["subset_size"]) for c in cells}
    complete = all(c["n_ok"] + c["n_failed"] + c["n_skipped"] == SWEEP_DRAWS for c in cells)
    n_rows = csv.count(b"\n") - 1
    tally.check(
        "sweep: every cell accounted for in aggregate.json",
        found == expected and len(cells) == len(expected) and complete
        and n_rows == len(expected) * SWEEP_DRAWS,
    )
    n_failed = sum(c["n_failed"] for c in cells)
    tally.attempted += n_rows
    tally.failed += n_failed


def sweep_cells(data: Data, seed: int, res: Results, tally: Tally, record_auc: bool) -> bytes:
    """One `toeplitzlda bench` run plus the direct fits; returns the outputs' bytes."""
    report = data.directory.parent / "report"
    start = time.process_time()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(sweep_args(data, seed))
    elapsed = time.process_time() - start
    tally.check(f"sweep: bench exit code {code} == 0", code == 0)
    csv = (report / "report.csv").read_bytes()
    agg_bytes = (report / "aggregate.json").read_bytes()
    agg = json.loads(agg_bytes)
    check_cells(agg, csv, tally)
    res.cell_rates.append((csv.count(b"\n") - 1) / elapsed)
    if record_auc:
        for est in FIT_ESTIMATORS:
            means = [c["auc_mean"] for c in agg["cells"]
                     if c["estimator"] == est and c["auc_mean"] is not None]
            res.aucs[est].append(float(np.mean(means)))
    out = csv + agg_bytes
    # The sweep records no fit times; time the same fits directly at one
    # of its sizes so that fit_score_ms has a small-D reading.
    for k in range(SWEEP_DRAWS):
        out += fit_cells(data, k, res, tally, record_auc=False)
    return out


def operation(w: Workload, data: Data, seed: int, i: int, res: Results, tally: Tally) -> None:
    start = time.process_time()
    if w.kind == "fit":
        res.outputs.append(fit_cells(data, i, res, tally, record_auc=i < w.auc_ops))
        res.cell_rates.append(len(FIT_ESTIMATORS) / (time.process_time() - start))
    else:
        res.outputs.append(sweep_cells(data, seed, res, tally, record_auc=i < w.auc_ops))


def measure(w: Workload, data: Data, seed: int, tally: Tally, n_min: int, deadline: float | None) -> Results:
    """At least ``n_min`` operations, more until ``deadline`` (perf_counter)."""
    res = Results()
    i = 0
    while i < MAX_OPS and (i < n_min or (deadline is not None and time.perf_counter() < deadline)):
        operation(w, data, seed, i, res, tally)
        i += 1
    return res


def peak_fit_mib(data: Data, estimator: str):
    """tracemalloc peak of one fit on draw 0: (MiB, model)."""
    x, y = data.train(0)
    tracemalloc.start()
    try:
        model = lda.fit(x, y, dims=data.dims, estimator=estimator, cov_mode="within")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / MIB, model


def reference_check(data: Data, models: dict, tally: Tally) -> None:
    """Weights on draw 0 against a dense solve of covariances rebuilt stage by stage."""
    x, y = data.train(0)
    xc = covest.center(x, labels=y)
    shrunk = covest.shrink(covest.sample_covariance(xc, data.dims), None, xc).matrix
    stats = covest.class_means(x, y)
    delta = stats.means[1] - stats.means[0]
    refs = {"slda": btsolve.dense_solve(shrunk, delta).solution}
    btc = blockmat.apply_taper(blockmat.block_diagonal_average(shrunk))
    del shrunk
    refs["toeplitz"] = btsolve.dense_solve(blockmat.to_dense(btc), delta).solution
    for est, ref in refs.items():
        model = models.get(est)
        if model is None:
            tally.check(f"{est}: no model on draw 0 to check", False)
            continue
        w = model.weights
        cos = float(w @ ref / (np.linalg.norm(w) * np.linalg.norm(ref)))
        tally.check(f"{est}: weight cosine {cos!r} vs dense reference >= 1 - {COSINE_TOL}",
                    cos >= 1.0 - COSINE_TOL)


def check_repeats(w: Workload, res: Results, tally: Tally) -> None:
    if w.kind == "sweep":
        tally.check("sweep: report.csv and aggregate.json byte-identical across repeats",
                    all(o == res.outputs[0] for o in res.outputs))


# -- runs ----------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def untraced_run(w: Workload, seed: int, seconds: float, work: Path, tally: Tally):
    setup_s = []
    for _ in range(w.setup_reps):
        start = time.process_time()
        epochs, feats = setup(w, seed, work / "dataset")
        setup_s.append(time.process_time() - start)
    data = Data(w, seed, epochs, feats, work / "dataset")
    peaks, peak_models = {}, {}
    for est in FIT_ESTIMATORS:
        peaks[est], peak_models[est] = peak_fit_mib(data, est)
    wall, cpu = time.perf_counter(), time.process_time()
    res = measure(w, data, seed, tally, w.auc_ops, wall + seconds)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    check_repeats(w, res, tally)
    for est in FIT_ESTIMATORS:
        same = est in res.models and np.array_equal(res.models[est].weights, peak_models[est].weights)
        tally.check(f"{est}: draw-0 weights identical across fits", same)
    reference_check(data, peak_models, tally)

    metrics = {"setup_s": (statistics.median(setup_s), "s"),
               "sweep.cells_per_s": (statistics.median(res.cell_rates), "cells/s")}
    for est in FIT_ESTIMATORS:
        metrics[f"{est}.fit_score_ms"] = (statistics.median(res.seconds[est]) * 1e3, "ms")
        metrics[f"{est}.peak_mib"] = (peaks[est], "MiB")
        metrics[f"{est}.val_auc"] = (statistics.fmean(res.aucs[est]), "AUC")
    info = {
        "timed_loop": {"wall_s": wall, "cpu_s": cpu},
        "samples": {"setup_s": len(setup_s), "cells_per_s": len(res.cell_rates),
                    **{f"{e}.fit_score_ms": len(res.seconds[e]) for e in FIT_ESTIMATORS}},
        "quartiles": {"setup_s": quartiles(setup_s), "cells_per_s": quartiles(res.cell_rates),
                      **{f"{e}.fit_score_ms": [q * 1e3 for q in quartiles(res.seconds[e])]
                         for e in FIT_ESTIMATORS}},
    }
    return metrics, info


def run_pass(w: Workload, seed: int, work: Path, tally: Tally, n_ops: int, tracer: Tracer | None):
    """Setup plus ``n_ops`` operations; returns (CPU seconds, results, data)."""
    start = time.process_time()
    with tracer.span("perfbench") if tracer else contextlib.nullcontext():
        epochs, feats = setup(w, seed, work / "dataset")
        data = Data(w, seed, epochs, feats, work / "dataset")
        res = measure(w, data, seed, tally, n_ops, None)
    return time.process_time() - start, res, data


def traced_run(name: str, seed: int, work: Path, tally: Tally, listed: set[str], trace_path: Path):
    w = WORKLOADS[name]
    # The memory pass goes first, so that the untraced pass it is compared
    # against does not pay for first calls and the traced pass does not
    # look cheaper than it is.
    mem_tracer = Tracer("toeplitzlda", LAYERS, CONSTRUCTORS, track_memory=True)
    tracemalloc.start()
    mem_tracer.install()
    try:
        run_pass(w, seed, work, tally, 1, mem_tracer)
    finally:
        restored = mem_tracer.uninstall()
        tracemalloc.stop()
    tally.check("tracing: memory-pass wrappers restored the original functions", restored)

    plain_s, plain, data = run_pass(w, seed, work, tally, w.trace_ops, None)
    check_repeats(w, plain, tally)
    tracer = Tracer("toeplitzlda", LAYERS, CONSTRUCTORS)
    tracer.install()
    try:
        traced_s, traced, _ = run_pass(w, seed, work, tally, w.trace_ops, tracer)
    finally:
        restored = tracer.uninstall()
    tally.check("tracing: wrappers restored the original functions", restored)
    tally.check("tracing: traced outputs identical to untraced", traced.outputs == plain.outputs)
    reference_check(data, plain.models, tally)

    summary = tracer.summary()
    peaks = mem_tracer.summary()
    metrics = {}
    unlisted_ms = 0.0
    for fn in tracer.names:
        s = summary.get(fn, {"calls": 0, "errors": 0, "self_s": 0.0})
        metrics[f"{fn}.self_ms"] = (s["self_s"] * 1e3, "ms")
        metrics[f"{fn}.calls"] = (s["calls"], "count")
        metrics[f"{fn}.errors"] = (s["errors"], "count")
        metrics[f"{fn}.peak_mib"] = (peaks.get(fn, {"peak_mib": 0.0})["peak_mib"], "MiB")
        if f"{fn}.self_ms" not in listed:
            unlisted_ms += s["self_s"] * 1e3
    metrics.update({
        "trace.untraced_ms": (plain_s * 1e3, "ms"),
        "trace.traced_ms": (traced_s * 1e3, "ms"),
        "trace.overhead_ms": ((traced_s - plain_s) * 1e3, "ms"),
        "trace.bench_self_ms": (summary["perfbench"]["self_s"] * 1e3, "ms"),
        "trace.unlisted_self_ms": (unlisted_ms, "ms"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    tracer.write(trace_path, {"workload": name, "seed": seed, "ops": w.trace_ops})
    return metrics, {"ops": w.trace_ops, "trace_file": str(trace_path.relative_to(ROOT))}


# -- environment ---------------------------------------------------------------


def blas_threads() -> dict[str, int]:
    """Thread count of each bundled OpenBLAS, read through its own API."""
    site = Path(np.__file__).resolve().parent.parent
    out = {}
    for lib_dir in ("numpy.libs", "scipy.libs"):
        for path in sorted((site / lib_dir).glob("libscipy_openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    out[f"{lib_dir}/{path.name}"] = fn()
                    break
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "openblas": blas.get("version"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    src = (ROOT / "src" / "toeplitzlda").resolve()
    if Path(toeplitzlda.__file__).resolve().parent != src:
        print(f"perfbench: toeplitzlda imported from {toeplitzlda.__file__}, not {src}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    w = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, info = traced_run(args.workload, args.seed, work, tally, listed, trace_path)
        else:
            metrics, info = untraced_run(w, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(listed - metrics.keys())
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    info.update(workload=args.workload, seed=args.seed, env=environment(),
                failed_checks=tally.failed_checks)
    print(json.dumps({"info": info}, default=str))
    result = {
        "correct": not tally.failed_checks,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in sorted(listed)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
