"""Benchmark harness: subset draws, AUC scoring, and the learning curve.

The protocol mirrors a transfer-style evaluation on a labeled dataset:

1. Split the epochs 50/50 into training and validation halves at the
   epoch-group level: one group is six consecutive epochs with one target,
   the fixed 1:5 ratio ``synth.TARGET_RATIO``, so the config echo in
   ``aggregate.json`` has no group size.
2. For each subset size and draw, sample a training subset (stratified to
   preserve the 1:5 target ratio by default), fit every configured
   estimator on it, and score the full validation half by AUC.
3. Aggregate mean and standard deviation over draws per cell.

Every random choice derives from a Philox stream keyed by the benchmark
seed and the cell coordinates, so reports are byte-identical across runs
and across ``--jobs`` settings.  Fit wall-times are measured and reported
in the JSON aggregate; the CSV carries them only when ``record_timing`` is
enabled, because timings are not reproducible byte-for-byte.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import lda, rng
from .blockmat import _finite_array
from .covest import _check_labels, class_means
from .dataio import FeatureConfig, _write_json, extract_features, read_dataset
from .errors import GroupSizeError, ShapeError, ToeplitzLdaError
from .synth import TARGET_RATIO

logger = logging.getLogger(__name__)

DEFAULT_SUBSET_SIZES = (6, 12, 24, 48, 96, 192, 384)

CSV_HEADER = "estimator,cov_mode,oracle_means,subset_size,draw,auc,fit_ms,n_train"


def auc(scores, labels) -> float:
    """Area under the ROC curve, exact, with half credit for ties.

    Computed from mid-ranks, which equals the exhaustive pairwise
    comparison count ``(#(target > non-target) + 0.5 #(ties)) / (n_t n_n)``
    exactly, including in floating point.
    """
    scores = _finite_array(scores, (None,), "scores")
    labels = _check_labels(labels, scores.size)
    pos = labels == 1
    n_t = int(pos.sum())
    n_n = labels.size - n_t
    if n_t == 0 or n_n == 0:
        raise ValueError("AUC needs at least one target and one non-target")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    midranks = (starts + ends) / 2.0
    u = midranks[inverse][pos].sum() - n_t * (n_t + 1) / 2.0
    return float(u / (n_t * n_n))


def split_train_val(n_epochs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded 50/50 split over whole epoch groups; returns sorted indices."""
    group_size = sum(TARGET_RATIO)
    if n_epochs % group_size != 0:
        raise GroupSizeError(
            f"n_epochs={n_epochs} is not a multiple of the group size {group_size}"
        )
    n_groups = n_epochs // group_size
    if n_groups < 2:
        raise GroupSizeError("need at least two epoch groups to split")
    perm = rng.stream(seed, rng.SPLIT_STREAM).permutation(n_groups)
    half = n_groups // 2
    def expand(groups):
        idx = (groups[:, None] * group_size + np.arange(group_size)).reshape(-1)
        return np.sort(idx)
    return expand(perm[:half]), expand(perm[half:])


def draw_subsets(
    labels,
    size: int,
    n_draws: int,
    seed: int,
    stratified: bool = True,
) -> list[np.ndarray]:
    """Deterministic training subset draws (indices into ``labels``).

    Stratified mode keeps the target ratio ``TARGET_RATIO`` exact, so
    ``size`` must be a multiple of the group size; plain uniform mode
    redraws until both classes are present.  Draw ``k`` for a given size
    depends only on ``(seed, size, k)``.  A size out of range or, in
    stratified mode, off the group grid or beyond a class pool raises
    :class:`ShapeError` before the first draw.
    """
    labels = _check_labels(labels, np.size(labels))
    n = labels.size
    if not 1 <= size <= n:
        raise ShapeError(f"subset size {size} out of range for {n} epochs")
    targets = np.flatnonzero(labels == 1)
    nontargets = np.flatnonzero(labels == 0)
    group = sum(TARGET_RATIO)
    if stratified:
        if size % group != 0:
            raise ShapeError(
                f"stratified subset size {size} must be a multiple of the "
                f"group size {group}"
            )
        n_t = size // group * TARGET_RATIO[0]
        n_n = size - n_t
        if n_t > targets.size or n_n > nontargets.size:
            raise ShapeError(
                f"cannot draw {n_t} targets / {n_n} non-targets from pools "
                f"of {targets.size} / {nontargets.size}"
            )
    draws = []
    for k in range(n_draws):
        gen = rng.stream(seed, rng.DRAW_STREAM_BASE + size * (1 << 20) + k)
        if stratified:
            idx = np.concatenate(
                [
                    gen.choice(targets, n_t, replace=False),
                    gen.choice(nontargets, n_n, replace=False),
                ]
            )
        else:
            for _ in range(1000):
                idx = gen.choice(n, size, replace=False)
                if 0 < labels[idx].sum() < size:
                    break
            else:
                raise ShapeError(
                    f"could not draw a two-class subset of size {size}"
                )
        draws.append(np.sort(idx))
    return draws


@dataclass(frozen=True)
class BenchConfig:
    """Everything a benchmark run depends on."""

    dataset_dir: str
    estimators: tuple[str, ...] = ("slda", "toeplitz")
    cov_modes: tuple[str, ...] = ("within",)
    subset_sizes: tuple[int, ...] = DEFAULT_SUBSET_SIZES
    n_draws: int = 7
    oracle_means: bool = False
    feature: FeatureConfig = field(
        default_factory=lambda: FeatureConfig("all_samples", window=(0.1, 0.6))
    )
    seed: int = 0
    gamma: float | None = None
    stratified: bool = True
    jobs: int = 1
    record_timing: bool = False

    def __post_init__(self):
        for est in self.estimators:
            if est not in lda.ESTIMATORS:
                raise ValueError(
                    f"unknown estimator {est!r}; expected one of {lda.ESTIMATORS}"
                )
        for mode in self.cov_modes:
            if mode not in lda.COV_MODES:
                raise ValueError(
                    f"unknown cov_mode {mode!r}; expected one of {lda.COV_MODES}"
                )
        for name in ("estimators", "cov_modes", "subset_sizes"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat an entry, got {values}")
        if self.n_draws < 1 or self.jobs < 1:
            raise ValueError(
                f"n_draws and jobs must be at least 1, got {self.n_draws} and {self.jobs}"
            )
        # A draw needs both classes, so one epoch is never enough.
        group = sum(TARGET_RATIO)
        for size in self.subset_sizes:
            if size < 2 or (self.stratified and size % group != 0):
                raise ValueError(
                    f"subset_sizes must be at least 2, and multiples of the group "
                    f"size {group} with stratified draws, got {size}"
                )


@dataclass(frozen=True)
class BenchRow:
    """Result of one benchmark cell (or its skip/failure record)."""

    estimator: str
    cov_mode: str
    oracle_means: bool
    subset_size: int
    draw: int
    auc: float
    fit_ms: float
    n_train: int
    status: str = "ok"
    well_conditioned: bool = True
    error: str = ""


@dataclass(frozen=True)
class BenchReport:
    """All rows of a run plus the split sizes and the config echo."""

    config: BenchConfig
    rows: tuple[BenchRow, ...]
    n_train: int
    n_val: int


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Run the full grid; failures are recorded per cell, not raised."""
    epochs = read_dataset(cfg.dataset_dir)
    if epochs.labels is None:
        raise ShapeError("the benchmark needs a labeled dataset")
    feats = extract_features(epochs, cfg.feature)
    y = epochs.labels.astype(np.int64)
    train_idx, val_idx = split_train_val(epochs.n_epochs, cfg.seed)
    x_train, y_train = feats.data[:, train_idx], y[train_idx]
    x_val, y_val = feats.data[:, val_idx], y[val_idx]
    oracle = class_means(x_train, y_train) if cfg.oracle_means else None

    draws: dict[int, list[np.ndarray]] = {}
    for size in cfg.subset_sizes:
        if size <= train_idx.size:
            draws[size] = draw_subsets(
                y_train, size, cfg.n_draws, cfg.seed, cfg.stratified
            )
        else:
            logger.warning(
                "subset size %d exceeds the training split (%d epochs); skipped",
                size,
                train_idx.size,
            )

    def run_cell(task) -> BenchRow:
        est, mode, size, k = task
        if size not in draws:
            return BenchRow(est, mode, cfg.oracle_means, size, k,
                            float("nan"), float("nan"), 0, status="skipped")
        idx = draws[size][k]
        start = time.perf_counter()
        try:
            model = lda.fit(
                x_train[:, idx],
                y_train[idx],
                dims=feats.dims,
                estimator=est,
                cov_mode=mode,
                mean_override=oracle,
                gamma=cfg.gamma,
            )
            fit_ms = (time.perf_counter() - start) * 1e3
            score = auc(lda.decision_values(model, x_val), y_val)
        except (ToeplitzLdaError, np.linalg.LinAlgError) as exc:
            fit_ms = (time.perf_counter() - start) * 1e3
            return BenchRow(est, mode, cfg.oracle_means, size, k,
                            float("nan"), fit_ms, idx.size,
                            status="failed", well_conditioned=False,
                            error=f"{type(exc).__name__}: {exc}")
        return BenchRow(est, mode, cfg.oracle_means, size, k,
                        score, fit_ms, idx.size,
                        well_conditioned=model.well_conditioned)

    tasks = [
        (est, mode, size, k)
        for est in cfg.estimators
        for mode in cfg.cov_modes
        for size in cfg.subset_sizes
        for k in range(cfg.n_draws)
    ]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = tuple(pool.map(run_cell, tasks))
    else:
        rows = tuple(run_cell(t) for t in tasks)
    return BenchReport(cfg, rows, int(train_idx.size), int(val_idx.size))


def aggregate(report: BenchReport) -> dict:
    """Mean/sd AUC and mean fit time per (estimator, cov_mode, size) cell."""
    cells = []
    cfg = report.config
    for est in cfg.estimators:
        for mode in cfg.cov_modes:
            for size in cfg.subset_sizes:
                rows = [
                    r
                    for r in report.rows
                    if (r.estimator, r.cov_mode, r.subset_size) == (est, mode, size)
                ]
                ok = [r for r in rows if r.status == "ok"]
                aucs = np.array([r.auc for r in ok])
                cells.append(
                    {
                        "estimator": est,
                        "cov_mode": mode,
                        "oracle_means": cfg.oracle_means,
                        "subset_size": size,
                        "n_ok": len(ok),
                        "n_failed": sum(r.status == "failed" for r in rows),
                        "n_skipped": sum(r.status == "skipped" for r in rows),
                        "n_ill_conditioned": sum(
                            not r.well_conditioned for r in ok
                        ),
                        "auc_mean": float(aucs.mean()) if ok else None,
                        "auc_sd": float(aucs.std(ddof=1)) if len(ok) > 1 else None,
                        # Wall times are reported only on request so that the
                        # aggregate document stays byte-identical across runs.
                        "fit_ms_mean": float(np.mean([r.fit_ms for r in ok]))
                        if ok and cfg.record_timing
                        else None,
                    }
                )
    config = asdict(cfg)
    config["feature"] = {k: v for k, v in config["feature"].items() if v is not None}
    # The worker count changes nothing about the results, so it is dropped
    # from the echo to keep the document byte-identical across --jobs.
    del config["jobs"]
    return {
        "config": config,
        "n_train": report.n_train,
        "n_val": report.n_val,
        "cells": cells,
    }


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_csv(report: BenchReport) -> str:
    """Canonical CSV serialization (byte-deterministic given the config)."""
    lines = [CSV_HEADER]
    for r in report.rows:
        fit_ms = repr(float(r.fit_ms)) if report.config.record_timing else "na"
        lines.append(
            ",".join(
                [
                    r.estimator,
                    r.cov_mode,
                    _fmt(r.oracle_means),
                    str(r.subset_size),
                    str(r.draw),
                    _fmt(float(r.auc)),
                    fit_ms,
                    str(r.n_train),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_report(report: BenchReport, out_dir) -> tuple[Path, Path]:
    """Write ``report.csv`` and ``aggregate.json``; returns their paths."""
    out_dir = Path(out_dir)
    csv_path, json_path = out_dir / "report.csv", out_dir / "aggregate.json"
    _write_json(json_path, aggregate(report))
    csv_path.write_text(report_csv(report), encoding="utf-8")
    return csv_path, json_path
