"""Benchmark harness: subset draws, AUC scoring, and the learning curve.

The protocol mirrors a transfer-style evaluation on a labeled dataset:

1. Split the epochs 50/50 into training and validation halves at the
   epoch-group level: one group is six consecutive epochs with one target,
   the fixed 1:5 ratio ``synth.TARGET_RATIO``, so the config echo in
   ``aggregate.json`` has no group size.
2. For each subset size and draw, sample a training subset that keeps
   the 1:5 target ratio exactly (so every size is a positive multiple of
   the group size), fit every configured estimator on it, and score the
   full validation half by AUC.
3. Aggregate mean and standard deviation over draws per cell.

``BenchConfig`` checks the settings, ``run_benchmark`` the split (both
classes in the validation half) and feature extraction the data, once;
after that only each row's scores are checked: the rows score them through
``_auc`` against the validation labels.
One training draw and cov mode is one unit of work: its estimators are
fitted through one ``lda._fitter``, which takes the draw's class means,
centering, shrinkage intensity and lag sums once for all of them (see
``covest._Estimates``); each estimator then forms and solves its own
estimate and is scored through ``lda._decision_values``.  An error in a
shared stage fails every row of the draw with the message a lone fit gives;
an error in one estimator's estimate, solve or score fails only its row.
The rows come out in the order estimator, cov mode, size, draw.

Every random choice derives from a Philox stream keyed by the benchmark
seed and the cell coordinates, so reports are byte-identical across runs
and across ``--jobs`` settings.  A row's fit time is the time of the
draw's shared stages plus that of its estimator's own estimate and solve,
so it still reads as the cost of one fit.  Fit times are reported in the
JSON aggregate and the CSV only when ``record_timing`` is enabled, because
timings are not reproducible byte-for-byte.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import covest, lda, rng
from .blockmat import _check_labels, _finite_array
from .dataio import DEFAULT_WINDOW, FeatureConfig, _write_json, extract_features, read_dataset
from .errors import DataFormatError, GroupSizeError, ShapeError, ToeplitzLdaError
from .synth import TARGET_RATIO

logger = logging.getLogger(__name__)

DEFAULT_SUBSET_SIZES = (6, 12, 24, 48, 96, 192, 384)

CSV_HEADER = "estimator,cov_mode,oracle_means,subset_size,draw,auc,fit_ms,n_train"


def auc(scores, labels) -> float:
    """Area under the ROC curve, exact, with half credit for ties.

    The pair count ``(#(target > non-target) + 0.5 #(ties)) / (n_t n_n)``,
    taken by binary search in the sorted non-target scores; both counts are
    integers, so the value equals the exhaustive pairwise comparison's
    exactly, including in floating point.
    """
    scores = _finite_array(scores, (None,), "scores")
    pos = _check_labels(labels, scores.size) == 1
    if pos.all() or not pos.any():
        raise ValueError("AUC needs at least one target and one non-target")
    return _auc(scores, pos)


def _auc(scores: np.ndarray, pos: np.ndarray) -> float:
    """:func:`auc` of finite float64 ``scores`` and the target mask ``pos``
    of checked labels, which holds both classes.

    Each target's non-targets below it are the left insertion point of its
    score in the sorted non-target scores, and its ties the distance from
    there to the right one.
    """
    neg = np.sort(scores[~pos])
    targets = scores[pos]
    below = np.searchsorted(neg, targets, "left")
    ties = np.searchsorted(neg, targets, "right") - below
    return float((below.sum() + 0.5 * ties.sum()) / (targets.size * neg.size))


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


def draw_subsets(labels, size: int, n_draws: int, seed: int) -> list[np.ndarray]:
    """Deterministic training subset draws (indices into ``labels``).

    Every draw keeps the target ratio ``TARGET_RATIO`` exact, so ``size``
    must be a multiple of the group size.  Draw ``k`` for a given size
    depends only on ``(seed, size, k)``.  A size out of range, off the group
    grid or beyond a class pool raises :class:`ShapeError` before the first
    draw.
    """
    labels = _check_labels(labels, np.size(labels))
    n = labels.size
    if not 1 <= size <= n:
        raise ShapeError(f"subset size {size} out of range for {n} epochs")
    targets = np.flatnonzero(labels == 1)
    nontargets = np.flatnonzero(labels == 0)
    group = sum(TARGET_RATIO)
    if size % group != 0:
        raise ShapeError(f"subset size {size} must be a multiple of the group size {group}")
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
        idx = np.concatenate(
            [
                gen.choice(targets, n_t, replace=False),
                gen.choice(nontargets, n_n, replace=False),
            ]
        )
        draws.append(np.sort(idx))
    return draws


@dataclass(frozen=True)
class BenchConfig:
    """Everything a benchmark run depends on.

    Every draw keeps the 1:5 target ratio, so each subset size is a
    positive multiple of the group size.
    """

    dataset_dir: str
    estimators: tuple[str, ...] = ("slda", "toeplitz")
    cov_modes: tuple[str, ...] = ("within",)
    subset_sizes: tuple[int, ...] = DEFAULT_SUBSET_SIZES
    n_draws: int = 7
    oracle_means: bool = False
    feature: FeatureConfig = field(
        default_factory=lambda: FeatureConfig("all_samples", window=DEFAULT_WINDOW)
    )
    seed: int = 0
    gamma: float | None = None
    jobs: int = 1
    record_timing: bool = False

    def __post_init__(self):
        # The fit's own checks, so that no cell fails on a bad setting.
        for est in self.estimators:
            covest._check_estimator(est)
        for mode in self.cov_modes:
            lda._check_cov_mode(mode)
        covest._unit_gamma(self.gamma)
        rng._key_word(self.seed, "seed")
        for name in ("estimators", "cov_modes", "subset_sizes"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat an entry, got {values}")
        if self.n_draws < 1 or self.jobs < 1:
            raise ValueError(
                f"n_draws and jobs must be at least 1, got {self.n_draws} and {self.jobs}"
            )
        # Every draw keeps the 1:5 ratio, so it takes whole groups.
        group = sum(TARGET_RATIO)
        for size in self.subset_sizes:
            if size < 1 or size % group != 0:
                raise ValueError(
                    f"subset_sizes must be positive multiples of the group size "
                    f"{group}, got {size}"
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
    """Run the full grid, recording failures per cell; a dataset that breaks
    the group contract raises :class:`DataFormatError` before the first fit."""
    epochs = read_dataset(cfg.dataset_dir)
    labels = epochs.labels
    if labels is None:
        raise ShapeError("the benchmark needs a labeled dataset")
    try:
        train_idx, val_idx = split_train_val(labels.size, cfg.seed)
    except GroupSizeError as exc:
        raise DataFormatError(str(exc)) from exc
    val_targets = labels[val_idx] == 1  # checked by read_dataset
    if val_targets.all() or not val_targets.any():
        raise DataFormatError(f"the validation half of seed {cfg.seed} holds one class")
    feats = extract_features(epochs, cfg.feature)
    del epochs  # the run reads only the features and the labels
    x_train, y_train = feats.data[:, train_idx], labels[train_idx]
    x_val = feats.data[:, val_idx]
    dims = feats.dims
    del feats  # the halves are copies
    oracle = covest._centring(x_train, y_train, within=True)[1] if cfg.oracle_means else None

    draws: dict[int, list[np.ndarray]] = {}
    for size in cfg.subset_sizes:
        if size <= train_idx.size:
            draws[size] = draw_subsets(y_train, size, cfg.n_draws, cfg.seed)
        else:
            logger.warning(
                "subset size %d exceeds the training split (%d epochs); skipped",
                size,
                train_idx.size,
            )

    def run_group(task) -> list[BenchRow]:
        """The rows of every estimator on one draw and cov mode, in config order."""
        mode, size, k = task
        if size not in draws:
            return [BenchRow(est, mode, cfg.oracle_means, size, k,
                             float("nan"), float("nan"), 0, status="skipped")
                    for est in cfg.estimators]
        idx = draws[size][k]

        def failed(est, fit_ms, exc) -> BenchRow:
            return BenchRow(est, mode, cfg.oracle_means, size, k,
                            float("nan"), fit_ms, idx.size,
                            status="failed", well_conditioned=False,
                            error=f"{type(exc).__name__}: {exc}")

        start = time.perf_counter()
        try:
            fit_one = lda._fitter(x_train[:, idx], y_train[idx], dims,
                                  cfg.estimators, mode, oracle, cfg.gamma)
        except ToeplitzLdaError as exc:
            shared_ms = (time.perf_counter() - start) * 1e3
            return [failed(est, shared_ms, exc) for est in cfg.estimators]
        shared_ms = (time.perf_counter() - start) * 1e3
        rows = []
        for est in cfg.estimators:
            start = time.perf_counter()
            try:
                model = fit_one(est)
                fit_ms = shared_ms + (time.perf_counter() - start) * 1e3
                scores = _finite_array(lda._decision_values(model, x_val), (None,), "scores")
                score = _auc(scores, val_targets)
            except ToeplitzLdaError as exc:
                rows.append(failed(est, shared_ms + (time.perf_counter() - start) * 1e3, exc))
                continue
            rows.append(BenchRow(est, mode, cfg.oracle_means, size, k,
                                 score, fit_ms, idx.size,
                                 well_conditioned=model.well_conditioned))
        return rows

    groups = [
        (mode, size, k)
        for mode in cfg.cov_modes
        for size in cfg.subset_sizes
        for k in range(cfg.n_draws)
    ]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            by_group = list(pool.map(run_group, groups))
    else:
        by_group = [run_group(g) for g in groups]
    # Estimator-major, as the cells are listed in the reports.
    rows = tuple(group[e] for e in range(len(cfg.estimators)) for group in by_group)
    return BenchReport(cfg, rows, int(train_idx.size), int(val_idx.size))


def aggregate(report: BenchReport) -> dict:
    """Mean/sd AUC and mean fit time per (estimator, cov_mode, size) cell."""
    cells = []
    cfg = report.config
    by_cell: dict[tuple, list[BenchRow]] = {}
    for r in report.rows:
        by_cell.setdefault((r.estimator, r.cov_mode, r.subset_size), []).append(r)
    for est in cfg.estimators:
        for mode in cfg.cov_modes:
            for size in cfg.subset_sizes:
                rows = by_cell.get((est, mode, size), [])
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


def _fmt(value: bool | float) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


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


def write_report(report: BenchReport, out_dir) -> tuple[Path, Path, dict]:
    """Write ``report.csv`` and ``aggregate.json``; returns their paths and the aggregate."""
    out_dir = Path(out_dir)
    csv_path, json_path = out_dir / "report.csv", out_dir / "aggregate.json"
    summary = aggregate(report)
    _write_json(json_path, summary)
    csv_path.write_text(report_csv(report), encoding="utf-8")
    return csv_path, json_path, summary
