"""Command-line interface: ``toeplitzlda {synth,bench,fit,score}``.

stdout carries machine-readable output only (JSON, or CSV for ``score``);
progress and diagnostics go to stderr.  Exit codes: 0 success, 1 usage
error, 2 data/shape mismatch, 3 numerical failure.

``synth`` and ``bench`` take the run seed from ``--seed`` (default 0);
``fit`` and ``score`` take none.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, bench, lda, synth
from .blockmat import BlockDims
from .covest import ESTIMATORS, ClassStats
from .dataio import (
    DEFAULT_WINDOW,
    FeatureConfig,
    _disk_layout,
    _json_object,
    _json_value,
    _number,
    extract_features,
    read_dataset,
    write_dataset,
)
from .errors import DataFormatError, ShapeError, SolveError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as exit code 1 instead of 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _flag_type(convert, ok, rule: str):
    """An argparse ``type=`` that reads a flag's text with ``convert`` and
    refuses it, naming the flag, when that fails or ``ok`` rejects the value."""
    def parse(text: str):
        with contextlib.suppress(ValueError):
            if ok(value := convert(text)):
                return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


#: argparse types of the flags that hold a count, a finite number or a rate.
_COUNT = _flag_type(int, lambda v: v >= 1, "an integer >= 1")
_FINITE = _flag_type(float, np.isfinite, "a finite number")
_RATE = _flag_type(float, lambda v: np.isfinite(v) and v > 0, "a finite number > 0")
#: ``bench --sizes``, which BenchConfig checks as subset sizes.
_SIZES = _flag_type(lambda t: tuple(int(s) for s in t.split(",")), bool, "comma-separated integers")


def _feature_config(args) -> FeatureConfig:
    if args.feature == "interval_means" and args.boundaries is None:
        raise ValueError("--feature interval_means requires --boundaries")
    default = DEFAULT_WINDOW if args.feature == "all_samples" else None  # --window's default
    return FeatureConfig(args.feature, window=args.window or default, boundaries=args.boundaries)


def _add_feature_flags(parser) -> None:
    parser.add_argument(
        "--feature",
        choices=("all_samples", "interval_means"),
        default="all_samples",
        help="feature extraction mode (default: all_samples)",
    )
    parser.add_argument(
        "--window",
        type=float,
        nargs=2,
        default=None,
        metavar=("START", "STOP"),
        help="half-open time window in seconds for all_samples "
        f"(default: {DEFAULT_WINDOW[0]} {DEFAULT_WINDOW[1]})",
    )
    parser.add_argument(
        "--boundaries",
        type=float,
        nargs="+",
        default=None,
        help="interval boundaries in seconds for interval_means",
    )


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def cmd_synth(args) -> int:
    dims = BlockDims(args.n_channels, args.n_times)
    model = synth.default_noise_model(dims)
    spec = synth.default_erp_spec(
        dims, sfreq=args.sfreq, t0=args.t0, scale=args.erp_scale
    )
    epochs = synth.generate_noise(
        model, args.n_epochs, dims, args.seed, sfreq=args.sfreq, t0=args.t0
    )
    epochs = synth.inject_erp(epochs, spec, args.seed)
    out_dir = Path(args.out_dir)
    write_dataset(epochs, out_dir)
    digest = hashlib.sha256(_disk_layout(epochs.data)).hexdigest()  # the bytes written
    print(f"wrote {args.n_epochs} epochs to {out_dir}", file=sys.stderr)
    _emit(
        {
            "out_dir": str(out_dir),
            "seed": args.seed,
            "n_epochs": epochs.n_epochs,
            "n_channels": epochs.n_channels,
            "n_times": epochs.n_times,
            "sfreq": args.sfreq,
            "t0": args.t0,
            "n_targets": int(epochs.labels.sum()),
            "sha256_data": digest,
        }
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = bench.BenchConfig(
        dataset_dir=str(args.dataset_dir),
        estimators=tuple(args.estimators.split(",")),
        cov_modes=tuple(args.cov_modes.split(",")),
        subset_sizes=args.sizes,
        n_draws=args.draws,
        oracle_means=args.oracle_means,
        feature=_feature_config(args),
        seed=args.seed,
        gamma=args.gamma,
        jobs=args.jobs,
        record_timing=args.timing,
    )
    report = bench.run_benchmark(cfg)
    csv_path, json_path, summary = bench.write_report(report, args.out_dir)
    n_failed = sum(r.status == "failed" for r in report.rows)
    n_ok = sum(r.status == "ok" for r in report.rows)
    print(
        f"wrote {csv_path} and {json_path} "
        f"({len(report.rows)} cells, {n_failed} failed)",
        file=sys.stderr,
    )
    _emit(summary)
    if n_failed and n_ok == 0:
        print("error: every benchmark cell failed", file=sys.stderr)
        return EXIT_NUMERICAL
    if n_ok == 0:
        print(f"error: every subset size exceeds the training split of {report.n_train} "
              "epochs; no cell ran", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _load_means_file(path) -> ClassStats:
    what = f"means file {path}"
    means = _json_value(
        _json_object(path, what), "means", "two equal-length lists of numbers, one per class",
        lambda v: type(v) is list and len(v) == 2
        and all(type(r) is list and len(r) == len(v[0]) and all(map(_number, r)) for r in v),
        what,
    )
    return ClassStats(means=means)


def cmd_fit(args) -> int:
    config = _feature_config(args)  # a usage error before any file is read
    epochs = read_dataset(args.dataset_dir)
    labels = epochs.labels
    if labels is None and args.means_file is None:
        raise DataFormatError("dataset has no labels; fit needs labels.bin or --means-file")
    feats = extract_features(epochs, config)
    del epochs  # the fit reads only the features and the labels
    override = _load_means_file(args.means_file) if args.means_file else None
    model = lda.fit(
        feats.data,
        labels,
        dims=feats.dims,
        estimator=args.estimator,
        cov_mode=args.cov_mode,
        mean_override=override,
        gamma=args.gamma,
    )
    lda.save_model(model, args.model_path)
    print(f"wrote model to {args.model_path}", file=sys.stderr)
    _emit(
        {
            "model_path": str(args.model_path),
            "estimator": model.estimator,
            "cov_mode": model.cov_mode,
            "gamma": model.gamma,
            "n_epochs": feats.n_epochs,
            "n_features": feats.dims.size,
            "well_conditioned": model.well_conditioned,
        }
    )
    return EXIT_OK


def cmd_score(args) -> int:
    config = _feature_config(args)  # a usage error before any file is read
    model = lda.load_model(args.model_path)
    epochs = read_dataset(args.dataset_dir)
    labels = epochs.labels
    feats = extract_features(epochs, config)
    del epochs  # scoring reads only the features and the labels
    if feats.dims != model.dims:
        raise ShapeError(
            f"model expects {model.dims.n_channels} channels x "
            f"{model.dims.n_times} samples, dataset features are "
            f"{feats.dims.n_channels} channels x {feats.dims.n_times} samples"
        )
    scores = lda._decision_values(model, feats.data)  # checked at extraction
    has_labels = labels is not None
    header = "epoch,score,label" if has_labels else "epoch,score"
    print(header)
    for i, s in enumerate(scores):
        if has_labels:
            print(f"{i},{float(s)!r},{int(labels[i])}")
        else:
            print(f"{i},{float(s)!r}")
    if has_labels:
        # The AUC needs both classes; the scores of one class are still reported.
        both = np.unique(labels).size == 2
        _emit({"auc": bench.auc(scores, labels) if both else None,
               "n_epochs": feats.n_epochs})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="toeplitzlda", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-epochs", type=_COUNT, default=768)
    p.add_argument("--n-channels", type=_COUNT, default=8)
    p.add_argument("--n-times", type=_COUNT, default=20)
    p.add_argument("--sfreq", type=_RATE, default=synth.DEFAULT_SFREQ)
    p.add_argument("--t0", type=_FINITE, default=synth.DEFAULT_T0)
    p.add_argument("--erp-scale", type=_FINITE, default=synth.DEFAULT_ERP_SCALE)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="run the subset-size benchmark")
    p.add_argument("--dataset-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--estimators", default="slda,toeplitz")
    p.add_argument("--cov-modes", default="within")
    p.add_argument("--sizes", type=_SIZES, default=bench.DEFAULT_SUBSET_SIZES)
    p.add_argument("--draws", type=int, default=7)
    p.add_argument("--oracle-means", action="store_true")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument(
        "--timing",
        action="store_true",
        help="record fit times in the CSV (breaks byte-reproducibility)",
    )
    _add_feature_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fit", help="fit a model on a dataset and save it")
    p.add_argument("--dataset-dir", required=True)
    p.add_argument("--model-path", required=True)
    p.add_argument("--estimator", choices=ESTIMATORS, default="toeplitz")
    p.add_argument("--cov-mode", choices=lda.COV_MODES, default="within")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument(
        "--means-file",
        default=None,
        help='JSON {"means": [[...], [...]]} overriding the non-target and target class means',
    )
    _add_feature_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", help="apply a saved model to a dataset")
    p.add_argument("--dataset-dir", required=True)
    p.add_argument("--model-path", required=True)
    _add_feature_flags(p)
    p.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help, --version and usage errors
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except (DataFormatError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
