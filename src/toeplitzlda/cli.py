"""Command-line interface: ``toeplitzlda {synth,bench,fit,score}``.

stdout carries machine-readable output only (JSON, or CSV for ``score``);
progress and diagnostics go to stderr.  Exit codes: 0 success, 1 usage
error, 2 data/shape mismatch, 3 numerical failure.

``synth`` and ``bench`` take the run seed from ``--seed``, else from the
``TOEPLITZLDA_SEED`` environment variable, else 0; ``fit`` and ``score`` take none.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, bench, lda, synth
from .blockmat import BlockDims
from .covest import ClassStats
from .dataio import (
    FeatureConfig,
    _json_object,
    _json_value,
    _number,
    extract_features,
    read_dataset,
    write_dataset,
)
from .errors import DataFormatError, GroupSizeError, ShapeError, SolveError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as exit code 1 instead of 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("TOEPLITZLDA_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"TOEPLITZLDA_SEED must be an integer, got {raw!r}")


def _feature_config(args) -> FeatureConfig:
    if args.feature == "interval_means":
        if args.boundaries is None:
            raise _UsageError("--feature interval_means requires --boundaries")
        return FeatureConfig("interval_means", boundaries=tuple(args.boundaries))
    return FeatureConfig("all_samples", window=tuple(args.window))


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
        default=(0.1, 0.6),
        metavar=("START", "STOP"),
        help="half-open time window in seconds for all_samples (default: 0.1 0.6)",
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
    seed = _resolve_seed(args)
    dims = BlockDims(args.n_channels, args.n_times)
    model = synth.default_noise_model(dims)
    spec = synth.default_erp_spec(
        dims, sfreq=args.sfreq, t0=args.t0, scale=args.erp_scale
    )
    epochs = synth.generate_noise(
        model, args.n_epochs, dims, seed, sfreq=args.sfreq, t0=args.t0
    )
    epochs = synth.inject_erp(epochs, spec, seed)
    out_dir = Path(args.out_dir)
    write_dataset(epochs, out_dir)
    digest = hashlib.sha256((out_dir / "data.bin").read_bytes()).hexdigest()
    print(f"wrote {args.n_epochs} epochs to {out_dir}", file=sys.stderr)
    _emit(
        {
            "out_dir": str(out_dir),
            "seed": seed,
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
    seed = _resolve_seed(args)
    cfg = bench.BenchConfig(
        dataset_dir=str(args.dataset_dir),
        estimators=tuple(args.estimators.split(",")),
        cov_modes=tuple(args.cov_modes.split(",")),
        subset_sizes=tuple(int(s) for s in args.sizes.split(",")),
        n_draws=args.draws,
        oracle_means=args.oracle_means,
        feature=_feature_config(args),
        seed=seed,
        gamma=args.gamma,
        stratified=not args.uniform_draws,
        jobs=args.jobs,
        record_timing=args.timing,
    )
    report = bench.run_benchmark(cfg)
    csv_path, json_path = bench.write_report(report, args.out_dir)
    n_failed = sum(r.status == "failed" for r in report.rows)
    n_ok = sum(r.status == "ok" for r in report.rows)
    print(
        f"wrote {csv_path} and {json_path} "
        f"({len(report.rows)} cells, {n_failed} failed)",
        file=sys.stderr,
    )
    _emit(bench.aggregate(report))
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
    epochs = read_dataset(args.dataset_dir)
    if epochs.labels is None and args.means_file is None:
        raise DataFormatError(
            "dataset has no labels; fit needs labels.bin or --means-file"
        )
    feats = extract_features(epochs, _feature_config(args))
    override = _load_means_file(args.means_file) if args.means_file else None
    labels = epochs.labels.astype(np.int64) if epochs.labels is not None else None
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
            "n_epochs": epochs.n_epochs,
            "n_features": feats.dims.size,
            "well_conditioned": model.well_conditioned,
        }
    )
    return EXIT_OK


def cmd_score(args) -> int:
    model = lda.load_model(args.model_path)
    epochs = read_dataset(args.dataset_dir)
    feats = extract_features(epochs, _feature_config(args))
    if feats.dims != model.dims:
        raise ShapeError(
            f"model expects {model.dims.n_channels} channels x "
            f"{model.dims.n_times} samples, dataset features are "
            f"{feats.dims.n_channels} channels x {feats.dims.n_times} samples"
        )
    scores = lda.decision_values(model, feats.data)
    has_labels = epochs.labels is not None
    header = "epoch,score,label" if has_labels else "epoch,score"
    print(header)
    for i, s in enumerate(scores):
        if has_labels:
            print(f"{i},{float(s)!r},{int(epochs.labels[i])}")
        else:
            print(f"{i},{float(s)!r}")
    if has_labels:
        _emit({"auc": bench.auc(scores, epochs.labels), "n_epochs": epochs.n_epochs})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="toeplitzlda", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-epochs", type=int, default=768)
    p.add_argument("--n-channels", type=int, default=8)
    p.add_argument("--n-times", type=int, default=20)
    p.add_argument("--sfreq", type=float, default=synth.DEFAULT_SFREQ)
    p.add_argument("--t0", type=float, default=synth.DEFAULT_T0)
    p.add_argument("--erp-scale", type=float, default=synth.DEFAULT_ERP_SCALE)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="run the subset-size benchmark")
    p.add_argument("--dataset-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--estimators", default="slda,toeplitz")
    p.add_argument("--cov-modes", default="within")
    p.add_argument(
        "--sizes", default=",".join(str(s) for s in bench.DEFAULT_SUBSET_SIZES)
    )
    p.add_argument("--draws", type=int, default=7)
    p.add_argument("--oracle-means", action="store_true")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--uniform-draws", action="store_true")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument(
        "--timing",
        action="store_true",
        help="record fit times in the CSV (breaks byte-reproducibility)",
    )
    _add_feature_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fit", help="fit a model on a dataset and save it")
    p.add_argument("--dataset-dir", required=True)
    p.add_argument("--model-path", required=True)
    p.add_argument("--estimator", choices=lda.ESTIMATORS, default="toeplitz")
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
    except SystemExit as exc:  # argparse --help/--version
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except GroupSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SolveError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
