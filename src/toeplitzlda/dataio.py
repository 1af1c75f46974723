"""Epoch container, on-disk dataset format, and feature extraction.

Dataset directory layout (format version 1):

* ``meta.json`` -- dimensions, sampling rate, epoch start time, channel
  names, and whether labels are present.
* ``data.bin`` -- raw little-endian float64, C order with axes
  (epoch, channel, time).
* ``labels.bin`` -- optional, one uint8 per epoch (0 non-target, 1 target).

Sample ``k`` of an epoch is at time ``t0 + k / sfreq`` seconds.  Times in
seconds map to sample indices with ``floor((t - t0) * sfreq + 0.5)``, and
all extraction windows are half-open ``[a, b)``.

The package's JSON files (``meta.json``, the model file, the means file of
``toeplitzlda fit`` and the benchmark's ``aggregate.json``) follow one set
of rules, kept here.  ``_write_json`` writes sorted keys, a two-space indent
and a final newline.  ``_json_object`` reads a file that must hold a JSON
object, and ``_json_value`` checks one key's JSON type and range before any
cast, so a bad value raises :class:`DataFormatError` naming the file and
the key.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blockmat import BlockDims, _finite_array
from .errors import DataFormatError, ShapeError

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Epochs:
    """A stack of epochs with acquisition metadata.

    ``data`` has shape (n_epochs, n_channels, n_times) and is read by
    ``blockmat._finite_array``; ``labels`` is None for unlabeled data,
    otherwise one 0/1 value per epoch.
    """

    data: np.ndarray
    sfreq: float
    t0: float
    channel_names: tuple[str, ...]
    labels: np.ndarray | None = None

    def __post_init__(self):
        data = _finite_array(self.data, (None, None, None), "epoch data").copy()
        if not (math.isfinite(self.sfreq) and math.isfinite(self.t0)):
            raise DataFormatError(f"sfreq and t0 must be finite, got {self.sfreq}, {self.t0}")
        if self.sfreq <= 0:
            raise ShapeError(f"sfreq must be positive, got {self.sfreq}")
        names = tuple(str(n) for n in self.channel_names)
        if len(names) != data.shape[1]:
            raise ShapeError(
                f"{len(names)} channel names for {data.shape[1]} channels"
            )
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (data.shape[0],):
                raise ShapeError(
                    f"labels have shape {labels.shape}, expected ({data.shape[0]},)"
                )
            # Check before the cast: uint8 would wrap or truncate bad values.
            if not ((labels == 0) | (labels == 1)).all():
                raise DataFormatError("labels must be 0 (non-target) or 1 (target)")
            labels = labels.astype(np.uint8)
            labels.setflags(write=False)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "channel_names", names)
        object.__setattr__(self, "labels", labels)

    @property
    def n_epochs(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_times(self) -> int:
        return self.data.shape[2]

    @property
    def dims(self) -> BlockDims:
        return BlockDims(self.n_channels, self.n_times)

    @property
    def times(self) -> np.ndarray:
        """Sample times in seconds."""
        return self.t0 + np.arange(self.n_times) / self.sfreq


def _number(value) -> bool:
    """Whether ``value`` is a JSON number: json loads true and false as bool."""
    return type(value) in (int, float)


def _finite(value) -> bool:
    """Whether ``value`` is a JSON number that casts to a finite float."""
    return _number(value) and -sys.float_info.max <= value <= sys.float_info.max


def _json_object(path, what: str) -> dict:
    """The JSON object held by the file ``path``, which errors call ``what``."""
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"missing {what}")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataFormatError(f"malformed {what}: {exc!r}") from exc
    if type(payload) is not dict:
        raise DataFormatError(f"malformed {what}: not a JSON object")
    return payload


def _json_value(payload: dict, key: str, kind: str, ok, what: str, default=None):
    """``payload[key]``, or ``default`` when absent, if ``ok`` accepts it.

    Anything else raises :class:`DataFormatError` naming ``what``, the key
    and ``kind``, the JSON type and range the key must hold.
    """
    value = payload.get(key, default)
    if not ok(value):
        raise DataFormatError(f"malformed {what}: {key} must be {kind}, got {value!r:.60}")
    return value


def _write_json(path, payload) -> None:
    """Write ``payload`` with sorted keys, a two-space indent and a final newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_dataset(epochs: Epochs, directory) -> None:
    """Write a dataset directory (meta.json, data.bin, optional labels.bin)."""
    directory = Path(directory)
    meta = {
        "format_version": FORMAT_VERSION,
        "n_epochs": epochs.n_epochs,
        "n_channels": epochs.n_channels,
        "n_times": epochs.n_times,
        "sfreq": epochs.sfreq,
        "t0": epochs.t0,
        "channel_names": list(epochs.channel_names),
        "endianness": "little",
        "has_labels": epochs.labels is not None,
    }
    _write_json(directory / "meta.json", meta)
    (directory / "data.bin").write_bytes(
        np.ascontiguousarray(epochs.data, dtype="<f8").tobytes()
    )
    if epochs.labels is not None:
        (directory / "labels.bin").write_bytes(epochs.labels.tobytes())


def read_dataset(directory) -> Epochs:
    """Read a dataset directory, checking every meta.json value before its use."""
    directory = Path(directory)
    what = f"meta.json in {directory}"
    meta = _json_object(directory / "meta.json", what)
    _json_value(meta, "format_version", str(FORMAT_VERSION),
                lambda v: type(v) is int and v == FORMAT_VERSION, what)
    _json_value(meta, "endianness", '"little"', lambda v: v == "little", what)
    shape = tuple(
        _json_value(meta, key, "a non-negative integer",
                    lambda v: type(v) is int and v >= 0, what)
        for key in ("n_epochs", "n_channels", "n_times")
    )
    sfreq, t0 = (float(_json_value(meta, key, "a finite number", _finite, what))
                 for key in ("sfreq", "t0"))
    names = _json_value(meta, "channel_names", "a list of strings",
                        lambda v: type(v) is list and all(type(n) is str for n in v), what)
    has_labels = _json_value(meta, "has_labels", "a JSON boolean",
                             lambda v: type(v) is bool, what)
    raw = (directory / "data.bin").read_bytes()
    expected = int(np.prod(shape)) * 8
    if len(raw) != expected:
        raise DataFormatError(
            f"data.bin holds {len(raw)} bytes, expected {expected} for shape {shape}"
        )
    data = np.frombuffer(raw, dtype="<f8").reshape(shape)
    labels = None
    if has_labels:
        raw_labels = (directory / "labels.bin").read_bytes()
        if len(raw_labels) != shape[0]:
            raise DataFormatError(
                f"labels.bin holds {len(raw_labels)} bytes, expected {shape[0]}"
            )
        labels = np.frombuffer(raw_labels, dtype=np.uint8)
    return Epochs(
        data=data, sfreq=sfreq, t0=t0, channel_names=tuple(names), labels=labels
    )


@dataclass(frozen=True)
class FeatureMatrix:
    """Channel-prime feature vectors stacked as a ``D x N_e`` array."""

    data: np.ndarray
    dims: BlockDims

    def __post_init__(self):
        data = _finite_array(self.data, (self.dims.size, None), "feature data").copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n_epochs(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class FeatureConfig:
    """Which feature extraction to run.

    ``kind`` is 'all_samples' (with ``window = (a, b)`` in seconds) or
    'interval_means' (with ``boundaries``, a strictly increasing sequence of
    interval edges in seconds).
    """

    kind: str
    window: tuple[float, float] | None = None
    boundaries: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "all_samples":
            if self.window is None:
                raise ValueError("all_samples features need a (start, stop) window")
            window = (float(self.window[0]), float(self.window[1]))
            if window[1] <= window[0]:
                raise ValueError(f"window must satisfy start < stop, got {window}")
            object.__setattr__(self, "window", window)
        elif self.kind == "interval_means":
            if self.boundaries is None or len(self.boundaries) < 2:
                raise ValueError("interval_means features need >= 2 boundaries")
            bounds = tuple(float(b) for b in self.boundaries)
            if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                raise ValueError(f"boundaries must be strictly increasing: {bounds}")
            object.__setattr__(self, "boundaries", bounds)
        else:
            raise ValueError(
                f"unknown feature kind {self.kind!r}; "
                "expected 'all_samples' or 'interval_means'"
            )


def sample_index(seconds: float, sfreq: float, t0: float) -> int:
    """Map a time in seconds to a sample index: floor((t - t0) * sfreq + 0.5)."""
    return int(math.floor((seconds - t0) * sfreq + 0.5))


def _stack_channel_prime(feats: np.ndarray, dims: BlockDims) -> FeatureMatrix:
    """(n_epochs, n_channels, n_feat_times) -> channel-prime (D, n_epochs)."""
    return FeatureMatrix(feats.transpose(0, 2, 1).reshape(feats.shape[0], -1).T, dims)


def interval_means(epochs: Epochs, boundaries) -> FeatureMatrix:
    """Per-channel means over consecutive half-open time intervals.

    ``boundaries`` has ``n + 1`` edges in seconds defining ``n`` intervals
    ``[b_i, b_{i+1})``; each interval must cover at least one sample.
    """
    bounds = tuple(float(b) for b in boundaries)
    if len(bounds) < 2:
        raise ShapeError("need at least two boundaries")
    idx = [sample_index(b, epochs.sfreq, epochs.t0) for b in bounds]
    n_int = len(idx) - 1
    feats = np.empty((epochs.n_epochs, epochs.n_channels, n_int))
    for k in range(n_int):
        lo, hi = idx[k], idx[k + 1]
        if lo < 0 or hi > epochs.n_times:
            raise ShapeError(
                f"interval [{bounds[k]}, {bounds[k + 1]}) maps to samples "
                f"[{lo}, {hi}) outside the epoch (n_times={epochs.n_times})"
            )
        if hi <= lo:
            raise ShapeError(
                f"interval [{bounds[k]}, {bounds[k + 1]}) contains no sample "
                f"at sfreq={epochs.sfreq}"
            )
        feats[:, :, k] = epochs.data[:, :, lo:hi].mean(axis=2)
    return _stack_channel_prime(feats, BlockDims(epochs.n_channels, n_int))


def all_samples(epochs: Epochs, window) -> FeatureMatrix:
    """All samples whose time lies in the half-open window ``[a, b)``.

    The number of selected samples is ``round((b - a) * sfreq)``.
    """
    a, b = float(window[0]), float(window[1])
    if b <= a:
        raise ShapeError(f"window must satisfy start < stop, got ({a}, {b})")
    start = sample_index(a, epochs.sfreq, epochs.t0)
    count = int(math.floor((b - a) * epochs.sfreq + 0.5))
    if count < 1:
        raise ShapeError(f"window ({a}, {b}) selects no sample at sfreq={epochs.sfreq}")
    if start < 0 or start + count > epochs.n_times:
        raise ShapeError(
            f"window ({a}, {b}) maps to samples [{start}, {start + count}) "
            f"outside the epoch (n_times={epochs.n_times})"
        )
    feats = epochs.data[:, :, start : start + count]
    return _stack_channel_prime(feats, BlockDims(epochs.n_channels, count))


def extract_features(epochs: Epochs, config: FeatureConfig) -> FeatureMatrix:
    """Run the feature extraction selected by ``config``."""
    if config.kind == "all_samples":
        return all_samples(epochs, config.window)
    return interval_means(epochs, config.boundaries)
