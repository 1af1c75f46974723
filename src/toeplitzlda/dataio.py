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

The data is held once from disk to features.  :class:`Epochs` and
:class:`FeatureMatrix` copy what a caller passes in, but the arrays the
package makes are owned by them as made: :func:`read_dataset` reads
``data.bin`` into one array and checks it, and the extractors write their
features into one C-contiguous ``D x N_e`` array (``interval_means``
checks the means it computes; ``all_samples`` only moves checked values).

The package's JSON files (``meta.json``, the model file, the means file of
``toeplitzlda fit`` and the benchmark's ``aggregate.json``) follow one set
of rules, kept here.  ``_write_json`` writes sorted keys, a two-space indent
and a final newline, and no NaN or infinity.  ``_json_object`` reads a file
that must hold a JSON object, and ``_json_value`` checks one key's JSON
type and range before any cast, so a bad value raises
:class:`DataFormatError` naming the file and the key.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blockmat import BlockDims, _check_labels, _finite_array, _own, _owned
from .errors import DataFormatError, ShapeError

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Epochs:
    """A stack of epochs with acquisition metadata.

    ``data`` has shape (n_epochs, n_channels, n_times) and is read by
    ``blockmat._finite_array``; ``labels`` is None for unlabeled data,
    otherwise one 0/1 value per epoch, read by ``blockmat._check_labels``.
    Both are copied.  The package's own producers (the synthetic generator
    and :func:`read_dataset`) check the arrays they make and hand them over,
    owned, through ``_owned_epochs``, which checks the metadata only.
    """

    data: np.ndarray
    sfreq: float
    t0: float
    channel_names: tuple[str, ...]
    labels: np.ndarray | None = None

    def __post_init__(self):
        data = _finite_array(self.data, (None, None, None), "epoch data").copy()
        names = _channel_names(self.sfreq, self.t0, self.channel_names, data.shape[1])
        labels = self.labels
        if labels is not None:
            labels = _check_labels(labels, data.shape[0])
        _own(self, data=data, channel_names=names, labels=labels)

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


def _channel_names(sfreq: float, t0: float, channel_names, n_channels: int) -> tuple[str, ...]:
    """The names of ``n_channels`` channels as strings, after checking them,
    ``sfreq`` and ``t0``."""
    if not (math.isfinite(sfreq) and math.isfinite(t0)):
        raise DataFormatError(f"sfreq and t0 must be finite, got {sfreq}, {t0}")
    if sfreq <= 0:
        raise ShapeError(f"sfreq must be positive, got {sfreq}")
    names = tuple(str(n) for n in channel_names)
    if len(names) != n_channels:
        raise ShapeError(f"{len(names)} channel names for {n_channels} channels")
    return names


def _owned_epochs(data: np.ndarray, sfreq: float, t0: float, channel_names,
                  labels: np.ndarray | None = None) -> Epochs:
    """Epochs owning a fresh, finite float64 ``data`` and fresh uint8 0/1
    ``labels`` of its length; the metadata is checked."""
    names = _channel_names(sfreq, t0, channel_names, data.shape[1])
    return _owned(Epochs, data=data, sfreq=sfreq, t0=t0, channel_names=names, labels=labels)


def _number(value) -> bool:
    """Whether ``value`` is a JSON number: json loads true and false as bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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


def _json_value(payload: dict, key: str, kind: str, ok, what: str):
    """``payload[key]``, or None when absent, if ``ok`` accepts it.

    Anything else raises :class:`DataFormatError` naming ``what``, the key
    and ``kind``, the JSON type and range the key must hold.
    """
    value = payload.get(key)
    if not ok(value):
        raise DataFormatError(f"malformed {what}: {key} must be {kind}, got {value!r:.60}")
    return value


def _write_json(path, payload) -> None:
    """Write ``payload`` by the rules above; NaN or infinity raises ValueError."""
    text = io.StringIO()
    json.dump(payload, text, indent=2, sort_keys=True, allow_nan=False)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text.getvalue() + "\n", encoding="utf-8")


def _disk_layout(data: np.ndarray) -> np.ndarray:
    """``data`` as the little-endian, C-ordered float64 array ``data.bin`` holds;
    a view when it is one already."""
    return np.ascontiguousarray(data, dtype="<f8")


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
    _disk_layout(epochs.data).tofile(directory / "data.bin")
    if epochs.labels is not None:
        epochs.labels.tofile(directory / "labels.bin")


def read_dataset(directory) -> Epochs:
    """Read a dataset directory, checking every meta.json value before its use.

    ``data.bin`` is read into the one array that the returned epochs own.
    """
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
    count = math.prod(shape)
    with open(directory / "data.bin", "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != count * 8:
            raise DataFormatError(
                f"data.bin holds {size} bytes, expected {count * 8} for shape {shape}"
            )
        data = np.fromfile(fh, dtype="<f8", count=count)
    data = _finite_array(data.reshape(shape), shape, "epoch data")
    labels = None
    if has_labels:
        try:
            labels = _check_labels(np.fromfile(directory / "labels.bin", dtype=np.uint8),
                                   shape[0])
        except ShapeError as exc:  # not one byte per epoch
            raise DataFormatError(f"labels.bin in {directory}: {exc}") from exc
    return _owned_epochs(data, sfreq, t0, names, labels)


@dataclass(frozen=True)
class FeatureMatrix:
    """Channel-prime feature vectors stacked as a ``D x N_e`` array.

    ``data`` is read by ``blockmat._finite_array`` and copied into a
    C-contiguous array; the extractors write their features into one and
    wrap it with ``blockmat._owned`` instead.
    """

    data: np.ndarray
    dims: BlockDims

    def __post_init__(self):
        _own(self, data=_finite_array(self.data, (self.dims.size, None), "feature data").copy())

    @property
    def n_epochs(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class FeatureConfig:
    """Which feature extraction to run.

    ``kind`` is 'all_samples' (with ``window = (a, b)`` in seconds) or
    'interval_means' (with ``boundaries``, a strictly increasing sequence of
    interval edges in seconds); the field of the other kind must be None.
    """

    kind: str
    window: tuple[float, float] | None = None
    boundaries: tuple[float, ...] | None = None

    def __post_init__(self):
        window, bounds = self.window, self.boundaries
        if self.kind == "all_samples":
            if window is None:
                raise ValueError("all_samples features need a (start, stop) window")
            window = _seconds(window, "window", 2)
            if window[1] <= window[0]:
                raise ValueError(f"window must satisfy start < stop, got {window}")
        elif self.kind == "interval_means":
            bounds = _seconds(() if bounds is None else bounds, "boundaries")
            if len(bounds) < 2:
                raise ValueError("interval_means features need >= 2 boundaries")
            if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                raise ValueError(f"boundaries must be strictly increasing: {bounds}")
        else:
            raise ValueError(f"unknown feature kind {self.kind!r}; "
                             "expected 'all_samples' or 'interval_means'")
        other = "boundaries" if self.kind == "all_samples" else "window"
        if getattr(self, other) is not None:
            raise ValueError(f"{self.kind} features take no {other}, got {getattr(self, other)}")
        _own(self, window=window, boundaries=bounds)


def _seconds(values, name: str, count: int | None = None) -> tuple[float, ...]:
    """``values`` as finite floats, ``count`` of them if given; else ValueError naming ``name``."""
    try:
        seconds = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a sequence of numbers, got {values!r}") from exc
    if count is not None and len(seconds) != count:
        raise ValueError(f"{name} must be {count} values, got {seconds}")
    if not all(map(math.isfinite, seconds)):
        raise ValueError(f"{name} must be finite seconds, got {seconds}")
    return seconds


def sample_index(seconds: float, sfreq: float, t0: float) -> int:
    """Map a time in seconds to a sample index: floor((t - t0) * sfreq + 0.5)."""
    return int(math.floor((seconds - t0) * sfreq + 0.5))


def _channel_prime(n_epochs: int, dims: BlockDims) -> tuple[np.ndarray, np.ndarray]:
    """A fresh C-contiguous ``(D, n_epochs)`` feature array and its
    ``(n_times, n_channels, n_epochs)`` view, whose ``[t, c, e]`` is sample
    ``t`` of channel ``c`` of epoch ``e``."""
    feats = np.empty((dims.size, n_epochs))
    return feats, feats.reshape(dims.n_times, dims.n_channels, n_epochs)


def interval_means(epochs: Epochs, boundaries) -> FeatureMatrix:
    """Per-channel means over consecutive half-open time intervals.

    ``boundaries`` has ``n + 1`` edges in seconds defining ``n`` intervals
    ``[b_i, b_{i+1})``; each interval must cover at least one sample.
    """
    bounds = _seconds(boundaries, "boundaries")
    if len(bounds) < 2:
        raise ShapeError("need at least two boundaries")
    idx = [sample_index(b, epochs.sfreq, epochs.t0) for b in bounds]
    n_int = len(idx) - 1
    dims = BlockDims(epochs.n_channels, n_int)
    feats, grid = _channel_prime(epochs.n_epochs, dims)
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
        grid[k] = epochs.data[:, :, lo:hi].mean(axis=2).T
    # A mean of finite values overflows to inf beyond the largest float.
    return _owned(FeatureMatrix, data=_finite_array(feats, feats.shape, "feature data"),
                  dims=dims)


def all_samples(epochs: Epochs, window) -> FeatureMatrix:
    """All samples whose time lies in the half-open window ``[a, b)``.

    The number of selected samples is ``round((b - a) * sfreq)``.
    """
    a, b = _seconds(window, "window", 2)
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
    dims = BlockDims(epochs.n_channels, count)
    feats, grid = _channel_prime(epochs.n_epochs, dims)
    np.copyto(grid, epochs.data[:, :, start : start + count].transpose(2, 1, 0))
    # Values of the checked epochs, only moved: no check.
    return _owned(FeatureMatrix, data=feats, dims=dims)


def extract_features(epochs: Epochs, config: FeatureConfig) -> FeatureMatrix:
    """Run the feature extraction selected by ``config``."""
    if config.kind == "all_samples":
        return all_samples(epochs, config.window)
    return interval_means(epochs, config.boundaries)
