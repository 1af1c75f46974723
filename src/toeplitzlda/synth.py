"""Synthetic stationary multichannel data with a known covariance.

Each noise epoch is ``spatial_mix @ filtered + noise_floor * white`` where
``filtered`` holds independent unit-variance white source streams passed
through per-source FIR filters.  Filter inputs start ``L - 1`` samples
before the epoch (warm-up), so the process is stationary from the first
output sample and the analytic covariance of the flattened epoch is exactly
block-Toeplitz:

    lag_blocks[d] = spatial_mix @ diag(r(d)) @ spatial_mix^T
                    + [d == 0] * noise_floor**2 * I

with ``r_s(d) = sum_k f_s[k] f_s[k+d]`` the autocorrelation of source
``s``'s FIR taps.

Class structure is injected as a pure mean shift: every epoch receives its
class template, so class-conditional covariances equal the noise covariance.
Labels are assigned in groups of six epochs, one of them a target at a
seeded random position: the fixed 1:5 ratio ``TARGET_RATIO``.

All randomness is drawn from per-epoch Philox streams keyed by
``(seed, epoch_index)`` (see :mod:`toeplitzlda.rng`), making outputs
bit-identical regardless of generation order or thread count.  Draw order
within an epoch: source white noise ``(n_sources, n_times + L - 1)``, then,
only when ``noise_floor > 0``, sensor noise ``(n_channels, n_times)``.
Both generators check the values they compute for finiteness and hand
their fresh array to the returned :class:`~toeplitzlda.dataio.Epochs`,
which owns it without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blockmat, rng
from .blockmat import BlockDims, BlockToeplitzCov, _finite_array, _own, _slices
from .dataio import Epochs, _owned_epochs
from .errors import DataFormatError, GroupSizeError, ShapeError

#: Default scale of the class templates, tuned so that the shrinkage-only
#: LDA baseline reaches roughly 0.75 validation AUC with 384 training
#: epochs on the default benchmark configuration.
DEFAULT_ERP_SCALE = 1.69

DEFAULT_SFREQ = 40.0
DEFAULT_T0 = 0.1

#: Targets to non-targets in each epoch group, here and in the benchmark.
TARGET_RATIO = (1, 5)


@dataclass(frozen=True)
class NoiseModel:
    """Stationary noise process parameters.

    ``spatial_mix`` is (n_channels, n_sources); ``temporal_fir`` is
    (n_sources, fir_length), one FIR per source (a 1-D array is shared by
    all sources).  ``noise_floor`` scales additive white sensor noise; it
    must be finite (else :class:`DataFormatError`), and positive when the
    mixing matrix does not have full row rank, otherwise the covariance
    would be singular.
    """

    spatial_mix: np.ndarray
    temporal_fir: np.ndarray
    noise_floor: float = 0.5

    def __post_init__(self):
        mix = _finite_array(self.spatial_mix, (None, None), "spatial_mix").copy()
        fir = self.temporal_fir
        if np.ndim(fir) == 1:
            fir = np.tile(fir, (mix.shape[1], 1))
        fir = _finite_array(fir, (mix.shape[1], None), "temporal_fir").copy()
        if fir.shape[1] < 1:
            raise ShapeError("temporal_fir needs at least one tap")
        if not np.isfinite(self.noise_floor):
            raise DataFormatError(f"noise_floor must be finite, got {self.noise_floor}")
        if self.noise_floor < 0:
            raise ShapeError(f"noise_floor must be >= 0, got {self.noise_floor}")
        if self.noise_floor == 0 and np.linalg.matrix_rank(mix) < mix.shape[0]:
            raise ShapeError(
                "with noise_floor=0 the mixing matrix must have full row rank, "
                "otherwise the noise covariance is singular"
            )
        _own(self, spatial_mix=mix, temporal_fir=fir)

    @property
    def n_channels(self) -> int:
        return self.spatial_mix.shape[0]

    @property
    def n_sources(self) -> int:
        return self.spatial_mix.shape[1]

    @property
    def fir_length(self) -> int:
        return self.temporal_fir.shape[1]


@dataclass(frozen=True)
class ErpSpec:
    """Class templates (mean shifts) of the targets and the non-targets."""

    target_template: np.ndarray
    nontarget_template: np.ndarray

    def __post_init__(self):
        tgt = _finite_array(self.target_template, (None, None), "target_template").copy()
        non = _finite_array(self.nontarget_template, tgt.shape, "nontarget_template").copy()
        _own(self, target_template=tgt, nontarget_template=non)


def _smooth_taps(width: int, length: int) -> np.ndarray:
    """Unit-energy low-pass taps of effective ``width``, zero-padded."""
    taps = np.zeros(length)
    taps[:width] = np.hanning(width + 2)[1:-1]
    return taps / np.linalg.norm(taps)


def _cosine_basis(nc: int) -> np.ndarray:
    """Orthonormal cosine patterns over channels (columns unit norm)."""
    c = np.arange(nc)[:, None]
    s = np.arange(nc)[None, :]
    basis = np.cos(np.pi * (c + 0.5) * s / nc)
    return basis / np.linalg.norm(basis, axis=0, keepdims=True)


def default_noise_model(dims: BlockDims) -> NoiseModel:
    """Deterministic default process: as many sources as channels.

    The mixing matrix is an orthonormal cosine basis whose source gains fall
    geometrically from 4.0 to 0.6, giving a strongly anisotropic spatial
    covariance (loudest and quietest patterns differ ~44x in variance).  All
    sources share the same unit-energy low-pass taps, so the noise is
    temporally smooth with correlation reaching about the tap length.
    """
    nc = dims.n_channels
    basis = _cosine_basis(nc)
    gains = 4.0 * (0.6 / 4.0) ** (np.arange(nc) / max(nc - 1, 1))
    fir = np.tile(_smooth_taps(8, 8), (nc, 1))
    return NoiseModel(spatial_mix=basis * gains, temporal_fir=fir, noise_floor=0.5)


def _gaussian_bump(times: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((times - center) / width) ** 2)


def default_erp_spec(
    dims: BlockDims,
    sfreq: float = DEFAULT_SFREQ,
    t0: float = DEFAULT_T0,
    scale: float = DEFAULT_ERP_SCALE,
) -> ErpSpec:
    """Default class templates sampled from fixed continuous-time bumps.

    Both classes share an early response; targets additionally get a later
    deflection whose topography mixes the loudest and the quietest default
    noise patterns, so classifiers are rewarded for whitening accurately.
    Using fixed centers in seconds means the same underlying signal is
    obtained at any sampling rate covering the window.
    """
    nc, nt = dims.n_channels, dims.n_times
    times = t0 + np.arange(nt) / sfreq
    grad = np.arange(nc) / max(nc - 1, 1)
    basis = _cosine_basis(nc)
    early_topo = (0.4 + 0.6 * grad)[:, None]
    late_topo = (basis[:, 0] + 0.5 * basis[:, nc - 1])[:, None]
    early = 0.4 * early_topo * _gaussian_bump(times, 0.17, 0.04)[None, :]
    late = late_topo * _gaussian_bump(times, 0.30, 0.06)[None, :]
    return ErpSpec(
        target_template=scale * (early + late),
        nontarget_template=scale * early,
    )


def generate_noise(
    model: NoiseModel,
    n_epochs: int,
    dims: BlockDims,
    seed: int,
    sfreq: float = DEFAULT_SFREQ,
    t0: float = DEFAULT_T0,
) -> Epochs:
    """Draw unlabeled stationary noise epochs (bit-deterministic in seed).

    The epochs are made in the blocks of ``blockmat._slices``, each of at
    most ``blockmat._CHUNK_BYTES`` of buffers and finiteness mask, or one
    epoch; each epoch is drawn from its own stream in the documented order.
    Each run of consecutive sources with the same taps (all sources, for the
    default model) is filtered with one convolution over the block's draws
    of those sources laid end to end, of which each epoch keeps its
    ``valid`` window: every output
    sample is the same dot product of the same taps and draws as a
    convolution of one source of one epoch.  One stacked product mixes the
    block into the output, which is checked for finiteness block by block
    and owned by the returned epochs.
    """
    if n_epochs < 1:
        raise ShapeError(f"n_epochs must be >= 1, got {n_epochs}")
    nc, nt = dims.n_channels, dims.n_times
    if model.n_channels != nc:
        raise ShapeError(
            f"noise model has {model.n_channels} channels, dims ask for {nc}"
        )
    ns, length = model.n_sources, model.fir_length
    width = nt + length - 1
    mix, fir, floor = model.spatial_mix, model.temporal_fir, model.noise_floor
    # An epoch's share of the block buffers below and of the finiteness mask.
    per_epoch = 8 * (3 * ns * width + (ns + nc) * nt) + nc * nt
    blocks = _slices(n_epochs, per_epoch, blockmat._CHUNK_BYTES)
    block = blocks[0].stop
    # The first source of each run of sources with the same taps, and ns.
    edges = [s for s in range(ns) if not s or fir[s].tobytes() != fir[s - 1].tobytes()] + [ns]
    gens = rng.streams(seed, range(n_epochs))
    data = np.empty((n_epochs, nc, nt))
    drawn = np.empty((block, ns, width))
    sensor = np.empty((block, nc, nt)) if floor > 0 else None
    # The block's draws, source after source and, within a source, epoch
    # after epoch.  The length - 1 values after a run's last row (draws of
    # the next source or of an earlier block, or zeros) only feed outputs
    # that no epoch keeps; they make the output of the convolution one row
    # of width per epoch.
    rows = np.zeros(ns * block * width + length - 1)
    filtered = np.empty((block, ns, nt))
    for part in blocks:
        size = part.stop - part.start
        for b in range(size):
            gen = next(gens)
            gen.standard_normal(out=drawn[b])
            if sensor is not None:
                gen.standard_normal(out=sensor[b])
        span = size * width
        rows[: ns * span].reshape(ns, size, width)[...] = drawn[:size].transpose(1, 0, 2)
        for lo, hi in zip(edges, edges[1:]):
            conv = np.convolve(rows[lo * span : hi * span + length - 1], fir[lo], mode="valid")
            filtered[:size, lo:hi] = conv.reshape(hi - lo, size, width)[..., :nt].transpose(1, 0, 2)
            del conv  # before the next block's convolution allocates its output
        out = data[part]
        np.matmul(mix, filtered[:size], out=out)
        if sensor is not None:
            out += np.multiply(floor, sensor[:size], out=sensor[:size])
        _finite_array(out, out.shape, "epoch data")
    return _owned_epochs(data, sfreq, t0, tuple(f"c{i:02d}" for i in range(nc)))


def true_covariance(model: NoiseModel, dims: BlockDims) -> BlockToeplitzCov:
    """Analytic covariance of the noise process in compact form."""
    nc, nt = dims.n_channels, dims.n_times
    if model.n_channels != nc:
        raise ShapeError(
            f"noise model has {model.n_channels} channels, dims ask for {nc}"
        )
    fir = model.temporal_fir
    length = model.fir_length
    mix = model.spatial_mix
    lags = np.zeros((nt, nc, nc))
    for d in range(nt):
        if d < length:
            r = (fir[:, : length - d] * fir[:, d:]).sum(axis=1)
            lags[d] = (mix * r) @ mix.T
        if d == 0:
            lags[0] += model.noise_floor**2 * np.eye(nc)
    return BlockToeplitzCov(dims, lags)


def inject_erp(epochs: Epochs, spec: ErpSpec, seed: int) -> Epochs:
    """Add class templates to noise epochs and assign labels in groups.

    Every consecutive group of ``sum(TARGET_RATIO)`` epochs receives exactly
    ``TARGET_RATIO[0]`` target labels at seeded random positions; the epoch
    count must be a whole number of groups.
    """
    gs = sum(TARGET_RATIO)
    if epochs.n_epochs % gs != 0:
        raise GroupSizeError(
            f"n_epochs={epochs.n_epochs} is not a multiple of the "
            f"group size {gs} (target ratio {TARGET_RATIO[0]}:{TARGET_RATIO[1]})"
        )
    if spec.target_template.shape != (epochs.n_channels, epochs.n_times):
        raise ShapeError(
            f"templates have shape {spec.target_template.shape}, epochs are "
            f"({epochs.n_channels}, {epochs.n_times})"
        )
    gen = rng.stream(seed, rng.LABEL_STREAM)
    labels = np.zeros(epochs.n_epochs, dtype=np.uint8)
    for g in range(epochs.n_epochs // gs):
        pos = gen.permutation(gs)[: TARGET_RATIO[0]]
        labels[g * gs + pos] = 1
    data = np.empty_like(epochs.data)
    for label, template in enumerate((spec.nontarget_template, spec.target_template)):
        np.add(epochs.data, template, out=data, where=(labels == label)[:, None, None])
    _finite_array(data, data.shape, "epoch data")
    return _owned_epochs(data, epochs.sfreq, epochs.t0, epochs.channel_names, labels)
