"""Helpers shared by the test modules."""

import tracemalloc
from typing import Any, NamedTuple

import numpy as np

from toeplitzlda import bench, dataio, synth
from toeplitzlda.blockmat import BlockDims, BlockToeplitzCov


class Traced(NamedTuple):
    """What :func:`traced_peak` saw of one call."""

    result: Any
    peak: int  # bytes traced at the peak of the call
    held: int  # bytes still traced when it returned


def random_spd_block_toeplitz(rng, nc, nt) -> BlockToeplitzCov:
    """SPD block-Toeplitz matrix built from a random stationary process: an
    FIR autocorrelation times one random SPD channel mixing, plus 0.5 I at
    lag 0."""
    mix = rng.standard_normal((nc, nc))
    fir = rng.standard_normal(3)
    r = np.correlate(fir, fir, mode="full")[len(fir) - 1:]
    lags = np.zeros((nt, nc, nc))
    for d in range(min(nt, len(r))):
        lags[d] = r[d] * (mix @ mix.T)
    lags[0] += 0.5 * np.eye(nc)
    return BlockToeplitzCov(dims=BlockDims(nc, nt), lag_blocks=lags)


def traced_peak(call) -> Traced:
    """``call()`` under tracemalloc, which is stopped again however it ends."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return Traced(result, peak, held)


def write_contract_breaking_dataset(path, n_epochs: int) -> str:
    """Write 2 x 20 noise epochs that break the benchmark's group contract.

    Off the group grid (``n_epochs`` not a multiple of 6) every sixth epoch
    is a target; on it, the first epoch of each group in the training half
    of seed 7's split, so the validation half holds no target.
    """
    dims = BlockDims(2, 20)
    noise = synth.generate_noise(synth.default_noise_model(dims), n_epochs, dims, seed=7)
    labels = np.zeros(n_epochs, dtype=np.uint8)
    if n_epochs % 6:
        labels[::6] = 1
    else:
        labels[bench.split_train_val(n_epochs, 7)[0][::6]] = 1
    epochs = dataio.Epochs(noise.data, noise.sfreq, noise.t0, noise.channel_names, labels)
    dataio.write_dataset(epochs, path)
    return str(path)
