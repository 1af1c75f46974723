"""Deterministic random streams.

Every random draw in this package comes from a counter-based Philox
(4x64) bit generator keyed by ``(seed, substream)``.  Keying streams by
purpose instead of sharing one sequential generator makes outputs
bit-reproducible regardless of evaluation order or thread count: a parallel
run derives exactly the same stream for each work unit as a serial run.

Substream identifiers used across the package (documented here so the byte
format of generated datasets is fully specified):

* ``0 .. n_epochs-1`` -- noise generation, one stream per epoch
  (:mod:`toeplitzlda.synth`).
* ``LABEL_STREAM`` -- target/non-target label assignment within groups.
* ``SPLIT_STREAM`` -- train/validation group split
  (:mod:`toeplitzlda.bench`).
* ``DRAW_STREAM_BASE + subset_size * 2**20 + draw_index`` -- training
  subset draws.

:func:`streams` gives the generators of :func:`stream` for a sequence of
substreams from one bit generator, re-keyed for each.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

LABEL_STREAM = 1 << 40
SPLIT_STREAM = 1 << 41
DRAW_STREAM_BASE = 1 << 42


def _key(seed: int, substream: int) -> np.ndarray:
    return np.array([seed & _MASK64, substream & _MASK64], dtype=np.uint64)


def stream(seed: int, substream: int) -> np.random.Generator:
    """Generator for the Philox stream keyed by ``(seed, substream)``."""
    return np.random.Generator(np.random.Philox(key=_key(seed, substream)))


def streams(seed: int, substreams):
    """The generators of :func:`stream` for each of ``substreams`` in turn.

    One bit generator is set, for each substream, to the state a new one
    keyed by it starts in: the same draws, without building a generator (and
    drawing fresh entropy it does not use) per substream.  Each generator
    yielded is valid until the next one is.
    """
    bitgen = np.random.Philox(key=_key(seed, 0))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for substream in substreams:
        state["state"]["key"] = _key(seed, substream)
        bitgen.state = state
        yield gen
