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

Seeds and substreams are integers in [0, 2**64); one outside raises
:class:`ValueError`, and a non-integer :class:`TypeError`, instead of
wrapping or truncating onto the stream of another.

:func:`streams` gives the generators of :func:`stream` for a sequence of
substreams from one bit generator, re-keyed for each.
"""

from __future__ import annotations

import operator

import numpy as np

LABEL_STREAM = 1 << 40
SPLIT_STREAM = 1 << 41
DRAW_STREAM_BASE = 1 << 42


def _key_word(value: int, name: str) -> int:
    """``value``, one 64-bit word of a stream key; outside [0, 2**64) it
    raises, so that no two seeds or substreams share a stream."""
    # operator.index refuses a float, which uint64 would truncate onto an integer's stream.
    if not 0 <= operator.index(value) < 1 << 64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return value


def _key(seed: int, substream: int) -> np.ndarray:
    return np.array([_key_word(seed, "seed"), _key_word(substream, "substream")], dtype=np.uint64)


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
