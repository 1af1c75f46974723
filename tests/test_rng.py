"""Counter-based random streams: keying and reproducibility."""

import numpy as np

from toeplitzlda import rng


def test_stream_zero_zero_frozen_head():
    # Golden values; changing the generator family or keying would silently
    # change every dataset, so the first draws are pinned here.
    head = rng.stream(0, 0).standard_normal(4)
    assert head.tolist() == [
        0.15929546600623282,
        -1.7741885208017214,
        1.3265118818830892,
        1.2048090979493156,
    ]


def test_same_key_reproduces_bits():
    a = rng.stream(123, 456).standard_normal(32)
    b = rng.stream(123, 456).standard_normal(32)
    assert np.array_equal(a, b)


def test_streams_differ_across_seed_and_substream():
    base = rng.stream(1, 2).standard_normal(8)
    assert not np.array_equal(base, rng.stream(1, 3).standard_normal(8))
    assert not np.array_equal(base, rng.stream(2, 2).standard_normal(8))


def test_substream_constants_are_distinct_ranges():
    # Purpose-keyed substreams must not collide with per-epoch indices
    # (0 .. n_epochs-1) or with each other.
    assert rng.LABEL_STREAM != rng.SPLIT_STREAM
    assert rng.DRAW_STREAM_BASE > rng.SPLIT_STREAM > rng.LABEL_STREAM > 10**9


def test_draws_do_not_depend_on_request_chunking():
    # Counter-based: one request for 16 values equals two requests for 8.
    whole = rng.stream(7, 7).standard_normal(16)
    gen = rng.stream(7, 7)
    split = np.concatenate([gen.standard_normal(8), gen.standard_normal(8)])
    assert np.array_equal(whole, split)


def test_negative_and_large_keys_are_accepted():
    a = rng.stream(-1, 0).standard_normal(4)
    b = rng.stream((1 << 64) - 1, 0).standard_normal(4)
    # -1 and 2**64 - 1 are congruent modulo 2**64, so the streams agree.
    assert np.array_equal(a, b)


def test_streams_equal_a_new_stream_per_substream():
    # One generator, re-keyed: whatever the previous substream drew, the next
    # starts where a new stream of its key starts.
    subs = [0, 5, 1, rng.LABEL_STREAM, 5]
    for sub, (size, gen) in zip(subs, zip((3, 1, 8, 5, 2), rng.streams(7, subs))):
        head = gen.standard_normal(size)
        assert np.array_equal(head, rng.stream(7, sub).standard_normal(size))
        gen.standard_normal(3)  # left over for the next substream
