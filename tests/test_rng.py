"""Counter-based random streams: keying and reproducibility."""

import numpy as np
import pytest

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


def test_the_largest_keys_keep_their_streams():
    # Golden values of the top of the key range, as drawn before keys were
    # range-checked.
    top = (1 << 64) - 1
    assert rng.stream(top, 0).standard_normal(4).tolist() == [
        -2.7686715823603945, 1.6779206516595908, -0.45223270389849135, 2.5150349369881924,
    ]
    assert rng.stream(top, top).standard_normal(4).tolist() == [
        0.6313842391058808, -1.1589078121430747, -1.4343318739191726, 1.0477275891445663,
    ]


@pytest.mark.parametrize("value", [-1, 1 << 64, -(1 << 64), (1 << 64) + 5])
def test_keys_outside_64_bits_are_refused(value):
    # Masking to 64 bits would give -1 the stream of 2**64 - 1, and 2**64
    # that of 0; each word of the key is refused instead, naming the value.
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {value}$"):
        rng.stream(value, 0)
    with pytest.raises(ValueError, match=rf"substream must be in .*, got {value}$"):
        rng.stream(0, value)
    with pytest.raises(ValueError, match=f"seed .* got {value}$"):
        next(rng.streams(value, [0]))
    with pytest.raises(ValueError, match=f"substream .* got {value}$"):
        list(rng.streams(0, [1, value]))


def test_streams_equal_a_new_stream_per_substream():
    # One generator, re-keyed: whatever the previous substream drew, the next
    # starts where a new stream of its key starts.
    subs = [0, 5, 1, rng.LABEL_STREAM, 5]
    for sub, (size, gen) in zip(subs, zip((3, 1, 8, 5, 2), rng.streams(7, subs))):
        head = gen.standard_normal(size)
        assert np.array_equal(head, rng.stream(7, sub).standard_normal(size))
        gen.standard_normal(3)  # left over for the next substream


def test_a_key_that_is_not_an_integer_is_refused():
    # Cast to uint64, 1.5 would draw the stream of 1.
    with pytest.raises(TypeError):
        rng.stream(1.5, 0)
    with pytest.raises(TypeError):
        rng.stream(0, 1.0)
    assert np.array_equal(rng.stream(np.uint64(3), np.int64(4)).standard_normal(4),
                          rng.stream(3, 4).standard_normal(4))
