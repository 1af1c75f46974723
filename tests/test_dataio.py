"""Dataset directory format, the package's JSON rules, and feature extraction windows."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from toeplitzlda import dataio, synth
from toeplitzlda.blockmat import BlockDims
from toeplitzlda.dataio import (
    Epochs,
    FeatureConfig,
    FeatureMatrix,
    all_samples,
    extract_features,
    interval_means,
    read_dataset,
    sample_index,
    write_dataset,
)
from toeplitzlda.errors import DataFormatError, ShapeError

from conftest import traced_peak


def small_epochs(n_epochs=4, nc=2, nt=5, labels=None, sfreq=40.0, t0=0.1, seed=0):
    data = np.random.default_rng(seed).standard_normal((n_epochs, nc, nt))
    return Epochs(
        data=data,
        sfreq=sfreq,
        t0=t0,
        channel_names=tuple(f"c{i:02d}" for i in range(nc)),
        labels=labels,
    )


# ------------------------------------------------------------ round trip

def test_round_trip_is_bit_exact_with_labels(tmp_path):
    labels = np.array([0, 1, 0, 1], dtype=np.uint8)
    epochs = small_epochs(labels=labels)
    write_dataset(epochs, tmp_path)
    back = read_dataset(tmp_path)
    assert np.array_equal(back.data, epochs.data)
    assert np.array_equal(back.labels, labels)
    assert back.sfreq == epochs.sfreq
    assert back.t0 == epochs.t0
    assert back.channel_names == epochs.channel_names


def test_round_trip_unlabeled(tmp_path):
    epochs = small_epochs()
    write_dataset(epochs, tmp_path)
    back = read_dataset(tmp_path)
    assert back.labels is None
    assert np.array_equal(back.data, epochs.data)
    assert not (tmp_path / "labels.bin").exists()


def test_on_disk_bytes_are_little_endian_c_order(tmp_path):
    epochs = small_epochs()
    write_dataset(epochs, tmp_path)
    assert (tmp_path / "data.bin").read_bytes() == epochs.data.astype(
        "<f8"
    ).tobytes()
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["format_version"] == 1
    assert meta["endianness"] == "little"
    assert meta["has_labels"] is False
    assert meta["n_epochs"] == 4


def test_truncated_data_file_is_rejected(tmp_path):
    write_dataset(small_epochs(), tmp_path)
    raw = (tmp_path / "data.bin").read_bytes()
    (tmp_path / "data.bin").write_bytes(raw[:-8])
    with pytest.raises(DataFormatError, match="data.bin"):
        read_dataset(tmp_path)


def test_truncated_labels_file_is_rejected(tmp_path):
    labels = np.array([0, 1, 0, 1], dtype=np.uint8)
    write_dataset(small_epochs(labels=labels), tmp_path)
    (tmp_path / "labels.bin").write_bytes(bytes([0, 1]))
    with pytest.raises(DataFormatError, match="labels.bin"):
        read_dataset(tmp_path)


def test_labels_file_values_are_checked(tmp_path):
    write_dataset(small_epochs(labels=np.array([0, 1, 0, 1])), tmp_path)
    (tmp_path / "labels.bin").write_bytes(bytes([0, 1, 2, 1]))
    with pytest.raises(DataFormatError, match="labels must be 0"):
        read_dataset(tmp_path)


#: Bytes of the Python objects of a call, which do not grow with the data.
SMALL = 64 << 10


def test_read_dataset_holds_its_data_once(tmp_path):
    # 192 epochs of 8 x 100: 1.2 MiB.  The data is read into the array the
    # epochs own and checked over slices, whose isfinite mask of one byte
    # per value stays within the small objects of a call.
    noise = synth.generate_noise(synth.default_noise_model(BlockDims(8, 100)), 192,
                                 BlockDims(8, 100), seed=2)
    write_dataset(synth.inject_erp(noise, synth.default_erp_spec(BlockDims(8, 100)), seed=2),
                  tmp_path)
    epochs, peak, held = traced_peak(lambda: read_dataset(tmp_path))
    size = epochs.data.nbytes
    assert not epochs.data.flags.writeable and not epochs.labels.flags.writeable
    assert held <= size + SMALL, f"holds {held / size:.3f} x the data"
    assert peak <= size + SMALL, f"peak {peak / size:.3f} x the data"


@pytest.mark.parametrize("kind", ["all_samples", "interval_means"])
def test_features_are_owned_c_contiguous_and_equal_the_stacked_epochs(kind):
    epochs = small_epochs(n_epochs=24, nc=8, nt=100, sfreq=40.0, t0=0.0, seed=4)
    config = (FeatureConfig("all_samples", window=(0.0, 2.5)) if kind == "all_samples"
              else FeatureConfig("interval_means", boundaries=(0.0, 0.4, 1.1, 2.5)))
    fm, peak, _ = traced_peak(lambda: extract_features(epochs, config))
    assert fm.data.flags.c_contiguous and not fm.data.flags.writeable
    # At most one copy of the epochs (all samples are a transposed copy).
    assert peak <= epochs.data.nbytes + SMALL, f"peak {peak / epochs.data.nbytes:.3f} x"
    if kind == "all_samples":
        stacked = epochs.data
    else:
        edges = [sample_index(b, 40.0, 0.0) for b in config.boundaries]
        stacked = np.stack([epochs.data[:, :, lo:hi].mean(axis=2)
                            for lo, hi in zip(edges, edges[1:])], axis=2)
    expect = stacked.transpose(0, 2, 1).reshape(24, -1).T
    assert fm.data.tobytes() == np.ascontiguousarray(expect).tobytes()


def test_interval_means_that_overflow_are_rejected():
    epochs = Epochs(data=np.full((2, 1, 4), np.finfo(float).max), sfreq=1.0, t0=0.0,
                    channel_names=("a",))
    with np.errstate(over="ignore"), pytest.raises(DataFormatError, match="non-finite"):
        interval_means(epochs, (0.0, 4.0))


def test_nan_payload_is_rejected(tmp_path):
    epochs = small_epochs()
    write_dataset(epochs, tmp_path)
    bad = np.array(epochs.data)
    bad[0, 0, 0] = np.nan
    (tmp_path / "data.bin").write_bytes(bad.astype("<f8").tobytes())
    with pytest.raises(DataFormatError, match="NaN"):
        read_dataset(tmp_path)


@pytest.mark.parametrize("field", ["n_epochs", "n_channels", "n_times"])
@pytest.mark.parametrize("value", ["2", 2.5, True, -1])
def test_size_fields_must_be_non_negative_integers(tmp_path, field, value):
    # One epoch, channel and sample, so that True (read as 1) would match.
    write_dataset(small_epochs(n_epochs=1, nc=1, nt=1), tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta[field] = value
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataFormatError, match=f"{field} must be a non-negative integer"):
        read_dataset(tmp_path)


@pytest.mark.parametrize(
    "value", ["ab", [1, 2], ["a", None], None], ids=["string", "ints", "null-entry", "null"]
)
def test_channel_names_must_be_a_list_of_strings(tmp_path, value):
    # Two channels, so that "ab" (read as ("a", "b")) would match.
    write_dataset(small_epochs(nc=2), tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["channel_names"] = value
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataFormatError, match="channel_names must be a list of strings"):
        read_dataset(tmp_path)


def test_unknown_format_version_is_rejected(tmp_path):
    write_dataset(small_epochs(), tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["format_version"] = 99
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataFormatError, match="version"):
        read_dataset(tmp_path)


# A value of the wrong JSON type for every key that write_dataset writes.
WRONG_JSON_TYPE = {
    "format_version": "1",
    "n_epochs": "4",
    "n_channels": 2.0,
    "n_times": None,
    "sfreq": "40",
    "t0": [0.1],
    "channel_names": {"c00": 0, "c01": 1},
    "endianness": 1,
    "has_labels": "false",
}


@pytest.mark.parametrize("key", sorted(WRONG_JSON_TYPE))
def test_every_meta_key_is_checked_before_use(tmp_path, key):
    write_dataset(small_epochs(), tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert sorted(meta) == sorted(WRONG_JSON_TYPE)
    meta[key] = WRONG_JSON_TYPE[key]
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataFormatError, match=key):
        read_dataset(tmp_path)
    del meta[key]
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataFormatError, match=key):
        read_dataset(tmp_path)


@pytest.mark.parametrize(
    ("key", "value"),
    [("endianness", "big"), ("has_labels", 0), ("has_labels", "no")],
)
def test_endianness_and_has_labels_take_only_their_written_values(tmp_path, key, value):
    write_dataset(small_epochs(labels=np.array([0, 1, 0, 1])), tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta[key] = value
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataFormatError, match=key):
        read_dataset(tmp_path)


def test_missing_meta_is_rejected(tmp_path):
    with pytest.raises(DataFormatError, match="meta.json"):
        read_dataset(tmp_path / "nowhere")


def test_write_read_synth_dataset_round_trips(tmp_path):
    dims = BlockDims(3, 8)
    noise = synth.generate_noise(synth.default_noise_model(dims), 12, dims, seed=5)
    labeled = synth.inject_erp(noise, synth.default_erp_spec(dims), seed=5)
    write_dataset(labeled, tmp_path)
    back = read_dataset(tmp_path)
    assert np.array_equal(back.data, labeled.data)
    assert np.array_equal(back.labels, labeled.labels)


# ---------------------------------------------------------- sample_index

def test_sample_index_rounds_to_nearest_with_floor_tiebreak():
    assert sample_index(0.1, 40.0, 0.0) == 4   # 4.5 floors to 4
    assert sample_index(0.5, 40.0, 0.1) == 16
    assert sample_index(0.0, 40.0, 0.1) == -4  # floor(-3.5)
    assert sample_index(0.1, 40.0, 0.1) == 0


# --------------------------------------------------------- all_samples

def test_all_samples_counts_follow_window_times_sfreq():
    for sfreq, expect in ((20.0, 13), (40.0, 26), (100.0, 65), (200.0, 130)):
        epochs = small_epochs(nc=1, nt=expect + 2, sfreq=sfreq, t0=0.05)
        fm = all_samples(epochs, (0.05, 0.70))
        assert fm.dims == BlockDims(1, expect)
        assert fm.data.shape == (expect, 4)


def test_all_samples_half_second_at_40hz_selects_twenty():
    epochs = small_epochs(nc=2, nt=22, sfreq=40.0, t0=0.1)
    fm = all_samples(epochs, (0.1, 0.6))
    assert fm.dims == BlockDims(2, 20)


def test_full_window_is_the_flatten_identity():
    epochs = small_epochs(nc=3, nt=6, sfreq=40.0, t0=0.1)
    fm = all_samples(epochs, (0.1, 0.1 + 6 / 40.0))
    assert fm.dims == epochs.dims
    for e in range(epochs.n_epochs):
        assert np.array_equal(fm.data[:, e], epochs.data[e].T.ravel())


def test_all_samples_rejects_bad_windows():
    epochs = small_epochs(nc=1, nt=4, sfreq=20.0, t0=0.0)
    with pytest.raises(ShapeError):
        all_samples(epochs, (0.2, 0.1))
    with pytest.raises(ShapeError):
        all_samples(epochs, (0.1, 0.101))  # selects no sample
    with pytest.raises(ShapeError):
        all_samples(epochs, (0.0, 1.0))  # beyond the epoch


# ------------------------------------------------------- interval_means

def test_single_interval_is_the_time_average():
    epochs = Epochs(
        data=np.array([[[1.0, 2.0], [3.0, 4.0]]]),
        sfreq=1.0,
        t0=0.0,
        channel_names=("a", "b"),
    )
    fm = interval_means(epochs, (0.0, 2.0))
    assert fm.dims == BlockDims(2, 1)
    assert fm.data[:, 0].tolist() == [1.5, 3.5]


def test_five_interval_edges_against_manual_slices():
    bounds = (0.100, 0.170, 0.230, 0.300, 0.410, 0.500)
    epochs = small_epochs(nc=2, nt=21, sfreq=40.0, t0=0.0, seed=3)
    fm = interval_means(epochs, bounds)
    assert fm.dims == BlockDims(2, 5)
    slices = [(4, 7), (7, 9), (9, 12), (12, 16), (16, 20)]
    for k, (lo, hi) in enumerate(slices):
        expect = epochs.data[:, :, lo:hi].mean(axis=2)  # (n_epochs, nc)
        for c in range(2):
            assert np.allclose(fm.data[k * 2 + c], expect[:, c], atol=1e-15)


def test_constant_epoch_gives_constant_features():
    epochs = Epochs(
        data=np.full((3, 2, 8), 7.0),
        sfreq=20.0,
        t0=0.0,
        channel_names=("a", "b"),
    )
    fm = interval_means(epochs, (0.0, 0.2, 0.4))
    assert np.array_equal(fm.data, np.full((4, 3), 7.0))


def test_empty_interval_error_names_the_interval():
    epochs = small_epochs(nc=1, nt=8, sfreq=20.0, t0=0.0)
    with pytest.raises(ShapeError, match=r"\[0.1, 0.11\)"):
        interval_means(epochs, (0.1, 0.11, 0.3))


def test_interval_outside_epoch_is_rejected():
    epochs = small_epochs(nc=1, nt=4, sfreq=20.0, t0=0.0)
    with pytest.raises(ShapeError):
        interval_means(epochs, (0.0, 0.5))
    with pytest.raises(ShapeError):
        interval_means(epochs, (0.2,))


def test_features_of_no_epochs_are_an_empty_matrix():
    epochs = small_epochs(n_epochs=0, nc=3, nt=10, sfreq=20.0, t0=0.0)
    assert interval_means(epochs, (0.0, 0.2, 0.5)).data.shape == (6, 0)
    assert all_samples(epochs, (0.0, 0.5)).data.shape == (30, 0)


def test_interval_means_commute_with_channel_permutation():
    epochs = small_epochs(nc=3, nt=10, sfreq=20.0, t0=0.0, seed=8)
    perm = [2, 0, 1]
    permuted = Epochs(
        data=epochs.data[:, perm, :],
        sfreq=epochs.sfreq,
        t0=epochs.t0,
        channel_names=tuple(epochs.channel_names[p] for p in perm),
    )
    bounds = (0.0, 0.2, 0.5)
    fm = interval_means(epochs, bounds)
    fm_perm = interval_means(permuted, bounds)
    nc = 3
    for k in range(2):
        for i, p in enumerate(perm):
            assert np.array_equal(fm_perm.data[k * nc + i], fm.data[k * nc + p])


# ------------------------------------------------------------- dispatch

def test_extract_features_dispatches_both_kinds():
    epochs = small_epochs(nc=2, nt=8, sfreq=20.0, t0=0.0)
    win = FeatureConfig(kind="all_samples", window=(0.0, 0.4))
    assert np.array_equal(
        extract_features(epochs, win).data, all_samples(epochs, (0.0, 0.4)).data
    )
    iv = FeatureConfig(kind="interval_means", boundaries=(0.0, 0.2, 0.4))
    assert np.array_equal(
        extract_features(epochs, iv).data,
        interval_means(epochs, (0.0, 0.2, 0.4)).data,
    )


def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(kind="nope")
    with pytest.raises(ValueError):
        FeatureConfig(kind="all_samples")
    with pytest.raises(ValueError):
        FeatureConfig(kind="all_samples", window=(0.3, 0.3))
    with pytest.raises(ValueError):
        FeatureConfig(kind="interval_means", boundaries=(0.1,))
    with pytest.raises(ValueError):
        FeatureConfig(kind="interval_means", boundaries=(0.1, 0.1))


@pytest.mark.parametrize(
    ("bad", "problem"),
    [((0.1, np.inf), "finite"), ((np.nan, 0.3), "finite"), ((-np.inf, 0.3), "finite"),
     (0.5, "a sequence of numbers"), ("ab", "a sequence of numbers")],
)
def test_non_finite_windows_and_boundaries_are_named(bad, problem):
    # Each non-finite value raised OverflowError or an unnamed NaN conversion
    # in sample_index; a number raised TypeError, a string an unnamed
    # conversion error.
    epochs = small_epochs(nc=1, nt=20, sfreq=20.0, t0=0.0)
    for call, name in [
        (lambda: FeatureConfig("all_samples", window=bad), "window"),
        (lambda: FeatureConfig("interval_means", boundaries=bad), "boundaries"),
        (lambda: all_samples(epochs, bad), "window"),
        (lambda: interval_means(epochs, bad), "boundaries"),
    ]:
        with pytest.raises(ValueError, match=f"{name} must be {problem}"):
            call()


@pytest.mark.parametrize("window", [(0.1,), (0.1, 0.6, 99.0), ()])
def test_a_window_is_exactly_two_values(window):
    # Each was cut to its first two values, or raised IndexError or an
    # unpacking error.
    epochs = small_epochs(nc=1, nt=20, sfreq=20.0, t0=0.0)
    with pytest.raises(ValueError, match="window must be 2 values"):
        FeatureConfig("all_samples", window=window)
    with pytest.raises(ValueError, match="window must be 2 values"):
        all_samples(epochs, window)


@pytest.mark.parametrize(
    ("kind", "fields", "named"),
    [
        ("all_samples", {"window": (0.1, 0.6), "boundaries": (0.1, 0.2)}, "boundaries"),
        ("interval_means", {"window": (9.0, 1.0), "boundaries": (0.1, 0.2)}, "window"),
        ("interval_means", {"window": (0.1, 0.6), "boundaries": (0.1, 0.2)}, "window"),
    ],
)
def test_a_feature_config_takes_no_field_of_the_other_kind(kind, fields, named):
    with pytest.raises(ValueError, match=f"{kind} features take no {named}"):
        FeatureConfig(kind, **fields)


# ------------------------------------------------------------ containers

@pytest.mark.parametrize(
    ("sfreq", "t0"), [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (1.0, np.nan), (1.0, np.inf)]
)
def test_epochs_reject_non_finite_sfreq_and_t0(sfreq, t0):
    with pytest.raises(DataFormatError, match="finite"):
        Epochs(data=np.zeros((2, 1, 3)), sfreq=sfreq, t0=t0, channel_names=("a",))


def test_epochs_validation():
    good = np.zeros((2, 1, 3))
    with pytest.raises(ShapeError):
        Epochs(data=np.zeros((1, 3)), sfreq=1.0, t0=0.0, channel_names=("a",))
    bad = good.copy()
    bad[0, 0, 0] = np.inf
    with pytest.raises(DataFormatError):
        Epochs(data=bad, sfreq=1.0, t0=0.0, channel_names=("a",))
    with pytest.raises(ShapeError):
        Epochs(data=good, sfreq=0.0, t0=0.0, channel_names=("a",))
    with pytest.raises(ShapeError):
        Epochs(data=good, sfreq=1.0, t0=0.0, channel_names=("a", "b"))
    with pytest.raises(ShapeError):
        Epochs(data=good, sfreq=1.0, t0=0.0, channel_names=("a",),
               labels=np.array([0, 1, 0]))
    with pytest.raises(DataFormatError):
        Epochs(data=good, sfreq=1.0, t0=0.0, channel_names=("a",),
               labels=np.array([0, 2]))


def test_feature_matrix_validates_row_count():
    with pytest.raises(ShapeError):
        FeatureMatrix(data=np.zeros((5, 3)), dims=BlockDims(2, 3))


# ------------------------------------------------------------ JSON rules

JSON_IO = {"load", "loads", "dump", "dumps"}


def _json_uses(tree):
    """(top-level definition, json name) for each json read or write in a module."""
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "json" and node.attr in JSON_IO):
                yield name, node.attr
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                yield name, "from json import"
            elif isinstance(node, ast.alias) and node.name == "json" and node.asname:
                yield name, "import json as"


def test_json_files_hold_no_non_finite_number(tmp_path):
    # NaN and Infinity are not JSON: the writer refuses them and writes nothing.
    path = tmp_path / "out.json"
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="JSON"):
            dataio._write_json(path, {"value": bad})
    assert not path.exists()


def test_only_dataio_reads_or_writes_json():
    # The one exception is the CLI's machine-readable line on stdout.
    uses = [
        (path.stem, name, what)
        for path in sorted(Path(dataio.__file__).parent.glob("*.py"))
        for name, what in _json_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert ("dataio", "_json_object", "load") in uses
    assert ("dataio", "_write_json", "dump") in uses
    assert [use for use in uses if use[0] != "dataio"] == [("cli", "_emit", "dump")]
