"""End-to-end command-line behavior, exit codes, and reproducibility."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from toeplitzlda import cli, synth
from toeplitzlda.blockmat import BlockDims
from toeplitzlda.dataio import read_dataset, write_dataset
from toeplitzlda.lda import load_model

from conftest import traced_peak, write_contract_breaking_dataset

# Golden digests for the default generator configuration; any change to the
# noise model, templates, stream keying, or file format shows up here.
SHA_DATA_48_SEED0 = "5beeb9ae0847d893f04ebcf6f5dbe3efd182ef2e3b2685aa77789df05c4b34fc"
SHA_LABELS_48_SEED0 = "53ba78be6d6b6b15321560353ce8c895f48774e470aa8b5d8d675d7bcb7bae55"
SHA_REPORT_CSV = "6753283aea8351c7af6ea14deeba0983071fd06bce20d9e644ab2ea87bffdcb0"
SHA_META_48_SEED0 = "1efcc6c4998b7ba3b4b4ee727dcc882ea1df805ac96d481c47001b5e9184bc83"
# aggregate.json of the SHA_REPORT_CSV run, with the dataset at the relative
# path "ds" (the config echo holds the dataset path).
SHA_AGGREGATE_JSON = "a28eca6f7d727002448f73b2e9e9a4765c7369349df8b6c4d71a73bb5ac777d8"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def dataset96(tmp_path_factory):
    """The 96-epoch default-configuration dataset, built through the CLI."""
    path = tmp_path_factory.mktemp("ds96") / "data"
    code = cli.main(["synth", "--out-dir", str(path), "--n-epochs", "96",
                     "--seed", "7"])
    assert code == 0
    return path


# ----------------------------------------------------------------- synth

def test_synth_writes_frozen_dataset(tmp_path, capsys):
    out = tmp_path / "ds"
    code, stdout, stderr = run(
        capsys, "synth", "--out-dir", str(out), "--n-epochs", "48",
        "--seed", "0"
    )
    assert code == 0
    assert sha256(out / "data.bin") == SHA_DATA_48_SEED0
    assert sha256(out / "labels.bin") == SHA_LABELS_48_SEED0
    assert sha256(out / "meta.json") == SHA_META_48_SEED0
    payload = last_json(stdout)
    assert payload["sha256_data"] == SHA_DATA_48_SEED0
    assert payload["seed"] == 0
    assert payload["n_epochs"] == 48
    assert payload["n_targets"] == 8
    assert "wrote 48 epochs" in stderr
    back = read_dataset(out)
    assert back.dims == BlockDims(8, 20)
    assert back.labels.sum() == 8


def test_synth_is_deterministic_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "synth", "--out-dir", str(a), "--n-epochs", "12", "--seed", "3")
    run(capsys, "synth", "--out-dir", str(b), "--n-epochs", "12", "--seed", "3")
    assert (a / "data.bin").read_bytes() == (b / "data.bin").read_bytes()
    assert (a / "labels.bin").read_bytes() == (b / "labels.bin").read_bytes()


def test_synth_rejects_partial_groups(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "synth", "--out-dir", str(tmp_path / "x"), "--n-epochs", "5",
        "--seed", "0"
    )
    assert code == 1
    assert "group size" in stderr


def test_synth_writes_only_into_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "synth", "--out-dir", "sub/ds", "--n-epochs", "6", "--seed", "0")
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]
    assert sorted(p.name for p in (tmp_path / "sub" / "ds").iterdir()) == [
        "data.bin", "labels.bin", "meta.json",
    ]


def test_seed_falls_back_to_environment(tmp_path, capsys, monkeypatch):
    flagged, from_env = tmp_path / "flagged", tmp_path / "env"
    run(capsys, "synth", "--out-dir", str(flagged), "--n-epochs", "12",
        "--seed", "11")
    monkeypatch.setenv("TOEPLITZLDA_SEED", "11")
    code, stdout, _ = run(capsys, "synth", "--out-dir", str(from_env),
                          "--n-epochs", "12")
    assert code == 0
    assert last_json(stdout)["seed"] == 11
    assert (flagged / "data.bin").read_bytes() == (from_env / "data.bin").read_bytes()


def test_non_integer_environment_seed_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TOEPLITZLDA_SEED", "lots")
    code, _, stderr = run(capsys, "synth", "--out-dir", str(tmp_path / "x"),
                          "--n-epochs", "6")
    assert code == 1
    assert stderr.startswith("error: TOEPLITZLDA_SEED must be an integer")


@pytest.mark.parametrize(
    ("command", "flag", "value", "rule"),
    [
        ("synth", "--n-epochs", "0", "an integer >= 1"),
        ("synth", "--n-channels", "0", "an integer >= 1"),
        ("synth", "--n-times", "0", "an integer >= 1"),
        ("synth", "--sfreq", "0", "a finite number > 0"),
        ("synth", "--sfreq", "nan", "a finite number > 0"),
        ("synth", "--t0", "inf", "a finite number"),
        ("synth", "--erp-scale", "nan", "a finite number"),
        ("bench", "--sizes", "6,,12", "comma-separated integers"),
    ],
    ids=["n-epochs", "n-channels", "n-times", "zero-sfreq", "nan-sfreq", "t0", "erp-scale",
         "sizes"],
)
def test_a_bad_flag_value_is_a_usage_error_naming_the_flag(
    tmp_path, capsys, command, flag, value, rule
):
    # Each was read as given and failed later: a data error (exit 2), after
    # numpy warnings for sfreq 0, or a message that did not name the flag.
    extra = ("--dataset-dir", str(tmp_path / "ds")) if command == "bench" else ()
    code, stdout, stderr = run(capsys, command, "--out-dir", str(tmp_path / "out"), *extra,
                               flag, value)
    assert code == 1 and stdout == ""
    expected = f"toeplitzlda {command}: error: argument {flag}: must be {rule}, got {value!r}\n"
    assert stderr == expected
    assert not any(tmp_path.iterdir())


# ----------------------------------------------------------------- bench

def test_bench_writes_frozen_report(dataset96, tmp_path, capsys):
    out = tmp_path / "rep"
    code, stdout, _ = run(
        capsys, "bench", "--dataset-dir", str(dataset96), "--out-dir", str(out),
        "--sizes", "6,12,24", "--draws", "3", "--seed", "5"
    )
    assert code == 0
    csv = (out / "report.csv").read_text()
    lines = csv.strip().splitlines()
    assert lines[0] == "estimator,cov_mode,oracle_means,subset_size,draw,auc,fit_ms,n_train"
    assert lines[1] == "slda,within,false,6,0,0.221875,na,6"
    assert len(lines) == 1 + 2 * 3 * 3
    assert sha256(out / "report.csv") == SHA_REPORT_CSV
    agg = last_json(stdout)
    assert agg == json.loads((out / "aggregate.json").read_text())
    assert len(agg["cells"]) == 6


def test_bench_is_byte_identical_across_job_counts(dataset96, tmp_path, capsys):
    one, many = tmp_path / "one", tmp_path / "many"
    run(capsys, "bench", "--dataset-dir", str(dataset96), "--out-dir", str(one),
        "--sizes", "6,12", "--draws", "2", "--seed", "5", "--jobs", "1")
    run(capsys, "bench", "--dataset-dir", str(dataset96), "--out-dir", str(many),
        "--sizes", "6,12", "--draws", "2", "--seed", "5", "--jobs", "4")
    assert (one / "report.csv").read_bytes() == (many / "report.csv").read_bytes()
    assert (one / "aggregate.json").read_bytes() == (many / "aggregate.json").read_bytes()


def test_bench_writes_frozen_aggregate(dataset96, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _copy_dataset(dataset96, tmp_path / "ds")
    code, _, _ = run(
        capsys, "bench", "--dataset-dir", "ds", "--out-dir", "rep",
        "--sizes", "6,12,24", "--draws", "3", "--seed", "5"
    )
    assert code == 0
    assert sha256(tmp_path / "rep" / "report.csv") == SHA_REPORT_CSV
    assert sha256(tmp_path / "rep" / "aggregate.json") == SHA_AGGREGATE_JSON


@pytest.mark.parametrize(
    ("flag", "value", "named"),
    [
        ("--estimators", "slda,slda", "estimators"),
        ("--cov-modes", "within,global,within", "cov_modes"),
        ("--sizes", "6,6", "subset_sizes"),
        ("--jobs", "0", "jobs"),
        ("--draws", "0", "n_draws"),
        ("--sizes", "5", "subset_sizes"),
        ("--sizes", "0", "subset_sizes"),
        ("--sizes", "-6", "subset_sizes"),
        ("--uniform-draws", "--sizes=1", "subset_sizes"),
        ("--gamma", "2", "gamma"),
        ("--gamma=-0.5", "--sizes=6", "gamma"),
        ("--gamma", "nan", "gamma"),
        ("--gamma=2", "--sizes=600", "gamma"),
    ],
    ids=["repeated-estimator", "repeated-cov-mode", "repeated-size", "no-jobs", "no-draws",
         "partial-group-size", "zero-size", "negative-size", "one-epoch-size",
         "gamma-above-one", "negative-gamma", "nan-gamma", "gamma-with-every-size-skipped"],
)
def test_bench_rejects_a_degenerate_grid(dataset96, tmp_path, capsys, flag, value, named):
    code, stdout, stderr = run(
        capsys, "bench", "--dataset-dir", str(dataset96),
        "--out-dir", str(tmp_path / "rep"), "--draws", "2", flag, value
    )
    assert code == 1
    assert named in stderr
    assert stdout == ""
    assert not (tmp_path / "rep").exists()


def test_bench_unknown_estimator_is_usage_error(dataset96, tmp_path, capsys):
    code, _, stderr = run(
        capsys, "bench", "--dataset-dir", str(dataset96),
        "--out-dir", str(tmp_path / "rep"), "--estimators", "slda,wat"
    )
    assert code == 1
    assert "slda" in stderr and "toeplitz" in stderr  # lists the valid names


def test_bench_missing_dataset_is_data_error(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "bench", "--dataset-dir", str(tmp_path / "nope"),
        "--out-dir", str(tmp_path / "rep")
    )
    assert code == 2
    assert "meta.json" in stderr


def test_bench_checks_gamma_before_reading_the_dataset(tmp_path, capsys):
    code, stdout, stderr = run(
        capsys, "bench", "--dataset-dir", str(tmp_path / "nope"),
        "--out-dir", str(tmp_path / "rep"), "--gamma", "2"
    )
    assert code == 1
    assert "gamma" in stderr and "meta.json" not in stderr
    assert stdout == ""
    assert not (tmp_path / "rep").exists()


def test_bench_all_cells_failing_is_numerical_error(dataset96, tmp_path, capsys):
    # 160 dimensions, 6 training epochs, no shrinkage: every fit is singular.
    code, _, stderr = run(
        capsys, "bench", "--dataset-dir", str(dataset96),
        "--out-dir", str(tmp_path / "rep"), "--estimators", "slda",
        "--sizes", "6", "--draws", "2", "--gamma", "0.0", "--seed", "5"
    )
    assert code == 3
    assert "failed" in stderr


def test_bench_with_every_size_skipped_is_data_error(dataset96, tmp_path, capsys):
    # 96 epochs split into 48 training epochs: no subset of 600 can be drawn.
    out = tmp_path / "rep"
    code, stdout, stderr = run(
        capsys, "bench", "--dataset-dir", str(dataset96), "--out-dir", str(out),
        "--sizes", "600", "--draws", "2"
    )
    assert code == 2
    assert "training split of 48 epochs" in stderr
    assert (out / "report.csv").exists() and (out / "aggregate.json").exists()
    assert all(c["n_skipped"] == 2 for c in last_json(stdout)["cells"])


@pytest.mark.parametrize("n_epochs", [48, 50])
def test_bench_on_a_dataset_that_breaks_the_group_contract_is_data_error(
    tmp_path, capsys, n_epochs
):
    ds = write_contract_breaking_dataset(tmp_path / "ds", n_epochs)
    out = tmp_path / "rep"
    code, stdout, stderr = run(capsys, "bench", "--dataset-dir", ds, "--out-dir", str(out),
                               "--sizes", "6", "--draws", "1", "--seed", "7")
    assert code == 2
    assert stderr.startswith("error: ") and stdout == ""
    assert not out.exists()


def test_no_class_signal_scores_near_chance(tmp_path, capsys):
    ds = tmp_path / "flat"
    run(capsys, "synth", "--out-dir", str(ds), "--n-epochs", "384",
        "--erp-scale", "0.0", "--seed", "1")
    out = tmp_path / "rep"
    code, stdout, _ = run(
        capsys, "bench", "--dataset-dir", str(ds), "--out-dir", str(out),
        "--estimators", "slda", "--sizes", "48", "--draws", "5", "--seed", "2"
    )
    assert code == 0
    cell = last_json(stdout)["cells"][0]
    assert abs(cell["auc_mean"] - 0.5) < 0.15


# ------------------------------------------------------------ fit/score

def test_fit_full_shrinkage_weights_follow_mean_difference(dataset96, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code, stdout, _ = run(
        capsys, "fit", "--dataset-dir", str(dataset96),
        "--model-path", str(model_path), "--estimator", "slda",
        "--gamma", "1.0"
    )
    assert code == 0
    assert last_json(stdout)["gamma"] == 1.0
    model = load_model(model_path)
    epochs = read_dataset(dataset96)
    x = np.stack([ep.T.ravel() for ep in epochs.data], axis=1)
    labels = epochs.labels.astype(int)
    delta = x[:, labels == 1].mean(axis=1) - x[:, labels == 0].mean(axis=1)
    cos = model.weights @ delta / (
        np.linalg.norm(model.weights) * np.linalg.norm(delta)
    )
    assert cos >= 1.0 - 1e-10


def test_fit_then_score_recovers_signal_in_sample(dataset96, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(capsys, "fit", "--dataset-dir", str(dataset96),
        "--model-path", str(model_path))
    code, stdout, _ = run(
        capsys, "score", "--dataset-dir", str(dataset96),
        "--model-path", str(model_path)
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "epoch,score,label"
    assert len(lines) == 1 + 96 + 1  # header, one row per epoch, JSON summary
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] in ("0", "1")
    float(first[1])  # score column parses
    summary = json.loads(lines[-1])
    assert summary["n_epochs"] == 96
    assert summary["auc"] > 0.55


def test_fit_command_holds_the_data_at_most_twice(tmp_path, capsys):
    # 192 epochs of 31 x 200 (9.1 MiB) and every sample a feature.  The
    # command holds the epochs and the features only while it extracts
    # them, and the features and the fit's own copy during the fit.  64 KiB
    # covers the argument parser and the other small objects of a command,
    # which do not grow with the data.
    ds = tmp_path / "ds"
    assert cli.main(["synth", "--out-dir", str(ds), "--n-epochs", "192",
                     "--n-channels", "31", "--n-times", "200", "--seed", "3"]) == 0
    size = 192 * 31 * 200 * 8
    code, peak, _ = traced_peak(lambda: cli.main(
        ["fit", "--dataset-dir", str(ds), "--model-path", str(tmp_path / "model.json"),
         "--window", "0.1", "5.1"]))
    assert code == 0
    assert last_json(capsys.readouterr().out)["n_features"] == 31 * 200
    assert peak <= 2 * size + (64 << 10), f"peak {peak / size:.3f} x the data"


def test_score_without_labels_emits_plain_csv(tmp_path, capsys):
    dims = BlockDims(8, 20)
    noise = synth.generate_noise(synth.default_noise_model(dims), 12, dims, seed=2)
    ds = tmp_path / "plain"
    write_dataset(noise, ds)
    model_path = tmp_path / "model.json"
    labeled = tmp_path / "labeled"
    run(capsys, "synth", "--out-dir", str(labeled), "--n-epochs", "12",
        "--seed", "2")
    run(capsys, "fit", "--dataset-dir", str(labeled),
        "--model-path", str(model_path))
    code, stdout, _ = run(
        capsys, "score", "--dataset-dir", str(ds), "--model-path", str(model_path)
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "epoch,score"
    assert len(lines) == 1 + 12  # no JSON summary without labels



def test_score_of_one_class_reports_no_auc(tmp_path, capsys):
    # The scores are defined without both classes; their AUC is not.
    labeled = tmp_path / "labeled"
    model_path = tmp_path / "model.json"
    run(capsys, "synth", "--out-dir", str(labeled), "--n-epochs", "12", "--seed", "2")
    run(capsys, "fit", "--dataset-dir", str(labeled), "--model-path", str(model_path))
    epochs = read_dataset(labeled)
    ds = tmp_path / "targets"
    write_dataset(dataclasses.replace(epochs, labels=np.ones_like(epochs.labels)), ds)
    code, stdout, _ = run(
        capsys, "score", "--dataset-dir", str(ds), "--model-path", str(model_path)
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "epoch,score,label"
    assert len(lines) == 1 + 12 + 1
    assert all(line.endswith(",1") for line in lines[1:-1])
    assert last_json(stdout) == {"auc": None, "n_epochs": 12}

def test_fit_unlabeled_without_means_is_data_error(tmp_path, capsys):
    dims = BlockDims(2, 20)
    noise = synth.generate_noise(synth.default_noise_model(dims), 12, dims, seed=0)
    ds = tmp_path / "plain"
    write_dataset(noise, ds)
    code, _, stderr = run(
        capsys, "fit", "--dataset-dir", str(ds),
        "--model-path", str(tmp_path / "m.json")
    )
    assert code == 2
    assert "labels" in stderr


def test_fit_unlabeled_with_means_file(tmp_path, capsys):
    dims = BlockDims(8, 20)
    noise = synth.generate_noise(synth.default_noise_model(dims), 12, dims, seed=3)
    ds = tmp_path / "plain"
    write_dataset(noise, ds)
    d = dims.size
    means_file = tmp_path / "means.json"
    means_file.write_text(json.dumps({
        "means": [np.zeros(d).tolist(), np.ones(d).tolist()],
        "counts": [10, 2],
    }))
    model_path = tmp_path / "m.json"
    code, stdout, _ = run(
        capsys, "fit", "--dataset-dir", str(ds), "--model-path", str(model_path),
        "--cov-mode", "global", "--means-file", str(means_file)
    )
    assert code == 0
    assert last_json(stdout)["cov_mode"] == "global"
    assert model_path.is_file()


@pytest.mark.parametrize(("n_times", "sfreq"), [(20, 40.0), (64, 128.0)], ids=["dense", "pcg"])
def test_singular_unshrunk_fit_is_numerical_error(tmp_path, capsys, n_times, sfreq):
    # Channel 0 holds only the class label, so without shrinkage the toeplitz
    # estimate is singular and the class difference is outside its range.
    # The default window keeps all n_times samples, on either side of the
    # block-Toeplitz solve's size rule.
    dims = BlockDims(8, n_times)
    noise = synth.generate_noise(synth.default_noise_model(dims), 48, dims,
                                 seed=4, sfreq=sfreq)
    labels = (np.arange(48) % 2).astype(np.uint8)
    data = noise.data.copy()
    data[:, 0, :] = labels[:, None]
    ds = tmp_path / "singular"
    write_dataset(dataclasses.replace(noise, data=data, labels=labels), ds)
    code, _, stderr = run(
        capsys, "fit", "--dataset-dir", str(ds),
        "--model-path", str(tmp_path / "m.json"), "--gamma", "0.0"
    )
    assert code == 3
    assert "error" in stderr
    assert not (tmp_path / "m.json").exists()


def test_fit_malformed_means_file_is_data_error(dataset96, tmp_path, capsys):
    means_file = tmp_path / "means.json"
    means_file.write_text(json.dumps({"not_means": []}))
    code, _, stderr = run(
        capsys, "fit", "--dataset-dir", str(dataset96),
        "--model-path", str(tmp_path / "m.json"),
        "--means-file", str(means_file)
    )
    assert code == 2
    assert "malformed" in stderr


@pytest.mark.parametrize(
    "content",
    ['{"means": [[0.0, 1.0], [0.0]], "counts": [80, 16]}', '{"means": [[0.0'],
    ids=["ragged_means", "invalid_json"],
)
def test_fit_unparseable_means_file_is_data_error(dataset96, tmp_path, capsys, content):
    means_file = tmp_path / "means.json"
    means_file.write_text(content)
    code, _, stderr = run(
        capsys, "fit", "--dataset-dir", str(dataset96),
        "--model-path", str(tmp_path / "m.json"),
        "--means-file", str(means_file)
    )
    assert code == 2
    assert "malformed" in stderr


@pytest.mark.parametrize(
    "means",
    [[["0.0"] * 160, ["1.0"] * 160]],
    ids=["string-means"],
)
def test_fit_means_file_values_needing_a_cast_are_data_errors(
    dataset96, tmp_path, capsys, means
):
    means_file = tmp_path / "means.json"
    means_file.write_text(json.dumps({"means": means}))
    code, _, stderr = run(
        capsys, "fit", "--dataset-dir", str(dataset96),
        "--model-path", str(tmp_path / "m.json"),
        "--means-file", str(means_file)
    )
    assert code == 2
    assert "class" in stderr


@pytest.mark.parametrize(
    ("key", "value"),
    [("gamma", 7.0), ("n_channels", 8.0), ("well_conditioned", "no")],
)
def test_score_model_values_needing_a_cast_are_data_errors(
    dataset96, tmp_path, capsys, key, value
):
    model_path = tmp_path / "m.json"
    assert run(capsys, "fit", "--dataset-dir", str(dataset96),
               "--model-path", str(model_path))[0] == 0
    payload = json.loads(model_path.read_text())
    payload[key] = value
    model_path.write_text(json.dumps(payload))
    code, _, stderr = run(
        capsys, "score", "--dataset-dir", str(dataset96),
        "--model-path", str(model_path)
    )
    assert code == 2
    assert key in stderr


def _copy_dataset(src, dst):
    dst.mkdir()
    for name in ("data.bin", "labels.bin", "meta.json"):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def test_meta_json_not_json_is_data_error(dataset96, tmp_path, capsys):
    ds = _copy_dataset(dataset96, tmp_path / "ds")
    (ds / "meta.json").write_text("{not json")
    code, _, stderr = run(
        capsys, "fit", "--dataset-dir", str(ds), "--model-path", str(tmp_path / "m.json")
    )
    assert code == 2
    assert "meta.json" in stderr


@pytest.mark.parametrize(
    ("command", "expected"),
    [(["fit", "--model-path", "m.json"], 2), (["bench", "--out-dir", "rep"], 2)],
    ids=["fit", "bench"],
)
def test_dataset_without_epochs_is_answered_by_the_command(
    dataset96, tmp_path, capsys, monkeypatch, command, expected
):
    # A valid but empty dataset reaches each command's own checks: fit needs
    # two epochs for a covariance, bench two epoch groups for its split.
    monkeypatch.chdir(tmp_path)
    ds = _copy_dataset(dataset96, tmp_path / "ds")
    meta = json.loads((ds / "meta.json").read_text())
    meta["n_epochs"] = 0
    (ds / "meta.json").write_text(json.dumps(meta))
    (ds / "data.bin").write_bytes(b"")
    (ds / "labels.bin").write_bytes(b"")
    code, stdout, stderr = run(capsys, command[0], "--dataset-dir", "ds", *command[1:])
    assert code == expected
    assert "epoch" in stderr and "reshape" not in stderr
    assert stdout == ""


def test_meta_json_without_n_times_is_data_error(dataset96, tmp_path, capsys):
    ds = _copy_dataset(dataset96, tmp_path / "ds")
    meta = json.loads((ds / "meta.json").read_text())
    del meta["n_times"]
    (ds / "meta.json").write_text(json.dumps(meta))
    code, _, stderr = run(
        capsys, "fit", "--dataset-dir", str(ds), "--model-path", str(tmp_path / "m.json")
    )
    assert code == 2
    assert "n_times" in stderr


def test_meta_json_string_size_is_data_error(dataset96, tmp_path, capsys):
    ds = _copy_dataset(dataset96, tmp_path / "ds")
    meta = json.loads((ds / "meta.json").read_text())
    meta["n_epochs"] = str(meta["n_epochs"])
    (ds / "meta.json").write_text(json.dumps(meta))
    code, _, stderr = run(
        capsys, "fit", "--dataset-dir", str(ds), "--model-path", str(tmp_path / "m.json")
    )
    assert code == 2
    assert "n_epochs" in stderr


@pytest.mark.parametrize(
    ("key", "value"),
    [("sfreq", float("nan")), ("sfreq", float("inf")), ("t0", float("nan")),
     ("sfreq", "40"), ("sfreq", True), ("t0", "0.1")],
    ids=["sfreq-nan", "sfreq-inf", "t0-nan", "sfreq-string", "sfreq-bool", "t0-string"],
)
def test_meta_json_sfreq_and_t0_must_be_finite_numbers(dataset96, tmp_path, capsys, key, value):
    # json writes NaN and Infinity as bare literals, which json reads back.
    ds = _copy_dataset(dataset96, tmp_path / "ds")
    meta = json.loads((ds / "meta.json").read_text())
    meta[key] = value
    (ds / "meta.json").write_text(json.dumps(meta))
    code, _, stderr = run(
        capsys, "fit", "--dataset-dir", str(ds), "--model-path", str(tmp_path / "m.json")
    )
    assert code == 2
    assert key in stderr


def test_score_model_without_weights_is_data_error(dataset96, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(capsys, "fit", "--dataset-dir", str(dataset96),
        "--model-path", str(model_path))
    payload = json.loads(model_path.read_text())
    del payload["weights"]
    model_path.write_text(json.dumps(payload))
    code, stdout, stderr = run(
        capsys, "score", "--dataset-dir", str(dataset96),
        "--model-path", str(model_path)
    )
    assert code == 2
    assert "weights" in stderr
    assert stdout == ""


def test_fit_non_finite_means_file_is_data_error(dataset96, tmp_path, capsys):
    d = BlockDims(8, 20).size
    means = [np.zeros(d).tolist(), np.ones(d).tolist()]
    means[1][3] = float("nan")
    means_file = tmp_path / "means.json"
    means_file.write_text(json.dumps({"means": means, "counts": [80, 16]}))
    model_path = tmp_path / "m.json"
    code, stdout, stderr = run(
        capsys, "fit", "--dataset-dir", str(dataset96),
        "--model-path", str(model_path), "--means-file", str(means_file)
    )
    assert code == 2
    assert "non-finite" in stderr
    assert stdout == ""
    assert not model_path.exists()


def test_score_dimension_mismatch_is_data_error(dataset96, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(capsys, "fit", "--dataset-dir", str(dataset96),
        "--model-path", str(model_path))
    small = tmp_path / "small"
    run(capsys, "synth", "--out-dir", str(small), "--n-epochs", "12",
        "--n-channels", "4", "--seed", "0")
    code, _, stderr = run(
        capsys, "score", "--dataset-dir", str(small),
        "--model-path", str(model_path)
    )
    assert code == 2
    assert "channels" in stderr


def test_interval_means_features_flow_through_fit(dataset96, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code, stdout, _ = run(
        capsys, "fit", "--dataset-dir", str(dataset96),
        "--model-path", str(model_path), "--feature", "interval_means",
        "--boundaries", "0.1", "0.3", "0.5"
    )
    assert code == 0
    assert last_json(stdout)["n_features"] == 16  # 8 channels x 2 intervals
    assert load_model(model_path).dims == BlockDims(8, 2)


def test_interval_means_requires_boundaries(dataset96, tmp_path, capsys):
    code, _, stderr = run(
        capsys, "fit", "--dataset-dir", str(dataset96),
        "--model-path", str(tmp_path / "m.json"), "--feature", "interval_means"
    )
    assert code == 1
    assert stderr == "error: --feature interval_means requires --boundaries\n"


@pytest.mark.parametrize(
    ("command", "flags", "named"),
    [
        ("bench", ("--window", "0.1", "inf"), "window"),
        ("bench", ("--window", "nan", "0.6"), "window"),
        ("fit", ("--feature", "interval_means", "--boundaries", "0.1", "inf"), "boundaries"),
    ],
    ids=["bench-infinite-stop", "bench-nan-start", "fit-infinite-boundary"],
)
def test_a_non_finite_feature_window_is_usage_error(
    dataset96, tmp_path, capsys, command, flags, named
):
    out = (("--out-dir", str(tmp_path / "rep")) if command == "bench"
           else ("--model-path", str(tmp_path / "m.json")))
    code, stdout, stderr = run(capsys, command, "--dataset-dir", str(dataset96), *out, *flags)
    assert code == 1 and stdout == ""
    assert stderr.startswith(f"error: {named} must be finite") and stderr.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    ("command", "flags", "named"),
    [
        ("fit", ("--boundaries", "0.1", "0.2", "0.3"), "all_samples features take no boundaries"),
        ("bench", ("--boundaries", "0.1", "0.2", "0.3"), "all_samples features take no boundaries"),
        ("fit", ("--feature", "interval_means", "--boundaries", "0.1", "0.3",
                 "--window", "0.5", "0.2"), "interval_means features take no window"),
        ("score", ("--feature", "interval_means", "--boundaries", "0.1", "0.3",
                   "--window", "0.1", "0.6"), "interval_means features take no window"),
    ],
    ids=["fit-boundaries", "bench-boundaries", "fit-reversed-window", "score-window"],
)
def test_a_feature_flag_of_the_other_kind_is_usage_error(
    dataset96, tmp_path, capsys, command, flags, named
):
    # Each was ignored: the run used the other kind's features and exited 0.
    out = {"bench": ("--out-dir", str(tmp_path / "rep")),
           "fit": ("--model-path", str(tmp_path / "m.json")),
           "score": ("--model-path", str(tmp_path / "m.json"))}[command]
    code, stdout, stderr = run(capsys, command, "--dataset-dir", str(dataset96), *out, *flags)
    assert code == 1 and stdout == ""
    assert stderr.startswith(f"error: {named}") and stderr.count("\n") == 1
    assert not any(tmp_path.iterdir())


# ------------------------------------------------------------- plumbing

def test_help_exits_zero_everywhere(capsys):
    assert cli.main(["--help"]) == 0
    for sub in ("synth", "bench", "fit", "score"):
        assert cli.main([sub, "--help"]) == 0
    capsys.readouterr()


def test_version_exits_zero(capsys):
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["synth", "--wat"]) == 1
    assert capsys.readouterr().err.startswith("toeplitzlda synth: error: ")
    assert cli.main([]) == 1
    assert capsys.readouterr().err.startswith("toeplitzlda: error: ")
