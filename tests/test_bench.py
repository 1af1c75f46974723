"""AUC scoring, deterministic splits/draws, and the benchmark grid."""

import itertools
import json

import numpy as np
import pytest

from toeplitzlda import bench, covest, lda, synth
from toeplitzlda.bench import (
    BenchConfig,
    aggregate,
    auc,
    draw_subsets,
    report_csv,
    run_benchmark,
    split_train_val,
    write_report,
)
from toeplitzlda.blockmat import BlockDims
from toeplitzlda.dataio import Epochs, write_dataset
from toeplitzlda.errors import DataFormatError, GroupSizeError, ShapeError


def pairwise_auc(scores, labels):
    """Exhaustive O(n^2) comparison count; the independent reference."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    t = scores[labels == 1]
    n = scores[labels == 0]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0
               for a, b in itertools.product(t, n))
    return wins / (len(t) * len(n))


# ----------------------------------------------------------------- auc

def test_auc_frozen_examples():
    assert auc([3.0, 1.0, 2.0, 4.0], [0, 1, 0, 1]) == 0.5
    assert auc([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1]) == 1.0
    assert auc([4.0, 3.0, 2.0, 1.0], [0, 0, 1, 1]) == 0.0
    assert auc([7.0, 7.0, 7.0], [0, 1, 0]) == 0.5  # all tied: half credit
    assert auc([1.0, 1.0, 2.0], [0, 1, 1]) == 0.75


def test_auc_matches_exhaustive_pairwise_count():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = rng.integers(2, 13)
        labels = np.zeros(m, dtype=int)
        labels[rng.choice(m, rng.integers(1, m), replace=False)] = 1
        # Coarse scores force plenty of ties.
        scores = np.round(rng.standard_normal(m), 1)
        assert auc(scores, labels) == pairwise_auc(scores, labels)


def test_auc_rejects_bad_inputs():
    with pytest.raises(ValueError):
        auc([1.0, 2.0], [1, 1])  # single class
    with pytest.raises(ValueError):
        auc([np.inf, 2.0], [0, 1])
    with pytest.raises(ValueError):
        auc([1.0, 2.0], [0, 2])
    with pytest.raises(ShapeError):
        auc([1.0, 2.0, 3.0], [0, 1])


@pytest.mark.parametrize("bad", [[0.5, 1.7, 0.2, 1.0], [-1, 1, 0, 0], [256, 0, 1, 0]])
def test_labels_are_checked_before_the_cast(bad):
    # A cast first would truncate 0.5 and 1.7 to 0 and 1, and wrap or
    # overflow -1 and 256.
    with pytest.raises(ShapeError, match="labels"):
        auc([0.1, 0.2, 0.3, 0.4], bad)
    with pytest.raises(ShapeError, match="labels"):
        draw_subsets(bad, 2, 1, seed=0, stratified=False)
    with pytest.raises(DataFormatError, match="labels"):
        Epochs(np.zeros((4, 1, 2)), 1.0, 0.0, ("a",), labels=bad)


# --------------------------------------------------------------- split

def test_split_is_deterministic_and_partitions_groups():
    a_train, a_val = split_train_val(36, seed=3)
    b_train, b_val = split_train_val(36, seed=3)
    assert np.array_equal(a_train, b_train) and np.array_equal(a_val, b_val)
    assert a_train.size == a_val.size == 18
    merged = np.sort(np.concatenate([a_train, a_val]))
    assert np.array_equal(merged, np.arange(36))
    # Whole groups stay on one side.
    for side in (a_train, a_val):
        groups = side.reshape(-1, 6)
        assert np.array_equal(groups % 6, np.tile(np.arange(6), (groups.shape[0], 1)))


def test_split_changes_with_seed():
    a_train, _ = split_train_val(60, seed=0)
    b_train, _ = split_train_val(60, seed=1)
    assert not np.array_equal(a_train, b_train)


def test_split_with_odd_group_count_favors_validation():
    train, val = split_train_val(30, seed=0)
    assert train.size == 12 and val.size == 18


def test_split_validates_epoch_count():
    with pytest.raises(GroupSizeError):
        split_train_val(20, seed=0)
    with pytest.raises(GroupSizeError):
        split_train_val(6, seed=0)


# --------------------------------------------------------------- draws

def group_labels(n):
    """1:5 labels, one target first in every group of six."""
    labels = np.zeros(n, dtype=np.uint8)
    labels[::6] = 1
    return labels


def test_full_size_stratified_draw_returns_everything():
    labels = group_labels(12)
    (idx,) = draw_subsets(labels, 12, 1, seed=0)
    assert np.array_equal(idx, np.arange(12))


def test_stratified_draw_keeps_the_ratio():
    labels = group_labels(48)
    for idx in draw_subsets(labels, 6, 5, seed=1):
        assert labels[idx].sum() == 1
    for idx in draw_subsets(labels, 24, 5, seed=1):
        assert labels[idx].sum() == 4


def test_draw_k_depends_only_on_seed_size_and_k():
    labels = group_labels(48)
    three = draw_subsets(labels, 12, 3, seed=2)
    two = draw_subsets(labels, 12, 2, seed=2)
    assert np.array_equal(three[1], two[1])
    assert not np.array_equal(three[0], three[1])
    other_seed = draw_subsets(labels, 12, 1, seed=3)
    assert not np.array_equal(three[0], other_seed[0])


def test_uniform_draws_contain_both_classes():
    labels = group_labels(48)
    for idx in draw_subsets(labels, 5, 8, seed=4, stratified=False):
        assert 0 < labels[idx].sum() < idx.size


def test_draw_validation_errors():
    labels = group_labels(12)
    with pytest.raises(ShapeError):
        draw_subsets(labels, 0, 1, seed=0)
    with pytest.raises(ShapeError):
        draw_subsets(labels, 13, 1, seed=0)
    with pytest.raises(ShapeError):
        draw_subsets(labels, 8, 1, seed=0)  # not a multiple of 6
    with pytest.raises(ShapeError):
        draw_subsets(labels, 8, 0, seed=0)  # checked before the first draw
    lopsided = np.zeros(12, dtype=np.uint8)
    lopsided[0] = 1
    with pytest.raises(ShapeError):
        draw_subsets(lopsided, 12, 1, seed=0)  # needs 2 targets, pool has 1


# ------------------------------------------------------------ benchmark

@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    dims = BlockDims(2, 20)
    noise = synth.generate_noise(synth.default_noise_model(dims), 96, dims, seed=7)
    epochs = synth.inject_erp(noise, synth.default_erp_spec(dims), seed=7)
    path = tmp_path_factory.mktemp("ds")
    write_dataset(epochs, path)
    return str(path)


def small_config(dataset_dir, **kwargs):
    defaults = dict(
        dataset_dir=dataset_dir,
        estimators=("slda", "toeplitz"),
        subset_sizes=(6, 12),
        n_draws=2,
        seed=5,
    )
    defaults.update(kwargs)
    return BenchConfig(**defaults)


@pytest.mark.parametrize(
    ("sizes", "stratified"),
    [((0,), True), ((-6,), True), ((6, 5), True), ((1,), False)],
    ids=["zero", "negative", "partial-group", "one-epoch"],
)
def test_config_rejects_sizes_no_draw_can_take(sizes, stratified):
    with pytest.raises(ValueError, match="subset_sizes") as exc:
        BenchConfig(dataset_dir="unused", subset_sizes=sizes, stratified=stratified)
    assert type(exc.value) is ValueError  # a usage error, not a data error


def test_uniform_draws_take_sizes_off_the_group_grid():
    assert BenchConfig(dataset_dir="unused", subset_sizes=(2, 5),
                       stratified=False).subset_sizes == (2, 5)


def test_grid_produces_one_row_per_cell(dataset_dir):
    report = run_benchmark(small_config(dataset_dir))
    assert len(report.rows) == 2 * 1 * 2 * 2
    assert report.n_train == 48 and report.n_val == 48
    expected = [
        (est, "within", size, k)
        for est in ("slda", "toeplitz")
        for size in (6, 12)
        for k in range(2)
    ]
    actual = [(r.estimator, r.cov_mode, r.subset_size, r.draw) for r in report.rows]
    assert actual == expected
    for row in report.rows:
        assert row.status == "ok"
        assert 0.0 <= row.auc <= 1.0
        assert row.n_train == row.subset_size


def test_report_is_byte_identical_across_runs_and_jobs(dataset_dir):
    base = report_csv(run_benchmark(small_config(dataset_dir)))
    again = report_csv(run_benchmark(small_config(dataset_dir)))
    threaded = report_csv(run_benchmark(small_config(dataset_dir, jobs=3)))
    assert base == again == threaded
    assert base.startswith(bench.CSV_HEADER + "\n")
    assert base.count("\n") == 1 + 8


def test_oversized_subset_rows_are_skipped(dataset_dir):
    report = run_benchmark(small_config(dataset_dir, subset_sizes=(6, 96)))
    skipped = [r for r in report.rows if r.subset_size == 96]
    assert skipped and all(r.status == "skipped" for r in skipped)
    assert all(np.isnan(r.auc) and r.n_train == 0 for r in skipped)
    agg = aggregate(report)
    cell = next(c for c in agg["cells"]
                if c["subset_size"] == 96 and c["estimator"] == "slda")
    assert cell["n_skipped"] == 2 and cell["n_ok"] == 0
    assert cell["auc_mean"] is None


def test_singular_fits_are_recorded_not_raised(dataset_dir):
    # gamma=0 leaves the 6-epoch sample covariance rank-deficient in 40
    # dimensions; the cell must fail gracefully.
    report = run_benchmark(
        small_config(dataset_dir, estimators=("slda",), subset_sizes=(6,),
                     gamma=0.0)
    )
    assert all(r.status == "failed" for r in report.rows)
    assert all(np.isnan(r.auc) and r.error for r in report.rows)
    agg = aggregate(report)
    assert agg["cells"][0]["n_failed"] == 2


def test_benchmark_rows_match_manual_pipeline(dataset_dir):
    cfg = small_config(dataset_dir, oracle_means=True)
    report = run_benchmark(cfg)
    from toeplitzlda.dataio import extract_features, read_dataset

    epochs = read_dataset(dataset_dir)
    feats = extract_features(epochs, cfg.feature)
    y = epochs.labels.astype(np.int64)
    train_idx, val_idx = split_train_val(epochs.n_epochs, cfg.seed)
    x_train, y_train = feats.data[:, train_idx], y[train_idx]
    x_val, y_val = feats.data[:, val_idx], y[val_idx]
    oracle = covest.class_means(x_train, y_train)
    idx = draw_subsets(y_train, 12, cfg.n_draws, cfg.seed)[1]
    model = lda.fit(x_train[:, idx], y_train[idx], dims=feats.dims,
                    estimator="toeplitz", mean_override=oracle)
    expect = auc(lda.decision_values(model, x_val), y_val)
    row = next(r for r in report.rows
               if (r.estimator, r.subset_size, r.draw) == ("toeplitz", 12, 1))
    assert row.auc == expect
    assert row.oracle_means is True


def test_more_training_data_helps(dataset_dir):
    report = run_benchmark(
        small_config(dataset_dir, estimators=("toeplitz",),
                     subset_sizes=(6, 48), n_draws=5)
    )
    agg = aggregate(report)
    cells = {c["subset_size"]: c["auc_mean"] for c in agg["cells"]}
    assert cells[48] > cells[6]


def test_aggregate_statistics_and_timing_gate(dataset_dir):
    cfg = small_config(dataset_dir)
    report = run_benchmark(cfg)
    agg = aggregate(report)
    assert agg["n_train"] == 48 and agg["n_val"] == 48
    for cell in agg["cells"]:
        rows = [r for r in report.rows
                if (r.estimator, r.subset_size) == (cell["estimator"],
                                                    cell["subset_size"])]
        assert cell["n_ok"] == 2
        assert cell["auc_mean"] == pytest.approx(np.mean([r.auc for r in rows]))
        assert cell["auc_sd"] == pytest.approx(np.std([r.auc for r in rows], ddof=1))
        assert cell["fit_ms_mean"] is None  # timings are off by default
    timed = aggregate(run_benchmark(small_config(dataset_dir, record_timing=True)))
    assert all(c["fit_ms_mean"] > 0 for c in timed["cells"])


def test_csv_hides_wall_times_unless_requested(dataset_dir):
    plain = report_csv(run_benchmark(small_config(dataset_dir)))
    for line in plain.strip().splitlines()[1:]:
        assert line.split(",")[6] == "na"
    timed = report_csv(run_benchmark(small_config(dataset_dir, record_timing=True)))
    for line in timed.strip().splitlines()[1:]:
        assert float(line.split(",")[6]) > 0


def test_write_report_emits_csv_and_json(dataset_dir, tmp_path):
    report = run_benchmark(small_config(dataset_dir))
    csv_path, json_path = write_report(report, tmp_path / "out")
    assert csv_path.read_text() == report_csv(report)
    payload = json.loads(json_path.read_text())
    assert payload["cells"] == aggregate(report)["cells"]
    assert payload["config"]["seed"] == 5
    # The 1:5 epoch group is fixed by synth.TARGET_RATIO, not configured.
    assert "group_size" not in payload["config"]


def test_config_validates_names(dataset_dir):
    with pytest.raises(ValueError):
        BenchConfig(dataset_dir=dataset_dir, estimators=("nope",))
    with pytest.raises(ValueError):
        BenchConfig(dataset_dir=dataset_dir, cov_modes=("sideways",))


def test_unlabeled_dataset_is_rejected(tmp_path):
    dims = BlockDims(2, 20)
    noise = synth.generate_noise(synth.default_noise_model(dims), 12, dims, seed=0)
    write_dataset(noise, tmp_path)
    with pytest.raises(ShapeError, match="labeled"):
        run_benchmark(BenchConfig(dataset_dir=str(tmp_path)))
