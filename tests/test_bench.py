"""AUC scoring, deterministic splits/draws, and the benchmark grid."""

import itertools
import json

import numpy as np
import pytest

from toeplitzlda import bench, blockmat, btsolve, covest, dataio, lda, synth
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
from toeplitzlda.dataio import write_dataset
from toeplitzlda.errors import DataFormatError, GroupSizeError, ShapeError, SolveError

from conftest import traced_peak, write_contract_breaking_dataset


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


def test_run_checks_the_labels_once_whatever_its_rows(monkeypatch, dataset_dir):
    # read_dataset checks the labels; the rows score through bench._auc on
    # the validation targets taken once, so only the subset draws check
    # labels again, once per size.
    calls = []
    real = bench._check_labels
    monkeypatch.setattr(bench, "_check_labels", lambda *a: calls.append(1) or real(*a))
    for n_draws in (1, 3):
        calls.clear()
        run_benchmark(small_config(dataset_dir, n_draws=n_draws, estimators=ALL_ESTIMATORS))
        assert len(calls) == 2


def test_auc_rejects_bad_inputs():
    with pytest.raises(ValueError):
        auc([1.0, 2.0], [1, 1])  # single class
    with pytest.raises(ValueError):
        auc([np.inf, 2.0], [0, 1])
    with pytest.raises(ValueError):
        auc([1.0, 2.0], [0, 2])
    with pytest.raises(ShapeError):
        auc([1.0, 2.0, 3.0], [0, 1])


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


def test_a_uniform_draw_too_small_for_both_classes_raises():
    with pytest.raises(ShapeError, match="could not draw a two-class subset of size 1"):
        draw_subsets(group_labels(12), 1, 1, 0, stratified=False)


# ------------------------------------------------------------ benchmark

@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    dims = BlockDims(2, 20)
    noise = synth.generate_noise(synth.default_noise_model(dims), 96, dims, seed=7)
    epochs = synth.inject_erp(noise, synth.default_erp_spec(dims), seed=7)
    path = tmp_path_factory.mktemp("ds")
    write_dataset(epochs, path)
    return str(path)


@pytest.mark.parametrize(("n_epochs", "message"), [
    (48, "validation half of seed 7 holds one class"),
    (50, "n_epochs=50 is not a multiple of the group size 6"),
])
def test_a_dataset_that_breaks_the_group_contract_fails_before_any_fit(
    monkeypatch, tmp_path, n_epochs, message
):
    fits = []
    monkeypatch.setattr(lda, "_fitter", lambda *args: fits.append(args))
    path = write_contract_breaking_dataset(tmp_path / "ds", n_epochs)
    cfg = BenchConfig(path, subset_sizes=(6,), n_draws=1, seed=7)
    with pytest.raises(DataFormatError, match=message):
        run_benchmark(cfg)
    assert fits == []


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


def manual_splits(cfg):
    """The training and validation halves of ``cfg``, read independently of the harness."""
    from toeplitzlda.dataio import extract_features, read_dataset

    epochs = read_dataset(cfg.dataset_dir)
    feats = extract_features(epochs, cfg.feature)
    y = epochs.labels.astype(np.int64)
    train_idx, val_idx = split_train_val(epochs.n_epochs, cfg.seed)
    return feats.dims, feats.data[:, train_idx], y[train_idx], feats.data[:, val_idx], y[val_idx]


def lone_fit_auc(cfg, row):
    """AUC of a lone fit of the row's cell, and its well_conditioned flag."""
    dims, x_train, y_train, x_val, y_val = manual_splits(cfg)
    oracle = covest.class_means(x_train, y_train) if cfg.oracle_means else None
    idx = draw_subsets(y_train, row.subset_size, cfg.n_draws, cfg.seed)[row.draw]
    model = lda.fit(x_train[:, idx], y_train[idx], dims=dims, estimator=row.estimator,
                    cov_mode=row.cov_mode, mean_override=oracle, gamma=cfg.gamma)
    return auc(lda.decision_values(model, x_val), y_val), model.well_conditioned


ALL_ESTIMATORS = ("slda", "toeplitz", "toeplitz_a1_only", "toeplitz_a2_only")


def test_benchmark_rows_match_manual_pipeline(dataset_dir):
    # Every row, though the estimators of a draw share their common stages,
    # scores what a lone fit of its cell scores, bit for bit: with the
    # draw's own and with oracle class means, each with gamma fitted and fixed.
    # Size 48 is at least D = 40, where the two dense estimators share the Gram.
    for oracle_means, gamma in itertools.product((False, True), (None, 0.25)):
        cfg = small_config(dataset_dir, estimators=ALL_ESTIMATORS, cov_modes=lda.COV_MODES,
                           subset_sizes=(6, 12, 48), oracle_means=oracle_means, gamma=gamma)
        report = run_benchmark(cfg)
        assert len(report.rows) == 4 * 2 * 3 * 2
        for row in report.rows:
            expect, well_conditioned = lone_fit_auc(cfg, row)
            assert row.status == "ok"
            assert row.auc == expect
            assert row.well_conditioned == well_conditioned
            assert row.oracle_means is oracle_means


def spy_on(monkeypatch, module, name, calls, keep=lambda *args: True):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        if keep(*args):
            calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_estimators_of_a_draw_share_their_common_stages(monkeypatch, dataset_dir):
    # 2 cov modes x 2 sizes x 2 draws: 8 groups of 4 estimators.  The class
    # means, gamma and the lag sums run once per group; the training data,
    # checked when the features were extracted, is not checked again.
    cfg = small_config(dataset_dir, estimators=ALL_ESTIMATORS, cov_modes=lda.COV_MODES)
    assert not covest._fft_pays(2, 20)
    calls = []
    for name in ("_ledoit_wolf", "_lag_sums_direct"):
        spy_on(monkeypatch, covest, name, calls)
    # The class means: the products with a two-row indicator, not the
    # one-row overall mean of a global draw.
    spy_on(monkeypatch, covest, "_class_means", calls,
           lambda x, indicator, shift: indicator.shape[0] == 2)
    # The training data of a cell, not the 48 validation epochs it is scored on.
    training_x = lambda values, shape, name: name == "x" and np.shape(values)[1] in (6, 12)
    for module in (blockmat, covest, btsolve, lda, bench):
        spy_on(monkeypatch, module, "_finite_array", calls, training_x)
    report = run_benchmark(cfg)
    assert all(r.status == "ok" for r in report.rows)
    for name in ("_ledoit_wolf", "_class_means", "_lag_sums_direct"):
        assert calls.count(name) == 8, name
    assert calls.count("_finite_array") == 0


@pytest.mark.parametrize("oracle_means", [False, True])
def test_a_run_checks_its_data_only_at_extraction(monkeypatch, dataset_dir, oracle_means):
    # The data is checked once, when the dataset is read; the all_samples
    # features only move the checked values.  Neither the feature matrix,
    # nor the validation half (scored once per row), nor the training half
    # (the oracle means), nor a training draw (fitted once per group) is
    # read by _finite_array again.
    cfg = small_config(dataset_dir, estimators=ALL_ESTIMATORS, cov_modes=lda.COV_MODES,
                       oracle_means=oracle_means)
    d = manual_splits(cfg)[0].size
    shapes = []
    real = blockmat._finite_array

    def spy(values, shape, name):
        if np.ndim(values) == 3 or (np.ndim(values) == 2 and np.shape(values)[0] == d):
            shapes.append(np.shape(values))
        return real(values, shape, name)

    for module in (blockmat, covest, btsolve, lda, bench, dataio):
        monkeypatch.setattr(module, "_finite_array", spy)
    report = run_benchmark(cfg)
    assert all(r.status == "ok" for r in report.rows)
    assert shapes == [(96, 2, 20)]


def test_dense_estimators_of_a_draw_hold_one_dense_covariance_at_a_time(tmp_path):
    # 8 x 128 features, D = 1024: one D x D float64 matrix is 8 MiB, the 48
    # epochs 0.4 MiB.  slda and toeplitz_a2_only each form their own S from
    # the draw's shared centred data, and each is solved and dropped before
    # the next is formed; two would take 16 MiB.
    dims = BlockDims(8, 128)
    noise = synth.generate_noise(synth.default_noise_model(dims), 48, dims, seed=1, sfreq=256.0)
    write_dataset(synth.inject_erp(noise, synth.default_erp_spec(dims, sfreq=256.0), seed=1),
                  tmp_path)
    cfg = BenchConfig(dataset_dir=str(tmp_path), estimators=("slda", "toeplitz_a2_only"),
                      subset_sizes=(24,), n_draws=1)
    report, peak, _ = traced_peak(lambda: run_benchmark(cfg))
    assert [r.status for r in report.rows] == ["ok", "ok"]
    one = dims.size**2 * 8
    assert peak < 1.5 * one, f"peak {peak / one:.2f} x D x D"


def test_a_failed_estimator_leaves_its_siblings_alone(monkeypatch, dataset_dir):
    cfg = small_config(dataset_dir, estimators=ALL_ESTIMATORS, cov_modes=lda.COV_MODES,
                       record_timing=True)
    clean = run_benchmark(cfg)
    real = btsolve._fit_solve

    def failing(cov, b, maybe_indefinite):
        if maybe_indefinite:  # toeplitz_a1_only
            raise SolveError("injected")
        return real(cov, b, maybe_indefinite)

    monkeypatch.setattr(btsolve, "_fit_solve", failing)
    report = run_benchmark(cfg)
    for row, before in zip(report.rows, clean.rows):
        assert (row.estimator, row.cov_mode, row.subset_size, row.draw) == (
            before.estimator, before.cov_mode, before.subset_size, before.draw)
        if row.estimator == "toeplitz_a1_only":
            assert row.status == "failed" and np.isnan(row.auc)
            assert row.error == "SolveError: injected"
        else:
            assert row.status == "ok" and row.auc == before.auc
            # The shared stages plus the estimator's own estimate and solve.
            assert np.isfinite(row.fit_ms) and row.fit_ms > 0


def test_a_failed_shared_stage_fails_its_group_with_one_message(monkeypatch, dataset_dir):
    cfg = small_config(dataset_dir, estimators=ALL_ESTIMATORS, cov_modes=lda.COV_MODES)
    real = covest._ledoit_wolf

    def failing(centred):
        if centred.x.shape[1] == 12:
            raise DataFormatError("injected")
        return real(centred)

    monkeypatch.setattr(covest, "_ledoit_wolf", failing)
    report = run_benchmark(cfg)
    dims, x_train, y_train, _, _ = manual_splits(cfg)
    idx = draw_subsets(y_train, 12, cfg.n_draws, cfg.seed)[0]
    with pytest.raises(DataFormatError) as lone:
        lda.fit(x_train[:, idx], y_train[idx], dims=dims, estimator="slda")
    for row in report.rows:
        if row.subset_size == 12:
            assert row.status == "failed"
            assert row.error == f"DataFormatError: {lone.value}"
        else:
            assert row.status == "ok"


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
    csv_path, json_path, summary = write_report(report, tmp_path / "out")
    assert csv_path.read_text() == report_csv(report)
    payload = json.loads(json_path.read_text())
    assert payload == json.loads(json.dumps(summary))
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
