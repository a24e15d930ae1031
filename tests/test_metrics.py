"""Metric oracles, aggregation arithmetic, and report rendering."""

import re

import numpy as np
import pytest

from pforge import DataError
from pforge.metrics import (
    Curve,
    MetricsRow,
    PredictionLog,
    aggregate,
    ece_top1,
    format_mean_std,
    macro_f1,
    render_curve_svg,
    render_markdown_table,
    read_metrics_csv,
    render_report,
)


def macro_f1_oracle(probs: np.ndarray, labels: np.ndarray) -> float:
    """Confusion-matrix walk with explicit loops, kept independent of the
    library implementation."""
    n, c = probs.shape
    pred = [int(max(range(c), key=lambda k: probs[i, k])) for i in range(n)]
    f1s = []
    for k in range(c):
        tp = fp = fn = 0
        for i in range(n):
            if pred[i] == k and labels[i] == k:
                tp += 1
            elif pred[i] == k:
                fp += 1
            elif labels[i] == k:
                fn += 1
        if tp + fp == 0 or tp + fn == 0:
            f1s.append(0.0)
            continue
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1s.append(0.0 if precision + recall == 0
                   else 2 * precision * recall / (precision + recall))
    return sum(f1s) / c


def ece_oracle(probs: np.ndarray, labels: np.ndarray, n_bins: int = 10) -> float:
    """Direct per-bin accumulation with (lo, hi] membership tests."""
    n = probs.shape[0]
    conf = [float(max(row)) for row in probs]
    hit = [1.0 if int(np.argmax(probs[i])) == labels[i] else 0.0 for i in range(n)]
    total = 0.0
    for b in range(n_bins):
        lo, hi = b / n_bins, (b + 1) / n_bins
        members = [i for i in range(n)
                   if (conf[i] > lo and conf[i] <= hi) or (b == 0 and conf[i] <= lo)]
        if not members:
            continue
        acc = sum(hit[i] for i in members) / len(members)
        avg = sum(conf[i] for i in members) / len(members)
        total += len(members) / n * abs(acc - avg)
    return total


def random_log(gen: np.random.Generator, n: int, c: int) -> PredictionLog:
    raw = gen.random((n, c)) + 1e-6
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = gen.integers(0, c, size=n)
    return PredictionLog(probs=probs, labels=labels)


class TestPredictionLog:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sums to"):
            PredictionLog(probs=np.array([[0.6, 0.6]]), labels=np.array([0]))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            PredictionLog(probs=np.array([[1.2, -0.2]]), labels=np.array([0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected_by_index(self, bad):
        probs = np.array([[0.5, 0.5], [bad, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="row 1 is not finite"):
            PredictionLog(probs=probs, labels=np.array([0, 1, 0]))

    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="label"):
            PredictionLog(probs=np.array([[0.5, 0.5]]), labels=np.array([2]))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            PredictionLog(probs=np.array([[1.0]]), labels=np.array([0]))

    # np.asarray(..., dtype=np.int64) would score these as [1, 0]
    @pytest.mark.parametrize("labels, dtype", [([1.7, 0.2], "float64"),
                                               (np.array([1.0, 0.0], np.float32), "float32"),
                                               ([True, False], "bool")])
    def test_non_integer_labels_rejected_naming_the_dtype(self, labels, dtype):
        with pytest.raises(ValueError, match=f"labels must be integer class ids, got dtype "
                                             f"{dtype}$"):
            PredictionLog(probs=np.array([[0.5, 0.5], [0.5, 0.5]]), labels=labels)

    def test_empty_log_accepted(self):
        log = PredictionLog(probs=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64))
        assert len(log) == 0 and log.labels.dtype == np.int64


class TestMacroF1:
    def test_all_correct_is_one(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
        log = PredictionLog(probs=probs, labels=np.array([0, 1, 0]))
        assert macro_f1(log) == 1.0

    def test_degenerate_single_class_predictions(self):
        # all predictions class 0, labels half and half: 2/3 and 0 -> 1/3
        probs = np.array([[0.9, 0.1]] * 4)
        log = PredictionLog(probs=probs, labels=np.array([0, 0, 1, 1]))
        assert macro_f1(log) == pytest.approx(1 / 3, abs=1e-12)

    def test_absent_class_counts_as_zero(self):
        # class 2 never predicted nor labeled still divides the mean
        probs = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]])
        log = PredictionLog(probs=probs, labels=np.array([0, 1]))
        assert macro_f1(log) == pytest.approx(2 / 3, abs=1e-12)

    def test_chance_level_near_one_over_c(self):
        # random argmax against balanced labels concentrates near 1/C
        gen = np.random.default_rng(0)
        c, n = 4, 4000
        log = random_log(gen, n, c)
        log.labels = np.tile(np.arange(c), n // c)
        assert abs(macro_f1(log) - 1 / c) < 0.05

    def test_empty_log_rejected(self):
        log = PredictionLog(probs=np.zeros((0, 3)), labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            macro_f1(log)

    def test_order_invariance(self):
        gen = np.random.default_rng(1)
        log = random_log(gen, 50, 5)
        perm = gen.permutation(50)
        shuffled = PredictionLog(probs=log.probs[perm], labels=log.labels[perm])
        assert macro_f1(log) == pytest.approx(macro_f1(shuffled), abs=1e-15)


class TestEceTop1:
    def test_perfect_confident_predictions_zero(self):
        eps = 0.0
        probs = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
        log = PredictionLog(probs=probs, labels=np.array([0, 1]))
        assert ece_top1(log) == 0.0

    def test_worked_example(self):
        # confidences .9/.8/.6/.55 and correctness 1/0/1/0:
        # bin (0.8,0.9]: |1 - 0.9| * 1/4   = 0.025
        # bin (0.7,0.8]: |0 - 0.8| * 1/4   = 0.2
        # bin (0.5,0.6]: |0.5 - 0.575| * 2/4 = 0.0375  -> total 0.2625
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.6, 0.4], [0.55, 0.45]])
        labels = np.array([0, 1, 0, 1])
        log = PredictionLog(probs=probs, labels=labels)
        assert ece_top1(log) == pytest.approx(0.2625, abs=1e-12)
        assert ece_oracle(probs, labels) == pytest.approx(0.2625, abs=1e-12)

    def test_boundary_confidence_goes_to_left_closed_bin(self):
        # confidence exactly 0.8 belongs to (0.7, 0.8]
        probs = np.array([[0.8, 0.2]])
        log = PredictionLog(probs=probs, labels=np.array([0]))
        # single member bin: |1 - 0.8| = 0.2
        assert ece_top1(log) == pytest.approx(0.2, abs=1e-12)

    def test_order_invariance(self):
        gen = np.random.default_rng(2)
        log = random_log(gen, 80, 4)
        perm = gen.permutation(80)
        shuffled = PredictionLog(probs=log.probs[perm], labels=log.labels[perm])
        assert ece_top1(log) == pytest.approx(ece_top1(shuffled), abs=1e-15)

    def test_empty_log_rejected(self):
        log = PredictionLog(probs=np.zeros((0, 3)), labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            ece_top1(log)


class TestAgainstOracles:
    def test_both_metrics_match_oracles_on_many_random_logs(self):
        gen = np.random.default_rng(12345)
        for _ in range(200):
            n = int(gen.integers(1, 201))
            c = int(gen.integers(2, 17))
            log = random_log(gen, n, c)
            assert macro_f1(log) == pytest.approx(
                macro_f1_oracle(log.probs, log.labels), abs=1e-12)
            assert ece_top1(log) == pytest.approx(
                ece_oracle(log.probs, log.labels), abs=1e-12)

    def test_metrics_stay_in_unit_interval(self):
        gen = np.random.default_rng(9)
        for _ in range(50):
            log = random_log(gen, int(gen.integers(1, 100)), int(gen.integers(2, 9)))
            assert 0.0 <= macro_f1(log) <= 1.0
            assert 0.0 <= ece_top1(log) <= 1.0

    def test_sharpening_preserves_f1_but_moves_ece(self):
        gen = np.random.default_rng(3)
        log = random_log(gen, 120, 4)
        sharp = log.probs ** 2
        sharp /= sharp.sum(axis=1, keepdims=True)
        sharp_log = PredictionLog(probs=sharp, labels=log.labels)
        assert macro_f1(log) == pytest.approx(macro_f1(sharp_log), abs=1e-12)
        assert abs(ece_top1(log) - ece_top1(sharp_log)) > 1e-6


class TestAggregate:
    def test_hand_example_five_runs(self):
        mean, std = aggregate([60, 62, 64, 66, 68])
        assert mean == 64.0
        assert std == pytest.approx(2.8284271247461903, abs=1e-12)

    def test_hand_example_one_to_five(self):
        mean, std = aggregate([1, 2, 3, 4, 5])
        assert mean == 3.0
        assert std == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_single_value_std_zero(self):
        assert aggregate([7.5]) == (7.5, 0.0)

    def test_constant_list_std_zero(self):
        assert aggregate([2.0, 2.0, 2.0])[1] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nothing"):
            aggregate([])

    def test_subscript_rendering(self):
        assert format_mean_std(64.0, 2.83) == "64.0₍2.8₎"
        assert format_mean_std(64.0, 2.83) == "64.0₍2.8₎"


def runs(method, size, *f1s, dataset="synthetic", **extra):
    """One row per seed, seeds 0, 1, ... in order."""
    return [MetricsRow(method=method, dataset=dataset, fewshot_size=size, seed=seed,
                       macro_f1=f1, **extra) for seed, f1 in enumerate(f1s)]


class TestRendering:
    def test_single_cell_table_uses_subscript_format(self, tmp_path):
        md = render_markdown_table(runs("pt2", 32, 0.60, 0.62, 0.64, 0.66, 0.68), "synthetic")
        assert "64.0₍2.8₎" in md

    def test_two_seeds_aggregate_to_mean_and_population_std(self):
        md = render_markdown_table(runs("pt2", 32, 0.612, 0.668), "synthetic")
        assert "| pt2 | **64.0₍2.8₎** |" in md

    def test_best_bold_second_underlined(self):
        rows = (runs("ft", 32, 0.39, 0.41) + runs("pt2", 32, 0.49, 0.51)
                + runs("prefix-domain-adapt", 32, 0.59, 0.61))
        md = render_markdown_table(rows, "synthetic")
        assert "**60.0₍1.0₎**" in md
        assert "<u>50.0₍1.0₎</u>" in md
        assert "**40" not in md and "<u>40" not in md

    def test_tie_for_best_marks_both_no_second(self):
        # 0.59/0.61 and 0.58/0.62 have the same float mean, 0.6
        assert aggregate([0.59, 0.61])[0] == aggregate([0.58, 0.62])[0]
        rows = (runs("ft", 32, 0.59, 0.61) + runs("pt2", 32, 0.58, 0.62)
                + runs("prefix-adapt", 32, 0.49, 0.51))
        md = render_markdown_table(rows, "synthetic")
        assert md.count("**60.0") == 2
        assert "<u>" not in md

    def test_failed_cell_carries_provenance(self):
        rows = runs("ft", 32, 0.59, 0.61) + [
            MetricsRow(method="pt2", dataset="synthetic", fewshot_size=32, seed=0,
                       failure="diverged at lr=0.05")]
        md = render_markdown_table(rows, "synthetic")
        assert "failed: diverged at lr=0.05" in md

    def test_failed_seed_fails_its_cell(self):
        rows = runs("ft", 32, 0.59, 0.61) + [
            MetricsRow(method="pt2", dataset="synthetic", fewshot_size=32, seed=0,
                       macro_f1=0.9),
            MetricsRow(method="pt2", dataset="synthetic", fewshot_size=32, seed=1,
                       failure="non-finite loss at step 3"),
            MetricsRow(method="pt2", dataset="synthetic", fewshot_size=32, seed=2,
                       failure="diverged")]
        md = render_markdown_table(rows, "synthetic")
        assert "| pt2 | failed: non-finite loss at step 3 |" in md
        # the failed cell's surviving seed takes no part in the marking
        assert "| ft | **60.0₍1.0₎** |" in md

    def test_duplicate_run_refused(self, tmp_path):
        rows = [MetricsRow(method="ft", dataset="synthetic", fewshot_size=32, seed=1,
                           lr=lr, macro_f1=0.5) for lr in (1e-3, 1e-4)]
        key = re.escape("('ft', 'synthetic', 32, 1)")
        with pytest.raises(ValueError, match=f"duplicate run .*{key}"):
            render_markdown_table(rows, "synthetic")
        with pytest.raises(ValueError, match=f"duplicate run .*{key}"):
            render_report(rows, tmp_path)
        assert not (tmp_path / "metrics.csv").exists()

    def test_curve_set_without_points_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="no points to plot"):
            render_report(runs("ft", 32, 0.5), tmp_path / "out", {"loss": []})
        assert not (tmp_path / "out").exists()

    def test_report_writes_md_and_csv(self, tmp_path):
        rows = [MetricsRow(method="pt2", dataset="synthetic", fewshot_size=32,
                           seed=10, lr=0.02, macro_f1=0.61, ece=0.12)]
        report = render_report(rows, tmp_path)
        assert report.read_text().startswith("# Results")
        assert (tmp_path / "metrics.csv").exists()
        assert not (tmp_path / "calibration.csv").exists()

    def test_calibration_section_from_row_ece(self, tmp_path):
        rows = [MetricsRow(method="pt2", dataset="synthetic", fewshot_size=32, seed=seed,
                           macro_f1=0.5, ece=ece) for seed, ece in enumerate((0.10, 0.14))]
        rows += runs("ft", 32, 0.5, 0.6, dataset="echr")
        text = render_report(rows, tmp_path).read_text()
        assert "## Calibration" in text
        assert "| pt2 | synthetic | 32 | 12.0₍2.0₎ |" in text
        # a cell whose runs carry no ECE is not listed
        assert "| ft | echr |" not in text

    def test_no_ece_no_calibration_section(self, tmp_path):
        text = render_report(runs("pt2", 32, 0.5, 0.6), tmp_path).read_text()
        assert "## Calibration" not in text

    def test_empty_curves_omit_section(self, tmp_path):
        report = render_report(runs("pt2", 32, 0.5), tmp_path, curves={})
        assert "## Curves" not in report.read_text()

    def test_curves_rendered_and_linked(self, tmp_path):
        curves = {"convergence": [Curve("pt2", [0, 10, 20], [0.2, 0.4, 0.5])]}
        report = render_report(runs("pt2", 32, 0.5), tmp_path, curves=curves)
        text = report.read_text()
        assert "![convergence](<curves/convergence.svg>)" in text
        svg = (tmp_path / "curves" / "convergence.svg").read_text()
        assert "<polyline" in svg and "step" in svg

    def test_curve_set_named_metrics_keeps_the_table(self, tmp_path):
        rows = runs("pt2", 32, 0.5, 0.6)
        render_report(rows, tmp_path, {"metrics": [Curve("loss", [0, 1], [2, 1])]})
        assert read_metrics_csv(tmp_path / "metrics.csv") == rows
        assert (tmp_path / "curves" / "metrics.csv").read_text().startswith("series,step,value")

    @pytest.mark.parametrize("name", ["../escape", "a/b", "/abs", "..", ".", "", "a\0b"])
    def test_curve_set_name_not_one_component_refused(self, tmp_path, name):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"curve set name {re.escape(repr(name))} is not"):
            render_report(runs("pt2", 32, 0.5), out, {name: [Curve("loss", [0, 1], [2, 1])]})
        assert list(tmp_path.iterdir()) == []

    def test_curve_set_name_with_spaces_linked_in_angle_brackets(self, tmp_path):
        curves = {"dev loss (ft)": [Curve("ft", [0, 1], [2, 1])]}
        report = render_report(runs("pt2", 32, 0.5), tmp_path, curves=curves)
        assert "![dev loss (ft)](<curves/dev loss (ft).svg>)" in report.read_text()
        assert (tmp_path / "curves" / "dev loss (ft).svg").is_file()

    @pytest.mark.parametrize("name", ["a<b", "a>b", "a\nb", "a\rb", "a[b", "a]b", "a\\b"])
    def test_curve_set_name_not_a_link_destination_refused(self, tmp_path, name):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"curve set name {re.escape(repr(name))} cannot"):
            render_report(runs("pt2", 32, 0.5), out, {name: [Curve("loss", [0, 1], [2, 1])]})
        assert list(tmp_path.iterdir()) == []

    def test_report_bytes_deterministic(self, tmp_path):
        rows = runs("pt2", 32, 0.59, 0.63) + runs("ft", 32, 0.54, 0.56)
        curves = {"c": [Curve("pt2", [0.0, 1.0], [0.1, 0.2])]}
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        render_report(rows, a_dir, curves=curves)
        render_report(rows, b_dir, curves=curves)
        for name in ("report.md", "metrics.csv", "curves/c.svg", "curves/c.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_report_regenerates_from_metrics_csv(self, tmp_path):
        rows = [
            *runs("ft", 8, 0.41, 0.47, 0.4, lr=5e-4, ece=0.2, steps_to_threshold=30),
            *runs("pt2", 8, 0.3, 1 / 3, 0.35, lr=1e-2, ece=0.15),
            MetricsRow(method="prefix-domain-adapt", dataset="synthetic", fewshot_size=8,
                       seed=0, lr=1e-2, macro_f1=0.5, checkpoint_path="runs/pda, seed 0.npz"),
            MetricsRow(method="prefix-domain-adapt", dataset="synthetic", fewshot_size=8,
                       seed=1, lr=1e-2, failure='diverged: "loss" = nan'),
            *runs("ft", 16, 0.55, 0.61, dataset="echr", ece=0.05),
        ]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        render_report(rows, a_dir)
        assert read_metrics_csv(a_dir / "metrics.csv") == rows
        render_report(read_metrics_csv(a_dir / "metrics.csv"), b_dir)
        for name in ("report.md", "metrics.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
        text = (a_dir / "report.md").read_text()
        assert "## Calibration" in text and "failed: diverged" in text
        assert sorted(p.name for p in b_dir.iterdir()) == ["metrics.csv", "report.md"]

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            render_report([], tmp_path)


class TestMetricsRow:
    @pytest.mark.parametrize("field, value", [
        ("method", ""), ("method", None), ("method", 3), ("dataset", ""),
        ("dataset", None), ("fewshot_size", "8"), ("fewshot_size", 8.0),
        ("fewshot_size", True), ("fewshot_size", None), ("macro_f1", 1.5),
        ("macro_f1", -0.01), ("macro_f1", float("nan")), ("macro_f1", "0.5"),
        ("macro_f1", True), ("ece", float("nan")), ("ece", 2.0), ("ece", "0.1"),
        ("ece", False), ("seed", 1.5), ("seed", True), ("seed", "1"),
        ("steps_to_threshold", 2.5), ("steps_to_threshold", False), ("lr", -1.0),
        ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")), ("lr", True),
        ("lr", "0.1"), ("failure", ""), ("failure", 3), ("checkpoint_path", ""),
        ("checkpoint_path", b"x.ckpt")])
    def test_bad_field_rejected(self, field, value):
        kwargs = dict(method="ft", dataset="synthetic", fewshot_size=8)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must"):
            MetricsRow(**kwargs)

    def test_unit_interval_ends_accepted(self):
        row = MetricsRow(method="ft", dataset="synthetic", fewshot_size=8,
                         macro_f1=0.0, ece=1.0)
        assert (row.macro_f1, row.ece) == (0.0, 1.0)


def metrics_csv(out_dir, rows):
    """The metrics.csv that render_report writes for rows."""
    render_report(rows, out_dir)
    return out_dir / "metrics.csv"


class TestMetricsTableCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            MetricsRow(method="ft", dataset="synthetic", fewshot_size=32, seed=10,
                       lr=5e-4, macro_f1=0.5523, ece=0.081,
                       steps_to_threshold=40, checkpoint_path="x.ckpt"),
            MetricsRow(method="ft", dataset="synthetic", fewshot_size=32, seed=11,
                       lr=5e-4, macro_f1=0.5477, ece=0.09),
            MetricsRow(method="pt2", dataset="synthetic", fewshot_size=64, seed=20,
                       failure="diverged"),
            # newline translation on read would turn these into "\n"
            MetricsRow(method="pt2", dataset="synthetic", fewshot_size=64, seed=21,
                       failure="diverged:\r\nstep 3\rloss nan"),
        ]
        assert read_metrics_csv(metrics_csv(tmp_path, rows)) == rows

    def test_numpy_floats_written_as_plain_floats(self, tmp_path):
        path = metrics_csv(tmp_path, [MetricsRow(method="ft", dataset="synthetic",
                                                 fewshot_size=8, lr=np.float32(0.5),
                                                 macro_f1=np.float64(0.25))])
        assert "np." not in path.read_text()
        (row,) = read_metrics_csv(path)
        assert (row.lr, row.macro_f1) == (0.5, 0.25)

    def test_non_utf8_file_names_path(self, tmp_path):
        path = metrics_csv(tmp_path, [MetricsRow(method="ft", dataset="synthetic",
                                                 fewshot_size=8)])
        path.write_bytes(path.read_bytes().replace(b"synthetic", b"caf\xe9"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8")):
            read_metrics_csv(path)

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(DataError, match=re.escape(f"cannot read {path}: ")):
            read_metrics_csv(path)

    @pytest.mark.parametrize("edit", [lambda cells: cells[:-1], lambda cells: cells + ["x"]],
                             ids=["short", "long"])
    def test_row_of_wrong_length_names_path_and_line(self, tmp_path, edit):
        path = metrics_csv(tmp_path, [MetricsRow(method="ft", dataset="synthetic",
                                                 fewshot_size=8, failure="diverged")])
        header, row = path.read_text().splitlines()
        path.write_text(header + "\n" + ",".join(edit(row.split(","))) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: cell count differs")):
            read_metrics_csv(path)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("method,dataset\nft,s\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_metrics_csv(path)

    @staticmethod
    def _write_with_bad_cell(out_dir, column, value):
        rows = [MetricsRow(method="ft", dataset="synthetic", fewshot_size=32, seed=s, lr=5e-4)
                for s in (10, 20)]
        path = metrics_csv(out_dir, rows)
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        cells[header.split(",").index(column)] = value
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        return path

    @pytest.mark.parametrize("column, value", [("fewshot_size", "eight"),
                                               ("seed", "1.5"), ("lr", "fast")])
    def test_bad_cell_names_path_line_and_column(self, tmp_path, column, value):
        path = self._write_with_bad_cell(tmp_path, column, value)
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: column {column!r}")):
            read_metrics_csv(path)

    @pytest.mark.parametrize("column", ["method", "dataset", "fewshot_size"])
    def test_empty_required_cell_names_path_line_and_column(self, tmp_path, column):
        path = self._write_with_bad_cell(tmp_path, column, "")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ") + f".*{column}"):
            read_metrics_csv(path)

    @pytest.mark.parametrize("column, value", [("macro_f1", "nan"), ("ece", "1.5")])
    def test_out_of_range_cell_names_path_and_line(self, tmp_path, column, value):
        path = self._write_with_bad_cell(tmp_path, column, value)
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {column} must lie")):
            read_metrics_csv(path)


class TestCurves:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            Curve("x", [1, 2], [0.1])

    def test_curve_csv_contents(self, tmp_path):
        render_report(runs("pt2", 32, 0.5), tmp_path, {"c": [Curve("a", [0, 5], [0.25, 0.5])]})
        lines = (tmp_path / "curves" / "c.csv").read_text().splitlines()
        assert lines[0] == "series,step,value"
        assert lines[1] == "a,0.0,0.25"

    def test_svg_no_points_rejected(self):
        with pytest.raises(ValueError, match="points"):
            render_curve_svg([Curve("a", [], [])], "t")

    def test_svg_escapes_markup(self):
        svg = render_curve_svg([Curve("a<b", [0, 1], [0, 1])], "t&u")
        assert "a&lt;b" in svg and "t&amp;u" in svg
