"""Metric oracles, aggregation arithmetic, and report rendering."""

import re

import numpy as np
import pytest

from pforge.metrics import (
    Curve,
    MetricsRow,
    MetricsTable,
    PredictionLog,
    aggregate,
    ece_top1,
    format_mean_std,
    macro_f1,
    render_curve_svg,
    render_markdown_table,
    render_report,
    write_curve_csv,
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

    def test_ids_length_checked(self):
        with pytest.raises(ValueError, match="ids length"):
            PredictionLog(probs=np.array([[0.5, 0.5]]), labels=np.array([0]),
                          ids=["a", "b"])


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
        assert ece_top1(log, n_bins=10) == pytest.approx(0.2625, abs=1e-12)
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

    def test_bad_bin_count_rejected(self):
        log = random_log(np.random.default_rng(0), 4, 2)
        with pytest.raises(ValueError, match="n_bins"):
            ece_top1(log, n_bins=0)


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


def agg_row(method, size, mean, std, dataset="synthetic"):
    return MetricsRow(method=method, dataset=dataset, fewshot_size=size,
                      macro_f1=mean, std_macro_f1=std, is_aggregate=True)


class TestRendering:
    def test_single_cell_table_uses_subscript_format(self, tmp_path):
        table = MetricsTable([agg_row("pt2", 32, 0.64, 0.028)])
        md = render_markdown_table(table, "synthetic")
        assert "64.0₍2.8₎" in md

    def test_best_bold_second_underlined(self):
        table = MetricsTable([
            agg_row("ft", 32, 0.40, 0.01),
            agg_row("pt2", 32, 0.50, 0.01),
            agg_row("prefix-domain-adapt", 32, 0.60, 0.01),
        ])
        md = render_markdown_table(table, "synthetic")
        assert "**60.0₍1.0₎**" in md
        assert "<u>50.0₍1.0₎</u>" in md
        assert "**40" not in md and "<u>40" not in md

    def test_tie_for_best_marks_both_no_second(self):
        table = MetricsTable([
            agg_row("ft", 32, 0.60, 0.01),
            agg_row("pt2", 32, 0.60, 0.02),
            agg_row("prefix-adapt", 32, 0.50, 0.01),
        ])
        md = render_markdown_table(table, "synthetic")
        assert md.count("**60.0") == 2
        assert "<u>" not in md

    def test_failed_cell_carries_provenance(self):
        table = MetricsTable([
            agg_row("ft", 32, 0.60, 0.01),
            MetricsRow(method="pt2", dataset="synthetic", fewshot_size=32,
                       is_aggregate=True, failure="diverged at lr=0.05"),
        ])
        md = render_markdown_table(table, "synthetic")
        assert "failed: diverged at lr=0.05" in md

    def test_report_writes_md_and_csv(self, tmp_path):
        table = MetricsTable([
            MetricsRow(method="pt2", dataset="synthetic", fewshot_size=32,
                       seed=10, lr=0.02, macro_f1=0.61, ece=0.12),
            agg_row("pt2", 32, 0.61, 0.0),
        ])
        report = render_report(table, tmp_path)
        assert report.read_text().startswith("# Results")
        assert (tmp_path / "metrics.csv").exists()

    def test_empty_curves_omit_section(self, tmp_path):
        table = MetricsTable([agg_row("pt2", 32, 0.5, 0.0)])
        report = render_report(table, tmp_path, curves={})
        assert "## Curves" not in report.read_text()

    def test_curves_rendered_and_linked(self, tmp_path):
        table = MetricsTable([agg_row("pt2", 32, 0.5, 0.0)])
        curves = {"convergence": [Curve("pt2", [0, 10, 20], [0.2, 0.4, 0.5])]}
        report = render_report(table, tmp_path, curves=curves)
        text = report.read_text()
        assert "![convergence](convergence.svg)" in text
        svg = (tmp_path / "convergence.svg").read_text()
        assert "<polyline" in svg and "step" in svg

    def test_report_bytes_deterministic(self, tmp_path):
        table = MetricsTable([
            agg_row("pt2", 32, 0.61, 0.02),
            agg_row("ft", 32, 0.55, 0.01),
        ])
        curves = {"c": [Curve("pt2", [0.0, 1.0], [0.1, 0.2])]}
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        render_report(table, a_dir, curves=curves)
        render_report(table, b_dir, curves=curves)
        for name in ("report.md", "metrics.csv", "c.svg", "c.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            render_report(MetricsTable(), tmp_path)


class TestMetricsTableCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            MetricsRow(method="ft", dataset="synthetic", fewshot_size=32, seed=10,
                       lr=5e-4, macro_f1=0.5523, ece=0.081,
                       steps_to_threshold=40, checkpoint_path="x.ckpt"),
            MetricsRow(method="ft", dataset="synthetic", fewshot_size=32,
                       is_aggregate=True, macro_f1=0.55, std_macro_f1=0.012),
            MetricsRow(method="pt2", dataset="synthetic", fewshot_size=64, seed=20,
                       failure="diverged"),
        ]
        path = tmp_path / "m.csv"
        MetricsTable(rows).to_csv(path)
        loaded = MetricsTable.from_csv(path)
        assert loaded.rows == rows

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("method,dataset\nft,s\n")
        with pytest.raises(ValueError, match="missing columns"):
            MetricsTable.from_csv(path)

    @pytest.mark.parametrize("column, value", [("fewshot_size", "eight"),
                                               ("is_aggregate", "yes"), ("lr", "fast")])
    def test_bad_cell_names_path_line_and_column(self, tmp_path, column, value):
        path = tmp_path / "m.csv"
        rows = [MetricsRow(method="ft", dataset="synthetic", fewshot_size=32, seed=s, lr=5e-4)
                for s in (10, 20)]
        MetricsTable(rows).to_csv(path)
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        cells[header.split(",").index(column)] = value
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: column {column!r}")):
            MetricsTable.from_csv(path)


class TestCurves:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            Curve("x", [1, 2], [0.1])

    def test_curve_csv_contents(self, tmp_path):
        path = tmp_path / "c.csv"
        write_curve_csv(path, [Curve("a", [0, 5], [0.25, 0.5])], value_name="f1")
        lines = path.read_text().splitlines()
        assert lines[0] == "series,step,f1"
        assert lines[1] == "a,0.0,0.25"

    def test_svg_no_points_rejected(self):
        with pytest.raises(ValueError, match="points"):
            render_curve_svg([Curve("a", [], [])], "t")

    def test_svg_escapes_markup(self):
        svg = render_curve_svg([Curve("a<b", [0, 1], [0, 1])], "t&u")
        assert "a&lt;b" in svg and "t&amp;u" in svg
