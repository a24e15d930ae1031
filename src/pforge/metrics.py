"""Macro F1, top-1 calibration error, seed aggregation, and report emission.

Metric conventions, chosen so tables are byte-reproducible:

- macro F1 averages over every class of the task, including classes absent
  from both predictions and labels; 0/0 precision-recall cases count as 0.
- ECE uses 10 equal-width right-inclusive confidence bins over (0, 1].
- Aggregation over seeds uses the population standard deviation (the seeds
  are the whole population of reported runs) rendered as "64.0₍2.8₎".
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


@dataclass
class PredictionLog:
    """Per-example probability vectors with true labels."""

    probs: np.ndarray          # (N, C) rows sum to 1
    labels: np.ndarray         # (N,) int in [0, C)
    ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.probs.ndim != 2:
            raise ValueError(f"probs must be (N, C), got shape {self.probs.shape}")
        n, c = self.probs.shape
        if c < 2:
            raise ValueError("need at least 2 classes")
        if self.labels.shape != (n,):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {n} examples"
            )
        if self.ids and len(self.ids) != n:
            raise ValueError(f"ids length {len(self.ids)} does not match {n} examples")
        if n:
            bad = np.flatnonzero(~np.isfinite(self.probs).all(axis=1))
            if bad.size:
                raise ValueError(f"probability row {bad[0]} is not finite")
            if self.probs.min() < 0:
                raise ValueError("negative probability")
            sums = self.probs.sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-6:
                worst = int(np.abs(sums - 1.0).argmax())
                raise ValueError(
                    f"probability row {worst} sums to {sums[worst]:.8f}, not 1"
                )
            if self.labels.min() < 0 or self.labels.max() >= c:
                raise ValueError(f"label outside [0, {c})")

    def __len__(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]

    def predictions(self) -> np.ndarray:
        """Argmax class per example (first max wins on exact ties)."""
        return self.probs.argmax(axis=1)


def macro_f1(log: PredictionLog) -> float:
    """Unweighted mean of per-class F1 over all C classes."""
    if len(log) == 0:
        raise ValueError("empty prediction log")
    pred = log.predictions()
    true = log.labels
    c = log.num_classes
    total = 0.0
    for k in range(c):
        tp = int(np.sum((pred == k) & (true == k)))
        fp = int(np.sum((pred == k) & (true != k)))
        fn = int(np.sum((pred != k) & (true == k)))
        denom = 2 * tp + fp + fn
        total += (2 * tp / denom) if denom else 0.0
    return total / c


def ece_top1(log: PredictionLog, n_bins: int = 10) -> float:
    """Expected calibration error of the top-1 prediction.

    Confidence is the max probability; bins partition (0, 1] into n_bins
    equal widths, right-inclusive, so a confidence of exactly 0.8 falls in
    (0.7, 0.8]. Empty bins contribute nothing.
    """
    if len(log) == 0:
        raise ValueError("empty prediction log")
    if n_bins < 1:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    conf = log.probs.max(axis=1)
    correct = (log.predictions() == log.labels).astype(np.float64)
    idx = np.clip(np.ceil(conf * n_bins).astype(int) - 1, 0, n_bins - 1)
    n = len(log)
    total = 0.0
    for b in range(n_bins):
        members = idx == b
        m = int(members.sum())
        if m == 0:
            continue
        acc = float(correct[members].mean())
        avg_conf = float(conf[members].mean())
        total += (m / n) * abs(acc - avg_conf)
    return total


def aggregate(values: Sequence[float]) -> tuple[float, float]:
    """(mean, population standard deviation) of per-seed values."""
    if len(values) == 0:
        raise ValueError("nothing to aggregate")
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=0))


def format_mean_std(mean: float, std: float, decimals: int = 1) -> str:
    """Subscripted std convention, e.g. 64.0₍2.8₎."""
    return f"{mean:.{decimals}f}₍{std:.{decimals}f}₎"


# ---------------------------------------------------------------------------
# results table
# ---------------------------------------------------------------------------


@dataclass
class MetricsRow:
    """One protocol cell, or one aggregate over seeds (is_aggregate set)."""

    method: str
    dataset: str
    fewshot_size: int
    seed: int | None = None
    lr: float | None = None
    macro_f1: float | None = None
    ece: float | None = None
    steps_to_threshold: int | None = None
    checkpoint_path: str | None = None
    is_aggregate: bool = False
    std_macro_f1: float | None = None
    std_ece: float | None = None
    failure: str | None = None


_CSV_COLUMNS = [f.name for f in fields(MetricsRow)]


class MetricsTable:
    def __init__(self, rows: Iterable[MetricsRow] = ()):
        self.rows: list[MetricsRow] = list(rows)

    def append(self, row: MetricsRow) -> None:
        self.rows.append(row)

    def extend(self, rows: Iterable[MetricsRow]) -> None:
        self.rows.extend(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def aggregates(self) -> list[MetricsRow]:
        return [r for r in self.rows if r.is_aggregate]

    def to_csv(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            record = {}
            for col in _CSV_COLUMNS:
                value = getattr(row, col)
                if value is None:
                    record[col] = ""
                elif isinstance(value, bool):
                    record[col] = "1" if value else "0"
                elif isinstance(value, float):
                    record[col] = repr(value)
                else:
                    record[col] = str(value)
            writer.writerow(record)
        path.write_text(buf.getvalue(), encoding="utf-8")

    @classmethod
    def from_csv(cls, path: str | Path) -> "MetricsTable":
        table = cls()
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = set(_CSV_COLUMNS) - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"{path}: missing columns {sorted(missing)}")
            for rec in reader:
                kwargs = {}
                for f in fields(MetricsRow):
                    raw = rec[f.name]
                    if raw == "":
                        kwargs[f.name] = None if f.name != "is_aggregate" else False
                        continue
                    try:
                        if f.name == "is_aggregate":
                            if raw not in ("0", "1"):
                                raise ValueError(f"expected 0 or 1, got {raw!r}")
                            kwargs[f.name] = raw == "1"
                        elif f.name in ("fewshot_size", "seed", "steps_to_threshold"):
                            kwargs[f.name] = int(raw)
                        elif f.name in ("lr", "macro_f1", "ece", "std_macro_f1", "std_ece"):
                            kwargs[f.name] = float(raw)
                        else:
                            kwargs[f.name] = raw
                    except ValueError as exc:
                        raise ValueError(f"{path}:{reader.line_num}: column {f.name!r}: "
                                         f"{exc}") from exc
                table.append(MetricsRow(**kwargs))
        return table


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


@dataclass
class Curve:
    """One named series for a step-indexed plot."""

    name: str
    steps: list[float]
    values: list[float]

    def __post_init__(self):
        if len(self.steps) != len(self.values):
            raise ValueError("steps and values lengths differ")


def write_curve_csv(path: str | Path, curves: Sequence[Curve],
                    value_name: str = "value") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "step", value_name])
    for curve in curves:
        for s, v in zip(curve.steps, curve.values):
            writer.writerow([curve.name, repr(float(s)), repr(float(v))])
    path.write_text(buf.getvalue(), encoding="utf-8")


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def render_curve_svg(curves: Sequence[Curve], title: str,
                     xlabel: str = "step", ylabel: str = "value") -> str:
    """Minimal deterministic polyline plot; CSV remains the authoritative data."""
    width, height = 640, 400
    ml, mr, mt, mb = 60, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    xs = [s for c in curves for s in c.steps]
    ys = [v for c in curves for v in c.values]
    if not xs:
        raise ValueError("no points to plot")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x: float) -> float:
        return ml + pw * (x - x0) / (x1 - x0)

    def py(y: float) -> float:
        return mt + ph * (1.0 - (y - y0) / (y1 - y0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="16">{_esc(title)}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
        f'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-size="12">{_esc(xlabel)}</text>',
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{_esc(ylabel)}</text>',
        f'<text x="{ml}" y="{mt + ph + 16}" text-anchor="middle" '
        f'font-size="10">{x0:g}</text>',
        f'<text x="{ml + pw}" y="{mt + ph + 16}" text-anchor="middle" '
        f'font-size="10">{x1:g}</text>',
        f'<text x="{ml - 6}" y="{mt + ph + 4}" text-anchor="end" '
        f'font-size="10">{y0:g}</text>',
        f'<text x="{ml - 6}" y="{mt + 4}" text-anchor="end" '
        f'font-size="10">{y1:g}</text>',
    ]
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(s):.2f},{py(v):.2f}"
                       for s, v in zip(curve.steps, curve.values))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + pw - 4}" y="{mt + 14 + 14 * i}" '
                     f'text-anchor="end" font-size="11" fill="{color}">'
                     f'{_esc(curve.name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _mark(cell: str, mean: float, best: float, second: float | None) -> str:
    if mean == best:
        return f"**{cell}**"
    if second is not None and mean == second:
        return f"<u>{cell}</u>"
    return cell


def render_markdown_table(table: MetricsTable, dataset: str) -> str:
    """Methods as rows, fewshot sizes as columns; best bold, runner-up underlined."""
    rows = [r for r in table.aggregates() if r.dataset == dataset]
    if not rows:
        return ""
    sizes = sorted({r.fewshot_size for r in rows})
    methods = []
    for r in rows:
        if r.method not in methods:
            methods.append(r.method)
    by_cell = {(r.method, r.fewshot_size): r for r in rows}
    # per-size best and second-best means, ties for best leave no second-best
    best: dict[int, float] = {}
    second: dict[int, float | None] = {}
    for size in sizes:
        means = [r.macro_f1 for r in rows
                 if r.fewshot_size == size and r.macro_f1 is not None]
        if not means:
            continue
        top = max(means)
        best[size] = top
        lower = [m for m in means if m < top]
        second[size] = max(lower) if lower and means.count(top) == 1 else None
    lines = [f"### {dataset}", ""]
    lines.append("| method | " + " | ".join(str(s) for s in sizes) + " |")
    lines.append("|" + "---|" * (len(sizes) + 1))
    for method in methods:
        cells = [method]
        for size in sizes:
            row = by_cell.get((method, size))
            if row is None:
                cells.append("-")
            elif row.macro_f1 is None:
                cells.append(f"failed: {row.failure or 'unknown'}")
            else:
                text = format_mean_std(100 * row.macro_f1,
                                       100 * (row.std_macro_f1 or 0.0))
                cells.append(_mark(text, row.macro_f1, best[size],
                                   second.get(size)))
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)


def render_report(table: MetricsTable, out_dir: str | Path,
                  calibration: MetricsTable | None = None,
                  curves: dict[str, list[Curve]] | None = None) -> Path:
    """Write report.md plus metrics.csv, calibration.csv, and SVG curves.

    Returns the path of the Markdown report. Outputs are deterministic
    functions of the inputs.
    """
    if len(table) == 0:
        raise ValueError("empty metrics table")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table.to_csv(out_dir / "metrics.csv")
    lines = ["# Results", "",
             "Macro F1 (percent), mean over seeds with population-std subscripts.",
             ""]
    datasets = []
    for r in table.aggregates():
        if r.dataset not in datasets:
            datasets.append(r.dataset)
    for dataset in datasets:
        lines.append(render_markdown_table(table, dataset))
    if calibration is not None and len(calibration):
        calibration.to_csv(out_dir / "calibration.csv")
        lines.append("## Calibration")
        lines.append("")
        lines.append("| method | dataset | size | ECE |")
        lines.append("|---|---|---|---|")
        for r in calibration.aggregates():
            if r.ece is None:
                continue
            cell = format_mean_std(100 * r.ece, 100 * (r.std_ece or 0.0))
            lines.append(f"| {r.method} | {r.dataset} | {r.fewshot_size} | {cell} |")
        lines.append("")
    if curves:
        lines.append("## Curves")
        lines.append("")
        for name in sorted(curves):
            svg = render_curve_svg(curves[name], title=name)
            svg_path = out_dir / f"{name}.svg"
            svg_path.write_text(svg, encoding="utf-8")
            write_curve_csv(out_dir / f"{name}.csv", curves[name])
            lines.append(f"![{name}]({name}.svg)")
        lines.append("")
    report = out_dir / "report.md"
    report.write_text("\n".join(lines), encoding="utf-8")
    return report
