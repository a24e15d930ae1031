"""Macro F1, top-1 calibration error, per-run results rows, and the report.

Metric conventions, chosen so tables are byte-reproducible:

- macro F1 averages over every class of the task, including classes absent
  from both predictions and labels; 0/0 precision-recall cases count as 0.
- ECE uses ECE_BINS = 10 equal-width right-inclusive confidence bins over (0, 1].
- A MetricsRow records one run. The report groups runs by (method, dataset,
  fewshot_size) and aggregates their seeds itself: the mean and population
  standard deviation (the seeds are the whole population of reported runs),
  rendered as "64.0₍2.8₎". So, without curves, report.md is a function of
  metrics.csv: rendering the rows read back from it gives the same bytes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import check_fields, field_kinds, read_text, write_text


@dataclass
class PredictionLog:
    """Per-example probability vectors with true labels."""

    probs: np.ndarray          # (N, C) rows sum to 1
    labels: np.ndarray         # (N,) int in [0, C)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        labels = np.asarray(self.labels)
        if labels.size and labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be integer class ids, got dtype {labels.dtype}")
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.probs.ndim != 2:
            raise ValueError(f"probs must be (N, C), got shape {self.probs.shape}")
        n, c = self.probs.shape
        if c < 2:
            raise ValueError("need at least 2 classes")
        if self.labels.shape != (n,):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {n} examples"
            )
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


ECE_BINS = 10


def ece_top1(log: PredictionLog) -> float:
    """Expected calibration error of the top-1 prediction.

    Confidence is the max probability; bins partition (0, 1] into ECE_BINS
    equal widths, right-inclusive, so a confidence of exactly 0.8 falls in
    (0.7, 0.8]. Empty bins contribute nothing.
    """
    if len(log) == 0:
        raise ValueError("empty prediction log")
    conf = log.probs.max(axis=1)
    correct = (log.predictions() == log.labels).astype(np.float64)
    idx = np.clip(np.ceil(conf * ECE_BINS).astype(int) - 1, 0, ECE_BINS - 1)
    n = len(log)
    total = 0.0
    for b in range(ECE_BINS):
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


def format_mean_std(mean: float, std: float) -> str:
    """Subscripted std convention, e.g. 64.0₍2.8₎."""
    return f"{mean:.1f}₍{std:.1f}₎"


# ---------------------------------------------------------------------------
# results rows
# ---------------------------------------------------------------------------


@dataclass
class MetricsRow:
    """One run: a (method, dataset, fewshot_size, seed) cell of the protocol.

    Every field must survive the metrics.csv round trip unchanged, so each
    is annotated int, float or str, alone or ``| None``.
    """

    method: str
    dataset: str
    fewshot_size: int
    seed: int | None = None
    lr: float | None = None
    macro_f1: float | None = None
    ece: float | None = None
    steps_to_threshold: int | None = None
    checkpoint_path: str | None = None
    failure: str | None = None

    def __post_init__(self):
        check_fields(self)
        if self.lr is not None and not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite positive number, got {self.lr!r}")
        for name in ("macro_f1", "ece"):
            value = getattr(self, name)
            # written so that NaN fails the range test too
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


_CSV_COLUMNS = [f.name for f in fields(MetricsRow)]
_CSV_KINDS = {name: (kind, optional) for name, kind, optional in field_kinds(MetricsRow)}


def _metrics_csv(rows: Sequence[MetricsRow]) -> str:
    """One line per run; floats as repr (exact round trip), None as an empty cell."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        record = {}
        for col in _CSV_COLUMNS:
            value = getattr(row, col)
            if value is None:
                record[col] = ""
            elif _CSV_KINDS[col][0] is float:
                record[col] = repr(float(value))
            else:
                record[col] = str(value)
        writer.writerow(record)
    return buf.getvalue()


def read_metrics_csv(path: str | Path) -> list[MetricsRow]:
    """Rows of a metrics.csv that ``render_report`` wrote; each cell is
    parsed by its field's annotation, and an empty cell is None where that
    allows it."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    missing = set(_CSV_COLUMNS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"{path}: missing columns {sorted(missing)}")
    rows = []
    for rec in reader:
        # DictReader files surplus cells under None and fills missing ones with None
        if None in rec or None in rec.values():
            raise ValueError(f"{path}:{reader.line_num}: cell count differs from the header's")
        kwargs = {}
        for col in _CSV_COLUMNS:
            kind, optional = _CSV_KINDS[col]
            try:
                kwargs[col] = None if rec[col] == "" and optional else kind(rec[col])
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: column {col!r}: "
                                 f"{exc}") from exc
        try:
            rows.append(MetricsRow(**kwargs))
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    return rows


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
        check_fields(self)
        if len(self.steps) != len(self.values):
            raise ValueError("steps and values lengths differ")


def _curve_csv(curves: Sequence[Curve]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "step", "value"])
    for curve in curves:
        for s, v in zip(curve.steps, curve.values):
            writer.writerow([curve.name, repr(float(s)), repr(float(v))])
    return buf.getvalue()


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def render_curve_svg(curves: Sequence[Curve], title: str) -> str:
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
        f'font-size="12">step</text>',
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">value</text>',
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


def _cells(rows: Sequence[MetricsRow]) -> dict[tuple[str, str, int], list[MetricsRow]]:
    """Runs grouped by (method, dataset, fewshot_size), in first-use order.

    A repeated seed within a group is refused: its mean would mix two runs.
    """
    cells: dict[tuple[str, str, int], list[MetricsRow]] = {}
    seen = set()
    for r in rows:
        key = (r.method, r.dataset, r.fewshot_size, r.seed)
        if key in seen:
            raise ValueError(f"duplicate run for (method, dataset, fewshot_size, seed) "
                             f"= {key}")
        seen.add(key)
        cells.setdefault(key[:3], []).append(r)
    return cells


def render_markdown_table(rows: Sequence[MetricsRow], dataset: str) -> str:
    """Methods as rows, fewshot sizes as columns; best bold, runner-up underlined.

    A cell is the mean₍std₎ of its runs' macro F1, or its first failed run's failure.
    """
    by_cell = {(m, k): runs for (m, d, k), runs in _cells(rows).items() if d == dataset}
    if not by_cell:
        return ""
    sizes = sorted({k for _, k in by_cell})
    methods = list(dict.fromkeys(m for m, _ in by_cell))
    stats = {key: aggregate([r.macro_f1 for r in runs]) for key, runs in by_cell.items()
             if all(r.macro_f1 is not None for r in runs)}
    # per-size best and second-best means, ties for best leave no second-best
    best: dict[int, float] = {}
    second: dict[int, float | None] = {}
    for size in sizes:
        means = [mean for (_, k), (mean, _) in stats.items() if k == size]
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
            key = (method, size)
            if key not in by_cell:
                cells.append("-")
            elif key not in stats:
                failed = next(r for r in by_cell[key] if r.macro_f1 is None)
                cells.append(f"failed: {failed.failure or 'unknown'}")
            else:
                mean, std = stats[key]
                text = format_mean_std(100 * mean, 100 * std)
                if mean == best[size]:
                    text = f"**{text}**"
                elif mean == second[size]:
                    text = f"<u>{text}</u>"
                cells.append(text)
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)


def render_report(rows: Sequence[MetricsRow], out_dir: str | Path,
                  curves: dict[str, list[Curve]] | None = None) -> Path:
    """Write metrics.csv, report.md and, under curves/, an SVG and a CSV for
    each curve set, each file's text built before the first is written.

    Returns the path of the Markdown report. Outputs are deterministic
    functions of the inputs; every mean and std is computed from the rows.
    A curve-set name becomes a file name, so it must be one path component,
    and a Markdown link destination ``<curves/NAME.svg>``, so it holds no
    ``<``, ``>`` or line break.
    """
    if not rows:
        raise ValueError("empty metrics table")
    cells = _cells(rows)
    files = {"metrics.csv": _metrics_csv(rows)}
    lines = ["# Results", "",
             "Macro F1 (percent), mean over seeds with population-std subscripts.",
             ""]
    for dataset in dict.fromkeys(r.dataset for r in rows):
        lines.append(render_markdown_table(rows, dataset))
    calibrated = {key: aggregate([r.ece for r in runs]) for key, runs in cells.items()
                  if all(r.ece is not None for r in runs)}
    if calibrated:
        lines += ["## Calibration", "", "| method | dataset | size | ECE |", "|---|---|---|---|"]
        for (method, dataset, size), (mean, std) in calibrated.items():
            cell = format_mean_std(100 * mean, 100 * std)
            lines.append(f"| {method} | {dataset} | {size} | {cell} |")
        lines.append("")
    if curves:
        lines += ["## Curves", ""]
        for name in sorted(curves):
            if name in ("", ".", "..") or "/" in name or "\0" in name:
                raise ValueError(f"curve set name {name!r} is not one path component")
            if any(c in name for c in "<>[]\\\n\r"):
                raise ValueError(f"curve set name {name!r} cannot be a Markdown image's "
                                 "alt text and link destination")
            files[f"curves/{name}.svg"] = render_curve_svg(curves[name], title=name)
            files[f"curves/{name}.csv"] = _curve_csv(curves[name])
            lines.append(f"![{name}](<curves/{name}.svg>)")
        lines.append("")
    files["report.md"] = "\n".join(lines)
    out_dir = Path(out_dir)
    for name, text in files.items():
        write_text(out_dir / name, text)
    return out_dir / "report.md"
