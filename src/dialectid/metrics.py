"""Confusion matrices and the accuracy / micro / macro / weighted F1 family.

Conventions: rows are gold labels, columns are predicted labels; precision,
recall, and F1 are defined as 0 whenever their denominator is 0; macro-F1
averages over the full label set, including classes that were never
predicted.  Reported numbers are rounded to 3 decimals, half-up.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP

import numpy as np

from .data import LabelSet, read_lines
from .errors import FormatError

HEATMAP_CELL = 32   # pixels per confusion-matrix cell


@dataclass
class ConfusionMatrix:
    labels: LabelSet
    counts: np.ndarray   # (L, L) int64, rows gold, columns predicted

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def supports(self) -> np.ndarray:
        return self.counts.sum(axis=1)


@dataclass
class MetricReport:
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    supports: np.ndarray
    f1_micro: float
    f1_macro: float
    f1_weighted: float


def confusion_from_pairs(pairs, labels: LabelSet) -> ConfusionMatrix:
    """Count (gold, predicted) label-id pairs into an L x L matrix."""
    n = len(labels)
    counts = np.zeros((n, n), dtype=np.int64)
    for gold, pred in pairs:
        if not (0 <= gold < n and 0 <= pred < n):
            raise IndexError(f"label pair ({gold}, {pred}) out of range for {n} labels")
        counts[gold, pred] += 1
    return ConfusionMatrix(labels, counts)


def accuracy(cm: ConfusionMatrix) -> float:
    total = cm.total
    if total == 0:
        raise ValueError("accuracy of an empty confusion matrix is undefined")
    return float(np.trace(cm.counts)) / total


def per_class_prf(cm: ConfusionMatrix):
    """Per-class (precision, recall, f1, support) arrays with 0-denominator
    conventions: any score whose denominator is 0 is reported as 0."""
    counts = cm.counts.astype(np.float64)
    diag = np.diag(counts)
    col = counts.sum(axis=0)
    row = counts.sum(axis=1)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros_like(diag), where=denom > 0)
    return precision, recall, f1, cm.supports()


def f1_scores(cm: ConfusionMatrix) -> tuple[float, float, float]:
    """(micro, macro, weighted) F1.  Micro equals accuracy for single-label
    multiclass data; macro is the unweighted mean over every label in the
    label set; weighted is the support-weighted mean."""
    _, _, f1, supports = per_class_prf(cm)
    micro = accuracy(cm)
    macro = float(f1.mean())
    weighted = float((f1 * supports).sum() / supports.sum())
    return micro, macro, weighted


def compute_report(cm: ConfusionMatrix) -> MetricReport:
    precision, recall, f1, supports = per_class_prf(cm)
    micro, macro, weighted = f1_scores(cm)
    return MetricReport(
        accuracy=accuracy(cm),
        precision=precision, recall=recall, f1=f1, supports=supports,
        f1_micro=micro, f1_macro=macro, f1_weighted=weighted,
    )


def permuted(cm: ConfusionMatrix, order: LabelSet) -> ConfusionMatrix:
    """The same counts re-indexed to a new label order (a permutation of the
    current labels)."""
    if sorted(order.names) != sorted(cm.labels.names):
        raise FormatError(
            f"label order {list(order.names)} is not a permutation of {list(cm.labels.names)}"
        )
    idx = np.asarray([cm.labels.id_of(name) for name in order.names])
    return ConfusionMatrix(order, cm.counts[np.ix_(idx, idx)])


def round3(x: float) -> str:
    """Decimal string with exactly 3 decimals, rounding half-up."""
    return str(Decimal(repr(x)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def summary_line(report: MetricReport) -> str:
    return (
        f"accuracy={round3(report.accuracy)} "
        f"f1_micro={round3(report.f1_micro)} "
        f"f1_macro={round3(report.f1_macro)} "
        f"f1_weighted={round3(report.f1_weighted)}"
    )


def render_text(cm: ConfusionMatrix, report: MetricReport) -> str:
    """Fixed-width confusion matrix plus a per-class and summary footer."""
    names = cm.labels.names
    label_w = max(len(n) for n in names + ("label",))
    cell_w = max(5, max(len(str(int(v))) for v in cm.counts.ravel()) + 1,
                 max(len(n) for n in names) + 1)

    lines = []
    lines.append(" " * label_w + "".join(f"{n:>{cell_w}}" for n in names))
    for i, n in enumerate(names):
        lines.append(
            f"{n:<{label_w}}" + "".join(f"{int(v):>{cell_w}}" for v in cm.counts[i])
        )
    lines.append("")
    lines.append(
        f"{'label':<{label_w}}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}"
    )
    for i, n in enumerate(names):
        lines.append(
            f"{n:<{label_w}}"
            f"{round3(float(report.precision[i])):>10}"
            f"{round3(float(report.recall[i])):>10}"
            f"{round3(float(report.f1[i])):>10}"
            f"{int(report.supports[i]):>10}"
        )
    lines.append("")
    lines.append(f"accuracy={round3(report.accuracy)}")
    lines.append(f"f1_micro={round3(report.f1_micro)}")
    lines.append(f"f1_macro={round3(report.f1_macro)}")
    lines.append(f"f1_weighted={round3(report.f1_weighted)}")
    return "\n".join(lines) + "\n"


def render_heatmap(cm: ConfusionMatrix, path) -> None:
    """Row-normalized grayscale heatmap as a plain PGM (P2) image.

    Each cell becomes a 32x32 block; intensity is the count scaled linearly
    so the row maximum maps to 255.  Rows with no counts render black.
    """
    n = len(cm.labels)
    counts = cm.counts.astype(np.float64)
    row_max = counts.max(axis=1)
    scale = np.divide(counts, row_max[:, None], out=np.zeros_like(counts),
                      where=row_max[:, None] > 0)
    cells = np.rint(scale * 255).astype(np.int64)
    pixels = np.kron(cells, np.ones((HEATMAP_CELL, HEATMAP_CELL), dtype=np.int64))

    side = n * HEATMAP_CELL
    tokens: list[str] = ["P2", f"{side} {side}", "255"]
    for r in range(side):
        row = pixels[r]
        line = []
        length = 0
        for v in row:
            tok = str(v)
            if length + len(tok) + (1 if line else 0) > 70:
                tokens.append(" ".join(line))
                line, length = [], 0
            line.append(tok)
            length += len(tok) + 1
        if line:
            tokens.append(" ".join(line))
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(tokens) + "\n")


def save_cm(cm: ConfusionMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("\t" + "\t".join(cm.labels.names) + "\n")
        for i, name in enumerate(cm.labels.names):
            f.write(name + "\t" + "\t".join(str(int(v)) for v in cm.counts[i]) + "\n")


def load_cm(path) -> ConfusionMatrix:
    """Load a confusion matrix from TSV: a header of labels, then one
    `<label>\\t<counts...>` row per gold label, in the same order."""
    lines = [line for line in read_lines(path) if line != ""]
    if not lines:
        raise FormatError(f"{path}: empty confusion-matrix file")
    header = lines[0].split("\t")
    if header[0] != "":
        raise FormatError(f"{path}: header must start with an empty cell (line 1)")
    names = header[1:]
    if not names:
        raise FormatError(f"{path}: no labels in header (line 1)")
    try:
        labels = LabelSet(names)
    except ValueError as exc:
        raise FormatError(f"{path}: bad header labels ({exc})") from exc

    n = len(names)
    if len(lines) - 1 != n:
        raise FormatError(f"{path}: expected {n} rows after header, found {len(lines) - 1}")
    counts = np.zeros((n, n), dtype=np.int64)
    for r, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != n + 1:
            raise FormatError(
                f"{path}: expected {n} counts for row {fields[0]!r}, "
                f"found {len(fields) - 1} (line {r})"
            )
        if fields[0] != names[r - 2]:
            raise FormatError(
                f"{path}: row label {fields[0]!r} does not match header order "
                f"{names[r - 2]!r} (line {r})"
            )
        for c, value in enumerate(fields[1:]):
            try:
                v = int(value)
            except ValueError:
                raise FormatError(
                    f"{path}: non-integer count {value!r} (line {r}, column {c + 2})"
                ) from None
            if v < 0:
                raise FormatError(f"{path}: negative count {v} (line {r}, column {c + 2})")
            counts[r - 2, c] = v
    return ConfusionMatrix(labels, counts)
