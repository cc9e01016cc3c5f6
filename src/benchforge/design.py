"""Suite design analysis: coverage balancing and multi-label metrics.

Coverage proportions weigh each benchmark's tags against declared
targets across five dimensions (domains, architectures, model sizes,
parallelism, libraries); model sizes is the one mutually exclusive
dimension. The multi-label confusion matrix carries No-Predicted-Label /
No-True-Label margins so misses and spurious predictions stay visible.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .suite import SuiteConfig, TAG_DIMENSIONS

NPL = "NPL"  # extra column: a true label with no prediction at all
NTL = "NTL"  # extra row: a prediction with no unmatched true label


class DesignError(ValueError):
    pass


class CoverageReport(NamedTuple):
    proportions: dict[str, dict[str, float]]
    deviation: dict[str, float]
    total_weight: float


def coverage_proportions(cfg: SuiteConfig) -> CoverageReport:
    """Weighted tag proportions of the enabled suite, per design dimension.

    proportion(column) = sum of weights of benchmarks tagged with that
    column / total enabled weight. Columns are not mutually exclusive, so
    a dimension's proportions may sum past 1 — except model sizes, which
    sum to exactly 1. Deviation is the L1 distance to the declared
    targets, for the dimensions that have targets.
    """
    enabled = cfg.enabled_benchmarks()
    for bench in enabled:
        if bench.weight > 0 and bench.tags is None:
            raise DesignError(f"benchmark {bench.name!r} carries weight but no tags")
    total_weight = sum(b.weight for b in enabled)
    if total_weight <= 0:
        raise DesignError("no enabled benchmark weight to balance")

    proportions: dict[str, dict[str, float]] = {}
    for dim in TAG_DIMENSIONS:
        columns: dict[str, float] = {}
        for bench in enabled:
            if bench.tags is None:
                continue
            for label in bench.tags.labels(dim):
                columns[label] = columns.get(label, 0.0) + bench.weight
        proportions[dim] = {col: w / total_weight for col, w in sorted(columns.items())}

    deviation: dict[str, float] = {}
    if cfg.targets is not None:
        for dim, targets in cfg.targets.dimensions.items():
            actual = proportions.get(dim, {})
            labels = set(targets) | set(actual)
            deviation[dim] = math.fsum(
                abs(actual.get(label, 0.0) - targets.get(label, 0.0)) for label in labels
            )
    return CoverageReport(proportions=proportions, deviation=deviation, total_weight=total_weight)


class MLCMatrix:
    """(C+1) x (C+1) multi-label confusion counts.

    Rows are true classes plus the NTL row; columns are predicted classes
    plus the NPL column. Every per-sample label allocation lands in
    exactly one cell. ``counts`` defaults to a fresh all-zero matrix.
    """

    __slots__ = ("classes", "counts")

    def __init__(self, classes: tuple[str, ...], counts: list[list[int]] | None = None) -> None:
        n = len(classes) + 1
        if not counts:
            counts = [[0] * n for _ in range(n)]
        if len(counts) != n or any(len(row) != n for row in counts):
            raise DesignError(f"counts must be {n}x{n} for {len(classes)} classes")
        if any(c < 0 for row in counts for c in row):
            raise DesignError("counts must be non-negative")
        self.classes = classes
        self.counts = counts

    def index(self, label: str) -> int:
        try:
            return self.classes.index(label)
        except ValueError:
            raise DesignError(f"unknown label {label!r}") from None

    @property
    def npl_col(self) -> int:
        return len(self.classes)

    @property
    def ntl_row(self) -> int:
        return len(self.classes)

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


class ClassMetrics(NamedTuple):
    """Per-class precision and recall, percentages in [0, 100].

    ``precision`` divides the diagonal by its column sum (NTL row
    included); ``recall`` divides it by its row sum (NPL column
    included). A zero sum leaves the metric absent (None). Raw decimals
    are kept; ``rounded`` gives the nearest-integer display form.
    """

    classes: tuple[str, ...]
    precision: dict[str, float | None]
    recall: dict[str, float | None]

    def rounded(self) -> dict[str, tuple[int | None, int | None]]:
        def nearest(x: float | None) -> int | None:
            return None if x is None else int(math.floor(x + 0.5))

        return {
            c: (nearest(self.precision[c]), nearest(self.recall[c])) for c in self.classes
        }


def mlcm_build(
    samples: list[tuple[set[str], set[str]]], classes: list[str] | tuple[str, ...]
) -> MLCMatrix:
    """Accumulate a multi-label confusion matrix over (true, predicted) sets.

    Per sample: matched labels increment the diagonal. Each unmatched
    true label increments (true, p) for every spurious predicted label p
    when any exist, else (true, NPL). When nothing true went unmatched,
    each spurious predicted label increments (NTL, predicted).
    """
    matrix = MLCMatrix(classes=tuple(classes))
    counts = matrix.counts
    npl, ntl = matrix.npl_col, matrix.ntl_row
    for true_labels, predicted_labels in samples:
        true_idx = {matrix.index(t) for t in true_labels}
        pred_idx = {matrix.index(p) for p in predicted_labels}
        matched = true_idx & pred_idx
        for i in matched:
            counts[i][i] += 1
        unmatched_true = sorted(true_idx - matched)
        unmatched_pred = sorted(pred_idx - matched)
        if unmatched_true:
            if unmatched_pred:
                for t in unmatched_true:
                    for p in unmatched_pred:
                        counts[t][p] += 1
            else:
                for t in unmatched_true:
                    counts[t][npl] += 1
        else:
            for p in unmatched_pred:
                counts[ntl][p] += 1
    return matrix


def mlcm_metrics(matrix: MLCMatrix) -> ClassMetrics:
    """Per-class precision/recall from a multi-label confusion matrix."""
    n = len(matrix.classes)
    precision: dict[str, float | None] = {}
    recall: dict[str, float | None] = {}
    for i, label in enumerate(matrix.classes):
        col_sum = sum(matrix.counts[r][i] for r in range(n + 1))
        row_sum = sum(matrix.counts[i])
        precision[label] = 100.0 * matrix.counts[i][i] / col_sum if col_sum else None
        recall[label] = 100.0 * matrix.counts[i][i] / row_sum if row_sum else None
    return ClassMetrics(classes=matrix.classes, precision=precision, recall=recall)
