"""Render folded results as text tables, CSV, and JSON.

The text table mirrors the published layout: one ratio column per
non-baseline system (2 decimals), one performance column per system
(humanized: thousands as N.nK, millions as N.nM), and a final Global
Score row. CSV keeps full-precision decimals; JSON keeps raw values.
Failed benchmarks render as blank cells, never as zeros.
"""

from __future__ import annotations

import io
import json

from .aggregate import BenchResult, ratio_to_baseline, suite_score


class ReportError(ValueError):
    pass


class Cell:
    __slots__ = ("perf", "success_rate", "ratio")

    def __init__(self, perf: float | None, success_rate: float, ratio: float | None = None) -> None:
        self.perf = perf
        self.success_rate = success_rate
        self.ratio = ratio


class ReportRow:
    __slots__ = ("bench", "weight", "cells")

    def __init__(self, bench: str, weight: float, cells: dict[str, Cell] | None = None) -> None:
        self.bench = bench
        self.weight = weight
        self.cells = {} if cells is None else cells


class GlobalCell:
    __slots__ = ("score", "total_weight", "ratio")

    def __init__(self, score: float, total_weight: float, ratio: float | None = None) -> None:
        self.score = score
        self.total_weight = total_weight
        self.ratio = ratio


class ReportDocument:
    """Merged rows plus per-system global scores; row order = suite order."""

    __slots__ = ("systems", "baseline", "rows", "global_scores", "metadata")

    def __init__(
        self,
        systems: list[str],
        baseline: str | None,
        rows: list[ReportRow],
        global_scores: dict[str, GlobalCell],
        metadata: dict | None = None,
    ) -> None:
        self.systems = systems
        self.baseline = baseline
        self.rows = rows
        self.global_scores = global_scores
        self.metadata = {} if metadata is None else metadata


def render_report(
    results: dict[str, list[BenchResult]],
    baseline: str | None = None,
    metadata: dict | None = None,
) -> ReportDocument:
    """Merge per-system results into one report document.

    All systems must cover the same benchmarks in the same order (they
    come from the same suite). The baseline system, when named, moves to
    the first column and every other system gets a ratio against it.
    """
    if not results:
        raise ReportError("no results to report")
    if baseline is not None and baseline not in results:
        raise ReportError(f"baseline {baseline!r} not among systems {sorted(results)}")

    systems = list(results)
    if baseline is not None:
        systems.remove(baseline)
        systems.insert(0, baseline)

    reference = results[systems[0]]
    bench_order = [r.bench for r in reference]
    for system in systems:
        if [r.bench for r in results[system]] != bench_order:
            raise ReportError(f"system {system!r} reports a different benchmark set")

    by_system = {s: {r.bench: r for r in results[s]} for s in systems}
    rows: list[ReportRow] = []
    for bench_ref in reference:
        row = ReportRow(bench=bench_ref.bench, weight=bench_ref.weight)
        for system in systems:
            result = by_system[system][bench_ref.bench]
            ratio = None
            if baseline is not None and system != baseline:
                ratio = ratio_to_baseline(result, by_system[baseline][bench_ref.bench]).ratio
            row.cells[system] = Cell(
                perf=result.perf if result.success_rate > 0 else None,
                success_rate=result.success_rate,
                ratio=ratio,
            )
        rows.append(row)

    global_scores: dict[str, GlobalCell] = {}
    for system in systems:
        score = suite_score(results[system])
        global_scores[system] = GlobalCell(score=score.score, total_weight=score.total_weight)
    if baseline is not None:
        base_score = global_scores[baseline].score
        for system in systems:
            if system != baseline and base_score > 0:
                global_scores[system].ratio = global_scores[system].score / base_score

    return ReportDocument(
        systems=systems,
        baseline=baseline,
        rows=rows,
        global_scores=global_scores,
        metadata=dict(metadata or {}),
    )


def humanize(value: float | None) -> str:
    """Format a performance value the way the result tables print them.

    Thousands compress to N.nK and millions to N.nM, growing decimals
    only when one decimal would stray more than 0.05% from the raw
    value. Values under 1000 print with one decimal.
    """
    if value is None:
        return ""
    if value >= 1e6:
        unit, suffix = 1e6, "M"
    elif value >= 1000:
        unit, suffix = 1e3, "K"
    else:
        return f"{value:.1f}"
    scaled = value / unit
    for decimals in range(1, 7):
        text = f"{scaled:.{decimals}f}"
        if value == 0 or abs(float(text) * unit - value) / value <= 5e-4:
            return text + suffix
    return f"{scaled:.6f}{suffix}"


GLOBAL_ROW = "Global Score"


def render_text(doc: ReportDocument) -> str:
    """Fixed-width table: ratio columns, then performance columns."""
    ratio_systems = [s for s in doc.systems if doc.baseline is not None and s != doc.baseline]
    headers = ["bench"]
    headers += [f"ratio:{s}" for s in ratio_systems]
    headers += [f"perf:{s}" for s in doc.systems]

    def ratio_cell(ratio: float | None) -> str:
        return "" if ratio is None else f"{ratio:.2f}"

    body: list[list[str]] = []
    for row in doc.rows:
        cells = [row.bench]
        cells += [ratio_cell(row.cells[s].ratio) for s in ratio_systems]
        cells += [humanize(row.cells[s].perf) for s in doc.systems]
        body.append(cells)
    final = [GLOBAL_ROW]
    final += [ratio_cell(doc.global_scores[s].ratio) for s in ratio_systems]
    final += [f"{doc.global_scores[s].score:.1f}" for s in doc.systems]
    body.append(final)

    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) for i in range(len(headers))
    ]

    def fmt(cells: list[str]) -> str:
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(widths[i + 1]) for i, c in enumerate(cells[1:])]
        return " | ".join([first, *rest]).rstrip()

    lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
    lines += [fmt(r) for r in body]
    return "\n".join(lines) + "\n"


def _ratio_header(doc: ReportDocument) -> str | None:
    return f"ratio_vs_{doc.baseline}" if doc.baseline is not None else None


def render_csv(doc: ReportDocument) -> str:
    """Full-precision CSV, one row per (system, benchmark).

    The trailing per-system Global Score rows carry the total weight in
    the weight column and the score in the perf column.
    """
    import csv

    out = io.StringIO()
    header = ["system", "bench", "weight", "perf", "success_rate"]
    ratio_col = _ratio_header(doc)
    if ratio_col:
        header.append(ratio_col)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)

    def num(value: float | None) -> str:
        return "" if value is None else repr(float(value))

    for system in doc.systems:
        for row in doc.rows:
            cell = row.cells[system]
            record = [system, row.bench, num(row.weight), num(cell.perf), num(cell.success_rate)]
            if ratio_col:
                record.append(num(cell.ratio))
            writer.writerow(record)
    for system in doc.systems:
        cell_g = doc.global_scores[system]
        record = [system, GLOBAL_ROW, num(cell_g.total_weight), num(cell_g.score), ""]
        if ratio_col:
            record.append(num(cell_g.ratio))
        writer.writerow(record)
    return out.getvalue()


def render_json(doc: ReportDocument) -> str:
    payload = {
        "metadata": doc.metadata,
        "baseline": doc.baseline,
        "systems": doc.systems,
        "rows": [
            {
                "bench": row.bench,
                "weight": row.weight,
                "results": {
                    s: {
                        "perf": row.cells[s].perf,
                        "success_rate": row.cells[s].success_rate,
                        "ratio": row.cells[s].ratio,
                    }
                    for s in doc.systems
                },
            }
            for row in doc.rows
        ],
        "global": {
            s: {
                "score": doc.global_scores[s].score,
                "total_weight": doc.global_scores[s].total_weight,
                "ratio": doc.global_scores[s].ratio,
            }
            for s in doc.systems
        },
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"
