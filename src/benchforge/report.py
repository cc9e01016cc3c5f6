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
from typing import NamedTuple

from .aggregate import BenchResult, suite_score


class ReportError(ValueError):
    pass


class Cell(NamedTuple):
    """One system's result on one benchmark; the field order is its key order in ``render_json``."""

    perf: float | None
    success_rate: float
    ratio: float | None = None


class ReportRow(NamedTuple):
    bench: str
    weight: float
    cells: dict[str, Cell]


class GlobalCell(NamedTuple):
    """One system's suite score; the field order is its key order in ``render_json``."""

    score: float
    total_weight: float
    ratio: float | None = None


class ReportDocument(NamedTuple):
    """Merged rows plus per-system global scores; row order = suite order."""

    systems: list[str]
    baseline: str | None
    rows: list[ReportRow]
    global_scores: dict[str, GlobalCell]
    metadata: dict


def render_report(
    results: dict[str, list[BenchResult]],
    baseline: str | None = None,
    metadata: dict | None = None,
) -> ReportDocument:
    """Merge per-system results into one report document.

    All systems must cover the same benchmarks in the same order (they
    come from the same suite). The baseline system, when named, moves to
    the first column and every other system gets a ratio against it: its
    perf over the baseline's, absent when either failed or the baseline's
    perf is 0.
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
        cells: dict[str, Cell] = {}
        for system in systems:
            result = by_system[system][bench_ref.bench]
            perf = result.perf if result.success_rate > 0 else None
            ratio = None
            # The baseline's cell comes first, so it is in ``cells`` by now.
            if baseline is not None and system != baseline and cells[baseline].perf and perf is not None:
                ratio = perf / cells[baseline].perf
            cells[system] = Cell(perf=perf, success_rate=result.success_rate, ratio=ratio)
        rows.append(ReportRow(bench=bench_ref.bench, weight=bench_ref.weight, cells=cells))

    scores = {system: suite_score(results[system]) for system in systems}
    base_score = scores[baseline].score if baseline is not None else 0.0
    global_scores: dict[str, GlobalCell] = {}
    for system, score in scores.items():
        ratio = score.score / base_score if system != baseline and base_score > 0 else None
        global_scores[system] = GlobalCell(score=score.score, total_weight=score.total_weight, ratio=ratio)

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
                "results": {s: row.cells[s]._asdict() for s in doc.systems},
            }
            for row in doc.rows
        ],
        "global": {s: doc.global_scores[s]._asdict() for s in doc.systems},
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"
