"""Read-back of rendered reports, for round-trip tests.

The harness never reads its own CSV or humanized numbers back; these
inverses exist so tests can check that the renderings lose nothing.
"""

import csv
import io

from benchforge.report import GLOBAL_ROW, Cell, GlobalCell, ReportDocument, ReportError, ReportRow


def parse_humanized(text: str) -> float | None:
    text = text.strip()
    if not text:
        return None
    if text.endswith("M"):
        return float(text[:-1]) * 1e6
    if text.endswith("K"):
        return float(text[:-1]) * 1e3
    return float(text)


def document_from_csv(text: str, metadata: dict | None = None) -> ReportDocument:
    """Rebuild a report document from its own CSV rendering.

    CSV carries no metadata block; pass the original metadata to compare
    JSON renderings for consistency.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ReportError("empty CSV") from None
    if header[:5] != ["system", "bench", "weight", "perf", "success_rate"]:
        raise ReportError(f"unexpected CSV header: {header}")
    baseline = None
    if len(header) == 6:
        if not header[5].startswith("ratio_vs_"):
            raise ReportError(f"unexpected ratio column: {header[5]}")
        baseline = header[5].removeprefix("ratio_vs_")

    def num(textval: str) -> float | None:
        return None if textval == "" else float(textval)

    systems: list[str] = []
    row_map: dict[str, ReportRow] = {}
    global_scores: dict[str, GlobalCell] = {}
    for record in reader:
        if not record:
            continue
        system, bench = record[0], record[1]
        if system not in systems:
            systems.append(system)
        ratio = num(record[5]) if len(record) > 5 else None
        if bench == GLOBAL_ROW:
            global_scores[system] = GlobalCell(
                score=float(record[3]), total_weight=float(record[2]), ratio=ratio
            )
            continue
        row = row_map.setdefault(bench, ReportRow(bench=bench, weight=float(record[2]), cells={}))
        row.cells[system] = Cell(
            perf=num(record[3]),
            success_rate=float(record[4]) if record[4] else 0.0,
            ratio=ratio,
        )
    return ReportDocument(
        systems=systems,
        baseline=baseline,
        rows=list(row_map.values()),
        global_scores=global_scores,
        metadata=dict(metadata or {}),
    )
