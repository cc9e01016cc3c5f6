"""Report rendering tests: text layout, humanization, CSV/JSON consistency."""

import json
import random
import re

import pytest

from benchforge.aggregate import BenchResult
from benchforge.report import (
    ReportError,
    humanize,
    render_csv,
    render_json,
    render_report,
    render_text,
)
from report_readback import document_from_csv, parse_humanized


def results_for(perfs: dict[str, float | None], weights: dict[str, float] | None = None):
    weights = weights or {}
    out = []
    for bench, perf in perfs.items():
        if perf is None:
            out.append(BenchResult(bench, weights.get(bench, 1.0), 0.0, 0.0))
        else:
            out.append(BenchResult(bench, weights.get(bench, 1.0), perf, 1.0))
    return out


def squash(line: str) -> str:
    return re.sub(r"\s+", " ", line).strip()


class TestHumanize:
    def test_published_table_styles(self):
        assert humanize(264.7) == "264.7"
        assert humanize(16800.0) == "16.8K"
        assert humanize(32.2e6) == "32.2M"
        assert humanize(727.5e3) == "727.5K"
        assert humanize(2.3) == "2.3"
        assert humanize(None) == ""

    def test_round_trip_within_five_hundredths_percent(self):
        rng = random.Random(77)
        for _ in range(2000):
            value = 10 ** rng.uniform(3, 9)
            back = parse_humanized(humanize(value))
            assert abs(back - value) / value <= 5e-4

    def test_extra_decimals_only_when_needed(self):
        assert humanize(16837.3) == "16.84K"
        assert humanize(1000.0) == "1.0K"


class TestRenderText:
    def test_two_system_row_layout(self):
        results = {
            "A100": results_for({"reformer": 62.3}),
            "H100": results_for({"reformer": 103.7}),
        }
        doc = render_report(results, baseline="A100")
        text = render_text(doc)
        row = next(line for line in text.splitlines() if line.startswith("reformer"))
        assert squash(row) == "reformer | 1.66 | 62.3 | 103.7"

    def test_failed_bench_blank_cells_but_score_printed(self):
        results = {
            "A100": results_for({"alpha": 10.0, "beta": 20.0}),
            "X": results_for({"alpha": 10.0, "beta": None}),
        }
        doc = render_report(results, baseline="A100")
        text = render_text(doc)
        row_b = next(line for line in text.splitlines() if line.startswith("beta"))
        assert squash(row_b) == "beta | | 20.0 |"
        final = text.splitlines()[-1]
        assert final.startswith("Global Score")
        assert squash(final).count("|") == 3

    def test_single_system_has_no_ratio_columns(self):
        doc = render_report({"only": results_for({"a": 5.0})})
        text = render_text(doc)
        assert "ratio" not in text
        assert "perf:only" in text

    def test_global_row_matches_suite_score(self):
        results = {"s": results_for({"a": 3.0, "b": 8.0})}
        doc = render_report(results)
        text = render_text(doc)
        assert text.splitlines()[-1].split("|")[-1].strip() == "6.0"

    def test_missing_baseline_is_an_error(self):
        with pytest.raises(ReportError, match="baseline"):
            render_report({"a": results_for({"x": 1.0})}, baseline="nope")

    def test_mismatched_bench_sets_rejected(self):
        with pytest.raises(ReportError, match="different benchmark set"):
            render_report(
                {"a": results_for({"x": 1.0}), "b": results_for({"y": 1.0})},
                baseline="a",
            )

    def test_row_order_follows_input_order(self):
        order = ["zeta", "alpha", "mid"]
        results = {"s": results_for({n: 1.0 for n in order})}
        doc = render_report(results)
        assert [r.bench for r in doc.rows] == order


class TestSerializationConsistency:
    def build_doc(self):
        rng = random.Random(500)
        benches = {f"bench-{i}": rng.uniform(0.5, 1e7) for i in range(8)}
        benches["dead"] = None
        weights = {b: rng.choice([0.0, 1.0, 2.0]) for b in benches}
        weights["bench-0"] = 1.0  # keep total weight positive
        results = {
            "base": results_for({b: (v * 0.7 if v else v) for b, v in benches.items()}, weights),
            "cand": results_for(benches, weights),
        }
        return render_report(
            results, baseline="base", metadata={"suite": "s", "suite_sha256": "00ff"}
        )

    def test_csv_parse_rerender_json_equals_direct_json(self):
        doc = self.build_doc()
        direct = render_json(doc)
        rebuilt = document_from_csv(render_csv(doc), metadata=doc.metadata)
        assert render_json(rebuilt) == direct

    def test_csv_header_shape(self):
        doc = self.build_doc()
        header = render_csv(doc).splitlines()[0]
        assert header == "system,bench,weight,perf,success_rate,ratio_vs_base"

    def test_csv_full_precision(self):
        doc = self.build_doc()
        lines = render_csv(doc).splitlines()[1:]
        perfs = {
            (row.bench, system): row.cells[system].perf
            for row in doc.rows
            for system in doc.systems
        }
        checked = 0
        for line in lines:
            system, bench, _, perf, *_ = line.split(",")
            if bench in {r.bench for r in doc.rows} and perf:
                assert float(perf) == perfs[(bench, system)]  # exact, not approximate
                checked += 1
        assert checked > 0

    def test_json_contains_raw_values_and_nulls(self):
        doc = self.build_doc()
        payload = json.loads(render_json(doc))
        assert payload["baseline"] == "base"
        dead = next(r for r in payload["rows"] if r["bench"] == "dead")
        assert dead["results"]["cand"]["perf"] is None
        assert dead["results"]["cand"]["success_rate"] == 0.0
        assert payload["global"]["cand"]["score"] > 0

    def test_global_printed_equals_recomputed(self):
        doc = self.build_doc()
        payload = json.loads(render_json(doc))
        from benchforge.aggregate import suite_score

        rng = random.Random(500)  # rebuild the same inputs
        benches = {f"bench-{i}": rng.uniform(0.5, 1e7) for i in range(8)}
        benches["dead"] = None
        weights = {b: rng.choice([0.0, 1.0, 2.0]) for b in benches}
        weights["bench-0"] = 1.0
        direct = suite_score(results_for(benches, weights)).score
        assert payload["global"]["cand"]["score"] == pytest.approx(direct, rel=1e-12)
