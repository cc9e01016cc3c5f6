"""Independent recomputation of a report from a run directory's raw streams.

Only the raw ``<bench>/<rank>.jsonl`` lines and the suite's weights,
scales and ``obs_min`` are read; no benchforge code is used. The rules:

- a process succeeded when its first terminal event is ``success`` and it
  sent at least ``obs_min`` rate lines;
- its rate is the median of its non-warmup ``rate`` values (all of them
  when every value is a warmup one);
- a single-device benchmark's perf is the mean over successful processes
  and its success rate the share that succeeded;
- a gang's perf is the sum over ranks when every rank succeeded, else 0;
- the score is ``exp(sum w*log1p(p*s) / sum w)`` over weighted benchmarks.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import yaml

REL_TOL = 1e-9


def _process(stream: Path) -> tuple[float | None, bool, int]:
    """(rate, succeeded, rate line count) of one raw stream."""
    rates, warm, terminal = [], [], None
    for raw in stream.read_bytes().split(b"\n"):
        try:
            line = json.loads(raw)
        except ValueError:
            continue
        if not isinstance(line, dict):
            continue
        kind, data = line.get("event"), line.get("data")
        if kind == "rate" and isinstance(data, dict):
            rate = data.get("rate")
            if isinstance(rate, (int, float)) and not isinstance(rate, bool) and rate > 0:
                (warm if data.get("warmup") else rates).append(float(rate))
        elif kind in ("success", "error") and terminal is None:
            terminal = kind
    count = len(rates) + len(warm)
    chosen = rates or warm
    return (statistics.median(chosen) if chosen else None), terminal == "success", count


def expected_report(run_dir: Path, suite_text: str) -> dict:
    suite = yaml.safe_load(suite_text)
    default_obs_min = (suite.get("defaults") or {}).get("obs_min", 30)
    rows, weighted = {}, []
    for bench in suite["benchmarks"]:
        if not bench.get("enabled", True):
            continue
        name, weight = bench["name"], float(bench.get("weight", 1))
        obs_min = bench.get("obs_min", default_obs_min)
        streams = sorted((run_dir / name).glob("*.jsonl"), key=lambda p: int(p.stem))
        procs = [_process(p) for p in streams]
        ok = [good and rate is not None and n >= obs_min for rate, good, n in procs]
        if bench.get("scale", "single-device") == "single-device":
            good = [rate for (rate, _, _), fine in zip(procs, ok) if fine]
            perf = sum(good) / len(good) if good else 0.0
            success = sum(ok) / len(ok) if ok else 0.0
        elif ok and all(ok):
            perf, success = sum(rate for rate, _, _ in procs), 1.0
        else:
            perf, success = 0.0, 0.0
        rows[name] = (perf, success)
        if weight > 0:
            weighted.append((weight, perf * success))
    total = sum(w for w, _ in weighted)
    score = math.exp(sum(w * math.log1p(ps) for w, ps in weighted) / total)
    return {"rows": rows, "score": score}


def compare(report: dict, expected: dict) -> list[str]:
    """Differences between a ``report --format json`` document and the oracle."""
    problems = []
    (system,) = report["systems"]
    got_rows = {row["bench"]: row["results"][system] for row in report["rows"]}
    if list(got_rows) != list(expected["rows"]):
        return [f"benchmarks differ: {list(got_rows)} != {list(expected['rows'])}"]
    for bench, (perf, success) in expected["rows"].items():
        cell = got_rows[bench]
        got_perf = cell["perf"] if cell["perf"] is not None else 0.0
        if not math.isclose(got_perf, perf, rel_tol=REL_TOL):
            problems.append(f"{bench}: perf {got_perf!r} != oracle {perf!r}")
        if not math.isclose(cell["success_rate"], success, rel_tol=REL_TOL):
            problems.append(f"{bench}: success {cell['success_rate']!r} != oracle {success!r}")
    got_score = report["global"][system]["score"]
    if not math.isclose(got_score, expected["score"], rel_tol=REL_TOL):
        problems.append(f"score {got_score!r} != oracle {expected['score']!r}")
    return problems
