"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines on the terminal.
"""

import functools
import json
import math
import random
import sys
import time
from pathlib import Path

import mpmath
import pytest

from benchforge.aggregate import BenchResult, suite_score
from benchforge.design import MLCMatrix, mlcm_metrics
from benchforge.protocol import MetricEvent, decode_event, encode_event, read_stream
from benchforge.worker import SyntheticWorkload, TimerConfig, WorkloadSpec, timed_iterate

from conftest import WORKER_CMD, observed, printed_ulp, printed_value
from test_design import (
    MODEL_TYPE_CLASSES,
    MODEL_TYPE_COUNTS,
    MODEL_TYPE_PRECISION,
    MODEL_TYPE_RECALL,
)
from test_protocol import make_random_event
from test_worker import fold


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {name}: PASS", flush=True)

        return inner

    return wrap


def published_results(reference_results, table):
    for bench, row in reference_results[table].items():
        yield bench, row


def bench_weight(reference_results, bench):
    return reference_results["weights"].get(bench, reference_results["default_weight"])


@criterion("global-score reproduction")
def test_global_score_reproduction(reference_results):
    started = time.perf_counter()
    targets = {"A100": (1170.9, 0.02), "H100": (2263.7, 0.02), "MI300X": (866.7, 0.05)}
    for system, (target, tolerance) in targets.items():
        results = []
        for bench, row in published_results(reference_results, "main"):
            perf = printed_value(row["perf"][system])
            weight = float(bench_weight(reference_results, bench))
            if perf is None:
                results.append(BenchResult(bench, weight, 0.0, 0.0))  # missing: s_i = 0
            else:
                results.append(BenchResult(bench, weight, perf, 1.0))
        assert len(results) == 26
        score = suite_score(results).score
        assert abs(score - target) / target <= tolerance, (system, score, target)
    assert time.perf_counter() - started < 1.0


@criterion("ratio reproduction")
def test_ratio_reproduction(reference_results):
    started = time.perf_counter()
    baseline = reference_results["baseline"]
    checked = 0
    rows = dict(reference_results["main"])
    rows.update(reference_results["optional"])
    rows["Global Score"] = reference_results["global"]
    for bench, row in rows.items():
        base_text = row["perf"][baseline]
        base = printed_value(base_text)
        if base is None:
            continue
        for system, printed_ratio_text in row["ratio"].items():
            printed_ratio = printed_value(printed_ratio_text)
            cand_text = row["perf"][system]
            cand = printed_value(cand_text)
            if printed_ratio is None or cand is None:
                continue
            computed = cand / base
            # Both inputs were printed rounded; allow half an ulp of each,
            # the ratio's own print rounding, and the stated 0.02 slack.
            input_spread = computed * (
                printed_ulp(cand_text) / (2 * cand) + printed_ulp(base_text) / (2 * base)
            )
            tolerance = 0.02 + 0.005 + input_spread
            assert abs(computed - printed_ratio) <= tolerance, (
                bench,
                system,
                computed,
                printed_ratio,
                tolerance,
            )
            checked += 1
    assert checked >= 100  # every printed ratio with both perf cells present

    # The two spelled-out examples at their stated tolerances.
    reformer = printed_value(rows["reformer"]["perf"]["H100"]) / printed_value(
        rows["reformer"]["perf"]["A100"]
    )
    assert abs(reformer - 1.67) <= 0.02
    fp32 = printed_value(rows["fp32"]["perf"]["MI300X"]) / printed_value(
        rows["fp32"]["perf"]["A100"]
    )
    assert abs(round(fp32, 2) - 5.78) <= 0.06 + 1e-12
    assert time.perf_counter() - started < 1.0


@criterion("multi-label confusion-matrix golden rows")
def test_mlcm_golden_rows():
    matrix = MLCMatrix(classes=MODEL_TYPE_CLASSES, counts=MODEL_TYPE_COUNTS)
    rounded = mlcm_metrics(matrix).rounded()
    precision = tuple(rounded[c][0] for c in MODEL_TYPE_CLASSES)
    recall = tuple(rounded[c][1] for c in MODEL_TYPE_CLASSES)
    assert precision == MODEL_TYPE_PRECISION
    assert recall == MODEL_TYPE_RECALL


def random_workload(rng):
    kind = rng.choice(["constant", "jitter", "degrading", "crashing", "multiworker"])
    return WorkloadSpec(
        kind=kind,
        batch_size=rng.randint(1, 256),
        base_rate=10 ** rng.uniform(0, 5),
        jitter_frac=rng.uniform(0, 0.8) if kind in ("jitter", "multiworker") else (
            rng.uniform(0, 0.05) if kind == "degrading" else 0.0
        ),
        crash_after=rng.randint(0, 50) if kind == "crashing" else None,
        workers=rng.randint(2, 4) if kind == "multiworker" else 1,
        batches_per_epoch=rng.randint(1, 40),
    )


def assert_deferred_emission(events):
    """Per task: every rate line sits inside a flush window, after t1."""
    open_flush: dict[str, bool] = {}
    for event in events:
        if event.event == "phase" and event.data.get("phase") == "flush":
            open_flush[event.task] = True
        elif event.event == "progress":
            open_flush[event.task] = False
        elif event.event == "rate":
            assert open_flush.get(event.task), "rate line outside a flush window"
            assert event.data["t1"] <= event.time
            assert event.data["t0"] < event.data["t1"]


@criterion("measurement-budget property (1000 randomized runs)")
def test_measurement_budget_property():
    started = time.perf_counter()
    rng = random.Random(20260810)
    for case in range(1000):
        spec = random_workload(rng)
        obs_min = rng.randint(1, 40)
        cfg = TimerConfig(
            obs_min=obs_min,
            obs_max=rng.randint(obs_min, 80),
            epochs_max=rng.randint(1, 8),
        )
        seed = rng.randint(0, 10_000)
        events = []
        if spec.kind == "multiworker":
            timed_iterate(spec, cfg, events.append, seed=seed)
            log = fold(events)
            if log.terminal == "success":
                for worker in {o.task for o in observed(log)}:
                    count = sum(1 for o in observed(log) if o.task == worker)
                    assert cfg.obs_min <= count <= cfg.obs_max, (case, worker, count)
        else:
            behavior = SyntheticWorkload(spec, seed)
            timed_iterate(behavior, cfg, events.append)
            log = fold(events)
            # The (obs_max + 1)-th batch never starts.
            assert behavior.batches_started <= cfg.obs_max, case
            if log.terminal == "success":
                assert cfg.obs_min <= len(log.work) <= cfg.obs_max, case
        assert_deferred_emission(events)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"budget property took {elapsed:.1f}s"


E2E_SUITE = f"""
suite: desk-e2e
defaults: {{obs_min: 10, obs_max: 20, timeout_s: 120}}
benchmarks:
  - name: steady
    weight: 1
    scale: single-device
    install_cmd: "true"
    prepare_cmd: "python3 -c \\"open('ready','w').write('ok')\\""
    run_cmd: "{WORKER_CMD} --kind constant --batch 32 --rate 640 --obs-min 10 --obs-max 20 --seed {{rank}} --units images"
    unit_of_work: images
  - name: wobbly
    weight: 2
    scale: single-device
    run_cmd: "{WORKER_CMD} --kind jitter --jitter 0.25 --batch 16 --rate 90 --obs-min 10 --obs-max 20 --seed {{rank}} --units tokens"
    unit_of_work: tokens
  - name: fragile
    weight: 1
    scale: single-device
    run_cmd: "{WORKER_CMD} --kind crashing --crash-after 3 --obs-min 10 --obs-max 20 --seed {{rank}}"
  - name: team
    weight: 1
    scale: node-devices
    run_cmd: "{WORKER_CMD} --kind constant --batch 64 --rate 250 --obs-min 10 --obs-max 20 --seed {{rank}} --units steps"
    unit_of_work: steps
"""


def independent_fold(run_dir: Path, suite: dict) -> float:
    """Direct-formula recomputation from the raw .jsonl files.

    Deliberately avoids every benchforge fold/score code path: lines are
    parsed with json.loads, medians picked by sorting, and the score
    evaluated as the literal weighted product at 60-digit precision.
    """
    per_bench: list[tuple[float, float, float]] = []  # (weight, perf, success)
    for bench in suite["benchmarks"]:
        name, weight, scale = bench["name"], bench["weight"], bench["scale"]
        obs_min = bench.get("obs_min", suite["defaults"]["obs_min"])
        outcomes = json.loads((run_dir / name / "outcomes.json").read_text())["outcomes"]
        rates, successes = [], []
        for row in outcomes:
            lines = (run_dir / name / f"{row['rank']}.jsonl").read_text().splitlines()
            events = [json.loads(l) for l in lines if l.strip()]
            obs = [e for e in events if e["event"] == "rate"]
            finished_ok = any(e["event"] == "success" for e in events)
            ok = row["exit_code"] == 0 and finished_ok and len(obs) >= obs_min
            successes.append(ok)
            kept = [e["data"]["rate"] for e in obs if not e["data"].get("warmup")]
            if not kept:
                kept = [e["data"]["rate"] for e in obs]
            if kept:
                ordered = sorted(kept)
                mid = len(ordered) // 2
                median = (
                    ordered[mid]
                    if len(ordered) % 2
                    else (ordered[mid - 1] + ordered[mid]) / 2
                )
                rates.append(median)
            else:
                rates.append(None)
        if scale == "single-device":
            good = [r for r, ok in zip(rates, successes) if ok]
            perf = sum(good) / len(good) if good else 0.0
            s = sum(successes) / len(successes)
        else:
            gang_ok = all(successes)
            perf = sum(rates) if gang_ok else 0.0
            s = 1.0 if gang_ok else 0.0
        per_bench.append((weight, perf, s))

    with mpmath.workdps(60):
        product = mpmath.mpf(1)
        total_w = mpmath.mpf(0)
        for weight, perf, s in per_bench:
            if weight <= 0:
                continue
            product *= (mpmath.mpf(perf) * mpmath.mpf(s) + 1) ** mpmath.mpf(weight)
            total_w += mpmath.mpf(weight)
        return float(product ** (1 / total_w))


@criterion("end-to-end pipeline on a 4-device pool")
def test_end_to_end_pipeline(tmp_path):
    import yaml

    from benchforge.cli import main as cli_main

    started = time.perf_counter()
    suite_path = tmp_path / "suite.yaml"
    suite_path.write_text(E2E_SUITE)
    base = tmp_path / "base"

    assert cli_main(["install", "--config", str(suite_path), "--base-dir", str(base)]) == 0
    assert cli_main(["prepare", "--config", str(suite_path), "--base-dir", str(base)]) == 0
    assert (base / "data" / "steady" / "ready").read_text() == "ok"

    # The crashing benchmark fails; run exits 3 but still reports.
    rc = cli_main(
        [
            "run",
            "--config",
            str(suite_path),
            "--base-dir",
            str(base),
            "--devices",
            "d0,d1,d2,d3",
            "--system",
            "deskbox",
        ]
    )
    assert rc == 3
    (run_dir,) = list((base / "runs").iterdir())

    out_json = tmp_path / "report.json"
    assert (
        cli_main(
            ["report", "--runs", str(run_dir), "--format", "json", "-o", str(out_json)]
        )
        == 0
    )
    payload = json.loads(out_json.read_text())

    fragile = next(r for r in payload["rows"] if r["bench"] == "fragile")
    assert fragile["results"]["deskbox"]["success_rate"] < 1.0
    steady = next(r for r in payload["rows"] if r["bench"] == "steady")
    assert steady["results"]["deskbox"]["success_rate"] == 1.0
    team = next(r for r in payload["rows"] if r["bench"] == "team")
    assert team["results"]["deskbox"]["perf"] == pytest.approx(4 * 250.0, rel=0.05)

    reported = payload["global"]["deskbox"]["score"]
    suite_doc = yaml.safe_load(E2E_SUITE)
    independent = independent_fold(run_dir, suite_doc)
    assert abs(reported - independent) / independent <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"end-to-end took {elapsed:.1f}s"


def random_results(rng, n=None):
    n = n or rng.randint(1, 30)
    return [
        BenchResult(
            bench=f"b{i}",
            weight=rng.choice([0.5, 1.0, 2.0, 3.0]),
            perf=rng.uniform(0, 10 ** rng.uniform(0, 8)),
            success_rate=rng.choice([0.0, 0.25, 0.5, 1.0]),
        )
        for i in range(n)
    ]


@criterion("score invariance suite (>=500 property cases)")
def test_score_invariances():
    rng = random.Random(42)
    cases = 0

    for _ in range(150):  # weight scaling, 1e-12 relative
        results = random_results(rng)
        c = rng.uniform(1e-3, 1e3)
        scaled = [BenchResult(r.bench, r.weight * c, r.perf, r.success_rate) for r in results]
        a, b = suite_score(results).score, suite_score(scaled).score
        assert abs(a - b) / a <= 1e-12
        cases += 1

    for _ in range(150):  # strict monotonicity in p_i
        results = random_results(rng)
        live = [i for i, r in enumerate(results) if r.success_rate > 0 and r.weight > 0]
        if not live:
            continue
        i = rng.choice(live)
        bumped = list(results)
        bumped[i] = BenchResult(
            results[i].bench, results[i].weight, results[i].perf * 2 + 1, results[i].success_rate
        )
        assert suite_score(bumped).score > suite_score(results).score
        cases += 1

    for _ in range(100):  # permutation invariance
        results = random_results(rng)
        shuffled = list(results)
        rng.shuffle(shuffled)
        assert suite_score(shuffled).score == pytest.approx(
            suite_score(results).score, rel=1e-13
        )
        cases += 1

    for _ in range(100):  # uniform suite: p + 1, exact to double rounding
        p = 10 ** rng.uniform(-3, 8)
        n = rng.randint(1, 25)
        score = suite_score([BenchResult(f"b{i}", 2.0, p, 1.0) for i in range(n)]).score
        assert abs(score - (p + 1.0)) / (p + 1.0) <= 1e-14
        cases += 1

    for _ in range(100):  # log domain vs extended-precision direct product
        results = random_results(rng)
        got = suite_score(results).score
        with mpmath.workdps(80):
            product = mpmath.mpf(1)
            total = mpmath.mpf(0)
            for r in results:
                if r.weight <= 0:
                    continue
                product *= (
                    mpmath.mpf(r.perf) * mpmath.mpf(r.success_rate) + 1
                ) ** mpmath.mpf(r.weight)
                total += mpmath.mpf(r.weight)
            want = float(product ** (1 / total))
        assert abs(got - want) / want <= 1e-9
        cases += 1

    assert cases >= 500


@criterion("protocol conformance (10k events + golden corpus)")
def test_protocol_conformance(protocol_corpus):
    rng = random.Random(1234)
    events = [make_random_event(rng) for _ in range(10_000)]
    payload = b""
    for event in events:
        line = encode_event(event)
        assert decode_event(line) == event  # round-trip identity
        payload += line.encode()

    for trial in range(3):  # chunk-boundary invariance over the same stream
        chop = random.Random(trial)
        chunks, pos = [], 0
        while pos < len(payload):
            step = chop.randint(1, 8192)
            chunks.append(payload[pos : pos + step])
            pos += step
        assert [item for item in read_stream(chunks) if isinstance(item, MetricEvent)] == events

    assert len(protocol_corpus) == 20
    for line in protocol_corpus:  # bit-exact golden corpus
        event = decode_event(line)
        assert encode_event(event) == line
