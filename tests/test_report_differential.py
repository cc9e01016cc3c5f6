"""Differential check of ``report`` on generated run directories.

Each example writes a run directory directly, as ``run`` would have left
it, with no child process: a rendered ``suite.yaml`` and its JSON copy
``suite.json``, ``meta.json``, one ``outcomes.json`` per enabled
benchmark, and per process a metric stream and maybe its ``.fold``
sidecar. ``report --format json`` is compared with an oracle written here
from docs/protocol.md and the score formula, at the tolerance of
``perfbench/oracle.py``. Metamorphic properties ride along: deleting
every sidecar, and then ``suite.json``, leaves the text, CSV and JSON
bytes unchanged; permuting the benchmarks or scaling every weight by one
positive factor leaves the score unchanged; raising one benchmark's rates
never lowers it; and adding a weight-0 benchmark never moves it.
"""

import hashlib
import importlib.util
import json
import math
import statistics
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from benchforge.cli import main
from benchforge.executor import LogFold, fold_sidecar
from benchforge.suite import SCALE_MODES, BenchmarkSpec, SuiteConfig, render_suite, suite_document, text_sha256
from conftest import REPO_DIR


def _rel_tol() -> float:
    spec = importlib.util.spec_from_file_location("perfbench_oracle", REPO_DIR / "perfbench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REL_TOL


REL_TOL = _rel_tol()
SYSTEM = "sut"


def _line(event: str, data: dict, task: str = "train", time: float = 100.0) -> bytes:
    return json.dumps({"event": event, "time": time, "task": task, "data": data}).encode() + b"\n"


def _stamped(batch: float, t0: float, span: float, warmup: bool, task: str) -> tuple:
    data = {"batch": batch, "rate": batch / span, "t0": t0, "t1": t0 + span, "units": "x", "warmup": warmup}
    return _line("rate", data, task), (batch, (t0 + span) - t0, warmup)


# A stream line and the observation (work, elapsed, warmup) the protocol makes of it, or None.
_tasks = st.sampled_from(["train", "worker-1", "worker-2"])
_stamped_rate = st.builds(
    _stamped,
    st.sampled_from([1, 2.5, 32, 1000.5]),
    st.sampled_from([0.0, 0.125, 7.0, 50.3]),
    st.sampled_from([0.001, 0.25, 0.5, 1.0, 3.0]),
    st.booleans(),
    _tasks,
)
_rate_only = st.builds(
    lambda batch, rate, warmup, task: (
        _line("rate", {"batch": batch, "rate": rate, "units": "x", **({"warmup": True} if warmup else {})}, task),
        (batch, batch / rate, warmup),
    ),
    st.sampled_from([1, 8, 2048]),
    st.sampled_from([0.5, 2.3, 64.0, 32200000.0]),
    st.booleans(),
    _tasks,
)
_unscored = st.sampled_from(
    [
        _line("start", {}),
        _line("progress", {"observations": 3, "budget": 9}),
        _line("success", {}),
        _line("error", {"message": "boom"}),
        _line("end", {}),
        # A timing fault: finite stamps whose span overflows.
        _line("rate", {"batch": 1, "rate": 1, "t0": -1e308, "t1": 1e308, "units": "x"}),
        _line("rate", {"batch": 1, "rate": -2.0, "units": "x"}),
        _line("nonsense", {}),
        b'{"event":"rate"}\n',
        b"not json at all\n",
        b"[1, 2]\n",
        b"\n",
    ]
).map(lambda raw: (raw, None))
_items = st.lists(st.one_of(_stamped_rate, _rate_only, _unscored), max_size=12)


@st.composite
def _stream(draw):
    """(bytes, observations) of one process; the last line may be cut or left unterminated."""
    items = draw(_items)
    tail = draw(st.sampled_from(["whole", "unterminated", "cut"]))
    if items and tail == "unterminated":
        raw, obs = items[-1]
        items[-1] = (raw.rstrip(b"\n"), obs)
    elif items and tail == "cut":
        raw, _ = items[-1]
        items[-1] = (raw[: max(1, len(raw) // 2)].rstrip(b"\n"), None)
    return b"".join(raw for raw, _ in items), [obs for _, obs in items if obs is not None]


_process = st.fixed_dictionaries(
    {
        "stream": st.none() | _stream(),  # None: the process never started, so its stream is empty
        "classified": st.sampled_from(["success", "success", "error", "timeout"]),
        "sidecar": st.sampled_from(["present", "absent", "stale"]),
    }
)
_benchmark = st.fixed_dictionaries(
    {
        "scale": st.sampled_from(SCALE_MODES),
        "weight": st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        "enabled": st.sampled_from([True, True, True, False]),
        "obs_min": st.integers(1, 3),
        # An empty list is a benchmark whose launch could not be planned.
        "processes": st.lists(_process, max_size=3),
    }
)
_runs = st.lists(_benchmark, min_size=1, max_size=6).filter(
    lambda benches: any(b["enabled"] and b["weight"] > 0 for b in benches)
)


def write_run(run_dir: Path, benches: list[dict], order: list[int]) -> None:
    """A run directory of the benchmarks ``benches[i]`` for i in ``order``, benchmark i named ``b<i>``."""
    specs = tuple(
        BenchmarkSpec(
            name=f"b{i}",
            weight=benches[i]["weight"],
            enabled=benches[i]["enabled"],
            scale=benches[i]["scale"],
            run_cmd="w --seed {rank}",
            obs_min=benches[i]["obs_min"],
            obs_max=5,
        )
        for i in order
    )
    cfg = SuiteConfig("differential", specs)
    rendered = render_suite(cfg)
    document = json.dumps(suite_document(cfg)).encode("ascii")
    run_dir.mkdir(parents=True)
    (run_dir / "suite.yaml").write_text(rendered, encoding="utf-8")
    (run_dir / "suite.json").write_bytes(document)
    meta = {
        "suite_name": "differential",
        "suite_sha256": text_sha256(rendered),
        "suite_json_sha256": hashlib.sha256(document).hexdigest(),
        "system": SYSTEM,
        "pool": None,
    }
    (run_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    for i in order:
        bench = benches[i]
        if not bench["enabled"]:
            continue
        bench_dir = run_dir / f"b{i}"
        bench_dir.mkdir()
        gang = None if bench["scale"] == "single-device" else f"b{i}:gang"
        rows = [
            {
                "rank": rank,
                "devices": [f"d{rank}"],
                "gang_id": gang,
                "exit_code": 0 if proc["classified"] == "success" else 1,
                "duration_s": 0.5,
                "classified": proc["classified"],
            }
            for rank, proc in enumerate(bench["processes"])
        ]
        error = None if rows else "insufficient nodes"
        payload = {"bench": f"b{i}", "error": error, "phase_durations": {"run": 1.0}, "outcomes": rows}
        (bench_dir / "outcomes.json").write_text(json.dumps(payload), encoding="utf-8")
        for rank, proc in enumerate(bench["processes"]):
            if proc["stream"] is None:  # as run leaves it: an empty stream and no sidecar
                (bench_dir / f"{rank}.jsonl").touch()
            else:
                _write_stream(bench_dir, rank, proc["stream"][0], proc["sidecar"])


def _write_stream(bench_dir: Path, rank: int, data: bytes, sidecar: str) -> None:
    (bench_dir / f"{rank}.jsonl").write_bytes(data)
    if sidecar == "absent":
        return
    # A stale sidecar is the fold of the stream as it was one line earlier.
    folded = data if sidecar == "present" else data[: data.rstrip(b"\n").rfind(b"\n") + 1]
    fold = LogFold()
    fold.feed(folded)
    digest = hashlib.sha256(folded).hexdigest()
    (bench_dir / f"{rank}.fold").write_bytes(fold_sidecar(fold.finish(), digest, len(folded)))


def oracle(benches: list[dict], keep_warmup: bool) -> dict:
    """Per enabled benchmark (perf, success rate), and the score, from docs/protocol.md and the paper."""
    rows, weighted = {}, []
    for i, bench in enumerate(benches):
        if not bench["enabled"]:
            continue
        rates, ok = [], []
        for proc in bench["processes"]:
            observations = proc["stream"][1] if proc["stream"] is not None else []
            # Timing faults: a span or a rate that is not finite and positive is not scored.
            kept = [(work / span, warm) for work, span, warm in observations if 0 < span < math.inf]
            kept = [(rate, warm) for rate, warm in kept if 0 < rate < math.inf]
            chosen = [r for r, warm in kept if keep_warmup or not warm] or [r for r, _ in kept]
            rates.append(statistics.median(chosen) if chosen else None)
            ok.append(proc["classified"] == "success")
        if not ok:
            perf, success = 0.0, 0.0
        elif bench["scale"] == "single-device":
            good = [r for r, fine in zip(rates, ok) if fine and r is not None]
            perf, success = (sum(good) / len(good) if good else 0.0), sum(ok) / len(ok)
        elif all(ok) and None not in rates:
            perf, success = sum(rates), 1.0
        else:
            perf, success = 0.0, 0.0
        rows[f"b{i}"] = (bench["weight"], perf, success)
        if bench["weight"] > 0:
            weighted.append((bench["weight"], perf * success))
    total = sum(w for w, _ in weighted)
    score = math.exp(sum(w * math.log1p(ps) for w, ps in weighted) / total)
    return {"rows": rows, "score": score, "total_weight": total}


def report(run_dir: Path, fmt: str, keep_warmup: bool) -> str:
    out = run_dir.parent / f"{run_dir.name}.{fmt}"
    argv = ["report", "--runs", str(run_dir), "--format", fmt, "-o", str(out)]
    assert main(argv + (["--keep-warmup"] if keep_warmup else [])) == 0
    return out.read_text(encoding="utf-8")


def assert_matches_oracle(document: dict, expected: dict) -> None:
    assert document["systems"] == [SYSTEM]
    assert [row["bench"] for row in document["rows"]] == list(expected["rows"])
    for row in document["rows"]:
        weight, perf, success = expected["rows"][row["bench"]]
        cell = row["results"][SYSTEM]
        assert row["weight"] == weight
        assert math.isclose(cell["success_rate"], success, rel_tol=REL_TOL), row
        if success == 0:
            assert cell["perf"] is None, row
        else:
            assert math.isclose(cell["perf"], perf, rel_tol=REL_TOL), (row, perf)
    score = document["global"][SYSTEM]
    assert math.isclose(score["score"], expected["score"], rel_tol=REL_TOL), (score, expected["score"])
    assert math.isclose(score["total_weight"], expected["total_weight"], rel_tol=REL_TOL)


@settings(max_examples=40, deadline=None)
@given(benches=_runs, keep_warmup=st.booleans(), data=st.data())
def test_report_matches_the_oracle_and_its_metamorphic_properties(benches, keep_warmup, data):
    order = list(range(len(benches)))
    permuted = data.draw(st.permutations(order), label="permuted")
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        write_run(run_dir, benches, order)
        rendered = {fmt: report(run_dir, fmt, keep_warmup) for fmt in ("json", "text", "csv")}
        document = json.loads(rendered["json"])
        assert_matches_oracle(document, oracle(benches, keep_warmup))

        for sidecar in run_dir.glob("*/*.fold"):
            sidecar.unlink()
        assert {fmt: report(run_dir, fmt, keep_warmup) for fmt in rendered} == rendered
        (run_dir / "suite.json").unlink()
        assert {fmt: report(run_dir, fmt, keep_warmup) for fmt in rendered} == rendered

        other = Path(tmp) / "permuted"
        write_run(other, benches, permuted)
        shuffled = json.loads(report(other, "json", keep_warmup))
        assert shuffled["global"] == document["global"]
        assert sorted(shuffled["rows"], key=lambda row: row["bench"]) == sorted(
            document["rows"], key=lambda row: row["bench"]
        )


def _score(run_dir: Path) -> float:
    return json.loads(report(run_dir, "json", False))["global"][SYSTEM]["score"]


def _raised(data: bytes, factor: float) -> bytes:
    """``data`` with the work and the rate of each decodable rate line times ``factor``."""
    lines = []
    for line in data.split(b"\n"):
        try:
            event = json.loads(line)
            event["data"]["batch"] *= factor
            event["data"]["rate"] *= factor
            line = json.dumps(event).encode()
        except (ValueError, TypeError, KeyError):  # not a rate line: left as it is
            pass
        lines.append(line)
    return b"\n".join(lines)


@settings(max_examples=15, deadline=None)
@given(benches=_runs, factor=st.sampled_from([0.125, 3.0, 1000.0]))
def test_scaling_every_weight_keeps_the_score(benches, factor):
    scaled = [{**bench, "weight": bench["weight"] * factor} for bench in benches]
    order = list(range(len(benches)))
    with tempfile.TemporaryDirectory() as tmp:
        write_run(Path(tmp) / "run", benches, order)
        write_run(Path(tmp) / "scaled", scaled, order)
        assert math.isclose(_score(Path(tmp) / "scaled"), _score(Path(tmp) / "run"), rel_tol=REL_TOL)


@settings(max_examples=15, deadline=None)
@given(benches=_runs, factor=st.sampled_from([1.5, 10.0]), data=st.data())
def test_raising_one_benchmarks_rates_never_lowers_the_score(benches, factor, data):
    index = data.draw(st.integers(0, len(benches) - 1), label="raised")
    processes = [
        {**proc, "stream": proc["stream"] and (_raised(proc["stream"][0], factor), None)}
        for proc in benches[index]["processes"]
    ]
    raised = [*benches[:index], {**benches[index], "processes": processes}, *benches[index + 1 :]]
    order = list(range(len(benches)))
    with tempfile.TemporaryDirectory() as tmp:
        write_run(Path(tmp) / "run", benches, order)
        write_run(Path(tmp) / "raised", raised, order)
        assert _score(Path(tmp) / "raised") >= _score(Path(tmp) / "run") * (1 - REL_TOL)


@settings(max_examples=15, deadline=None)
@given(benches=_runs, extra=_benchmark)
def test_adding_a_weight_0_benchmark_never_moves_the_score(benches, extra):
    added = [*benches, {**extra, "weight": 0.0}]
    with tempfile.TemporaryDirectory() as tmp:
        write_run(Path(tmp) / "run", benches, list(range(len(benches))))
        write_run(Path(tmp) / "added", added, list(range(len(added))))
        assert _score(Path(tmp) / "added") == _score(Path(tmp) / "run")
