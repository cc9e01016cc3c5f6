"""End-to-end and per-layer benchmark of the benchforge harness.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite-run --seed 1 --seconds 20 --trace 0

It drives the benchforge CLI (``run`` and ``report``) from the checkout's
``src/`` as a user would, times every command from outside, and checks
every op's output: against an independent recomputation of the report
(suite-run, long-streams) or against a fixed expected-outcome table
(faults). With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs the CLI under ``perfbench/tracer.py`` and prints the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with the result.

Everything it writes goes to ``.bench_work/`` in the repository root,
which it empties at start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import suites
import tracer

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
REFERENCE_SUITE = ROOT / "configs" / "reference-suite.yaml"
TRACER = Path(tracer.__file__).resolve()
SYSTEM = "perfbench"
SETUP_REPEATS = 3
PROBE_REPEATS = 7
COMMAND_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "overhead_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "worker.bare_python_ms": "ms",
    "worker.import_ms": "ms",
    "worker.modules_loaded": "count",
    "cli.import_ms": "ms",
    "cli.report_ms": "ms",
    "executor.supervise_ms_p50": "ms",
    "executor.supervise_ms_max": "ms",
    "executor.threads_peak": "count",
    "executor.procs": "count",
    "executor.procs_failed": "count",
    "executor.orphans": "count",
    "executor.run_self_ms": "ms",
    "executor.load_run_ms": "ms",
    "executor.log_from_events_ms": "ms",
    "protocol.frame_ms": "ms",
    "protocol.decode_ms": "ms",
    "protocol.decode_us_per_line": "us",
    "protocol.lines": "count",
    "protocol.bytes": "count",
    "protocol.rejections": "count",
    "suite.parse_ms": "ms",
    "suite.render_ms": "ms",
    "suite.sha256_ms": "ms",
    "aggregate.fold_ms": "ms",
    "aggregate.score_ms": "ms",
    "report.render_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = child_env()


@dataclass
class Timed:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str


def spawn(argv: list[str], log: Path) -> Timed:
    """Run one command to completion; wall time and rusage come from wait4."""
    with open(log, "w", encoding="utf-8") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=ENV, cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Timed(wall, usage.ru_maxrss / 1024.0, proc.returncode, log.read_text(encoding="utf-8"))


def cli(args: list[str], log: Path, spans: Path | None = None) -> Timed:
    if spans is None:
        return spawn([sys.executable, "-m", "benchforge.cli", *args], log)
    return spawn([sys.executable, str(TRACER), str(spans), *args], log)


def spawn_floor(groups: list[tuple[list[str], int]]) -> float:
    """Launch bare interpreters group by group, each group's processes at once."""
    started = time.perf_counter()
    for argv, count in groups:
        procs = [subprocess.Popen(argv, env=ENV, cwd=ROOT) for _ in range(count)]
        for proc in procs:
            proc.wait()
            if proc.returncode != 0:
                raise SetupError(f"spawn floor process {argv} exited {proc.returncode}")
    return time.perf_counter() - started


class Bench:
    """One workload: set-up, ops, checks and metrics."""

    def __init__(self, workload: suites.Workload, seed: int) -> None:
        self.w = workload
        self.seed = seed
        self.counter = 0
        self.failures: list[str] = []
        self.attempted = 0
        self.failed_ops = 0
        self.orphans = 0
        self.size: dict | None = None
        if workload.name == "suite-run":
            self.suite_text = REFERENCE_SUITE.read_text(encoding="utf-8")
        elif workload.name == "long-streams":
            self.suite_text = suites.long_streams_suite(seed)
        else:
            self.suite_text = suites.faults_suite(seed)
        self.floor_groups = self._floor_groups()

    def _dir(self, kind: str) -> Path:
        self.counter += 1
        path = WORK / f"{self.counter:03d}-{kind}"
        path.mkdir(parents=True)
        return path

    def _floor_groups(self) -> list[tuple[list[str], int]]:
        """The op's processes: CLI interpreters, and one group per benchmark."""
        bare_cli = [sys.executable, "-c", "pass"]
        if "run" not in self.w.op:
            return [(bare_cli, 1)]
        import yaml

        devices, nodes = self.w.devices, self.w.nodes
        node0 = len(devices) // nodes + (1 if len(devices) % nodes else 0)
        groups = [(bare_cli, 1)]
        for bench in yaml.safe_load(self.suite_text)["benchmarks"]:
            if bench["name"] == "missing-binary":
                continue  # its launch fails before any process exists
            count = node0 if bench.get("scale", "single-device") == "node-devices" else len(devices)
            groups.append((["python3", "-c", "pass"], count))
        groups.append((bare_cli, 1))
        return groups

    # -- set-up ---------------------------------------------------------

    def setup(self, spans_dir: Path | None = None) -> dict:
        """Write the suite, run install and prepare, and for long-streams the run."""
        started = time.perf_counter()
        base = self._dir("setup")
        if self.w.name == "suite-run":
            config = REFERENCE_SUITE
        else:
            config = base / "suite.yaml"
            config.write_text(self.suite_text, encoding="utf-8")
        ctx = {"base": base, "config": config, "spans": []}
        for phase in ("install", "prepare"):
            result = self._cli([phase, "--config", str(config), "--base-dir", str(base)], base, phase, ctx, spans_dir)
            if result.code != 0:
                raise SetupError(f"{phase} exited {result.code}: {result.stdout}")
        if "run" not in self.w.op:
            result = self._cli(self._run_args(config, base), base, "setup-run", ctx, spans_dir)
            if result.code != 0:
                raise SetupError(f"set-up run exited {result.code}: {result.stdout}")
            ctx["run_dir"] = self._run_dir(result)
        ctx["setup_s"] = time.perf_counter() - started
        return ctx

    def _cli(self, args, base: Path, name: str, ctx: dict | None, spans_dir: Path | None) -> Timed:
        spans = None
        if spans_dir is not None:
            spans = spans_dir / f"{base.name}-{name}.spans.jsonl"
            ctx["spans"].append(spans)
        return cli(args, base / f"{name}.log", spans)

    def _run_args(self, config: Path, base: Path) -> list[str]:
        return [
            "run", "--config", str(config), "--base-dir", str(base),
            "--devices", ",".join(self.w.devices), "--nodes", str(self.w.nodes),
            "--system", SYSTEM,
        ]

    @staticmethod
    def _run_dir(result: Timed) -> Path:
        for line in result.stdout.splitlines():
            if line.startswith("run directory: "):
                return ROOT / line.removeprefix("run directory: ")
        raise SetupError(f"run printed no run directory: {result.stdout}")

    # -- ops ------------------------------------------------------------

    def op(self, ctx: dict, spans_dir: Path | None = None) -> dict:
        """One timed op; returns its timings and the report bytes.

        Untraced, the report is timed ``report_repeats`` times; the op
        counts their median, and every repeat must give the same bytes.
        """
        base = self._dir("traced" if spans_dir else "op")
        run_s, rss, run_dir, run_code = 0.0, 0.0, ctx.get("run_dir"), None
        if "run" in self.w.op:
            result = self._cli(self._run_args(ctx["config"], base), base, "run", ctx, spans_dir)
            run_s, rss, run_code = result.wall_s, result.rss_mb, result.code
            run_dir = self._run_dir(result)
        walls, outputs, codes = [], [], []
        for k in range(1 if spans_dir else self.w.report_repeats):
            result, output = self._report(run_dir, base, f"report-{k}", ctx, spans_dir)
            walls.append(result.wall_s)
            outputs.append(output)
            codes.append(result.code)
            rss = max(rss, result.rss_mb)
        self._check(run_dir, run_code, next((c for c in codes if c), 0), outputs)
        timings = {"op_s": run_s + statistics.median(walls), "peak_rss_mb": rss}
        return {"timings": timings, "report_walls": walls, "run_dir": run_dir, "report": outputs[0]}

    def _report(self, run_dir: Path, base: Path, name: str, ctx: dict | None = None,
                spans_dir: Path | None = None) -> tuple[Timed, bytes]:
        out = base / f"{name}.json"
        result = self._cli(
            ["report", "--runs", str(run_dir), "--format", "json", "-o", str(out)],
            base, name, ctx, spans_dir,
        )
        return result, (out.read_bytes() if result.code == 0 else b"")

    def report_again(self, run_dir: Path) -> bytes:
        """An untraced report of ``run_dir``, for the traced-run byte check."""
        return self._report(run_dir, self._dir("recheck"), "report")[1]

    # -- checks ---------------------------------------------------------

    def fail(self, problem: str) -> None:
        self.failures.append(problem)

    def _check(self, run_dir: Path, run_code: int | None, report_code: int,
               reports: list[bytes]) -> None:
        self.attempted += 1
        before = len(self.failures)
        if run_code is not None and run_code != self.w.run_exit:
            self.fail(f"run exited {run_code}, expected {self.w.run_exit}")
        if report_code != 0:
            self.fail(f"report exited {report_code}")
        elif any(r != reports[0] for r in reports):
            self.fail(f"repeated reports of {run_dir} differ")
        else:
            doc = json.loads(reports[0])
            if self.w.expected:
                self._check_faults(run_dir, doc)
            else:
                self.failures.extend(oracle.compare(doc, oracle.expected_report(run_dir, self.suite_text)))
        if self.size is None:
            self.size = input_size(run_dir)
        self.failed_ops += len(self.failures) > before

    def _check_faults(self, run_dir: Path, doc: dict) -> None:
        for bench, expected in self.w.expected.items():
            rows = json.loads((run_dir / bench / "outcomes.json").read_text(encoding="utf-8"))["outcomes"]
            got = tuple(row["classified"] for row in sorted(rows, key=lambda r: r["rank"]))
            if got != expected:
                self.fail(f"{bench}: classified {got}, expected {expected}")
        rates = {row["bench"]: row["results"][SYSTEM]["success_rate"] for row in doc["rows"]}
        if rates != self.w.expected_success:
            self.fail(f"success rates {rates}, expected {self.w.expected_success}")
        orphans = reap_marked(suites.marker(self.seed))
        self.orphans = max(self.orphans, orphans)
        if orphans:
            self.fail(f"{orphans} process(es) carrying the workload marker outlived the run")


def reap_marked(mark: str) -> int:
    """Kill the processes whose argv carries ``mark``; return how many there were.

    They are found by a read-only scan of /proc. Killing them keeps a
    harness that leaks children from leaving them behind the benchmark.
    """
    found, own = 0, os.getpid()
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit() or int(entry.name) == own:
            continue
        try:
            with open(f"/proc/{entry.name}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        if mark.encode() in argv:
            found += 1
            try:
                os.kill(int(entry.name), signal.SIGKILL)
            except ProcessLookupError:
                pass
    return found


def input_size(run_dir: Path) -> dict:
    streams = list(run_dir.glob("*/*.jsonl"))
    data = [p.read_bytes() for p in streams]
    return {
        "processes": len(streams),
        "stream_bytes": sum(len(d) for d in data),
        "stream_lines": sum(d.count(b"\n") for d in data),
    }


def probe_worker_import() -> dict[str, float]:
    """Fresh-interpreter cost of importing benchforge.worker, as workers pay it."""
    bare, imported = [], []
    for i in range(PROBE_REPEATS):
        pair = [["python3", "-c", "pass"], ["python3", "-c", "import benchforge.worker"]]
        for argv in (pair if i % 2 == 0 else pair[::-1]):
            started = time.perf_counter()
            subprocess.run(argv, env=ENV, cwd=ROOT, check=True)
            (bare if argv[2] == "pass" else imported).append(time.perf_counter() - started)
    count = subprocess.run(
        ["python3", "-c", "import sys; n = len(sys.modules); import benchforge.worker; "
         "print(len(sys.modules) - n)"],
        env=ENV, cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return {
        "worker.bare_python_ms": statistics.median(bare) * 1000.0,
        "worker.import_ms": statistics.median(b - a for a, b in zip(bare, imported)) * 1000.0,
        "worker.modules_loaded": int(count.stdout),
    }


def measure(bench: Bench, seconds: float) -> tuple[dict[str, float], list[str]]:
    """Untraced: set up several times, warm up once, then time ops for ``seconds``.

    Returns the metrics and one line of samples per metric.
    """
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    ctx = setups[-1]
    bench.op(ctx)  # warm-up: checked, not timed
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    samples["setup_s"] = [s["setup_s"] for s in setups]
    started = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - started < seconds:
        if i % 2 == 0:
            floor = spawn_floor(bench.floor_groups)
            done = bench.op(ctx)
        else:
            done = bench.op(ctx)
            floor = spawn_floor(bench.floor_groups)
        for name, value in done["timings"].items():
            samples[name].append(value)
        samples["overhead_s"].append(done["timings"]["op_s"] - floor)
        i += 1
    lines = [
        f"  {name} samples (n={len(values)}): " + " ".join(f"{v:.4f}" for v in values)
        for name, values in samples.items()
    ]
    return {name: statistics.median(values) for name, values in samples.items()}, lines


def measure_traced(bench: Bench, seconds: float) -> tuple[dict[str, float], list[str]]:
    """Traced: per-layer metrics from traced set-up plus op, paired with an untraced op.

    Returns the metrics and a line naming the largest self times.
    """
    probes = probe_worker_import()
    spans_root = WORK / "spans"
    per_iter: list[dict[str, float]] = []
    started = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - started < seconds:
        spans_dir = spans_root / f"iter-{i}"
        spans_dir.mkdir(parents=True)
        ctx = bench.setup(spans_dir)
        if i == 0:
            bench.op(ctx)  # warm-up: checked, not timed
        if i % 2 == 0:
            plain = bench.op(ctx)
            traced = bench.op(ctx, spans_dir)
        else:
            traced = bench.op(ctx, spans_dir)
            plain = bench.op(ctx)
        same_dir = plain["run_dir"] == traced["run_dir"]
        untraced_report = plain["report"] if same_dir else bench.report_again(traced["run_dir"])
        if traced["report"] != untraced_report:
            bench.fail(f"traced report of {traced['run_dir']} differs from the untraced one")
            bench.failed_ops += 1
        metrics = tracer.layer_metrics([tracer.read_spans(p) for p in ctx["spans"]])
        metrics["trace.overhead_frac"] = traced["timings"]["op_s"] / plain["timings"]["op_s"] - 1.0
        metrics["cli.report_ms"] = statistics.median(plain["report_walls"]) * 1000.0
        per_iter.append(metrics)
        i += 1
    result = {name: statistics.median(m[name] for m in per_iter) for name in per_iter[0]}
    result.update(probes)
    result["executor.orphans"] = bench.orphans
    self_times = tracer.self_times([s for p in ctx["spans"] for s in tracer.read_spans(p)])
    top = sorted(self_times.items(), key=lambda kv: -kv[1])[:5]
    line = "largest self times (last traced iteration): " + ", ".join(
        f"{name} {t * 1000:.1f} ms" for name, t in top
    )
    return result, [line]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suites.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "benchforge" / "cli.py").is_file() or not REFERENCE_SUITE.is_file():
        print(f"perfbench: {ROOT} holds no benchforge source tree", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    bench = Bench(suites.WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            (values, details), units = measure_traced(bench, args.seconds), PER_LAYER
        else:
            (values, details), units = measure(bench, args.seconds), END_TO_END
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}")
    print(f"input: {json.dumps(bench.size)}")
    for name, unit in units.items():
        print(f"  {name:<30} {values[name]:>16.6f} {unit}")
    print("\n".join(details))
    for problem in bench.failures:
        print(f"check failed: {problem}")
    print(f"check: {'correct' if not bench.failures else 'INCORRECT'} "
          f"({bench.attempted} ops, {len(bench.failures)} problems)")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": min(bench.failed_ops, bench.attempted),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
