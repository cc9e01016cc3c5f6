"""The benchmark's workloads: their suites, pools and expected outcomes.

``suite-run`` runs the committed reference suite unchanged. The other two
suites are generated here from the workload seed, which only feeds the
workers' ``--seed`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WORKER = "python3 -m benchforge.worker"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    devices: tuple[str, ...]
    nodes: int
    # Commands of one op: "run" then "report", or "report" of the set-up run.
    op: tuple[str, ...]
    # The faults workload checks an expected-outcome table; the others
    # check the report against an independent recomputation.
    expected: dict[str, tuple[str, ...]] = field(default_factory=dict)
    expected_success: dict[str, float] = field(default_factory=dict)
    run_exit: int = 0
    # Untraced ops time a run's report this many times and keep the median.
    report_repeats: int = 3


WORKLOADS = {
    "suite-run": Workload(
        name="suite-run",
        why="reference suite verbatim: 26 benchmarks, 90 worker processes; "
        "worker spawn and import dominate, framing costs almost nothing",
        devices=("d0", "d1", "d2", "d3"),
        nodes=2,
        op=("run", "report"),
    ),
    "long-streams": Workload(
        name="long-streams",
        why="report of a pre-generated run with 4 streams of about 2 MB (64k lines); "
        "spawns nothing, so only framing, decoding and load_run show",
        devices=("d0", "d1"),
        nodes=1,
        op=("report",),
        report_repeats=1,
    ),
    "faults": Workload(
        name="faults",
        why="8 misbehaving benchmarks (crash, hang, garbage, lingering grandchild, "
        "missing binary) drive the executor's kill, drain and classify paths",
        devices=("d0", "d1"),
        nodes=1,
        op=("run", "report"),
        expected={
            "healthy": ("success", "success"),
            "crash-mid-run": ("error", "error"),
            "too-few-obs": ("error", "error"),
            "gang-one-rank-dies": ("error", "error"),
            "hang-timeout": ("timeout", "timeout"),
            "garbage-lines": ("success", "success"),
            "lingering-grandchild": ("success", "success"),
            "missing-binary": ("error", "error"),
        },
        expected_success={
            "healthy": 1.0,
            "crash-mid-run": 0.0,
            "too-few-obs": 0.0,
            "gang-one-rank-dies": 0.0,
            "hang-timeout": 0.0,
            "garbage-lines": 1.0,
            "lingering-grandchild": 1.0,
            "missing-binary": 0.0,
        },
        run_exit=3,
    ),
}

# Seconds the lingering grandchild of the faults workload holds the pipe.
GRANDCHILD_SLEEP_S = 2.0


def marker(seed: int) -> str:
    """Argument carried by every process of the faults workload."""
    return f"perfbench-faults-mark-{seed}"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _bench(name: str, run_cmd: str, *, scale: str = "single-device", weight: float = 1,
           extra: str = "") -> str:
    return (
        f"  - name: {name}\n"
        f"    weight: {weight}\n"
        f"    scale: {scale}\n"
        f"{extra}"
        f"    run_cmd: {_quote(run_cmd)}\n"
        f"    unit_of_work: items\n"
    )


def long_streams_suite(seed: int) -> str:
    """Two benchmarks whose four streams hold about 2 MB (16k lines) each."""
    jitter = (
        f"{WORKER} --kind jitter --jitter 0.1 --batch 32 --rate 500 "
        f"--batches-per-epoch 8000 --obs-max 8000 --seed {seed}{{rank}} --units items"
    )
    gang = (
        f"{WORKER} --kind multiworker --workers 4 --jitter 0.1 --batch 16 --rate 200 "
        f"--batches-per-epoch 2000 --obs-max 2000 --seed {seed + 1}{{rank}} --units items"
    )
    return (
        "suite: perfbench-long-streams\n"
        "defaults:\n  obs_min: 30\n  obs_max: 8000\n  timeout_s: 120\n"
        "benchmarks:\n"
        + _bench("single-device-jitter", jitter)
        + _bench("node-devices-multiworker", gang, scale="node-devices")
    )


def faults_suite(seed: int) -> str:
    """Eight benchmarks, each ending in a known classification."""
    mark = marker(seed)
    worker = f"{WORKER} --seed {seed}{{rank}} --task {mark}"
    # Braces are doubled: run_cmd is a format template.
    garbage = "printf 'garbage line one\\nnot json {{\\n' > /dev/fd/$BENCHFORGE_METRICS_FD"
    sleeper = f"python3 -c 'import time; time.sleep({GRANDCHILD_SLEEP_S})' {mark}"
    return (
        "suite: perfbench-faults\n"
        "defaults:\n  obs_min: 30\n  obs_max: 60\n  timeout_s: 60\n"
        "benchmarks:\n"
        + _bench("healthy", worker)
        + _bench("crash-mid-run", f"{worker} --crash-after 40")
        + _bench("too-few-obs", f"{worker} --obs-min 5 --obs-max 10")
        + _bench("gang-one-rank-dies", f"{worker} --crash-after {{rank}}00", scale="node-devices")
        + _bench("hang-timeout", f"{worker} --sleep-per-batch 0.2", extra="    timeout_s: 1.5\n")
        + _bench("garbage-lines", f'sh -c "{garbage}; exec {worker}" {mark}')
        + _bench("lingering-grandchild", f'sh -c "{sleeper} & exec {worker}" {mark}')
        + _bench("missing-binary", f"{{base_dir}}/no-such-binary {mark}", weight=0)
    )
