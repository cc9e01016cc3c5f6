"""Compare the benchforge benchmark between two source trees, run for run.

Usage (from the repository root):

    git archive <parent-rev> | (mkdir -p ../parent && tar -x -C ../parent)
    python3 benchmarks/compare.py --base ../parent --base-label <parent-rev> \\
        --head . --head-label <rev> --workload long-streams --seeds 11-20 \\
        --layers protocol.frame_ms,executor.load_run_ms --out BENCH_<topic>.json

Each seed runs ``perfbench/run.py`` as it stands in each tree, once per tree,
alternating which tree goes first, for the ``run_seconds`` of the head's
``BENCHMARK.json``. One traced pair per workload (``--trace 1``, seed of the
first pair) follows. ``--workload`` may be given more than once. Each run
starts in a fresh temporary copy of its tree without any ``__pycache__``
(``TREE_COPY_IGNORE``), so no bytecode left in a tree biases it, and
``PYTHONPYCACHEPREFIX`` is left unset, so the standard library's installed
bytecode is read as usual. With ``PYTHONDONTWRITEBYTECODE`` set, every
process of a run compiles the tree's modules from source; unset, a run's
first process writes their bytecode into the copy.

Each run starts in its own session. SIGTERM stops the script as Ctrl-C
does: the running run's process group is killed and reaped, and its copy
of the tree is removed.

The output holds, per workload and end-to-end metric, each side's runs,
median and quartiles, how many pairs the head won, whether the head's median
beats the base's by more than the base's quartile distance, and the relative
change against the bound in the head's ``BENCHMARK.json``; then the traced
pair's per-layer metrics, and the ``--layers`` named as moved. ``--layers``
must name ``per_layer`` metrics of the head's ``BENCHMARK.json``; that is
checked before any run. Only the standard library is used.

A metric is ``unresolved`` when the base's own quartile distance exceeds
``bound`` times the base's median and not every head run is below every base
run. The base's runs then spread wider than the bound, so these runs cannot
tell a change within the bound from none: report such a metric as
unresolved, not as unchanged.
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
import tempfile
from pathlib import Path

SIDES = ("base", "head")
# Left out of a run's copy of a tree: cached bytecode, and what no run reads.
TREE_COPY_IGNORE = shutil.ignore_patterns("__pycache__", ".git", ".bench_work")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def clean_env() -> dict[str, str]:
    """The caller's environment without ``PYTHONPATH`` and ``PYTHONPYCACHEPREFIX``."""
    return {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}


def run_in_session(argv: list[str], cwd: Path, env: dict[str, str]) -> tuple[int, str, str]:
    """Run ``argv`` in its own session to its end; return its exit code, stdout and stderr.

    On any exception while it runs (SIGTERM's SystemExit under ``_stop``,
    or Ctrl-C) its whole process group is killed and reaped first.
    """
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate()
    except BaseException:  # end the run before its copy of the tree is removed
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group is already gone
            pass
        proc.wait()
        raise
    return proc.returncode, stdout, stderr


def bench_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    # A fresh copy of the tree per run, so neither tree's __pycache__ is read.
    with tempfile.TemporaryDirectory(prefix="tree-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=TREE_COPY_IGNORE)
        code, stdout, stderr = run_in_session(argv, copy, clean_env())
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        raise SystemExit(f"{tree}: {' '.join(argv[1:])} exited {code}\n{stderr}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare_metric(base: list[float], head: list[float], bound: float | None) -> dict:
    """Lower is better for every end-to-end metric of this benchmark."""
    b, h = summary(base), summary(head)
    return {
        "base": b,
        "head": h,
        "head_over_base": h["median"] / b["median"],
        "head_wins": sum(y < x for x, y in zip(base, head)),
        "pairs": len(base),
        "beyond_base_iqr": b["median"] - h["median"] > b["q3"] - b["q1"],
        "bound": bound,
        "within_bound": bound is None or h["median"] <= b["median"] * (1.0 + bound),
        "unresolved": bound is not None and b["q3"] - b["q1"] > bound * b["median"] and max(head) >= min(base),
    }


def run_workload(trees: dict[str, Path], workload: str, seeds: list[int], seconds: float,
                 layers: list[str], bounds: dict[str, float]) -> dict:
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    order = []
    for i, seed in enumerate(seeds):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order.append(f"{sides[0]} first")
        for side in sides:
            runs[side].append(bench_once(trees[side], workload, seed, seconds, 0))
            print(f"{workload} seed {seed} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
    out = {
        "seeds": seeds,
        "order": order,
        "failed_ops": {side: [f"{r['failed']}/{r['attempted']}" for r in runs[side]] for side in SIDES},
        "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
        "end_to_end": {
            name: compare_metric(
                [r["metrics"][name] for r in runs["base"]],
                [r["metrics"][name] for r in runs["head"]],
                bounds.get(name),
            )
            for name in runs["base"][0]["metrics"]
        },
    }
    pair = {side: bench_once(trees[side], workload, seeds[0], seconds, 1) for side in SIDES}
    out["traced_seed"] = seeds[0]
    out["per_layer"] = {
        name: {side: pair[side]["metrics"].get(name) for side in SIDES}
        for name in pair["head"]["metrics"]
    }
    out["layers_moved"] = layers_moved(out["per_layer"], layers)
    return out


def layers_moved(per_layer: dict[str, dict], layers: list[str]) -> dict:
    """Each named layer's traced pair and head/base ratio; the ratio is null when base is 0 or absent."""
    moved = {}
    for name in layers:
        pair = per_layer.get(name, {side: None for side in SIDES})
        base, head = pair["base"], pair["head"]
        moved[name] = {**pair, "head_over_base": head / base if base and head is not None else None}
    return moved


def _stop(signum: int, frame) -> None:
    """SIGTERM as an exception, so every run's process group is killed and its copy removed."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="source tree of the parent")
    parser.add_argument("--head", default=Path("."), type=Path, help="source tree of the change")
    parser.add_argument("--base-label", default="base")
    parser.add_argument("--head-label", default="head")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="11-20", help="e.g. 11-20 or 1,5,9")
    parser.add_argument("--layers", default="", help="per-layer metrics the change is meant to move")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} holds no perfbench/run.py")
    contract = json.loads((trees["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    seeds = parse_seeds(args.seeds)
    layers = [name for name in args.layers.split(",") if name]
    unknown = sorted(set(layers) - {m["name"] for m in contract["per_layer"]})
    if unknown:
        parser.error(f"--layers: not a per_layer metric of the head's BENCHMARK.json: {', '.join(unknown)}")
    signal.signal(signal.SIGTERM, _stop)
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0|1",
        "base": args.base_label,
        "head": args.head_label,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "system": platform.system(), "machine": platform.machine()},
        "statistic": "median of per-run values; quartiles from statistics.quantiles(n=4)",
        "workloads": {
            workload: run_workload(trees, workload, seeds, seconds, layers, bounds)
            for workload in args.workload
        },
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
