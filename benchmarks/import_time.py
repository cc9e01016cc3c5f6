"""Time a fresh interpreter's ``import benchforge.cli`` in two source trees, pair by pair.

Usage (from the repository root):

    git archive <parent-rev> | (mkdir -p ../parent && tar -x -C ../parent)
    python3 benchmarks/import_time.py --base ../parent --head . --reps 31
    python3 benchmarks/import_time.py --base ../parent --head . --reps 31 --worker

Each rep starts three interpreters: a bare ``python3 -c pass``, then the
import with ``PYTHONPATH=<tree>/src`` for each tree, alternating which tree
goes first. The wall time of each child is taken with ``time.perf_counter``
from its start until ``os.wait4`` reaps it. With ``--worker`` each tree's
child is instead one whole ``python3 -m benchforge.worker --obs-max 60``
process, its metric stream sent to /dev/null, and every child is timed by
its CPU (user plus system, from the rusage ``os.wait4`` returns), so the
time a child waits for a core does not count. Printed as JSON: what was
timed and by which clock, per side the median and quartiles in ms, the
median paired head - base difference, and how many pairs the head won.
Every tree's child imports from a fresh temporary copy of ``<tree>/src``
without any ``__pycache__``, so no bytecode left in a tree biases it, and
``PYTHONPYCACHEPREFIX`` is left unset, so the standard library's installed
bytecode is read as usual. With ``PYTHONDONTWRITEBYTECODE`` set, which is
passed through and recorded, the child compiles the tree's modules from
source; unset, it compiles them and writes their bytecode into the copy.
``BENCHFORGE_*`` variables are not passed, so a worker's budget comes from
its flags.

Unlike the traced ``cli.import_ms`` of ``perfbench/run.py``, nothing else is
imported before the module, so modules the tracer loads first (``inspect``,
``statistics``) count here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def child_ms(args: list[str], tree: Path | None, cpu: bool) -> float:
    """Milliseconds of ``python3 <args>``, wall or CPU, with ``<tree>/src`` first on the path."""
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX") and not k.startswith("BENCHFORGE_")
    }
    # A fresh copy of the tree's sources per child, so neither tree's __pycache__ is read.
    with tempfile.TemporaryDirectory(prefix="src-") as tmp:
        if tree is not None:
            env["PYTHONPATH"] = str(Path(tmp) / "src")
            shutil.copytree(tree / "src", env["PYTHONPATH"], ignore=shutil.ignore_patterns("__pycache__"))
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"python3 {' '.join(args)} exited {proc.returncode}")
    return (usage.ru_utime + usage.ru_stime if cpu else wall) * 1000.0


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--head", default=Path("."), type=Path)
    parser.add_argument("--reps", type=int, default=31)
    parser.add_argument("--worker", action="store_true", help="time a whole worker process by its CPU")
    args = parser.parse_args(argv)

    program = ["-m", "benchforge.worker", "--obs-max", "60"] if args.worker else ["-c", "import benchforge.cli"]
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    runs: dict[str, list[float]] = {"bare": [], "base": [], "head": []}
    for rep in range(args.reps):
        runs["bare"].append(child_ms(["-c", "pass"], None, args.worker))
        for side in ("base", "head") if rep % 2 == 0 else ("head", "base"):
            runs[side].append(child_ms(program, trees[side], args.worker))
    diffs = [h - b for b, h in zip(runs["base"], runs["head"])]
    doc = {
        "program": " ".join(["python3", *program]),
        "clock": "cpu" if args.worker else "wall",
        "reps": args.reps,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "ms": {side: summary(values) for side, values in runs.items()},
        "head_minus_base_ms_median": statistics.median(diffs),
        "head_wins": sum(d < 0 for d in diffs),
    }
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
