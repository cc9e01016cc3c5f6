"""Time a fresh interpreter's ``import benchforge.cli`` in two source trees, pair by pair.

Usage (from the repository root):

    git archive <parent-rev> | (mkdir -p ../parent && tar -x -C ../parent)
    python3 benchmarks/import_time.py --base ../parent --head . --reps 31

Each rep starts three interpreters: a bare ``python3 -c pass``, then the
import with ``PYTHONPATH=<tree>/src`` for each tree, alternating which tree
goes first. The wall time of each child is taken with ``time.perf_counter``
around ``subprocess.run``. Printed as JSON: per side the median and
quartiles in ms, the median paired head - base difference, and how many
pairs the head won. ``PYTHONDONTWRITEBYTECODE`` is passed through and
recorded, because with it set every import compiles from source.

Unlike the traced ``cli.import_ms`` of ``perfbench/run.py``, nothing else is
imported before the module, so modules the tracer loads first (``inspect``,
``statistics``) count here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def child_ms(code: str, tree: Path | None) -> float:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if tree is not None:
        env["PYTHONPATH"] = str(tree / "src")
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return (time.perf_counter() - started) * 1000.0


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--head", default=Path("."), type=Path)
    parser.add_argument("--reps", type=int, default=31)
    args = parser.parse_args(argv)

    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    runs: dict[str, list[float]] = {"bare": [], "base": [], "head": []}
    for rep in range(args.reps):
        runs["bare"].append(child_ms("pass", None))
        for side in ("base", "head") if rep % 2 == 0 else ("head", "base"):
            runs[side].append(child_ms("import benchforge.cli", trees[side]))
    diffs = [h - b for b, h in zip(runs["base"], runs["head"])]
    doc = {
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
