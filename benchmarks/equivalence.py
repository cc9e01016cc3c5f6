"""Check that two source trees give the same run directories and reports.

Usage (from the repository root):

    git archive <parent-rev> | (mkdir -p ../parent && tar -x -C ../parent)
    python3 benchmarks/equivalence.py --base ../parent --head . --seed 11 \\
        --expect row.stopped_by

Each tree is copied without its bytecode (``compare.TREE_COPY_IGNORE``),
and that copy's own CLI runs ``install``, ``prepare`` and ``run`` for each
``perfbench`` suite: the reference suite on ``d0..d3`` with 2 nodes, and the
faults and long-streams suites of ``--seed`` on ``d0,d1``. The suites come
from the head tree, so both trees run the same suite text; ``--config``
runs one suite file of your own on ``d0,d1`` instead. Then:

- every ``<rank>.jsonl``, ``<rank>.fold`` and ``suite.yaml`` must be
  byte-identical, and both run directories must hold the same files;
- every ``outcomes.json`` row is compared key by key, skipping the keys
  that measure the machine (``SKIPPED``), and so are ``meta.json`` and the
  rest of ``outcomes.json``;
- each tree's CLI renders text, CSV and JSON, with and without
  ``--keep-warmup``, of each tree's run directory and, with
  ``--baseline base``, of both together; the two CLIs' bytes must match.

Each difference names its output: ``stream``, ``sidecar``, ``suite.yaml``,
``file``, ``row.<key>``, ``outcomes.<key>``, ``meta.<key>``,
``exit.<command>`` or ``report.<format>``. An output named by ``--expect``
is a change the caller means to make, and is listed as expected. The last
line of standard output is one JSON result; the exit status is 1 when any
other output differs, else 0. All of one tree's commands run in one
interpreter per stage, through its ``benchforge.cli.main``. Nothing is
timed, so this is not a benchmark driver. Only the standard library is
used.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

from compare import SIDES, TREE_COPY_IGNORE, _stop, clean_env, run_in_session

# Keys left out of the comparison: what measures the machine, and the tree's own label.
SKIPPED = {
    "row": ("duration_s", "cpu_s", "maxrss_kb"),
    "outcomes": ("phase_durations",),
    "meta": ("created_unix", "harness_cpu_s", "harness_maxrss_kb", "system"),
}
FORMATS = ("text", "csv", "json")
_ABSENT = object()  # a key one side lacks
# Run in a tree's copy with its src/ on PYTHONPATH: each argv through that tree's
# benchforge.cli.main, in one interpreter; prints each exit code and stdout as one JSON list.
_DRIVER = """
import contextlib, io, json, sys
from benchforge.cli import main
done = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    done.append([code, out.getvalue()])
print(json.dumps(done))
"""


def perfbench_suites(head: Path, seed: int) -> dict[str, tuple[str, tuple[str, ...], int]]:
    """Each perfbench workload's suite text, devices and nodes, from the head tree."""
    spec = importlib.util.spec_from_file_location("perfbench_suites", head / "perfbench" / "suites.py")
    suites = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up there
    spec.loader.exec_module(suites)
    texts = {
        "suite-run": (head / "configs" / "reference-suite.yaml").read_text(encoding="utf-8"),
        "long-streams": suites.long_streams_suite(seed),
        "faults": suites.faults_suite(seed),
    }
    return {name: (text, suites.WORKLOADS[name].devices, suites.WORKLOADS[name].nodes) for name, text in texts.items()}


def drive(copy: Path, jobs: list[list[str]]) -> list[tuple[int, str]]:
    """Run ``jobs`` through the CLI of the tree copied to ``copy``; each one's exit code and stdout."""
    env = {**clean_env(), "PYTHONPATH": str(copy / "src")}
    code, stdout, stderr = run_in_session([sys.executable, "-c", _DRIVER, json.dumps(jobs)], copy, env)
    if code != 0:
        raise SystemExit(f"{copy}: the CLI driver exited {code}\n{stderr}")
    return [tuple(done) for done in json.loads(stdout.splitlines()[-1])]


class Differences:
    """What differs between the trees, by output name, with where each difference is."""

    def __init__(self) -> None:
        self.found: dict[str, list[str]] = {}

    def check(self, output: str, where: str, base, head) -> bool:
        if base == head:
            return True
        self.found.setdefault(output, []).append(where)
        return False

    def summary(self, names) -> dict:
        return {
            name: {"count": len(places), "first": places[0]}
            for name, places in sorted(self.found.items()) if name in names
        }


def compare_keys(diffs: Differences, prefix: str, where: str, base: dict, head: dict) -> bool:
    """Compare two JSON objects key by key, and their key order, skipping ``SKIPPED[prefix]``."""
    same = True
    for key in [k for k in {**base, **head} if k not in SKIPPED[prefix]]:
        pair = (base.get(key, _ABSENT), head.get(key, _ABSENT))
        shown = " -> ".join("absent" if v is _ABSENT else json.dumps(v) for v in pair)
        same &= diffs.check(f"{prefix}.{key}", f"{where}: {key} {shown}", *pair)
    shared = ([k for k in base if k in head], [k for k in head if k in base])
    return diffs.check(f"{prefix}.key_order", where, *shared) and same


def compare_runs(diffs: Differences, suite: str, base: Path, head: Path, counts: dict) -> None:
    """Compare two run directories of ``suite`` file by file: JSON key by key, anything else byte for byte."""
    files = [{p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()} for d in (base, head)]
    for rel in sorted(files[0] | files[1]):
        where = f"{suite}/{rel}"
        if rel not in files[0] or rel not in files[1]:
            diffs.check("file", where, rel in files[0], rel in files[1])
            continue
        a, b = (json.loads((d / rel).read_bytes()) if rel.endswith(".json") else (d / rel).read_bytes()
                for d in (base, head))
        if rel == "meta.json":
            compare_keys(diffs, "meta", where, a, b)
        elif rel.endswith("/outcomes.json"):
            rows = (a.pop("outcomes", []), b.pop("outcomes", []))
            compare_keys(diffs, "outcomes", where, a, b)
            diffs.check("outcomes.rows", where, len(rows[0]), len(rows[1]))
            for i, (row_a, row_b) in enumerate(zip(*rows)):
                counts["rows"][0] += 1
                counts["rows"][1] += compare_keys(diffs, "row", f"{where} row {i}", row_a, row_b)
        else:
            output = {".jsonl": "stream", ".fold": "sidecar"}.get(Path(rel).suffix, "file")
            counts["files"][0] += 1
            counts["files"][1] += diffs.check("suite.yaml" if rel == "suite.yaml" else output, where, a, b)


def report_jobs(run_dirs: dict[str, dict[str, Path]], out_dir: Path) -> dict[tuple[str, ...], list[str]]:
    """Each report to render, keyed by suite, run directories and format: with and without warmup."""
    jobs = {}
    for suite, dirs in run_dirs.items():
        for sides in (("base",), ("head",), SIDES):
            baseline = ["--baseline", "base"] if len(sides) > 1 else []
            for fmt in FORMATS:
                for warmup in ((), ("--keep-warmup",)):
                    key = (suite, "+".join(sides), fmt, *warmup)
                    runs = ",".join(str(dirs[side]) for side in sides)
                    out = out_dir / "_".join(key)
                    jobs[key] = ["report", "--runs", runs, "--format", fmt, *baseline, *warmup, "-o", str(out)]
    return jobs


def run_suites(side: str, copy: Path, suites: dict, configs: dict[str, Path]) -> dict[tuple[str, str], tuple]:
    """Install, prepare and run each suite with the copy's CLI; each command's exit code and output."""
    jobs = {}
    for name, (_, devices, nodes) in suites.items():
        # The base dir is relative to the copy, so every path a child sees is the same in both trees.
        common = ["--config", str(configs[name]), "--base-dir", f"work/{name}"]
        jobs[name, "install"] = ["install", *common]
        jobs[name, "prepare"] = ["prepare", *common]
        jobs[name, "run"] = ["run", *common, "--devices", ",".join(devices), "--nodes", str(nodes), "--system", side]
    return dict(zip(jobs, drive(copy, list(jobs.values()))))


def run_dir_of(copy: Path, suite: str, output: str) -> Path:
    for line in output.splitlines():
        if line.startswith("run directory: "):
            return copy / line.removeprefix("run directory: ")
    raise SystemExit(f"{copy}: the run of {suite} printed no run directory:\n{output}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="source tree of the parent")
    parser.add_argument("--head", default=Path("."), type=Path, help="source tree of the change")
    parser.add_argument("--seed", type=int, default=11, help="seed of the faults and long-streams suites")
    parser.add_argument("--expect", action="append", default=[], metavar="OUTPUT",
                        help="an output the change means to alter, e.g. row.stopped_by")
    parser.add_argument("--config", type=Path, help="run this suite file on d0,d1 instead of the perfbench suites")
    args = parser.parse_args(argv)

    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "benchforge" / "cli.py").is_file():
            parser.error(f"{tree} holds no benchforge source tree")
    if args.config:
        suites = {"config": (args.config.read_text(encoding="utf-8"), ("d0", "d1"), 1)}
    else:
        suites = perfbench_suites(trees["head"], args.seed)
    signal.signal(signal.SIGTERM, _stop)
    print("skipped: " + "; ".join(f"{part}: {', '.join(keys)}" for part, keys in SKIPPED.items()), file=sys.stderr)

    diffs = Differences()
    counts = {"files": [0, 0], "rows": [0, 0], "reports": [0, 0]}
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        root = Path(tmp)
        copies = {side: root / side / "tree" for side in SIDES}
        configs = {name: root / f"{name}.yaml" for name in suites}
        for name, (text, _, _) in suites.items():
            configs[name].write_text(text, encoding="utf-8")
        done = {}
        for side, copy in copies.items():
            shutil.copytree(trees[side], copy, ignore=TREE_COPY_IGNORE)
            done[side] = run_suites(side, copy, suites, configs)
            print(f"{side}: ran {', '.join(suites)}", file=sys.stderr)
        for (name, command), (code, _) in done["base"].items():
            diffs.check(f"exit.{command}", name, code, done["head"][name, command][0])
        run_dirs = {
            name: {side: run_dir_of(copies[side], name, done[side][name, "run"][1]) for side in SIDES}
            for name in suites
        }
        for name, dirs in run_dirs.items():
            compare_runs(diffs, name, dirs["base"], dirs["head"], counts)

        rendered = {}
        for side, copy in copies.items():
            (root / "reports" / side).mkdir(parents=True)
            jobs = report_jobs(run_dirs, root / "reports" / side)
            rendered[side] = {
                key: (code, Path(argv[-1]).read_bytes() if code == 0 else b"")
                for (key, argv), (code, _) in zip(jobs.items(), drive(copy, list(jobs.values())))
            }
        for key, base_report in rendered["base"].items():
            counts["reports"][0] += 1
            counts["reports"][1] += diffs.check(f"report.{key[2]}", " ".join(key), base_report, rendered["head"][key])

    expected = set(args.expect)
    unexpected = set(diffs.found) - expected
    result = {
        "base": str(trees["base"]),
        "head": str(trees["head"]),
        "seed": args.seed,
        "suites": {name: {"devices": list(devices), "nodes": nodes} for name, (_, devices, nodes) in suites.items()},
        "skipped": {part: list(keys) for part, keys in SKIPPED.items()},
        "compared": {kind: n for kind, (n, _) in counts.items()},
        "identical": {kind: n for kind, (_, n) in counts.items()},
        "expected": diffs.summary(expected),
        "expected_but_unchanged": sorted(expected - set(diffs.found)),
        "unexpected": diffs.summary(unexpected),
        "ok": not unexpected,
    }
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
