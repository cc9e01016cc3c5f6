"""The A/B driver in benchmarks/compare.py: its checks that need no benchmark run."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import REPO_DIR

_spec = importlib.util.spec_from_file_location("compare", REPO_DIR / "benchmarks" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

PER_LAYER = {m["name"] for m in json.loads((REPO_DIR / "BENCHMARK.json").read_text())["per_layer"]}


def test_unknown_layer_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(compare, "bench_once", no_run)
    out = tmp_path / "bench.json"
    argv = ["--base", str(REPO_DIR), "--head", str(REPO_DIR), "--workload", "long-streams",
            "--layers", "cli.import_ms,cli.imprt_ms", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        compare.main(argv)
    assert exc.value.code == 2
    assert "cli.imprt_ms" in capsys.readouterr().err
    assert not out.exists()


def test_layer_that_is_zero_at_base_has_no_ratio():
    assert {"executor.log_from_events_ms", "cli.import_ms"} <= PER_LAYER
    per_layer = {
        "executor.log_from_events_ms": {"base": 0.0, "head": 0.0},
        "cli.import_ms": {"base": 80.0, "head": 60.0},
    }
    moved = compare.layers_moved(per_layer, ["executor.log_from_events_ms", "cli.import_ms"])
    assert moved["executor.log_from_events_ms"] == {"base": 0.0, "head": 0.0, "head_over_base": None}
    assert moved["cli.import_ms"] == {"base": 80.0, "head": 60.0, "head_over_base": 0.75}
    json.dumps(moved, allow_nan=False)


@pytest.mark.parametrize(
    "base, head, unresolved",
    [
        # The base's quartiles span 3.0 around a median of 3.0, far past a 0.2 bound.
        ([1.0, 2.0, 3.0, 4.0, 5.0], [1.1, 2.1, 3.1, 4.1, 5.1], True),
        # As wide, but every head run is below every base run.
        ([1.0, 2.0, 3.0, 4.0, 5.0], [0.1, 0.2, 0.3, 0.4, 0.5], False),
        # A tight base resolves even a loss.
        ([3.0, 3.01, 3.02, 3.0, 3.01], [3.5, 3.6, 3.5, 3.6, 3.5], False),
    ],
    ids=["wide", "wide-head-wins-every-pair", "tight"],
)
def test_a_base_wider_than_the_bound_is_unresolved(base, head, unresolved):
    assert compare.compare_metric(base, head, 0.2)["unresolved"] is unresolved


def _tree_with_bytecode(root: Path) -> Path:
    (root / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text("")
    (root / "src" / "pkg" / "__pycache__" / "__init__.cpython.pyc").write_bytes(b"stale")
    return root


def test_each_run_gets_a_fresh_empty_bytecode_cache(tmp_path, monkeypatch):
    # Each run starts in its own copy of the tree, without the tree's __pycache__, and with no
    # PYTHONPYCACHEPREFIX: with PYTHONDONTWRITEBYTECODE set, a prefix would recompile the stdlib.
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "inherited"))
    seen = []

    def spy(argv, cwd, env, **kwargs):
        cwd = Path(cwd)
        seen.append((cwd, sorted(p.relative_to(cwd).as_posix() for p in cwd.rglob("*"))))
        assert "PYTHONPYCACHEPREFIX" not in env
        (cwd / "src" / "pkg" / "__pycache__").mkdir()  # what a run writes stays in its copy
        line = json.dumps({"metrics": {"op_s": {"value": 1.0}}})
        return SimpleNamespace(returncode=0, communicate=lambda: (line + "\n", ""))

    monkeypatch.setattr(compare.subprocess, "Popen", spy)
    trees = [_tree_with_bytecode(tmp_path / side) for side in ("base", "head")]
    for tree in (*trees, trees[0]):
        assert compare.bench_once(tree, "long-streams", 11, 1.0, 0)["metrics"] == {"op_s": 1.0}
    copies = [cwd for cwd, _ in seen]
    assert len(set(copies)) == 3
    assert all(entries == ["src", "src/pkg", "src/pkg/__init__.py"] for _, entries in seen)
    assert not any(cwd.exists() or tmp_path in cwd.parents for cwd in copies)
    assert all((tree / "src" / "pkg" / "__pycache__" / "__init__.cpython.pyc").exists() for tree in trees)


def _alive_in_group(pgid: int) -> list[int]:
    """Pids of the processes in group ``pgid`` that are not zombies, from /proc."""
    alive = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, pgrp = stat.read_text().rpartition(")")[2].split()[:3]
        except OSError:  # the process ended while it was read
            continue
        if int(pgrp) == pgid and state != "Z":
            alive.append(int(stat.parent.name))
    return alive


def test_sigterm_ends_the_run_and_removes_its_copy(tmp_path):
    # The fake run starts a sleep in its own process group, as run.py starts the CLI, and blocks.
    tree, temp, pgid_file = tmp_path / "tree", tmp_path / "temp", tmp_path / "pgid"
    (tree / "perfbench").mkdir(parents=True)
    temp.mkdir()
    shutil.copy(REPO_DIR / "BENCHMARK.json", tree)
    (tree / "perfbench" / "run.py").write_text(
        "import os, subprocess, time\n"
        "subprocess.Popen(['sleep', '60'])\n"
        f"with open({str(pgid_file) + '.part'!r}, 'w') as out:\n"
        "    out.write(str(os.getpgrp()))\n"
        f"os.replace({str(pgid_file) + '.part'!r}, {str(pgid_file)!r})\n"
        "time.sleep(60)\n"
    )
    argv = [sys.executable, str(REPO_DIR / "benchmarks" / "compare.py"), "--base", str(tree), "--head", str(tree),
            "--workload", "long-streams", "--out", str(tmp_path / "bench.json")]
    proc = subprocess.Popen(argv, env={**os.environ, "TMPDIR": str(temp)}, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not pgid_file.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        pgid = int(pgid_file.read_text())
        assert pgid != os.getpgrp() and len(_alive_in_group(pgid)) == 2
        assert [p.name[:5] for p in temp.iterdir()] == ["tree-"]
        proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 2.0
        while _alive_in_group(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _alive_in_group(pgid) == []
        assert proc.wait(timeout=max(deadline - time.monotonic(), 0.1)) == 128 + signal.SIGTERM
        assert list(temp.iterdir()) == []
    finally:
        proc.kill()
        proc.wait()
        if pgid_file.exists() and int(pgid_file.read_text()) != os.getpgrp():  # a failed check leaves none behind
            for pid in _alive_in_group(int(pgid_file.read_text())):
                os.kill(pid, signal.SIGKILL)
