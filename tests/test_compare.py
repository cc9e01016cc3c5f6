"""The A/B driver in benchmarks/compare.py: its checks that need no benchmark run."""

import importlib.util
import json
import subprocess
from pathlib import Path

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


def test_each_run_gets_a_fresh_empty_bytecode_cache(tmp_path, monkeypatch):
    seen = []

    def spy(argv, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cache, list(cache.iterdir())))
        (cache / "written.pyc").write_bytes(b"")
        line = json.dumps({"metrics": {"op_s": {"value": 1.0}}})
        return subprocess.CompletedProcess(argv, 0, line + "\n", "")

    monkeypatch.setattr(compare.subprocess, "run", spy)
    for tree in (tmp_path / "base", tmp_path / "head", tmp_path / "base"):
        assert compare.bench_once(tree, "long-streams", 11, 1.0, 0)["metrics"] == {"op_s": 1.0}
    caches = [cache for cache, _ in seen]
    assert len(set(caches)) == 3
    assert all(entries == [] for _, entries in seen)
    assert not any(cache.exists() or tmp_path in cache.parents for cache in caches)
