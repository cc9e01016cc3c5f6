"""benchmarks/equivalence.py on a small suite: a tree against itself, and against a one-byte change."""

import json
import shutil
import subprocess
import sys

from conftest import REPO_DIR

TOOL = REPO_DIR / "benchmarks" / "equivalence.py"
SUITE = """\
suite: equivalence-check
defaults:
  obs_min: 5
  obs_max: 10
  timeout_s: 60
benchmarks:
  - name: single
    run_cmd: "python3 -m benchforge.worker --kind jitter --jitter 0.1 --obs-min 5 --obs-max 10 --seed {rank}"
  - name: gang
    scale: node-devices
    run_cmd: "python3 -m benchforge.worker --obs-min 5 --obs-max 10 --seed {rank}"
"""


def _equivalence(base, tmp_path, *expect):
    config = tmp_path / "suite.yaml"
    config.write_text(SUITE, encoding="utf-8")
    argv = [sys.executable, str(TOOL), "--base", str(base), "--head", str(REPO_DIR), "--config", str(config)]
    argv += [arg for name in expect for arg in ("--expect", name)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_a_tree_is_equivalent_to_itself(tmp_path):
    code, result, err = _equivalence(REPO_DIR, tmp_path, "row.stopped_by")
    assert (code, result["ok"], result["unexpected"], result["expected"]) == (0, True, {}, {}), err
    assert result["expected_but_unchanged"] == ["row.stopped_by"]
    # Two benchmarks of two processes: four streams, four sidecars, suite.yaml and suite.json.
    assert result["compared"] == result["identical"] == {"files": 10, "rows": 4, "reports": 18}
    assert result["skipped"]["row"] == ["duration_s", "cpu_s", "maxrss_kb"]


def test_one_changed_byte_in_render_text_is_caught(tmp_path):
    base = tmp_path / "base"
    shutil.copytree(REPO_DIR, base, ignore=shutil.ignore_patterns("__pycache__", ".git", ".hypothesis", ".bench_work"))
    report = base / "src" / "benchforge" / "report.py"
    source = report.read_text(encoding="utf-8")
    assert source.count('"-+-".join') == 1
    report.write_text(source.replace('"-+-".join', '"-*-".join'), encoding="utf-8")
    code, result, _ = _equivalence(base, tmp_path)
    assert (code, result["ok"]) == (1, False)
    # Only the text reports differ: six of them, for each run directory and both, with and without warmup.
    assert result["unexpected"].keys() == {"report.text"}
    assert result["unexpected"]["report.text"]["count"] == 6
    assert result["identical"] == {"files": 10, "rows": 4, "reports": 12}
