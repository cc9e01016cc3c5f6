"""The start-up timer in benchmarks/import_time.py: one rep of each mode runs and prints its JSON."""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import REPO_DIR

_spec = importlib.util.spec_from_file_location("import_time", REPO_DIR / "benchmarks" / "import_time.py")
import_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(import_time)


@pytest.mark.parametrize("flags, program, clock", [
    ([], "python3 -c import benchforge.cli", "wall"),
    (["--worker"], "python3 -m benchforge.worker --obs-max 60", "cpu"),
], ids=["cli", "worker"])
def test_one_rep_prints_the_summary(flags, program, clock, capsys):
    assert import_time.main(["--base", str(REPO_DIR), "--head", str(REPO_DIR), "--reps", "1", *flags]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["program"], doc["clock"], doc["reps"]) == (program, clock, 1)
    for side in ("bare", "base", "head"):
        ms = doc["ms"][side]
        assert ms["q1"] == ms["median"] == ms["q3"] > 0
    assert doc["head_wins"] in (0, 1)
    assert doc["head_minus_base_ms_median"] == doc["ms"]["head"]["median"] - doc["ms"]["base"]["median"]


def test_each_child_gets_a_fresh_empty_bytecode_cache(monkeypatch):
    seen = []
    popen = import_time.subprocess.Popen

    def spy(args, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cache, list(cache.iterdir())))
        return popen(args, env=env, **kwargs)

    monkeypatch.setattr(import_time.subprocess, "Popen", spy)
    for _ in range(2):
        import_time.child_ms(["-c", "pass"], REPO_DIR, False)
    (first, first_entries), (second, second_entries) = seen
    assert first != second and first_entries == second_entries == []
    assert not first.exists() and not second.exists()
