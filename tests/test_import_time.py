"""The start-up timer in benchmarks/import_time.py: one rep of each mode runs and prints its JSON."""

import importlib.util
import json

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
