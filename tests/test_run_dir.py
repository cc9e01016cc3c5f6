"""``report`` on damaged or edited run directories.

A run directory is benchforge's product, compared across machines, so a
damaged or edited one must give either the report of what ``run`` wrote or
exit 4 with one ``benchforge: …`` line; never a traceback, and never a
silently different score. Each directory is written by ``write_run`` of
the differential test, with no child process.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchforge.cli import main
from test_report_differential import _runs, write_run

_STREAM = (
    b'{"event":"rate","time":1,"task":"train","data":{"batch":4,"rate":2,"units":"x"}}\n'
    b'{"event":"success","time":2,"task":"train","data":{}}\n'
)
_PROCESS = {"stream": (_STREAM, None), "classified": "success", "sidecar": "present"}
BENCHES = [
    {"scale": "single-device", "weight": 1.0, "enabled": True, "obs_min": 1, "processes": [_PROCESS] * 2},
    {"scale": "node-devices", "weight": 2.0, "enabled": True, "obs_min": 1, "processes": [_PROCESS] * 2},
]


def _cut(size):
    return lambda path: path.write_bytes(path.read_bytes()[:size])


def _edit_json(change):
    def edit(path):
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))

    return edit


def _edit_row(change):
    return _edit_json(lambda payload: change(payload["outcomes"]))


def _set_rank(rows):
    rows[0]["rank"] = "../../etc/x"


def _duplicate_row(rows):
    rows[1] = dict(rows[0])


def _misspell_class(rows):
    rows[0]["classified"] = "sucess"


def _reweigh(path):
    text = path.read_text()
    assert text.count("weight: 1.0\n") == 1
    path.write_text(text.replace("weight: 1.0\n", "weight: 100.0\n"))


PROBES = {
    "outcomes-cut-to-100-bytes": ("b0/outcomes.json", _cut(100)),
    "meta-cut-short": ("meta.json", _cut(40)),
    "rank-is-a-path": ("b0/outcomes.json", _edit_row(_set_rank)),
    "outcomes-is-an-object": ("b1/outcomes.json", _edit_json(lambda payload: payload.update(outcomes={}))),
    "duplicated-row": ("b1/outcomes.json", _edit_row(_duplicate_row)),
    "misspelled-class": ("b0/outcomes.json", _edit_row(_misspell_class)),
    "edited-suite": ("suite.yaml", _reweigh),
    "system-not-text": ("meta.json", _edit_json(lambda meta: meta.update(system=[1]))),
}


def _report(run_dir: Path, fmt: str) -> int:
    return main(["report", "--runs", str(run_dir), "--format", fmt, "-o", str(run_dir.parent / f"report.{fmt}")])


@pytest.mark.parametrize("name", PROBES)
def test_damaged_run_directory_exits_4_with_one_line(tmp_path, capsys, name):
    run_dir = tmp_path / "run"
    write_run(run_dir, BENCHES, [0, 1])
    assert _report(run_dir, "text") == 0
    relative, damage = PROBES[name]
    damage(run_dir / relative)
    capsys.readouterr()
    assert _report(run_dir, "json") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("benchforge: ") and captured.err.count("\n") == 1, captured.err
    assert not (tmp_path / "report.json").exists()


def _damaged(data: bytes, draw) -> bytes:
    """``data`` cut short, or with one byte flipped."""
    at = draw(st.integers(0, len(data) - 1), label="at")
    if draw(st.booleans(), label="cut"):
        return data[:at]
    flipped = data[at] ^ draw(st.integers(1, 255), label="mask")
    return data[:at] + bytes([flipped]) + data[at + 1 :]


@settings(max_examples=40, deadline=None)
@given(benches=_runs, fmt=st.sampled_from(["text", "csv", "json"]), data=st.data())
def test_any_cut_or_flipped_byte_reports_or_exits_4(benches, fmt, data):
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        write_run(run_dir, benches, list(range(len(benches))))
        outcomes = sorted(p.relative_to(run_dir).as_posix() for p in run_dir.glob("*/outcomes.json"))
        path = run_dir / data.draw(st.sampled_from(["meta.json", "suite.yaml", *outcomes]), label="file")
        path.write_bytes(_damaged(path.read_bytes(), data.draw))
        assert _report(run_dir, fmt) in (0, 4)
