import json
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

TESTS_DIR = Path(__file__).parent
DATA_DIR = TESTS_DIR / "data"
REPO_DIR = TESTS_DIR.parent

WORKER_CMD = f"{sys.executable} -m benchforge.worker"


class Obs(NamedTuple):
    """One observation of an ObservationLog, as the tests compare them."""

    work: float
    elapsed: float
    warmup: bool = False
    task: str = "train"

    @property
    def rate(self) -> float:
        return self.work / self.elapsed


def observed(log) -> tuple[Obs, ...]:
    """A log's four columns, read back as one Obs per observation."""
    names = list(log.tasks)
    rows = zip(log.work, log.elapsed, log.warmup, log.task_index)
    return tuple(Obs(work, elapsed, bool(warmup), names[i]) for work, elapsed, warmup, i in rows)


@pytest.fixture(scope="session")
def reference_suite_text() -> str:
    return (REPO_DIR / "configs" / "reference-suite.yaml").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def reference_suite(reference_suite_text):
    from benchforge.suite import parse_suite

    return parse_suite(reference_suite_text)


@pytest.fixture(scope="session")
def reference_results() -> dict:
    return json.loads((DATA_DIR / "reference_results.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def protocol_corpus() -> list[str]:
    text = (DATA_DIR / "protocol_corpus.jsonl").read_text(encoding="utf-8")
    return text.splitlines(keepends=True)


def printed_value(text: str) -> float | None:
    """Parse a printed table cell: blank, plain, or K/M suffixed."""
    text = text.strip()
    if not text:
        return None
    if text.endswith("M"):
        return float(text[:-1]) * 1e6
    if text.endswith("K"):
        return float(text[:-1]) * 1e3
    return float(text)


def printed_ulp(text: str) -> float | None:
    """One unit in the last printed digit, e.g. '2.7K' -> 100, '19' -> 1."""
    text = text.strip()
    if not text:
        return None
    scale = 1.0
    if text.endswith(("K", "M")):
        scale = 1e3 if text.endswith("K") else 1e6
        text = text[:-1]
    if "." in text:
        decimals = len(text.split(".")[1])
        return scale * 10.0**-decimals
    return scale
