"""Package surface and import hygiene: workers must not pay for the harness."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import benchforge
from benchforge.protocol import MetricEvent, Observation, Rejection
from benchforge.worker import TimerConfig, WorkloadSpec
from conftest import REPO_DIR

HARNESS_ONLY = (
    "yaml",
    "subprocess",
    "selectors",
    "concurrent.futures",
    "benchforge.suite",
    "benchforge.executor",
    "benchforge.report",
    "benchforge.aggregate",
    "benchforge.design",
    "benchforge.cli",
)

# What ``dataclasses`` pulls in; a worker's value types are NamedTuples instead.
DATACLASS_ONLY = ("dataclasses", "inspect")


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO_DIR / "src")}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def modules_after(statement: str) -> set[str]:
    done = fresh_python(
        "-c", f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


class TestImportHygiene:
    def test_worker_import_loads_no_harness_module(self):
        loaded = modules_after("import benchforge.worker")
        assert "benchforge.protocol" in loaded
        assert not loaded & set(HARNESS_ONLY)

    def test_worker_import_loads_neither_dataclasses_nor_inspect(self):
        loaded = modules_after("import benchforge.worker")
        assert not loaded & set(DATACLASS_ONLY)

    def test_worker_entry_point_runs_without_runpy_warning(self):
        done = fresh_python("-W", "error::RuntimeWarning", "-m", "benchforge.worker", "--obs-max", "30")
        assert done.returncode == 0, done.stderr
        assert '"event":"success"' in done.stdout

    def test_bare_package_import_loads_no_submodule(self):
        loaded = modules_after("import benchforge")
        assert not {m for m in loaded if m.startswith("benchforge.")}


class TestPackageSurface:
    @pytest.mark.parametrize("name", benchforge.__all__)
    def test_public_name_is_the_submodule_object(self, name):
        value = getattr(benchforge, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("benchforge.")
        assert getattr(home, name) is value

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from benchforge import *", namespace)
        assert set(benchforge.__all__) <= namespace.keys()
        assert namespace["parse_suite"] is benchforge.suite.parse_suite

    def test_dir_lists_all(self):
        assert set(benchforge.__all__) <= set(dir(benchforge))
        assert "__version__" in dir(benchforge)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'benchforge' has no attribute 'nope'"):
            benchforge.nope


FROZEN = [
    (MetricEvent, "data", lambda: MetricEvent("rate", 1.0, "train", {"rate": 2.0})),
    (Rejection, "reason", lambda: Rejection("x", "not valid JSON")),
    (Observation, "work", lambda: Observation(work=2.0, elapsed=1.0)),
    (TimerConfig, "obs_min", lambda: TimerConfig(obs_min=5)),
    (WorkloadSpec, "base_rate", lambda: WorkloadSpec(kind="jitter", jitter_frac=0.1)),
]
FROZEN_IDS = [cls.__name__ for cls, _, _ in FROZEN]


class TestValueTypes:
    @pytest.mark.parametrize("cls, field, make", FROZEN, ids=FROZEN_IDS)
    def test_fields_cannot_be_assigned(self, cls, field, make):
        value = make()
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("cls, field, make", FROZEN, ids=FROZEN_IDS)
    def test_equal_by_value(self, cls, field, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert repr(a) == repr(b) and repr(a).startswith(f"{cls.__name__}(")

    def test_unequal_values_differ(self):
        assert Observation(work=2.0, elapsed=1.0) != Observation(work=2.0, elapsed=1.0, warmup=True)
        assert hash(Observation(work=2.0, elapsed=1.0)) == hash(Observation(work=2.0, elapsed=1.0))

    def test_observation_validates_work_and_elapsed(self):
        with pytest.raises(ValueError, match="work must be positive"):
            Observation(work=0, elapsed=1)
        with pytest.raises(ValueError, match="elapsed must be positive"):
            Observation(work=1, elapsed=0)

    def test_each_event_gets_a_fresh_payload(self):
        a, b = MetricEvent("start", 0.0, "train"), MetricEvent("start", 0.0, "train")
        assert a.data == {} and b.data == {}
        a.data["k"] = 1
        assert b.data == {}
        assert MetricEvent("start", 0.0, "train").data == {}
