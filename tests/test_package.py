"""Package surface and import hygiene: workers must not pay for the harness."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import benchforge
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
