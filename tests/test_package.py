"""Package surface and import hygiene: workers must not pay for the harness, nor the CLI for what it does not run."""

import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import benchforge
from benchforge.aggregate import BenchResult, SuiteScore
from benchforge.design import ClassMetrics, CoverageReport, MLCMatrix
from benchforge.executor import ProcessOutcome, RunRecord
from benchforge.protocol import MetricEvent, ObservationLog, Rejection
from benchforge.report import Cell, GlobalCell, ReportDocument, ReportRow
from benchforge.suite import BenchmarkDefaults, BenchmarkSpec, CoverageTargets, SuiteConfig, TaxonomyTags
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

# What no ``report`` or ``run`` needs: dataclasses, statistics and what they
# load, a thread pool and design.
CLI_NEVER_AT_IMPORT = (
    "dataclasses",
    "inspect",
    "statistics",
    "fractions",
    "decimal",
    "concurrent.futures",
    "benchforge.design",
)

# What the CLI imports only when a command needs it: subprocess, selectors and
# signal when a child is started, resource when a run ends, shlex when a suite's
# command templates are checked. A ``report`` checks templates, and starts no child.
PROCESS_ONLY = ("subprocess", "selectors", "signal", "resource")
RUN_ONLY = (*PROCESS_ONLY, "shlex")

# Every module the benchmark's tracer wraps must still load with the CLI.
TRACED = ("suite", "executor", "protocol", "aggregate", "report", "cli")


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
        assert "benchforge.events" in loaded
        assert not loaded & {"benchforge.protocol", "array", "argparse"}
        assert not loaded & set(HARNESS_ONLY)

    def test_worker_import_loads_neither_dataclasses_nor_inspect(self):
        loaded = modules_after("import benchforge.worker")
        assert not loaded & set(DATACLASS_ONLY)

    def test_worker_entry_point_runs_without_runpy_warning(self):
        done = fresh_python("-W", "error::RuntimeWarning", "-m", "benchforge.worker", "--obs-max", "30")
        assert done.returncode == 0, done.stderr
        assert '"event":"success"' in done.stdout

    @pytest.mark.parametrize("module", CLI_NEVER_AT_IMPORT + RUN_ONLY)
    def test_cli_import_does_not_load(self, module):
        assert module not in modules_after("import benchforge.cli")

    def test_run_does_not_load_the_thread_pool(self, tmp_path):
        suite = tmp_path / "s.yaml"
        suite.write_text(
            "suite: s\nbenchmarks:\n"
            f"  - name: w\n    run_cmd: \"{sys.executable} -m benchforge.worker --obs-max 5 --seed {{rank}}\"\n"
            "    obs_min: 5\n    obs_max: 5\n"
        )
        argv = ["run", "--config", str(suite), "--base-dir", str(tmp_path), "--devices", "d0,d1"]
        # ``run`` prints its summary on stdout, so the modules come on the last line.
        done = fresh_python(
            "-c",
            f"import json, sys; from benchforge.cli import main; code = main({argv!r}); "
            "print(json.dumps([code, sorted(sys.modules)]))",
        )
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        assert "benchforge.executor" in loaded
        assert "concurrent.futures" not in loaded

    def test_report_loads_no_process_module(self, tmp_path):
        from test_report_differential import _line, write_run

        stream = _line("rate", {"batch": 32, "rate": 64.0, "units": "x"}) + _line("success", {})
        process = {"stream": (stream, []), "classified": "success", "sidecar": "present"}
        bench = {"scale": "single-device", "weight": 1.0, "enabled": True, "obs_min": 1, "processes": [process]}
        write_run(tmp_path / "run", [bench], [0])
        argv = ["report", "--runs", str(tmp_path / "run")]
        # ``report`` prints its table on stdout, so the modules come on the last line.
        done = fresh_python(
            "-c",
            f"import json, sys; from benchforge.cli import main; code = main({argv!r}); "
            "print(json.dumps([code, sorted(sys.modules)]))",
        )
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        assert "benchforge.executor" in loaded
        assert not set(loaded) & set(PROCESS_ONLY)

    def test_cli_import_loads_every_traced_layer(self):
        loaded = modules_after("import benchforge.cli")
        assert {f"benchforge.{layer}" for layer in TRACED} <= loaded

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


# One log, so that two outcomes made with it compare equal.
LOG = ObservationLog()
FROZEN = [
    (MetricEvent, "data", lambda: MetricEvent("rate", 1.0, "train", {"rate": 2.0})),
    (Rejection, "reason", lambda: Rejection("x", "not valid JSON")),
    (TimerConfig, "obs_min", lambda: TimerConfig(obs_min=5)),
    (WorkloadSpec, "base_rate", lambda: WorkloadSpec(kind="jitter", jitter_frac=0.1)),
    (TaxonomyTags, "domains", lambda: TaxonomyTags(domains=frozenset({"NLP"}), model_size_class="7B")),
    (BenchmarkDefaults, "obs_max", lambda: BenchmarkDefaults(obs_max=90)),
    (CoverageTargets, "dimensions", lambda: CoverageTargets({"domains": {"NLP": 1.0}})),
    (BenchmarkSpec, "env", lambda: BenchmarkSpec(name="b", run_cmd="w", env={"K": "v"})),
    (SuiteConfig, "benchmarks", lambda: SuiteConfig("s", (BenchmarkSpec(name="b", run_cmd="w"),))),
    (BenchResult, "perf", lambda: BenchResult("b", 1.0, 2.0, 1.0)),
    (SuiteScore, "score", lambda: SuiteScore(2.0, {"b": 1.0}, 1.0)),
    (CoverageReport, "deviation", lambda: CoverageReport({"domains": {"NLP": 1.0}}, {}, 1.0)),
    (ClassMetrics, "recall", lambda: ClassMetrics(("A",), {"A": 50.0}, {"A": None})),
    (ProcessOutcome, "classified", lambda: ProcessOutcome(0, ["d0"], None, 0, 1.0, 0.5, 1024, "success", "", None, LOG)),
    (RunRecord, "outcomes", lambda: RunRecord("b", [], {"run": 1.0}, "no plan")),
    (Cell, "perf", lambda: Cell(2.0, 1.0, 0.5)),
    (ReportRow, "cells", lambda: ReportRow("b", 1.0, {"s": Cell(2.0, 1.0)})),
    (GlobalCell, "ratio", lambda: GlobalCell(2.0, 1.0, 0.5)),
    (ReportDocument, "metadata", lambda: ReportDocument(["s"], None, [], {"s": GlobalCell(2.0, 1.0)}, {"k": 1})),
]
FROZEN_IDS = [cls.__name__ for cls, _, _ in FROZEN]
# Each checked record, a field, and a value its constructor refuses or fills in.
REPLACED = [
    (WorkloadSpec(), "batch_size", 0),
    (TimerConfig(), "obs_min", 0),
    (BenchResult("b", 1.0, 2.0, 1.0), "perf", -1.0),
    (MetricEvent("start", 0.0, "t"), "event", "bogus"),
    (BenchmarkSpec(name="b"), "env", None),
]


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

    @pytest.mark.parametrize(
        "record, field, value", REPLACED, ids=[f"{type(r).__name__}.{f}" for r, f, _ in REPLACED]
    )
    def test_replace_gives_what_the_constructor_gives(self, record, field, value):
        fields = {**record._asdict(), field: value}
        try:
            built = type(record)(**fields)
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                record._replace(**{field: value})
        else:
            assert record._replace(**{field: value}) == built

    def test_unequal_values_differ(self):
        assert BenchResult("b", 1.0, 2.0, 1.0) != BenchResult("b", 1.0, 2.0, 0.5)
        assert hash(BenchResult("b", 1.0, 2.0, 1.0)) == hash(BenchResult("b", 1.0, 2.0, 1.0))

    def test_each_event_gets_a_fresh_payload(self):
        a, b = MetricEvent("start", 0.0, "train"), MetricEvent("start", 0.0, "train")
        assert a.data == {} and b.data == {}
        a.data["k"] = 1
        assert b.data == {}
        assert MetricEvent("start", 0.0, "train").data == {}


# Every converted type with a defaulted container field, and how to build one without it.
FRESH_DEFAULTS = [
    (BenchmarkSpec, "env", lambda: BenchmarkSpec(name="b")),
    (BenchmarkSpec, "env", lambda: BenchmarkSpec("b", 1.0, True, "single-device", "", "", "w")),
    (MLCMatrix, "counts", lambda: MLCMatrix(classes=("A", "B"))),
]


class TestFreshDefaults:
    @pytest.mark.parametrize(
        "cls, field, make", FRESH_DEFAULTS, ids=[f"{cls.__name__}.{field}" for cls, field, _ in FRESH_DEFAULTS]
    )
    def test_each_instance_gets_its_own_container(self, cls, field, make):
        a, b = make(), make()
        assert getattr(a, field) == getattr(b, field)
        assert getattr(a, field) is not getattr(b, field)

    def test_explicit_container_is_kept(self):
        env = {"K": "v"}
        assert BenchmarkSpec("b", 1.0, True, "single-device", "", "", "w", env).env is env
        assert BenchmarkSpec(name="b", env=env).env is env

    def test_select_benchmarks_keeps_the_type(self, reference_suite):
        from benchforge.suite import select_benchmarks

        selected = select_benchmarks(reference_suite, "domain=NLP")
        assert type(selected) is SuiteConfig
        assert selected._replace(benchmarks=reference_suite.benchmarks) == reference_suite
