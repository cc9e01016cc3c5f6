"""benchforge: benchmark-suite orchestration, scoring, and design analysis."""

from importlib import import_module

__version__ = "0.1.0"


class _Checked:
    """First base of a NamedTuple record whose ``__new__`` checks its fields."""

    __slots__ = ()

    # Built through __new__, so _replace runs the constructor's checks too.
    @classmethod
    def _make(cls, fields):
        return cls(*fields)


# Submodules load on first attribute access (PEP 562), so `-m benchforge.worker` loads only events.
_EXPORTS = {
    "aggregate": ("BenchResult", "SuiteScore", "fold_bench", "fold_outcomes", "fold_process", "suite_score"),
    "design": (
        "ClassMetrics", "CoverageReport", "MLCMatrix", "coverage_proportions",
        "mlcm_build", "mlcm_metrics",
    ),
    "events": ("MetricEvent", "encode_event"),
    "executor": ("DevicePool", "ProcessOutcome", "ProcessPlan", "RunRecord", "plan_launches", "supervise_all"),
    "protocol": ("ObservationLog", "Rejection", "StreamDecoder", "decode_event", "read_stream"),
    "report": ("ReportDocument", "render_csv", "render_json", "render_report", "render_text"),
    "suite": (
        "BenchmarkSpec", "CoverageTargets", "SuiteConfig", "TaxonomyTags", "parse_suite",
        "render_suite", "select_benchmarks", "validate_suite",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str) -> object:
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOURCE.keys())
