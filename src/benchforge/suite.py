"""Suite definitions: parsing, validation, selection, rendering.

A suite is fully described by one YAML document with top-level keys
``suite``, ``defaults``, ``targets`` and ``benchmarks``. Unknown keys are
rejected rather than ignored: silent typos corrupt procurement runs.
"""

from __future__ import annotations

import fnmatch
import hashlib
import math
import sys
from collections.abc import Hashable
from typing import Any, NamedTuple

import yaml

SCALE_MODES = ("single-device", "node-devices", "multi-node")

# libyaml's loader is about ten times faster than the pure one; PyYAML built
# without libyaml has only the pure one. Rendering keeps the pure dumper:
# libyaml wraps long escaped strings and writes empty keys differently, and
# any change to the rendered text would change ``SuiteConfig.sha256``.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

DEFAULT_OBS_MIN = 30
DEFAULT_OBS_MAX = 60
DEFAULT_TIMEOUT_S = 300.0

# Tag dimensions mirrored by coverage targets. "model_sizes" is the one
# mutually exclusive dimension: every benchmark has exactly one size class.
TAG_DIMENSIONS = ("domains", "architectures", "model_sizes", "parallelism", "libraries")

class SuiteError(ValueError):
    """Raised for malformed or inconsistent suite documents."""


class TaxonomyTags(NamedTuple):
    """Design-dimension labels for one benchmark.

    All dimensions may carry several labels except ``model_size_class``,
    which is exactly one.
    """

    domains: frozenset[str] = frozenset()
    architectures: frozenset[str] = frozenset()
    model_size_class: str = ""
    parallelism: frozenset[str] = frozenset()
    libraries: frozenset[str] = frozenset()

    def labels(self, dimension: str) -> frozenset[str]:
        if dimension == "model_sizes":
            return frozenset({self.model_size_class}) if self.model_size_class else frozenset()
        return getattr(self, dimension)


class BenchmarkDefaults(NamedTuple):
    obs_min: int = DEFAULT_OBS_MIN
    obs_max: int = DEFAULT_OBS_MAX
    timeout_s: float = DEFAULT_TIMEOUT_S


class CoverageTargets(NamedTuple):
    """Target proportion per column, per design dimension."""

    dimensions: dict[str, dict[str, float]]


class _BenchmarkSpecFields(NamedTuple):
    name: str
    weight: float = 1.0
    enabled: bool = True
    scale: str = "single-device"
    install_cmd: str = ""
    prepare_cmd: str = ""
    run_cmd: str = ""
    env: dict[str, str] = None  # BenchmarkSpec.__new__ puts a fresh {} here
    unit_of_work: str = "items"
    obs_min: int = DEFAULT_OBS_MIN
    obs_max: int = DEFAULT_OBS_MAX
    timeout_s: float = DEFAULT_TIMEOUT_S
    tags: TaxonomyTags | None = None


class BenchmarkSpec(_BenchmarkSpecFields):
    """One suite entry. ``env`` defaults to a fresh ``{}``."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any):
        spec = super().__new__(cls, *args, **kwargs)
        return spec if spec.env is not None else spec._replace(env={})


class SuiteConfig(NamedTuple):
    """A parsed suite. Immutable after construction; safe to share."""

    suite_name: str
    benchmarks: tuple[BenchmarkSpec, ...]
    defaults: BenchmarkDefaults = BenchmarkDefaults()
    targets: CoverageTargets | None = None

    def enabled_benchmarks(self) -> list[BenchmarkSpec]:
        return [b for b in self.benchmarks if b.enabled]

    def benchmark(self, name: str) -> BenchmarkSpec:
        for bench in self.benchmarks:
            if bench.name == name:
                return bench
        raise SuiteError(f"no benchmark named {name!r}")

    def sha256(self) -> str:
        return text_sha256(render_suite(self))


def parse_suite(text: str) -> SuiteConfig:
    """Parse a YAML suite document into a fully populated SuiteConfig.

    Suite defaults are applied to every per-benchmark field that the
    document leaves absent; per-benchmark values always win. Parsing
    decodes the document's shape only: it makes an int a float where the
    field is a number and an env scalar text, and leaves every type and
    value rule to ``validate_suite``, whose first violation it raises.

    Raises:
        SuiteError: on YAML syntax errors (position reported), a part that
            is not a mapping or list, unknown keys, or a ``validate_suite``
            violation.
    """
    # A scalar the loader cannot build, such as a date out of range or an int
    # past Python's digit limit, raises ValueError rather than a YAMLError.
    try:
        raw = yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:
        raise SuiteError(f"suite document is not valid YAML: {exc}") from exc
    if raw is None:
        raise SuiteError("suite document is empty")
    if not isinstance(raw, dict):
        raise SuiteError("suite document must be a mapping")

    # The document names SuiteConfig.suite_name ``suite``.
    _check_keys(raw, ("suite", *SuiteConfig._fields[1:]), "top level")

    defaults = _parse_defaults(raw.get("defaults"))

    raw_benchmarks = raw.get("benchmarks") or []
    if not isinstance(raw_benchmarks, list):
        raise SuiteError("'benchmarks' must be a list")

    cfg = SuiteConfig(
        suite_name=raw.get("suite", "unnamed"),
        benchmarks=tuple(_parse_benchmark(item, i, defaults) for i, item in enumerate(raw_benchmarks)),
        defaults=defaults,
        targets=_parse_targets(raw.get("targets")),
    )
    violations = validate_suite(cfg)
    if violations:
        raise SuiteError(violations[0])
    return cfg


def load_suite(path: Any) -> SuiteConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_suite(f.read())


def validate_suite(cfg: SuiteConfig) -> list[str]:
    """Check every suite rule, types included; return one description per violation.

    Violations are data, not failures: an empty list means the suite is
    valid, and a field of the wrong type is a violation, not an exception.
    Each names the offending benchmark and field. This is the one home of
    the suite's rules: ``parse_suite`` raises the first violation, ``run``
    refuses a suite with any, and ``install`` and ``prepare`` apply the
    per-benchmark ones, ``benchmark_violations``.
    """
    violations: list[str] = []
    if not _fits(cfg.suite_name, str) or not cfg.suite_name.strip():
        violations.append(f"suite: suite_name must be non-empty text, got {cfg.suite_name!r}")
    if not cfg.benchmarks:
        violations.append("suite: at least one benchmark required")
    mistyped = _mistyped(cfg.defaults)
    violations.extend([f"defaults: {m}" for m in mistyped] or _entry_violations("defaults", cfg.defaults))
    seen: set[str] = set()
    for bench in cfg.benchmarks:
        violations.extend(benchmark_violations(bench))
        if _fits(bench.name, str):
            if bench.name in seen:
                violations.append(f"duplicate benchmark name {bench.name!r}")
            seen.add(bench.name)
    if cfg.benchmarks and all(
        _fits(b.enabled, bool) and _fits(b.weight, float) and _finite(b.weight) for b in cfg.benchmarks
    ):
        if sum(b.weight for b in cfg.benchmarks if b.enabled) <= 0:
            violations.append("suite: total weight of enabled benchmarks must be > 0")
    if cfg.targets is not None:
        violations.extend(_validate_targets(cfg.targets))
    return violations


def benchmark_violations(bench: BenchmarkSpec) -> list[str]:
    """``validate_suite``'s rules for one entry; the value rules run only on a well-typed one."""
    where = f"benchmark {bench.name!r}"
    mistyped = _mistyped(bench)
    if not (isinstance(bench.env, dict) and all(_fits(s, str) for pair in bench.env.items() for s in pair)):
        mistyped.append(f"env must be a mapping of text to text, got {bench.env!r}")
    if isinstance(bench.tags, TaxonomyTags):
        mistyped.extend(f"tags.{m}" for m in _mistyped(bench.tags))
    elif bench.tags is not None:
        mistyped.append(f"tags must be None or TaxonomyTags, got {bench.tags!r}")
    if mistyped:
        return [f"{where}: {m}" for m in mistyped]
    violations: list[str] = []
    # The name is a directory under runs/<stamp>/, envs/ and data/: one path component.
    if bench.name in ("", ".", "..") or "/" in bench.name or "\0" in bench.name:
        violations.append(f"{where}: name must be one path component (not empty, '.' or '..', no '/' or NUL)")
    elif bench.name != bench.name.strip():
        violations.append(f"{where}: name must not start or end with whitespace")
    if bench.weight < 0:
        violations.append(f"{where}: weight must be >= 0, got {bench.weight}")
    violations.extend(_entry_violations(where, bench))
    if not bench.run_cmd.strip():
        violations.append(f"{where}: run_cmd must be non-empty")
    for field in ("install_cmd", "prepare_cmd", "run_cmd"):
        try:  # the defaults have the types run gives, so what resolves here resolves there
            resolve_command(getattr(bench, field))
        except SuiteError as exc:
            violations.append(f"{where}: {field}: {exc}")
    if not bench.unit_of_work:
        violations.append(f"{where}: unit_of_work must be non-empty")
    if bench.scale not in SCALE_MODES:
        violations.append(f"{where}: scale must be one of {SCALE_MODES}, got {bench.scale!r}")
    return violations


# How a violation names the type of a field, by the type of the field's default.
_NOUNS = {bool: "a boolean", int: "an integer", float: "a number", str: "text", frozenset: "a set of text labels"}


def _fits(value: Any, kind: type) -> bool:
    """Whether ``value`` is of ``kind``: an int is also a number, a bool only a boolean, and a set holds text."""
    if isinstance(value, bool) != (kind is bool):
        return False
    if kind is frozenset:
        return isinstance(value, frozenset) and all(isinstance(label, str) for label in value)
    return isinstance(value, (int, float) if kind is float else kind)


def _mistyped(entry: Any) -> list[str]:
    """The type rules a suite NamedTuple breaks: each field has its default's type, and a number is finite.

    A benchmark's name, the one field without a default, is text; the
    fields whose default is None (env and tags) are the caller's to check.
    """
    found = []
    for field, value in zip(entry._fields, entry):
        kind = type(entry._field_defaults.get(field, ""))
        if kind not in _NOUNS:
            continue
        if not _fits(value, kind):
            found.append(f"{field} must be {_NOUNS[kind]}, got {value!r}")
        elif kind is float and not _finite(value):
            found.append(f"{field} must be finite, got {value}")
    return found


def _finite(value: float) -> bool:
    """Whether a number is finite; an int past the largest float is not, since no float holds it."""
    return abs(value) <= sys.float_info.max


def _as_float(value: Any) -> Any:
    """An int as a float; an int past the largest float, or any other value, as it is."""
    return float(value) if type(value) is int and _finite(value) else value


def _entry_violations(where: str, entry: BenchmarkDefaults | BenchmarkSpec) -> list[str]:
    """The value rules the suite defaults share with each benchmark: observation budget and timeout."""
    violations: list[str] = []
    if entry.obs_min <= 0:
        violations.append(f"{where}: obs_min must be positive, got {entry.obs_min}")
    if entry.obs_min > entry.obs_max:
        violations.append(
            f"{where}: obs_min <= obs_max required, got {entry.obs_min} > {entry.obs_max}"
        )
    if entry.timeout_s <= 0:
        violations.append(f"{where}: timeout_s must be positive, got {entry.timeout_s}")
    return violations


def _validate_targets(targets: CoverageTargets) -> list[str]:
    # Sorted, the order render_suite writes, so a reparsed suite reports the same first violation.
    violations: list[str] = []
    for dim, columns in sorted(targets.dimensions.items()):
        for col, prop in sorted(columns.items()):
            if not _fits(prop, float):
                violations.append(f"targets.{dim}.{col}: proportion must be a number, got {prop!r}")
            elif not 0.0 <= prop <= 1.0:
                violations.append(f"targets.{dim}.{col}: proportion must be in [0,1], got {prop}")
        # Summed only when every proportion is in range, so no sum overflows or meets inf - inf.
        if dim == "model_sizes" and columns and all(_fits(p, float) and 0 <= p <= 1 for p in columns.values()):
            total = math.fsum(columns.values())  # exactly rounded, so independent of column order
            if abs(total - 1.0) > 1e-9:
                violations.append(
                    f"targets.model_sizes: proportions must sum to 1, got {total!r}"
                )
    return violations


def resolve_command(
    template: str,
    base_dir: Any = "",
    bench_dir: Any = "",
    device_id: str = "",
    device_count: int = 0,
    rank: int = 0,
    world_size: int = 1,
) -> tuple[str, ...]:
    """Split ``template`` like a shell line, then fill in the placeholders of each word.

    The placeholders are the parameters after ``template``; the defaults of
    the device ones are those of install and prepare. A value is never
    split or unquoted, so a base dir with a space stays one word. A field
    names a placeholder exactly (``{rank}``, not ``{rank[0]}``) and may
    carry a conversion and a format spec that its value accepts
    (``{rank:03d}``).

    Raises:
        SuiteError: on an unclosed quote, an unbalanced brace, an unknown
            placeholder, or a conversion or format spec its value refuses.
    """
    import shlex
    from string import Formatter

    values = {
        "device_id": device_id,
        "device_count": device_count,
        "rank": rank,
        "world_size": world_size,
        "base_dir": str(base_dir),
        "bench_dir": str(bench_dir),
    }
    formatter = Formatter()
    try:
        words = []
        for word in shlex.split(template):
            parts = []
            for literal, field, spec, conversion in formatter.parse(word):
                parts.append(literal)
                if field is not None:
                    parts.append(format(formatter.convert_field(values[field], conversion), spec))
            words.append("".join(parts))
    except KeyError as exc:
        allowed = ", ".join("{" + name + "}" for name in values)
        raise SuiteError(f"unknown placeholder {{{exc.args[0]}}}; allowed: {allowed}") from None
    except ValueError as exc:
        raise SuiteError(f"malformed command template: {exc}") from None
    return tuple(words)


def select_benchmarks(cfg: SuiteConfig, selector: str) -> SuiteConfig:
    """Filter a suite down to the enabled benchmarks matching ``selector``.

    Selector grammar: comma-separated terms, matched as a union. A bare
    term is a glob over benchmark names; ``key=value`` filters on a tag
    dimension (``domain=NLP``, ``arch=CNN``, ``size=70B``,
    ``parallelism=1-Node Data-Par.``, ``library=JAX``) or on
    ``name=<glob>``. Order and weights are untouched.

    Raises:
        SuiteError: when the selection comes out empty, which would
            otherwise produce a silent no-op run.
    """
    terms = [t.strip() for t in selector.split(",") if t.strip()]
    if not terms:
        raise SuiteError("empty selector")

    matched = tuple(
        b for b in cfg.benchmarks if b.enabled and any(_matches(b, t) for t in terms)
    )
    if not matched:
        raise SuiteError(f"selector {selector!r} matches no enabled benchmark")
    return cfg._replace(benchmarks=matched)


_SELECTOR_KEYS = {
    "name": "name",
    "domain": "domains",
    "arch": "architectures",
    "architecture": "architectures",
    "size": "model_sizes",
    "parallelism": "parallelism",
    "library": "libraries",
    "lib": "libraries",
}


def _matches(bench: BenchmarkSpec, term: str) -> bool:
    if "=" not in term:
        return fnmatch.fnmatchcase(bench.name, term)
    key, _, value = term.partition("=")
    key = key.strip().lower()
    value = value.strip()
    if key not in _SELECTOR_KEYS:
        raise SuiteError(
            f"unknown selector key {key!r}; expected one of {sorted(_SELECTOR_KEYS)}"
        )
    target = _SELECTOR_KEYS[key]
    if target == "name":
        return fnmatch.fnmatchcase(bench.name, value)
    if bench.tags is None:
        return False
    return value in bench.tags.labels(target)


def render_suite(cfg: SuiteConfig) -> str:
    """Render a SuiteConfig back to YAML such that reparsing round-trips.

    Every field is written explicitly, so the output is also the
    canonical form hashed by ``SuiteConfig.sha256``.
    """
    doc: dict[str, Any] = {
        "suite": cfg.suite_name,
        "defaults": {
            "obs_min": cfg.defaults.obs_min,
            "obs_max": cfg.defaults.obs_max,
            "timeout_s": _as_float(cfg.defaults.timeout_s),
        },
        "benchmarks": [_render_benchmark(b) for b in cfg.benchmarks],
    }
    if cfg.targets is not None:
        doc["targets"] = {
            dim: {col: _as_float(p) for col, p in sorted(columns.items())}
            for dim, columns in sorted(cfg.targets.dimensions.items())
        }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def text_sha256(rendered: str) -> str:
    """The suite hash of ``render_suite`` output, for callers that already rendered it."""
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def _render_benchmark(bench: BenchmarkSpec) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": bench.name,
        "weight": _as_float(bench.weight),
        "enabled": bench.enabled,
        "scale": bench.scale,
        "run_cmd": bench.run_cmd,
        "unit_of_work": bench.unit_of_work,
        "obs_min": bench.obs_min,
        "obs_max": bench.obs_max,
        "timeout_s": _as_float(bench.timeout_s),
    }
    if bench.install_cmd:
        out["install_cmd"] = bench.install_cmd
    if bench.prepare_cmd:
        out["prepare_cmd"] = bench.prepare_cmd
    if bench.env:
        out["env"] = dict(sorted(bench.env.items()))
    if bench.tags is not None:
        out["tags"] = {
            "domains": sorted(bench.tags.domains),
            "architectures": sorted(bench.tags.architectures),
            "model_size_class": bench.tags.model_size_class,
            "parallelism": sorted(bench.tags.parallelism),
            "libraries": sorted(bench.tags.libraries),
        }
    return out


def _check_keys(raw: dict[str, Any], allowed: tuple[str, ...], context: str) -> None:
    for key in raw:
        if key not in allowed:
            raise SuiteError(
                f"{context}: unknown key {key!r}; allowed keys: {sorted(allowed)}"
            )


def _parse_defaults(raw: Any) -> BenchmarkDefaults:
    if raw is None:
        return BenchmarkDefaults()
    if not isinstance(raw, dict):
        raise SuiteError("'defaults' must be a mapping")
    _check_keys(raw, BenchmarkDefaults._fields, "defaults")
    return BenchmarkDefaults(**_floats(raw))


def _parse_targets(raw: Any) -> CoverageTargets | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise SuiteError("'targets' must be a mapping")
    _check_keys(raw, TAG_DIMENSIONS, "targets")
    dimensions: dict[str, dict[str, float]] = {}
    for dim, columns in raw.items():
        if not isinstance(columns, dict):
            raise SuiteError(f"targets.{dim}: must be a mapping of column -> proportion")
        dimensions[dim] = {str(col): _as_float(p) for col, p in columns.items()}
    return CoverageTargets(dimensions=dimensions)


def _parse_benchmark(item: Any, index: int, defaults: BenchmarkDefaults) -> BenchmarkSpec:
    context = f"benchmarks[{index}]"
    if not isinstance(item, dict):
        raise SuiteError(f"{context}: must be a mapping")
    _check_keys(item, BenchmarkSpec._fields, context)
    fields = {"name": None, **defaults._asdict(), **_floats(item)}
    env = fields.get("env") or {}
    if isinstance(env, dict):  # a scalar becomes its text; null, a list or a mapping is left to be refused
        env = {str(k): v if v is None or isinstance(v, (list, dict, set)) else str(v) for k, v in env.items()}
    fields["env"] = env
    fields["tags"] = _parse_tags(fields.get("tags"), context)
    return BenchmarkSpec(**fields)


def _floats(raw: dict[str, Any]) -> dict[str, Any]:
    """``raw`` with an int made a float, if one holds it, where the field is a number (its default is a float)."""
    numbers = {k for k, v in BenchmarkSpec._field_defaults.items() if type(v) is float}
    return {k: _as_float(v) if k in numbers else v for k, v in raw.items()}


def _parse_tags(raw: Any, context: str) -> Any:
    """A mapping of labels as TaxonomyTags; any other value is left to be refused."""
    if not isinstance(raw, dict):
        return raw
    _check_keys(raw, TaxonomyTags._fields, f"{context}.tags")

    def label_set(values: Any) -> Any:
        values = [values] if isinstance(values, str) else values or []
        hashable = isinstance(values, list) and all(isinstance(v, Hashable) for v in values)
        return frozenset(values) if hashable else values

    return TaxonomyTags(**{k: v if k == "model_size_class" else label_set(v) for k, v in raw.items()})
