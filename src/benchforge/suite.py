"""Suite definitions: parsing, validation, selection, rendering.

A suite is fully described by one YAML document with top-level keys
``suite``, ``defaults``, ``targets`` and ``benchmarks``. Unknown keys are
rejected rather than ignored: silent typos corrupt procurement runs.
"""

from __future__ import annotations

import fnmatch
import hashlib
import math
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

# Placeholders command templates may use; anything else is a config error.
COMMAND_PLACEHOLDERS = (
    "device_id",
    "device_count",
    "rank",
    "world_size",
    "base_dir",
    "bench_dir",
)


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


class _CoverageTargetsFields(NamedTuple):
    dimensions: dict[str, dict[str, float]]


class CoverageTargets(_CoverageTargetsFields):
    """Target proportion per column, per design dimension. ``dimensions`` defaults to a fresh ``{}``."""

    __slots__ = ()

    def __new__(cls, dimensions: dict[str, dict[str, float]] | None = None):
        return super().__new__(cls, {} if dimensions is None else dimensions)


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
    decodes shape and types only; every value rule is ``validate_suite``'s,
    and the first violation it reports is raised.

    Raises:
        SuiteError: on YAML syntax errors (position reported), a part that
            is not a mapping or list, unknown keys, wrongly typed or
            non-finite values, a missing name, duplicate names, unknown
            command placeholders, or a ``validate_suite`` violation.
    """
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise SuiteError(f"suite document is not valid YAML: {exc}") from exc
    if raw is None:
        raise SuiteError("suite document is empty")
    if not isinstance(raw, dict):
        raise SuiteError("suite document must be a mapping")

    # The document names SuiteConfig.suite_name ``suite``.
    _check_keys(raw, ("suite", *SuiteConfig._fields[1:]), "top level")

    suite_name = raw.get("suite", "unnamed")
    if not isinstance(suite_name, str) or not suite_name.strip():
        raise SuiteError("'suite' must be a non-empty string")

    defaults = _parse_defaults(raw.get("defaults"))
    targets = _parse_targets(raw.get("targets"))

    raw_benchmarks = raw.get("benchmarks") or []
    if not isinstance(raw_benchmarks, list):
        raise SuiteError("'benchmarks' must be a list")

    benchmarks: list[BenchmarkSpec] = []
    seen: set[str] = set()
    for i, item in enumerate(raw_benchmarks):
        bench = _parse_benchmark(item, i, defaults)
        if bench.name in seen:
            raise SuiteError(f"duplicate benchmark name {bench.name!r}")
        seen.add(bench.name)
        benchmarks.append(bench)

    cfg = SuiteConfig(
        suite_name=suite_name.strip(),
        benchmarks=tuple(benchmarks),
        defaults=defaults,
        targets=targets,
    )
    violations = validate_suite(cfg)
    if violations:
        raise SuiteError(violations[0])
    return cfg


def load_suite(path: Any) -> SuiteConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_suite(f.read())


def validate_suite(cfg: SuiteConfig) -> list[str]:
    """Check every suite invariant; return one description per violation.

    Violations are data, not failures: an empty list means the suite is
    valid. Each entry names the offending benchmark and field. This is
    the one home of the suite's value rules; ``parse_suite`` raises the
    first violation.
    """
    violations: list[str] = []
    if not cfg.benchmarks:
        violations.append("suite: at least one benchmark required")
    violations.extend(_entry_violations("defaults", cfg.defaults))
    for bench in cfg.benchmarks:
        where = f"benchmark {bench.name!r}"
        if not math.isfinite(bench.weight):
            violations.append(f"{where}: weight must be finite, got {bench.weight}")
        elif bench.weight < 0:
            violations.append(f"{where}: weight must be >= 0, got {bench.weight}")
        violations.extend(_entry_violations(where, bench))
        if not bench.run_cmd.strip():
            violations.append(f"{where}: run_cmd must be non-empty")
        if not bench.unit_of_work:
            violations.append(f"{where}: unit_of_work must be non-empty")
        if bench.scale not in SCALE_MODES:
            violations.append(f"{where}: scale must be one of {SCALE_MODES}, got {bench.scale!r}")
    enabled_weight = sum(b.weight for b in cfg.benchmarks if b.enabled)
    if cfg.benchmarks and enabled_weight <= 0:
        violations.append("suite: total weight of enabled benchmarks must be > 0")
    if cfg.targets is not None:
        violations.extend(_validate_targets(cfg.targets))
    return violations


def _entry_violations(where: str, entry: BenchmarkDefaults | BenchmarkSpec) -> list[str]:
    """The rules the suite defaults share with each benchmark: observation budget and timeout."""
    violations: list[str] = []
    if entry.obs_min <= 0:
        violations.append(f"{where}: obs_min must be positive, got {entry.obs_min}")
    if entry.obs_min > entry.obs_max:
        violations.append(
            f"{where}: obs_min <= obs_max required, got {entry.obs_min} > {entry.obs_max}"
        )
    if not math.isfinite(entry.timeout_s):
        violations.append(f"{where}: timeout_s must be finite, got {entry.timeout_s}")
    elif entry.timeout_s <= 0:
        violations.append(f"{where}: timeout_s must be positive, got {entry.timeout_s}")
    return violations


def _validate_targets(targets: CoverageTargets) -> list[str]:
    # Sorted, the order render_suite writes, so a reparsed suite reports the same first violation.
    violations: list[str] = []
    for dim, columns in sorted(targets.dimensions.items()):
        for col, prop in sorted(columns.items()):
            if not 0.0 <= prop <= 1.0:
                violations.append(f"targets.{dim}.{col}: proportion must be in [0,1], got {prop}")
        if dim == "model_sizes" and columns:
            total = math.fsum(columns.values())  # exactly rounded, so independent of column order
            if abs(total - 1.0) > 1e-9:
                violations.append(
                    f"targets.model_sizes: proportions must sum to 1, got {total!r}"
                )
    return violations


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
            "timeout_s": cfg.defaults.timeout_s,
        },
        "benchmarks": [_render_benchmark(b) for b in cfg.benchmarks],
    }
    if cfg.targets is not None:
        doc["targets"] = {
            dim: {col: float(p) for col, p in sorted(columns.items())}
            for dim, columns in sorted(cfg.targets.dimensions.items())
        }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def text_sha256(rendered: str) -> str:
    """The suite hash of ``render_suite`` output, for callers that already rendered it."""
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def _render_benchmark(bench: BenchmarkSpec) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": bench.name,
        "weight": float(bench.weight),
        "enabled": bench.enabled,
        "scale": bench.scale,
        "run_cmd": bench.run_cmd,
        "unit_of_work": bench.unit_of_work,
        "obs_min": bench.obs_min,
        "obs_max": bench.obs_max,
        "timeout_s": bench.timeout_s,
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
    return BenchmarkDefaults(
        obs_min=_int_field(raw, "obs_min", "defaults", DEFAULT_OBS_MIN),
        obs_max=_int_field(raw, "obs_max", "defaults", DEFAULT_OBS_MAX),
        timeout_s=_number_field(raw, "timeout_s", "defaults", DEFAULT_TIMEOUT_S),
    )


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
        parsed: dict[str, float] = {}
        for col, prop in columns.items():
            if isinstance(prop, bool) or not isinstance(prop, (int, float)):
                raise SuiteError(f"targets.{dim}.{col}: proportion must be a number")
            parsed[str(col)] = float(prop)
        dimensions[dim] = parsed
    return CoverageTargets(dimensions=dimensions)


def _parse_benchmark(item: Any, index: int, defaults: BenchmarkDefaults) -> BenchmarkSpec:
    context = f"benchmarks[{index}]"
    if not isinstance(item, dict):
        raise SuiteError(f"{context}: must be a mapping")
    _check_keys(item, BenchmarkSpec._fields, context)

    name = item.get("name")
    if not isinstance(name, str) or not name.strip():
        raise SuiteError(f"{context}: missing or empty 'name'")
    name = name.strip()
    context = f"benchmarks[{index}] ({name})"

    enabled = item.get("enabled", True)
    if not isinstance(enabled, bool):
        raise SuiteError(f"{context}: 'enabled' must be a boolean")

    env_raw = item.get("env") or {}
    if not isinstance(env_raw, dict):
        raise SuiteError(f"{context}: 'env' must be a mapping")

    commands: dict[str, str] = {}
    for key in ("install_cmd", "prepare_cmd", "run_cmd"):
        commands[key] = _str_field(item, key, context, "")
        _check_command_template(commands[key], f"{context}.{key}")

    return BenchmarkSpec(
        name=name,
        weight=_number_field(item, "weight", context, 1.0),
        enabled=enabled,
        scale=_str_field(item, "scale", context, "single-device"),
        env={str(k): str(v) for k, v in env_raw.items()},
        unit_of_work=_str_field(item, "unit_of_work", context, "items"),
        obs_min=_int_field(item, "obs_min", context, defaults.obs_min),
        obs_max=_int_field(item, "obs_max", context, defaults.obs_max),
        timeout_s=_number_field(item, "timeout_s", context, defaults.timeout_s),
        tags=_parse_tags(item.get("tags"), context),
        **commands,
    )


def _parse_tags(raw: Any, context: str) -> TaxonomyTags | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise SuiteError(f"{context}: 'tags' must be a mapping")
    _check_keys(raw, TaxonomyTags._fields, f"{context}.tags")
    size = raw.get("model_size_class", "")
    if not isinstance(size, str):
        raise SuiteError(f"{context}.tags.model_size_class: must be a single text label")

    def label_set(key: str) -> frozenset[str]:
        values = raw.get(key) or []
        if isinstance(values, str):
            values = [values]
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise SuiteError(f"{context}.tags.{key}: must be a list of text labels")
        return frozenset(values)

    return TaxonomyTags(
        domains=label_set("domains"),
        architectures=label_set("architectures"),
        model_size_class=size,
        parallelism=label_set("parallelism"),
        libraries=label_set("libraries"),
    )


def _check_command_template(cmd: str, context: str) -> None:
    try:
        cmd.format_map(_PlaceholderCheck())
    except KeyError as exc:
        raise SuiteError(
            f"{context}: unknown placeholder {{{exc.args[0]}}}; "
            f"allowed: {', '.join('{' + p + '}' for p in COMMAND_PLACEHOLDERS)}"
        ) from None
    except ValueError as exc:
        raise SuiteError(f"{context}: malformed command template: {exc}") from None


class _PlaceholderCheck(dict):
    def __missing__(self, key: str) -> str:
        if key in COMMAND_PLACEHOLDERS:
            return ""
        raise KeyError(key)


def _int_field(raw: dict[str, Any], key: str, context: str, default: int) -> int:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SuiteError(f"{context}: '{key}' must be an integer")
    return value


def _number_field(raw: dict[str, Any], key: str, context: str, default: float) -> float:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SuiteError(f"{context}: '{key}' must be a number")
    # Also a rule of validate_suite, for configs built in code; here YAML's .nan and .inf stop.
    if not math.isfinite(value):
        raise SuiteError(f"{context}: '{key}' must be a finite number, got {value}")
    return float(value)


def _str_field(raw: dict[str, Any], key: str, context: str, default: str) -> str:
    value = raw.get(key, default)
    if not isinstance(value, str):
        raise SuiteError(f"{context}: '{key}' must be a string")
    return value
