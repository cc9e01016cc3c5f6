"""Suite parsing, validation, selection, and round-trip tests."""

import json
import random

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchforge import suite as suite_module
from benchforge.executor import DevicePool, install, prepare, run
from benchforge.suite import (
    SCALE_MODES,
    TAG_DIMENSIONS,
    BenchmarkDefaults,
    BenchmarkSpec,
    CoverageTargets,
    SuiteConfig,
    SuiteError,
    TaxonomyTags,
    parse_suite,
    render_suite,
    resolve_command,
    select_benchmarks,
    suite_document,
    suite_from_document,
    validate_suite,
)

# An int no float can hold: it has 401 digits.
HUGE = 10**400

MINIMAL = """
suite: tiny
benchmarks:
  - name: reformer
    weight: 1
    scale: single-device
    run_cmd: "worker --rate 64"
"""


class TestParse:
    def test_defaults_applied(self):
        cfg = parse_suite(MINIMAL)
        assert len(cfg.benchmarks) == 1
        bench = cfg.benchmarks[0]
        assert bench.enabled
        assert bench.obs_min == 30
        assert bench.obs_max == 60
        assert bench.timeout_s == 300.0

    def test_suite_defaults_flow_down_but_overrides_win(self):
        cfg = parse_suite(
            """
suite: s
defaults: {obs_min: 5, obs_max: 10, timeout_s: 42}
benchmarks:
  - {name: a, run_cmd: w}
  - {name: b, run_cmd: w, obs_max: 50, timeout_s: 7}
"""
        )
        a, b = cfg.benchmarks
        assert (a.obs_min, a.obs_max, a.timeout_s) == (5, 10, 42.0)
        assert (b.obs_min, b.obs_max, b.timeout_s) == (5, 50, 7.0)

    def test_empty_benchmark_list_is_an_error(self):
        with pytest.raises(SuiteError, match="at least one benchmark"):
            parse_suite("suite: s\nbenchmarks: []\n")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SuiteError, match="duplicate"):
            parse_suite(
                "suite: s\nbenchmarks:\n"
                "  - {name: bert, run_cmd: w}\n"
                "  - {name: bert, run_cmd: w}\n"
            )

    def test_missing_run_cmd_rejected(self):
        with pytest.raises(SuiteError, match="run_cmd"):
            parse_suite("suite: s\nbenchmarks:\n  - {name: a}\n")

    def test_unknown_scale_rejected(self):
        with pytest.raises(SuiteError, match="scale"):
            parse_suite("suite: s\nbenchmarks:\n  - {name: a, run_cmd: w, scale: warp}\n")

    def test_unknown_keys_rejected_not_ignored(self):
        with pytest.raises(SuiteError, match="unknown key"):
            parse_suite("suite: s\nbenchmarcks: []\n")
        with pytest.raises(SuiteError, match="unknown key"):
            parse_suite("suite: s\nbenchmarks:\n  - {name: a, run_cmd: w, wieght: 2}\n")

    def test_yaml_syntax_error_reports_position(self):
        with pytest.raises(SuiteError, match="line"):
            parse_suite("suite: [unclosed\nbenchmarks:\n")

    def test_unknown_placeholder_rejected(self):
        with pytest.raises(SuiteError, match="placeholder"):
            parse_suite("suite: s\nbenchmarks:\n  - {name: a, run_cmd: 'w {gpu}'}\n")

    def test_known_placeholders_accepted(self):
        cfg = parse_suite(
            "suite: s\nbenchmarks:\n"
            "  - {name: a, run_cmd: 'w {device_id} {rank} {world_size} {base_dir} {bench_dir} {device_count}'}\n"
        )
        assert cfg.benchmarks[0].name == "a"

    @pytest.mark.parametrize("field", ["weight", "timeout_s"])
    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_non_finite_number_rejected(self, field, value):
        with pytest.raises(SuiteError) as err:
            parse_suite(f"suite: s\nbenchmarks:\n  - {{name: a, run_cmd: w, {field}: {value}}}\n")
        assert str(err.value) == f"benchmark 'a': {field} must be finite, got {value[1:]}"

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_non_finite_default_timeout_rejected(self, value):
        with pytest.raises(SuiteError) as err:
            parse_suite(f"suite: s\ndefaults: {{timeout_s: {value}}}\nbenchmarks:\n  - {{name: a, run_cmd: w}}\n")
        assert str(err.value) == f"defaults: timeout_s must be finite, got {value[1:]}"

    @pytest.mark.parametrize("field", ["weight", "timeout_s"])
    @pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["positive", "negative"])
    def test_int_past_the_float_range_is_not_finite(self, field, value):
        with pytest.raises(SuiteError) as err:
            parse_suite(f"suite: s\nbenchmarks:\n  - {{name: a, run_cmd: w, {field}: {value}}}\n")
        assert str(err.value) == f"benchmark 'a': {field} must be finite, got {value}"

    def test_default_timeout_past_the_float_range_is_not_finite(self):
        with pytest.raises(SuiteError) as err:
            parse_suite(f"suite: s\ndefaults: {{timeout_s: {HUGE}}}\nbenchmarks:\n  - {{name: a, run_cmd: w}}\n")
        assert str(err.value) == f"defaults: timeout_s must be finite, got {HUGE}"

    def test_proportion_past_the_float_range_is_out_of_range(self):
        with pytest.raises(SuiteError) as err:
            parse_suite(f"suite: s\ntargets: {{model_sizes: {{S: {HUGE}}}}}\nbenchmarks:\n  - {{name: a, run_cmd: w}}\n")
        assert str(err.value) == f"targets.model_sizes.S: proportion must be in [0,1], got {HUGE}"

    @pytest.mark.parametrize("scalar", ["1" + "0" * 5000, "2001-13-01"], ids=["digit-limit", "date"])
    def test_scalar_the_loader_cannot_build_is_a_suite_error(self, scalar):
        with pytest.raises(SuiteError, match="suite document is not valid YAML"):
            parse_suite(f"suite: s\nbenchmarks:\n  - {{name: a, run_cmd: w, unit_of_work: {scalar}}}\n")

    def test_env_scalars_become_text(self):
        cfg = parse_suite("suite: s\nbenchmarks:\n  - {name: a, run_cmd: w, env: {A: 1, B: true, C: 1.5, D: x, 7: y}}\n")
        assert cfg.benchmarks[0].env == {"A": "1", "B": "True", "C": "1.5", "D": "x", "7": "y"}

    @pytest.mark.parametrize("value, shown", [("null", "None"), ("[1, 2]", "[1, 2]"), ("{k: v}", "{'k': 'v'}")])
    def test_env_value_that_is_not_a_scalar_is_refused(self, value, shown):
        with pytest.raises(SuiteError) as err:
            parse_suite(f"suite: s\nbenchmarks:\n  - {{name: a, run_cmd: w, env: {{X: {value}}}}}\n")
        assert str(err.value) == f"benchmark 'a': env must be a mapping of text to text, got {{'X': {shown}}}"

    @pytest.mark.parametrize("name", [" a", "a ", "\ta", " "])
    def test_name_with_surrounding_whitespace_is_refused_not_stripped(self, name):
        with pytest.raises(SuiteError) as err:
            parse_suite(f"suite: s\nbenchmarks:\n  - {{name: {json.dumps(name)}, run_cmd: w}}\n")
        assert str(err.value) == f"benchmark {name!r}: name must not start or end with whitespace"


class TestValidate:
    def test_reference_suite_is_clean(self, reference_suite):
        assert validate_suite(reference_suite) == []
        assert len(reference_suite.benchmarks) == 26

    def test_negative_weight_names_bench(self):
        bad = SuiteConfig(
            suite_name="s",
            benchmarks=(
                BenchmarkSpec(name="fine", weight=2.0, run_cmd="w"),
                BenchmarkSpec(name="broken", weight=-1.0, run_cmd="w"),
            ),
        )
        violations = validate_suite(bad)
        assert len(violations) == 1
        assert "broken" in violations[0]
        assert "weight" in violations[0]

    @pytest.mark.parametrize("field", ["weight", "timeout_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_number_names_bench(self, field, value):
        bad = SuiteConfig(
            suite_name="s",
            benchmarks=(
                BenchmarkSpec(name="fine", run_cmd="w"),
                BenchmarkSpec(name="broken", run_cmd="w", **{field: value}),
            ),
        )
        violations = validate_suite(bad)
        assert len(violations) == 1
        assert "broken" in violations[0]
        assert f"{field} must be finite" in violations[0]

    @pytest.mark.parametrize("field", ["weight", "timeout_s"])
    @pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["positive", "negative"])
    def test_int_past_the_float_range_is_one_violation(self, field, value):
        bad = SuiteConfig("s", (BenchmarkSpec(name="a", run_cmd="w", **{field: value}),))
        assert validate_suite(bad) == [f"benchmark 'a': {field} must be finite, got {value}"]

    def test_non_finite_model_sizes_are_not_summed(self):
        cfg = SuiteConfig(
            "s",
            (BenchmarkSpec(name="a", run_cmd="w"),),
            targets=CoverageTargets({"model_sizes": {"S": float("inf"), "XL": float("-inf"), "M": HUGE}}),
        )
        assert validate_suite(cfg) == [
            f"targets.model_sizes.M: proportion must be in [0,1], got {HUGE}",
            "targets.model_sizes.S: proportion must be in [0,1], got inf",
            "targets.model_sizes.XL: proportion must be in [0,1], got -inf",
        ]

    def test_obs_ordering_violation(self):
        bad = SuiteConfig(
            suite_name="s",
            benchmarks=(BenchmarkSpec(name="a", run_cmd="w", obs_min=80, obs_max=60),),
        )
        violations = validate_suite(bad)
        assert any("obs_min <= obs_max" in v for v in violations)

    def test_zero_total_weight_flagged(self):
        bad = SuiteConfig(
            suite_name="s",
            benchmarks=(BenchmarkSpec(name="a", weight=0.0, run_cmd="w"),),
        )
        assert any("total weight" in v for v in validate_suite(bad))

    @pytest.mark.parametrize(
        "defaults, expected",
        [
            (BenchmarkDefaults(obs_min=0), "defaults: obs_min must be positive, got 0"),
            (BenchmarkDefaults(obs_min=8, obs_max=5), "defaults: obs_min <= obs_max required, got 8 > 5"),
            (BenchmarkDefaults(timeout_s=0.0), "defaults: timeout_s must be positive, got 0.0"),
            (BenchmarkDefaults(timeout_s=float("inf")), "defaults: timeout_s must be finite, got inf"),
        ],
    )
    def test_bad_defaults_flagged(self, defaults, expected):
        # Every benchmark sets its own valid values, so only the defaults are wrong.
        bad = SuiteConfig(
            suite_name="s",
            benchmarks=(BenchmarkSpec(name="a", run_cmd="w"),),
            defaults=defaults,
        )
        assert validate_suite(bad) == [expected]

    def test_targets_report_in_rendered_order(self):
        # render_suite sorts dimensions and columns; the first violation must not depend on dict order.
        cfg = SuiteConfig(
            suite_name="s",
            benchmarks=(BenchmarkSpec(name="a", run_cmd="w"),),
            targets=CoverageTargets({"libraries": {"z": 1.5, "a": -0.5}, "domains": {"b": 2.0}}),
        )
        assert validate_suite(cfg) == [
            "targets.domains.b: proportion must be in [0,1], got 2.0",
            "targets.libraries.a: proportion must be in [0,1], got -0.5",
            "targets.libraries.z: proportion must be in [0,1], got 1.5",
        ]
        with pytest.raises(SuiteError) as err:
            parse_suite(render_suite(cfg))
        assert str(err.value) == validate_suite(cfg)[0]

    @pytest.mark.parametrize(
        "document, expected",
        [
            ("defaults: {obs_min: 0}", "defaults: obs_min must be positive, got 0"),
            ("defaults: {obs_min: 8, obs_max: 5}", "defaults: obs_min <= obs_max required, got 8 > 5"),
            ("defaults: {timeout_s: 0}", "defaults: timeout_s must be positive, got 0.0"),
            (
                "benchmarks:\n  - {name: a, run_cmd: w, weight: 0}",
                "suite: total weight of enabled benchmarks must be > 0",
            ),
            ("benchmarks:\n  - {name: a, run_cmd: w, obs_min: 0}", "benchmark 'a': obs_min must be positive, got 0"),
            ("benchmarks:\n  - {name: a, run_cmd: w, weight: -1}", "benchmark 'a': weight must be >= 0, got -1.0"),
            ("benchmarks:\n  - {name: a, run_cmd: w, unit_of_work: ''}", "benchmark 'a': unit_of_work must be non-empty"),
            ("targets: {domains: {NLP: 1.5}}", "targets.domains.NLP: proportion must be in [0,1], got 1.5"),
        ],
    )
    def test_parse_raises_the_validate_violation(self, document, expected):
        text = "suite: s\n" + document + "\n"
        if "benchmarks:" not in document:
            text += "benchmarks:\n  - {name: a, run_cmd: w}\n"
        with pytest.raises(SuiteError) as err:
            parse_suite(text)
        assert str(err.value) == expected


class TestCommandTemplates:
    @pytest.mark.parametrize("field", ["rank[0]", "rank.x", "base_dir[0]", "", "0", "gpu"])
    def test_a_field_must_name_a_placeholder_exactly(self, field):
        with pytest.raises(SuiteError, match=r"benchmark 'a': run_cmd: unknown placeholder"):
            parse_suite(f"suite: s\nbenchmarks:\n  - {{name: a, run_cmd: 'w {{{field}}}'}}\n")

    @pytest.mark.parametrize(
        "template, reason",
        [
            ("w 'unclosed", "No closing quotation"),
            ("w {rank", "expected '}'"),
            ("w {device_id:d}", "Unknown format code 'd'"),
            ("w {rank!x}", "Unknown conversion"),
        ],
    )
    @pytest.mark.parametrize("field", ["install_cmd", "prepare_cmd", "run_cmd"])
    def test_malformed_template_is_a_violation(self, field, template, reason):
        commands = {"run_cmd": "w", field: template}
        cfg = SuiteConfig("s", (BenchmarkSpec(name="a", **commands),))
        (violation,) = validate_suite(cfg)
        assert violation.startswith(f"benchmark 'a': {field}: malformed command template: ")
        assert reason in violation
        with pytest.raises(SuiteError) as err:
            parse_suite(render_suite(cfg))
        assert str(err.value) == violation

    def test_format_spec_that_fits_the_value_is_accepted(self):
        cfg = parse_suite("suite: s\nbenchmarks:\n  - {name: a, run_cmd: 'w --id {rank:03d} {world_size!s:>2}'}\n")
        assert resolve_command(cfg.benchmarks[0].run_cmd, rank=7, world_size=8) == ("w", "--id", "007", " 8")

    def test_words_are_split_before_they_are_filled(self):
        argv = resolve_command("w --out '{bench_dir}/x y' {base_dir}", "/a b", "/a b/data/n")
        assert argv == ("w", "--out", "/a b/data/n/x y", "/a b")

    def test_literal_braces_survive(self):
        assert resolve_command("w {{rank}} {rank}", rank=2) == ("w", "{rank}", "2")


class TestBenchmarkNames:
    def test_in_code_duplicates_are_a_violation(self):
        cfg = SuiteConfig("s", (BenchmarkSpec(name="a", run_cmd="w"), BenchmarkSpec(name="a", run_cmd="v")))
        assert validate_suite(cfg) == ["duplicate benchmark name 'a'"]

    @pytest.mark.parametrize("name", ["", ".", "..", "../../escaped", "a/b", "/abs", "a\0b"])
    def test_name_must_be_one_path_component(self, name):
        cfg = SuiteConfig("s", (BenchmarkSpec(name=name, run_cmd="w"),))
        assert validate_suite(cfg) == [
            f"benchmark {name!r}: name must be one path component (not empty, '.' or '..', no '/' or NUL)"
        ]

    @pytest.mark.parametrize("name", ["'../../escaped'", "'..'", "'a/b'", '"a\\0b"'])
    def test_parse_refuses_a_path_name(self, name):
        with pytest.raises(SuiteError, match="name must be one path component"):
            parse_suite(f"suite: s\nbenchmarks:\n  - {{name: {name}, run_cmd: w}}\n")

    @pytest.mark.parametrize("name", ["a.b", "...", "-x_1", "名前", "a b"])
    def test_other_names_are_accepted(self, name):
        assert validate_suite(SuiteConfig("s", (BenchmarkSpec(name=name, run_cmd="w"),))) == []


def _wrong_type(default):
    """A value of another type than ``default``: a number for a text field, else text."""
    return 3 if isinstance(default, str) else "3"


_SPEC_FIELDS = [(field, BenchmarkSpec._field_defaults.get(field, "")) for field in BenchmarkSpec._fields]
_VALID = BenchmarkSpec(name="a", run_cmd="w", install_cmd="true", prepare_cmd="true")


class TestTypes:
    """Every type rule is validate_suite's, so a suite built in code meets the rules a parsed one does."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("weight", "1"),
            ("obs_min", "5"),
            ("timeout_s", None),
            ("run_cmd", None),
            ("name", None),
            ("unit_of_work", 3),
            ("enabled", 1),
            ("weight", True),
            ("env", {"X": 1}),
            ("tags", TaxonomyTags(domains=frozenset({1}))),
        ],
    )
    def test_in_code_type_error_is_a_violation(self, field, value):
        violations = validate_suite(SuiteConfig("s", (_VALID._replace(**{field: value}),)))
        assert violations and all(field in v for v in violations)

    @pytest.mark.parametrize("field, default", _SPEC_FIELDS)
    def test_every_benchmark_field_is_typed(self, field, default, tmp_path):
        bench = _VALID._replace(**{field: _wrong_type(default)})
        violations = validate_suite(SuiteConfig("s", (bench,)))
        assert any(f": {field} must be " in v for v in violations), violations
        with pytest.raises(SuiteError):
            run(SuiteConfig("s", (bench,)), DevicePool(("d0",)), tmp_path / "base")
        for phase in (install, prepare):
            with pytest.raises(SuiteError):
                phase(SuiteConfig("s", (bench,)), tmp_path / "base")
        assert not (tmp_path / "base").exists()

    @pytest.mark.parametrize("field, default", BenchmarkDefaults._field_defaults.items())
    def test_every_default_field_is_typed(self, field, default, tmp_path):
        cfg = SuiteConfig("s", (_VALID,), BenchmarkDefaults(**{field: _wrong_type(default)}))
        assert any(v.startswith(f"defaults: {field} must be ") for v in validate_suite(cfg))
        with pytest.raises(SuiteError):
            run(cfg, DevicePool(("d0",)), tmp_path / "base")
        assert not (tmp_path / "base").exists()

    @pytest.mark.parametrize("suite_name", [3, None, "", "  "])
    def test_suite_name_is_non_empty_text(self, suite_name, tmp_path):
        cfg = SuiteConfig(suite_name, (_VALID,))
        assert validate_suite(cfg) == [f"suite: suite_name must be non-empty text, got {suite_name!r}"]
        with pytest.raises(SuiteError):
            run(cfg, DevicePool(("d0",)), tmp_path / "base")
        assert not (tmp_path / "base").exists()

    @pytest.mark.parametrize("bench", [_VALID._replace(env={"X": 1}), _VALID._replace(name=" a")])
    def test_run_refuses_before_any_directory_exists(self, bench, tmp_path):
        with pytest.raises(SuiteError):
            run(SuiteConfig("s", (bench,)), DevicePool(("d0",)), tmp_path)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("phase", [install, prepare])
    def test_setup_refuses_a_name_that_leaves_its_directory(self, phase, tmp_path):
        base = tmp_path / "base"
        base.mkdir()
        with pytest.raises(SuiteError, match="name must be one path component"):
            phase(SuiteConfig("s", (_VALID._replace(name="../outside"),)), base)
        assert list(tmp_path.iterdir()) == [base] and list(base.iterdir()) == []

    @pytest.mark.parametrize(
        "field, violation",
        [
            ("weight", f"benchmark {_VALID.name!r}: weight must be finite, got <int too long to show>"),
            ("name", "benchmark <int too long to show>: name must be text, got <int too long to show>"),
        ],
    )
    def test_int_too_long_to_print_is_one_violation(self, field, violation, tmp_path):
        # More digits than repr may print (sys.get_int_max_str_digits(), 4300 by default).
        cfg = SuiteConfig("s", (_VALID._replace(**{field: 10**5000}),))
        assert validate_suite(cfg) == [violation]
        base = tmp_path / "base"
        for phase in (lambda cfg, base: run(cfg, DevicePool(("d0",)), base), install, prepare):
            with pytest.raises(SuiteError, match="too long to show"):
                phase(cfg, base)
        assert not base.exists()

    def test_budget_past_a_signed_64_bit_int_is_refused(self, tmp_path):
        cfg = SuiteConfig("s", (BenchmarkSpec(name="a", run_cmd="true", obs_min=10**5000, obs_max=10**5000),))
        assert validate_suite(cfg) == [
            f"benchmark 'a': {field} must be at most 2**63 - 1, got <int too long to show>"
            for field in ("obs_min", "obs_max")
        ]
        with pytest.raises(SuiteError, match="obs_min must be at most"):
            run(cfg, DevicePool(("d0",)), tmp_path)
        assert not (tmp_path / "runs").exists()
        defaults = SuiteConfig("s", (_VALID,), BenchmarkDefaults(obs_max=2**63))
        assert validate_suite(defaults) == ["defaults: obs_max must be at most 2**63 - 1, got 9223372036854775808"]
        assert validate_suite(SuiteConfig("s", (_VALID._replace(obs_max=2**63 - 1),))) == []


class TestSelect:
    def test_star_is_identity(self, reference_suite):
        assert select_benchmarks(reference_suite, "*") == reference_suite

    def test_zero_match_is_an_error(self, reference_suite):
        with pytest.raises(SuiteError, match="matches no enabled benchmark"):
            select_benchmarks(reference_suite, "name=nonexistent")

    def test_domain_filter_matches_brute_scan(self, reference_suite):
        # Oracle: scan the domains column directly.
        expected = [
            b.name
            for b in reference_suite.benchmarks
            if b.enabled and b.tags is not None and "NLP" in b.tags.domains
        ]
        selected = select_benchmarks(reference_suite, "domain=NLP")
        assert [b.name for b in selected.benchmarks] == expected
        pure = [
            b.name
            for b in selected.benchmarks
            if reference_suite.benchmark(b.name).tags.domains == frozenset({"NLP"})
        ]
        multi = [b.name for b in selected.benchmarks if b.name not in pure]
        assert len(pure) == 9
        assert multi == ["diffusion-gpus", "diffusion-nodes", "llava-single", "rlhf-single"]

    def test_selection_is_idempotent(self, reference_suite):
        once = select_benchmarks(reference_suite, "domain=Graphs")
        twice = select_benchmarks(once, "domain=Graphs")
        assert once == twice

    def test_union_of_terms(self, reference_suite):
        selected = select_benchmarks(reference_suite, "name=reformer, name=brax")
        assert [b.name for b in selected.benchmarks] == ["reformer", "brax"]

    def test_glob_on_names(self, reference_suite):
        selected = select_benchmarks(reference_suite, "llm-*")
        assert all(b.name.startswith("llm-") for b in selected.benchmarks)
        assert len(selected.benchmarks) == 6

    def test_disabled_benchmarks_never_selected(self):
        cfg = parse_suite(
            "suite: s\nbenchmarks:\n"
            "  - {name: alpha, run_cmd: w}\n"
            "  - {name: beta, run_cmd: w, enabled: false}\n"
        )
        selected = select_benchmarks(cfg, "*")
        assert [b.name for b in selected.benchmarks] == ["alpha"]

    def test_weights_untouched(self, reference_suite):
        selected = select_benchmarks(reference_suite, "domain=Graphs")
        for bench in selected.benchmarks:
            assert bench.weight == reference_suite.benchmark(bench.name).weight


class TestRoundTrip:
    def test_reference_suite_round_trips(self, reference_suite):
        assert parse_suite(render_suite(reference_suite)) == reference_suite

    def test_randomized_suites_round_trip(self):
        rng = random.Random(42)
        sizes = ["XS", "S", "M", "L", "XL"]
        refused = []
        for trial in range(25):
            benches = []
            for i in range(rng.randint(1, 8)):
                tags = None
                if rng.random() < 0.7:
                    tags = TaxonomyTags(
                        domains=frozenset(rng.sample(["NLP", "CV", "RL", "Graphs"], rng.randint(1, 2))),
                        architectures=frozenset(rng.sample(["CNN", "Transformer", "MLP"], rng.randint(1, 2))),
                        model_size_class=rng.choice(sizes),
                        parallelism=frozenset([rng.choice(["none", "data-parallel"])]),
                        libraries=frozenset(rng.sample(["torch", "jax", "pyg"], rng.randint(1, 2))),
                    )
                benches.append(
                    BenchmarkSpec(
                        name=f"bench-{trial}-{i}",
                        weight=rng.choice([0.0, 0.5, 1.0, 2.0]),
                        enabled=rng.random() < 0.9,
                        scale=rng.choice(["single-device", "node-devices", "multi-node"]),
                        run_cmd=f"worker --seed {i}",
                        install_cmd=rng.choice(["", "true"]),
                        env={"K": "V"} if rng.random() < 0.3 else {},
                        unit_of_work=rng.choice(["images", "tokens"]),
                        obs_min=rng.randint(1, 10),
                        obs_max=rng.randint(10, 80),
                        timeout_s=float(rng.randint(1, 500)),
                        tags=tags,
                    )
                )
            cfg = SuiteConfig(suite_name=f"fuzz-{trial}", benchmarks=tuple(benches))
            violations = validate_suite(cfg)
            if violations:
                with pytest.raises(SuiteError) as err:
                    parse_suite(render_suite(cfg))
                assert str(err.value) == violations[0]
                refused.append(trial)
            else:
                assert parse_suite(render_suite(cfg)) == cfg
        # Trial 21 enables only weight-0 benchmarks; every other trial round-trips.
        assert refused == [21]

    @settings(max_examples=300, deadline=None)
    @given(cfg=st.deferred(lambda: _suites))
    @example(
        cfg=SuiteConfig(
            "s", (BenchmarkSpec(name="a", run_cmd="w", timeout_s=300),), BenchmarkDefaults(timeout_s=7)
        )
    )
    def test_parse_accepts_exactly_what_validate_accepts(self, cfg):
        violations = validate_suite(cfg)
        if violations:
            with pytest.raises(SuiteError) as err:
                parse_suite(render_suite(cfg))
            assert str(err.value) == violations[0]
        else:
            parsed = parse_suite(render_suite(cfg))
            assert parsed == cfg
            assert parsed.sha256() == cfg.sha256()

    @settings(max_examples=300, deadline=None)
    @given(cfg=st.deferred(lambda: _suites))
    def test_json_document_builds_what_the_yaml_parses(self, cfg):
        document = json.loads(json.dumps(suite_document(cfg)))
        try:
            parsed = parse_suite(render_suite(cfg))
        except SuiteError as exc:
            with pytest.raises(SuiteError) as err:
                suite_from_document(document)
            assert str(err.value) == str(exc)
        else:
            built = suite_from_document(document)
            assert built == parsed
            assert built.sha256() == parsed.sha256()

    def test_an_int_timeout_hashes_as_its_float(self):
        cfg = SuiteConfig("s", (BenchmarkSpec(name="a", run_cmd="w", timeout_s=300, obs_min=30),))
        assert cfg.sha256().startswith("cdecff9aaaab")
        assert parse_suite(render_suite(cfg)).sha256() == cfg.sha256()

    def test_sha256_stable_across_renders(self, reference_suite):
        assert reference_suite.sha256() == parse_suite(render_suite(reference_suite)).sha256()

    def test_reference_suite_hash_is_pinned(self, reference_suite):
        # Stored runs are matched by this hash; a rendering change would orphan them.
        assert reference_suite.sha256() == "309fa8ef850feb85160581e4f55f33282e7aa7632f92d7a6e67873455a3723e1"

    def test_every_field_renders_in_its_pinned_place(self):
        # The reference suite sets no install_cmd, prepare_cmd or env; this suite sets every field.
        tags = TaxonomyTags(
            domains=frozenset({"NLP", "CV"}),
            architectures=frozenset({"Transformer", "CNN"}),
            model_size_class="7B",
            parallelism=frozenset({"Single"}),
            libraries=frozenset({"torch", "JAX"}),
        )
        every = BenchmarkSpec(
            name="all-set",
            weight=2,
            enabled=False,
            scale="node-devices",
            install_cmd="setup {bench_dir}",
            prepare_cmd="fetch {base_dir}",
            run_cmd="worker --seed {rank}",
            env={"ZED": "1", "ALPHA": "two words"},
            unit_of_work="tokens",
            obs_min=3,
            obs_max=7,
            timeout_s=12,
            tags=tags,
        )
        cfg = SuiteConfig(
            "every-field",
            (every, BenchmarkSpec(name="plain", run_cmd="w")),
            BenchmarkDefaults(obs_min=3, obs_max=90, timeout_s=60),
            CoverageTargets({"model_sizes": {"7B": 1}, "domains": {"NLP": 0.5, "CV": 0.25}}),
        )
        assert cfg.sha256() == "a9a86ddd583c841b7a641241562a32225356a6bbcab968246086557d42c53959"
        assert parse_suite(render_suite(cfg)) == cfg


# Suites of valid types whose values stray over and past every rule of
# validate_suite: names, templates and numbers, non-finite ones and ints no
# float holds included.
_words = st.text(alphabet="abcxyz019-_", min_size=1, max_size=6)
_labels = st.frozensets(st.sampled_from(["NLP", "CV", "RL", "torch", "jax"]), max_size=3)
_counts = st.integers(min_value=-2, max_value=80)
_reals = st.floats()
_weights = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2, HUGE]) | _reals
_timeouts = st.sampled_from([-1.0, 0.0, 1, 300.0, -HUGE]) | _reals
_proportions = st.sampled_from([-0.1, 0.0, 0.1, 0.2, 0.25, 0.5, 0.7, 1.0, 1.5, HUGE, float("-inf")])
_tags = st.builds(
    TaxonomyTags,
    domains=_labels,
    architectures=_labels,
    model_size_class=st.sampled_from(["", "S", "XL"]),
    parallelism=_labels,
    libraries=_labels,
)
_benchmarks = st.builds(
    BenchmarkSpec,
    name=_words | st.sampled_from(["a", "..", "x/y", "n\0", " a", "b\t"]),
    weight=_weights,
    enabled=st.booleans(),
    scale=st.sampled_from(SCALE_MODES + ("warp",)),
    install_cmd=st.sampled_from(["", "true", "setup {bench_dir}", "setup {gpu}"]),
    prepare_cmd=st.sampled_from(["", "fetch {base_dir}", "fetch '{base_dir}"]),
    run_cmd=st.sampled_from(["w", "worker --seed {rank} {device_id}", "w {rank:03d}", "w {rank[0]}", "", "  "]),
    env=st.dictionaries(_words, _words, max_size=2),
    unit_of_work=st.sampled_from(["items", "tokens", ""]),
    obs_min=_counts,
    obs_max=_counts,
    timeout_s=_timeouts,
    tags=st.none() | _tags,
)
_suites = st.builds(
    SuiteConfig,
    suite_name=_words | st.sampled_from([" s ", "  "]),
    benchmarks=st.lists(_benchmarks, max_size=4).map(tuple),
    defaults=st.builds(BenchmarkDefaults, obs_min=_counts, obs_max=_counts, timeout_s=_timeouts),
    targets=st.none()
    | st.builds(
        CoverageTargets,
        st.dictionaries(
            st.sampled_from(TAG_DIMENSIONS), st.dictionaries(_words, _proportions, max_size=3), max_size=3
        ),
    ),
)


def _e2e_suite_text() -> str:
    from test_acceptance import E2E_SUITE

    return E2E_SUITE


class TestYamlLoaders:
    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("source", ["reference", "e2e"])
    def test_libyaml_and_pure_loaders_agree(self, source, reference_suite_text, monkeypatch):
        text = reference_suite_text if source == "reference" else _e2e_suite_text()
        monkeypatch.setattr(suite_module, "_Loader", yaml.CSafeLoader)
        fast = parse_suite(text)
        monkeypatch.setattr(suite_module, "_Loader", yaml.SafeLoader)
        pure = parse_suite(text)
        assert fast == pure
        assert fast.sha256() == pure.sha256()

    def test_syntax_error_reports_position_with_either_loader(self, monkeypatch):
        for loader in {getattr(yaml, "CSafeLoader", yaml.SafeLoader), yaml.SafeLoader}:
            monkeypatch.setattr(suite_module, "_Loader", loader)
            with pytest.raises(SuiteError, match="line 2"):
                parse_suite("suite: [unclosed\nbenchmarks:\n")

    def test_render_keeps_the_pure_dumper_text(self):
        # The pure dumper wraps this escaped run_cmd over four lines; libyaml
        # would write it on one, and so change the hash.
        bench = BenchmarkSpec(name="wide", run_cmd="worker --label " + "\u00e9" * 60)
        cfg = SuiteConfig(suite_name="s", benchmarks=(bench,))
        assert cfg.sha256() == "19519a84621d9d8a1826f28d0c2927a70604403758a450c1bd80d5a64a8ef9d9"
        assert parse_suite(render_suite(cfg)) == cfg


class TestSpecExample:
    def test_single_reformer_defaults(self):
        cfg = parse_suite(MINIMAL)
        bench = cfg.benchmarks[0]
        assert bench.name == "reformer"
        assert bench.weight == 1.0
        assert bench.scale == "single-device"
        assert (bench.obs_min, bench.obs_max) == (30, 60)
        assert len(cfg.enabled_benchmarks()) == 1
