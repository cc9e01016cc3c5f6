"""CLI-level tests: exit codes, multi-run reports, design subcommand."""

import json
import os
import sys

import pytest

from benchforge.cli import main
from conftest import WORKER_CMD

SMALL_SUITE = f"""
suite: cli-small
defaults: {{obs_min: 5, obs_max: 10, timeout_s: 60}}
benchmarks:
  - name: fast
    weight: 1
    run_cmd: "{WORKER_CMD} --obs-min 5 --obs-max 10 --rate 100 --seed {{rank}}"
  - name: slow
    weight: 1
    run_cmd: "{WORKER_CMD} --obs-min 5 --obs-max 10 --rate 40 --seed {{rank}}"
"""


@pytest.fixture
def suite_path(tmp_path):
    path = tmp_path / "suite.yaml"
    path.write_text(SMALL_SUITE)
    return path


def run_once(suite_path, base, system):
    rc = main(
        [
            "run",
            "--config",
            str(suite_path),
            "--base-dir",
            str(base),
            "--devices",
            "d0,d1",
            "--system",
            system,
            "--no-setup-check",
        ]
    )
    assert rc == 0
    (run_dir,) = list((base / "runs").iterdir())
    return run_dir


def report_formats(run_dir, capsys):
    """The default report of ``run_dir`` in each format, as printed."""
    printed = {}
    for fmt in ("text", "csv", "json"):
        assert main(["report", "--runs", str(run_dir), "--format", fmt]) == 0
        printed[fmt] = capsys.readouterr().out
    return printed


class TestReportCLI:
    def test_two_system_report_with_baseline(self, suite_path, tmp_path, capsys):
        dir_a = run_once(suite_path, tmp_path / "a", "boxA")
        dir_b = run_once(suite_path, tmp_path / "b", "boxB")
        out = tmp_path / "report.json"
        rc = main(
            [
                "report",
                "--runs",
                f"{dir_a},{dir_b}",
                "--baseline",
                "boxA",
                "--format",
                "json",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["systems"] == ["boxA", "boxB"]
        fast = next(r for r in payload["rows"] if r["bench"] == "fast")
        # Same deterministic workload on both systems: ratio 1.
        assert fast["results"]["boxB"]["ratio"] == pytest.approx(1.0, rel=1e-9)

    def test_mixed_suite_hashes_rejected(self, suite_path, tmp_path, capsys):
        dir_a = run_once(suite_path, tmp_path / "a", "boxA")
        other = tmp_path / "other.yaml"
        other.write_text(SMALL_SUITE.replace("rate 40", "rate 41"))
        dir_b = run_once(other, tmp_path / "b", "boxB")
        rc = main(["report", "--runs", f"{dir_a},{dir_b}", "--format", "text"])
        assert rc == 4
        assert "different suite" in capsys.readouterr().err

    def test_unknown_baseline_rejected(self, suite_path, tmp_path, capsys):
        dir_a = run_once(suite_path, tmp_path / "a", "boxA")
        rc = main(["report", "--runs", str(dir_a), "--baseline", "nope"])
        assert rc == 4

    def test_not_a_run_dir(self, tmp_path, capsys):
        rc = main(["report", "--runs", str(tmp_path)])
        assert rc == 4
        assert "meta.json" in capsys.readouterr().err

    def test_unreadable_stream_fails_report(self, suite_path, tmp_path, capsys):
        run_dir = run_once(suite_path, tmp_path / "a", "boxA")
        stream = run_dir / "fast" / "0.jsonl"
        stream.unlink()
        stream.mkdir()
        rc = main(["report", "--runs", str(run_dir)])
        assert rc == 4
        assert "0.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", [("slow",), ("fast", "slow")], ids=["one", "both"])
    def test_incomplete_run_dir_fails_report(self, suite_path, tmp_path, capsys, missing):
        run_dir = run_once(suite_path, tmp_path / "a", "boxA")
        capsys.readouterr()
        for bench in missing:
            (run_dir / bench / "outcomes.json").unlink()
        rc = main(["report", "--runs", str(run_dir)])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"benchmark {missing[0]!r}" in captured.err and "outcomes.json" in captured.err

    def test_text_report_to_stdout(self, suite_path, tmp_path, capsys):
        run_dir = run_once(suite_path, tmp_path / "a", "boxA")
        rc = main(["report", "--runs", str(run_dir)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Global Score" in text
        assert "perf:boxA" in text

    def test_report_does_not_read_phase_durations(self, suite_path, tmp_path, capsys):
        run_dir = run_once(suite_path, tmp_path / "a", "boxA")
        capsys.readouterr()
        before = report_formats(run_dir, capsys)
        for bench in ("fast", "slow"):
            path = run_dir / bench / "outcomes.json"
            payload = json.loads(path.read_text())
            assert set(payload["phase_durations"]) == {"run"}
            payload["phase_durations"] = "not read"
            path.write_text(json.dumps(payload))
        assert report_formats(run_dir, capsys) == before

    def test_report_does_not_read_child_or_harness_usage(self, suite_path, tmp_path, capsys):
        run_dir = run_once(suite_path, tmp_path / "a", "boxA")
        capsys.readouterr()
        before = report_formats(run_dir, capsys)
        for bench in ("fast", "slow"):
            path = run_dir / bench / "outcomes.json"
            payload = json.loads(path.read_text())
            for row in payload["outcomes"]:
                assert type(row["cpu_s"]) is float and type(row["maxrss_kb"]) is int
                row["cpu_s"], row["maxrss_kb"] = "not read", [-1]
            path.write_text(json.dumps(payload))
        meta_path = run_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert type(meta["harness_cpu_s"]) is float and type(meta["harness_maxrss_kb"]) is int
        meta["harness_cpu_s"], meta["harness_maxrss_kb"] = "not read", None
        meta_path.write_text(json.dumps(meta))
        assert report_formats(run_dir, capsys) == before

    def test_infinite_batch_is_rejected_not_scored(self, tmp_path, capsys):
        # 1e999 decodes to inf; it must neither reach the score nor crash the JSON report.
        line = '{"event":"rate","time":1,"task":"train","data":{"batch":1e999,"rate":1,"t0":0,"t1":1,"units":"x"}}'
        success = '{"event":"success","time":2,"task":"train","data":{}}'
        script = tmp_path / "inf_worker.py"
        script.write_text(
            "import os\n"
            "with os.fdopen(int(os.environ['BENCHFORGE_METRICS_FD']), 'w') as out:\n"
            f"    out.write({line + chr(10)!r} * 8 + {success + chr(10)!r})\n"
        )
        suite = tmp_path / "s.yaml"
        suite.write_text(
            "suite: s\ndefaults: {obs_min: 5, obs_max: 10, timeout_s: 60}\nbenchmarks:\n"
            f"  - name: huge\n    weight: 1\n    run_cmd: \"{sys.executable} {script}\"\n"
        )
        base = tmp_path / "w"
        rc = main(["run", "--config", str(suite), "--base-dir", str(base), "--devices", "d0", "--no-setup-check"])
        assert rc == 3
        (run_dir,) = list((base / "runs").iterdir())
        assert (run_dir / "huge" / "0.jsonl").read_text().count("1e999") == 8
        capsys.readouterr()
        assert main(["report", "--runs", str(run_dir), "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        (cell,) = row["results"].values()
        assert (cell["perf"], cell["success_rate"]) == (None, 0.0)


    @pytest.mark.parametrize(
        "stamps",
        [
            '"batch":1,"rate":1,"t0":-1e308,"t1":1e308',  # elapsed overflows: rate 0.0
            '"batch":1e10,"rate":1,"t0":0,"t1":1e-320',  # rate overflows to inf
        ],
    )
    def test_extreme_stamps_count_as_faults_not_scores(self, tmp_path, capsys, stamps):
        # Finite stamps whose span or rate overflows must neither score nor fail the JSON report.
        good = '{"event":"rate","time":1,"task":"train","data":{"batch":2,"rate":2,"t0":0,"t1":1,"units":"x"}}'
        extreme = '{"event":"rate","time":1,"task":"train","data":{' + stamps + ',"units":"x"}}'
        success = '{"event":"success","time":2,"task":"train","data":{}}'
        lines = "".join(line + "\n" for line in (*[good] * 5, *[extreme] * 6, success))
        script = tmp_path / "extreme_worker.py"
        script.write_text(
            "import os\n"
            "with os.fdopen(int(os.environ['BENCHFORGE_METRICS_FD']), 'w') as out:\n"
            f"    out.write({lines!r})\n"
        )
        suite = tmp_path / "s.yaml"
        suite.write_text(
            "suite: s\ndefaults: {obs_min: 5, obs_max: 20, timeout_s: 60}\nbenchmarks:\n"
            f"  - name: extreme\n    weight: 1\n    run_cmd: \"{sys.executable} {script}\"\n"
        )
        base = tmp_path / "w"
        rc = main(["run", "--config", str(suite), "--base-dir", str(base), "--devices", "d0", "--no-setup-check"])
        assert rc == 0
        (run_dir,) = list((base / "runs").iterdir())
        capsys.readouterr()
        assert main(["report", "--runs", str(run_dir), "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        (cell,) = row["results"].values()
        assert (cell["perf"], cell["success_rate"]) == (2.0, 1.0)

    def test_deeply_nested_line_is_a_rejection_not_a_crash(self, tmp_path, capsys):
        # The JSON scanner recurses once per "["; the child then stalls until its timeout.
        pid_file = tmp_path / "pid"
        script = tmp_path / "deep_worker.py"
        script.write_text(
            "import os, time\n"
            f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "with os.fdopen(int(os.environ['BENCHFORGE_METRICS_FD']), 'w') as out:\n"
            "    out.write('[' * 100000 + '\\n')\n"
            "    out.flush()\n"
            "    time.sleep(30)\n"
        )
        suite = tmp_path / "s.yaml"
        suite.write_text(
            "suite: s\ndefaults: {obs_min: 5, obs_max: 10, timeout_s: 1}\nbenchmarks:\n"
            f"  - name: deep\n    weight: 1\n    run_cmd: \"{sys.executable} {script}\"\n"
        )
        base = tmp_path / "w"
        rc = main(["run", "--config", str(suite), "--base-dir", str(base), "--devices", "d0", "--no-setup-check"])
        assert rc == 3
        (run_dir,) = list((base / "runs").iterdir())
        (row,) = json.loads((run_dir / "deep" / "outcomes.json").read_text())["outcomes"]
        assert (row["classified"], row["rejected"], row["rejection_reasons"]) == ("timeout", 1, ["nesting too deep"])
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)
        capsys.readouterr()
        assert main(["report", "--runs", str(run_dir), "--format", "json"]) == 0


class TestSelectAndErrors:
    def test_zero_match_selector_is_config_error(self, suite_path, tmp_path, capsys):
        rc = main(
            [
                "run",
                "--config",
                str(suite_path),
                "--base-dir",
                str(tmp_path / "w"),
                "--select",
                "name=missing",
            ]
        )
        assert rc == 4
        assert "matches no enabled benchmark" in capsys.readouterr().err

    def test_selected_run_only_executes_matches(self, suite_path, tmp_path, capsys):
        rc = main(
            [
                "run",
                "--config",
                str(suite_path),
                "--base-dir",
                str(tmp_path / "w"),
                "--devices",
                "d0",
                "--select",
                "fast",
                "--no-setup-check",
            ]
        )
        assert rc == 0
        (run_dir,) = list((tmp_path / "w" / "runs").iterdir())
        assert (run_dir / "fast").exists()
        assert not (run_dir / "slow").exists()

    def test_zero_enabled_weight_run_is_config_error(self, tmp_path, capsys):
        suite = tmp_path / "zero.yaml"
        suite.write_text(SMALL_SUITE.replace("weight: 1", "weight: 0"))
        base = tmp_path / "w"
        rc = main(["run", "--config", str(suite), "--base-dir", str(base), "--no-setup-check"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.err == "benchforge: suite: total weight of enabled benchmarks must be > 0\n"
        assert captured.out == ""
        assert not (base / "runs").exists()

    def test_selecting_only_unweighted_benchmarks_is_config_error(self, tmp_path, capsys):
        suite = tmp_path / "optional.yaml"
        head, _, tail = SMALL_SUITE.rpartition("weight: 1")  # the weight of ``slow``
        suite.write_text(head + "weight: 0" + tail)
        base = tmp_path / "w"
        argv = ["--config", str(suite), "--base-dir", str(base), "--select", "slow"]
        rc = main(["run", *argv, "--devices", "d0", "--no-setup-check"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.err == "benchforge: suite: total weight of enabled benchmarks must be > 0\n"
        assert captured.out == ""
        assert not (base / "runs").exists()
        # Setting up an optional benchmark on its own stays allowed.
        assert main(["install", *argv]) == 0
        assert main(["prepare", *argv]) == 0
        assert capsys.readouterr().out == "slow: not-required\nslow: not-required\n"

    def test_broken_yaml_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("suite: [oops\n")
        rc = main(["install", "--config", str(bad), "--base-dir", str(tmp_path)])
        assert rc == 4

    def test_int_past_the_float_range_is_config_error(self, tmp_path, capsys):
        suite = tmp_path / "huge.yaml"
        timeout = "1" + "0" * 400
        suite.write_text(f"suite: s\nbenchmarks:\n  - {{name: a, run_cmd: w, timeout_s: {timeout}}}\n")
        rc = main(["install", "--config", str(suite), "--base-dir", str(tmp_path / "base")])
        assert rc == 4
        assert capsys.readouterr().err == f"benchforge: benchmark 'a': timeout_s must be finite, got {timeout}\n"
        assert not (tmp_path / "base").exists()

    def test_failing_benchmark_exits_three(self, tmp_path):
        suite = tmp_path / "s.yaml"
        suite.write_text(
            "suite: s\nbenchmarks:\n"
            f"  - name: dies\n    run_cmd: \"{WORKER_CMD} --kind crashing --crash-after 1 "
            "--obs-min 5 --obs-max 10 --seed 0\"\n"
        )
        rc = main(
            [
                "run",
                "--config",
                str(suite),
                "--base-dir",
                str(tmp_path / "w"),
                "--devices",
                "d0",
                "--no-setup-check",
            ]
        )
        assert rc == 3


class TestTemplatesAndNames:
    @pytest.mark.parametrize("field", ["rank[0]", "rank.x"])
    def test_field_that_is_no_placeholder_is_config_error(self, tmp_path, capsys, field):
        suite = tmp_path / "s.yaml"
        suite.write_text(f"suite: s\nbenchmarks:\n  - {{name: a, run_cmd: 'w {{{field}}}'}}\n")
        base = tmp_path / "w"
        assert main(["run", "--config", str(suite), "--base-dir", str(base), "--no-setup-check"]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"benchforge: benchmark 'a': run_cmd: unknown placeholder {{{field}}}; allowed: ")
        assert err.count("\n") == 1
        assert not (base / "runs").exists()

    def test_unclosed_quote_is_config_error_before_the_run_dir(self, tmp_path, capsys):
        suite = tmp_path / "s.yaml"
        suite.write_text("suite: s\nbenchmarks:\n  - {name: a, run_cmd: \"w 'unclosed\"}\n")
        base = tmp_path / "w"
        assert main(["run", "--config", str(suite), "--base-dir", str(base), "--no-setup-check"]) == 4
        assert capsys.readouterr().err == (
            "benchforge: benchmark 'a': run_cmd: malformed command template: No closing quotation\n"
        )
        assert not (base / "runs").exists()

    def test_format_spec_that_fits_is_accepted(self, tmp_path):
        suite = tmp_path / "s.yaml"
        suite.write_text(
            "suite: s\nbenchmarks:\n"
            f"  - name: pad\n    run_cmd: \"{WORKER_CMD} --obs-min 5 --obs-max 5 --seed {{rank:03d}}\"\n"
            "    obs_min: 5\n    obs_max: 5\n"
        )
        base = tmp_path / "w"
        argv = ["run", "--config", str(suite), "--base-dir", str(base), "--devices", "d0,d1", "--no-setup-check"]
        assert main(argv) == 0

    def test_base_dir_with_a_space_stays_one_word_in_prepare(self, tmp_path, capsys):
        script = tmp_path / "argv.py"
        script.write_text("import json, sys\nopen('argv.json', 'w').write(json.dumps(sys.argv[1:]))\n")
        suite = tmp_path / "s.yaml"
        suite.write_text(
            "suite: s\nbenchmarks:\n"
            f"  - name: a\n    run_cmd: w\n    prepare_cmd: \"'{sys.executable}' '{script}' {{bench_dir}} {{base_dir}}\"\n"
        )
        base = tmp_path / "sp ace"
        assert main(["prepare", "--config", str(suite), "--base-dir", str(base)]) == 0
        assert capsys.readouterr().out == "a: done\n"
        bench_dir = base / "data" / "a"
        assert json.loads((bench_dir / "argv.json").read_text()) == [str(bench_dir), str(base)]

    @pytest.mark.parametrize("command", ["install", "prepare", "run"])
    def test_path_name_is_config_error_and_writes_nothing(self, tmp_path, capsys, command):
        suite = tmp_path / "s.yaml"
        suite.write_text(
            "suite: s\ndefaults: {obs_min: 5, obs_max: 5}\nbenchmarks:\n"
            f"  - name: ../../escaped\n    run_cmd: \"{WORKER_CMD} --obs-min 5 --obs-max 5\"\n"
            "    install_cmd: 'true'\n    prepare_cmd: 'true'\n"
        )
        base = tmp_path / "a" / "w"
        base.mkdir(parents=True)
        argv = [command, "--config", str(suite), "--base-dir", str(base)]
        assert main(argv + (["--no-setup-check"] if command == "run" else [])) == 4
        assert capsys.readouterr().err == (
            "benchforge: benchmark '../../escaped': name must be one path component"
            " (not empty, '.' or '..', no '/' or NUL)\n"
        )
        assert set(tmp_path.rglob("*")) == {suite, tmp_path / "a", base}


class TestDesignCLI:
    def test_coverage_json(self, tmp_path, capsys):
        rc = main(["design", "--config", "configs/reference-suite.yaml", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_weight"] == 29.0
        assert sum(payload["proportions"]["model_sizes"].values()) == pytest.approx(1.0)

    def test_mlcm_from_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text(
            "sample_id,true_labels,predicted_labels\n"
            "1,A,A\n"
            "2,A,\n"
            "3,,B\n"
            "4,A;B,B\n"
        )
        rc = main(["design", "--mlcm", str(csv_path), "--classes", "A,B", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        # diag A=1 (s1), (A,NPL)=2 (s2, s4), (NTL,B)=1 (s3), diag B=1 (s4)
        assert payload["counts"][0][0] == 1
        assert payload["counts"][0][2] == 2
        assert payload["counts"][2][1] == 1
        assert payload["counts"][1][1] == 1

    def test_design_without_inputs_is_config_error(self, capsys):
        assert main(["design"]) == 4

    def test_design_error_is_config_error(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("id,labels\n1,A\n")
        assert main(["design", "--mlcm", str(csv_path)]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "benchforge: MLCM CSV must have columns ['predicted_labels', 'sample_id', 'true_labels']\n"
        )
        assert captured.out == ""

    def test_untagged_weighted_benchmark_is_config_error(self, tmp_path, capsys):
        suite = tmp_path / "suite.yaml"
        suite.write_text(SMALL_SUITE)
        assert main(["design", "--config", str(suite)]) == 4
        assert capsys.readouterr().err == "benchforge: benchmark 'fast' carries weight but no tags\n"
