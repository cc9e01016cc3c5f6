"""Process planning, supervision, and four-phase execution tests."""

import hashlib
import json
import math
import os
import statistics
import sys
import tempfile
import threading
import time
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchforge.executor import (
    DRAIN_S,
    FOLD_FORMAT,
    REASONS_KEPT,
    DevicePool,
    ExecutorError,
    LogFold,
    _load_log,
    fold_sidecar,
    install,
    load_run,
    log_from_sidecar,
    plan_launches,
    prepare,
    run,
    supervise,
)
from benchforge.aggregate import fold_process
from benchforge.protocol import (
    MetricEvent,
    Observation,
    ObservationLog,
    Rejection,
    decode_event,
    encode_event,
    read_stream,
)
from benchforge.suite import BenchmarkSpec, SuiteConfig, SuiteError, parse_suite

from conftest import DATA_DIR, WORKER_CMD
from test_protocol import chop

POOL4 = DevicePool(devices=("d0", "d1", "d2", "d3"))
POOL8_2N = DevicePool(devices=tuple(f"d{i}" for i in range(8)), nodes=2)
POOL1 = DevicePool(devices=("d0",))


def worker_bench(name="w", scale="single-device", obs_min=5, obs_max=10, extra="", **kw):
    return BenchmarkSpec(
        name=name,
        scale=scale,
        run_cmd=f"{WORKER_CMD} --obs-min {obs_min} --obs-max {obs_max} --seed {{rank}} {extra}".strip(),
        obs_min=obs_min,
        obs_max=obs_max,
        **kw,
    )


class TestDevicePool:
    def test_duplicate_devices_rejected(self):
        with pytest.raises(ExecutorError, match="unique"):
            DevicePool(devices=("d0", "d0"))

    def test_node_split_is_contiguous(self):
        assert POOL8_2N.node_devices(0) == ("d0", "d1", "d2", "d3")
        assert POOL8_2N.node_devices(1) == ("d4", "d5", "d6", "d7")

    def test_uneven_split_gives_remainder_to_early_nodes(self):
        pool = DevicePool(devices=("a", "b", "c"), nodes=2)
        assert pool.node_devices(0) == ("a", "b")
        assert pool.node_devices(1) == ("c",)

    def test_unknown_device_has_no_node(self):
        with pytest.raises(ExecutorError, match="not in pool"):
            POOL8_2N.node_of("d8")


class TestPlanLaunches:
    def test_single_device_one_plan_per_device(self):
        pool = DevicePool(devices=tuple(f"d{i}" for i in range(8)))
        plans = plan_launches(worker_bench(), pool)
        assert len(plans) == 8
        assert all(p.world_size == 8 for p in plans)
        assert all(p.gang_id is None for p in plans)
        assert sorted(p.device for p in plans) == sorted(pool.devices)
        assert len({p.device for p in plans}) == 8  # device exclusivity

    def test_node_devices_forms_one_gang_on_node_zero(self):
        plans = plan_launches(worker_bench(scale="node-devices"), POOL8_2N)
        assert len(plans) == 4
        assert {p.gang_id for p in plans} == {"w:node0"}
        assert [p.rank for p in plans] == [0, 1, 2, 3]
        assert all(p.world_size == 4 for p in plans)
        assert all(p.env["BENCHFORGE_NODE"] == "0" for p in plans)

    def test_multi_node_spans_all_nodes(self):
        plans = plan_launches(worker_bench(scale="multi-node"), POOL8_2N)
        assert len(plans) == 8
        assert all(p.world_size == 8 for p in plans)
        assert {p.env["BENCHFORGE_NODE"] for p in plans} == {"0", "1"}

    def test_multi_node_needs_two_nodes(self):
        with pytest.raises(ExecutorError, match="insufficient nodes"):
            plan_launches(worker_bench(scale="multi-node"), POOL4)

    def test_minimal_pool(self):
        plans = plan_launches(worker_bench(), DevicePool(devices=("d0",)))
        assert len(plans) == 1
        assert plans[0].env["BENCHFORGE_DEVICE"] == "d0"

    def test_plans_export_the_observation_budget(self):
        plans = plan_launches(worker_bench(obs_min=7, obs_max=40, scale="node-devices"), POOL8_2N)
        assert {(p.env["BENCHFORGE_OBS_MIN"], p.env["BENCHFORGE_OBS_MAX"]) for p in plans} == {("7", "40")}

    def test_placeholder_resolution(self, tmp_path):
        bench = BenchmarkSpec(
            name="ph",
            run_cmd="echo {device_id} {rank} {world_size} {base_dir} {bench_dir}",
        )
        plans = plan_launches(bench, DevicePool(devices=("gpu7",)), tmp_path)
        assert plans[0].command == (
            "echo",
            "gpu7",
            "0",
            "1",
            str(tmp_path),
            str(tmp_path / "data" / "ph"),
        )

    def test_base_dir_with_a_space_stays_one_word(self, tmp_path):
        base = tmp_path / "sp ace"
        bench = BenchmarkSpec(name="ph", run_cmd="w {base_dir} --data {bench_dir}/x")
        (plan,) = plan_launches(bench, POOL1, base)
        assert plan.command == ("w", str(base), "--data", f"{base / 'data' / 'ph'}/x")

    def test_format_spec_is_applied(self):
        plans = plan_launches(BenchmarkSpec(name="p", run_cmd="w {rank:03d}"), POOL4)
        assert [p.command for p in plans] == [("w", f"{rank:03d}") for rank in range(4)]


class TestSupervise:
    def test_successful_worker(self, tmp_path):
        plan = plan_launches(worker_bench(), DevicePool(devices=("d0",)), tmp_path)[0]
        outcome = supervise(plan, tmp_path / "out")
        assert outcome.classified == "success"
        assert outcome.exit_code == 0
        assert 5 <= len(outcome.log.observations) <= 10
        assert (tmp_path / "out" / "0.jsonl").exists()

    def test_timeout_beyond_longest_select_wait(self, tmp_path):
        # 1e7 s is past the longest wait epoll accepts (about 24.8 days).
        bench = worker_bench(timeout_s=1e7)
        plan = plan_launches(bench, DevicePool(devices=("d0",)), tmp_path)[0]
        assert supervise(plan, tmp_path / "out").classified == "success"

    def test_insufficient_observations_reclassified(self, tmp_path):
        # Worker succeeds by its own config but gathers fewer observations
        # than the benchmark demands.
        bench = BenchmarkSpec(
            name="thin",
            run_cmd=f"{WORKER_CMD} --obs-min 1 --obs-max 10 --seed 0",
            obs_min=30,
            obs_max=60,
        )
        plan = plan_launches(bench, DevicePool(devices=("d0",)), tmp_path)[0]
        outcome = supervise(plan, tmp_path / "out")
        assert outcome.exit_code == 0
        assert outcome.classified == "error"
        assert "insufficient observations" in outcome.log.message

    def test_crashing_worker(self, tmp_path):
        bench = worker_bench(name="boom", extra="--kind crashing --crash-after 2")
        plan = plan_launches(bench, DevicePool(devices=("d0",)), tmp_path)[0]
        outcome = supervise(plan, tmp_path / "out")
        assert outcome.classified == "error"
        assert outcome.exit_code == 1
        assert len(outcome.log.observations) == 2

    def test_timeout_kills_and_keeps_partial_log(self, tmp_path):
        bench = BenchmarkSpec(
            name="stall",
            run_cmd=f"{WORKER_CMD} --obs-min 1 --obs-max 500 --sleep-per-batch 0.4 "
            "--batches-per-epoch 2 --seed 0",
            timeout_s=1.5,
            obs_min=1,
        )
        plan = plan_launches(bench, DevicePool(devices=("d0",)), tmp_path)[0]
        started = time.monotonic()
        outcome = supervise(plan, tmp_path / "out")
        elapsed = time.monotonic() - started
        assert outcome.classified == "timeout"
        assert outcome.log.terminal == "timeout"
        assert elapsed < 10
        # Flushed epochs survive the kill.
        assert len(outcome.log.observations) >= 2

    def test_spawn_failure(self, tmp_path):
        bench = BenchmarkSpec(name="ghost", run_cmd="/definitely/not/a/binary")
        plan = plan_launches(bench, DevicePool(devices=("d0",)), tmp_path)[0]
        outcome = supervise(plan, tmp_path / "out")
        assert outcome.classified == "error"
        assert outcome.exit_code == -1

    def test_child_env_carries_identity(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text(
            "import os\n"
            "for k in ('BENCHFORGE_DEVICE','BENCHFORGE_RANK','BENCHFORGE_WORLD_SIZE'):\n"
            "    assert os.environ[k], k\n"
        )
        bench = BenchmarkSpec(name="env", run_cmd=f"python3 {probe}")
        plan = plan_launches(bench, DevicePool(devices=("gpuX",)), tmp_path)[0]
        outcome = supervise(plan, tmp_path / "out")
        assert outcome.exit_code == 0

    def test_lingering_grandchild_is_killed_at_exit(self, tmp_path):
        # The backgrounded sleep inherits the metric fd and would hold the
        # pipe open for 5 s after the worker exits. The shell's pid, which
        # the worker takes over by exec, is the process group id.
        pid_file = tmp_path / "pgid"
        bench = BenchmarkSpec(
            name="linger",
            run_cmd=f'sh -c "echo $$ > {pid_file}; sleep 5 & '
            f'exec {WORKER_CMD} --obs-min 5 --obs-max 10 --seed 0"',
            obs_min=5,
        )
        plan = plan_launches(bench, DevicePool(devices=("d0",)), tmp_path)[0]
        started = time.monotonic()
        outcome = supervise(plan, tmp_path / "out")
        assert time.monotonic() - started < outcome.duration_s + 1.0
        assert outcome.classified == "success"
        # The killed sleep stays a zombie, still in the group, until init
        # reaps it; some inits reap only every few seconds.
        pgid = int(pid_file.read_text())
        deadline = time.monotonic() + 3.0
        with pytest.raises(ProcessLookupError):
            while time.monotonic() < deadline:
                os.killpg(pgid, 0)
                time.sleep(0.05)

    def test_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(self):
            raise RuntimeError("supervise must not start a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        plan = plan_launches(worker_bench(), DevicePool(devices=("d0",)), tmp_path)[0]
        assert supervise(plan, tmp_path / "out").classified == "success"

    def test_exception_kills_and_reaps_the_child(self, tmp_path, monkeypatch):
        def broken(self, chunk):
            raise RuntimeError("fold failed")

        monkeypatch.setattr(LogFold, "feed", broken)
        pid_file = tmp_path / "pid"
        bench = BenchmarkSpec(
            name="left",
            run_cmd=f'sh -c "echo $$ > {pid_file}; echo hello > /dev/fd/$BENCHFORGE_METRICS_FD; exec sleep 30"',
            timeout_s=20,
        )
        plan = plan_launches(bench, DevicePool(devices=("d0",)), tmp_path)[0]
        with pytest.raises(RuntimeError, match="fold failed"):
            supervise(plan, tmp_path / "out")
        # The child was the supervisor's own, so it is reaped, not left a zombie.
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)

    def test_closed_metric_fd_does_not_disarm_timeout(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text(
            "import os, time\n"
            "os.close(int(os.environ['BENCHFORGE_METRICS_FD']))\n"
            "time.sleep(30)\n"
        )
        bench = BenchmarkSpec(name="mute", run_cmd=f"python3 {probe}", timeout_s=1.0)
        plan = plan_launches(bench, DevicePool(devices=("d0",)), tmp_path)[0]
        started = time.monotonic()
        outcome = supervise(plan, tmp_path / "out")
        assert outcome.classified == "timeout"
        assert time.monotonic() - started < 3.0


def setup_suite(*benches):
    return SuiteConfig(suite_name="t", benchmarks=tuple(benches))


class TestInstallPrepare:
    def test_install_stamps_and_skips(self, tmp_path):
        cfg = setup_suite(
            BenchmarkSpec(name="a", run_cmd="w", install_cmd="true"),
            BenchmarkSpec(name="b", run_cmd="w", install_cmd="true"),
            BenchmarkSpec(name="c", run_cmd="w", install_cmd="true"),
        )
        first = install(cfg, tmp_path)
        assert first == {"a": "done", "b": "done", "c": "done"}
        for name in "abc":
            assert (tmp_path / "envs" / name / ".installed").exists()
        second = install(cfg, tmp_path)
        assert second == {"a": "skipped", "b": "skipped", "c": "skipped"}

    def test_one_failure_does_not_block_others(self, tmp_path):
        cfg = setup_suite(
            BenchmarkSpec(name="good", run_cmd="w", install_cmd="true"),
            BenchmarkSpec(name="bad", run_cmd="w", install_cmd="false"),
            BenchmarkSpec(name="also-good", run_cmd="w", install_cmd="true"),
        )
        statuses = install(cfg, tmp_path)
        assert statuses["bad"] == "failed"
        assert statuses["good"] == "done"
        assert statuses["also-good"] == "done"
        assert not (tmp_path / "envs" / "bad" / ".installed").exists()

    def test_changed_command_invalidates_stamp(self, tmp_path):
        cfg = setup_suite(BenchmarkSpec(name="a", run_cmd="w", install_cmd="true"))
        install(cfg, tmp_path)
        # A different command must re-run, not ride the old stamp.
        cfg2 = setup_suite(BenchmarkSpec(name="a", run_cmd="w", install_cmd="false"))
        assert install(cfg2, tmp_path)["a"] == "failed"
        assert install(cfg, tmp_path)["a"] == "skipped"

    def test_prepare_writes_into_data_dir(self, tmp_path):
        cfg = setup_suite(
            BenchmarkSpec(
                name="prep",
                run_cmd="w",
                prepare_cmd="python3 -c \"open('blob.bin','wb').write(b'x'*1048576)\"",
            )
        )
        statuses = prepare(cfg, tmp_path)
        assert statuses == {"prep": "done"}
        blob = tmp_path / "data" / "prep" / "blob.bin"
        assert blob.stat().st_size == 1048576
        assert prepare(cfg, tmp_path) == {"prep": "skipped"}

    def test_prepare_not_required_when_absent(self, tmp_path):
        cfg = setup_suite(BenchmarkSpec(name="norun", run_cmd="w"))
        assert prepare(cfg, tmp_path) == {"norun": "not-required"}

    def test_prepare_blocked_while_install_stamp_missing(self, tmp_path):
        cfg = setup_suite(BenchmarkSpec(name="p", run_cmd="w", install_cmd="true", prepare_cmd="true"))
        assert prepare(cfg, tmp_path) == {"p": "blocked: install incomplete"}
        assert not (tmp_path / "data" / "p" / ".prepared").exists()
        assert install(cfg, tmp_path) == {"p": "done"}
        assert prepare(cfg, tmp_path) == {"p": "done"}

    def test_prepare_blocked_by_a_stale_install_stamp(self, tmp_path):
        cfg = setup_suite(BenchmarkSpec(name="p", run_cmd="w", install_cmd="true", prepare_cmd="true"))
        install(cfg, tmp_path)
        # The install command changed since its stamp was written.
        changed = setup_suite(BenchmarkSpec(name="p", run_cmd="w", install_cmd="true v2", prepare_cmd="true"))
        assert prepare(changed, tmp_path) == {"p": "blocked: install incomplete"}
        assert prepare(cfg, tmp_path) == {"p": "done"}


class TestRun:
    def test_two_constant_benches_on_four_devices(self, tmp_path):
        cfg = setup_suite(
            worker_bench(name="one"),
            worker_bench(name="two", extra="--kind jitter --jitter 0.1"),
        )
        run_dir, records = run(cfg, POOL4, tmp_path, system="test", check_setup=False)
        assert len(records) == 2
        for record in records:
            assert len(record.outcomes) == 4
            assert all(o.classified == "success" for o in record.outcomes)
        assert (run_dir / "meta.json").exists()
        assert (run_dir / "suite.yaml").exists()
        assert (run_dir / "one" / "3.jsonl").exists()
        assert (run_dir / "one" / "outcomes.json").exists()

    @pytest.mark.parametrize(
        "benches, violation",
        [
            (
                (BenchmarkSpec(name="q", run_cmd="w 'unclosed"),),
                "benchmark 'q': run_cmd: malformed command template: No closing quotation",
            ),
            ((worker_bench(name="a"), worker_bench(name="a")), "duplicate benchmark name 'a'"),
            (
                (worker_bench(name="../escaped"),),
                "benchmark '../escaped': name must be one path component (not empty, '.' or '..', no '/' or NUL)",
            ),
        ],
        ids=["template", "duplicate", "path"],
    )
    def test_invalid_in_code_suite_is_refused_before_the_run_dir(self, tmp_path, benches, violation):
        with pytest.raises(SuiteError) as err:
            run(SuiteConfig("s", benches), POOL1, tmp_path, check_setup=False)
        assert str(err.value) == violation
        assert not (tmp_path / "runs").exists()

    def test_crashing_bench_never_aborts_suite(self, tmp_path):
        cfg = setup_suite(
            worker_bench(name="boom", extra="--kind crashing --crash-after 1"),
            worker_bench(name="after"),
        )
        _, records = run(cfg, POOL4, tmp_path, check_setup=False)
        boom, after = records
        assert all(o.classified == "error" for o in boom.outcomes)
        assert all(o.classified == "success" for o in after.outcomes)

    def test_gang_failure_is_collective(self, tmp_path):
        # Rank 0 crashes (crashing kind with seed 0 placeholder --> all crash);
        # instead vary: crash only when rank==0 via distinct crash-after through seed.
        cfg = setup_suite(
            BenchmarkSpec(
                name="gang",
                scale="node-devices",
                run_cmd=(
                    f"{WORKER_CMD} --obs-min 5 --obs-max 10 --seed 0 "
                    "--kind crashing --crash-after {rank}0"
                ),
                obs_min=5,
            ),
        )
        _, records = run(cfg, POOL4, tmp_path, check_setup=False)
        (record,) = records
        # rank 0 crashed after 0 batches; ranks 1..3 would have survived
        # (crash_after 10,20,30 >= obs budget) but the gang fails as one.
        assert all(o.classified == "error" for o in record.outcomes)
        assert record.outcomes[0].exit_code == 1
        assert any(o.exit_code == 0 for o in record.outcomes[1:])

    def test_outcome_count_matches_planned_launches(self, tmp_path):
        cfg = setup_suite(worker_bench(name="g", scale="node-devices"))
        _, records = run(cfg, POOL8_2N, tmp_path, check_setup=False)
        assert len(records[0].outcomes) == 4  # node 0 only

    def test_multi_node_on_single_node_pool_is_recorded_error(self, tmp_path):
        cfg = setup_suite(worker_bench(name="mn", scale="multi-node"), worker_bench(name="ok"))
        _, records = run(cfg, POOL4, tmp_path, check_setup=False)
        assert records[0].error is not None
        assert "insufficient nodes" in records[0].error
        assert records[0].outcomes == []
        assert all(o.classified == "success" for o in records[1].outcomes)

    def test_worker_without_flags_keeps_the_suite_budget(self, tmp_path):
        budget = BenchmarkSpec(name="budget", run_cmd=f"{WORKER_CMD} --seed {{rank}}", obs_max=40)
        run_dir, records = run(setup_suite(budget), POOL1, tmp_path, check_setup=False)
        (outcome,) = records[0].outcomes
        assert outcome.classified == "success"
        assert len(outcome.log.observations) == 40
        (row,) = json.loads((run_dir / "budget" / "outcomes.json").read_text())["outcomes"]
        assert row["observations"] == 40

    def test_phase_durations_are_written(self, tmp_path):
        cfg = setup_suite(worker_bench(name="ok"), worker_bench(name="mn", scale="multi-node"))
        run_dir, records = run(cfg, POOL4, tmp_path, check_setup=False)
        assert records[1].error is not None  # the plan-error path
        for record in records:
            payload = json.loads((run_dir / record.bench / "outcomes.json").read_text())
            assert set(payload["phase_durations"]) == {"run"}
            assert payload["phase_durations"]["run"] > 0
            assert payload["phase_durations"] == record.phase_durations

    def test_setup_check_blocks_unprepared_run(self, tmp_path):
        cfg = setup_suite(
            BenchmarkSpec(name="needs", run_cmd="w", install_cmd="true"),
        )
        with pytest.raises(ExecutorError, match="install not completed"):
            run(cfg, POOL4, tmp_path)
        install(cfg, tmp_path)
        # run_cmd 'w' doesn't exist; but the setup gate passes now
        _, records = run(cfg, POOL4, tmp_path)
        assert all(o.classified == "error" for o in records[0].outcomes)

    def test_setup_check_names_a_pending_prepare(self, tmp_path):
        cfg = setup_suite(BenchmarkSpec(name="needs", run_cmd="w", install_cmd="true", prepare_cmd="true"))
        install(cfg, tmp_path)
        message = "benchmark 'needs': prepare not completed (run `benchforge prepare`)"
        with pytest.raises(ExecutorError) as excinfo:
            run(cfg, POOL4, tmp_path)
        assert str(excinfo.value) == message
        assert not (tmp_path / "runs").exists()

    def test_load_run_round_trips_outcomes(self, tmp_path):
        cfg = setup_suite(worker_bench(name="keep"))
        run_dir, records = run(cfg, POOL4, tmp_path, system="sysA", check_setup=False)
        loaded = load_run(run_dir)
        assert loaded.meta["system"] == "sysA"
        assert loaded.suite.sha256() == cfg.sha256()
        record = loaded.records["keep"]
        assert [o.classified for o in record.outcomes] == [
            o.classified for o in records[0].outcomes
        ]
        assert [len(o.log.observations) for o in record.outcomes] == [
            len(o.log.observations) for o in records[0].outcomes
        ]
        got = [o.log.rates() for o in record.outcomes]
        want = [o.log.rates() for o in records[0].outcomes]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9)

    def test_rejected_lines_are_kept_in_outcomes(self, tmp_path):
        # Four garbage lines precede a healthy worker's stream on the metric channel.
        garbage = "printf 'garbage one\\n[1]\\n\\nagain\\n' > /dev/fd/$BENCHFORGE_METRICS_FD"
        bench = BenchmarkSpec(
            name="noisy",
            run_cmd=f'sh -c "{garbage}; exec {WORKER_CMD} --obs-min 5 --obs-max 10 --seed 0"',
            obs_min=5,
        )
        run_dir, _ = run(setup_suite(bench), DevicePool(devices=("d0",)), tmp_path, check_setup=False)
        (row,) = json.loads((run_dir / "noisy" / "outcomes.json").read_text())["outcomes"]
        assert row["classified"] == "success"
        assert row["rejected"] == 4
        assert row["rejection_reasons"] == [
            "not valid JSON: Expecting value: line 1 column 1 (char 0)",
            "not a JSON object",
            "empty line",
        ]
        (outcome,) = load_run(run_dir).records["noisy"].outcomes
        assert (outcome.log.rejected, outcome.log.rejection_reasons) == (4, row["rejection_reasons"])

    def test_faults_are_kept_in_outcomes(self, tmp_path):
        # One rate line whose span overflows precedes a healthy worker's stream.
        fault = tmp_path / "fault.jsonl"
        fault.write_text(
            '{"event":"rate","time":1,"task":"train","data":{"batch":1,"rate":1,"t0":-1e308,"t1":1e308,"units":"x"}}\n'
        )
        bench = BenchmarkSpec(
            name="faulty",
            run_cmd=f'sh -c "cat {fault} > /dev/fd/$BENCHFORGE_METRICS_FD; '
            f'exec {WORKER_CMD} --obs-min 5 --obs-max 10 --seed 0"',
            obs_min=5,
        )
        run_dir, _ = run(setup_suite(bench), DevicePool(devices=("d0",)), tmp_path, check_setup=False)
        (row,) = json.loads((run_dir / "faulty" / "outcomes.json").read_text())["outcomes"]
        assert (row["classified"], row["faults"], row["rejected"]) == ("success", 1, 0)
        (outcome,) = load_run(run_dir).records["faulty"].outcomes
        assert outcome.log.faults == 1

    def test_load_run_raises_on_unreadable_stream(self, tmp_path):
        cfg = setup_suite(worker_bench(name="keep"))
        run_dir, _ = run(cfg, POOL4, tmp_path, check_setup=False)
        stream = run_dir / "keep" / "0.jsonl"
        stream.unlink()
        stream.mkdir()
        with pytest.raises(OSError):
            load_run(run_dir)


class TestOneSupervisionLoop:
    @pytest.mark.parametrize("scale", ["single-device", "node-devices"])
    def test_run_starts_no_thread(self, tmp_path, monkeypatch, scale):
        def refuse(self):
            raise RuntimeError("run must not start a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        _, (record,) = run(setup_suite(worker_bench(scale=scale)), POOL4, tmp_path, check_setup=False)
        assert [o.rank for o in record.outcomes] == [0, 1, 2, 3]
        assert all(o.classified == "success" for o in record.outcomes)

    def test_quick_workers_end_together(self, tmp_path):
        _, (record,) = run(setup_suite(worker_bench()), POOL4, tmp_path, check_setup=False)
        assert all(o.classified == "success" for o in record.outcomes)
        assert record.phase_durations["run"] < max(o.duration_s for o in record.outcomes) + 0.5

    def test_lingering_grandchild_leaves_other_ranks_alone(self, tmp_path):
        # Rank 1 leaves a backgrounded sleep holding the metric pipe; the group kill at its exit ends it.
        plain = worker_bench(name="plain", obs_min=5, obs_max=5)
        linger = BenchmarkSpec(
            name="linger",
            run_cmd=f'sh -c "if [ {{rank}} = 1 ]; then sleep 5 & fi; '
            f'exec {WORKER_CMD} --obs-min 5 --obs-max 5 --seed {{rank}}"',
            obs_min=5,
            obs_max=5,
        )
        _, records = run(setup_suite(plain, linger), POOL4, tmp_path, check_setup=False)

        def verdicts(record):
            return [(o.classified, o.exit_code, len(o.log.work), o.log.terminal) for o in record.outcomes]

        assert verdicts(records[1]) == verdicts(records[0]) == [("success", 0, 5, "success")] * 4
        longest = max(o.duration_s for o in records[1].outcomes)
        assert records[1].phase_durations["run"] < longest + DRAIN_S + 0.5


def usage_suite():
    """One benchmark for each ending: success, crash, timeout, and a binary that does not exist."""
    return setup_suite(
        worker_bench(name="ok"),
        worker_bench(name="boom", extra="--kind crashing --crash-after 2"),
        BenchmarkSpec(
            name="stall",
            run_cmd=f"{WORKER_CMD} --obs-min 1 --obs-max 500 --sleep-per-batch 0.4 --batches-per-epoch 2 --seed 0",
            timeout_s=1.0,
            obs_min=1,
        ),
        BenchmarkSpec(name="ghost", run_cmd="/definitely/not/a/binary"),
    )


class TestChildAccounting:
    def test_every_row_has_the_child_usage(self, tmp_path):
        run_dir, records = run(usage_suite(), POOL1, tmp_path, check_setup=False)
        assert [r.outcomes[0].classified for r in records] == ["success", "error", "timeout", "error"]
        for record in records:
            (outcome,) = record.outcomes
            (row,) = json.loads((run_dir / record.bench / "outcomes.json").read_text())["outcomes"]
            assert (row["cpu_s"], row["maxrss_kb"]) == (outcome.cpu_s, outcome.maxrss_kb)
            if record.bench == "ghost":  # no process started
                assert (row["exit_code"], row["cpu_s"], row["maxrss_kb"]) == (-1, None, None)
            else:
                assert type(row["cpu_s"]) is float and row["cpu_s"] >= 0
                assert type(row["maxrss_kb"]) is int and row["maxrss_kb"] > 0

    def test_a_busy_child_costs_more_cpu_than_a_sleeping_one(self, tmp_path):
        script = tmp_path / "spend.py"
        script.write_text(
            "import sys, time\n"
            "if sys.argv[1] == 'spin':\n"
            "    while time.process_time() < 0.3:\n"
            "        pass\n"
            "else:\n"
            "    time.sleep(0.3)\n"
        )
        spent = {}
        for mode in ("spin", "sleep"):
            bench = BenchmarkSpec(name=mode, run_cmd=f"{sys.executable} {script} {mode}")
            (plan,) = plan_launches(bench, POOL1, tmp_path)
            spent[mode] = supervise(plan, tmp_path / mode).cpu_s
        assert spent["sleep"] + 0.2 < spent["spin"]

    def test_no_child_is_waited_for_twice(self, tmp_path, monkeypatch):
        waited = {"wait4": [], "waitpid": []}
        for name, pids in waited.items():
            def spy(pid, options, _real=getattr(os, name), _pids=pids):
                _pids.append(pid)
                return _real(pid, options)

            monkeypatch.setattr(os, name, spy)
        _, records = run(usage_suite(), POOL1, tmp_path, check_setup=False)
        started = [o for record in records for o in record.outcomes if o.exit_code != -1]
        assert len(started) == 3
        # Each started child is reaped once, by os.wait4; Popen never waits for it again.
        assert len(waited["wait4"]) == len(set(waited["wait4"])) == 3
        assert not set(waited["wait4"]) & set(waited["waitpid"])

    def test_meta_records_the_harness_usage(self, tmp_path):
        run_dir, _ = run(setup_suite(worker_bench()), POOL1, tmp_path, check_setup=False)
        meta = json.loads((run_dir / "meta.json").read_text())
        assert type(meta["harness_cpu_s"]) is float and meta["harness_cpu_s"] > 0
        assert type(meta["harness_maxrss_kb"]) is int and meta["harness_maxrss_kb"] > 0
        assert load_run(run_dir).meta == meta


def _fold_events(events):
    """The log LogFold makes of already decoded events."""
    fold = LogFold("p")
    fold.add(events)
    return fold.finish()


class TestLogFromEvents:
    def rate_line(self, batch, t0, t1, rate=1):
        return (
            '{"event":"rate","time":1,"task":"train","data":'
            f'{{"batch":{batch},"rate":{rate},"t0":{t0},"t1":{t1},"units":"x"}}}}'
        )

    @pytest.mark.parametrize(
        "batch, t0, t1",
        [
            (1, -1e308, 1e308),  # elapsed overflows to inf: the rate would score as 0.0
            (1e10, 0, 1e-320),  # rate overflows to inf
            (1e-300, 0, 1e300),  # rate underflows to 0.0
        ],
    )
    def test_extreme_stamps_are_faults_not_observations(self, batch, t0, t1):
        events = [decode_event(self.rate_line(2, 0, 1)), decode_event(self.rate_line(batch, t0, t1))]
        log = _fold_events(events)
        assert (log.rates(), log.faults) == ([2.0], 1)

    def test_extreme_rate_without_stamps_is_a_fault(self):
        line = '{"event":"rate","time":1,"task":"train","data":{"batch":1e300,"rate":1e-300,"units":"x"}}'
        log = _fold_events([decode_event(line)])
        assert (log.rates(), log.faults) == ([], 1)


def _reference_log(events):
    """The fold rules written out plainly, as the independent oracle for LogFold."""
    observations, faults, terminal, message = [], 0, None, ""
    for event in events:
        data = event.data
        if event.event == "rate":
            work = float(data["batch"])
            if "t0" in data and "t1" in data:
                elapsed = float(data["t1"]) - float(data["t0"])
            else:
                elapsed = work / float(data["rate"])
            if 0 < elapsed < math.inf and 0 < work / elapsed < math.inf:
                warmup = bool(data.get("warmup", False))
                observations.append(Observation(work, elapsed, warmup, event.task))
            else:
                faults += 1
        elif event.event in ("success", "error") and terminal is None:
            terminal = event.event
            if terminal == "error":
                message = str(data.get("message", ""))
    return tuple(observations), faults, terminal or "error", message


_positive = st.one_of(st.floats(1e-300, 1e300), st.integers(1, 10**6))
_stamps = st.one_of(st.floats(-1e308, 1e308), st.integers(-(10**6), 10**6), st.sampled_from([0, 1e-320, 1e308]))


@st.composite
def _rate_lines(draw) -> bytes:
    data = {"batch": draw(_positive), "rate": draw(_positive), "units": "x"}
    if draw(st.booleans()):
        data["t0"], data["t1"] = draw(_stamps), draw(_stamps)
    if draw(st.booleans()):
        data["warmup"] = draw(st.booleans())
    return encode_event(MetricEvent("rate", 1.0, draw(st.sampled_from(["train", "worker-0"])), data)).encode()


_fold_lines = st.one_of(
    _rate_lines(),
    st.sampled_from(["success", "error", "end", "progress"]).map(
        lambda kind: encode_event(MetricEvent(kind, 2.0, "main", {"message": kind})).encode()
    ),
    st.just(b'{"event":"error","time":3,"task":"main","data":{}}\n'),
    st.binary(max_size=24).map(lambda b: b.replace(b"\n", b"") + b"\n"),
    st.sampled_from([b"\n", b"[1]\n", b"\xe2\x82\n", b'{"event":"rate"}\n']),
)


def _folded(chunks):
    fold = LogFold("p")
    for chunk in chunks:
        fold.feed(chunk)
    return fold.finish()


class TestLogFold:
    def check(self, chunks):
        items = list(read_stream(chunks))
        events = [item for item in items if isinstance(item, MetricEvent)]
        rejections = [item for item in items if isinstance(item, Rejection)]
        log = _folded(chunks)
        for got in (log, _fold_events(events)):
            assert (got.observations, got.faults, got.terminal, got.message) == _reference_log(events)
        assert log.rejected == len(rejections)
        assert log.rejection_reasons == [r.reason for r in rejections[:REASONS_KEPT]]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_pass_equals_the_listed_fold_under_any_chunking(self, data):
        payload = b"".join(data.draw(st.lists(_fold_lines, max_size=16))) + data.draw(st.binary(max_size=8))
        self.check([payload])
        self.check(chop(payload, data.draw(st.lists(st.integers(0, len(payload)), max_size=20))))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_fold_lines, max_size=8))
    def test_one_pass_byte_at_a_time(self, lines):
        payload = b"".join(lines)
        self.check([payload[i : i + 1] for i in range(len(payload))])

    def test_flood_of_rejections_keeps_a_bounded_sample(self):
        fold = LogFold("p")
        for i in range(1000):
            fold.add([Rejection("x", f"reason {i}")] * 50)
        log = fold.finish()
        assert log.rejected == 50_000
        assert log.rejection_reasons == ["reason 0"] * REASONS_KEPT


def _fields(log):
    """Every field of a log; the observations by repr, so 1 and True differ."""
    return (
        log.process_id,
        repr(log.observations),
        log.faults,
        log.terminal,
        log.message,
        log.rejected,
        log.rejection_reasons,
    )


def _sidecar_of(payload):
    digest = hashlib.sha256(payload).hexdigest()
    return fold_sidecar(_folded([payload]), digest, len(payload)), digest


# Text with newlines, non-ASCII characters and lone surrogates; JSON escapes the surrogates.
_odd_text = st.lists(
    st.one_of(st.characters(), st.sampled_from(["\n", "\r\n", "\ud800", "\udfff", "\u00e9", "\u2028", "\x00"])),
    max_size=6,
).map("".join)


@st.composite
def _odd_lines(draw) -> bytes:
    text = draw(_odd_text)
    kind = draw(st.sampled_from(["rate", "error", "success", text]))
    data = {"message": text}
    if kind == "rate":
        data = {"batch": draw(_positive), "rate": draw(_positive), "units": "x", "warmup": draw(st.booleans())}
    return json.dumps({"event": kind, "time": 1, "task": draw(_odd_text), "data": data}).encode() + b"\n"


# Length and sha256 of the sidecar of tests/data/protocol_corpus.jsonl.
CORPUS_SIDECAR_BYTES = 494
CORPUS_SIDECAR_SHA256 = "4127bda46034ab91dd1ae5d25cc263da853a2ac96a9e4bba6893ff739ff607ce"


def _scale_first_work(sidecar: bytes) -> bytes:
    """The sidecar with its first work value ×10, edited in place: same length, same header."""
    head, _, body = sidecar.partition(b"\n")
    first = array("d", body[:8])
    first[0] *= 10
    return head + b"\n" + first.tobytes() + body[8:]


class TestFoldSidecar:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_equals_the_fold_under_any_chunking(self, data):
        lines = st.one_of(_fold_lines, _odd_lines())
        payload = b"".join(data.draw(st.lists(lines, max_size=16))) + data.draw(st.binary(max_size=8))
        log = _folded(chop(payload, data.draw(st.lists(st.integers(0, len(payload)), max_size=20))))
        digest = hashlib.sha256(payload).hexdigest()
        back = log_from_sidecar(fold_sidecar(log, digest, len(payload)), digest, len(payload), "p")
        assert back is not None
        assert _fields(back) == _fields(log)

    @pytest.mark.skipif(sys.byteorder != "little", reason="the pinned arrays are little-endian")
    def test_corpus_sidecar_is_pinned(self):
        sidecar, _ = _sidecar_of((DATA_DIR / "protocol_corpus.jsonl").read_bytes())
        assert (len(sidecar), hashlib.sha256(sidecar).hexdigest()) == (
            CORPUS_SIDECAR_BYTES,
            CORPUS_SIDECAR_SHA256,
        ), "fold rules or layout changed: bump FOLD_FORMAT"

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda sidecar: sidecar[:-1],
            lambda sidecar: sidecar[: sidecar.index(b"\n") // 2],
            lambda sidecar: sidecar.replace(b'"format": %d' % FOLD_FORMAT, b'"format": %d' % (FOLD_FORMAT + 1)),
            lambda sidecar: sidecar.replace(
                b'"byteorder": "%s"' % sys.byteorder.encode(),
                b'"byteorder": "%s"' % ("big" if sys.byteorder == "little" else "little").encode(),
            ),
            lambda sidecar: b"[]\n" + sidecar.partition(b"\n")[2],
            lambda sidecar: b"",
            _scale_first_work,
        ],
        ids=["truncated-arrays", "truncated-header", "format", "byteorder", "not-a-header", "empty", "work-edited"],
    )
    def test_spoilt_sidecar_is_not_trusted(self, spoil):
        payload = (DATA_DIR / "protocol_corpus.jsonl").read_bytes()
        sidecar, digest = _sidecar_of(payload)
        spoilt = spoil(sidecar)
        assert spoilt != sidecar
        assert log_from_sidecar(spoilt, digest, len(payload), "p") is None

    def test_other_stream_is_not_trusted(self):
        payload = (DATA_DIR / "protocol_corpus.jsonl").read_bytes()
        sidecar, digest = _sidecar_of(payload)
        assert log_from_sidecar(sidecar, digest, len(payload), "p") is not None
        assert log_from_sidecar(sidecar, digest, len(payload) + 1, "p") is None
        assert log_from_sidecar(sidecar, hashlib.sha256(b"edited").hexdigest(), len(payload), "p") is None


_TASKS = ("train", "worker-0", "worker-1", "rang-\u00e9")
_observation = st.builds(Observation, st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.booleans(), st.sampled_from(_TASKS))


def _stream_of(observations):
    """Rate lines whose fold is exactly ``observations``: t0 is 0, so t1 - t0 is the elapsed time."""
    return b"".join(
        encode_event(
            MetricEvent(
                "rate",
                1.0,
                o.task,
                {"batch": o.work, "rate": o.rate, "t0": 0.0, "t1": o.elapsed, "units": "x", "warmup": o.warmup},
            )
        ).encode()
        for o in observations
    )


def _columns(log):
    return (log.work, log.elapsed, log.warmup, log.task_index, list(log.tasks.items()))


def _reference_median(observations, drop_warmup):
    """The fold rule over Observation values: warmup dropped unless nothing is left, then the median."""
    rates = [o.rate for o in observations if not (drop_warmup and o.warmup)] or [o.rate for o in observations]
    return statistics.median(rates) if rates else None


class TestColumnarLog:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_observation, max_size=41))
    @example([])
    @example([Observation(3.0, 2.0, True, "train")] * 3)
    @example([Observation(1.0, 1.0, True, "train")] * 4)
    @example([Observation(2.0 + i, 1.0, i == 0, _TASKS[i % 3]) for i in range(6)])
    @example([Observation(2.0 + i, 0.5, i == 0, _TASKS[(i * 5) % 4]) for i in range(7)])
    def test_sidecar_holds_the_columns_and_folds_like_the_observations(self, observations):
        payload = _stream_of(observations)
        digest = hashlib.sha256(payload).hexdigest()
        log = _folded([payload])
        assert log.observations == tuple(observations)
        back = log_from_sidecar(fold_sidecar(log, digest, len(payload)), digest, len(payload), "p")
        assert back is not None
        assert _columns(back) == _columns(log)
        assert back.observations == tuple(observations)
        for drop_warmup in (True, False):
            want = _reference_median(observations, drop_warmup)
            assert fold_process(back, drop_warmup) == fold_process(log, drop_warmup) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_observation, min_size=1, max_size=41), st.booleans(), st.integers(0, 10**6))
    def test_corrupt_column_falls_back_to_decoding(self, observations, spoil_warmup, position):
        payload = _stream_of(observations)
        digest = hashlib.sha256(payload).hexdigest()
        log = _folded([payload])
        sidecar = bytearray(fold_sidecar(log, digest, len(payload)))
        n, body, i = len(observations), sidecar.index(b"\n") + 1, position % len(observations)
        if spoil_warmup:
            sidecar[body + 16 * n + i] = 2
        else:
            at = body + 17 * n + 4 * i
            sidecar[at : at + 4] = len(log.tasks).to_bytes(4, sys.byteorder)
        assert log_from_sidecar(bytes(sidecar), digest, len(payload), "p") is None
        with tempfile.TemporaryDirectory() as tmp:
            stream = Path(tmp) / "0.jsonl"
            stream.write_bytes(payload)
            stream.with_suffix(".fold").write_bytes(sidecar)
            with mock.patch.object(LogFold, "feed", autospec=True, side_effect=LogFold.feed) as feed:
                got = _load_log(stream, "p")
        assert feed.called
        assert _fields(got) == _fields(log)

    @pytest.mark.parametrize("work, elapsed", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0)])
    def test_add_refuses_what_observation_refuses(self, work, elapsed):
        log = ObservationLog("p")
        with pytest.raises(ValueError):
            log.add(work, elapsed)
        assert (len(log.work), len(log.elapsed), len(log.warmup), len(log.task_index), log.tasks) == (0, 0, 0, 0, {})


def _stream_folds(run_dir, bench):
    """Each process's log, folded again from its stream."""
    logs = []
    for stream in sorted((run_dir / bench).glob("*.jsonl"), key=lambda p: int(p.stem)):
        fold = LogFold(f"{bench}/{stream.stem}")
        fold.feed(stream.read_bytes())
        logs.append(fold.finish())
    return logs


def _loaded_logs(run_dir, bench):
    return [o.log for o in load_run(run_dir).records[bench].outcomes]


@pytest.fixture
def decode_counter(monkeypatch):
    """Counts the chunks LogFold decodes from here on."""
    calls = []
    feed = LogFold.feed

    def counted(self, chunk):
        calls.append(len(chunk))
        return feed(self, chunk)

    monkeypatch.setattr(LogFold, "feed", counted)
    return calls


class TestLoadRunSidecar:
    def test_run_writes_one_sidecar_per_stream_and_report_decodes_none(self, tmp_path, decode_counter):
        run_dir, _ = run(setup_suite(worker_bench(name="keep")), POOL4, tmp_path, check_setup=False)
        assert sorted(p.name for p in (run_dir / "keep").glob("*.fold")) == ["0.fold", "1.fold", "2.fold", "3.fold"]
        assert not list(run_dir.glob("*/*.fold.*"))
        want = _stream_folds(run_dir, "keep")
        decode_counter.clear()
        got = _loaded_logs(run_dir, "keep")
        assert decode_counter == []
        assert [_fields(g) for g in got] == [_fields(w) for w in want]

    def test_sidecar_keeps_the_fold_not_the_verdict(self, tmp_path, decode_counter):
        # Timeout, too few observations and a failed gang each edit the log in
        # supervise or _run_bench; the sidecar holds the fold of the stream alone.
        stall = BenchmarkSpec(
            name="stall",
            run_cmd=f"{WORKER_CMD} --obs-min 1 --obs-max 500 --sleep-per-batch 0.4 --batches-per-epoch 2 --seed 0",
            timeout_s=1.5,
            obs_min=1,
        )
        thin = BenchmarkSpec(name="thin", run_cmd=f"{WORKER_CMD} --obs-min 1 --obs-max 10 --seed 0", obs_min=30)
        gang = BenchmarkSpec(
            name="gang",
            scale="node-devices",
            run_cmd=f"{WORKER_CMD} --obs-min 5 --obs-max 10 --seed 0 --kind crashing --crash-after {{rank}}0",
            obs_min=5,
        )
        pool = DevicePool(devices=("d0", "d1"))
        run_dir, records = run(setup_suite(stall, thin, gang), pool, tmp_path, check_setup=False)
        live = {r.bench: [o.log for o in r.outcomes] for r in records}
        assert {log.terminal for log in live["stall"]} == {"timeout"}
        assert {log.message for log in live["thin"]} == {"insufficient observations"}
        assert live["gang"][1].message == "gang member failed"
        for bench in ("stall", "thin", "gang"):
            want = _stream_folds(run_dir, bench)
            decode_counter.clear()
            got = _loaded_logs(run_dir, bench)
            assert decode_counter == [], bench
            assert [_fields(g) for g in got] == [_fields(w) for w in want], bench
        assert {log.terminal for log in got} == {"error", "success"}

    def test_edited_stream_is_decoded_again(self, tmp_path, decode_counter):
        run_dir, _ = run(setup_suite(worker_bench(name="keep")), POOL1, tmp_path, check_setup=False)
        stream = run_dir / "keep" / "0.jsonl"
        before = _stream_folds(run_dir, "keep")[0]
        # An edit that keeps the length: only the digest tells the streams apart.
        stream.write_bytes(stream.read_bytes().replace(b'"event":"rate"', b'"event":"RATE"', 1))
        decode_counter.clear()
        (got,) = _loaded_logs(run_dir, "keep")
        assert decode_counter != []
        assert _fields(got) == _fields(_stream_folds(run_dir, "keep")[0])
        assert (len(got.observations), got.rejected) == (len(before.observations) - 1, before.rejected + 1)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda sidecar: sidecar.unlink(),
            lambda sidecar: sidecar.write_bytes(sidecar.read_bytes()[:-3]),
            lambda sidecar: sidecar.write_bytes(
                sidecar.read_bytes().replace(b'"format": %d' % FOLD_FORMAT, b'"format": %d' % (FOLD_FORMAT + 1))
            ),
            lambda sidecar: sidecar.write_bytes(sidecar.read_bytes().replace(b'"byteorder": "', b'"byteorder": "x')),
            lambda sidecar: (sidecar.unlink(), sidecar.mkdir()),
        ],
        ids=["deleted", "truncated", "format", "byteorder", "unreadable"],
    )
    def test_spoilt_sidecar_falls_back_to_the_stream(self, tmp_path, decode_counter, spoil):
        run_dir, _ = run(setup_suite(worker_bench(name="keep")), POOL1, tmp_path, check_setup=False)
        want = _stream_folds(run_dir, "keep")
        spoil(run_dir / "keep" / "0.fold")
        decode_counter.clear()
        got = _loaded_logs(run_dir, "keep")
        assert decode_counter != []
        assert [_fields(g) for g in got] == [_fields(w) for w in want]

