"""Measurement-loop tests: budgets, deferred flushing, determinism."""

import argparse
import gc
import hashlib
import random

import pytest

from benchforge.protocol import ObservationLog
from benchforge.worker import (
    EpochBuffer,
    EventSink,
    TimerConfig,
    WorkloadSpec,
    flush_epoch,
    SyntheticWorkload,
    main,
    timed_iterate,
)


def run_workload(spec: WorkloadSpec, cfg: TimerConfig, seed: int = 0):
    sink = EventSink()
    log = timed_iterate(spec, cfg, sink, seed=seed)
    return log, sink.events


class TestBudget:
    def test_constant_workload_exact_budget(self):
        spec = WorkloadSpec(kind="constant", batch_size=32, base_rate=64.0)
        log, _ = run_workload(spec, TimerConfig(obs_min=30, obs_max=60))
        assert log.terminal == "success"
        assert len(log.observations) == 60
        for obs in log.observations:
            assert obs.rate == pytest.approx(64.0, rel=1e-9)

    def test_stop_mid_third_epoch_with_epoch_25(self):
        spec = WorkloadSpec(kind="constant", batches_per_epoch=25)
        behavior = SyntheticWorkload(spec, seed=0)
        log = timed_iterate(behavior, TimerConfig(obs_min=30, obs_max=60))
        assert log.terminal == "success"
        assert len(log.observations) == 60
        # Budget check fires before the 61st batch would start.
        assert behavior.batches_started == 60

    def test_epochs_exhausted_between_min_and_max_is_success(self):
        spec = WorkloadSpec(kind="constant", batches_per_epoch=7)
        log, _ = run_workload(spec, TimerConfig(obs_min=10, obs_max=60, epochs_max=2))
        assert log.terminal == "success"
        assert len(log.observations) == 14

    def test_insufficient_observations_is_an_error(self):
        spec = WorkloadSpec(kind="constant", batches_per_epoch=3)
        log, events = run_workload(spec, TimerConfig(obs_min=30, obs_max=60, epochs_max=2))
        assert log.terminal == "error"
        assert log.message == "insufficient observations"
        assert len(log.observations) == 6
        assert any(e.event == "error" for e in events)

    def test_crash_keeps_observations_gathered_so_far(self):
        spec = WorkloadSpec(kind="crashing", crash_after=10)
        log, events = run_workload(spec, TimerConfig(obs_min=30, obs_max=60))
        assert log.terminal == "error"
        assert len(log.observations) == 10
        kinds = [e.event for e in events]
        assert kinds[-2:] == ["error", "end"]


class TestFlush:
    def test_three_tuples_constant_rate(self):
        buf = EpochBuffer()
        for i in range(3):
            buf.record(i * 0.5, (i + 1) * 0.5, 32, None)
        observations = flush_epoch(buf)
        assert [o.rate for o in observations] == [64.0, 64.0, 64.0]
        assert buf.pending == []

    def test_empty_buffer(self):
        sink = EventSink()
        assert flush_epoch(EpochBuffer(), sink) == []
        assert sink.events == []

    def test_randomized_tuples_match_recomputation(self):
        rng = random.Random(11)
        buf = EpochBuffer()
        expected = []
        t = 0.0
        for _ in range(200):
            elapsed = rng.uniform(1e-4, 3.0)
            work = rng.randint(1, 512)
            buf.record(t, t + elapsed, work, None)
            expected.append(work / elapsed)  # independent recomputation
            t += elapsed
        observations = flush_epoch(buf)
        assert len(observations) == 200
        for obs, want in zip(observations, expected):
            assert obs.rate == pytest.approx(want, rel=1e-12)

    def test_backwards_stamps_dropped_and_counted(self):
        buf = EpochBuffer()
        buf.record(0.0, 1.0, 10, None)
        buf.record(2.0, 1.5, 10, None)  # end before start: measurement fault
        buf.record(3.0, 3.0, 10, None)  # zero elapsed: also invalid
        observations = flush_epoch(buf)
        assert len(observations) == 1
        assert buf.faults == 2

    def test_emits_one_rate_line_per_observation(self):
        buf = EpochBuffer()
        buf.record(0.0, 0.5, 32, 1.5)
        buf.record(0.5, 1.0, 32, 1.4)
        sink = EventSink()
        flush_epoch(buf, sink, units="images", time=2.0)
        rates = [e for e in sink.events if e.event == "rate"]
        losses = [e for e in sink.events if e.event == "loss"]
        assert len(rates) == 2
        assert len(losses) == 2
        assert rates[0].data["warmup"] is True
        assert "warmup" not in rates[1].data
        assert all(e.time == 2.0 for e in sink.events)


class TestDeferredEmission:
    def test_no_rate_line_between_batch_start_and_flush(self):
        spec = WorkloadSpec(kind="jitter", jitter_frac=0.2, batches_per_epoch=13)
        _, events = run_workload(spec, TimerConfig(obs_min=30, obs_max=60), seed=5)
        flush_time = None
        for event in events:
            if event.event == "phase" and event.data.get("phase") == "flush":
                flush_time = event.time
            elif event.event == "rate":
                assert flush_time is not None, "rate line before any flush marker"
                # Emitted at the flush, after the batch window closed.
                assert event.time >= flush_time
                assert event.data["t1"] <= event.time
                assert event.data["t0"] < event.data["t1"]

    def test_rate_lines_only_after_epoch_marker_in_stream_order(self):
        spec = WorkloadSpec(kind="constant", batches_per_epoch=10)
        _, events = run_workload(spec, TimerConfig(obs_min=5, obs_max=25))
        open_epoch = False
        for event in events:
            if event.event == "phase":
                open_epoch = True
            elif event.event == "progress":
                open_epoch = False
            elif event.event in ("rate", "loss"):
                assert open_epoch, "metric line emitted outside a flush window"


class TestDeterminism:
    def test_identical_streams_for_identical_inputs(self):
        spec = WorkloadSpec(kind="jitter", jitter_frac=0.3)
        cfg = TimerConfig()
        log_a, events_a = run_workload(spec, cfg, seed=7)
        log_b, events_b = run_workload(spec, cfg, seed=7)
        assert events_a == events_b
        assert log_a.observations == log_b.observations

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(kind="jitter", jitter_frac=0.3)
        _, events_a = run_workload(spec, TimerConfig(), seed=1)
        _, events_b = run_workload(spec, TimerConfig(), seed=2)
        assert events_a != events_b

    def test_jitter_mean_rate_matches_generators_own_delays(self):
        # Oracle: replay the generator's sampled delays independently.
        spec = WorkloadSpec(kind="jitter", batch_size=32, base_rate=64.0, jitter_frac=0.1)
        behavior = SyntheticWorkload(spec, seed=123)
        log = timed_iterate(behavior, TimerConfig(obs_min=30, obs_max=60))

        replay = SyntheticWorkload(spec, seed=123)
        sampled = []
        for epoch in range(10):
            for work, elapsed, _ in replay.epoch_batches(epoch):
                sampled.append(work / elapsed)
                if len(sampled) == 60:
                    break
            if len(sampled) == 60:
                break
        observed = [o.rate for o in log.observations]
        assert observed == pytest.approx(sampled, rel=1e-12)
        mean = sum(observed) / len(observed)
        assert abs(mean - 64.0) / 64.0 < 0.02

    def test_degrading_slows_linearly(self):
        spec = WorkloadSpec(kind="degrading", jitter_frac=0.05, batch_size=10, base_rate=10.0)
        log, _ = run_workload(spec, TimerConfig(obs_min=5, obs_max=20))
        rates = [o.rate for o in log.observations]
        assert rates == sorted(rates, reverse=True)
        assert rates[0] == pytest.approx(10.0)
        assert rates[10] == pytest.approx(10.0 / 1.5)


class TestMultiworker:
    def test_distinct_tasks_with_monotone_times(self):
        spec = WorkloadSpec(kind="multiworker", workers=4)
        log, events = run_workload(spec, TimerConfig(obs_min=10, obs_max=20), seed=3)
        assert log.terminal == "success"
        tasks = {o.task for o in log.observations}
        assert tasks == {f"worker-{i}" for i in range(4)}
        for worker in tasks:
            times = [e.time for e in events if e.task == worker]
            assert times == sorted(times)
        # Each worker keeps its own budget.
        for worker in tasks:
            count = sum(1 for o in log.observations if o.task == worker)
            assert 10 <= count <= 20

    def test_terminal_events_emitted_once_per_process(self):
        spec = WorkloadSpec(kind="multiworker", workers=3)
        _, events = run_workload(spec, TimerConfig(obs_min=5, obs_max=10))
        assert sum(1 for e in events if e.event == "success") == 1
        assert sum(1 for e in events if e.event == "error") == 0
        assert sum(1 for e in events if e.event == "end") == 1

    def test_multiworker_determinism(self):
        spec = WorkloadSpec(kind="multiworker", workers=4, jitter_frac=0.2)
        cfg = TimerConfig(obs_min=10, obs_max=20)
        _, a = run_workload(spec, cfg, seed=9)
        _, b = run_workload(spec, cfg, seed=9)
        assert a == b


class TestInvariants:
    def test_work_accounting_bound(self):
        rng = random.Random(1)
        for _ in range(50):
            spec = WorkloadSpec(
                kind=rng.choice(["constant", "jitter"]),
                batch_size=rng.randint(1, 64),
                base_rate=rng.uniform(1, 1000),
                jitter_frac=rng.uniform(0, 0.5) if rng.random() < 0.5 else 0.0,
                batches_per_epoch=rng.randint(1, 40),
            )
            cfg = TimerConfig(obs_min=1, obs_max=rng.randint(1, 80), epochs_max=rng.randint(1, 6))
            log, events = run_workload(spec, cfg, seed=rng.randint(0, 999))
            epochs_started = sum(
                1 for e in events if e.event == "phase" and e.data.get("phase") == "flush"
            )
            total_work = sum(o.work for o in log.observations)
            assert total_work <= spec.batch_size * spec.batches_per_epoch * epochs_started

    def test_warmup_flag_on_first_observation_only(self):
        spec = WorkloadSpec(kind="constant", batches_per_epoch=10)
        log, _ = run_workload(spec, TimerConfig(obs_min=5, obs_max=25))
        assert log.observations[0].warmup
        assert not any(o.warmup for o in log.observations[1:])

    def test_success_terminal_requires_obs_min(self):
        # terminal=success implies the log met the configured minimum
        for batches in (3, 10, 30):
            spec = WorkloadSpec(kind="constant", batches_per_epoch=batches)
            cfg = TimerConfig(obs_min=12, obs_max=40, epochs_max=2)
            log, _ = run_workload(spec, cfg)
            if log.terminal == "success":
                assert len(log.observations) >= 12


class TestValidation:
    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="mystery")
        with pytest.raises(ValueError):
            WorkloadSpec(base_rate=0)
        with pytest.raises(ValueError):
            WorkloadSpec(jitter_frac=1.0)

    def test_bad_timer_rejected(self):
        with pytest.raises(ValueError):
            TimerConfig(obs_min=10, obs_max=5)
        with pytest.raises(ValueError):
            TimerConfig(epochs_max=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_rate", float("nan")),
            ("base_rate", float("inf")),
            ("sleep_per_batch", float("nan")),
            ("sleep_per_batch", float("inf")),
            ("sleep_per_batch", -0.5),
        ],
    )
    def test_non_finite_or_negative_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            WorkloadSpec(**{field: value})

    @pytest.mark.parametrize(
        "argv", [["--rate", "nan"], ["--rate", "inf"], ["--sleep-per-batch", "inf"], ["--sleep-per-batch", "-1"]]
    )
    def test_cli_refuses_bad_numbers_with_exit_code_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("benchforge-worker: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rate", "1e-320"],  # the first batch alone lasts inf virtual seconds
            ["--rate", "1e-306"],  # the clock overflows after a few batches
            # Only the degrading slowdown makes this run's clock overflow.
            ["--kind", "degrading", "--jitter", "0.9", "--rate", "3.2e-304", "--obs-max", "250"],
        ],
    )
    def test_cli_refuses_rates_that_overflow_the_virtual_clock(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("benchforge-worker: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "variable, value", [("BENCHFORGE_OBS_MIN", "x"), ("BENCHFORGE_OBS_MAX", "4.5"), ("BENCHFORGE_OBS_MAX", "")]
    )
    def test_cli_refuses_non_integer_budget_variables(self, variable, value, monkeypatch, capsys):
        monkeypatch.setenv(variable, value)
        assert main([]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"benchforge-worker: {variable} must be an integer, got {value!r}\n"
        assert captured.out == ""

    def test_smallest_rate_that_fits_still_runs(self, capsys):
        # 250 batches of 32 items last 8e306 virtual seconds: large, but finite.
        assert main(["--rate", "1e-303"]) == 0
        assert capsys.readouterr().err == ""


def rate_lines(text: str) -> int:
    return text.count('"event":"rate"')


class TestBudgetFromEnvironment:
    def test_variables_set_the_defaults(self, monkeypatch, capsys):
        monkeypatch.setenv("BENCHFORGE_OBS_MIN", "5")
        monkeypatch.setenv("BENCHFORGE_OBS_MAX", "12")
        assert main([]) == 0
        assert rate_lines(capsys.readouterr().out) == 12

    def test_flags_win_over_variables(self, monkeypatch, capsys):
        monkeypatch.setenv("BENCHFORGE_OBS_MIN", "5")
        monkeypatch.setenv("BENCHFORGE_OBS_MAX", "12")
        assert main(["--obs-max", "8"]) == 0
        assert rate_lines(capsys.readouterr().out) == 8

    def test_a_flag_makes_its_variable_unread(self, monkeypatch, capsys):
        monkeypatch.setenv("BENCHFORGE_OBS_MAX", "x")
        assert main(["--obs-max", "40"]) == 0
        assert rate_lines(capsys.readouterr().out) == 40

    def test_without_variables_the_budget_is_30_to_60(self, monkeypatch, capsys):
        monkeypatch.delenv("BENCHFORGE_OBS_MIN", raising=False)
        monkeypatch.delenv("BENCHFORGE_OBS_MAX", raising=False)
        assert main([]) == 0
        assert rate_lines(capsys.readouterr().out) == 60


# Each argv, its exit code and the sha256 of the stream it writes. The digests pin the
# worker's bytes: any change to the loop, the flush or the encoding shows here.
STREAM_PINS = [
    ([], 0, "75c68bb5765ae76af0129b2a95305ad4390324bafc0c7c9f93f2e562481c37c5"),
    (["--kind", "jitter", "--jitter", "0.25", "--seed", "7"], 0,
     "9a10ccdaf8b2f9b49df4ee258154f45e6e4002e3688d6a2744bc8519df0b808f"),
    (["--kind", "degrading", "--jitter", "0.05", "--batch", "10", "--rate", "10", "--obs-min", "5", "--obs-max", "20"],
     0, "0ccd64125d870d8ee5d568f353535a84a2c99d437e2b56adbf1d139ae68005ab"),
    (["--kind", "crashing", "--crash-after", "37", "--batches-per-epoch", "10"], 1,
     "5810d4bdcd2d05e0ccb6490a945e9a5e0273ef169d92cef805d63653b597656d"),
    (["--kind", "crashing", "--crash-after", "0"], 1,
     "a6e3e2298ebec14cb84e41a6f7789909d56777de76fd9a0287c38a280a4de600"),
    (["--crash-after", "12", "--batches-per-epoch", "5"], 1,
     "70ccf63b73f74732e15c9c4ef3da9eac87ec4e4dbd04f2e4a540240bde827db9"),
    (["--kind", "multiworker", "--workers", "3", "--jitter", "0.2", "--obs-min", "10", "--obs-max", "20", "--seed", "9"],
     0, "f073db63cdd82253a7ccb52cca66ad2b4c39f3b360889f7682c5adf8b1d31747"),
    (["--kind", "multiworker", "--workers", "2", "--crash-after", "4", "--obs-min", "3", "--obs-max", "8"], 1,
     "8fed0772d9e23b0c748fcace4807141d0bb1ea83f1dc315dac6e34343a909191"),
    # Epochs run out between obs_min and obs_max.
    (["--batches-per-epoch", "7", "--epochs-max", "2", "--obs-min", "10"], 0,
     "3488b65c2c8a24a65a7923b486071dd5bf319c9e67cd46ab7324aa32f70a25a8"),
    # Epochs run out below obs_min.
    (["--batches-per-epoch", "3", "--epochs-max", "2"], 2,
     "235991c240fa4daf705ac5f29a4915c7196e7cb1e8b2dbf3434025b262dea362"),
    (["--kind", "jitter", "--jitter", "0.1", "--task", "eval", "--units", "tokens", "--batch", "128", "--rate", "5000.5"],
     0, "0aa22168bd6bf7aafd64e8a75bd88fe6bef84b1dc9d1ca9e37e795d5c31684bb"),
    (["--obs-min", "1", "--obs-max", "1"], 0, "1105000f0d37dc75e944e800e5d1f5a7dc7bfce1a3c1faa3aa3115905e1cb39d"),
]


@pytest.mark.parametrize("argv, code, digest", STREAM_PINS, ids=[" ".join(a) or "defaults" for a, _, _ in STREAM_PINS])
def test_stream_bytes_are_pinned(argv, code, digest, monkeypatch, capsys):
    for variable in ("BENCHFORGE_OBS_MIN", "BENCHFORGE_OBS_MAX", "BENCHFORGE_METRICS_FD"):
        monkeypatch.delenv(variable, raising=False)
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_main_freezes_the_heap_before_parsing_arguments(monkeypatch, capsys):
    calls = []
    parse_args = argparse.ArgumentParser.parse_args

    def parse_spy(self, *args, **kwargs):
        calls.append("parse_args")
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_spy)
    monkeypatch.delenv("BENCHFORGE_METRICS_FD", raising=False)
    assert main(["--obs-min", "1", "--obs-max", "1"]) == 0
    assert calls == ["freeze", "parse_args"]
