"""Reference measurement loop over synthetic workloads.

Timing stamps are captured back-to-back inside the hot loop with almost
no overhead; rates are computed and logged only when the epoch buffer is
flushed, so instrumentation never perturbs the measured region. A virtual
clock stands in for device timelines: identical (spec, seed, config)
produce byte-identical metric streams.

Also the ``benchforge-worker`` CLI, the process the executor supervises.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
import time as _time
from typing import NamedTuple

from .protocol import MetricEvent, Observation, ObservationLog, encode_event

WORKLOAD_KINDS = ("constant", "jitter", "degrading", "crashing", "multiworker")


class WorkloadCrash(Exception):
    """Deliberate failure of a crashing workload."""


class _TimerConfigFields(NamedTuple):
    obs_min: int
    obs_max: int
    epochs_max: int


class TimerConfig(_TimerConfigFields):
    __slots__ = ()

    def __new__(cls, obs_min: int = 30, obs_max: int = 60, epochs_max: int = 10):
        if not 0 < obs_min <= obs_max:
            raise ValueError(f"need 0 < obs_min <= obs_max, got {obs_min}, {obs_max}")
        if epochs_max <= 0:
            raise ValueError("epochs_max must be positive")
        return super().__new__(cls, obs_min, obs_max, epochs_max)


class _WorkloadSpecFields(NamedTuple):
    kind: str
    batch_size: int
    base_rate: float
    jitter_frac: float
    crash_after: int | None
    workers: int
    batches_per_epoch: int
    units: str
    sleep_per_batch: float


class WorkloadSpec(_WorkloadSpecFields):
    """Shape of a synthetic workload.

    ``jitter_frac`` doubles as the per-batch slowdown slope for the
    degrading kind (batch k runs ``1 + k * jitter_frac`` times slower).
    ``sleep_per_batch`` is a real wall-clock stall, for timeout tests.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str = "constant",
        batch_size: int = 32,
        base_rate: float = 64.0,
        jitter_frac: float = 0.0,
        crash_after: int | None = None,
        workers: int = 1,
        batches_per_epoch: int = 25,
        units: str = "items",
        sleep_per_batch: float = 0.0,
    ):
        if kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {kind!r}")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0 < base_rate < math.inf:
            raise ValueError("base_rate must be positive and finite")
        if not 0.0 <= jitter_frac < 1.0:
            raise ValueError("jitter_frac must be in [0, 1)")
        if crash_after is not None and crash_after < 0:
            raise ValueError("crash_after must be >= 0")
        if workers <= 0:
            raise ValueError("workers must be positive")
        if batches_per_epoch <= 0:
            raise ValueError("batches_per_epoch must be positive")
        if not 0.0 <= sleep_per_batch < math.inf:
            raise ValueError("sleep_per_batch must be >= 0 and finite")
        return super().__new__(
            cls, kind, batch_size, base_rate, jitter_frac, crash_after, workers,
            batches_per_epoch, units, sleep_per_batch,
        )


class EventSink:
    """Collects emitted events; subclasses forward them somewhere real."""

    def __init__(self) -> None:
        self.events: list[MetricEvent] = []

    def emit(self, event: MetricEvent) -> None:
        self.events.append(event)


class LineSink(EventSink):
    """Writes each event as one protocol line, and keeps none. Writes are line-atomic."""

    def __init__(self, fp) -> None:
        self._fp = fp

    def emit(self, event: MetricEvent) -> None:
        self._fp.write(encode_event(event))
        self._fp.flush()


class SyntheticWorkload:
    """Deterministic batch stream for one worker.

    Each produced batch is a (work, elapsed, loss) triple; ``elapsed`` is
    the true virtual duration of the batch, sampled per the spec kind.
    ``batches_started`` counts batches actually handed to the caller.
    Deterministic given (spec, seed): running it twice yields identical
    batch sequences, hence identical metric streams.
    """

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.batches_started = 0
        self._rng = random.Random(seed)
        self._base_elapsed = spec.batch_size / spec.base_rate

    def epoch_batches(self, epoch: int):
        spec = self.spec
        for _ in range(spec.batches_per_epoch):
            if spec.crash_after is not None and self.batches_started >= spec.crash_after:
                raise WorkloadCrash(
                    f"workload crashed after {spec.crash_after} batches"
                )
            k = self.batches_started
            if spec.kind == "jitter":
                elapsed = self._base_elapsed * (
                    1.0 + self._rng.uniform(-spec.jitter_frac, spec.jitter_frac)
                )
            elif spec.kind == "degrading":
                elapsed = self._base_elapsed * (1.0 + k * spec.jitter_frac)
            else:
                elapsed = self._base_elapsed
            loss = 2.0 * (0.97**k)
            if spec.sleep_per_batch > 0:
                _time.sleep(spec.sleep_per_batch)
            self.batches_started += 1
            yield spec.batch_size, elapsed, loss


class EpochBuffer:
    """Timing tuples recorded during an epoch, not yet resolved.

    Nothing is logged while ``pending`` grows; tuples are resolved into
    observations (and metric lines) only by ``flush_epoch``.
    """

    def __init__(self) -> None:
        self.pending: list[tuple[float, float, float, float | None]] = []
        self.faults = 0

    def record(self, start: float, end: float, work: float, loss: float | None) -> None:
        self.pending.append((start, end, work, loss))


def flush_epoch(
    buf: EpochBuffer,
    sink: EventSink | None = None,
    *,
    task: str = "train",
    units: str = "items",
    time: float | None = None,
    emitted_before: int = 0,
) -> list[Observation]:
    """Resolve an epoch's pending tuples into observations, in order.

    Emits one ``rate`` line (and one ``loss`` line when a loss was
    recorded) per observation. Tuples whose end stamp does not lie after
    their start stamp are dropped and counted on ``buf.faults``. The
    buffer is empty afterwards.

    ``emitted_before`` is the number of observations this process already
    flushed; the very first one is flagged as warmup.
    """
    observations: list[Observation] = []
    pending, buf.pending = buf.pending, []
    stamp = time if time is not None else (pending[-1][1] if pending else 0.0)
    for start, end, work, loss in pending:
        if end <= start:
            buf.faults += 1
            continue
        warmup = emitted_before + len(observations) == 0
        obs = Observation(work=work, elapsed=end - start, warmup=warmup, task=task)
        observations.append(obs)
        if sink is None:
            continue
        if loss is not None:
            sink.emit(MetricEvent("loss", stamp, task, {"loss": loss}))
        payload = {
            "rate": obs.rate,
            "units": units,
            "batch": work,
            "t0": start,
            "t1": end,
        }
        if warmup:
            payload["warmup"] = True
        sink.emit(MetricEvent("rate", stamp, task, payload))
    return observations


def timed_iterate(
    workload: WorkloadSpec | SyntheticWorkload,
    cfg: TimerConfig,
    sink: EventSink | None = None,
    *,
    seed: int = 0,
    task: str = "train",
) -> ObservationLog:
    """Run the measurement loop over a synthetic workload.

    On success the observation count lands in [obs_min, obs_max]; the
    budget check runs right after each batch is recorded, so the
    (obs_max + 1)-th batch is never started. Rate lines appear in the
    stream only at epoch flushes. The clock is a float of virtual
    seconds, advanced by each batch's sampled duration.
    """
    behavior = SyntheticWorkload(workload, seed) if isinstance(workload, WorkloadSpec) else workload
    spec = behavior.spec
    if spec.kind == "multiworker":
        return _iterate_multiworker(spec, cfg, sink, seed=behavior.seed)

    sink = sink if sink is not None else EventSink()
    log = ObservationLog(process_id=task)
    now = 0.0

    def emit(kind: str, data: dict) -> None:
        sink.emit(MetricEvent(kind, now, task, data))

    emit("config", _spec_payload(spec, cfg, behavior.seed))
    emit("start", {})
    recorded = 0  # batches recorded, before flush_epoch drops any faulty stamps
    crash: str | None = None
    for epoch in range(cfg.epochs_max):
        buf = EpochBuffer()
        try:
            for work, elapsed, loss in behavior.epoch_batches(epoch):
                start, now = now, now + elapsed
                buf.record(start, now, work, loss)
                recorded += 1
                # Budget check sits right after the batch is recorded,
                # before the next batch would start.
                if recorded >= cfg.obs_max:
                    break
        except WorkloadCrash as exc:
            crash = str(exc)
        emit("phase", {"phase": "flush", "epoch": epoch})
        log.observations.extend(
            flush_epoch(buf, sink, task=task, units=spec.units, time=now, emitted_before=len(log.observations))
        )
        log.faults += buf.faults
        emit("progress", {"observations": len(log.observations), "budget": cfg.obs_max})
        if crash is not None:
            break
        if recorded >= cfg.obs_max:
            emit("stop", {"reason": "observation budget reached"})
            break

    if crash is not None:
        log.message = crash
        emit("error", {"message": crash})
    elif len(log.observations) >= cfg.obs_min:
        log.terminal = "success"
        emit("success", {"observations": len(log.observations)})
    else:
        log.message = "insufficient observations"
        emit(
            "error",
            {
                "message": "insufficient observations",
                "observations": len(log.observations),
                "obs_min": cfg.obs_min,
            },
        )
    emit("end", {})
    return log


def _iterate_multiworker(
    spec: WorkloadSpec, cfg: TimerConfig, sink: EventSink | None, *, seed: int
) -> ObservationLog:
    """Simulate ``spec.workers`` concurrent emitters with distinct task ids.

    Each worker runs its own loop on its own virtual timeline; the merged
    stream interleaves events by virtual time, which keeps the whole run
    deterministic. Terminal events are emitted once, by the supervisor
    task, never by the workers.
    """
    single = spec._replace(kind="jitter" if spec.jitter_frac > 0 else "constant", workers=1)
    merged = ObservationLog(process_id="main")
    worker_events: list[MetricEvent] = []
    all_ok = True
    for w in range(spec.workers):
        capture = EventSink()
        wlog = timed_iterate(
            single, cfg, capture, seed=seed + 7919 * w, task=f"worker-{w}"
        )
        # Workers never emit process-terminal events themselves.
        worker_events.extend(
            e for e in capture.events if e.event not in ("success", "error", "end")
        )
        merged.observations.extend(wlog.observations)
        merged.faults += wlog.faults
        if wlog.terminal != "success":
            all_ok = False
            merged.message = wlog.message or merged.message
    worker_events.sort(key=lambda e: e.time)

    out = sink if sink is not None else EventSink()
    end_time = worker_events[-1].time if worker_events else 0.0
    out.emit(MetricEvent("config", 0.0, "main", _spec_payload(spec, cfg, seed)))
    for event in worker_events:
        out.emit(event)
    if all_ok:
        merged.terminal = "success"
        out.emit(
            MetricEvent("success", end_time, "main", {"observations": len(merged.observations)})
        )
    else:
        merged.terminal = "error"
        out.emit(MetricEvent("error", end_time, "main", {"message": merged.message or "worker failed"}))
    out.emit(MetricEvent("end", end_time, "main", {}))
    return merged


def _check_virtual_time(spec: WorkloadSpec, cfg: TimerConfig) -> None:
    """Refuse a run whose virtual clock could overflow.

    The bound is the slowest batch (jitter and the degrading slope
    included) times the most batches the run may start. Half the float
    range leaves room for the rounding of the clock's running sum.
    """
    batches = spec.batches_per_epoch * cfg.epochs_max
    slowdown = 1.0 + spec.jitter_frac * (batches - 1 if spec.kind == "degrading" else 1)
    if not spec.batch_size / spec.base_rate * slowdown * batches < sys.float_info.max / 2:
        raise ValueError(
            f"base_rate {spec.base_rate} is too small: {batches} batches of {spec.batch_size} "
            "would overflow the virtual clock"
        )


def _spec_payload(spec: WorkloadSpec, cfg: TimerConfig, seed: int) -> dict:
    return {
        "kind": spec.kind,
        "batch_size": spec.batch_size,
        "base_rate": spec.base_rate,
        "jitter_frac": spec.jitter_frac,
        "workers": spec.workers,
        "batches_per_epoch": spec.batches_per_epoch,
        "units": spec.units,
        "obs_min": cfg.obs_min,
        "obs_max": cfg.obs_max,
        "epochs_max": cfg.epochs_max,
        "seed": seed,
    }


def _open_metric_channel():
    """Resolve the metric channel from BENCHFORGE_METRICS_FD.

    The variable may name an inherited file descriptor (integer) or a
    filesystem path; when unset, lines go to stdout.
    """
    target = os.environ.get("BENCHFORGE_METRICS_FD")
    if not target:
        return sys.stdout
    try:
        fd = int(target)
    except ValueError:
        return open(target, "w", encoding="utf-8")
    return os.fdopen(fd, "w", encoding="utf-8")


def _env_default(flag: int | None, variable: str, default: int) -> int:
    """An explicit flag, else the integer the harness exported in ``variable``, else ``default``."""
    if flag is not None:
        return flag
    text = os.environ.get(variable)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{variable} must be an integer, got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchforge-worker",
        description="Synthetic benchmark worker speaking the metric protocol.",
    )
    parser.add_argument("--kind", choices=WORKLOAD_KINDS, default="constant")
    parser.add_argument("--batch", type=int, default=32, help="work items per batch")
    parser.add_argument("--rate", type=float, default=64.0, help="true units of work per second")
    parser.add_argument("--jitter", type=float, default=0.0, help="uniform jitter fraction")
    parser.add_argument("--crash-after", type=int, default=None, metavar="N")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--batches-per-epoch", type=int, default=25)
    parser.add_argument("--units", default="items")
    parser.add_argument("--obs-min", type=int, default=None, help="default: $BENCHFORGE_OBS_MIN, else 30")
    parser.add_argument("--obs-max", type=int, default=None, help="default: $BENCHFORGE_OBS_MAX, else 60")
    parser.add_argument("--epochs-max", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--task", default="train")
    parser.add_argument(
        "--sleep-per-batch",
        type=float,
        default=0.0,
        help="real seconds to stall per batch (timeout testing)",
    )
    args = parser.parse_args(argv)

    try:
        spec = WorkloadSpec(
            kind=args.kind,
            batch_size=args.batch,
            base_rate=args.rate,
            jitter_frac=args.jitter,
            crash_after=args.crash_after,
            workers=args.workers,
            batches_per_epoch=args.batches_per_epoch,
            units=args.units,
            sleep_per_batch=args.sleep_per_batch,
        )
        cfg = TimerConfig(
            obs_min=_env_default(args.obs_min, "BENCHFORGE_OBS_MIN", 30),
            obs_max=_env_default(args.obs_max, "BENCHFORGE_OBS_MAX", 60),
            epochs_max=args.epochs_max,
        )
        _check_virtual_time(spec, cfg)
    except ValueError as exc:
        print(f"benchforge-worker: {exc}", file=sys.stderr)
        return 2

    channel = _open_metric_channel()
    try:
        log = timed_iterate(spec, cfg, LineSink(channel), seed=args.seed, task=args.task)
    finally:
        if channel is not sys.stdout:
            channel.close()

    if log.terminal == "success":
        return 0
    if log.message == "insufficient observations":
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
