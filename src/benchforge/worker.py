"""Reference measurement loop over synthetic workloads.

Timing stamps are captured back-to-back inside the hot loop with almost
no overhead; rates are computed and logged only when the epoch's stamps
are flushed, so instrumentation never perturbs the measured region. A
virtual clock stands in for device timelines: identical (spec, seed,
config) produce byte-identical metric streams.

Also the ``benchforge-worker`` CLI, the process the executor supervises.
"""

from __future__ import annotations

import gc
import getopt
import math
import os
import random
import sys
import time as _time
from typing import Callable, NamedTuple, TextIO

from . import _Checked
from .events import MetricEvent, encode_event

WORKLOAD_KINDS = ("constant", "jitter", "degrading", "crashing", "multiworker")


class WorkloadCrash(Exception):
    """Deliberate failure of a crashing workload."""


class _TimerConfigFields(NamedTuple):
    obs_min: int = 30
    obs_max: int = 60
    epochs_max: int = 10


class TimerConfig(_Checked, _TimerConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        if not 0 < cfg.obs_min <= cfg.obs_max:
            raise ValueError(f"need 0 < obs_min <= obs_max, got {cfg.obs_min}, {cfg.obs_max}")
        if cfg.epochs_max <= 0:
            raise ValueError("epochs_max must be positive")
        return cfg


class _WorkloadSpecFields(NamedTuple):
    kind: str = "constant"
    batch_size: int = 32
    base_rate: float = 64.0
    jitter_frac: float = 0.0
    crash_after: int | None = None
    workers: int = 1
    batches_per_epoch: int = 25
    units: str = "items"
    sleep_per_batch: float = 0.0


class WorkloadSpec(_Checked, _WorkloadSpecFields):
    """Shape of a synthetic workload.

    ``jitter_frac`` doubles as the per-batch slowdown slope for the
    degrading kind (batch k runs ``1 + k * jitter_frac`` times slower).
    ``sleep_per_batch`` is a real wall-clock stall, for timeout tests.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if spec.kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {spec.kind!r}")
        if spec.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0 < spec.base_rate < math.inf:
            raise ValueError("base_rate must be positive and finite")
        if not 0.0 <= spec.jitter_frac < 1.0:
            raise ValueError("jitter_frac must be in [0, 1)")
        if spec.crash_after is not None and spec.crash_after < 0:
            raise ValueError("crash_after must be >= 0")
        if spec.workers <= 0:
            raise ValueError("workers must be positive")
        if spec.batches_per_epoch <= 0:
            raise ValueError("batches_per_epoch must be positive")
        if not 0.0 <= spec.sleep_per_batch < math.inf:
            raise ValueError("sleep_per_batch must be >= 0 and finite")
        return spec


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


def flush_epoch(
    pending: list[tuple[float, float, float, float | None]],
    emit: Callable[[MetricEvent], None],
    *,
    time: float,
    task: str = "train",
    units: str = "items",
    emitted_before: int = 0,
) -> int:
    """Emit an epoch's pending tuples as metric lines, in order; return the rate lines emitted.

    One ``rate`` line per tuple, after a ``loss`` line when a loss was
    recorded, all stamped ``time``. A tuple whose end stamp does not lie
    after its start stamp is dropped. ``pending`` is empty afterwards.
    ``emitted_before`` counts the rate lines this process already emitted;
    the very first one is flagged as warmup.
    """
    emitted = 0
    for start, end, work, loss in pending:
        if end <= start:
            continue
        if loss is not None:
            emit(MetricEvent("loss", time, task, {"loss": loss}))
        payload = {
            "rate": work / (end - start),
            "units": units,
            "batch": work,
            "t0": start,
            "t1": end,
        }
        if emitted_before + emitted == 0:
            payload["warmup"] = True
        emit(MetricEvent("rate", time, task, payload))
        emitted += 1
    pending.clear()
    return emitted


def timed_iterate(
    workload: WorkloadSpec | SyntheticWorkload,
    cfg: TimerConfig,
    emit: Callable[[MetricEvent], None],
    *,
    seed: int = 0,
    task: str = "train",
) -> str | None:
    """Run the measurement loop over a synthetic workload, passing each event to ``emit``.

    Returns None on success, else the stream's error message; the loop
    keeps no fold of its own. On success the rate-line count lands in
    [obs_min, obs_max]; the budget check runs right after each batch is
    recorded, so the (obs_max + 1)-th batch is never started. Rate lines
    appear in the stream only at epoch flushes. The clock is a float of
    virtual seconds, advanced by each batch's sampled duration.
    """
    behavior = SyntheticWorkload(workload, seed) if isinstance(workload, WorkloadSpec) else workload
    spec = behavior.spec
    if spec.kind == "multiworker":
        return _iterate_multiworker(spec, cfg, emit, seed=behavior.seed)

    now = 0.0

    def emit_now(kind: str, data: dict) -> None:
        emit(MetricEvent(kind, now, task, data))

    emit_now("config", _spec_payload(spec, cfg, behavior.seed))
    emit_now("start", {})
    pending: list[tuple[float, float, float, float | None]] = []  # (start, end, work, loss) of this epoch
    recorded = 0  # batches recorded, before flush_epoch drops any faulty stamps
    emitted = 0  # rate lines emitted
    crash: str | None = None
    for epoch in range(cfg.epochs_max):
        try:
            for work, elapsed, loss in behavior.epoch_batches(epoch):
                start, now = now, now + elapsed
                pending.append((start, now, work, loss))
                recorded += 1
                # Budget check sits right after the batch is recorded,
                # before the next batch would start.
                if recorded >= cfg.obs_max:
                    break
        except WorkloadCrash as exc:
            crash = str(exc)
        emit_now("phase", {"phase": "flush", "epoch": epoch})
        emitted += flush_epoch(pending, emit, time=now, task=task, units=spec.units, emitted_before=emitted)
        emit_now("progress", {"observations": emitted, "budget": cfg.obs_max})
        if crash is not None:
            break
        if recorded >= cfg.obs_max:
            emit_now("stop", {"reason": "observation budget reached"})
            break

    message = crash
    if crash is not None:
        emit_now("error", {"message": crash})
    elif emitted >= cfg.obs_min:
        emit_now("success", {"observations": emitted})
    else:
        message = "insufficient observations"
        emit_now("error", {"message": message, "observations": emitted, "obs_min": cfg.obs_min})
    emit_now("end", {})
    return message


def _iterate_multiworker(
    spec: WorkloadSpec, cfg: TimerConfig, emit: Callable[[MetricEvent], None], *, seed: int
) -> str | None:
    """Simulate ``spec.workers`` concurrent emitters with distinct task ids.

    Each worker runs its own loop on its own virtual timeline; the merged
    stream interleaves events by virtual time, which keeps the whole run
    deterministic. Terminal events are emitted once, by the supervisor
    task, never by the workers. Returns the last failing worker's message.
    """
    single = spec._replace(kind="jitter" if spec.jitter_frac > 0 else "constant", workers=1)
    events: list[MetricEvent] = []
    message: str | None = None
    for w in range(spec.workers):
        failure = timed_iterate(single, cfg, events.append, seed=seed + 7919 * w, task=f"worker-{w}")
        message = failure if failure is not None else message
    # Workers never emit process-terminal events themselves.
    worker_events = sorted((e for e in events if e.event not in ("success", "error", "end")), key=lambda e: e.time)
    end_time = worker_events[-1].time if worker_events else 0.0
    emit(MetricEvent("config", 0.0, "main", _spec_payload(spec, cfg, seed)))
    for event in worker_events:
        emit(event)
    if message is None:
        observations = sum(1 for e in worker_events if e.event == "rate")
        emit(MetricEvent("success", end_time, "main", {"observations": observations}))
    else:
        emit(MetricEvent("error", end_time, "main", {"message": message}))
    emit(MetricEvent("end", end_time, "main", {}))
    return message


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
    payload = {k: v for k, v in spec._asdict().items() if k not in ("crash_after", "sleep_per_batch")}
    return {**payload, **cfg._asdict(), "seed": seed}


def _env_int(variable: str) -> int | None:
    """The integer the harness exported in ``variable``, or None when it is unset."""
    text = os.environ.get(variable)
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{variable} must be an integer, got {text!r}") from None


def _metrics_channel() -> TextIO:
    """The metric channel: the inherited file descriptor the harness exported, else stdout."""
    fd = _env_int("BENCHFORGE_METRICS_FD")
    if fd is None:
        return sys.stdout
    try:
        channel = os.fdopen(fd, "w", encoding="utf-8")
    except (OSError, TypeError, ValueError):  # ValueError for a negative number, TypeError beyond a C int
        raise ValueError(f"BENCHFORGE_METRICS_FD {fd} is not an open file descriptor") from None
    try:  # fdopen does not check the mode; writing nothing to a read-only descriptor fails with EBADF
        os.write(fd, b"")
    except OSError:
        raise ValueError(f"BENCHFORGE_METRICS_FD {fd} is not open for writing") from None
    return channel


# Each flag of the CLI, the field it sets and the type of its value. A flag left
# out leaves its field to the record's own default, except these two.
_FLAGS = {
    "kind": ("kind", str),
    "batch": ("batch_size", int),
    "rate": ("base_rate", float),
    "jitter": ("jitter_frac", float),
    "crash-after": ("crash_after", int),
    "workers": ("workers", int),
    "batches-per-epoch": ("batches_per_epoch", int),
    "units": ("units", str),
    "obs-min": ("obs_min", int),
    "obs-max": ("obs_max", int),
    "epochs-max": ("epochs_max", int),
    "seed": ("seed", int),
    "task": ("task", str),
    "sleep-per-batch": ("sleep_per_batch", float),
}
_OWN_DEFAULTS = {"seed": 0, "task": "train"}
_USAGE = "usage: benchforge-worker [-h] " + " ".join(
    f"[--{flag} {convert.__name__.upper()}]" for flag, (_, convert) in _FLAGS.items()
)


def _parse_args(argv: list[str]) -> dict | None:
    """The fields that ``argv`` sets, or None for ``-h``; a bad argument raises ValueError.

    Long flags take ``--flag value`` or ``--flag=value``, and a unique prefix
    of a flag stands for it. The last of a repeated flag wins.
    """
    try:
        opts, rest = getopt.getopt(argv, "h", ["help", *(f"{flag}=" for flag in _FLAGS)])
    except getopt.GetoptError as exc:
        raise ValueError(exc.msg) from None
    if rest:
        raise ValueError(f"unexpected argument {rest[0]!r}")
    given = dict(_OWN_DEFAULTS)
    for opt, text in opts:
        if opt in ("-h", "--help"):
            return None
        field, convert = _FLAGS[opt[2:]]
        try:
            given[field] = convert(text)
        except ValueError:
            raise ValueError(f"{opt}: invalid {convert.__name__} value {text!r}") from None
    return given


def main(argv: list[str] | None = None) -> int:
    # The imported modules live as long as the process: keep the collector from walking them again.
    gc.freeze()
    try:
        given = _parse_args(sys.argv[1:] if argv is None else argv)
        if given is None:
            print(_USAGE)
            return 0
        spec = WorkloadSpec(**{k: v for k, v in given.items() if k in WorkloadSpec._fields})
        for field in ("obs_min", "obs_max"):
            if field not in given and (value := _env_int(f"BENCHFORGE_{field.upper()}")) is not None:
                given[field] = value
        cfg = TimerConfig(**{k: v for k, v in given.items() if k in TimerConfig._fields})
        _check_virtual_time(spec, cfg)
        channel = _metrics_channel()
    except ValueError as exc:
        print(f"benchforge-worker: {exc}", file=sys.stderr)
        return 2

    def emit(event: MetricEvent) -> None:
        # Flushed per line: the harness folds the stream live, and a killed worker loses no line it emitted.
        channel.write(encode_event(event))
        channel.flush()

    try:
        message = timed_iterate(spec, cfg, emit, seed=given["seed"], task=given["task"])
    finally:
        if channel is not sys.stdout:
            channel.close()

    if message is None:
        return 0
    return 2 if message == "insufficient observations" else 1


if __name__ == "__main__":
    sys.exit(main())
