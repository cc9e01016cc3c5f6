"""Four-phase suite execution: install, prepare, run, report inputs.

Benchmarks execute sequentially in suite order so results stay
uncontaminated; the processes of one benchmark run concurrently across
the declared device pool. Every child gets a dedicated metric channel
(a pipe named via BENCHFORGE_METRICS_FD); stderr passes through
untouched. One select loop per benchmark, in the calling thread, reads
every child's pipe and watches each child's exit and timeout, then kills
that child's whole process group; ``supervise`` is its one-child case.

Run layout: ``<base>/runs/<stamp>/<bench>/<rank>.jsonl`` plus
``meta.json``, ``suite.yaml``, per-benchmark ``outcomes.json`` and, next
to each stream, the ``<rank>.fold`` sidecar that lets ``load_run`` skip
decoding it again.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Iterable, NamedTuple

from .protocol import (
    CHUNK_BYTES,
    TERMINAL_KINDS,
    ObservationLog,
    Rejection,
    StreamDecoder,
    StreamItem,
)
from .suite import (
    BenchmarkSpec, SuiteConfig, SuiteError, benchmark_violations, parse_suite, render_suite, resolve_command,
    text_sha256, validate_suite,
)

INSTALL_STAMP = ".installed"
PREPARE_STAMP = ".prepared"
# Longest a child's metric pipe is read after the child exited or was killed.
DRAIN_S = 1.0


class ExecutorError(RuntimeError):
    pass


class DevicePool:
    """Declared (never probed) pool of opaque device ids across nodes.

    Devices are split over nodes in contiguous chunks, earlier nodes
    taking the remainder.
    """

    __slots__ = ("devices", "nodes", "_node")

    def __init__(self, devices: tuple[str, ...], nodes: int = 1) -> None:
        if not devices:
            raise ExecutorError("device pool must not be empty")
        if len(set(devices)) != len(devices):
            raise ExecutorError("device ids must be unique")
        if not 1 <= nodes <= len(devices):
            raise ExecutorError(f"need 1 <= nodes <= {len(devices)}, got {nodes}")
        self.devices = devices
        self.nodes = nodes
        base, extra = divmod(len(devices), nodes)
        owners = [node for node in range(nodes) for _ in range(base + (node < extra))]
        self._node = dict(zip(devices, owners))

    def node_of(self, device: str) -> int:
        try:
            return self._node[device]
        except KeyError:
            raise ExecutorError(f"device {device!r} not in pool") from None

    def node_devices(self, node: int) -> tuple[str, ...]:
        return tuple(d for d in self.devices if self._node[d] == node)


class ProcessPlan(NamedTuple):
    """One resolved child-process launch, on one device."""

    bench: str
    rank: int
    world_size: int
    device: str
    env: dict[str, str]
    command: tuple[str, ...]
    timeout_s: float
    obs_min: int
    gang_id: str | None = None


class ProcessOutcome(NamedTuple):
    """How one planned child ended: its ``outcomes.json`` row, the log's counters standing for ``log``."""

    rank: int
    devices: list[str]  # the one device the child ran on
    gang_id: str | None
    exit_code: int
    duration_s: float
    # The child's user plus system CPU and peak RSS, from its wait status; None when it never started.
    cpu_s: float | None
    maxrss_kb: int | None
    classified: str  # one of CLASSES
    log: ObservationLog


CLASSES = ("success", "error", "timeout")
_ROW_FIELDS = ProcessOutcome._fields[:-1]  # what a row holds as it is: every field but the log


class RunRecord(NamedTuple):
    """What ``run`` did for one benchmark: outcomes in plan order, phase timings, any plan error."""

    bench: str
    outcomes: list[ProcessOutcome]
    phase_durations: dict[str, float]
    error: str | None = None


def plan_launches(
    spec: BenchmarkSpec, pool: DevicePool, base_dir: Path | str = "."
) -> list[ProcessPlan]:
    """Turn one benchmark spec into resolved process launches.

    single-device: one independent process per pool device. node-devices:
    one gang whose ranks partition node 0's devices. multi-node: one gang
    spanning every node (simulated locally; the node id is exported).
    """
    base_dir = Path(base_dir)
    bench_dir = base_dir / "data" / spec.name

    if spec.scale == "single-device":
        devices = pool.devices
        gang_id = None
    elif spec.scale == "node-devices":
        devices = pool.node_devices(0)
        gang_id = f"{spec.name}:node0"
    elif spec.scale == "multi-node":
        if pool.nodes < 2:
            raise ExecutorError(
                f"benchmark {spec.name!r} needs scale=multi-node but pool has "
                f"{pool.nodes} node(s): insufficient nodes"
            )
        devices = pool.devices
        gang_id = f"{spec.name}:all-nodes"
    else:
        raise ExecutorError(f"unknown scale {spec.scale!r}")

    world_size = len(devices)
    plans: list[ProcessPlan] = []
    for rank, device in enumerate(devices):
        env = dict(spec.env)
        env.update(
            {
                "BENCHFORGE_DEVICE": device,
                "BENCHFORGE_RANK": str(rank),
                "BENCHFORGE_WORLD_SIZE": str(world_size),
                "BENCHFORGE_NODE": str(pool.node_of(device)),
                "BENCHFORGE_OBS_MIN": str(spec.obs_min),
                "BENCHFORGE_OBS_MAX": str(spec.obs_max),
            }
        )
        if gang_id is not None:
            env["BENCHFORGE_GANG"] = gang_id
            env["BENCHFORGE_RENDEZVOUS"] = str(base_dir / "rendezvous" / spec.name)
        plans.append(
            ProcessPlan(
                bench=spec.name,
                rank=rank,
                world_size=world_size,
                device=device,
                env=env,
                command=resolve_command(spec.run_cmd, base_dir, bench_dir, device, 1, rank, world_size),
                timeout_s=spec.timeout_s,
                obs_min=spec.obs_min,
                gang_id=gang_id,
            )
        )
    return plans


# Rejection reasons a log keeps; later rejections are only counted.
REASONS_KEPT = 3


class LogFold:
    """One process's ObservationLog, built while its stream is decoded.

    ``feed`` frames and decodes a chunk and folds its items at once, so no
    list of the stream's events is ever kept. The rules: a ``rate`` event
    becomes an observation, or a fault when its span or its rate is not
    finite and positive; the first ``success`` or ``error`` sets the
    terminal (``error`` when none comes), and an ``error`` its message; a
    Rejection is counted, and the first REASONS_KEPT reasons are kept.
    Every other kind is dropped.
    """

    def __init__(self, process_id: str) -> None:
        self.log = ObservationLog(process_id=process_id)
        self._terminal: str | None = None
        self._decoder = StreamDecoder()

    def feed(self, chunk: bytes) -> None:
        self.add(self._decoder.feed(chunk))

    def add(self, items: Iterable[StreamItem]) -> None:
        log = self.log
        add = log.add
        for item in items:
            if type(item) is Rejection:
                log.rejected += 1
                if len(log.rejection_reasons) < REASONS_KEPT:
                    log.rejection_reasons.append(item.reason)
                continue
            kind = item.event
            if kind == "rate":
                data = item.data
                work = float(data["batch"])
                if "t0" in data and "t1" in data:
                    elapsed = float(data["t1"]) - float(data["t0"])
                else:
                    elapsed = work / float(data["rate"])
                # Finite stamps can still give an infinite span, or a rate that is inf or 0.
                if not (0 < elapsed < math.inf and 0 < work / elapsed < math.inf):
                    log.faults += 1
                    continue
                add(work, elapsed, bool(data.get("warmup", False)), item.task)
            elif kind in TERMINAL_KINDS and self._terminal is None:
                self._terminal = kind
                if kind == "error":
                    log.message = str(item.data.get("message", ""))

    def finish(self) -> ObservationLog:
        """Fold a trailing unterminated line, settle the terminal, return the log."""
        self.add(self._decoder.finish())
        self.log.terminal = self._terminal or "error"
        return self.log


# Version of the fold sidecar: bump it whenever the fold rules or the layout change.
FOLD_FORMAT = 2
# Bytes per observation in a sidecar: work and elapsed (f64), warmup (u8), task index (u32).
_FOLD_RECORD = 8 + 8 + 1 + 4


def fold_sidecar(log: ObservationLog, sha256: str, size: int) -> bytes:
    """Serialize ``log``, the fold of a stream of ``size`` bytes with digest ``sha256``.

    One ASCII JSON header line (format, byte order, the stream's digest and
    length, the observation count, the digest of the columns, the task
    table and the log's other fields), then the log's four columns in
    native byte order: work, elapsed, warmup and task index.
    """
    body = b"".join((log.work.tobytes(), log.elapsed.tobytes(), log.warmup, log.task_index.tobytes()))
    header = {
        "format": FOLD_FORMAT,
        "byteorder": sys.byteorder,
        "sha256": sha256,
        "bytes": size,
        "observations": len(log.work),
        "columns_sha256": hashlib.sha256(body).hexdigest(),
        "tasks": list(log.tasks),
        "terminal": log.terminal,
        "message": log.message,
        "faults": log.faults,
        "rejected": log.rejected,
        "rejection_reasons": log.rejection_reasons,
    }
    return json.dumps(header).encode("ascii") + b"\n" + body


def log_from_sidecar(data: bytes, sha256: str, size: int, process_id: str) -> ObservationLog | None:
    """The log ``fold_sidecar`` stored, or None unless it is the fold of this stream.

    It is returned only when the format, the byte order, the stream length
    and the stream digest all match, the arrays are complete and match
    their digest, every warmup byte is 0 or 1 and every task index is
    inside the task table. The arrays become the log's columns as they are.
    """
    head, _, body = data.partition(b"\n")
    try:
        header = json.loads(head)
        stamp = (header["format"], header["byteorder"], header["bytes"], header["sha256"])
        if stamp != (FOLD_FORMAT, sys.byteorder, size, sha256):
            return None
        n, tasks = header["observations"], header["tasks"]
        if type(n) is not int or len(body) != n * _FOLD_RECORD or type(tasks) is not list:
            return None
        if header["columns_sha256"] != hashlib.sha256(body).hexdigest():
            return None
        log = ObservationLog(process_id, header["terminal"], header["faults"], header["message"])
        log.rejected, log.rejection_reasons = header["rejected"], header["rejection_reasons"]
        log.tasks = {task: i for i, task in enumerate(tasks)}
        log.work.frombytes(body[: 8 * n])
        log.elapsed.frombytes(body[8 * n : 16 * n])
        log.warmup[:] = body[16 * n : 17 * n]
        log.task_index.frombytes(body[17 * n :])
    except (ValueError, TypeError, KeyError):  # cut short, or not a sidecar
        return None
    if len(log.tasks) != len(tasks) or not all(type(task) is str for task in tasks):
        return None
    if log.warmup.translate(None, b"\0\1") or max(log.task_index, default=-1) >= len(tasks):
        return None
    return log


def _kill_group(proc):
    """SIGKILL the whole process group of the child ``proc`` (a Popen), then reap the child.

    The child is reaped by ``os.wait4``, which also gives its resource
    usage; ``proc.returncode`` is set, so ``Popen`` never waits for it
    again. Returns that usage.
    """
    import signal

    # The unreaped child pins its pgid, so this kills only its group.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class _Child:
    """A child of the supervision loop, launched on construction; the data of both its selector keys."""

    def __init__(self, plan: ProcessPlan, out_dir: Path, sel) -> None:
        import selectors
        import subprocess

        self.plan, self.stream = plan, out_dir / f"{plan.rank}.jsonl"
        self.fold = LogFold(f"{plan.bench}/{plan.rank}")
        self.digest = hashlib.sha256()
        self.exit_code = self.log = self.cpu_s = self.maxrss_kb = None
        # eof: the pipe hit EOF; exited: the pidfd fired, so the child ended before its deadline.
        self.duration, self.eof, self.exited = 0.0, False, False
        self.capture = open(self.stream, "wb")
        self.read_fd, write_fd = os.pipe()
        env = {**os.environ, **plan.env, "BENCHFORGE_METRICS_FD": str(write_fd)}
        self.started = time.monotonic()
        try:
            self.proc = subprocess.Popen(plan.command, env=env, pass_fds=(write_fd,), start_new_session=True)
        except OSError as exc:
            os.close(self.read_fd)
            self.capture.close()
            self.log = ObservationLog(process_id=self.fold.log.process_id, message=str(exc))
            self.exit_code, self.classified = -1, "error"
            return
        finally:
            os.close(write_fd)
        self.pidfd = os.pidfd_open(self.proc.pid)
        # The child's deadline; once it is reaped, the end of its drain.
        self.deadline = self.started + plan.timeout_s
        sel.register(self.read_fd, selectors.EVENT_READ, self)
        sel.register(self.pidfd, selectors.EVENT_READ, self)

    def read(self, sel) -> None:
        chunk = os.read(self.read_fd, CHUNK_BYTES)
        if not chunk:
            sel.unregister(self.read_fd)
            self.eof = True
        self.capture.write(chunk)
        self.digest.update(chunk)
        self.fold.feed(chunk)

    def reap(self, sel) -> None:
        usage = _kill_group(self.proc)
        self.duration = time.monotonic() - self.started
        self.exit_code = self.proc.returncode
        self.cpu_s, self.maxrss_kb = usage.ru_utime + usage.ru_stime, usage.ru_maxrss
        sel.unregister(self.pidfd)
        self.deadline = time.monotonic() + DRAIN_S

    def finish(self, sel) -> None:
        """Stop reading, write the sidecar, and classify the child."""
        if not self.eof:
            sel.unregister(self.read_fd)
        log = self.fold.finish()
        # Written before the verdict below edits the terminal or the message.
        sidecar = fold_sidecar(log, self.digest.hexdigest(), self.capture.tell())
        self.stream.with_suffix(".fold").write_bytes(sidecar)
        if not self.exited:
            log.terminal = "timeout"
            self.classified = "timeout"
        elif self.exit_code == 0 and log.terminal == "success" and len(log.work) >= self.plan.obs_min:
            self.classified = "success"
        else:
            self.classified = "error"
            if self.exit_code == 0 and len(log.work) < self.plan.obs_min:
                log.message = log.message or "insufficient observations"
        self.close()
        self.log = log

    def close(self) -> None:
        os.close(self.read_fd)
        os.close(self.pidfd)
        self.capture.close()


def _supervise_all(plans: list[ProcessPlan], out_dir: Path | str) -> list[ProcessOutcome]:
    """Launch the planned children and follow them all to outcomes, in plan order.

    One select loop in the calling thread reads every child's metric pipe
    (captured verbatim to ``out_dir/<rank>.jsonl`` and folded as it
    arrives) and watches a pidfd of each child until it exits or its
    timeout_s passes. Then it kills that child's whole process group, reaps
    the child, and drains its pipe for at most DRAIN_S seconds; an
    exception kills and reaps every child still running. Each fold, as the
    stream gave it, goes to ``out_dir/<rank>.fold``. Classification:
    success iff the child exited 0, its log ended in success, and it
    gathered at least obs_min observations; a child still running at
    timeout_s is a timeout. A gang succeeds or fails as one unit, so a
    failed rank turns its gang's successes into errors.
    """
    import selectors

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    children: list[_Child] = []
    with selectors.DefaultSelector() as sel:
        try:
            children.extend(_Child(plan, out_dir, sel) for plan in plans)
            while live := [child for child in children if child.log is None]:
                # epoll refuses waits over ~24 days; a later deadline is re-checked daily.
                for key, _ in sel.select(min(min(child.deadline for child in live) - time.monotonic(), 86400)):
                    if key.fd == key.data.read_fd:
                        key.data.read(sel)
                    else:
                        key.data.exited = True
                for child in live:
                    if child.exit_code is None and (child.exited or time.monotonic() >= child.deadline):
                        child.reap(sel)
                    # A pipe that hit EOF first is finished in the pass that reaps its child.
                    if child.exit_code is not None and (child.eof or time.monotonic() >= child.deadline):
                        child.finish(sel)
        finally:
            for child in children:
                if child.log is None:  # still followed when an exception ended the loop
                    if child.exit_code is None:
                        _kill_group(child.proc)
                    child.close()

    # A gang succeeds or fails as one unit; any failed rank fails the rest.
    failed = {child.plan.gang_id for child in children if child.classified != "success"} - {None}
    for child in children:
        if child.plan.gang_id in failed and child.classified == "success":
            child.classified, child.log.message = "error", "gang member failed"
    return [
        ProcessOutcome(
            c.plan.rank, [c.plan.device], c.plan.gang_id, c.exit_code, c.duration, c.cpu_s, c.maxrss_kb,
            c.classified, c.log,
        )
        for c in children
    ]


def supervise(plan: ProcessPlan, out_dir: Path | str) -> ProcessOutcome:
    """Launch one planned child and follow it to an outcome, as ``_supervise_all`` does."""
    return _supervise_all([plan], out_dir)[0]


# Setup phases in order: the directory under base_dir, the stamp file, and the
# BenchmarkSpec field that holds the phase's command.
_PHASES = {
    "install": ("envs", INSTALL_STAMP, "install_cmd"),
    "prepare": ("data", PREPARE_STAMP, "prepare_cmd"),
}


def _stamp_token(command: str) -> str:
    return hashlib.sha256(command.encode("utf-8")).hexdigest()


def _pending(bench: BenchmarkSpec, base_dir: Path, phase: str) -> bool:
    """Whether ``phase`` has a command for ``bench`` whose stamp is missing or stale."""
    subdir, stamp_name, field = _PHASES[phase]
    command = getattr(bench, field)
    stamp = base_dir / subdir / bench.name / stamp_name
    return bool(command) and not (stamp.exists() and stamp.read_text() == _stamp_token(command))


def _setup_phase(cfg: SuiteConfig, base_dir: Path, phase: str) -> dict[str, str]:
    import subprocess

    # Each entry's own rules, before any directory exists; the suite-wide total-weight rule
    # is not one of them, so a selection of unweighted benchmarks can still be set up.
    violations = [v for bench in cfg.benchmarks for v in benchmark_violations(bench)]
    if violations:
        raise SuiteError(violations[0])
    subdir, stamp_name, field = _PHASES[phase]
    earlier = list(_PHASES)[: list(_PHASES).index(phase)]
    statuses: dict[str, str] = {}
    for bench in cfg.enabled_benchmarks():
        command = getattr(bench, field)
        if not command:
            statuses[bench.name] = "not-required"
            continue
        blocker = next((p for p in earlier if _pending(bench, base_dir, p)), None)
        if blocker is not None:
            statuses[bench.name] = f"blocked: {blocker} incomplete"
            continue
        if not _pending(bench, base_dir, phase):
            statuses[bench.name] = "skipped"
            continue
        bench_dir = base_dir / subdir / bench.name
        bench_dir.mkdir(parents=True, exist_ok=True)
        argv = resolve_command(command, base_dir, bench_dir)
        try:
            result = subprocess.run(
                argv,
                cwd=bench_dir,
                env={**os.environ, **bench.env},
                timeout=bench.timeout_s,
            )
            ok = result.returncode == 0
        except (OSError, subprocess.TimeoutExpired):
            ok = False
        if ok:
            (bench_dir / stamp_name).write_text(_stamp_token(command))
            statuses[bench.name] = "done"
        else:
            statuses[bench.name] = "failed"
    return statuses


def install(cfg: SuiteConfig, base_dir: Path | str) -> dict[str, str]:
    """Run each enabled benchmark's install command in its own env dir.

    Idempotent: a matching stamp file skips the command entirely. One
    failure never blocks the other benchmarks. An entry that breaks one of
    its ``benchmark_violations`` raises SuiteError before any directory
    exists; ``prepare`` does the same.
    """
    return _setup_phase(cfg, Path(base_dir), "install")


def prepare(cfg: SuiteConfig, base_dir: Path | str) -> dict[str, str]:
    """Run each enabled benchmark's prepare command in its data dir."""
    return _setup_phase(cfg, Path(base_dir), "prepare")


def _setup_complete(bench: BenchmarkSpec, base_dir: Path) -> str | None:
    """Why ``bench`` cannot run yet: its first pending phase, or None."""
    phase = next((p for p in _PHASES if _pending(bench, base_dir, p)), None)
    if phase is None:
        return None
    return f"benchmark {bench.name!r}: {phase} not completed (run `benchforge {phase}`)"


def run(
    cfg: SuiteConfig,
    pool: DevicePool,
    base_dir: Path | str,
    *,
    system: str | None = None,
    check_setup: bool = True,
) -> tuple[Path, list[RunRecord]]:
    """Execute every enabled benchmark over the pool, sequentially.

    A benchmark failure never aborts the suite; it is recorded and the
    run continues. Returns the run directory and one RunRecord per
    enabled benchmark, in suite order. A suite that breaks a rule of
    ``validate_suite`` (a selection of unweighted benchmarks, say) raises
    SuiteError before the run directory exists: ``load_run`` would refuse
    the ``suite.yaml`` written there. Once every benchmark has run,
    ``meta.json`` is written again with the calling process's own CPU
    time and peak RSS.
    """
    import resource

    violations = validate_suite(cfg)
    if violations:
        raise SuiteError(violations[0])
    base_dir = Path(base_dir)
    if check_setup:
        for bench in cfg.enabled_benchmarks():
            problem = _setup_complete(bench, base_dir)
            if problem:
                raise ExecutorError(problem)

    run_dir = _new_run_dir(base_dir)
    rendered = render_suite(cfg)
    (run_dir / "suite.yaml").write_text(rendered, encoding="utf-8")
    meta = {
        "suite_name": cfg.suite_name,
        "suite_sha256": text_sha256(rendered),
        "system": system or os.uname().nodename,
        "created_unix": time.time(),
        "pool": {"devices": list(pool.devices), "nodes": pool.nodes},
        "benchmarks": [b.name for b in cfg.enabled_benchmarks()],
    }
    (run_dir / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")

    records: list[RunRecord] = []
    for bench in cfg.enabled_benchmarks():
        records.append(_run_bench(bench, pool, base_dir, run_dir))
    # The calling process's own cost so far, its children's not included.
    usage = resource.getrusage(resource.RUSAGE_SELF)
    meta.update(harness_cpu_s=usage.ru_utime + usage.ru_stime, harness_maxrss_kb=usage.ru_maxrss)
    (run_dir / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
    return run_dir, records


def _run_bench(
    bench: BenchmarkSpec, pool: DevicePool, base_dir: Path, run_dir: Path
) -> RunRecord:
    bench_out = run_dir / bench.name
    started = time.monotonic()
    outcomes, error = [], None
    try:
        plans = plan_launches(bench, pool, base_dir)
    except ExecutorError as exc:
        error = str(exc)
        bench_out.mkdir(parents=True, exist_ok=True)
    else:
        outcomes = _supervise_all(plans, bench_out)
    record = RunRecord(bench.name, outcomes, {"run": time.monotonic() - started}, error)
    _write_outcomes(bench_out, record)
    return record


def _write_outcomes(bench_out: Path, record: RunRecord) -> None:
    rows = [
        dict(
            zip(_ROW_FIELDS, o), observations=len(o.log.work), message=o.log.message, rejected=o.log.rejected,
            rejection_reasons=o.log.rejection_reasons, faults=o.log.faults,
        )
        for o in record.outcomes
    ]
    payload = {
        "bench": record.bench,
        "error": record.error,
        "phase_durations": record.phase_durations,
        "outcomes": rows,
    }
    (bench_out / "outcomes.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")


def _new_run_dir(base_dir: Path) -> Path:
    from datetime import datetime, timezone

    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    candidate = base_dir / "runs" / stamp
    suffix = 0
    while candidate.exists():
        suffix += 1
        candidate = base_dir / "runs" / f"{stamp}-{suffix}"
    candidate.mkdir(parents=True)
    return candidate


class LoadedRun(NamedTuple):
    """A run directory read back for reporting."""

    meta: dict
    suite: SuiteConfig
    records: dict[str, RunRecord]


def load_run(run_dir: Path | str) -> LoadedRun:
    """Read a completed run directory back into foldable records.

    Each process's log comes from its ``<rank>.fold`` sidecar when that
    holds the fold of the stream as it now is, and otherwise from
    ``<rank>.jsonl``, read in ``CHUNK_BYTES`` chunks and folded by one
    ``LogFold`` as it is decoded. A stream that exists but cannot be read
    raises ``OSError`` rather than yielding a shorter log. Anything else
    that would fail later or fold into a different score raises
    ``ExecutorError``; docs/protocol.md, "Reading a run directory", lists it.
    """
    run_dir = Path(run_dir)
    meta_path = run_dir / "meta.json"
    if not meta_path.exists():
        raise ExecutorError(f"{run_dir} is not a run directory (missing meta.json)")
    meta = _json_object(meta_path)
    if not isinstance(meta.get("system", ""), str):
        raise ExecutorError(f"{meta_path}: system is not text")
    # The bytes as read: suite.sha256() would hash a re-rendering of whatever parses from them.
    suite_bytes = (run_dir / "suite.yaml").read_bytes()
    if hashlib.sha256(suite_bytes).hexdigest() != meta.get("suite_sha256"):
        raise ExecutorError(f"{run_dir / 'suite.yaml'} does not match the suite_sha256 in {meta_path}")
    suite = parse_suite(suite_bytes.decode("utf-8"))

    records: dict[str, RunRecord] = {}
    for bench in suite.enabled_benchmarks():
        bench_dir = run_dir / bench.name
        outcomes_path = bench_dir / "outcomes.json"
        if not outcomes_path.exists():
            raise ExecutorError(f"{run_dir} is incomplete: benchmark {bench.name!r} has no outcomes.json")
        payload = _json_object(outcomes_path)
        rows = payload.get("outcomes")
        if type(rows) is not list:
            raise ExecutorError(f"{outcomes_path}: outcomes is not a list")
        outcomes = []
        for i, row in enumerate(rows):
            if type(row) is not dict or row.get("rank") != i or type(row["rank"]) is not int:
                raise ExecutorError(f"{outcomes_path}: row {i} is not an object with rank {i}")
            if row.get("classified") not in CLASSES:
                raise ExecutorError(f"{outcomes_path}: row {i} is not classified as one of {', '.join(CLASSES)}")
            log = _load_log(bench_dir / f"{i}.jsonl", f"{bench.name}/{i}")
            outcomes.append(ProcessOutcome(*map(row.get, _ROW_FIELDS), log))
        # report reads no phase timing, so none is loaded.
        records[bench.name] = RunRecord(bench.name, outcomes, {}, payload.get("error"))
    return LoadedRun(meta=meta, suite=suite, records=records)


def _json_object(path: Path) -> dict:
    """The JSON object that ``path`` holds; ExecutorError when it holds anything else."""
    try:
        value = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as exc:  # cut short, flipped or not UTF-8
        raise ExecutorError(f"{path} is not valid JSON: {exc}") from None
    if type(value) is not dict:
        raise ExecutorError(f"{path} does not hold a JSON object")
    return value


def _load_log(stream: Path, process_id: str) -> ObservationLog:
    """One process's log: its trusted sidecar, else the fold of its stream."""
    fold = LogFold(process_id)
    if stream.exists():
        with open(stream, "rb") as f:
            try:
                sidecar = stream.with_suffix(".fold").read_bytes()
            except OSError:  # none, or unreadable: the stream alone is the record
                sidecar = None
            if sidecar is not None:
                digest, size = hashlib.sha256(), 0
                while chunk := f.read(CHUNK_BYTES):
                    digest.update(chunk)
                    size += len(chunk)
                log = log_from_sidecar(sidecar, digest.hexdigest(), size, process_id)
                if log is not None:
                    return log
                f.seek(0)
            while chunk := f.read(CHUNK_BYTES):
                fold.feed(chunk)
    return fold.finish()
