"""Run the benchforge CLI with every public function of its layers wrapped.

Usage: python3 perfbench/tracer.py SPANS_OUT [benchforge CLI arguments ...]

The wrappers live here, in the benchmark, not in the program. Each public
function and public method of the traced modules is replaced by a wrapper
under every module-level name that refers to it, so callers that imported
it by name (``from .executor import run``) are traced too. Spans stay in
memory and are written to SPANS_OUT as JSON lines when the CLI returns.

``layer_metrics`` turns the span files of one traced iteration into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time

# ``worker`` runs only in child processes and ``design`` on no run or report
# path, so neither is traced here.
LAYERS = ("suite", "executor", "protocol", "aggregate", "report", "cli")


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _parent(self, thread: int) -> int | None:
        stack = self._stacks.setdefault(thread, [])
        if stack:
            return stack[-1]
        # A pool thread's work was caused by whatever the main thread is in.
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def wrap(self, layer: str, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            span = {
                "id": next(self._ids),
                "layer": layer,
                "name": name,
                "parent": self._parent(thread),
                "thread": thread,
                "threads": threading.active_count(),
            }
            stack = self._stacks[thread]
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if annotate is not None:
                span.update(annotate(args, result))
            return result

        return traced


def _annotations():
    from benchforge.protocol import Rejection

    return {
        "StreamDecoder.feed": lambda args, result: {"bytes": len(args[1])},
        "decode_event": lambda args, result: {"rejected": isinstance(result, Rejection)},
        "supervise": lambda args, result: {"classified": result.classified},
    }


def install(recorder: Recorder) -> None:
    """Wrap the public functions and methods of every loaded layer module."""
    import benchforge

    modules = {
        layer: sys.modules[f"benchforge.{layer}"]
        for layer in LAYERS
        if f"benchforge.{layer}" in sys.modules
    }
    annotate = _annotations()
    replacements: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                wrapped = recorder.wrap(layer, attr, value, annotate.get(attr))
                replacements[id(value)] = wrapped
            elif inspect.isclass(value):
                for meth, fn in list(vars(value).items()):
                    if meth.startswith("_") or not inspect.isfunction(fn):
                        continue
                    qual = f"{attr}.{meth}"
                    setattr(value, meth, recorder.wrap(layer, qual, fn, annotate.get(qual)))
    # Rebind every module-level name that refers to a wrapped function,
    # including names imported into other modules and the package itself.
    for module in [benchforge, *modules.values()]:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and not attr.startswith("__"):
                setattr(module, attr, replacements[id(value)])


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    started = time.perf_counter()
    import benchforge.cli

    imported = time.perf_counter()
    recorder = Recorder()
    recorder.spans.append(
        {
            "id": 0,
            "layer": "cli",
            "name": "import",
            "parent": None,
            "thread": threading.get_ident(),
            "threads": threading.active_count(),
            "start": started,
            "end": imported,
        }
    )
    install(recorder)
    try:
        code = benchforge.cli.main(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as out:
            for span in recorder.spans:
                out.write(json.dumps(span) + "\n")
    return code


# ---------------------------------------------------------------------------
# Span analysis (runs in the benchmark process, not in the traced CLI).


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


RUN_CHILDREN = {"plan_launches", "supervise", "parse_suite", "render_suite", "SuiteConfig.sha256"}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time in seconds per ``layer.name``: duration minus direct children.

    Children running in other threads overlap their parent, so only the
    union of the children's intervals inside the parent is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals: dict[str, float] = {}
    for span in spans:
        inside = [
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in children.get(span["id"], [])
            if e > span["start"] and s < span["end"]
        ]
        own = span["end"] - span["start"] - _union_length(inside)
        key = f"{span['layer']}.{span['name']}"
        totals[key] = totals.get(key, 0.0) + own
    return totals


def layer_metrics(processes: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, one span list per CLI process."""
    ms = 1000.0
    supervise: list[float] = []
    m = {
        "cli.import_ms": [],
        "executor.threads_peak": 0,
        "executor.procs": 0,
        "executor.procs_failed": 0,
        "executor.run_self_ms": 0.0,
        "executor.load_run_ms": 0.0,
        "executor.log_from_events_ms": 0.0,
        "protocol.frame_ms": 0.0,
        "protocol.decode_ms": 0.0,
        "protocol.lines": 0,
        "protocol.bytes": 0,
        "protocol.rejections": 0,
        "suite.parse_ms": 0.0,
        "suite.render_ms": 0.0,
        "suite.sha256_ms": 0.0,
        "aggregate.fold_ms": 0.0,
        "aggregate.score_ms": 0.0,
        "report.render_ms": 0.0,
    }
    for spans in processes:
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            name, dur = s["name"], (s["end"] - s["start"]) * ms
            m["executor.threads_peak"] = max(m["executor.threads_peak"], s["threads"])
            if s["layer"] == "cli" and name == "import":
                m["cli.import_ms"].append(dur)
            elif name == "supervise":
                supervise.append(dur)
                m["executor.procs"] += 1
                m["executor.procs_failed"] += s["classified"] != "success"
            elif name == "load_run":
                m["executor.load_run_ms"] += dur
            elif name == "log_from_events":
                m["executor.log_from_events_ms"] += dur
            elif name in ("StreamDecoder.feed", "StreamDecoder.finish"):
                m["protocol.frame_ms"] += dur
                m["protocol.bytes"] += s.get("bytes", 0)
            elif name == "decode_event":
                m["protocol.decode_ms"] += dur
                m["protocol.lines"] += 1
                m["protocol.rejections"] += s["rejected"]
                parent = by_id.get(s["parent"])
                if parent is not None and parent["name"].startswith("StreamDecoder."):
                    m["protocol.frame_ms"] -= dur
            elif name == "parse_suite":
                m["suite.parse_ms"] += dur
            elif name == "render_suite":
                m["suite.render_ms"] += dur
            elif name == "SuiteConfig.sha256":
                m["suite.sha256_ms"] += dur
            elif name == "fold_bench":
                m["aggregate.fold_ms"] += dur
            elif name == "suite_score":
                m["aggregate.score_ms"] += dur
            elif s["layer"] == "executor" and name == "run":
                inside = [
                    (max(c["start"], s["start"]), min(c["end"], s["end"]))
                    for c in spans
                    if c["name"] in RUN_CHILDREN and c["end"] > s["start"] and c["start"] < s["end"]
                ]
                m["executor.run_self_ms"] += dur - _union_length(inside) * ms
        m["report.render_ms"] += sum(
            t for k, t in self_times(spans).items() if k.startswith("report.")
        ) * ms
    m["cli.import_ms"] = statistics.median(m["cli.import_ms"]) if m["cli.import_ms"] else 0.0
    m["executor.supervise_ms_p50"] = statistics.median(supervise) if supervise else 0.0
    m["executor.supervise_ms_max"] = max(supervise, default=0.0)
    lines = m["protocol.lines"]
    m["protocol.decode_us_per_line"] = m["protocol.decode_ms"] * 1000.0 / lines if lines else 0.0
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
