"""Command-line entry points: install, prepare, run, report, design."""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from . import __version__
from .aggregate import AggregateError, fold_bench
from .executor import DevicePool, ExecutorError, install, load_run, prepare, run
from .report import ReportError, render_csv, render_json, render_report, render_text
from .suite import SuiteError, load_suite, select_benchmarks

EXIT_OK = 0
EXIT_BENCH_FAILURES = 3
EXIT_CONFIG = 4


def _add_suite_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="suite YAML file")
    parser.add_argument("--base-dir", default=".", help="working directory for envs/data/runs")
    parser.add_argument("--select", default=None, help="benchmark selector (globs, key=value)")


def _load(args: argparse.Namespace):
    cfg = load_suite(args.config)
    if args.select:
        cfg = select_benchmarks(cfg, args.select)
    return cfg


def _cmd_setup(args: argparse.Namespace, phase) -> int:
    cfg = _load(args)
    statuses = phase(cfg, Path(args.base_dir))
    failed = False
    for name, status in statuses.items():
        print(f"{name}: {status}")
        failed = failed or status.startswith(("failed", "blocked"))
    return EXIT_BENCH_FAILURES if failed else EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load(args)
    devices = tuple(d.strip() for d in args.devices.split(",") if d.strip())
    pool = DevicePool(devices=devices, nodes=args.nodes)
    run_dir, records = run(cfg, pool, Path(args.base_dir), system=args.system)
    all_ok = True
    for record in records:
        if record.error:
            print(f"{record.bench}: error ({record.error})")
            all_ok = False
            continue
        good = sum(1 for o in record.outcomes if o.classified == "success")
        total = len(record.outcomes)
        print(f"{record.bench}: {good}/{total} processes succeeded")
        all_ok = all_ok and good == total
    print(f"run directory: {run_dir}")
    return EXIT_OK if all_ok else EXIT_BENCH_FAILURES


def _cmd_report(args: argparse.Namespace) -> int:
    run_dirs = [Path(p.strip()) for p in args.runs.split(",") if p.strip()]
    if not run_dirs:
        raise SuiteError("no run directories given")

    results = {}
    metadata = {}
    suite_hash = None
    for run_dir in run_dirs:
        loaded = load_run(run_dir)
        if suite_hash is None:
            suite_hash = loaded.meta["suite_sha256"]
            metadata = {
                "suite": loaded.suite.suite_name,
                "suite_sha256": suite_hash,
                "pool": loaded.meta.get("pool"),
            }
        elif loaded.meta["suite_sha256"] != suite_hash:
            raise SuiteError(
                f"run {run_dir} was produced by a different suite "
                f"(hash {loaded.meta['suite_sha256'][:12]} != {suite_hash[:12]})"
            )
        system = loaded.meta.get("system") or run_dir.name
        if system in results:
            raise SuiteError(f"duplicate system name {system!r} across run directories")
        results[system] = [
            fold_bench(bench, loaded.records[bench.name], drop_warmup=not args.keep_warmup)
            for bench in loaded.suite.enabled_benchmarks()
        ]

    doc = render_report(results, baseline=args.baseline, metadata=metadata)
    rendered = {"text": render_text, "csv": render_csv, "json": render_json}[args.format](doc)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def _cmd_design(args: argparse.Namespace) -> int:
    # Imported here: no other command needs design, so none of them pays for it.
    from .design import DesignError

    try:
        return _design_mlcm(args) if args.mlcm else _design_coverage(args)
    except DesignError as exc:
        return _fail(exc)


def _design_coverage(args: argparse.Namespace) -> int:
    from .design import coverage_proportions

    if not args.config:
        raise SuiteError("design requires --config (coverage) or --mlcm (confusion matrix)")
    cfg = load_suite(args.config)
    report = coverage_proportions(cfg)
    if args.format == "json":
        payload = {
            "total_weight": report.total_weight,
            "proportions": report.proportions,
            "deviation": report.deviation,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    targets = cfg.targets.dimensions if cfg.targets else {}
    for dim, columns in report.proportions.items():
        dev = report.deviation.get(dim)
        title = f"{dim} (L1 deviation {dev:.3f})" if dev is not None else dim
        print(title)
        dim_targets = targets.get(dim, {})
        for col in sorted(set(columns) | set(dim_targets)):
            actual = columns.get(col, 0.0)
            target = dim_targets.get(col)
            suffix = f"  target {target:.3f}" if target is not None else ""
            print(f"  {col:<24} {actual:.3f}{suffix}")
    return EXIT_OK


def _design_mlcm(args: argparse.Namespace) -> int:
    import csv

    from .design import DesignError, mlcm_build, mlcm_metrics

    samples = []
    labels_seen: set[str] = set()
    with open(args.mlcm, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        required = {"sample_id", "true_labels", "predicted_labels"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DesignError(f"MLCM CSV must have columns {sorted(required)}")
        for row in reader:
            true_set = {t for t in row["true_labels"].split(";") if t}
            pred_set = {p for p in row["predicted_labels"].split(";") if p}
            labels_seen |= true_set | pred_set
            samples.append((true_set, pred_set))
    classes = (
        [c.strip() for c in args.classes.split(",") if c.strip()]
        if args.classes
        else sorted(labels_seen)
    )
    matrix = mlcm_build(samples, classes)
    metrics = mlcm_metrics(matrix)
    if args.format == "json":
        payload = {
            "classes": list(matrix.classes),
            "counts": matrix.counts,
            "precision": metrics.precision,
            "recall": metrics.recall,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    names = list(matrix.classes) + ["NPL"]
    width = max(12, *(len(n) for n in names)) + 2
    print("".ljust(width) + "".join(n.rjust(width) for n in names))
    for i, row_name in enumerate(list(matrix.classes) + ["NTL"]):
        print(row_name.ljust(width) + "".join(str(c).rjust(width) for c in matrix.counts[i]))
    rounded = metrics.rounded()
    print("precision %".ljust(width) + "".join(_pct(rounded[c][0]).rjust(width) for c in matrix.classes))
    print("recall %".ljust(width) + "".join(_pct(rounded[c][1]).rjust(width) for c in matrix.classes))
    return EXIT_OK


def _pct(value: int | None) -> str:
    return "-" if value is None else str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchforge",
        description="Benchmark-suite orchestration: install, prepare, run, report, design.",
    )
    parser.add_argument("--version", action="version", version=f"benchforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_install = sub.add_parser("install", help="create per-benchmark environments")
    _add_suite_args(p_install)
    p_prepare = sub.add_parser("prepare", help="download/build per-benchmark data")
    _add_suite_args(p_prepare)

    p_run = sub.add_parser("run", help="execute the suite over a device pool")
    _add_suite_args(p_run)
    p_run.add_argument("--devices", default="d0", help="comma-separated device ids")
    p_run.add_argument("--nodes", type=int, default=1)
    p_run.add_argument("--system", default=None, help="system name recorded in meta.json")

    p_report = sub.add_parser("report", help="aggregate one or more run directories")
    p_report.add_argument("--runs", required=True, help="run directory, or several comma-separated")
    p_report.add_argument("--baseline", default=None, help="system name used as ratio baseline")
    p_report.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_report.add_argument("-o", "--output", default=None)
    p_report.add_argument("--keep-warmup", action="store_true", help="fold warmup observations too")

    p_design = sub.add_parser("design", help="coverage balancing and multi-label metrics")
    p_design.add_argument("--config", default=None)
    p_design.add_argument("--mlcm", default=None, metavar="CSV", help="sample_id,true_labels,predicted_labels")
    p_design.add_argument("--classes", default=None, help="ordered class labels (comma-separated)")
    p_design.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _fail(exc: Exception) -> int:
    print(f"benchforge: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    # The imported modules live as long as the process: keep the collector from walking them again.
    gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "install":
            return _cmd_setup(args, install)
        if args.command == "prepare":
            return _cmd_setup(args, prepare)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "design":
            return _cmd_design(args)
    except (SuiteError, ReportError, AggregateError, ExecutorError, OSError) as exc:
        return _fail(exc)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
