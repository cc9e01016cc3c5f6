"""Fold observations into per-benchmark results and the global score.

The global score is a weighted geometric mean over benchmarks, shifted
by +1 so total failures contribute log 1 = 0 instead of blowing up:

    score = exp( sum_i w_i * log(p_i * s_i + 1) / sum_i w_i )

It is evaluated entirely in the log domain (log1p accumulated with an
exact summation) for numerical stability across the eight-plus orders of
magnitude that per-benchmark rates span.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import NamedTuple

from .protocol import ObservationLog


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # warmup column -> keep flags when warmup is dropped


class AggregateError(ValueError):
    pass


class _BenchResultFields(NamedTuple):
    bench: str
    weight: float
    perf: float  # units of work per second; 0 when nothing succeeded
    success_rate: float


class BenchResult(_BenchResultFields):
    """Folded outcome of one benchmark on one system."""

    __slots__ = ()

    def __new__(cls, bench: str, weight: float, perf: float, success_rate: float):
        if not 0.0 <= success_rate <= 1.0:
            raise AggregateError(f"{bench}: success_rate must be in [0,1]")
        if not math.isfinite(perf):
            raise AggregateError(f"{bench}: perf must be finite")
        if perf < 0:
            raise AggregateError(f"{bench}: perf must be >= 0")
        return super().__new__(cls, bench, weight, perf, success_rate)


class _SuiteScoreFields(NamedTuple):
    score: float
    contributions: dict[str, float]
    total_weight: float


class SuiteScore(_SuiteScoreFields):
    """The global score. ``contributions`` defaults to a fresh ``{}``."""

    __slots__ = ()

    def __new__(cls, score: float, contributions: dict[str, float] | None = None, total_weight: float = 0.0):
        return super().__new__(cls, score, {} if contributions is None else contributions, total_weight)


class RatioRow(NamedTuple):
    bench: str
    baseline_perf: float | None
    candidate_perf: float | None
    ratio: float | None


def fold_process(log: ObservationLog, drop_warmup: bool = True) -> float | None:
    """Collapse one process's observations into a single rate.

    Uses the median of observation rates (even counts average the middle
    two), which resists startup jitter and stray outliers. Warmup-flagged
    observations are dropped first unless that would leave nothing.
    Returns None when there are no observations at all; such a process
    contributes only to the failure count.
    """
    rates = log.rates()
    if drop_warmup and 1 in log.warmup:
        rates = list(compress(rates, log.warmup.translate(_FLIP))) or rates
    if not rates:
        return None
    # What statistics.median returns, without importing it.
    rates.sort()
    mid = len(rates) // 2
    return rates[mid] if len(rates) % 2 else (rates[mid - 1] + rates[mid]) / 2


def fold_bench(spec, record, drop_warmup: bool = True) -> BenchResult:
    """Fold a completed run record into one benchmark result.

    ``spec`` is the BenchmarkSpec; ``record`` any object exposing
    ``outcomes`` where each outcome has ``classified`` and ``log``. Total
    failure is not an error: it folds to perf 0, success rate 0.
    """
    rates = [fold_process(o.log, drop_warmup=drop_warmup) for o in record.outcomes]
    successes = [o.classified == "success" for o in record.outcomes]
    return fold_outcomes(spec.name, spec.weight, spec.scale, rates, successes)


def fold_outcomes(
    bench: str,
    weight: float,
    scale: str,
    process_rates: list[float | None],
    process_success: list[bool],
) -> BenchResult:
    """Fold per-process rates into one benchmark result.

    Single-device benchmarks launch independently on every device:
    performance is the arithmetic mean over successful processes and the
    success rate is the fraction of processes that succeeded. Gang scales
    (node-devices, multi-node) succeed or fail as one unit: performance
    is the unnormalized sum of all rank rates when the whole gang
    succeeded, else zero.
    """
    if len(process_rates) != len(process_success):
        raise AggregateError(f"{bench}: rate/success lists disagree in length")
    n = len(process_success)
    if n == 0:
        return BenchResult(bench, weight, 0.0, 0.0)

    if scale == "single-device":
        good = [r for r, ok in zip(process_rates, process_success) if ok and r is not None]
        perf = sum(good) / len(good) if good else 0.0
        s = sum(1 for ok in process_success if ok) / n
        return BenchResult(bench, weight, perf, s)

    gang_ok = all(process_success) and all(r is not None for r in process_rates)
    if gang_ok:
        perf = sum(r for r in process_rates if r is not None)
        return BenchResult(bench, weight, perf, 1.0)
    return BenchResult(bench, weight, 0.0, 0.0)


def suite_score(results: list[BenchResult]) -> SuiteScore:
    """Compute the weighted geometric-mean global score in the log domain.

    Benchmarks with weight 0 run and report but never enter the score;
    failed ones enter with p*s = 0, dragging the mean toward 1.
    """
    weighted = [r for r in results if r.weight > 0]
    total_weight = math.fsum(r.weight for r in weighted)
    if total_weight <= 0:
        raise AggregateError("no weighted benchmarks")
    contributions = {r.bench: r.weight * math.log1p(r.perf * r.success_rate) for r in weighted}
    score = math.exp(math.fsum(contributions.values()) / total_weight)
    return SuiteScore(score=score, contributions=contributions, total_weight=total_weight)


def ratio_to_baseline(candidate: BenchResult, baseline: BenchResult) -> RatioRow:
    """Candidate performance over baseline performance for one benchmark.

    The ratio is absent when the baseline is missing or zero, or when the
    candidate failed outright.
    """
    if candidate.bench != baseline.bench:
        raise AggregateError(
            f"benchmark name mismatch: {candidate.bench!r} vs {baseline.bench!r}"
        )
    base_perf = baseline.perf if baseline.success_rate > 0 else None
    cand_perf = candidate.perf if candidate.success_rate > 0 else None
    ratio = None
    if base_perf and cand_perf is not None:
        ratio = cand_perf / base_perf
    return RatioRow(
        bench=candidate.bench,
        baseline_perf=base_perf,
        candidate_perf=cand_perf,
        ratio=ratio,
    )
