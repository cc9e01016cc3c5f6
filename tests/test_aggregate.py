"""Folding and scoring tests, with extended-precision oracles."""

import math
import random
import statistics

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from benchforge.aggregate import (
    AggregateError,
    BenchResult,
    fold_outcomes,
    fold_process,
    ratio_to_baseline,
    suite_score,
)
from benchforge.protocol import ObservationLog


def log_with_rates(rates, warmup_first=False):
    log = ObservationLog(process_id="p", terminal="success")
    for i, rate in enumerate(rates):
        log.add(work=rate, elapsed=1.0, warmup=warmup_first and i == 0)
    return log


def naive_score(results) -> float:
    """Direct product formula at 80-digit precision."""
    with mpmath.workdps(80):
        product = mpmath.mpf(1)
        total = mpmath.mpf(0)
        for r in results:
            if r.weight <= 0:
                continue
            product *= (mpmath.mpf(r.perf) * mpmath.mpf(r.success_rate) + 1) ** mpmath.mpf(
                r.weight
            )
            total += mpmath.mpf(r.weight)
        return float(product ** (1 / total))


class TestFoldProcess:
    def test_constant_rates(self):
        assert fold_process(log_with_rates([64, 64, 64])) == 64

    def test_median_robust_to_outlier(self):
        assert fold_process(log_with_rates([10, 1000, 12, 11, 13])) == 12

    def test_even_count_averages_middle_two(self):
        assert fold_process(log_with_rates([1, 2, 3, 4])) == 2.5

    def test_matches_brute_force_median(self):
        rng = random.Random(8)
        for _ in range(200):
            rates = [rng.uniform(0.1, 1e6) for _ in range(rng.randint(1, 61))]
            got = fold_process(log_with_rates(rates))
            ordered = sorted(rates)  # brute-force sort-and-pick oracle
            n = len(ordered)
            want = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("parity", [1, 0], ids=["odd", "even"])
    @given(data=st.data())
    def test_median_is_statistics_median_bit_for_bit(self, parity, data):
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False)
        rates = data.draw(st.lists(positive, min_size=1).filter(lambda xs: len(xs) % 2 == parity))
        # work / elapsed with elapsed 1.0 is the rate exactly.
        assert fold_process(log_with_rates(rates)).hex() == statistics.median(rates).hex()

    def test_warmup_dropped_by_default(self):
        log = log_with_rates([1000, 10, 10, 10], warmup_first=True)
        assert fold_process(log) == 10
        assert fold_process(log, drop_warmup=False) == 10  # median still robust
        log2 = log_with_rates([1000, 10, 30], warmup_first=True)
        assert fold_process(log2) == 20
        assert fold_process(log2, drop_warmup=False) == 30

    def test_all_warmup_falls_back_to_everything(self):
        log = log_with_rates([42], warmup_first=True)
        assert fold_process(log) == 42

    def test_empty_log_contributes_no_rate(self):
        assert fold_process(ObservationLog(process_id="p")) is None


class TestFoldBench:
    def test_single_device_mean(self):
        result = fold_outcomes("b", 1.0, "single-device", [100.0, 200.0], [True, True])
        assert result.perf == 150.0
        assert result.success_rate == 1.0

    def test_single_device_partial_success(self):
        rates = [100.0] * 6 + [None, None]
        flags = [True] * 6 + [False, False]
        result = fold_outcomes("b", 1.0, "single-device", rates, flags)
        assert result.perf == 100.0
        assert result.success_rate == 0.75

    def test_gang_sums_unnormalized(self):
        result = fold_outcomes("b", 1.0, "node-devices", [250.0] * 4, [True] * 4)
        assert result.perf == 1000.0
        assert result.success_rate == 1.0

    def test_gang_failure_is_total(self):
        result = fold_outcomes("b", 1.0, "multi-node", [250.0, 250.0, None], [True, True, False])
        assert result.perf == 0.0
        assert result.success_rate == 0.0

    def test_total_failure_is_zero_not_error(self):
        result = fold_outcomes("b", 1.0, "single-device", [None], [False])
        assert (result.perf, result.success_rate) == (0.0, 0.0)

    def test_mean_invariant_under_process_order(self):
        rng = random.Random(5)
        rates = [rng.uniform(1, 100) for _ in range(9)]
        flags = [True] * 9
        base = fold_outcomes("b", 1.0, "single-device", rates, flags).perf
        for _ in range(10):
            idx = list(range(9))
            rng.shuffle(idx)
            shuffled = fold_outcomes(
                "b", 1.0, "single-device", [rates[i] for i in idx], [True] * 9
            ).perf
            assert shuffled == pytest.approx(base, rel=1e-12)


class TestSuiteScore:
    def test_single_bench(self):
        score = suite_score([BenchResult("a", 1.0, 5.0, 1.0)])
        assert score.score == pytest.approx(6.0, rel=1e-12)

    def test_two_bench_geometric_mean(self):
        score = suite_score(
            [BenchResult("a", 1.0, 3.0, 1.0), BenchResult("b", 1.0, 8.0, 1.0)]
        )
        assert score.score == pytest.approx(6.0, rel=1e-12)  # sqrt(4 * 9)

    def test_zero_weight_excluded(self):
        results = [BenchResult("a", 1.0, 5.0, 1.0), BenchResult("opt", 0.0, 1e9, 1.0)]
        assert suite_score(results).score == pytest.approx(6.0, rel=1e-12)
        assert "opt" not in suite_score(results).contributions

    @pytest.mark.parametrize("perf", [math.inf, math.nan, -1.0])
    def test_bench_result_rejects_bad_perf(self, perf):
        with pytest.raises(AggregateError, match="perf must be"):
            BenchResult("a", 1.0, perf, 1.0)

    @pytest.mark.parametrize("success_rate", [-0.1, 1.5, math.nan])
    def test_bench_result_rejects_bad_success_rate(self, success_rate):
        with pytest.raises(AggregateError, match=r"^a: success_rate must be in \[0,1\]$"):
            BenchResult("a", 1.0, 5.0, success_rate)

    def test_no_weighted_benchmarks_is_an_error(self):
        with pytest.raises(AggregateError, match="no weighted"):
            suite_score([BenchResult("a", 0.0, 5.0, 1.0)])

    def test_failed_bench_contributes_log_one(self):
        alone = suite_score([BenchResult("a", 1.0, 5.0, 1.0)])
        with_failed = suite_score(
            [BenchResult("a", 1.0, 5.0, 1.0), BenchResult("dead", 1.0, 0.0, 0.0)]
        )
        assert with_failed.contributions["dead"] == 0.0
        assert with_failed.score == pytest.approx(math.sqrt(alone.score), rel=1e-12)

    def test_score_matches_contract(self):
        results = [BenchResult(f"b{i}", float(i + 1), float(10 * i + 1), 1.0) for i in range(5)]
        score = suite_score(results)
        rebuilt = math.exp(math.fsum(score.contributions.values()) / score.total_weight)
        assert abs(score.score - rebuilt) / rebuilt <= 1e-12


def random_results(rng, n=None):
    n = n or rng.randint(1, 30)
    out = []
    for i in range(n):
        out.append(
            BenchResult(
                bench=f"b{i}",
                weight=rng.choice([0.5, 1.0, 2.0, 3.0]),
                perf=rng.uniform(0, 10 ** rng.uniform(0, 8)),
                success_rate=rng.choice([0.0, 0.25, 0.5, 1.0]),
            )
        )
    return out


class TestScoreProperties:
    def test_weight_scaling_invariance(self):
        rng = random.Random(301)
        for _ in range(200):
            results = random_results(rng)
            c = rng.uniform(1e-3, 1e3)
            scaled = [
                BenchResult(r.bench, r.weight * c, r.perf, r.success_rate) for r in results
            ]
            a = suite_score(results).score
            b = suite_score(scaled).score
            assert abs(a - b) / a <= 1e-12

    def test_monotonic_in_perf(self):
        rng = random.Random(302)
        for _ in range(200):
            results = random_results(rng)
            candidates = [i for i, r in enumerate(results) if r.success_rate > 0 and r.weight > 0]
            if not candidates:
                continue
            i = rng.choice(candidates)
            bumped = list(results)
            bumped[i] = BenchResult(
                results[i].bench,
                results[i].weight,
                results[i].perf * 1.5 + 1.0,
                results[i].success_rate,
            )
            assert suite_score(bumped).score > suite_score(results).score

    def test_permutation_invariance(self):
        rng = random.Random(303)
        for _ in range(100):
            results = random_results(rng)
            shuffled = list(results)
            rng.shuffle(shuffled)
            assert suite_score(shuffled).score == pytest.approx(
                suite_score(results).score, rel=1e-13
            )

    def test_failure_floor_equivalence(self):
        rng = random.Random(304)
        for _ in range(100):
            results = random_results(rng)
            i = rng.randrange(len(results))
            zero_s = list(results)
            zero_s[i] = BenchResult(results[i].bench, results[i].weight, results[i].perf, 0.0)
            zero_p = list(results)
            zero_p[i] = BenchResult(results[i].bench, results[i].weight, 0.0, results[i].success_rate)
            assert suite_score(zero_s).score == pytest.approx(
                suite_score(zero_p).score, rel=1e-13
            )

    def test_uniform_suite_equals_p_plus_one(self):
        rng = random.Random(305)
        for _ in range(100):
            p = rng.uniform(0, 1e6)
            n = rng.randint(1, 20)
            results = [BenchResult(f"b{i}", 1.0, p, 1.0) for i in range(n)]
            assert suite_score(results).score == pytest.approx(p + 1.0, rel=1e-12)

    def test_log_domain_matches_extended_precision_naive(self):
        rng = random.Random(306)
        for _ in range(100):
            results = random_results(rng)
            got = suite_score(results).score
            want = naive_score(results)
            assert abs(got - want) / want <= 1e-9


class TestRatio:
    def test_reformer_ratio(self):
        row = ratio_to_baseline(
            BenchResult("reformer", 1.0, 103.7, 1.0), BenchResult("reformer", 1.0, 62.3, 1.0)
        )
        assert row.ratio == pytest.approx(1.66, abs=0.005)

    def test_identity(self):
        row = ratio_to_baseline(
            BenchResult("x", 1.0, 123.4, 1.0), BenchResult("x", 1.0, 123.4, 1.0)
        )
        assert row.ratio == pytest.approx(1.0, rel=1e-12)

    def test_coarse_inputs(self):
        row = ratio_to_baseline(
            BenchResult("fp32", 0.0, 111.0, 1.0), BenchResult("fp32", 0.0, 19.0, 1.0)
        )
        assert round(row.ratio, 2) == pytest.approx(5.84)

    def test_missing_baseline_leaves_ratio_absent(self):
        row = ratio_to_baseline(
            BenchResult("x", 1.0, 10.0, 1.0), BenchResult("x", 1.0, 0.0, 0.0)
        )
        assert row.ratio is None
        assert row.baseline_perf is None

    def test_failed_candidate_leaves_ratio_absent(self):
        row = ratio_to_baseline(
            BenchResult("x", 1.0, 0.0, 0.0), BenchResult("x", 1.0, 10.0, 1.0)
        )
        assert row.ratio is None

    def test_name_mismatch_is_an_error(self):
        with pytest.raises(AggregateError, match="mismatch"):
            ratio_to_baseline(
                BenchResult("a", 1.0, 1.0, 1.0), BenchResult("b", 1.0, 1.0, 1.0)
            )
