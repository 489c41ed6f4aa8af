import dis
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats as sps
from scipy import optimize, special

from oracles import direct_mc_power, full_scan_sample_size, ovl_numeric, where_power
from qleak import stats
from qleak.baseline import (
    HARDWARE,
    SIMULATOR,
    bundled_table,
    catalog_matrices,
    grover_catalog,
    pairwise_matrix,
)
from qleak.stats import (
    PowerSpec,
    TimingDistribution,
    dom_curves,
    effect_size,
    mc_power_oracle,
    normal_approx_sample_size,
    normal_quantile,
    ovl,
    pooled_t_power,
    required_sample_size,
    welch_t,
)


@contextmanager
def every_line_runs(code):
    """Trace the block's runs of `code` and assert that they reach every
    line of it but the `def` line."""
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        yield
    finally:
        sys.settrace(outer)
    lines = {line for _, line in dis.findlinestarts(code) if line}
    assert lines - ran <= {code.co_firstlineno}


class TestSummaries:
    def test_timing_distribution_validation(self):
        with pytest.raises(ValueError):
            TimingDistribution(-1.0, 1.0)
        with pytest.raises(ValueError):
            TimingDistribution(1.0, 0.0)

    @pytest.mark.parametrize("mean,variance", [(math.inf, 0.3), (1.0, math.inf)],
                             ids=["inf-mean", "inf-variance"])
    def test_timing_distribution_must_be_finite(self, mean, variance):
        with pytest.raises(ValueError, match="positive and finite"):
            TimingDistribution(mean, variance)

    def test_power_spec_validation(self):
        with pytest.raises(ValueError):
            PowerSpec(alpha=0.0)
        with pytest.raises(ValueError):
            PowerSpec(power=1.0)

    @pytest.mark.parametrize("alpha", [1e-300, 2.0**-53])
    def test_alpha_the_planner_can_use(self, alpha):
        # 1 - alpha/2 rounds to 1 here: the planner's quantile once failed
        # with a message that named no alpha
        with pytest.raises(ValueError) as info:
            PowerSpec(alpha)
        assert str(info.value) == f"alpha must exceed 2**-53, got {alpha}"
        n = required_sample_size(1.0, PowerSpec(1.2e-16))
        assert n == pytest.approx(180.320201, rel=1e-8)


class TestWelch:
    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, 40)
        b = rng.normal(0.3, 2.0, 55)
        ref = sps.ttest_ind(a, b, equal_var=False)
        t, df = welch_t(a.mean(), a.var(ddof=1), a.size, b.mean(), b.var(ddof=1), b.size)
        assert t == pytest.approx(ref.statistic)
        assert 2 * sps.t.sf(abs(t), df) == pytest.approx(ref.pvalue, rel=1e-9)

    def test_degenerate(self):
        t, df = welch_t(3.0, 0.0, 5, 2.0, 0.0, 5)
        assert t == math.inf and math.isnan(df)
        t, _ = welch_t(2.0, 0.0, 5, 3.0, 0.0, 5)
        assert t == -math.inf
        t, df = welch_t(2.0, 0.0, 5, 2.0, 0.0, 5)
        assert math.isnan(t) and math.isnan(df)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            welch_t(0.0, 0.0, 1, 1.0, 1.0, 5)
        # a NaN count fails "at least two" too, in a scalar or an array
        for n_a, n_b in [(math.nan, 5), (5, math.nan), (np.array([5.0, np.nan]), 5)]:
            with pytest.raises(ValueError):
                welch_t(1.0, 1.0, n_a, 2.0, 1.0, n_b)


class TestOvl:
    def test_identical(self):
        p = TimingDistribution(1.0, 0.5)
        assert ovl(p, p) == 1.0

    @pytest.mark.parametrize(
        "p,q",
        [
            (TimingDistribution(1.0, 0.3), TimingDistribution(1.2, 0.3)),
            (TimingDistribution(1.0, 0.3), TimingDistribution(1.2, 0.9)),
            (TimingDistribution(2.0, 1.5), TimingDistribution(2.0, 0.1)),
            (TimingDistribution(5.0, 0.003), TimingDistribution(5.4, 0.003)),
        ],
    )
    def test_matches_quadrature(self, p, q):
        assert ovl(p, q) == pytest.approx(ovl_numeric(p, q), abs=1e-9)

    def test_symmetric_and_bounded(self):
        p = TimingDistribution(1.0, 0.2)
        q = TimingDistribution(1.5, 0.7)
        assert ovl(p, q) == pytest.approx(ovl(q, p))
        assert 0.0 < ovl(p, q) < 1.0

    def test_variances_a_rounding_apart(self):
        # the compile-randomness mixtures of Quantum State Tomography and
        # T1/Qubit Lifetimes on the simulator (spread 0.7, 7 layouts):
        # unequal variances whose quadratic has a leading coefficient of 0
        p = TimingDistribution(0.8559978010000001, 0.05744444444444447)
        q = TimingDistribution(1.288301706, 0.057444444444444465)
        assert p.variance != q.variance
        assert ovl(p, q) == ovl(q, p) == pytest.approx(ovl_numeric(p, q), abs=1e-9)


class TestEffectSize:
    def test_pooled_over_the_pair(self):
        p = TimingDistribution(1.0, 0.2)
        q = TimingDistribution(1.6, 0.6)
        assert effect_size(p, q) == pytest.approx(0.6 / math.sqrt(0.4))
        assert effect_size(q, p) == effect_size(p, q)

    def test_equal_means_give_zero_and_inf_n(self):
        p = TimingDistribution(2.0, 0.3)
        assert effect_size(p, p) == 0.0
        assert required_sample_size(effect_size(p, p)) == math.inf

    def test_accepts_any_mean_variance_pair(self):
        a = SimpleNamespace(mean=1.0, variance=0.5)
        b = SimpleNamespace(mean=2.0, variance=1.5)
        assert effect_size(a, b) == pytest.approx(1.0)

    def test_zero_pooled_variance_rejected(self):
        s = SimpleNamespace(mean=1.0, variance=0.0)
        with pytest.raises(ValueError):
            effect_size(s, SimpleNamespace(mean=2.0, variance=0.0))


class TestPower:
    def test_power_at_solution(self):
        for d in (0.05, 0.3, 1.0):
            n = required_sample_size(d)
            assert pooled_t_power(n, d) == pytest.approx(0.80, abs=1e-9)

    def test_reference_value(self):
        # GHZ vs Hidden Shift on the simulator: |dmu|/sd with variance 0.003
        d = abs(0.168084145 - 0.163739443) / math.sqrt(0.003)
        assert required_sample_size(d) == pytest.approx(2495.773047, rel=1e-6)

    def test_floor_rule(self):
        # large effects need fewer than two observations per group and
        # report as one
        assert required_sample_size(50.0) == 1.0
        assert required_sample_size(math.inf) == 1.0

    def test_monotone_in_effect(self):
        ns = [required_sample_size(d) for d in (0.02, 0.05, 0.1, 0.5)]
        assert ns == sorted(ns, reverse=True)

    def test_nonpositive_effect(self):
        assert required_sample_size(0.0) == math.inf
        assert required_sample_size(-1.0) == math.inf

    def test_normal_approx_close_for_small_effects(self):
        d = 0.05
        assert normal_approx_sample_size(d) == pytest.approx(
            required_sample_size(d), rel=1e-3
        )

    #: required_sample_size at the last scipy.stats-based solver, to 1e-12
    FROZEN = [
        (0.001, 15697721.979017163),
        (0.01, 156978.17055699436),
        (0.05, 6280.0489162914),
        (0.08, 2453.7296428112963),
        (0.28, 201.19091322795734),
        (1.0, 16.714722447035765),
        (2.0, 5.089994568269908),
        (3.0, 3.0700090816768926),
        (5.5, 2.0241004944698635),
        (10.0, 1.0),  # brentq lands below two observations
        (30.0, 1.0),  # here and at 50 no grid point falls below the target
        (50.0, 1.0),
    ]

    @pytest.mark.parametrize("d,n", FROZEN)
    def test_frozen_solutions(self, d, n):
        assert required_sample_size(d) == pytest.approx(n, rel=1e-12)

    def test_nan_effect_rejected(self):
        with pytest.raises(ValueError):
            required_sample_size(math.nan)
        with pytest.raises(ValueError):
            normal_approx_sample_size(math.nan)

    def test_overflowing_plan_is_inf(self):
        # (z / d) ** 2 overflows below d of about 1.5e-154; at 5e-324 z / d
        # is already inf. Neither may warn or raise.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (1e-154, 1e-200, 5e-324):
                assert normal_approx_sample_size(d) == math.inf
                assert required_sample_size(d) == math.inf
                assert required_sample_size(d, PowerSpec(0.001, 0.99)) == math.inf

    def test_tiny_effect_matches_scipy(self):
        # the plan is finite but its Brent solve divides by zero on the way;
        # scipy.optimize.brentq on the same bracket gives these bits
        assert required_sample_size(1e-100).hex() == "0x1.4820074de3a81p+668"

    @pytest.mark.parametrize("n", [10, np.array(10.0)])
    @pytest.mark.parametrize(
        "d,alpha", [(math.nan, 0.05), (0.5, math.nan), (0.5, 0.0), (0.5, 1.0), (0.5, -0.1)]
    )
    def test_power_rejects_nan_effect_and_bad_alpha(self, n, d, alpha):
        with pytest.raises(ValueError):
            pooled_t_power(n, d, alpha)

    def test_normal_fallback(self):
        # the noncentral t cdf is NaN at ncp = 5.5 * sqrt(50); the normal
        # approximation takes over
        df = 198.0
        tcrit = special.stdtrit(df, 0.975)
        assert math.isnan(special.nctdtr(df, 5.5 * math.sqrt(50.0), tcrit))
        assert pooled_t_power(100, 5.5) == 1.0

    @pytest.mark.parametrize("n", [1.0, np.float64(1.0), np.array(1.0), math.nan])
    def test_needs_two_per_group(self, n):
        with pytest.raises(ValueError):
            pooled_t_power(n, 0.3)

    @pytest.mark.parametrize("n", [np.array([1.0, 2.0]), np.array([np.nan, 3.0])])
    def test_array_n_rejected(self, n):
        with pytest.raises(TypeError):
            pooled_t_power(n, 0.3)

    @pytest.mark.parametrize("n", [7, 7.3, np.float64(7.3), np.array(7.3)])
    def test_scalar_gives_float(self, n):
        assert type(pooled_t_power(n, 0.3)) is float

    def test_matches_where_formula(self):
        # ncp = d sqrt(n / 2) stays below 4, where one nctdtr call gives
        # both tails, over the whole range at d = 1e-3 and up to n = 355
        # at d = 0.3
        ns = np.logspace(math.log10(1.0001), 7, 400)
        for alpha in (0.05, 0.01, 0.001, 0.2):
            for d in (1e-3, 0.3, 5.5, 30.0):
                powers = [pooled_t_power(n, d, alpha).hex() for n in ns]
                assert powers == [p.hex() for p in where_power(ns, d, alpha).tolist()]

    def test_mc_oracle_agrees(self):
        d = 0.28
        n = math.ceil(required_sample_size(d))
        p = mc_power_oracle(
            TimingDistribution(1.0, 1.0),
            TimingDistribution(1.0 + d, 1.0),
            n,
            trials=4000,
            seed=3,
        )
        assert p == pytest.approx(0.80, abs=0.03)

    def test_mc_oracle_guards(self):
        p = TimingDistribution(1.0, 1.0)
        with pytest.raises(ValueError):
            mc_power_oracle(p, p, 1)
        with pytest.raises(ValueError):
            mc_power_oracle(p, p, 10, trials=10)
        with pytest.raises(ValueError):  # one row past a block
            mc_power_oracle(p, p, 65_537)


class TestOracle:
    """`mc_power_oracle` against the direct draws of `oracles.direct_mc_power`."""

    #: trials per group size n, from 2 to the plan at d = 0.05; 4,001 trials
    #: at n = 1,000 take three batches, the last of one trial, and no trial
    #: count is a multiple of its block rows
    SIZES = {2: 1500, 3: 1500, 7: 1500, 74: 1500, 483: 1500, 1000: 4001, 6280: 1001}
    #: (var_b, alpha, shifted) of the one config run at n = 6,280, the
    #: slowest size
    LARGEST_CONFIG = (1.0, 0.05, True)

    @pytest.fixture(scope="class")
    def sweep(self):
        """(config, oracle, reference) for every config of the sweep, and the
        paths the oracle's last batches took: sure rejections, sure
        acceptances and exact `stdtrit` comparisons."""
        code = stats.mc_power_oracle.__code__
        paths = set()

        def trace(frame, event, arg):
            if frame.f_code is not code:
                return None
            if event == "return":
                v = frame.f_locals
                decided = ~v["exact"]
                paths.update(
                    name for name, hit in (
                        ("sure-reject", (v["reject"] & decided).any()),
                        ("sure-accept", (~v["reject"] & decided).any()),
                        ("exact", v["exact"].any()),
                    ) if hit
                )
            return trace

        results = []
        outer = sys.gettrace()
        sys.settrace(trace)
        try:
            for n, trials in self.SIZES.items():
                for var_b in (1.0, 2.5):
                    for alpha in (0.05, 0.01):
                        spec = PowerSpec(alpha)
                        z = normal_quantile(1 - alpha / 2) + normal_quantile(spec.power)
                        # no shift, and the shift whose normal-approximation plan is n
                        for d in (0.0, z * math.sqrt((1.0 + var_b) / n)):
                            if n == 6280 and (var_b, alpha, d > 0) != self.LARGEST_CONFIG:
                                continue
                            p = TimingDistribution(1.0, 1.0)
                            q = TimingDistribution(1.0 + d, var_b)
                            got = mc_power_oracle(p, q, n, spec, trials, seed=n)
                            want = direct_mc_power(p, q, n, spec, trials, seed=n)
                            results.append(((n, var_b, alpha, d), got, want))
        finally:
            sys.settrace(outer)
        return results, paths

    def test_matches_direct_draws(self, sweep):
        results, _ = sweep
        assert [r for r in results if r[1] != r[2]] == []
        powers = [got for _, got, _ in results]
        assert min(powers) < 0.1 and max(powers) > 0.7
        assert all(t % (stats._MC_BLOCK_DRAWS // n) for n, t in self.SIZES.items())
        assert self.SIZES[1000] > 2 * (4_000_000 // (2 * 1000))  # three batches

    def test_sweep_reaches_every_path(self, sweep):
        _, paths = sweep
        assert paths == {"sure-reject", "sure-accept", "exact"}

    @pytest.mark.parametrize(
        "n,trials", [(74.0, 1000), (math.nan, 1000), (74, math.nan), (74, 1000.0)]
    )
    def test_rejects_non_integers(self, n, trials):
        # a NaN trial count once passed the check and never returned
        p = TimingDistribution(1.0, 1.0)
        with pytest.raises(ValueError):
            mc_power_oracle(p, p, n, trials=trials)

    def test_numpy_integers_accepted(self):
        p, q = TimingDistribution(1.0, 1.0), TimingDistribution(1.3, 1.0)
        got = mc_power_oracle(p, q, np.int64(74), trials=np.int64(1000), seed=5)
        assert got == mc_power_oracle(p, q, 74, trials=1000, seed=5)

    def test_memory_is_one_block(self):
        # holding all (trials, n) draws of both groups peaks at about 23 MiB
        p, q = TimingDistribution(1.0, 1.0), TimingDistribution(1.3, 1.0)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            mc_power_oracle(p, q, 74, trials=13_514)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 4 * 2**20


class TestBracketSearch:
    """`required_sample_size` against the full scan of its bracket grid."""

    #: log-spaced effect sizes and 30; across the specs they reach the root
    #: from n = 4 up, the root below 4, no grid point short of target and
    #: the nctdtr NaN fallback (test_regimes_reached)
    EFFECTS = np.append(np.logspace(-3, math.log10(50.0), 80), 30.0)

    @pytest.mark.parametrize(
        "spec",
        [PowerSpec(), PowerSpec(0.01, 0.9), PowerSpec(0.001, 0.99), PowerSpec(0.2, 0.5)],
    )
    def test_matches_full_scan(self, spec):
        expected = [full_scan_sample_size(float(d), spec) for d in self.EFFECTS]
        stats._solve_sample_size.cache_clear()
        got = [required_sample_size(float(d), spec) for d in self.EFFECTS]
        assert [n.hex() for n in got] == [n.hex() for n in expected]
        assert max(expected) > 4.0 and any(2.0 <= n < 4.0 for n in expected)

    #: the specs of test_matches_full_scan
    SPECS = [PowerSpec(), PowerSpec(0.01, 0.9), PowerSpec(0.001, 0.99), PowerSpec(0.2, 0.5)]

    #: beyond EFFECTS: a plan too large to be finite, and at alpha = 1e-14
    #: effect sizes whose Guenther guess lies past hi
    EXTRA = [(1e-200, PowerSpec()), (6.0, PowerSpec(1e-14, 0.5)), (8.0, PowerSpec(1e-14, 0.5))]

    def test_search_starts_every_way(self, monkeypatch):
        # a cold solve first evaluates the point its search starts at. Over
        # EFFECTS and EXTRA the search starts above the bracket point, 32 or
        # more grid steps below it, at the grid's last point and on a grid
        # with no point short of the target; every line of the solver runs
        # and each result is the full scan's
        evaluated, starts = [], set()
        inner = stats.pooled_t_power

        def recording(n, d, alpha=0.05):
            evaluated.append(float(n))
            return inner(n, d, alpha)

        monkeypatch.setattr(stats, "pooled_t_power", recording)
        cases = [(float(d), spec) for spec in self.SPECS for d in self.EFFECTS]
        with every_line_runs(stats._solve_sample_size.__wrapped__.__code__):
            for d, spec in cases + self.EXTRA:
                evaluated.clear()
                stats._solve_sample_size.cache_clear()
                got = required_sample_size(d, spec)
                if got == math.inf:
                    assert not evaluated
                    continue
                assert got.hex() == full_scan_sample_size(d, spec).hex(), (d, spec)
                hi = max(4.0 * normal_approx_sample_size(d, spec), 16.0)
                grid = np.logspace(math.log10(1.5), math.log10(hi), 400)
                bracket = int(np.count_nonzero(where_power(grid, d, spec.alpha) < spec.power)) - 1
                start = int(np.searchsorted(grid, evaluated[0]))
                assert grid[start] == evaluated[0]
                starts |= {
                    "none" if bracket < 0 else "above" if start > bracket
                    else "far below" if bracket - start >= 32 else "near",
                    "last" if start == grid.size - 1 else "inside",
                }
        assert starts == {"none", "above", "far below", "near", "last", "inside"}

    def test_regimes_reached(self):
        # at d = 30 and 50 the grid ends at hi = 16, no point of it falls
        # short of the target, and nctdtr is NaN on part of it
        grid = np.logspace(math.log10(1.5), math.log10(16.0), 400)
        df = 2.0 * grid - 2.0
        for d in (30.0, 50.0):
            assert (where_power(grid, d, 0.05) >= 0.8).all()
            cdf = special.nctdtr(df, d * np.sqrt(grid / 2.0), special.stdtrit(df, 0.975))
            assert np.isnan(cdf).any()

    def test_short_points_are_a_prefix(self):
        # the solver bisects its whole grid for the last point short of the
        # target, which finds the full scan's point only if the points short
        # of it come first: a run of True, then a run of False. Effect sizes
        # from 2 up put that point below n = 4 or leave none, and those
        # from about 15 to 50 take the nctdtr NaN fallback.
        regimes, fallback = set(), False
        for d in np.logspace(math.log10(2.0), math.log10(500.0), 30):
            for alpha in (0.05, 0.01, 0.001):
                for power in (0.5, 0.8, 0.9, 0.99):
                    spec = PowerSpec(alpha, power)
                    hi = max(4.0 * normal_approx_sample_size(d, spec), 16.0)
                    grid = np.logspace(math.log10(1.5), math.log10(hi), 400)
                    short = where_power(grid, d, alpha) < power
                    k = int(np.count_nonzero(short))
                    assert short[:k].all(), (d, alpha, power)
                    regimes.add("none" if k == 0 else grid[k - 1] < 4.0)
                df = 2.0 * grid - 2.0
                cdf = special.nctdtr(
                    df, d * np.sqrt(grid / 2.0), special.stdtrit(df, 1.0 - alpha / 2.0)
                )
                fallback |= bool(np.isnan(cdf).any())
        # no point short, the last short point below 4, and from 4 up
        assert regimes == {"none", True, False} and fallback


class TestBrent:
    """`stats._brentq` against `scipy.optimize.brentq`, bit for bit."""

    #: (f, a, b, xtol, rtol); between them the cases interpolate,
    #: extrapolate, fall back to bisection, divide by zero, take the minimum
    #: `delta` step and find a root at either end (test_cases_run_every_line)
    CASES = {
        "square": (lambda x: x * x - 2.0, 0.0, 2.0, 1e-12, 8.9e-16),
        "exp": (lambda x: math.exp(x) - 5.0, -4.0, 6.0, 1e-12, 8.9e-16),
        "cos-loose-rtol": (lambda x: math.cos(x) - x, 0.0, 1.0, 2e-12, 1e-9),
        "atan-coarse-xtol": (
            lambda x: math.atan(x - 0.3), -50.0, 10.0, 1e-3, 8.9e-16
        ),
        "root-at-a": (lambda x: x - 1.0, 1.0, 5.0, 1e-12, 8.9e-16),
        "root-at-b": (lambda x: x - 5.0, 1.0, 5.0, 1e-12, 8.9e-16),
        # products of these values underflow to zero; only the signs count
        "tiny-values": (
            lambda x: math.copysign(1e-200, x - 0.3), 0.0, 1.0, 1e-12, 8.9e-16
        ),
        "power-solve": (
            lambda n: pooled_t_power(n, 0.28) - 0.8, 50.0, 1000.0, 1e-12, 8.9e-16
        ),
        # the bracket of required_sample_size(1e-100): slopes near 1e-202
        # multiply to zero, so extrapolation divides by zero and bisects
        "zero-denominator": (
            lambda n: pooled_t_power(n, 1e-100) - 0.8,
            6.127199774293273e200, 6.279103787479272e201, 1e-12, 8.9e-16,
        ),
    }

    #: (f, a, b, maxiter) on which both solvers raise
    FAILURES = {
        "same-sign": (lambda x: x * x + 1.0, -1.0, 1.0, 100),
        "same-sign-tiny": (lambda x: math.copysign(1e-200, x), 1.0, 2.0, 100),
        "nan-at-end": (lambda x: math.nan if x > 1.5 else x - 1.0, 0.0, 2.0, 100),
        "nan-inside": (
            lambda x: x - 1.0 if abs(x - 1.0) > 0.5 else math.nan, 0.0, 2.0, 100
        ),
        "too-flat": (lambda x: (x - 1.0) ** 9, 0.0, 3.0, 100),
        "maxiter": (lambda x: x * x - 2.0, 0.0, 2.0, 2),
    }

    @pytest.mark.parametrize("f,a,b,xtol,rtol", CASES.values(), ids=list(CASES))
    def test_matches_scipy(self, f, a, b, xtol, rtol):
        got = stats._brentq(f, a, b, xtol, rtol)
        assert got.hex() == optimize.brentq(f, a, b, xtol=xtol, rtol=rtol).hex()

    @pytest.mark.parametrize("f,a,b,maxiter", FAILURES.values(), ids=list(FAILURES))
    def test_raises_as_scipy(self, f, a, b, maxiter):
        with pytest.raises((ValueError, RuntimeError)) as ref:
            optimize.brentq(f, a, b, xtol=1e-12, rtol=8.9e-16, maxiter=maxiter)
        with pytest.raises(ref.type):
            stats._brentq(f, a, b, 1e-12, 8.9e-16, maxiter)

    def test_cases_run_every_line(self):
        with every_line_runs(stats._brentq.__code__):
            for f, a, b, xtol, rtol in self.CASES.values():
                stats._brentq(f, a, b, xtol, rtol)
            for f, a, b, maxiter in self.FAILURES.values():
                with pytest.raises((ValueError, RuntimeError)):
                    stats._brentq(f, a, b, 1e-12, 8.9e-16, maxiter)


class TestSolverWork:
    """Power points a cold solve evaluates, counted rather than timed. The
    full scan of the 400-point grid took 131,345 for the hardware matrix
    and 21,217 for the Grover catalog; bisecting the grid from n = 4 up
    and scanning below 4 took 37,676 and 849; bisecting all of it took
    4,072 and 877, and 4,543 for the simulator matrix. Galloping from the
    grid point below Guenther's corrected normal n, with Brent's first end
    taken from the search, takes 2,382, 469 and 3,277."""

    @pytest.fixture
    def points(self, monkeypatch):
        count = [0]
        inner = stats.pooled_t_power

        def counting(n, d, alpha=0.05):
            count[0] += np.size(n)
            return inner(n, d, alpha)

        monkeypatch.setattr(stats, "pooled_t_power", counting)
        stats._solve_sample_size.cache_clear()
        return count

    def test_pairwise_matrix(self, points):
        pairwise_matrix(bundled_table(), HARDWARE)
        assert 0 < points[0] <= 2_500

    def test_simulator_matrix(self, points):
        pairwise_matrix(bundled_table(), SIMULATOR)
        assert 0 < points[0] <= 3_400

    def test_catalog_matrices(self, points):
        catalog_matrices(grover_catalog())
        assert 0 < points[0] <= 500


def test_import_skips_scipy_stats():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, qleak, qleak.cli; print(sorted(m for m in sys.modules"
        " if m in ('scipy.stats', 'scipy.integrate', 'scipy.optimize')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestDom:
    def test_matches_naive_loop(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 1.0, 64)
        b = rng.normal(0.5, 2.0, 64)
        ns, dom, band = dom_curves(a, b)
        z = sps.norm.ppf(0.975)
        for i, n in enumerate(ns):
            pa, pb = a[:n], b[:n]
            assert dom[i] == pytest.approx(pa.mean() - pb.mean())
            expect = z * math.sqrt(
                (pa.var(ddof=1) + pb.var(ddof=1)) / n
            )
            assert band[i] == pytest.approx(expect)

    def test_truncates_to_shorter(self):
        ns, _, _ = dom_curves(np.zeros(10) + 1e-3, np.ones(7))
        assert ns[0] == 2 and ns[-1] == 7
