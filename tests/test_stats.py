import dis
import functools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats as sps
from scipy import special

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
    ovl,
    pooled_t_power,
    required_sample_size,
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
        (10.0, 1.0),  # the root lies below two observations
        (30.0, 1.0),  # here and at 50 the power at n = 2 meets the target
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
        # (z / d) ** 2 overflows below d of about 2.1e-154; at 5e-324 z / d
        # is already inf. Neither may warn or raise.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (1e-154, 1e-200, 5e-324):
                assert normal_approx_sample_size(d) == math.inf
                assert required_sample_size(d) == math.inf
                assert required_sample_size(d, PowerSpec(0.001, 0.99)) == math.inf

    @pytest.mark.parametrize(
        "d,spec,n",
        [
            (1.0341325719950269e-153, PowerSpec(0.01, 0.99), "0x1.ffffffffffe70p+1021"),
            (2.7034808588303332e-154, PowerSpec(0.2, 0.5), "0x1.f5418b1209ee3p+1021"),
        ],
    )
    def test_grid_ending_past_the_largest_float(self, d, spec, n):
        # plans near the largest float: 4 × the normal n is finite, but a
        # log grid up to it would end in inf (10**log10 rounds past the
        # largest float). The plan stays within 1e-12 of scipy's brentq on
        # that grid, n, and nothing warns
        stats._solve_sample_size.cache_clear()
        hi = 4.0 * normal_approx_sample_size(d, spec)
        with pytest.raises(OverflowError):
            10.0 ** math.log10(hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert required_sample_size(d, spec) == pytest.approx(float.fromhex(n), rel=1e-12)

    def test_tiny_effect_matches_scipy(self):
        # a finite plan far from the float range's ends: within 1e-12 of
        # scipy.optimize.brentq on a 400-point log grid, without a warning
        stats._solve_sample_size.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n = required_sample_size(1e-100)
        assert n == pytest.approx(float.fromhex("0x1.4820074de3a81p+668"), rel=1e-12)

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

    @pytest.mark.parametrize("alpha", [1e-4, 1e-6, 1e-10, 1e-14])
    def test_small_alpha_power_is_a_probability(self, alpha):
        # while ncp < 4 the opposite tail's nctdtr is NaN at scattered
        # points at small alpha, and pooled_t_power returned that NaN;
        # the tail now takes the same normal fallback as the main one
        ns = np.logspace(math.log10(1.5), 8, 300).tolist()
        ncps = np.linspace(0.0, 4.0, 60, endpoint=False).tolist()
        powers = np.array([pooled_t_power(n, ncp / math.sqrt(n / 2.0), alpha)
                           for n in ns for ncp in ncps])
        assert ((powers >= 0.0) & (powers <= 1.0)).all()

    @pytest.mark.parametrize("n,d,alpha", [(622, 0.15895973391451704, 1e-15),
                                           (5000, 0.0676, 1e-6)])
    def test_opposite_tail_fallback(self, n, d, alpha):
        df = 2.0 * n - 2.0
        tcrit = special.stdtrit(df, 1.0 - alpha / 2.0)
        assert math.isnan(special.nctdtr(df, d * math.sqrt(n / 2.0), -tcrit))
        assert 0.0 < pooled_t_power(n, d, alpha) < 1.0

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
        # ncp = d sqrt(n / 2) stays below 4, where the opposite tail is
        # added, over the whole range at d = 1e-3 and up to n = 355 at
        # d = 0.3; at alpha 1e-10 that tail takes its normal fallback at
        # 14 of these points
        ns = np.logspace(math.log10(1.0001), 7, 400)
        for alpha in (0.05, 0.01, 0.001, 0.2, 1e-10):
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
        """(config, oracle, reference) for every config of the sweep."""
        results = []
        for n, trials in self.SIZES.items():
            for var_b in (1.0, 2.5):
                for alpha in (0.05, 0.01):
                    spec = PowerSpec(alpha)
                    z = special.ndtri(1 - alpha / 2) + special.ndtri(spec.power)
                    # no shift, and the shift whose normal-approximation plan is n
                    for d in (0.0, z * math.sqrt((1.0 + var_b) / n)):
                        if n == 6280 and (var_b, alpha, d > 0) != self.LARGEST_CONFIG:
                            continue
                        p = TimingDistribution(1.0, 1.0)
                        q = TimingDistribution(1.0 + d, var_b)
                        got = mc_power_oracle(p, q, n, spec, trials, seed=n)
                        want = direct_mc_power(p, q, n, spec, trials, seed=n)
                        results.append(((n, var_b, alpha, d), got, want))
        return results

    def test_matches_direct_draws(self, sweep):
        assert [r for r in sweep if r[1] != r[2]] == []
        powers = [got for _, got, _ in sweep]
        assert min(powers) < 0.1 and max(powers) > 0.7
        assert all(t % (stats._MC_BLOCK_DRAWS // n) for n, t in self.SIZES.items())
        assert self.SIZES[1000] > 2 * (4_000_000 // (2 * 1000))  # three batches

    def test_rows_of_equal_draws(self):
        # at sd 1e-150 every draw equals its mean: t is +-inf apart and NaN
        # at equal means, with no warning
        p, q = TimingDistribution(1.0, 1e-300), TimingDistribution(2.0, 1e-300)
        assert mc_power_oracle(p, q, 2, trials=1000) == 1.0
        assert mc_power_oracle(p, p, 2, trials=1000) == 0.0

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

    @staticmethod
    def call_alone(call):
        """`call()` on a thread of its own, bounded in time: its result, or
        its exception raised here, once no thread it started is left."""
        before, out = threading.enumerate(), {}

        def run():
            try:
                out["result"] = call()
            except BaseException as exc:  # raised below, on the test's thread
                out["error"] = exc

        caller = threading.Thread(target=run, daemon=True)  # a hung call must not block exit
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "the oracle call hung"
        assert threading.enumerate() == before
        if "error" in out:
            raise out["error"]
        return out["result"]

    def test_no_thread_outlives_a_call(self):
        p, q = TimingDistribution(1.0, 1.0), TimingDistribution(1.3, 1.0)
        assert 0 < self.call_alone(lambda: mc_power_oracle(p, q, 74, trials=1000))
        # the first of three batches of 40,000 trials overflows the variances
        huge = TimingDistribution(1e300, 1e300)
        assert math.isnan(self.call_alone(
            lambda: mc_power_oracle(huge, huge, 50, trials=100_000)))
        with pytest.raises(ValueError):
            self.call_alone(lambda: mc_power_oracle(p, q, 1))

    def test_caller_failure_ends_the_helper(self):
        class Interrupting:  # the caller reads sd once per block: stop it at the second
            mean, reads = 1.0, 0

            @property
            def sd(self):
                self.reads += 1
                if self.reads > 1:
                    raise KeyboardInterrupt
                return 1.0

        p = TimingDistribution(1.0, 1.0)
        with pytest.raises(KeyboardInterrupt):  # 167 blocks per group at n = 10,000
            self.call_alone(lambda: mc_power_oracle(p, Interrupting(), 10_000, trials=1000))

    def test_helper_failure_reaches_the_caller(self, monkeypatch):
        default_rng = np.random.default_rng

        class Failing:  # fails its third block
            def __init__(self, seed):
                self.rng, self.blocks = default_rng(seed), 0

            def standard_normal(self, out):
                self.blocks += 1
                if self.blocks == 3:
                    raise MemoryError("third block")
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(np.random, "default_rng", Failing)
        p = TimingDistribution(1.0, 1.0)
        with pytest.raises(MemoryError, match="third block"):
            self.call_alone(lambda: mc_power_oracle(p, p, 10_000, trials=1000))

    def test_reentrant(self):
        # two calls and their helpers, four threads on a short switch interval
        p, q = TimingDistribution(1.0, 1.0), TimingDistribution(1.2, 1.5)
        alone = {seed: mc_power_oracle(p, q, 200, trials=6000, seed=seed) for seed in (3, 4)}
        together, start = {}, threading.Barrier(2, timeout=60)

        def call(seed):
            start.wait()
            together[seed] = mc_power_oracle(p, q, 200, trials=6000, seed=seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(seed,)) for seed in (3, 4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert together == alone


def assert_plans_close(got, expected, rel=1e-12):
    """Plans equal where either is inf or 1.0, else within `rel`."""
    for g, e in zip(got, expected, strict=True):
        if math.isinf(e) or e == 1.0 or math.isinf(g) or g == 1.0:
            assert g == e
        else:
            assert abs(g - e) <= rel * e, (g, e)


class TestBracketSearch:
    """`required_sample_size` against the full scan of a log grid, then
    scipy's brentq (`oracles.full_scan_sample_size`)."""

    #: log-spaced effect sizes and 30; across the specs they reach the root
    #: from n = 4 up, the root below 4, no grid point short of target and
    #: the nctdtr NaN fallback (test_regimes_reached)
    EFFECTS = np.append(np.logspace(-3, math.log10(50.0), 80), 30.0)

    #: the specs of test_matches_full_scan
    SPECS = [PowerSpec(), PowerSpec(0.01, 0.9), PowerSpec(0.001, 0.99), PowerSpec(0.2, 0.5)]

    #: beyond EFFECTS: a plan too large to be finite, at alpha = 1e-14
    #: effect sizes whose Guenther guess lies past the grid's end, and at
    #: alpha = 1e-4 one whose solve once met a NaN opposite tail and raised
    EXTRA = [(1e-200, PowerSpec()), (6.0, PowerSpec(1e-14, 0.5)), (8.0, PowerSpec(1e-14, 0.5)),
             (0.6729500963161789, PowerSpec(1e-4, 0.5))]

    #: the full scan's n, computed once per (d, spec)
    full_scan = staticmethod(functools.cache(full_scan_sample_size))

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_full_scan(self, spec):
        expected = [self.full_scan(float(d), spec) for d in self.EFFECTS]
        stats._solve_sample_size.cache_clear()
        got = [required_sample_size(float(d), spec) for d in self.EFFECTS]
        assert_plans_close(got, expected)
        assert max(expected) > 4.0 and any(2.0 <= n < 4.0 for n in expected)

    def test_cases_run_every_line(self):
        # over EFFECTS and EXTRA the bracket gallops up and down, regula
        # falsi halves either end's value, and every line of the solver
        # runs; each result is within 1e-12 of the full scan
        cases = [(float(d), spec) for spec in self.SPECS for d in self.EFFECTS] + self.EXTRA
        stats._solve_sample_size.cache_clear()
        with every_line_runs(stats._solve_sample_size.__wrapped__.__code__):
            got = [required_sample_size(d, spec) for d, spec in cases]
        assert_plans_close(got, [self.full_scan(d, spec) for d, spec in cases])
        assert math.inf in got and 1.0 in got

    def test_regimes_reached(self):
        # at d = 30 and 50 the power at every n from 1.5 to 16 meets the
        # target, and nctdtr is NaN on part of that range
        grid = np.logspace(math.log10(1.5), math.log10(16.0), 400)
        df = 2.0 * grid - 2.0
        for d in (30.0, 50.0):
            assert (where_power(grid, d, 0.05) >= 0.8).all()
            cdf = special.nctdtr(df, d * np.sqrt(grid / 2.0), special.stdtrit(df, 0.975))
            assert np.isnan(cdf).any()

    def test_short_points_are_a_prefix(self):
        # the solver brackets the root between a point short of the target
        # and one that meets it, which gives the root only if the power
        # crosses the target once: on a log grid, a run of True, then a run
        # of False. Effect sizes from 2 up put the crossing below n = 4 or
        # leave none, and those from about 15 to 50 take the nctdtr NaN
        # fallback.
        def short_points(d, alpha, power):
            spec = PowerSpec(alpha, power)
            hi = max(4.0 * normal_approx_sample_size(d, spec), 16.0)
            grid = np.logspace(math.log10(1.5), math.log10(hi), 400)
            short = where_power(grid, d, alpha) < power
            k = int(np.count_nonzero(short))
            assert short[:k].all(), (d, alpha, power)
            return grid, k

        regimes, fallback = set(), False
        for d in np.logspace(math.log10(2.0), math.log10(500.0), 30):
            for alpha in (0.05, 0.01, 0.001):
                for power in (0.5, 0.8, 0.9, 0.99):
                    grid, k = short_points(d, alpha, power)
                    regimes.add("none" if k == 0 else grid[k - 1] < 4.0)
                df = 2.0 * grid - 2.0
                cdf = special.nctdtr(
                    df, d * np.sqrt(grid / 2.0), special.stdtrit(df, 1.0 - alpha / 2.0)
                )
                fallback |= bool(np.isnan(cdf).any())
        # no point short, the last short point below 4, and from 4 up
        assert regimes == {"none", True, False} and fallback
        # at small alpha the opposite tail is NaN at scattered points, which
        # read as not short before it took the fallback: at alpha 1e-14,
        # power 0.5 and d = 1e-4 the points were short up to index 376 but
        # not at 335, 337, 338, ...
        for d in (1e-4, 3e-3, 0.1):
            for alpha in (1e-6, 1e-10, 1e-14):
                for power in (0.5, 0.8):
                    short_points(d, alpha, power)


class TestPlannerReference:
    """`required_sample_size` against the true root: `planner_reference.json`,
    written by `make_planner_reference.py` with mpmath to 1e-20."""

    CASES = json.loads(Path(__file__).with_name("planner_reference.json").read_text())

    #: (d, alpha, power) -> cause, for the cases further than 1e-12 from
    #: the root
    EXCEPTIONS = dict.fromkeys(
        [(2.4375195465405075, 0.01, 0.8), (3.3435771119993123, 0.01, 0.8),
         (2.5, 0.01, 0.8), (3.0, 0.01, 0.8), (4.0, 0.05, 0.8), (4.0, 0.01, 0.8),
         (5.0, 0.05, 0.8)],
        "pooled_t_power drops the opposite tail once ncp >= 4, which at under "
        "about 8 degrees of freedom is 4e-12 to 1.3e-8 of power",
    )

    def test_within_1e_12_of_the_true_root(self):
        stats._solve_sample_size.cache_clear()
        keys = [(c["d"], c["alpha"], c["power"]) for c in self.CASES]
        got = [required_sample_size(d, PowerSpec(alpha, power)) for d, alpha, power in keys]
        expected = [float(c["n"]) for c in self.CASES]
        off = {k for k, g, e in zip(keys, got, expected) if abs(g - e) > 1e-12 * e}
        assert off == set(self.EXCEPTIONS)
        assert_plans_close(got, expected, rel=1e-7)
        assert len(self.CASES) == 139 and expected.count(1.0) == 12


class TestSolverWork:
    """Power points a cold solve evaluates, counted rather than timed. On
    a 400-point log grid, the full scan took 131,345 for the hardware matrix
    and 21,217 for the Grover catalog; bisecting the grid from n = 4 up
    and scanning below 4 took 37,676 and 849; bisecting all of it took
    4,072 and 877, and 4,543 for the simulator matrix; galloping from the
    grid point below Guenther's corrected normal n, with Brent's first end
    taken from the search, took 2,382, 469 and 3,277. Galloping from
    Guenther's n itself, then Illinois regula falsi, takes 1,341, 385 and
    1,350."""

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
        assert 0 < points[0] <= 1_400

    def test_simulator_matrix(self, points):
        pairwise_matrix(bundled_table(), SIMULATOR)
        assert 0 < points[0] <= 1_400

    def test_catalog_matrices(self, points):
        catalog_matrices(grover_catalog())
        assert 0 < points[0] <= 400


def test_import_loads_the_kernels_alone():
    """`import qleak` loads `cython_special` and `numpy.random`, but not
    `scipy.special`'s __init__ (its array-API layer loads numpy.f2py and
    more) nor scipy.stats and its kin; a later `import scipy.special` runs
    the __init__ and finds the same kernel module. The oracle's helper
    thread needs only `threading`: no executor or queue module (and the
    `logging` that `concurrent.futures` imports) is loaded."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = """if True:
        import sys, qleak, qleak.cli
        print(sorted(m for m in ("scipy.special.cython_special", "numpy.random",
              "scipy.special", "scipy._lib.array_api_compat", "numpy.f2py",
              "scipy.stats", "scipy.integrate", "scipy.optimize", "concurrent.futures",
              "queue", "logging") if m in sys.modules))
        import scipy.special
        from scipy.special import cython_special
        print(scipy.special.ndtr(0.5) == cython_special.ndtr(0.5),
              cython_special is qleak.stats.cython_special)
    """
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['numpy.random', 'scipy.special.cython_special']", "True True"]


class TestKernels:
    """`stats` calls scipy's kernels through `cython_special`; on Python
    floats (float df for `stdtrit`) they return the `scipy.special` ufuncs'
    bits."""

    #: zeros, one, the infinities, NaN, subnormals and the float below one
    EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan, 5e-324,
             -5e-324, 3 * 2.0**-1074, 2.0**-1023, 2.0**-1022, 1 - 2.0**-53, 1 - 2.0**-52]

    @staticmethod
    def mismatches(kernel, ufunc, *grids):
        grids = [g.ravel() for g in np.broadcast_arrays(*map(np.asarray, grids))]
        assert grids[0].size >= 10_000
        want = ufunc(*grids).tolist()
        return [args for args, w in zip(zip(*(g.tolist() for g in grids)), want)
                if kernel(*args).hex() != w.hex()]

    def test_ndtr(self):
        mag = np.logspace(-323, 308, 2000)
        x = np.concatenate([self.EDGES, np.linspace(-40, 40, 8001), mag, -mag])
        assert self.mismatches(stats.cython_special.ndtr, special.ndtr, x) == []

    def test_ndtri(self):
        p = np.concatenate([self.EDGES, [1.5, 7 * 2.0**-1074], np.linspace(0, 1, 8001),
                            np.logspace(-323, 0, 1000), 1 - np.logspace(-17, 0, 1000)])
        assert self.mismatches(stats.cython_special.ndtri, special.ndtri, p) == []

    def test_stdtrit(self):
        df = np.concatenate([self.EDGES, [2.0, 3.0, 1e300], np.logspace(-3, 12, 90)])
        p = np.concatenate([self.EDGES, np.linspace(0, 1, 81),
                            1 - np.logspace(-17, -1, 10), np.logspace(-300, -1, 10)])
        assert self.mismatches(
            stats.cython_special.stdtrit, special.stdtrit, df[:, None], p[None, :]) == []


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
