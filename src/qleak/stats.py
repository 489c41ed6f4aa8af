"""Two-sample timing statistics: Welch t, difference-of-means curves,
Gaussian overlap, and sample-size planning with a Monte-Carlo oracle.

All quantities are in seconds (means) and seconds squared (variances).
Sample-size results are continuous per-group counts, not rounded.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import special


#: confidence of the difference-of-means band; the null rule's
#: false-positive level (attacks.NULL_RULE_FP_LEVEL) was measured at it
DOM_CONFIDENCE = 0.95


@dataclass(frozen=True)
class TimingDistribution:
    """Gaussian latency model for one circuit on one backend."""

    mean: float
    variance: float

    def __post_init__(self):
        if not 0 < self.variance < math.inf:
            raise ValueError(
                f"variance must be positive and finite, got {self.variance}")
        if not 0 < self.mean < math.inf:
            raise ValueError(
                f"latency mean must be positive and finite, got {self.mean}")

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def job_moments(self, picks: np.random.Generator, size: int) -> tuple[float, float]:
        """(mean, sd) of every job: this model's own two; draws nothing."""
        return self.mean, self.sd


@dataclass(frozen=True)
class MixtureTiming:
    """Uniform mixture over component timing distributions, with the
    mean, variance, sd and job_moments of a TimingDistribution."""

    components: tuple[TimingDistribution, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("mixture needs at least one component")

    @property
    def mean(self) -> float:
        return sum(c.mean for c in self.components) / len(self.components)

    @property
    def variance(self) -> float:
        # law of total variance over the uniform component choice
        mu = self.mean
        k = len(self.components)
        within = sum(c.variance for c in self.components) / k
        between = sum((c.mean - mu) ** 2 for c in self.components) / k
        return within + between

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def job_moments(self, picks: np.random.Generator, size: int):
        """(mean, sd) arrays of `size` jobs: job i takes the moments of a
        component drawn uniformly from `picks`."""
        i = picks.integers(0, len(self.components), size)
        return (np.array([c.mean for c in self.components])[i],
                np.array([c.sd for c in self.components])[i])


@dataclass(frozen=True)
class PowerSpec:
    """Two-sided significance level and target power for planning."""

    alpha: float = 0.05
    power: float = 0.80

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if 1 - self.alpha / 2 == 1:  # the planner's quantile would be inf
            raise ValueError(f"alpha must exceed 2**-53, got {self.alpha}")
        if not 0 < self.power < 1:
            raise ValueError(f"power must be in (0,1), got {self.power}")


def normal_cdf(x: float) -> float:
    return float(special.ndtr(x))


def normal_quantile(p: float) -> float:
    if not 0 < p < 1:
        raise ValueError(f"quantile argument must be in (0,1), got {p}")
    return float(special.ndtri(p))


def welch_t(mean_a, var_a, n_a, mean_b, var_b, n_b):
    """Welch t-score (mean_a - mean_b) / sqrt(var_a/n_a + var_b/n_b) and its
    Welch-Satterthwaite degrees of freedom, elementwise over arrays.

    With zero variance on both sides t is +-inf (NaN for equal means) and
    df is NaN.
    """
    if np.any(~(np.asarray(n_a) >= 2)) or np.any(~(np.asarray(n_b) >= 2)):
        raise ValueError("welch_t needs at least two observations per sample")
    ra, rb = np.divide(var_a, n_a), np.divide(var_b, n_b)
    se2 = ra + rb
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.subtract(mean_a, mean_b) / np.sqrt(se2)
        df = se2**2 / (ra**2 / (n_a - 1) + rb**2 / (n_b - 1))
    return t, df


def _prefix_moments(x: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running means and unbiased variances of x over prefixes of length n."""
    mean = np.cumsum(x) / n
    ss = np.cumsum(x * x) - n * mean * mean
    with np.errstate(invalid="ignore", divide="ignore"):
        var = ss / (n - 1)
    # rounding can push the centered sum of squares slightly negative
    return mean, np.maximum(var, 0.0)


def dom_curves(
    a: Sequence[float], b: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Difference-of-means curve of two ordered samples over growing
    prefixes, with its null band.

    Both samples are truncated to the shorter. Returns (n, dom, band) for
    prefix lengths n = 2..len, where band is the half-width of the
    equal-population confidence band from running unbiased variances and
    the normal quantile of (1 + DOM_CONFIDENCE) / 2. A prefix is
    "distinguished" when |dom| exceeds the band.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a, b = a[: b.size], b[: a.size]
    if a.size < 2:
        raise ValueError("need at least two observations per set")
    n = np.arange(1, a.size + 1, dtype=float)
    ma, va = _prefix_moments(a, n)
    mb, vb = _prefix_moments(b, n)
    z = normal_quantile((1 + DOM_CONFIDENCE) / 2)
    dom = (ma - mb)[1:]
    band = z * np.sqrt((va + vb)[1:] / n[1:])
    return n[1:].astype(int), dom, band


def ovl(p: TimingDistribution, q: TimingDistribution) -> float:
    """Overlapping coefficient: integral of min(pdf_p, pdf_q) over the line."""
    if p.mean == q.mean and p.variance == q.variance:
        return 1.0
    lo, hi = (p, q) if p.variance < q.variance else (q, p)
    a = 1.0 / (2 * lo.variance) - 1.0 / (2 * hi.variance)
    if a == 0.0:
        # equal variances, or ones a rounding apart: the densities cross
        # once, midway between the means
        return 2.0 * normal_cdf(-abs(p.mean - q.mean) / (2.0 * lo.sd))
    # unequal variances: the log-density difference is a quadratic with two
    # real roots; the narrower density is the smaller one outside them
    b = hi.mean / hi.variance - lo.mean / lo.variance
    c = (
        lo.mean**2 / (2 * lo.variance)
        - hi.mean**2 / (2 * hi.variance)
        - math.log(hi.sd / lo.sd)
    )
    r1, r2 = sorted(np.roots([a, b, c]).real)
    cdf = lambda d, x: normal_cdf((x - d.mean) / d.sd)
    total = cdf(lo, r1) + (cdf(hi, r2) - cdf(hi, r1)) + (1.0 - cdf(lo, r2))
    return float(min(total, 1.0))


def effect_size(p, q) -> float:
    """Standardized mean gap |p.mean - q.mean| / sqrt((p.var + q.var) / 2).

    Takes any two objects with `mean` and `variance` (timing models,
    mixtures); the pooled sd is that of the pair.
    """
    pooled = (p.variance + q.variance) / 2.0
    if not pooled > 0:
        raise ValueError("effect size needs a positive pooled variance")
    return abs(p.mean - q.mean) / math.sqrt(pooled)


def pooled_t_power(n, d: float, alpha: float = 0.05) -> float:
    """Power of the two-sided pooled two-sample t-test at per-group size n.

    `n` is a scalar: a Python or numpy number, or a 0-d array.
    Raises `ValueError` for n <= 1 or NaN, a NaN d, or alpha outside (0, 1).
    """
    if math.isnan(d) or not 0 < alpha < 1:
        raise ValueError(f"need a non-NaN d and alpha in (0,1), got {d}, {alpha}")
    n = float(n)
    df = 2.0 * n - 2.0
    if not df > 0:
        raise ValueError("per-group n must exceed 1")
    ncp = d * math.sqrt(n / 2.0)
    tcrit = float(special.stdtrit(df, 1.0 - alpha / 2.0))
    # the opposite-tail term is below 1e-8 once ncp >= 4 (and may be NaN);
    # below that one nctdtr call computes both tails
    if ncp < 4.0:
        cdf, opposite = special.nctdtr(df, ncp, (tcrit, -tcrit)).tolist()
    else:
        cdf, opposite = float(special.nctdtr(df, ncp, tcrit)), 0.0
    p = 1.0 - cdf
    if math.isnan(p):
        # nctdtr goes NaN for extreme noncentrality; a Satterthwaite-style
        # normal approximation is ample there
        z = (ncp - tcrit) / math.sqrt(1.0 + tcrit * tcrit / (2.0 * df))
        p = float(special.ndtr(z))
    return min(p + opposite, 1.0)


def normal_approx_sample_size(d: float, spec: PowerSpec = PowerSpec()) -> float:
    """Large-sample shortcut n = 2 ((z_{1-a/2} + z_power) / d)^2; inf for
    d <= 0 or an overflowing square, `ValueError` for a NaN d."""
    if math.isnan(d):
        raise ValueError("effect size must not be NaN")
    if d <= 0:
        return math.inf
    z = normal_quantile(1 - spec.alpha / 2) + normal_quantile(spec.power)
    try:
        return 2.0 * (z / d) ** 2
    except OverflowError:
        return math.inf


def _brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """Root of f between xa and xb by Brent's method.

    A step-for-step port of scipy's brentq.c: the same branches and the
    same order of arithmetic in each expression, so it returns the same
    bits as `scipy.optimize.brentq` without importing `scipy.optimize`.
    Raises `ValueError` when f has the same sign at both ends or returns
    NaN, and `RuntimeError` after `maxiter` steps.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    sign = lambda v: math.copysign(1.0, v)
    if sign(fpre) == sign(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and sign(fpre) != sign(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C's division gives inf or NaN, which fails the step test
                stry = math.nan
            # min(b, a) picks like C's MIN(a, b), NaN included
            if 2 * abs(stry) < min(3 * abs(sbis) - delta, abs(spre)):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations")


@lru_cache(maxsize=4096)
def _solve_sample_size(d: float, alpha: float, power: float) -> float:
    approx = normal_approx_sample_size(d, PowerSpec(alpha, power))
    hi = max(4.0 * approx, 16.0)
    if not math.isfinite(hi):
        return math.inf
    # the bracket starts at the last point of this grid whose power is
    # below target. The points below target form a prefix of the grid
    # (TestBracketSearch.test_short_points_are_a_prefix), so gallop from
    # the last point below Guenther's corrected n, in steps 1, 2, 4, ...,
    # until a point lands on the other side of the target
    grid = np.logspace(math.log10(1.5), math.log10(hi), 400)
    guess = approx + normal_quantile(1 - alpha / 2) ** 2 / 4
    k = max(int(np.searchsorted(grid, guess)) - 1, 0)
    below, above, step = -1, grid.size, 1
    while 0 <= k < grid.size and (below < 0 or above == grid.size):
        p = pooled_t_power(grid[k], d, alpha)
        if p < power:
            below, p_lo, k = k, p, k + step
        else:
            above, k = k, k - step
        step *= 2
    # then bisect the last gap
    while above - below > 1:
        mid = (below + above) // 2
        p = pooled_t_power(grid[mid], d, alpha)
        if p < power:
            below, p_lo = mid, p
        else:
            above = mid
    if below < 0:
        return 1.0
    # Brent's first call is at grid[below], whose power is in hand
    lo = float(grid[below])
    n = _brentq(
        lambda n: (p_lo if n == lo else pooled_t_power(n, d, alpha)) - power,
        lo, hi, xtol=1e-12, rtol=8.9e-16,
    )
    # a pooled test needs two observations per group; solutions below that
    # mean a single measurement already settles the question
    return 1.0 if n < 2.0 else float(n)


def required_sample_size(d: float, spec: PowerSpec = PowerSpec()) -> float:
    """Continuous per-group n for the pooled t-test to reach `spec.power`.

    Solves P(|T'_{2n-2, d sqrt(n/2)}| > t_crit) = power by Brent's method
    as in scipy's `brentq` (the tests check it bit for bit), bracketed
    below by the last point of a 400-point log grid whose power falls
    short of the target; the grid runs from 1.5 to hi, four times the
    normal-approximation n but at least 16. The points that fall short
    form a prefix of the grid (`TestBracketSearch.test_short_points_are_a_prefix`
    guards this), so the search for that point starts at the last grid
    point below Guenther's corrected normal n, approx + z_{1-a/2}^2 / 4,
    gallops away from it in steps of 1, 2, 4, ... grid points until a
    point lands on the other side of the target, and bisects the last
    gap. Brent's first end reuses the power the search found there.
    Returns inf for effect sizes whose hi is not finite:
    non-positive ones and those below about 1.5e-154. Raises `ValueError`
    for NaN; results below two observations per group, and effect sizes
    whose grid never falls short, report as 1.0.
    """
    if math.isnan(d):
        raise ValueError("effect size must not be NaN")
    return _solve_sample_size(float(d), spec.alpha, spec.power)


#: draws per row block of mc_power_oracle, 512 KiB of float64
_MC_BLOCK_DRAWS = 1 << 16


def mc_power_oracle(
    p: TimingDistribution,
    q: TimingDistribution,
    n: int,
    spec: PowerSpec = PowerSpec(),
    trials: int = 10_000,
    seed: int = 0,
) -> float:
    """Brute-force power estimate: fraction of trials in which a Welch test
    on n fresh draws per group rejects at level alpha.

    Independent of the planning path: draws samples and runs the test. In
    each batch of 4,000,000 // (2n) trials, all of p's rows of n draws come
    from the seeded stream before all of q's. Rows are drawn and reduced to
    their mean and variance in blocks of about 2^16 draws, so memory is one
    block plus four floats per trial. Welch df lies in [n - 1, 2n - 2], where
    the critical value falls as df rises, so only a |t| between the values
    at those two ends (or an out-of-range df) needs its own `stdtrit`.
    Raises `ValueError` unless n is an integer from 2 to 2^16
    (`_MC_BLOCK_DRAWS`, so a block holds at least one row) and trials an
    integer of at least 1000 (numpy integers count).
    """
    if not isinstance(n, numbers.Integral) or not 2 <= n <= _MC_BLOCK_DRAWS:
        raise ValueError(
            f"per-group n must be an integer from 2 to {_MC_BLOCK_DRAWS}, got {n!r}")
    if not isinstance(trials, numbers.Integral) or trials < 1000:
        raise ValueError(f"trials must be an integer >= 1000, got {trials!r}")
    rng = np.random.default_rng(seed)
    level = 1.0 - spec.alpha / 2.0
    # the 1e-6 margins are far wider than stdtrit's rounding
    sure = float(special.stdtrit(n - 1, level)) * (1 + 1e-6)
    never = float(special.stdtrit(2 * n - 2, level)) * (1 - 1e-6)
    df_lo, df_hi = (n - 1) * (1 - 1e-9), (2 * n - 2) * (1 + 1e-9)
    rows = _MC_BLOCK_DRAWS // n
    rejected = 0
    left = trials
    batch = 4_000_000 // (2 * n)
    while left:
        m = min(batch, left)
        left -= m
        mv = np.empty((4, m))  # means and variances of p's rows, then q's
        for k, dist in enumerate((p, q)):
            for i in range(0, m, rows):
                x = rng.normal(dist.mean, dist.sd, (min(rows, m - i), n))
                mv[2 * k, i : i + len(x)] = x.mean(axis=1)
                mv[2 * k + 1, i : i + len(x)] = x.var(axis=1, ddof=1)
        t, df = welch_t(mv[0], mv[1], n, mv[2], mv[3], n)
        t = np.abs(t)
        reject = t > sure
        exact = ~(reject | (t < never)) | ~((df >= df_lo) & (df <= df_hi))
        reject[exact] = t[exact] > special.stdtrit(df[exact], level)
        rejected += int(np.count_nonzero(reject))
    return rejected / trials
