"""Two-sample timing statistics: difference-of-means curves, Gaussian
overlap, and pooled t-test sample-size planning with a Monte-Carlo oracle.

All quantities are in seconds (means) and seconds squared (variances).
Sample-size results are continuous per-group counts, not rounded.
"""
from __future__ import annotations

import importlib.util
import math
import numbers
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
import numpy.random  # numpy loads it lazily; scipy.special's __init__ used to load it

# cython_special: the scipy.special ufuncs' own kernels, called on Python floats
# without the ufunc machinery (half of a scalar call); the tests compare them with
# the ufuncs bit for bit. Their fused signatures take no ints. Unless scipy.special
# is loaded, the extension is imported under a bare package whose __init__ (scipy's
# array-API layer, most of numpy) never runs; on scipy 1.17.1 it needs only its
# sibling extensions. A thread importing scipy.special meanwhile could get the bare one.
_bare = "scipy.special" not in sys.modules
if _bare:
    sys.modules["scipy.special"] = importlib.util.module_from_spec(
        importlib.util.find_spec("scipy.special"))
try:
    cython_special = importlib.import_module("scipy.special.cython_special")
finally:
    if _bare:
        del sys.modules["scipy.special"]


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


def _prefix_moments(x: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running means and unbiased variances of x over prefixes of length n."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean = np.cumsum(x) / n
        ss = np.cumsum(x * x) - n * mean * mean
        var = ss / (n - 1)
    if not np.isfinite(ss).all():
        raise ValueError("durations must be finite and their squares must sum "
                         f"below the largest float, got up to {np.abs(x).max():.3g}")
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
    "distinguished" when |dom| exceeds the band. Raises `ValueError` for
    fewer than two observations, or durations whose running sum of
    squares overflows (one past about 1.3e154 is enough).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a, b = a[: b.size], b[: a.size]
    if a.size < 2:
        raise ValueError("need at least two observations per set")
    n = np.arange(1, a.size + 1, dtype=float)
    ma, va = _prefix_moments(a, n)
    mb, vb = _prefix_moments(b, n)
    z = cython_special.ndtri((1 + DOM_CONFIDENCE) / 2)
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
        return 2.0 * cython_special.ndtr(-abs(p.mean - q.mean) / (2.0 * lo.sd))
    # unequal variances: the log-density difference is a quadratic with two
    # real roots; the narrower density is the smaller one outside them
    b = hi.mean / hi.variance - lo.mean / lo.variance
    c = (
        lo.mean**2 / (2 * lo.variance)
        - hi.mean**2 / (2 * hi.variance)
        - math.log(hi.sd / lo.sd)
    )
    r1, r2 = sorted(np.roots([a, b, c]).real)
    cdf = lambda d, x: cython_special.ndtr((x - d.mean) / d.sd)
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
    tcrit = cython_special.stdtrit(df, 1.0 - alpha / 2.0)
    # the opposite-tail term is below 1e-8 once ncp >= 4 (and may be NaN)
    opposite = cython_special.nctdtr(df, ncp, -tcrit) if ncp < 4.0 else 0.0
    p = 1.0 - cython_special.nctdtr(df, ncp, tcrit)
    if math.isnan(p + opposite):
        # nctdtr goes NaN at extreme noncentrality and, at small alpha, at
        # scattered points of either tail; a normal approximation is ample
        s = math.sqrt(1.0 + tcrit * tcrit / (2.0 * df))
        if math.isnan(p):
            p = cython_special.ndtr((ncp - tcrit) / s)
        if math.isnan(opposite):
            opposite = cython_special.ndtr((-tcrit - ncp) / s)
    return min(p + opposite, 1.0)


def normal_approx_sample_size(d: float, spec: PowerSpec = PowerSpec()) -> float:
    """Large-sample shortcut n = 2 ((z_{1-a/2} + z_power) / d)^2; inf for
    d <= 0 or an overflowing square, `ValueError` for a NaN d."""
    if math.isnan(d):
        raise ValueError("effect size must not be NaN")
    if d <= 0:
        return math.inf
    z = cython_special.ndtri(1 - spec.alpha / 2) + cython_special.ndtri(spec.power)
    try:
        return 2.0 * (z / d) ** 2
    except OverflowError:
        return math.inf


@lru_cache(maxsize=4096)
def _solve_sample_size(d: float, spec: PowerSpec) -> float:
    alpha, power = spec.alpha, spec.power
    approx = normal_approx_sample_size(d, spec)
    if not math.isfinite(4.0 * approx):
        return math.inf
    f = lambda n: pooled_t_power(n, d, alpha) - power
    # bracket the root with a short end a and a long enough end b: from
    # Guenther's corrected normal n, gallop up, or down toward n = 2, by a
    # factor 1.05 that squares at each step
    b = max(approx + cython_special.ndtri(1 - alpha / 2) ** 2 / 4, 2.0)
    fb = f(b)
    a, fa, r = b, fb, 1.05
    while fb < 0:
        a, fa, b = b, fb, b * r
        fb, r = f(b), r * r
    while fa >= 0:
        if a == 2.0:
            # a pooled test needs two observations per group; if two are
            # enough, a single measurement already settles the question
            return 1.0
        b, fb, a = a, fa, max(a / r, 2.0)
        fa, r = f(a), r * r
    # then Illinois regula falsi: an end that stays put twice running has
    # its value halved, so both ends close in
    side = 0
    while True:
        n = b - fb * (b - a) / (fb - fa)
        if b - a <= 5e-13 + 2e-16 * b or not a < n < b:
            break
        fn = f(n)
        if fn < 0:
            a, fa = n, fn
            if side < 0:
                fb /= 2
            side = -1
        else:
            b, fb = n, fn
            if side > 0:
                fa /= 2
            side = 1
    return n


def required_sample_size(d: float, spec: PowerSpec = PowerSpec()) -> float:
    """Continuous per-group n for the pooled t-test to reach `spec.power`.

    Solves P(|T'_{2n-2, d sqrt(n/2)}| > t_crit) = power for n. The root is
    bracketed from Guenther's corrected normal n, approx + z_{1-a/2}^2 / 4,
    by galloping up, or down toward n = 2, with a step factor of 1.05 that
    squares at each step, until the power crosses the target; Illinois
    regula falsi then narrows the bracket to 5e-13 + 2e-16 n, so the result
    is within 2.6e-13 relative of the root of `pooled_t_power`'s equation.
    Returns inf for effect sizes whose four-fold normal-approximation n,
    4 × 2 ((z_{1-a/2} + z_power) / d)^2, is not finite: non-positive ones
    and those below about 5.9e-154 at alpha 0.05 and power 0.8. Returns 1.0
    when the power at n = 2 already meets the target, so that the root lies
    below two observations per group. Raises `ValueError` for NaN.
    """
    if math.isnan(d):
        raise ValueError("effect size must not be NaN")
    return _solve_sample_size(float(d), spec)


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
    """Brute-force power estimate: fraction of trials in which a pooled
    two-sample t-test on n fresh draws per group rejects at level alpha.

    Independent of the planning path: draws samples and runs the test whose
    power `required_sample_size` solves for. In each batch of
    4,000,000 // (2n) trials, all of p's rows of n draws come from the
    seeded stream before all of q's, in blocks of about 2^16 draws: one
    helper thread per call only draws, into two reused blocks in turn, while
    the caller reduces the other to row means and variances in place, so
    memory is two blocks plus four floats per trial. With n per group the
    pooled t is (m_p - m_q) / sqrt(v_p/n + v_q/n) on 2n - 2 degrees of
    freedom, so one critical value serves every trial. Returns NaN when a
    row's mean or variance overflows (models near the largest float), as no
    test can be run on it. Raises `ValueError` unless n is an integer from 2
    to 2^16 (`_MC_BLOCK_DRAWS`, so a block holds at least one row) and
    trials an integer of at least 1000 (numpy integers count).
    """
    if not isinstance(n, numbers.Integral) or not 2 <= n <= _MC_BLOCK_DRAWS:
        raise ValueError(
            f"per-group n must be an integer from 2 to {_MC_BLOCK_DRAWS}, got {n!r}")
    if not isinstance(trials, numbers.Integral) or trials < 1000:
        raise ValueError(f"trials must be an integer >= 1000, got {trials!r}")
    rng = np.random.default_rng(seed)
    tcrit = cython_special.stdtrit(float(2 * n - 2), 1.0 - spec.alpha / 2.0)
    rows = _MC_BLOCK_DRAWS // n
    batch = 4_000_000 // (2 * n)
    ms = [min(batch, trials - s) for s in range(0, trials, batch)]  # trials per batch
    blocks, turn, failed = np.empty((2, rows, n)), threading.Barrier(2), []
    def draw():  # block j of the stream into blocks[j % 2], while the caller reduces j - 1
        try:
            for j, r in enumerate(min(rows, m - i) for m in ms for _ in (p, q)
                                  for i in range(0, m, rows)):
                rng.standard_normal(out=blocks[j % 2, :r])
                turn.wait()
        except BaseException as exc:  # the caller raises it; its own abort ends here too
            failed.append(exc)
            turn.abort()
    (helper := threading.Thread(target=draw)).start()
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rejected = j = 0
            for m in ms:
                mv = np.empty((4, m))  # means and variances of p's rows, then q's
                for k, dist in enumerate((p, q)):
                    for i in range(0, m, rows):
                        turn.wait()  # block j is drawn, and the helper goes on to j + 1
                        x, j = blocks[j % 2, : min(rows, m - i)], j + 1
                        x *= dist.sd
                        x += dist.mean
                        mean = mv[2 * k, i : i + len(x)] = x.sum(axis=1) / n
                        x -= mean[:, None]
                        np.multiply(x, x, out=x)
                        mv[2 * k + 1, i : i + len(x)] = x.sum(axis=1) / (n - 1)
                if not np.isfinite(mv).all():
                    return math.nan
                # a t past the largest float, or from rows of equal draws (a
                # variance below float resolution), is +-inf and rejects; equal
                # means over such rows give NaN, which does not
                t = (mv[0] - mv[2]) / np.sqrt(mv[1] / n + mv[3] / n)
                rejected += int(np.count_nonzero(np.abs(t) > tcrit))
            return rejected / trials
    except threading.BrokenBarrierError:  # only the helper breaks it while the caller runs
        raise failed[0] from None
    finally:
        turn.abort()
        helper.join()
