"""Independent reference formulas the tests check the package against, and
the test inputs they build."""
import math

import numpy as np
from scipy import integrate, optimize, special, stats

from qleak.baseline import (
    DEFAULT_GROVER_BASE,
    DEFAULT_GROVER_VARIANCE,
    GROVER_KEYS,
    GroverVariant,
    grover_key_offset,
)
from qleak.cloudsim import DURATION_FLOOR
from qleak.stats import TimingDistribution, normal_approx_sample_size
from qleak.trace import Trace


def runs_trace(durations) -> Trace:
    """The trace of known per-run durations: one count-1 interval each."""
    return Trace(durations, np.ones(len(durations), dtype=int))


def spaced_catalog(per_iteration: float = 3.0,
                   per_oracle_spread: float = 0.7) -> list:
    """The 24 Grover variants of :func:`qleak.baseline.grover_catalog`'s
    formula at other spacings: the default base and variance, iterations
    `per_iteration` apart and keys spanning `per_oracle_spread`, in index
    order. The defaults spread the keys wide enough that the key stage
    plans a few hundred runs."""
    return [
        GroverVariant(key, it, TimingDistribution(
            DEFAULT_GROVER_BASE + it * per_iteration
            + grover_key_offset(key, per_oracle_spread),
            DEFAULT_GROVER_VARIANCE,
        ))
        for it in (1, 2, 3)
        for key in GROVER_KEYS
    ]


def _normal_pdf(x: float, mean: float, sd: float) -> float:
    z = (x - mean) / sd
    return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def ovl_numeric(p, q) -> float:
    """Adaptive-quadrature overlap of two Gaussian timing models, the
    cross-check for :func:`qleak.stats.ovl`."""
    lo = min(p.mean - 10 * p.sd, q.mean - 10 * q.sd)
    hi = max(p.mean + 10 * p.sd, q.mean + 10 * q.sd)
    val, _ = integrate.quad(
        lambda x: min(_normal_pdf(x, p.mean, p.sd), _normal_pdf(x, q.mean, q.sd)),
        lo, hi, limit=200,
    )
    return float(val)


def where_power(n, d: float, alpha: float) -> np.ndarray:
    """Pooled t-test power with the normal fallback and the opposite tail
    computed at every point and picked by `np.where`, elementwise over an
    array n: the reference that :func:`qleak.stats.pooled_t_power` must
    match bit for bit at each point."""
    n = np.asarray(n, dtype=float)
    df = 2.0 * n - 2.0
    ncp = d * np.sqrt(n / 2.0)
    tcrit = special.stdtrit(df, 1.0 - alpha / 2.0)
    s = np.sqrt(1.0 + tcrit * tcrit / (2.0 * df))
    p = 1.0 - special.nctdtr(df, ncp, tcrit)
    p = np.where(np.isnan(p), special.ndtr((ncp - tcrit) / s), p)
    opposite = special.nctdtr(df, ncp, -tcrit)
    opposite = np.where(np.isnan(opposite), special.ndtr((-tcrit - ncp) / s), opposite)
    p = p + np.where(ncp < 4.0, opposite, 0.0)
    return np.minimum(p, 1.0)


def full_scan_sample_size(d: float, spec) -> float:
    """Power at every point of the 400-point bracket grid, the bracket at
    the last one below target, then `brentq`: the reference that
    :func:`qleak.stats.required_sample_size` must match bit for bit."""
    hi = max(4.0 * normal_approx_sample_size(d, spec), 16.0)
    grid = np.logspace(math.log10(1.5), math.log10(hi), 400)
    below = np.flatnonzero(where_power(grid, d, spec.alpha) < spec.power)
    if below.size == 0:
        return 1.0
    n = optimize.brentq(
        lambda n: float(where_power(n, d, spec.alpha)) - spec.power,
        float(grid[below[-1]]), hi, xtol=1e-12, rtol=8.9e-16,
    )
    return 1.0 if n < 2.0 else float(n)


def direct_mc_power(p, q, n: int, spec, trials: int = 10_000, seed: int = 0) -> float:
    """Each batch's (m, n) draws of both groups held at once and every
    trial judged by scipy's pooled two-sample t-test: the reference
    :func:`qleak.stats.mc_power_oracle` must match exactly."""
    if n < 2:
        raise ValueError("per-group n must be at least 2")
    if trials < 1000:
        raise ValueError("use at least 1000 trials")
    rng = np.random.default_rng(seed)
    rejected = 0
    left = trials
    batch = max(1, 4_000_000 // (2 * n))
    while left:
        m = min(batch, left)
        left -= m
        a = rng.normal(p.mean, p.sd, (m, n))
        b = rng.normal(q.mean, q.sd, (m, n))
        pvalue = stats.ttest_ind(a, b, axis=1).pvalue
        rejected += int(np.count_nonzero(pvalue < spec.alpha))
    return rejected / trials


def timer_noise_inflation(base_variance: float, added_variance: float) -> float:
    """Closed-form requirement inflation when jitter of the given variance
    is added service-wide: (sigma^2 + v) / sigma^2."""
    if base_variance <= 0:
        raise ValueError("base_variance must be positive")
    if added_variance < 0:
        raise ValueError("added_variance must be non-negative")
    return (base_variance + added_variance) / base_variance


def loop_simulation(scenario):
    """One job at a time: the reference the columnar
    :func:`qleak.cloudsim.run_simulation` must match bit for bit. Returns
    (victim flags, started_at, ended_at, truncations) as lists.

    Job i draws `rng.normal` on its owner's model, or on the component of
    a mixture that the owner's pick for job i names; each mixture owner
    draws a pick for every job of the session as one block, the victim's
    before the probe's, from the seed's first spawned child stream."""
    k, reps = scenario.probe_every, scenario.victim_repetitions
    victim = [False]
    for done in range(0, reps, k):
        victim += [True] * min(k, reps - done) + [False]
    device = scenario.device
    models = (device.timing(scenario.attacker_probe_circuit),
              device.timing(scenario.victim_circuit))
    rng = np.random.default_rng(scenario.seed)
    pick_rng = np.random.default_rng(np.random.SeedSequence(scenario.seed).spawn(1)[0])
    picks = {
        owner: pick_rng.integers(0, len(models[owner].components), len(victim)).tolist()
        for owner in (True, False) if hasattr(models[owner], "components")
    }
    started, ended, truncations, clock = [], [], 0, 0.0
    for i, is_victim in enumerate(victim):
        model = models[is_victim]
        if is_victim in picks:
            model = model.components[picks[is_victim][i]]
        start = clock if i == 0 else clock + device.inter_job_gap
        duration = float(rng.normal(model.mean, model.sd))
        if duration < DURATION_FLOOR:
            duration, truncations = DURATION_FLOOR, truncations + 1
        clock = start + duration
        started.append(start)
        ended.append(clock)
    return victim, started, ended, truncations


def loop_assemble(intervals, avg_victim: float):
    """One interval at a time: the reference for
    :func:`qleak.trace.assemble_trace`. Returns (durations, counts)."""
    durations, counts = [], []
    for interval in intervals:
        if interval == 0:
            counts.append(0)
            continue
        count = max(1, math.ceil(interval / avg_victim - 0.5))
        durations += [interval / count] * count
        counts.append(count)
    return durations, counts
