"""The true per-group n of the pooled t-test plan, to 1e-20, for the
planner's reference check.

Writes `planner_reference.json`, next to this file, which
`test_stats.py::TestPlannerReference` reads. Each case is an effect size
d, a two-sided level alpha and a target power; its `n` is the root of

    P(T'_{2n-2, d sqrt(n/2)} > t) + P(T'_{2n-2, d sqrt(n/2)} < -t) = power,

t the upper alpha/2 point of Student's t on 2n - 2 degrees of freedom,
or 1.0 where the power at n = 2 already meets the target (the planner's
convention). Two methods solve every case and must agree to 1e-20
relative (the quadrature's root is one Newton step from the series'):

- quadrature: the power as an integral over the chi-square variable of
  the t statistic's denominator (tanh-sinh), t solved from the same
  integral at d = 0;
- series: each tail of the noncentral t as Poisson-weighted regularized
  incomplete beta functions, t solved from the central t's beta form.

The cases are the 52 nearest-neighbour cells of the bundled table,
acceptance criterion 2's four effect sizes and d = 2.5, 3, 4 and 5, each
at alpha 0.05, 0.01 and 0.001 and power 0.8; and d = 1.6013537697309257,
whose root lies just above two observations, at power 0.5 and alpha 0.2,
0.05, 0.01 and 0.001. Alphas of 1e-6 and below stay out: there the plan's
error comes from rounding 1 - alpha/2 to a float, not from the solver.

Needs mpmath (the `reference` extra); on two processes of a 2-vCPU host
it takes about seven minutes:

    PYTHONPATH=src python tests/make_planner_reference.py
"""
import json
import multiprocessing
from pathlib import Path

import mpmath as mp
from mpmath import mpf

from qleak.baseline import BACKENDS, bundled_table, nearest_neighbor_requirement
from qleak.stats import PowerSpec, cython_special, effect_size, required_sample_size

OUT_PATH = Path(__file__).with_name("planner_reference.json")
DPS = 40
AGREE = mpf(10) ** -20
ALPHAS = (0.05, 0.01, 0.001)
HALF = mpf(1) / 2


def _t_start(nu, alpha):
    """A float start for the root-finders' critical value."""
    return mpf(cython_special.stdtrit(float(nu), 1.0 - float(alpha) / 2.0))


def quadrature_power(n, d, alpha):
    nu = 2 * n - 2
    delta = d * mp.sqrt(n / 2)
    log_norm = nu / 2 * mp.log(2) + mp.loggamma(nu / 2)
    sd = mp.sqrt(2 / nu)  # of w = chi2_nu / nu, which peaks at 1
    points = sorted({mpf(0), mpf(1), mp.inf, *(1 + k * sd for k in (-40, -10, -3, 3, 10, 40)
                                               if 1 + k * sd > 0)})

    def tails(t, delta):
        def integrand(w):
            x = nu * w
            density = nu * mp.exp((nu / 2 - 1) * mp.log(x) - x / 2 - log_norm)
            s = t * mp.sqrt(w)
            return density * (mp.ncdf(delta - s) + mp.ncdf(-delta - s))
        return mp.quad(integrand, points)

    t = mp.findroot(lambda t: tails(t, 0) - alpha, _t_start(nu, alpha))
    return tails(t, delta)


def _upper_tail(t, nu, mu):
    """P(T'_{nu, mu} > t) for t >= 0."""
    x = t * t / (t * t + nu)
    h = mu * mu / 2
    tiny = mpf(10) ** -(DPS + 5)
    total, j = mpf(0), 0
    while True:
        p = mp.exp(-h) * h**j / mp.factorial(j)
        q = mp.exp(-h) * mu * h**j / (mp.sqrt(2) * mp.gamma(j + 1 + HALF))
        total += (p * mp.betainc(j + HALF, nu / 2, 0, x, regularized=True)
                  + q * mp.betainc(j + 1, nu / 2, 0, x, regularized=True))
        j += 1
        if j > h and p + abs(q) < tiny:
            return 1 - mp.ncdf(-mu) - total / 2


def series_power(n, d, alpha):
    nu = 2 * n - 2
    delta = d * mp.sqrt(n / 2)
    t = mp.findroot(
        lambda t: mp.betainc(nu / 2, HALF, 0, nu / (nu + t * t), regularized=True) - alpha,
        _t_start(nu, alpha))
    return _upper_tail(t, nu, delta) + _upper_tail(t, nu, -delta)


def planned_n(d, alpha, power, start):
    """The planned n by each method: 1 where the power at n = 2 meets the
    target, else the series' root by the secant method from `start`, and
    one Newton step from it on the quadrature's power."""
    d, alpha, power = mpf(d), mpf(alpha), mpf(power)
    at_two = {f(mpf(2), d, alpha) >= power for f in (series_power, quadrature_power)}
    if len(at_two) > 1:
        raise RuntimeError(f"d={d}, alpha={alpha}: the methods disagree at n = 2")
    if at_two == {True}:
        return mpf(1), mpf(1)
    start = mpf(start)
    n = mp.findroot(lambda n: series_power(n, d, alpha) - power, (start, start * (1 + 1e-9)))
    h = n * mpf(10) ** -15
    slope = (series_power(n + h, d, alpha) - series_power(n - h, d, alpha)) / (2 * h)
    return n, n - (quadrature_power(n, d, alpha) - power) / slope


def cases():
    """(label, d, alpha, power), each (d, alpha, power) once."""
    table = bundled_table()
    out = {}
    for backend in BACKENDS:
        for name in table.names:
            neighbor, _ = nearest_neighbor_requirement(table, name, backend)
            d = effect_size(table.timing(name, backend), table.timing(neighbor, backend))
            for alpha in ALPHAS:
                out.setdefault((d, alpha, 0.8), f"cell {backend}: {name}")
    for d in (0.05, 0.08, 0.28, 1.0):
        for alpha in ALPHAS:
            out.setdefault((d, alpha, 0.8), "criterion 2")
    for d in (2.5, 3.0, 4.0, 5.0):
        for alpha in ALPHAS:
            out.setdefault((d, alpha, 0.8), "small n")
    for alpha in (0.2, *ALPHAS):
        out.setdefault((1.6013537697309257, alpha, 0.5), "root near two")
    return [(label, *key) for key, label in out.items()]


def _row(case):
    mp.mp.dps = DPS
    label, d, alpha, power = case
    by_series, by_quadrature = planned_n(
        d, alpha, power, required_sample_size(d, PowerSpec(alpha, power)))
    gap = abs(by_series - by_quadrature) / by_series
    if not gap <= AGREE:
        raise RuntimeError(f"{label}, d={d!r}, alpha={alpha}: methods differ by {gap}")
    n = mp.nstr(by_series, 30)
    print(f"{label:<70} d={d:<22.17g} alpha={alpha:<6} n={n}", flush=True)
    return {"case": label, "d": d, "alpha": alpha, "power": power, "n": n}


def main():
    with multiprocessing.Pool(2) as pool:
        rows = pool.map(_row, cases(), chunksize=1)
    OUT_PATH.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
