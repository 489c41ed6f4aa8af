"""How many timing samples does each attack need?

Walks the bundled 26-circuit baseline table, recomputes the
required-measurement budget for every circuit on both backends from
first principles (two-sample t-test power analysis), and cross-checks a
few of the cheap cells with a brute-force Monte-Carlo power oracle.
"""
import math

from qleak import (
    BACKENDS,
    PowerSpec,
    bundled_table,
    effect_size,
    mc_power_oracle,
    nearest_neighbor_requirement,
    pooled_t_power,
    required_sample_size,
)

table = bundled_table()
spec = PowerSpec(alpha=0.05, power=0.80)

print("Effect sizes and budgets (worst-case = nearest-mean neighbor):\n")
for backend in BACKENDS:
    sd = math.sqrt(table.variance(backend))
    print(f"--- {backend} (sd = {sd:.4f} s) ---")
    for entry in table.entries:
        neighbor, n = nearest_neighbor_requirement(table, entry.name, backend, spec)
        dmu = abs(
            entry.latency(backend) - table.entry(neighbor).latency(backend)
        )
        print(
            f"{entry.name[:44]:<44} vs {neighbor[:28]:<28} "
            f"|d-mean|={dmu:9.5f}s  n={n:>12.1f}"
        )
    print()

print("Sanity: Lehr's rule of thumb says n ~ 16/d^2; the exact solver")
d = 0.1
print(f"for d={d}: exact {required_sample_size(d, spec):.2f} vs 16/d^2 = {16 / d**2:.0f}\n")

print("Monte-Carlo cross-check of three cheap hardware cells:")
for name in ("GHZ", "Shor's Algorithm", "Quantum Volume"):
    backend = "hardware"
    neighbor, n = nearest_neighbor_requirement(table, name, backend, spec)
    n_int = max(2, math.ceil(n))
    models = table.timing(name, backend), table.timing(neighbor, backend)
    power = mc_power_oracle(*models, n_int, spec, trials=4000, seed=7)
    # the pooled t-test's power at the plan rounded up, which the oracle draws
    analytic = pooled_t_power(n_int, effect_size(*models), spec.alpha)
    print(f"{name:<24} n={n_int:>6}  empirical power {power:.3f}  (analytic {analytic:.3f})")
