"""Independent reference formulas the tests check the package against."""
import math

from scipy import integrate


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


def timer_noise_inflation(base_variance: float, added_variance: float) -> float:
    """Closed-form requirement inflation when jitter of the given variance
    is added service-wide: (sigma^2 + v) / sigma^2."""
    if base_variance <= 0:
        raise ValueError("base_variance must be positive")
    if added_variance < 0:
        raise ValueError("added_variance must be non-negative")
    return (base_variance + added_variance) / base_variance
