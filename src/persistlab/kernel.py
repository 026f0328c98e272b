"""Variance kernel of the weighted polynomial family and its evaluation routes.

M(x) = sum_i C(n,i)^2 x^(2i) is the variance of the random polynomial at x.
Three routes are implemented and cross-checked against each other: exact
log-domain summation, the large-n closed form (x+1)^(2n+1) / (2 sqrt(pi n x)),
and the classical-polynomial identity M(x) = (1-x^2)^n L((1+x^2)/(1-x^2))
with L the Legendre recurrence.  The time-coordinate transform
x = tan^2(t / (2 sqrt(n))) and the induced autocorrelation diagnostics live
here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .logscale import SignedLogValue, log_binomial, log_binomial_row

__all__ = [
    "PeakIndex",
    "mn_exact",
    "mn_asymptotic",
    "mn_peak_bounds",
    "legendre_eval",
    "mn_via_legendre",
    "autocorr",
    "transform_t",
    "transform_x",
    "alpha_shift",
    "main_window_width",
    "autocorr_limit_gap",
]


@dataclass(frozen=True)
class PeakIndex:
    """Index of the dominant term of M(x): floor(n x / (x + 1)).

    The dominant index stays within 1/n of the continuum maximizer
    x / (x + 1) of the per-term exponent.
    """

    n: int
    x: float
    index: int

    @classmethod
    def at(cls, n: int, x: float) -> "PeakIndex":
        if n < 1:
            raise ValueError("n must be positive")
        if not (x > 0.0 and math.isfinite(x)):
            raise ValueError(f"x must be positive and finite, got {x!r}")
        return cls(n, x, int(math.floor(n * x / (x + 1.0))))


@lru_cache(maxsize=1024)
def _mn_exact_log(n: int, x: float) -> float:
    logw = log_binomial_row(n)
    log_terms = 2.0 * logw + (2.0 * math.log(x)) * np.arange(n + 1, dtype=float)
    m = float(np.max(log_terms))
    return m + math.log(float(np.sum(np.exp(log_terms - m))))


def mn_exact(n: int, x: float) -> SignedLogValue:
    """Log-domain M(x) by summing all n+1 terms against the maximum term.

    All summands are positive, so the sign is always +1.  Relative accuracy
    is ~1e-12 through n ~ 1e4 and degrades to the log-gamma precision floor
    (~1e-9) by n = 1e6.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"x must be positive and finite, got {x!r}")
    return SignedLogValue(1, _mn_exact_log(n, float(x)))


def mn_asymptotic(n: int, x: float) -> SignedLogValue:
    """Large-n closed form (x+1)^(2n+1) / (2 sqrt(pi n x)).

    Valid only inside the window n^(-1/6) < x < n^(1/6); requests outside
    are rejected rather than extrapolated.  For x > 1 the reflection
    M(x) = x^(2n) M(1/x) is applied first.
    """
    if n < 1:
        raise ValueError("n must be positive")
    lo = n ** (-1.0 / 6.0)
    if not (lo < x < 1.0 / lo):
        raise ValueError(
            f"x={x!r} outside the validity window (n^-1/6, n^1/6) for n={n}"
        )
    if x > 1.0:
        return mn_asymptotic(n, 1.0 / x).scaled(2.0 * n * math.log(x))
    log_abs = (2 * n + 1) * math.log1p(x) - math.log(2.0 * math.sqrt(math.pi * n * x))
    return SignedLogValue(1, log_abs)


def mn_peak_bounds(n: int, x: float) -> tuple[SignedLogValue, SignedLogValue]:
    """Dominant-term sandwich on M(x) for ln(n)/(6n) <= x <= 1:

        C(n,i*)^2 x^(2 i*)  <=  M(x)  <=  3 i*^(3/4) C(n,i*)^2 x^(2 i*)

    with i* the peak index.  Requires i* >= 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (math.log(n) / (6.0 * n) <= x <= 1.0):
        raise ValueError(
            f"x={x!r} outside [ln(n)/(6n), 1] for n={n}"
        )
    peak = PeakIndex.at(n, x)
    if peak.index < 1:
        raise ValueError(f"peak index {peak.index} < 1 at n={n}, x={x!r}")
    base = 2.0 * log_binomial(n, peak.index) + 2.0 * peak.index * math.log(x)
    lower = SignedLogValue(1, base)
    upper = SignedLogValue(1, base + math.log(3.0) + 0.75 * math.log(peak.index))
    return lower, upper


_RENORM_EVERY = 64
_RENORM_CEILING = 1e280


def legendre_eval(n: int, z: float) -> SignedLogValue:
    """L_n(z) for z >= 1 by the three-term recurrence

        (k+1) L_{k+1} = (2k+1) z L_k - k L_{k-1},   L_0 = 1, L_1 = z,

    carried in renormalized form (divide by the running maximum, track the
    log offset) because L_k(z) grows geometrically for z > 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not (z >= 1.0 and math.isfinite(z)):
        raise ValueError(f"z must be >= 1 and finite, got {z!r}")
    if n == 0:
        return SignedLogValue(1, 0.0)
    prev, cur = 1.0, z
    offset = 0.0
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * z * cur - k * prev) / (k + 1)
        if k % _RENORM_EVERY == 0 or abs(cur) > _RENORM_CEILING:
            m = max(abs(prev), abs(cur))
            prev /= m
            cur /= m
            offset += math.log(m)
    if cur == 0.0:
        return SignedLogValue(0, float("-inf"))
    return SignedLogValue(1 if cur > 0 else -1, math.log(abs(cur)) + offset)


def mn_via_legendre(n: int, x: float) -> SignedLogValue:
    """M(x) = (1 - x^2)^n L_n((1 + x^2) / (1 - x^2)), for 0 < x < 1 strictly
    (the argument is singular at x = 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie strictly inside (0, 1), got {x!r}")
    z = (1.0 + x * x) / (1.0 - x * x)
    return legendre_eval(n, z).scaled(n * math.log1p(-x * x))


def autocorr(n: int, x: float, y: float) -> float:
    """A(x, y) = M(sqrt(x y)) / sqrt(M(x) M(y)), always in (0, 1].

    Equal arguments return 1.0 exactly; elsewhere the Cauchy-Schwarz bound
    keeps the log-space difference nonpositive.
    """
    if x == y:
        return 1.0
    num = mn_exact(n, math.sqrt(x * y)).log_abs
    den = 0.5 * (mn_exact(n, x).log_abs + mn_exact(n, y).log_abs)
    return min(1.0, math.exp(num - den))


def transform_t(x: float, n: int) -> float:
    """Time coordinate t = 2 sqrt(n) atan(sqrt(x)) of an evaluation point x > 0."""
    if n < 1:
        raise ValueError("n must be positive")
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"x must be positive and finite, got {x!r}")
    return 2.0 * math.sqrt(n) * math.atan(math.sqrt(x))


def transform_x(t: float, n: int) -> float:
    """Inverse map x = tan^2(t / (2 sqrt(n))), defined on 0 < t < pi sqrt(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < t < math.pi * math.sqrt(n):
        raise ValueError(f"t={t!r} outside (0, pi sqrt(n)) for n={n}")
    return math.tan(t / (2.0 * math.sqrt(n))) ** 2


def alpha_shift(n: int) -> float:
    """t-coordinate where the central window of the kernel approximation
    begins: 2 sqrt(n) atan(n^(-1/12))."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2.0 * math.sqrt(n) * math.atan(n ** (-1.0 / 12.0))


def main_window_width(n: int) -> float:
    """Length pi sqrt(n) - 2 alpha of the shifted central window."""
    return math.pi * math.sqrt(n) - 2.0 * alpha_shift(n)


def autocorr_limit_gap(n: int, u: float, v: float) -> float:
    """|A(x_u, x_v) - exp(-(u-v)^2 / 4)| with u, v measured from the start of
    the shifted central window.

    Convergence diagnostic: the gap should shrink with n, uniformly over the
    window.  Coordinates outside [0, window width] are rejected.
    """
    width = main_window_width(n)
    for w in (u, v):
        if not (0.0 <= w <= width):
            raise ValueError(
                f"coordinate {w!r} outside the central window [0, {width!r}]"
            )
    if u == v:
        return 0.0
    a = alpha_shift(n)
    xu = transform_x(u + a, n)
    xv = transform_x(v + a, n)
    return abs(autocorr(n, xu, xv) - math.exp(-0.25 * (u - v) ** 2))
