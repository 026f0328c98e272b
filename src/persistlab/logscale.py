"""Signed log-domain scalars and stable log-space reductions.

Magnitudes like (x+1)^(2n+1) overflow double precision long before the
degrees this package targets, so every large-degree quantity is carried as a
sign plus natural-log magnitude, and summations are anchored at the largest
term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["SignedLogValue", "signed_log_sum", "log_binomial_row", "log_binomial"]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as (sign, ln|value|); sign 0 encodes exact zero."""

    sign: int
    log_abs: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.sign == 0:
            object.__setattr__(self, "log_abs", _NEG_INF)

    @classmethod
    def from_float(cls, value: float) -> "SignedLogValue":
        if not math.isfinite(value):
            raise ValueError(f"cannot represent non-finite value {value!r}")
        if value == 0.0:
            return cls(0, _NEG_INF)
        return cls(1 if value > 0 else -1, math.log(abs(value)))

    def to_float(self) -> float:
        """sign * exp(log_abs); overflows/underflows like any float would."""
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_abs)

    def scaled(self, log_factor: float) -> "SignedLogValue":
        """Multiply by exp(log_factor) without leaving log space."""
        if self.sign == 0:
            return self
        return SignedLogValue(self.sign, self.log_abs + log_factor)


def signed_log_sum(log_terms, signs) -> SignedLogValue:
    """Sum of signs_i * exp(log_terms_i) as a SignedLogValue.

    Accumulates exp-of-difference against the maximum term, so the result is
    accurate to machine precision relative to the largest summand even when
    the total cancels far below it.  Terms with sign 0 are ignored; exact
    cancellation yields sign 0.
    """
    log_terms = np.asarray(log_terms, dtype=float)
    signs = np.asarray(signs, dtype=float)
    if log_terms.shape != signs.shape:
        raise ValueError("log_terms and signs must have matching shapes")
    if log_terms.size == 0:
        return SignedLogValue(0, _NEG_INF)
    # imported here: scipy.special takes about 0.3 s to import, and no
    # estimate calls this function (polys.eval_f does)
    from scipy.special import logsumexp

    log_abs, sign = logsumexp(log_terms, b=signs, return_sign=True)
    if sign == 0.0 or log_abs == _NEG_INF:
        return SignedLogValue(0, _NEG_INF)
    return SignedLogValue(int(sign), float(log_abs))


# ln sqrt(2 pi) and the Stirling-series coefficients of Cephes' lgam, the
# routine behind scipy.special.gammaln
_LS2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_STIRLING_FROM_1000 = (
    7.9365079365079365079365e-4,
    -2.7777777777777777777778e-3,
    0.0833333333333333333333,
)
_SMALL_LOG_FACTORIALS = np.array([math.log(math.factorial(k)) for k in range(12)])


def _log_factorials(ks: np.ndarray) -> np.ndarray:
    """ln k! for each k of a 1-d integer array, without scipy.

    These are the floats scipy.special.gammaln(k + 1) gives, bit for bit:
    Cephes' lgam at integer x = k + 1 is the log of the exact factorial
    below x = 13, and from there (x - 1/2) ln x - x + ln sqrt(2 pi) plus a
    Stirling series in 1/x^2 (shorter from x = 1000, none past 10^8), with
    libm's log, which math.log calls too.  So log_binomial_row and gp's
    design matrix hold the same floats as when scipy built them, and every
    fixed-seed output is unchanged.
    """
    x = ks + 1.0
    log_x = np.fromiter(map(math.log, x.tolist()), float, len(x))
    p = 1.0 / (x * x)
    series = _STIRLING[0]
    for coef in _STIRLING[1:]:
        series = series * p + coef
    a, b, c = _STIRLING_FROM_1000
    series = np.where(x >= 1000.0, (a * p + b) * p + c, series)
    q = (x - 0.5) * log_x - x + _LS2PI
    stirling = np.where(x > 1e8, q, q + series / x)
    small = _SMALL_LOG_FACTORIALS[np.minimum(ks, 11)]
    return np.where(ks < 12, small, stirling)


@lru_cache(maxsize=16)
def log_binomial_row(n: int) -> np.ndarray:
    """ln C(n, i) for i = 0..n, cached read-only and reused across samples.

    Each entry is ln n! - ln i! - ln (n - i)! from _log_factorials, the
    floats scipy's gammaln gives, so building a row loads no scipy module."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    lf = _log_factorials(np.arange(n + 1))
    row = lf[n] - lf - lf[::-1]
    row.flags.writeable = False
    return row


def log_binomial(n: int, i: int) -> float:
    """ln C(n, i) for a single index pair; the entry of log_binomial_row."""
    if not 0 <= i <= n:
        raise ValueError(f"index {i} outside 0..{n}")
    lf = _log_factorials(np.array([n, i, n - i]))
    return float(lf[0] - lf[1] - lf[2])
