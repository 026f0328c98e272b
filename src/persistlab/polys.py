"""The binomial-weighted Gaussian random polynomial and its normalized form."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logscale import SignedLogValue, log_binomial_row, signed_log_sum

__all__ = [
    "BinomialPolynomial",
    "sample_polynomial",
    "eval_f",
]


@dataclass(frozen=True)
class BinomialPolynomial:
    """f(x) = sum_{i=0}^{n} C(n,i) a_i x^i, stored as n plus raw a_0..a_n."""

    degree: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeffs)
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if coeffs.shape != (self.degree + 1,):
            raise ValueError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, "
                f"got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")


def sample_polynomial(n: int, rng: np.random.Generator) -> BinomialPolynomial:
    """Draw a_0..a_n i.i.d. standard normal from the given stream."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return BinomialPolynomial(n, rng.standard_normal(n + 1))


def eval_f(p: BinomialPolynomial, x: float) -> SignedLogValue:
    """Sign and log-magnitude of f(x) at x > 0, via log-scaled weights.

    Sign 0 is returned for exact cancellation and never coerced.
    """
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"x must be positive and finite, got {x!r}")
    logw = log_binomial_row(p.degree)
    i = np.arange(p.degree + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_terms = logw + i * math.log(x) + np.log(np.abs(p.coefficients))
    return signed_log_sum(log_terms, np.sign(p.coefficients))
