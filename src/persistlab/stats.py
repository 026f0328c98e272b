"""Binomial-proportion machinery shared by every Monte Carlo pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.stats import norm, t as student_t

__all__ = ["PersistenceEstimate", "SplittingEstimate", "wilson_ci"]


def wilson_ci(successes: int, samples: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; stable near 0 and 1."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    if not 0 <= successes <= samples:
        raise ValueError(f"successes {successes} outside 0..{samples}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    z = float(norm.ppf(0.5 + level / 2.0))
    phat = successes / samples
    z2 = z * z
    denom = 1.0 + z2 / samples
    center = (phat + z2 / (2.0 * samples)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / samples + z2 / (4.0 * samples * samples))
        / denom
    )
    # the score interval hits the boundary exactly at 0 or full successes
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == samples else min(1.0, center + half)
    return lo, hi


class _Interval:
    """Shared read interface of the estimate types: an interval
    [ci_low, ci_high] around p_hat."""

    ci_low: float
    ci_high: float

    def overlaps(self, other: "_Interval") -> bool:
        """Whether the two confidence intervals intersect."""
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high


@dataclass(frozen=True)
class PersistenceEstimate(_Interval):
    """Monte Carlo proportion estimate with its 95% (by default) Wilson interval.

    Zero-success estimates keep a meaningful upper bound but are not usable on
    the log scale; log-based consumers should check `log_usable` first.
    `unresolved` counts the samples that neither the scan nor the exact
    fallback could decide; they are counted as failures (conservative).
    `escalated` counts the samples the latent scan could not settle, which
    were lifted to coefficient vectors and decided there.  `exact` counts
    the lifted full-axis samples and games that the batched float
    certificate (roots.bernstein_verdicts) left undecided, which the exact
    Fraction path then decided; restricted intervals leave it 0.
    """

    successes: int
    samples: int
    p_hat: float
    ci_low: float
    ci_high: float
    unresolved: int = 0
    escalated: int = 0
    exact: int = 0

    @classmethod
    def from_counts(
        cls,
        successes: int,
        samples: int,
        level: float = 0.95,
        unresolved: int = 0,
        escalated: int = 0,
        exact: int = 0,
    ) -> "PersistenceEstimate":
        lo, hi = wilson_ci(successes, samples, level)
        return cls(
            successes,
            samples,
            successes / samples,
            lo,
            hi,
            unresolved,
            escalated,
            exact,
        )

    def log_usable(self, floor: int = 10) -> bool:
        return self.successes >= floor

    @property
    def log_p(self) -> float:
        if self.successes == 0:
            raise ValueError("log of a zero-success estimate")
        return math.log(self.p_hat)

    @property
    def log_p_stderr(self) -> float:
        """Delta-method standard error of log p_hat: sqrt((1-p) / (n p))."""
        if self.successes == 0:
            raise ValueError("stderr of log of a zero-success estimate")
        return math.sqrt((1.0 - self.p_hat) / (self.samples * self.p_hat))


@dataclass(frozen=True)
class SplittingEstimate(_Interval):
    """Rare-event estimate pooled from independent splitting replicates, with
    a 95% interval.

    Each replicate is an independent estimate of p; p_hat is their mean.  The
    interval on log p comes from the spread of the replicates (delta method,
    Student t with R - 1 degrees of freedom), not from an idealized
    per-level variance formula, because the MCMC moves leave clones
    correlated.  `successes` counts the final-stage particles decided
    persistent over all replicates; `unresolved` counts final-stage particles
    that no check could decide (counted as failures).  `levels` is the total
    over replicates; `replicate_levels` and `replicate_accept` (the share of
    proposed pCN moves accepted, 0 for a replicate that made none) give each
    replicate's, when the caller supplies them.
    """

    replicate_p: tuple[float, ...]
    particles: int
    levels: int
    successes: int
    unresolved: int
    p_hat: float
    ci_low: float
    ci_high: float
    replicate_levels: tuple[int, ...] = ()
    replicate_accept: tuple[float, ...] = ()

    @classmethod
    def from_replicates(
        cls,
        replicate_p,
        particles: int,
        levels: int,
        successes: int,
        unresolved: int,
        *,
        replicate_levels=(),
        replicate_accept=(),
    ) -> "SplittingEstimate":
        reps = tuple(float(p) for p in replicate_p)
        if len(reps) < 2:
            raise ValueError("need at least two replicates for an interval")
        p_hat = math.fsum(reps) / len(reps)
        if p_hat == 0.0:
            lo, hi = 0.0, 1.0
        else:
            se = _replicate_log_stderr(reps, p_hat)
            z = float(student_t.ppf(0.975, len(reps) - 1))
            lo = p_hat * math.exp(-z * se)
            hi = min(1.0, p_hat * math.exp(z * se))
        return cls(
            reps,
            particles,
            levels,
            successes,
            unresolved,
            p_hat,
            lo,
            hi,
            tuple(int(k) for k in replicate_levels),
            tuple(float(a) for a in replicate_accept),
        )

    def log_usable(self, floor: int = 10) -> bool:
        return self.successes >= floor and self.p_hat > 0.0

    @property
    def log_p(self) -> float:
        if self.p_hat == 0.0:
            raise ValueError("log of a zero estimate")
        return math.log(self.p_hat)

    @property
    def log_p_stderr(self) -> float:
        """Delta-method standard error of log p_hat from the replicate spread."""
        if self.p_hat == 0.0:
            raise ValueError("stderr of log of a zero estimate")
        return _replicate_log_stderr(self.replicate_p, self.p_hat)


def _replicate_log_stderr(reps: tuple[float, ...], p_hat: float) -> float:
    r = len(reps)
    var = math.fsum((p - p_hat) ** 2 for p in reps) / (r - 1)
    return math.sqrt(var / r) / p_hat
