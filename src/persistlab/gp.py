"""Smooth stationary Gaussian process with squared-exponential correlation.

Two independent samplers: a truncated random-series construction whose
untruncated covariance is exactly exp(-(t-u)^2 / (2 s^2)), and a dense
covariance factorization used as a cross-check.  On top of them: survival
probability estimates P(min over the grid > 0) and the exponential-decay fit
extracting the persistence exponent b from log p(T) ~ -b T.

The series is sampled in a latent space.  Its design matrix Phi (grid x
K + 1) is numerically low-rank, so each call factors it once from its Gram
matrix Phi Phi^T (one eigh, no SVD) into Phi ~ G V, with r = rank(G) the
smallest rank whose every row residual variance |E_j|^2 is at most
SERIES_TAIL_TOL = 1e-12 (see engine.latent_factor, which mc's sign
scanner shares).  Near the chosen rank its row tail energies agree with an
SVD's to within 1e-15 (T = 3, 12 and 60), three decades below that bound.  A
path is G xi with xi ~ N(0, I_r); its covariance G G^T misses Phi Phi^T by
at most |E_i| |E_j| <= 1e-12 per entry, the order of the truncation error
the series already accepts.  At grid step 0.25, r runs from 10 (T = 3, K + 1 = 27) to
26 (T = 12, K + 1 = 140; the grid has 49 points), and is 105 at T = 60
(K + 1 = 2107); halving the step barely moves it (26 at T = 12).

estimate_survival runs on the engine mc's plain Monte Carlo uses
(engine._blocks, engine._run_units): blocks of 4096 paths, each seeded from
the call's seed, drawn in two stages on the path factor G (the series
factor, or the Cholesky factor for method="factor").  Unlike mc and games,
which decide a unit of up to four blocks in one pass, gp runs a unit's
blocks one at a time (_survival_block).  An engine.Sieve first draws the
values L eta at grid points at least 2.5 apart in t (2 rows at T = 3, 5 at
T = 12, at most 10), row by row and each row only for the paths still
positive on the rows before it, and rejects every path negative there, up
to the rounding bound rho; only the survivors are completed to a full
N(0, I_r) vector xi, and the verdict min(G xi) > 0 on the whole grid is
unchanged.  Summed over T = 3..12 a path costs 39.2 normals (18.3 sieve
normals and 20.9 for the completions), against 56.8 when every sieve row was
drawn for every path (36.0 sieve normals) and 181 at full rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (
    Sieve,
    _blocks,
    _derive_seed,
    _group,
    _kept,
    _run_units,
    dense,
    latent_factor,
)
from .logscale import _log_factorials
from .stats import PersistenceEstimate

__all__ = [
    "GaussianKernel",
    "DEFAULT_KERNEL",
    "HALF_TIME_KERNEL",
    "FactorizationError",
    "SERIES_TAIL_TOL",
    "series_tail_bound",
    "latent_factor",
    "required_truncation",
    "sample_paths_series",
    "cholesky_with_escalation",
    "estimate_survival",
    "ExponentFit",
    "fit_exponent",
    "estimate_exponent",
]

SERIES_TAIL_TOL = 1e-12
MAX_JITTER = 1e-8
# bytes of survival states _survival_state keeps: 241 x 105 at T = 60 is
# 0.2 MB, so a fit's dozens of horizons fit
_STATE_CACHE_BYTES = 16 * 2**20


@dataclass(frozen=True)
class GaussianKernel:
    """R(t) = exp(-t^2 / (2 s^2)); the scale s = sqrt(2) gives R(t) = e^(-t^2/4).

    R(0) = 1, R is positive and nonincreasing on [0, inf), so it belongs to
    the nonnegative-autocorrelation class the exponent theory requires.
    """

    scale: float

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")

    def corr(self, tau):
        tau = np.asarray(tau, dtype=float)
        return np.exp(-(tau * tau) / (2.0 * self.scale * self.scale))


DEFAULT_KERNEL = GaussianKernel(math.sqrt(2.0))  # e^{-t^2/4}
HALF_TIME_KERNEL = GaussianKernel(1.0)  # e^{-t^2/2}, for the time-change check


def grid_times(horizon: float, step: float) -> np.ndarray:
    """Grid 0, step, ..., with floor(horizon/step)+1 points."""
    if not (horizon > 0.0 and step > 0.0):
        raise ValueError("horizon and step must be positive")
    npts = int(math.floor(horizon / step + 1e-9)) + 1
    return step * np.arange(npts)


class FactorizationError(RuntimeError):
    """Covariance factorization failure; carries the jitter that was tried."""

    def __init__(self, jitter: float, message: str):
        super().__init__(message)
        self.jitter = jitter


def _poisson_tails(y: float, k: int) -> np.ndarray:
    """P(X > j) for X ~ Poisson(y) at j = k, k + 1, ..., in one reverse
    cumulative pass over the terms P(X = i), i > k.

    ln P(X = k + 1) comes from math.lgamma and each later term from the
    ratio y / i, all carried in logs against the largest term.  The terms
    run out to where they fall e^-745 below it and underflow (50 sqrt(y) +
    800 past the mode reaches e^-1269 at y = 10^6), so the tails fall to 0.
    """
    if y == 0.0:
        return np.zeros(1)
    span = max(0, int(y) - k) + int(50.0 * math.sqrt(y)) + 800
    i = np.arange(k + 2, k + 2 + span, dtype=float)
    first = -y + (k + 1) * math.log(y) - math.lgamma(k + 2.0)
    log_terms = np.concatenate(([first], first + np.cumsum(np.log(y / i))))
    top = float(log_terms.max())
    tails = np.cumsum(np.exp(log_terms - top)[::-1])[::-1]
    return math.exp(top) * tails


def _truncation_start(y: float) -> int:
    """The least K required_truncation tries; series_tail_bound starts its
    pass there too, so the two read the same floats."""
    return max(0, int(y))


def series_tail_bound(kernel: GaussianKernel, horizon: float, truncation: int) -> float:
    """sup over t <= horizon of the truncated-tail variance of the series.

    The tail equals the upper Poisson tail P(X > K) at rate (T/s)^2, which is
    monotone in t, so the supremum sits at t = horizon.  It is summed from
    the Poisson terms without scipy (_poisson_tails, within 1e-10 relative
    of scipy.special.pdtrc), on the pass required_truncation reads, so the
    two give the same float at every K it tries.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    y = (horizon / kernel.scale) ** 2
    start = min(truncation, _truncation_start(y))
    tails = _poisson_tails(y, start)[truncation - start :]
    return float(tails[0]) if len(tails) else 0.0


def required_truncation(
    kernel: GaussianKernel, horizon: float, tol: float = SERIES_TAIL_TOL
) -> int:
    """Smallest K whose tail bound is below tol; K ~ (T/s)^2 + O(T/s).  One
    pass gives the tails at every K from (T/s)^2 up (_poisson_tails)."""
    y = (horizon / kernel.scale) ** 2
    start = _truncation_start(y)
    return start + int(np.argmax(_poisson_tails(y, start) < tol))


def _design_matrix(
    kernel: GaussianKernel, times: np.ndarray, truncation: int
) -> np.ndarray:
    """Phi[j, k] = e^(-t_j^2/(2 s^2)) (t_j/s)^k / sqrt(k!)."""
    u = times / kernel.scale
    k = np.arange(truncation + 1, dtype=float)
    log_u = np.where(u > 0, np.log(np.where(u > 0, u, 1.0)), -np.inf)
    with np.errstate(invalid="ignore"):
        log_phi = (
            k[None, :] * log_u[:, None]
            - 0.5 * _log_factorials(np.arange(truncation + 1))[None, :]
            - 0.5 * (u * u)[:, None]
        )
        phi = np.exp(log_phi)
    phi[u == 0.0, :] = 0.0
    phi[u == 0.0, 0] = 1.0
    return phi


def _series_factor(
    kernel: GaussianKernel, horizon: float, step: float, truncation: int
) -> np.ndarray:
    """Latent factor G (grid x r) of the truncated series on the grid: every
    row residual variance of the design matrix is at most SERIES_TAIL_TOL,
    the same bound the truncation meets; columns carry latent_factor's
    canonical sign."""
    tail = series_tail_bound(kernel, horizon, truncation)
    if tail >= SERIES_TAIL_TOL:
        raise ValueError(
            f"truncation {truncation} leaves tail variance {tail:.3e} "
            f">= {SERIES_TAIL_TOL} at horizon {horizon}"
        )
    phi = _design_matrix(kernel, grid_times(horizon, step), truncation)
    return latent_factor(*dense(phi), math.sqrt(SERIES_TAIL_TOL))[0]


def sample_paths_series(
    kernel: GaussianKernel,
    horizon: float,
    step: float,
    truncation: int,
    rng: np.random.Generator,
    n_paths: int,
) -> np.ndarray:
    """(n_paths, grid) matrix of series-construction paths.

    Z(t) = e^(-t^2/(2 s^2)) sum_{k<=K} xi_k (t/s)^k / sqrt(k!) with i.i.d.
    standard normal xi_k; the untruncated series has covariance exactly
    exp(-(t-u)^2/(2 s^2)).  K must satisfy the 1e-12 tail bound.  The paths
    are drawn as G xi with the latent factor of the grid's design matrix
    (see the module docstring).
    """
    g = _series_factor(kernel, horizon, step, truncation)
    xi = rng.standard_normal((g.shape[1], n_paths))
    return (g @ xi).T


def _cholesky(kernel: GaussianKernel, times: np.ndarray, jitter: float) -> np.ndarray:
    cov = kernel.corr(times[:, None] - times[None, :])
    cov = cov + jitter * np.eye(len(times))
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            jitter, f"covariance factorization failed at jitter {jitter:.1e}"
        ) from exc


def cholesky_with_escalation(
    kernel: GaussianKernel,
    times: np.ndarray,
    jitter: float = 1e-12,
) -> tuple[np.ndarray, float]:
    """Cholesky factor and the jitter it took.  The jitter starts at `jitter`
    and escalates by decades up to MAX_JITTER; a failure there raises
    FactorizationError."""
    j = jitter
    while True:
        try:
            return _cholesky(kernel, times, j), j
        except FactorizationError:
            if j >= MAX_JITTER:
                raise
            j = min(j * 10.0, MAX_JITTER)


@_kept(_STATE_CACHE_BYTES)
def _survival_state(
    kernel: GaussianKernel, horizon: float, step: float, method: str
) -> tuple[np.ndarray, Sieve]:
    """The path factor G (grid x r) of estimate_survival's method and its
    sieve; a path survives when every grid value is positive, so a sieve row
    rejects below 0.  Built once per process for each (kernel, horizon,
    step, method) while it stays in the cache, which holds every horizon of
    an exponent fit; the arrays are read-only."""
    times = grid_times(horizon, step)
    if method == "series":
        truncation = required_truncation(kernel, horizon)
        factor = _series_factor(kernel, horizon, step, truncation)
    else:
        factor, _ = cholesky_with_escalation(kernel, times)
    factor.flags.writeable = False
    return factor, Sieve(factor, times, 0.0)


def _survival_block(state: tuple[np.ndarray, Sieve], *blocks) -> int:
    """Surviving paths of a unit of seeded blocks (seed, size), one block at
    a time: the sieve, then the exact grid verdict min(G xi) > 0.  One draw
    over the unit gives the same counts but ran slower on gp-exponent's calls
    (one BLAS thread): 6.7-8.8 M paths/s, against 7.8-11.1 M/s block by block."""
    factor, sieve = state
    survivors = 0
    for block in blocks:
        xi, _ = sieve.draw(*_group([block]))
        survivors += int(np.count_nonzero((factor @ xi).min(axis=0) > 0.0))
    return survivors


def estimate_survival(
    kernel: GaussianKernel,
    horizon: float,
    step: float,
    samples: int,
    seed,
    method: str = "series",
) -> PersistenceEstimate:
    """P(min over the grid > 0) with a 95% Wilson interval.

    method="series" samples the series truncated at required_truncation
    (tail variance below SERIES_TAIL_TOL); method="factor" samples the
    Cholesky factor of the grid covariance, with jitter escalated from
    1e-12 (cholesky_with_escalation).  The step must resolve the unit
    correlation scale (step <= 0.25) and at least 10^3 paths are required.
    Discretization is monitored externally by halving the step and
    comparing.

    Paths are drawn in seeded blocks (engine._blocks: block b from
    SeedSequence(seed).spawn(B)[b], seed an int or a tuple of ints), each
    through the factor's sieve (see the module docstring), so the estimate
    is bit-identical given the seed.
    """
    if step > 0.25 + 1e-12:
        raise ValueError(f"step {step!r} too coarse; need step <= 0.25")
    if samples < 1000:
        raise ValueError("need at least 1000 paths")
    if method not in ("series", "factor"):
        raise ValueError(f"unknown method {method!r}")
    results = _run_units(
        _survival_state,
        (kernel, horizon, step, method),
        _survival_block,
        _blocks(seed, samples),
        1,
    )
    return PersistenceEstimate.from_counts(sum(results), samples)


@dataclass(frozen=True)
class ExponentFit:
    """Weighted-least-squares decay rate of log p(T) against T.

    b_hat is minus the fitted slope; stderr comes from the weighted normal
    equations with the supplied per-point variances.
    """

    b_hat: float
    intercept: float
    stderr: float
    points: tuple[tuple[float, float, float], ...]  # (T, log p, stderr of log p)


def fit_exponent(points: Sequence[tuple[float, float, float]]) -> ExponentFit:
    """Fit log p(T) = intercept - b T by inverse-variance weighted least squares.

    Points with T < 3 are skimmed off as pre-asymptotic; at least 4 usable
    points are required.
    """
    usable = [(float(t), float(lp), float(se)) for t, lp, se in points if t >= 3.0]
    if len(usable) < 4:
        raise ValueError(
            f"need at least 4 usable points with T >= 3.0, got {len(usable)}"
        )
    t = np.array([u[0] for u in usable])
    y = np.array([u[1] for u in usable])
    se = np.array([u[2] for u in usable])
    w = 1.0 / np.square(np.maximum(se, 1e-12))
    # 2x2 weighted normal equations
    s0 = float(np.sum(w))
    s1 = float(np.sum(w * t))
    s2 = float(np.sum(w * t * t))
    r0 = float(np.sum(w * y))
    r1 = float(np.sum(w * t * y))
    det = s0 * s2 - s1 * s1
    if det <= 0:
        raise ValueError("degenerate design; distinct T values are required")
    intercept = (s2 * r0 - s1 * r1) / det
    slope = (s0 * r1 - s1 * r0) / det
    slope_var = s0 / det
    return ExponentFit(-slope, intercept, math.sqrt(slope_var), tuple(usable))


def estimate_exponent(
    kernel: GaussianKernel,
    horizons: Sequence[float],
    step: float,
    samples: int,
    seed,
) -> tuple[ExponentFit, list[tuple[float, PersistenceEstimate]]]:
    """Series survival estimates over the horizons, horizon k seeded from
    (seed, k), and the exponent fit through the usable ones (at least the
    success floor of PersistenceEstimate.log_usable, T >= 3)."""
    estimates: list[tuple[float, PersistenceEstimate]] = []
    points: list[tuple[float, float, float]] = []
    for k, horizon in enumerate(horizons):
        est = estimate_survival(
            kernel, horizon, step, samples, _derive_seed(seed, k)
        )
        estimates.append((float(horizon), est))
        if est.log_usable():
            points.append((float(horizon), est.log_p, est.log_p_stderr))
    fit = fit_exponent(points)
    return fit, estimates
