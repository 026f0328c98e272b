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
SERIES_TAIL_TOL = 1e-12 (see latent_factor, which mc's sign scanner
shares).  Near the chosen rank its row tail energies agree with an SVD's
to within 1e-15 (T = 3, 12 and 60), three decades below that bound.  A
path is G xi with xi ~ N(0, I_r); its covariance G G^T misses Phi Phi^T by
at most |E_i| |E_j| <= 1e-12 per entry, the order of the truncation error
the series already accepts.  At grid step 0.25, r runs from 10 (T = 3, K + 1 = 27) to
26 (T = 12, K + 1 = 140; the grid has 49 points), and is 105 at T = 60
(K + 1 = 2107); halving the step barely moves it (26 at T = 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln, pdtrc

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
    "sample_paths_factor",
    "cholesky_with_escalation",
    "estimate_survival",
    "ExponentFit",
    "fit_exponent",
    "estimate_exponent",
]

SERIES_TAIL_TOL = 1e-12
MAX_JITTER = 1e-8
# relative gap below which two peak magnitudes of a factor column tie; far
# above the ~1e-7 relative drift of the smallest kept columns between LAPACK
# eigensolvers
_PEAK_TIE = 1e-6
_BLOCK = 20_000  # paths drawn per matmul in estimate_survival


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


def series_tail_bound(kernel: GaussianKernel, horizon: float, truncation: int) -> float:
    """sup over t <= horizon of the truncated-tail variance of the series.

    The tail equals the upper Poisson tail P(X > K) at rate (T/s)^2, which is
    monotone in t, so the supremum sits at t = horizon.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    y = (horizon / kernel.scale) ** 2
    return float(pdtrc(truncation, y))


def required_truncation(
    kernel: GaussianKernel, horizon: float, tol: float = SERIES_TAIL_TOL
) -> int:
    """Smallest K whose tail bound is below tol; K ~ (T/s)^2 + O(T/s)."""
    k = max(0, int((horizon / kernel.scale) ** 2))
    while series_tail_bound(kernel, horizon, k) >= tol:
        k += 1
    return k


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
            - 0.5 * gammaln(k + 1.0)[None, :]
            - 0.5 * (u * u)[:, None]
        )
        phi = np.exp(log_phi)
    phi[u == 0.0, :] = 0.0
    phi[u == 0.0, 0] = 1.0
    return phi


def latent_factor(
    matrix: np.ndarray, bound: float, reach: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-r factor (G, V) of matrix from its Gram matrix, with matrix ~ G V.

    The Gram matrix matrix matrix^T = Q Lambda Q^T (one eigh) gives the
    left singular vectors Q and squared singular values Lambda, so the
    tail energies q_jk^2 lambda_k are the row residuals of every rank.  r is
    the smallest rank with every row residual |E_j| of matrix - G V (times
    reach) at most bound.  V0 = Lambda_r^(-1/2) Q_r^T matrix spans the top r
    right singular vectors; one Cholesky-QR pass, V = chol(V0 V0^T)^(-1) V0,
    makes its rows orthonormal to rounding, and G = matrix V^T, so the
    residual E = matrix - G V satisfies E V^T = 0 to rounding.  Paths G xi
    with xi ~ N(0, I_r) have covariance G G^T, which differs from
    matrix matrix^T by E E^T, at most |E_i| |E_j| per entry.

    The Gram squares the spectrum: eigh resolves a row's tail energy only to
    about 1e-16 times the largest eigenvalue, so a residual |E_j| is
    resolved down to about 1e-8 of the largest singular value.  Both users
    ask for far less (the series: |E_j|^2 <= 1e-12 on unit-variance rows;
    the sign scanner: |E_j| <= 1e-4 / reach on unit rows).

    Each column of G is flipped to make its largest-magnitude entry
    positive (and the matching row of V with it): eigenvectors are unique
    only up to sign and LAPACK drivers differ in the sign they return, so
    without the flip paths at a fixed seed would depend on the LAPACK build.
    Entries within _PEAK_TIE of the largest magnitude count as tied and the
    first of them decides: on a grid symmetric about its centre (the series
    grid, the full axis) some columns are antisymmetric, with two opposite
    peaks that only rounding tells apart.
    """
    lam, q = np.linalg.eigh(matrix @ matrix.T)
    lam = np.maximum(lam[::-1], 0.0)
    q = q[:, ::-1]
    # tail[j, k] = |row j of the rank-k residual|^2; it falls with k, so
    # the smallest admissible rank is the number of ranks that fail
    tail = np.cumsum((q * q * lam)[:, ::-1], axis=1)[:, ::-1]
    rank = int(np.count_nonzero(np.sqrt(tail.max(axis=0)) * reach > bound))
    v = (q[:, :rank] / np.sqrt(lam[:rank])).T @ matrix
    v = np.linalg.inv(np.linalg.cholesky(v @ v.T)) @ v
    g = matrix @ v.T
    mag = np.abs(g)
    peak = np.argmax(mag >= (1.0 - _PEAK_TIE) * mag.max(axis=0), axis=0)
    sign = np.sign(g[peak, np.arange(rank)])
    return g * sign, v * sign[:, None]


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
    return latent_factor(phi, math.sqrt(SERIES_TAIL_TOL))[0]


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
    max_jitter: float = MAX_JITTER,
) -> tuple[np.ndarray, float]:
    """Cholesky factor with jitter escalated by decades up to max_jitter."""
    j = jitter
    while True:
        try:
            return _cholesky(kernel, times, j), j
        except FactorizationError:
            if j >= max_jitter:
                raise
            j = min(j * 10.0, max_jitter)


def sample_paths_factor(
    kernel: GaussianKernel,
    horizon: float,
    step: float,
    jitter: float,
    rng: np.random.Generator,
    n_paths: int,
) -> np.ndarray:
    """(n_paths, grid) matrix of factorization-sampler paths.

    Raises FactorizationError (reporting the attempted jitter) when the
    jittered covariance is not numerically positive definite.
    """
    times = grid_times(horizon, step)
    chol = _cholesky(kernel, times, jitter)
    z = rng.standard_normal((len(times), n_paths))
    return (chol @ z).T


def estimate_survival(
    kernel: GaussianKernel,
    horizon: float,
    step: float,
    samples: int,
    rng,
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
    """
    if step > 0.25 + 1e-12:
        raise ValueError(f"step {step!r} too coarse; need step <= 0.25")
    if samples < 1000:
        raise ValueError("need at least 1000 paths")
    if method not in ("series", "factor"):
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(rng)
    if method == "series":
        truncation = required_truncation(kernel, horizon)
        factor = _series_factor(kernel, horizon, step, truncation)
    else:
        factor, _ = cholesky_with_escalation(kernel, grid_times(horizon, step))

    successes = 0
    remaining = samples
    while remaining > 0:
        b = min(_BLOCK, remaining)
        remaining -= b
        z = rng.standard_normal((factor.shape[1], b))
        paths = factor @ z  # (grid, b)
        successes += int(np.count_nonzero(paths.min(axis=0) > 0.0))
    return PersistenceEstimate.from_counts(successes, samples)


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


def fit_exponent(
    points: Sequence[tuple[float, float, float]], t_min: float = 3.0
) -> ExponentFit:
    """Fit log p(T) = intercept - b T by inverse-variance weighted least squares.

    Points with T < t_min are skimmed off as pre-asymptotic; at least 4 usable
    points are required.
    """
    usable = [(float(t), float(lp), float(se)) for t, lp, se in points if t >= t_min]
    if len(usable) < 4:
        raise ValueError(
            f"need at least 4 usable points with T >= {t_min}, got {len(usable)}"
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
    """Series survival estimates over the horizons (one independent
    substream each) and the exponent fit through the usable ones (at least
    the success floor of PersistenceEstimate.log_usable, T >= 3)."""
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(horizons))
    estimates: list[tuple[float, PersistenceEstimate]] = []
    points: list[tuple[float, float, float]] = []
    for horizon, child in zip(horizons, children):
        est = estimate_survival(
            kernel, horizon, step, samples, np.random.default_rng(child)
        )
        estimates.append((float(horizon), est))
        if est.log_usable():
            points.append((float(horizon), est.log_p, est.log_p_stderr))
    fit = fit_exponent(points)
    return fit, estimates
