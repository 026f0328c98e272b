"""Random multi-player two-strategy games: replicator payoffs and the exact
correspondence between internal equilibria and positive polynomial roots.

An internal rest point of the replicator dynamics at population fraction
y in (0, 1) satisfies equal average payoffs; under x = y / (1 - y) that is a
positive root of sum_k (a_k - b_k) C(n-1, k) x^k, whose Bernstein
coefficients in y are the payoff differences themselves.  Equilibria are
isolated exactly by the Descartes bisection of `roots` and bisected to a
stated tolerance.

With i.i.d. standard normal payoff differences that polynomial is the
persistence family of `mc` at degree players - 1, so the no-equilibrium
rate is estimated on mc's latent sign scan: games whose polynomial
certifiably changes sign on the grid are rejected there, and only the
others are lifted to payoff differences.  A lifted block is decided at once
by the certified Bernstein bisection roots.bernstein_verdicts; the games it
leaves undecided (a zero payoff difference at y = 0, tangencies) go to the
exact Descartes check, so every verdict is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import _blocks, _columns, _group, _run_units
from .mc import FULL_AXIS, _SignScanner, _scanner
from .polys import BinomialPolynomial
from .roots import (
    DyadicPolynomial,
    bernstein_verdicts,
    locate_positive_roots,
    no_positive_roots,
)
from .stats import PersistenceEstimate

__all__ = [
    "GamePayoffs",
    "EquilibriumSet",
    "payoff_A",
    "payoff_B",
    "replicator_rhs",
    "equilibrium_polynomial",
    "internal_equilibria",
    "prob_no_internal_equilibria",
]


@dataclass(frozen=True)
class GamePayoffs:
    """Payoff tables of a symmetric game in groups of `players` individuals.

    a[k] (resp. b[k]) is the payoff of an A-strategist (resp. B) whose group
    contains k other A-strategists, k = 0..players-1.
    """

    players: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.players < 2:
            raise ValueError("need at least 2 players")
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        for name, arr in (("a", a), ("b", b)):
            if arr.shape != (self.players,):
                raise ValueError(
                    f"payoff table {name} needs length {self.players}, got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"payoff table {name} must be finite")

    @property
    def beta(self) -> np.ndarray:
        """Payoff differences a_k - b_k; the only thing equilibria depend on."""
        return self.a - self.b

    @classmethod
    def from_differences(cls, beta) -> "GamePayoffs":
        beta = np.asarray(beta, dtype=float)
        return cls(len(beta), beta, np.zeros(len(beta)))


def _bernstein(coeffs: np.ndarray, y: float) -> float:
    """De Casteljau evaluation of sum_k c_k C(m,k) y^k (1-y)^(m-k): stable
    convex combinations, exact at y = 0 and y = 1."""
    v = np.array(coeffs, dtype=float)
    while len(v) > 1:
        v = v[:-1] * (1.0 - y) + v[1:] * y
    return float(v[0])


def _check_fraction(y: float) -> None:
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"population fraction must lie in [0, 1], got {y!r}")


def payoff_A(game: GamePayoffs, y: float) -> float:
    """Average payoff of strategy A at A-frequency y."""
    _check_fraction(y)
    return _bernstein(game.a, y)


def payoff_B(game: GamePayoffs, y: float) -> float:
    """Average payoff of strategy B at A-frequency y."""
    _check_fraction(y)
    return _bernstein(game.b, y)


def replicator_rhs(game: GamePayoffs, y: float) -> float:
    """Selection dynamic y' = y (1-y) (payoff_A - payoff_B); exactly zero at
    the boundary rest points y = 0, 1."""
    _check_fraction(y)
    if y == 0.0 or y == 1.0:
        return 0.0
    return y * (1.0 - y) * _bernstein(game.beta, y)


def equilibrium_polynomial(game: GamePayoffs) -> DyadicPolynomial:
    """sum_k (a_k - b_k) C(players-1, k) x^k with exact dyadic coefficients."""
    return DyadicPolynomial.from_binomial(
        BinomialPolynomial(game.players - 1, game.beta)
    )


@dataclass(frozen=True)
class EquilibriumSet:
    """Distinct internal equilibria in (0, 1), sorted increasing.

    `degenerate` marks the identically-zero payoff difference, where every
    mixture is a rest point and no discrete set exists.
    """

    internal: tuple[float, ...]
    count: int
    degenerate: bool = False


def internal_equilibria(game: GamePayoffs, tol: float = 1e-12) -> EquilibriumSet:
    """Locate the internal equilibria through the positive-root correspondence.

    Roots of the associated polynomial are isolated exactly by Descartes
    bisection, bisected to tol in the x coordinate, and mapped back by
    y = x / (1 + x).  The count is exact; the Sturm-chain count
    roots.count_positive_roots is an independent check on it.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    q = equilibrium_polynomial(game)
    if q.is_zero():
        return EquilibriumSet((), 0, degenerate=True)
    xs = locate_positive_roots(q, tol)
    ys = tuple(x / (1.0 + x) for x in xs)
    return EquilibriumSet(ys, len(ys), degenerate=False)


def _no_positive_root(n: int, a: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact per-column verdict of {no positive root} for payoff differences
    a (n+1, B), and how many columns the exact check decided.  The certified
    float bisection bernstein_verdicts settles the block at once (its first
    test is Descartes' rule of signs on the coefficients); only the columns
    it leaves undecided go to the exact Descartes check.  A degenerate
    all-zero difference makes every mixture a rest point, so it does not
    belong to the no-equilibrium event."""
    verdicts = bernstein_verdicts(a)
    none = verdicts > 0
    fallback = np.flatnonzero(verdicts == 0)
    for j in fallback:
        q = DyadicPolynomial.from_binomial(BinomialPolynomial(n, a[:, j]))
        none[j] = (not q.is_zero()) and no_positive_roots(q)
    return none, len(fallback)


def _no_equilibria_block(scanner: _SignScanner, *blocks) -> tuple[int, int, int]:
    """(games with no internal equilibrium, lifted games, games decided by
    the exact check) of a unit of seeded blocks (seed, size), decided in
    one pass: the scanner's latent sign-change rule rejects games with a
    certain root, the rest are lifted to payoff differences and decided by
    _no_positive_root.  Each block's generator draws its xi and then z for
    its own lifted games, as the block would alone, and every verdict is
    per game, so the counts are the sums of the blocks' own."""
    rngs, edges = _group(blocks)
    xi = _columns(rngs, scanner.rank, edges)
    lifted = np.flatnonzero(~scanner.sign_change(xi))
    z = _columns(rngs, scanner.n + 1, np.searchsorted(lifted, edges))
    a = scanner.lift(xi.take(lifted, axis=1), z)
    none, exact = _no_positive_root(scanner.n, a)
    return int(np.count_nonzero(none)), len(lifted), exact


def prob_no_internal_equilibria(
    players: int,
    samples: int,
    seed=0,
    workers: int = 1,
) -> PersistenceEstimate:
    """Fraction of random games with no internal equilibrium, with a 95%
    Wilson interval.

    Payoff differences are i.i.d. standard normal; per game the event is
    {no positive root of the associated polynomial}, which is the
    persistence polynomial family at n = players - 1.  A game is rejected in
    the scanner's latent space when its polynomial certifiably takes both
    signs (wrong with probability below e^-50 per game); every other game
    is lifted to exactly standard normal differences and decided exactly,
    by the float certificate or, where it stays undecided, the integer
    Descartes bisection of roots.no_positive_roots.  The estimate's
    `escalated` counts the lifted games and `exact` the ones the Descartes
    bisection decided.  Bit-identical given the seed, for any worker count.
    """
    if players < 2:
        raise ValueError("need at least 2 players")
    if samples < 1:
        raise ValueError("samples must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    results = _run_units(
        _scanner,
        (players - 1, FULL_AXIS, 0.25),  # step as estimate_persistence passes it
        _no_equilibria_block,
        _blocks(seed, samples),
        workers,
    )
    none, escalated, exact = (sum(r) for r in zip(*results))
    return PersistenceEstimate.from_counts(
        none, samples, escalated=escalated, exact=exact
    )

