import math

import numpy as np
import pytest

from persistlab.games import (
    EquilibriumSet,
    GamePayoffs,
    equilibrium_polynomial,
    internal_equilibria,
    payoff_A,
    payoff_B,
    prob_no_internal_equilibria,
    replicator_rhs,
)
from persistlab.games import _no_positive_root
from persistlab.mc import FULL_AXIS, _SignScanner, estimate_persistence
from persistlab.polys import BinomialPolynomial
from persistlab.roots import (
    DyadicPolynomial,
    bernstein_verdicts,
    count_positive_roots,
)


def test_payoff_endpoints():
    g = GamePayoffs(4, np.array([5.0, -1.0, 2.0, 9.0]), np.zeros(4))
    assert payoff_A(g, 0.0) == 5.0  # only the zero-coplayer term survives
    assert payoff_A(g, 1.0) == 9.0
    assert payoff_B(g, 0.37) == 0.0


def test_payoff_constant_tables():
    g = GamePayoffs(5, np.full(5, 3.25), np.zeros(5))
    for y in np.linspace(0, 1, 11):
        assert payoff_A(g, float(y)) == pytest.approx(3.25, rel=1e-14)


def test_payoff_matches_direct_bernstein_sum():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        a = rng.standard_normal(n)
        g = GamePayoffs(n, a, np.zeros(n))
        y = float(rng.uniform(0, 1))
        direct = sum(
            a[k] * math.comb(n - 1, k) * y**k * (1 - y) ** (n - 1 - k)
            for k in range(n)
        )
        assert payoff_A(g, y) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_payoff_validation():
    g = GamePayoffs(2, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        payoff_A(g, 1.5)
    with pytest.raises(ValueError):
        GamePayoffs(1, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        GamePayoffs(3, np.zeros(2), np.zeros(3))


def test_replicator_boundary_rest_points():
    rng = np.random.default_rng(3)
    g = GamePayoffs(6, rng.standard_normal(6), rng.standard_normal(6))
    assert replicator_rhs(g, 0.0) == 0.0
    assert replicator_rhs(g, 1.0) == 0.0


def test_replicator_internal_zero_two_player():
    g = GamePayoffs.from_differences([-1.0, 1.0])
    assert replicator_rhs(g, 0.5) == pytest.approx(0.0, abs=1e-15)
    eq = internal_equilibria(g)
    assert eq.count == 1
    assert eq.internal[0] == pytest.approx(0.5, abs=1e-12)


def test_replicator_sign_with_positive_differences():
    g = GamePayoffs.from_differences([0.5, 1.0, 2.0])
    for y in (0.1, 0.5, 0.9):
        assert replicator_rhs(g, y) > 0.0


def test_all_positive_differences_no_equilibria():
    eq = internal_equilibria(GamePayoffs.from_differences([0.3, 0.8, 1.4, 0.2]))
    assert eq.count == 0 and eq.internal == ()


def test_cubic_game_equilibria():
    # x-polynomial (x-1)(x-2)(x-3) built from differences (-6, 11/3, -2, 1)
    g = GamePayoffs.from_differences([-6.0, 11.0 / 3.0, -2.0, 1.0])
    q = equilibrium_polynomial(g)
    assert [float(c) for c in q.coefficients] == pytest.approx([-6, 11, -6, 1])
    eq = internal_equilibria(g)
    assert eq.count == 3
    assert eq.internal == pytest.approx([0.5, 2 / 3, 0.75], abs=1e-12)


def test_equilibria_sorted_increasing():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        eq = internal_equilibria(GamePayoffs.from_differences(rng.standard_normal(n)))
        assert list(eq.internal) == sorted(eq.internal)
        assert all(0.0 < y < 1.0 for y in eq.internal)


def test_equal_payoffs_at_equilibria():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 30:
        n = int(rng.integers(3, 9))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        g = GamePayoffs(n, a, b)
        eq = internal_equilibria(g)
        for y in eq.internal:
            assert abs(payoff_A(g, y) - payoff_B(g, y)) < 1e-9
            checked += 1


def test_count_matches_exact_root_count():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        g = GamePayoffs.from_differences(rng.standard_normal(n))
        q = equilibrium_polynomial(g)
        assert internal_equilibria(g).count == count_positive_roots(q).count


def test_scale_invariance():
    rng = np.random.default_rng(13)
    beta = rng.standard_normal(6)
    base = internal_equilibria(GamePayoffs.from_differences(beta))
    for k in (2.0, 0.25, 64.0):
        scaled = internal_equilibria(GamePayoffs.from_differences(beta * k))
        assert scaled.internal == pytest.approx(base.internal, abs=1e-11)
        assert scaled.count == base.count


def test_degenerate_zero_differences():
    eq = internal_equilibria(GamePayoffs(3, np.ones(3), np.ones(3)))
    assert eq == EquilibriumSet((), 0, degenerate=True)


def test_prob_two_player_half():
    # no internal equilibrium iff both payoff differences share a sign
    est = prob_no_internal_equilibria(2, 40_000, seed=4)
    assert est.ci_low <= 0.5 <= est.ci_high


def test_prob_three_player_against_root_oracle():
    # independent check: count positive real roots from companion eigenvalues
    rng = np.random.default_rng(40)
    samples = 20_000
    hits = 0
    for _ in range(samples):
        b = rng.standard_normal(3)
        w = np.array([b[0], 2 * b[1], b[2]])
        roots = np.roots(w[::-1]) if np.any(w[1:] != 0) else []
        has_pos = any(
            abs(z.imag) < 1e-9 * max(1.0, abs(z)) and z.real > 0 for z in roots
        )
        hits += not has_pos
    oracle = hits / samples
    est = prob_no_internal_equilibria(3, 40_000, seed=41)
    se = math.sqrt(oracle * (1 - oracle) / samples)
    assert abs(est.p_hat - oracle) < 4 * se + (est.ci_high - est.ci_low) / 2


def test_prob_workers_deterministic():
    a = prob_no_internal_equilibria(4, 8000, seed=6, workers=2)
    b = prob_no_internal_equilibria(4, 8000, seed=6, workers=2)
    assert a == b
    assert prob_no_internal_equilibria(4, 8000, seed=6, workers=1) == a


def test_prob_rejects_nonpositive_workers():
    with pytest.raises(ValueError, match="workers must be positive"):
        prob_no_internal_equilibria(3, 100, workers=0)


def test_prob_counts_lifted_games_over_workers():
    # every game without an equilibrium was lifted, and more workers than
    # games leaves the spare workers idle
    est = prob_no_internal_equilibria(5, 3000, seed=2, workers=2)
    assert est.successes <= est.escalated <= est.samples
    one = prob_no_internal_equilibria(4, 1, seed=2, workers=2)
    assert one.samples == 1


def test_prob_refuses_oversized_games():
    with pytest.raises(ValueError, match="exceed"):
        prob_no_internal_equilibria(20_000, 1)


def _root_count(n, coeffs):
    return count_positive_roots(
        DyadicPolynomial.from_binomial(BinomialPolynomial(n, coeffs))
    ).count


@pytest.mark.parametrize(
    "players, draws, checked",
    [(2, 2000, 2000), (3, 2000, 2000), (5, 2000, 2000), (11, 2000, 400), (51, 50_000, 8)],
)
def test_latent_rejects_and_exact_verdicts_match_root_counts(players, draws, checked):
    # the exact root count of each lift is the oracle for the latent
    # sign-change reject, the certified float verdicts and the exact
    # fallback alike; `checked` caps the oracle calls per kind, which cost
    # 0.25 s at degree 50
    n = players - 1
    scanner = _SignScanner(n, FULL_AXIS)
    rng = np.random.default_rng(700 + players)
    xi = rng.standard_normal((scanner.rank, draws))
    a = scanner.lift(xi, rng.standard_normal((n + 1, draws)))
    rejected = scanner.sign_change(xi)
    # the certificate settles every Gaussian lift, and leaves a zero payoff
    # difference at y = 0 to the exact fallback: lifts with a_0 zeroed,
    # appended as games the latent scan did not reject, make up that path
    unsettled = a[:, :checked].copy()
    unsettled[0] = 0.0
    a = np.hstack([a, unsettled])
    rejected = np.concatenate([rejected, np.zeros(checked, dtype=bool)])
    same_sign = (a > 0).all(axis=0) | (a < 0).all(axis=0)
    certified = bernstein_verdicts(a) != 0
    kinds = [rejected, ~rejected & certified, ~rejected & ~certified]
    chosen = np.concatenate([np.flatnonzero(k)[:checked] for k in kinds])
    verdict, exact = _no_positive_root(n, a[:, chosen])
    assert exact == np.count_nonzero(~certified[chosen])
    for j, none in zip(chosen, verdict):
        count = _root_count(n, a[:, j])
        assert none == (count == 0)
        if rejected[j]:
            assert count >= 1
        if same_sign[j]:
            assert none
    assert all(np.any(k) for k in kinds)


@pytest.mark.parametrize("players, samples", [(11, 40_000), (51, 200_000)])
def test_prob_matches_twice_full_axis_persistence(players, samples):
    # f and -f have the same law, so P(no positive root) = 2 P(f > 0 on the
    # positive axis)
    games = prob_no_internal_equilibria(players, samples, seed=players)
    mc = estimate_persistence(players - 1, FULL_AXIS, samples, seed=players)
    assert games.ci_low <= 2 * mc.ci_high and 2 * mc.ci_low <= games.ci_high
