import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistlab import mc, roots
from persistlab.games import GamePayoffs, equilibrium_polynomial
from persistlab.mc import IntervalSpec
from persistlab.polys import BinomialPolynomial, sample_polynomial
from persistlab.roots import (
    DyadicPolynomial,
    bernstein_verdicts,
    build_chain,
    count_positive_roots,
    count_roots_in,
    is_persistent,
    locate_positive_roots,
    no_positive_roots,
)


def dyadic(*coeffs):
    return DyadicPolynomial.from_floats(coeffs)


# --- representation ---


def test_float_conversion_is_exact():
    p = dyadic(0.1, -3.7)
    assert p.coefficients[0] == Fraction(0.1)  # the float's exact dyadic value
    assert float(p.coefficients[0]) == 0.1


def test_trailing_zeros_stripped():
    assert dyadic(1.0, 2.0, 0.0, 0.0).degree == 1
    assert dyadic(0.0, 0.0).is_zero()


def test_non_dyadic_rejected():
    with pytest.raises(ValueError):
        DyadicPolynomial((Fraction(1, 3),))


def test_scaled_integers():
    p = dyadic(0.5, -2.0, 0.25)
    assert p.scaled_integers() == (2, -8, 1)


def test_from_binomial_weights():
    p = BinomialPolynomial(3, np.array([1.0, 1.0, 1.0, 1.0]))
    assert DyadicPolynomial.from_binomial(p).coefficients == (1, 3, 3, 1)


# --- chains ---


def test_textbook_chain():
    chain = build_chain(dyadic(2.0, -3.0, 1.0))  # (x-1)(x-2)
    assert len(chain) == 3
    degrees = [len(c) - 1 for c in chain.elements]
    assert degrees == [2, 1, 0]
    assert chain.elements[-1][0] > 0


def test_linear_chain():
    chain = build_chain(dyadic(-1.0, 1.0))
    assert [tuple(c) for c in chain.elements] == [(-1, 1), (1,)]


def test_chain_degrees_strictly_decrease():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        p = DyadicPolynomial.from_floats(rng.standard_normal(n + 1))
        degrees = [len(c) - 1 for c in build_chain(p).elements]
        assert all(a > b for a, b in zip(degrees, degrees[1:]))


def test_chain_negated_remainder_convention():
    # consecutive elements satisfy p_{k+1} ~ -rem(p_{k-1}, p_k) up to
    # positive constants; check via the sign of the remainder at a point
    rng = np.random.default_rng(12)
    for _ in range(25):
        p = DyadicPolynomial.from_floats(rng.standard_normal(7))
        els = build_chain(p).elements
        for k in range(2, len(els)):
            a = np.polynomial.Polynomial([float(v) for v in els[k - 2]])
            b = np.polynomial.Polynomial([float(v) for v in els[k - 1]])
            c = np.polynomial.Polynomial([float(v) for v in els[k]])
            _, rem = divmod(a, b)
            t = 0.737
            if abs(rem(t)) > 1e-6 and abs(c(t)) > 1e-6:
                assert math.copysign(1, rem(t)) == -math.copysign(1, c(t))


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        build_chain(dyadic(0.0))


def test_repeated_root_ends_at_gcd():
    chain = build_chain(dyadic(1.0, -2.0, 1.0))  # (x-1)^2
    assert len(chain.elements[-1]) > 1  # ends at the gcd, not a constant


# --- counting ---


def test_count_textbook_cases():
    r = count_positive_roots(dyadic(2.0, -3.0, 1.0))
    assert (r.count, r.persistent_positive) == (2, False)
    r = count_positive_roots(dyadic(1.0, 1.0))
    assert (r.count, r.persistent_positive) == (0, True)
    r = count_positive_roots(dyadic(-1.0, -1.0))
    assert (r.count, r.persistent_positive) == (0, False)


def test_tangency_counts_and_blocks_persistence():
    # (x-1)^2: touches zero without crossing
    r = count_positive_roots(dyadic(1.0, -2.0, 1.0))
    assert r.count == 1
    assert not r.persistent_positive


def test_multiplicity_collapsed():
    # (x-1)^3 (x-2): distinct roots 1 and 2
    p = dyadic(2.0, -7.0, 9.0, -5.0, 1.0)
    assert count_positive_roots(p).count == 2


def test_root_at_zero_not_positive():
    # x^2 (1 + x) is positive on the open half line
    r = count_positive_roots(dyadic(0.0, 0.0, 1.0, 1.0))
    assert r.count == 0
    assert r.persistent_positive


def test_count_roots_in_intervals():
    p = dyadic(-6.0, 11.0, -6.0, 1.0)  # roots 1, 2, 3
    assert count_roots_in(p, None, None) == 3
    assert count_roots_in(p, Fraction(0), Fraction(5, 2)) == 2
    assert count_roots_in(p, Fraction(3, 2), None) == 2
    assert count_roots_in(p, Fraction(1), Fraction(3)) == 2  # (1, 3] excludes 1
    with pytest.raises(ValueError):
        count_roots_in(p, Fraction(2), Fraction(1))


def test_persistence_examples():
    assert is_persistent(BinomialPolynomial(1, np.array([1.0, 1.0])))
    assert not is_persistent(BinomialPolynomial(1, np.array([-1.0, 1.0])))


def test_persistence_scaling_invariance():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(0, 10))
        coeffs = rng.standard_normal(n + 1)
        base = is_persistent(BinomialPolynomial(n, coeffs))
        for k in (3, -4):
            scaled = BinomialPolynomial(n, coeffs * 2.0**k)
            assert is_persistent(scaled) == base


def test_count_invariant_under_reversal():
    # x -> 1/x maps (0, inf) onto itself, so positive-root counts agree
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        p = sample_polynomial(n, rng)
        a = count_positive_roots(DyadicPolynomial.from_binomial(p)).count
        b = count_positive_roots(
            DyadicPolynomial.from_binomial(BinomialPolynomial(n, p.coefficients[::-1]))
        ).count
        assert a == b


def test_no_positive_roots_matches_chain_count():
    rng = np.random.default_rng(21)
    for _ in range(500):
        n = int(rng.integers(1, 14))
        dp = DyadicPolynomial.from_binomial(sample_polynomial(n, rng))
        assert no_positive_roots(dp) == (count_positive_roots(dp).count == 0)


def test_no_positive_roots_exact_dyadic_root():
    # root exactly at x = 1/2
    assert not no_positive_roots(dyadic(-0.5, 1.0))
    assert not no_positive_roots(dyadic(-1.0, 1.0))  # root at 1 (sum == 0)


def test_persistence_against_eigenvalue_oracle():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        p = sample_polynomial(n, rng)
        w = np.array([math.comb(n, i) * a for i, a in enumerate(p.coefficients)])
        roots = np.roots(w[::-1])
        has_pos = any(
            abs(z.imag) < 1e-8 * max(1.0, abs(z)) and z.real > 0 for z in roots
        )
        oracle = (not has_pos) and w.sum() > 0
        assert is_persistent(p) == oracle


# --- is_persistent on an interval against the Sturm chain ---


def sturm_positive(p, lo, hi):
    """Reference decision of {f > 0 on (lo, hi]}: the chain counts no root
    in (lo, hi] and f is positive at a point inside."""
    dp = DyadicPolynomial.from_binomial(p)
    if dp.is_zero():
        return False
    left = None if lo == 0.0 else Fraction(lo)
    right = None if hi == math.inf else Fraction(hi)
    if count_roots_in(dp, left, right) != 0:
        return False
    if right is None:
        probe = 2 * left if left else Fraction(1)
    elif left is None:
        probe = right / 2
    else:
        probe = (left + right) / 2
    return sum(c * probe**i for i, c in enumerate(dp.coefficients)) > 0


def interval_verdicts(p, lo, hi):
    """is_persistent(p, lo, hi) as it runs, and with Descartes bisection
    giving up at once, as at its depth cap, so that the chain count decides."""
    free = is_persistent(p, lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_no_positive_roots_ints", lambda c: None)
        capped = is_persistent(p, lo, hi)
    return free, capped


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    n=st.integers(2, 40),
    interval=st.one_of(
        st.sampled_from(["full", "low", "high", "main"]),
        st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)).filter(
            lambda ends: ends[0] < ends[1]
        ),
    ),
    offset=st.sampled_from([0.0, 1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    zero_a0=st.booleans(),
)
def test_interval_decision_matches_sturm_chain(n, interval, offset, seed, zero_a0):
    a = offset + np.random.default_rng(seed).standard_normal(n + 1)
    if zero_a0:
        a[0] = 0.0
    p = BinomialPolynomial(n, a)
    if isinstance(interval, str):
        lo, hi = IntervalSpec(interval).x_range(n)
    else:
        lo, hi = interval
    ref = sturm_positive(p, lo, hi)
    assert interval_verdicts(p, lo, hi) == (ref, ref)


# the edge n^-1/6 is exactly 1/2 at n = 64; the others are rounded floats
@pytest.mark.parametrize("n", [2, 64, 100, 10_000])
def test_interval_decision_at_exact_endpoints(n):
    # degrees 1 and 2, whose binomials 1, 2, 1 keep these coefficients exact
    for kind in ("low", "high", "main"):
        lo, hi = IntervalSpec(kind).x_range(n)
        cases = [
            ([-lo, 1.0], True),  # x - lo: a root at lo is outside
            ([0.0, -lo / 2, 1.0], True),  # x (x - lo): roots at 0 and lo
            ([lo, -1.0], False),  # lo - x: negative inside
            ([0.0, 0.0], False),  # the zero polynomial
        ]
        if hi != math.inf:
            cases.append(([hi, -1.0], False))  # hi - x: a root exactly at hi
        for a, want in cases:
            p = BinomialPolynomial(len(a) - 1, np.array(a))
            assert sturm_positive(p, lo, hi) == want, (a, lo, hi)
            assert interval_verdicts(p, lo, hi) == (want, want), (a, lo, hi)
    # a double root at 1, and two roots 1 -+ 2^-8, inside main and the full
    # axis only
    for a in ([1.0, -1.0, 1.0], [1.0 - 2.0**-16, -1.0, 1.0]):
        p = BinomialPolynomial(2, np.array(a))
        for kind in ("full", "low", "high", "main"):
            lo, hi = IntervalSpec(kind).x_range(n)
            want = kind in ("low", "high")
            assert sturm_positive(p, lo, hi) == want, (a, kind)
            assert interval_verdicts(p, lo, hi) == (want, want), (a, kind)


def test_interval_decision_rejects_bad_endpoints():
    p = BinomialPolynomial(1, np.array([1.0, 1.0]))
    for lo, hi in ((0.5, 0.5), (1.0, 0.5), (-1.0, 1.0)):
        with pytest.raises(ValueError):
            is_persistent(p, lo, hi)


# --- isolation and refinement ---


def test_locate_positive_roots():
    assert locate_positive_roots(dyadic(1.0, 1.0)) == []
    got = locate_positive_roots(dyadic(-6.0, 11.0, -6.0, 1.0))
    assert got == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)


def test_refine_hits_exact_dyadic_root():
    assert locate_positive_roots(dyadic(-0.5, 1.0)) == [0.5]  # root exactly 1/2


def refine_in_fractions(ints, lo, hi, tol):
    """Bisection of an isolating interval in Fractions: the reference for
    roots._refine_on_ints, which bisects integer numerators."""
    s_hi = roots._sign_at(ints, hi.numerator, hi.denominator)
    if s_hi == 0:
        return float(hi)
    s_lo = roots._sign_at(ints, lo.numerator, lo.denominator)
    while float(hi - lo) > tol:
        mid = (lo + hi) / 2
        s_mid = roots._sign_at(ints, mid.numerator, mid.denominator)
        if s_mid == 0:
            return float(mid)
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def test_refinement_matches_fraction_bisection_on_games():
    # the roots of 2000 random games at 2 to 9 players, as criterion 10
    # locates them, plus exact dyadic roots at a midpoint and at hi
    rng = np.random.default_rng(1010)
    cases = [dyadic(-0.5, 1.0), dyadic(-1.0, 1.0), dyadic(-3.0, 7.0, -5.0, 1.0)]
    for k in range(2000):
        game = GamePayoffs.from_differences(rng.standard_normal(2 + k % 8))
        cases.append(equilibrium_polynomial(game))
    refined = 0
    for p in cases:
        chain = roots._squarefree_chain(p)
        ints = chain.elements[0]
        if len(ints) <= 1:
            continue
        for lo, hi in roots._isolate_on_chain(chain):
            for tol in (1e-12, 1e-3):
                got = roots._refine_on_ints(ints, lo, hi, tol)
                assert got == refine_in_fractions(ints, lo, hi, tol), (ints, lo, hi)
                refined += 1
    assert refined > 2000


def test_isolation_with_repeated_roots():
    # (x-1)^2 (x-3)
    p = dyadic(-3.0, 7.0, -5.0, 1.0)
    roots = locate_positive_roots(p)
    assert roots == pytest.approx([1.0, 3.0], abs=1e-12)


def test_degree_partition_on_known_factorizations():
    # positive roots + nonpositive real roots + complex pairs = degree
    cases = [
        # (coefficients ascending, positive, nonpositive, complex)
        ([-6.0, 11.0, -6.0, 1.0], 3, 0, 0),  # (x-1)(x-2)(x-3)
        ([6.0, -5.0, -2.0, 1.0], 2, 1, 0),  # (x-1)(x-3)(x+2)
        ([-2.0, 1.0, -2.0, 1.0], 1, 0, 2),  # (x^2+1)(x-2)
        ([4.0, 4.0, 1.0], 0, 2, 0),  # (x+2)^2 counted with multiplicity
        ([1.0, 0.0, 1.0], 0, 0, 2),  # x^2+1
    ]
    for coeffs, pos, nonpos, cplx in cases:
        p = dyadic(*coeffs)
        assert count_positive_roots(p).count == pos
        assert pos + nonpos + cplx == p.degree


def test_isolation_matches_eigenvalue_roots():
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        coeffs = rng.standard_normal(n + 1)
        p = DyadicPolynomial.from_floats(coeffs)
        got = locate_positive_roots(p, tol=1e-11)
        ref = sorted(
            z.real
            for z in np.roots(coeffs[::-1])
            if abs(z.imag) < 1e-9 * max(1.0, abs(z)) and z.real > 1e-12
        )
        assert len(got) == len(ref)
        assert got == pytest.approx(ref, abs=1e-7)


# --- batched Bernstein certificate against the exact path ---

certificate_settings = settings(max_examples=60, derandomize=True, deadline=None)


def checked_verdicts(a):
    """bernstein_verdicts of the columns of a, each decided verdict checked
    against no_positive_roots and is_persistent."""
    n = len(a) - 1
    verdicts = bernstein_verdicts(a)
    for j, verdict in enumerate(verdicts):
        p = BinomialPolynomial(n, a[:, j])
        if verdict != 0:
            none = no_positive_roots(DyadicPolynomial.from_binomial(p))
            assert none == (verdict > 0), (verdict, a[:, j])
            assert is_persistent(p) == (verdict > 0 and a[0, j] > 0)
    return verdicts


@certificate_settings
@given(
    n=st.integers(1, 150),
    offset=st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
    power=st.sampled_from([600, -600]),
)
def test_certificate_matches_exact_on_gaussian_columns(n, offset, seed, power):
    # offset columns are mostly positive, so many need deep bisection
    a = offset + np.random.default_rng(seed).standard_normal((n + 1, 3))
    verdicts = checked_verdicts(a)
    # scaling by a power of two is exact and moves no root
    assert np.array_equal(bernstein_verdicts(a * 2.0**power), verdicts)


@certificate_settings
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.integers(-1070, 1000), min_size=9, max_size=9),
)
def test_certificate_matches_exact_across_exponent_range(n, seed, exponents):
    # the small coefficients underflow when a column is scaled to [1, 2)
    g = np.random.default_rng(seed).standard_normal((n + 1, 2))
    checked_verdicts(np.ldexp(g, np.array(exponents[: n + 1])[:, None]))


@certificate_settings
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.lists(st.booleans(), min_size=41, max_size=41),
    first=st.booleans(),
    last=st.booleans(),
)
def test_certificate_with_exact_zero_coefficients(n, seed, zeros, first, last):
    a = np.random.default_rng(seed).standard_normal((n + 1, 3))
    a[np.array(zeros[: n + 1])] = 0.0
    if first:
        a[0] = 0.0
    if last:
        a[-1] = 0.0
    verdicts = checked_verdicts(np.hstack([a, np.zeros((n + 1, 1))]))
    assert verdicts[-1] == 0  # the zero polynomial is left to the exact path
    assert np.all(verdicts[:-1][a[0] == 0.0] == 0)


@certificate_settings
@given(
    log_n=st.integers(1, 4),
    root=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
    tail=st.lists(st.integers(-4, 4), min_size=15, max_size=15),
)
def test_certificate_never_clears_a_double_root(log_n, root, tail):
    # choose a_2..a_n, then a_1 and a_0 so that p(r) = p'(r) = 0; with n a
    # power of two and r dyadic they are dyadic, and exact in floats here
    n = 2**log_n
    r = Fraction(root)
    a = [Fraction(0), Fraction(0)] + [Fraction(v) for v in tail[: n - 1]]
    a[1] = -sum(k * math.comb(n, k) * a[k] * r ** (k - 1) for k in range(2, n + 1)) / n
    a[0] = -sum(math.comb(n, k) * a[k] * r**k for k in range(1, n + 1))
    assert all(Fraction(float(v)) == v for v in a)
    column = np.array([[float(v)] for v in a])
    assert checked_verdicts(column)[0] != 1


@certificate_settings
@given(
    n=st.integers(1, 30),
    tail=st.lists(st.integers(-8, 8), min_size=30, max_size=30),
)
def test_certificate_never_clears_a_root_at_one(n, tail):
    # x = 1 is y = 1/2, the first midpoint of the bisection
    a = [0] + tail[:n]
    a[0] = -sum(math.comb(n, k) * a[k] for k in range(1, n + 1))
    column = np.array(a, dtype=float)[:, None]
    assert checked_verdicts(column)[0] != 1


def test_certificate_rejects_malformed_blocks():
    with pytest.raises(ValueError, match="finite"):
        bernstein_verdicts(np.array([[1.0], [np.inf]]))
    with pytest.raises(ValueError, match="block"):
        bernstein_verdicts(np.ones(3))
    assert bernstein_verdicts(np.ones((4, 0))).shape == (0,)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 144])
def test_certificate_does_not_depend_on_the_layout(n):
    # bernstein_verdicts gathers the live columns into one C-ordered block;
    # the verdicts must be those of the same columns in any layout
    rng = np.random.default_rng(n)
    if n == 144:
        # lifted full-axis samples, some offset so they bisect deep
        scanner = mc._scanner(n, IntervalSpec("full"), 0.25)
        xi = rng.standard_normal((scanner.rank, 600))
        a = scanner.lift(xi, rng.standard_normal((n + 1, 600)))
        a[:, ::3] += 1.5
    else:
        a = rng.standard_normal((n + 1, 3000)) + rng.choice([0.0, 1.0, 2.0], 3000)
    a[0, ::50] = 0.0  # left to the exact path
    # the same columns C-ordered, Fortran-ordered, gathered by fancy
    # indexing (which numpy returns in Fortran order) and as a strided view
    idx = rng.permutation(a.shape[1])
    wide = np.empty((len(a), a.shape[1] + 7))
    wide[:, 7 + idx] = a
    strided = np.empty((len(a), 2 * a.shape[1]))
    strided[:, ::2] = a
    views = {
        "C": np.ascontiguousarray(a),
        "F": np.asfortranarray(a),
        "fancy": wide[:, 7 + idx],
        "strided": strided[:, ::2],
    }
    assert not views["fancy"].flags.c_contiguous
    assert not views["strided"].flags.c_contiguous
    assert all(np.array_equal(view, a) for view in views.values())
    expected = bernstein_verdicts(views["C"])
    assert set(expected.tolist()) == {-1, 0, 1}
    for name, view in views.items():
        got = bernstein_verdicts(view)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name
