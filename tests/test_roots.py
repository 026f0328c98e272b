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
    giving up at depth 0, so that every decision it cannot make at once is
    made alone by the uncapped retry on the squarefree part."""
    free = is_persistent(p, lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_MAX_DEPTH", 0)
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


@pytest.mark.parametrize(
    "n, short_roots",
    [
        (2, {"full": 3.0, "low": 0.25, "high": 2.0, "main": 1.0}),
        (10_000, {"full": 3.0, "low": 0.125, "high": 8.0, "main": 1.0}),
    ],
    ids=["2", "10000"],
)
def test_double_root_inside_takes_the_squarefree_retry(n, short_roots):
    # (x - r)^2 at degree 2, whose binomials 1, 2, 1 keep the coefficients
    # exact, with r strictly inside the interval: r's image is not a split
    # point, so capped bisection gives up, and the uncapped retry on the
    # squarefree part x - r finds the touch
    for kind, r in short_roots.items():
        lo, hi = IntervalSpec(kind).x_range(n)
        assert lo < r < hi
        p = BinomialPolynomial(2, np.array([r * r, -r, 1.0]))
        ints = DyadicPolynomial.from_binomial(p).scaled_integers()
        image = roots._image(ints, Fraction(lo), hi)
        assert roots._root_inside(image, roots._MAX_DEPTH, hi == math.inf) is None
        assert sturm_positive(p, lo, hi) is False
        assert is_persistent(p, lo, hi) is False
        if kind == "full":
            dp = DyadicPolynomial.from_binomial(p)
            assert count_positive_roots(dp).count == 1
            assert no_positive_roots(dp) is False
        # the retry's squarefree part is the first element of the squarefree chain
        for c in (ints, image):
            part, _ = roots._squarefree_part(c)
            assert tuple(part) == roots._squarefree_chain(c).elements[0]


def test_capped_retry_builds_one_chain(monkeypatch):
    # at the depth cap the retry needs only the squarefree part, read off c's
    # own chain; the quotient's chain is never built
    calls = []
    build = roots._signed_remainder_chain

    def counted(c0):
        calls.append(len(c0) - 1)
        return build(c0)

    monkeypatch.setattr(roots, "_MAX_DEPTH", 0)
    monkeypatch.setattr(roots, "_signed_remainder_chain", counted)
    ints = dyadic(1.0, -3.0, 0.0, 4.0).scaled_integers()  # (2x - 1)^2 (x + 1)
    c, got = roots._descartes(roots._root_inside, ints)
    assert got is True  # the touch at 1/2
    assert calls == [3]
    assert list(c) == [-1, 1, 2]  # (2x - 1)(x + 1)


def test_interval_decision_rejects_bad_endpoints():
    p = BinomialPolynomial(1, np.array([1.0, 1.0]))
    for lo, hi in ((0.5, 0.5), (1.0, 0.5), (-1.0, 1.0)):
        with pytest.raises(ValueError):
            is_persistent(p, lo, hi)


# --- isolation and refinement ---


def test_locate_positive_roots():
    assert locate_positive_roots(dyadic(1.0, 1.0)) == []
    assert locate_positive_roots(dyadic(3.0)) == []
    # roots at 0 are not positive
    assert locate_positive_roots(dyadic(0.0, 1.0)) == []
    assert locate_positive_roots(dyadic(0.0, 0.0, -0.5, 1.0)) == [0.5]
    got = locate_positive_roots(dyadic(-6.0, 11.0, -6.0, 1.0))
    assert got == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)


def test_refine_hits_exact_dyadic_root():
    assert locate_positive_roots(dyadic(-0.5, 1.0)) == [0.5]  # root exactly 1/2


def sign_at(ints, x):
    return roots._sign_at(ints, x.numerator, x.denominator)


def refine_in_fractions(ints, lo, hi, s_lo, tol):
    """Bisection of an open isolating interval (lo, hi) in Fractions, s_lo
    the sign just right of lo: the reference for roots._refine_on_ints,
    which bisects integer numerators."""
    while float(hi - lo) > tol:
        mid = (lo + hi) / 2
        s_mid = sign_at(ints, mid)
        if s_mid == 0:
            return float(mid)
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def test_refinement_matches_fraction_bisection_on_games():
    # the roots of 2000 random games at 2 to 9 players, as criterion 10
    # locates them, plus exact dyadic roots at a midpoint and at split points
    rng = np.random.default_rng(1010)
    cases = [
        dyadic(-0.5, 1.0),
        dyadic(-1.0, 1.0),
        dyadic(-3.0, 7.0, -5.0, 1.0),
        dyadic(-2.5, 5.75, -4.25, 1.0),
    ]
    for k in range(2000):
        game = GamePayoffs.from_differences(rng.standard_normal(2 + k % 8))
        cases.append(equilibrium_polynomial(game))
    refined = 0
    for p in cases:
        ints = list(p.scaled_integers())
        intervals = roots._isolating_intervals(ints, roots._MAX_DEPTH)
        assert len(intervals) == count_positive_roots(p).count
        for lo, hi, s in intervals:
            if lo == hi:
                assert s == 0 and sign_at(ints, lo) == 0
                continue
            # s is the sign on (lo, root); lo is a root only if it was found
            assert s != 0 and sign_at(ints, lo) in (0, s)
            assert sign_at(ints, hi) in (0, -s)
            for tol in (1e-12, 1e-3):
                got = roots._refine_on_ints(ints, lo, hi, s, tol)
                want = refine_in_fractions(ints, lo, hi, s, tol)
                assert got == want, (ints, lo, hi)
                refined += 1
    assert refined > 2000


def test_isolating_interval_between_two_split_point_roots():
    # (x - 1)(x - 5/4)(x - 2) has Cauchy bound B = 8: the bisection of
    # (0, B) finds 2 = B/4 and 1 = B/8 exactly at split points, and the cell
    # (B/8, B/4) isolates 5/4 with a root at both ends
    p = dyadic(-2.5, 5.75, -4.25, 1.0)
    ints = list(p.scaled_integers())
    assert roots._cauchy_bound(ints) == 8
    one, two = Fraction(1), Fraction(2)
    assert roots._isolating_intervals(ints, roots._MAX_DEPTH) == [
        (one, one, 0),
        (one, two, 1),
        (two, two, 0),
    ]
    got = locate_positive_roots(p)
    assert got == [1.0, 1.25, 2.0]
    assert len(got) == count_positive_roots(p).count
    # the Sturm-chain isolator moved split points off roots, and so returned
    # these, each within tol of the exact root
    earlier = ["0x1.ffffffffff004p-1", "0x1.4000000000406p+0", "0x1.ffffffffff806p+0"]
    assert got == pytest.approx([float.fromhex(h) for h in earlier], abs=1e-12)


def roots_product(*factors):
    """DyadicPolynomial of the product of (x - r) over the dyadic roots r."""
    c = [Fraction(1)]
    for r in factors:
        c = [a - r * b for a, b in zip([Fraction(0)] + c, c + [Fraction(0)])]
    return DyadicPolynomial(tuple(c))


def test_roots_closer_than_the_depth_cap():
    # two simple roots 2^-250 apart near 1/3, whose binary expansion keeps
    # them in one cell past the depth cap of 200 levels, and a root at 3:
    # the capped bisection gives up, and the squarefree part (here the
    # polynomial itself) is isolated with no cap
    c = Fraction(round(Fraction(2**300, 3)), 2**300)
    p = roots_product(c, c + Fraction(1, 2**250), Fraction(3))
    ints = list(p.scaled_integers())
    assert roots._isolating_intervals(ints, roots._MAX_DEPTH) is None
    assert len(roots._isolating_intervals(ints, None)) == 3
    got = locate_positive_roots(p)
    assert got == [1 / 3, 1 / 3, 3.0]  # as the Sturm-chain isolator gave
    assert len(got) == count_positive_roots(p).count


def test_isolation_with_repeated_roots():
    # (x-1)^2 (x-3)
    p = dyadic(-3.0, 7.0, -5.0, 1.0)
    roots = locate_positive_roots(p)
    assert roots == pytest.approx([1.0, 3.0], abs=1e-12)


def test_isolation_with_a_repeated_root_off_the_split_points():
    # (3x - 1)^2 (x - 2): Descartes bisection never isolates the double root
    # at 1/3, so the squarefree part (3x - 1)(x - 2) is isolated instead
    p = dyadic(-2.0, 13.0, -24.0, 9.0)
    ints = list(p.scaled_integers())
    assert roots._isolating_intervals(ints, roots._MAX_DEPTH) is None
    got = locate_positive_roots(p)
    assert got == [float.fromhex("0x1.5555555556000p-2"), 2.0]
    assert len(got) == count_positive_roots(p).count
    # the Sturm-chain isolator returned these, each within tol of the root
    earlier = ["0x1.5555555556008p-2", "0x1.ffffffffff806p+0"]
    assert got == pytest.approx([float.fromhex(h) for h in earlier], abs=1e-12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    numerators=st.lists(st.integers(1, 64), min_size=1, max_size=4, unique=True),
    exponent=st.integers(0, 6),
    multiplicities=st.lists(st.integers(1, 3), min_size=4, max_size=4),
    gap=st.integers(20, 300),
    other=st.sampled_from([(), (-3,), (-1, -2)]),
)
def test_location_of_dyadic_and_near_double_roots(
    numerators, exponent, multiplicities, gap, other
):
    # dyadic roots, some repeated, are split points of the bisection or of
    # its refinement and come out exactly; a simple root 3 2^-gap above the
    # least one, in a cell whose left end may be that repeated root, comes
    # out within tol
    exact = sorted(Fraction(k, 2**exponent) for k in numerators)
    near = exact[0] + Fraction(3, 2**gap)
    factors = [near] + [Fraction(r) for r in other]
    for r, m in zip(exact, multiplicities):
        factors += [r] * m
    p = roots_product(*factors)
    got = locate_positive_roots(p)
    assert len(got) == len(exact) + 1 == count_positive_roots(p).count
    assert got[0] == float(exact[0])
    assert got[1] == pytest.approx(float(near), abs=1e-12)
    assert got[2:] == [float(r) for r in exact[1:]]


def test_locate_rejects_nonpositive_tol():
    # checked on entry, also for a polynomial with no positive root
    for p in (dyadic(1.0, 1.0), dyadic(-1.0, 1.0)):
        for tol in (0.0, -1e-12, math.nan):
            with pytest.raises(ValueError, match="tol"):
                locate_positive_roots(p, tol)


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


@pytest.mark.parametrize("n", [57, 113, 200])
def test_certificate_matches_exact_across_blocks(n):
    # 2, 3 and 4 blocks of de Casteljau levels per split (roots._blocks)
    rng = np.random.default_rng(n)
    offsets = np.repeat([0.0, 1.0, 2.0, 3.0], 3)
    verdicts = checked_verdicts(offsets + rng.standard_normal((n + 1, len(offsets))))
    assert set(verdicts.tolist()) == {-1, 1}


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    n=st.integers(57, 200),
    seed=st.integers(0, 2**32 - 1),
    tiny=st.lists(st.integers(-1074, -1000), min_size=3, max_size=3),
)
def test_certificate_matches_exact_with_underflow_across_blocks(n, seed, tiny):
    # positive columns with three rows of negative coefficients 2^-1000 to
    # 2^-1074 times a normal draw, whose terms in the products of a split of
    # 2 to 4 blocks fall to subnormals or to zero
    rng = np.random.default_rng(seed)
    a = np.abs(rng.standard_normal((n + 1, 2)))
    rows = rng.choice(n + 1, size=3, replace=False)
    a[rows] = -np.ldexp(a[rows], np.array(tiny)[:, None])
    checked_verdicts(a)


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


# --- blocked de Casteljau subdivision against the per-level loop ---


def reference_split(c):
    """Midpoint de Casteljau subdivision one level at a time, (x + y) * 0.5
    per step: within m 2^-52 of exact on columns below 2 in magnitude."""
    m = len(c) - 1
    left = np.empty_like(c)
    right = np.empty_like(c)
    left[0], right[m] = c[0], c[m]
    for k in range(1, m + 1):
        c = (c[:-1] + c[1:]) * 0.5
        left[k], right[m - k] = c[0], c[-1]
    return left, right


def test_weights_are_exact():
    w, flipped = roots._weights()
    assert np.array_equal(flipped, w[::-1, ::-1])
    for t in range(roots._BLOCK + 1):
        assert w[t].sum() == 1.0
        assert [math.ldexp(v, t) for v in w[t, : t + 1]] == [
            math.comb(t, l) for l in range(t + 1)
        ]


@pytest.mark.parametrize("cells", [1, 16, 256])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 56, 57, 144, 300, 1000])
def test_blocked_split_matches_the_level_loop(m, cells):
    rng = np.random.default_rng(m)
    c = rng.standard_normal((m + 1, cells)) + rng.choice([0.0, 2.0], cells)
    # scaled as bernstein_verdicts scales: largest |c| in [1, 2)
    c = np.ldexp(c, 1 - np.frexp(np.abs(c).max(axis=0))[1])
    blocks, b = roots._blocks(m)
    assert b <= roots._BLOCK and (blocks - 1) * b < m <= blocks * b
    # both within their own bound of the exact values
    bound = blocks * (b + 1) * 2.0**-51 + m * 2.0**-52
    for got, ref in zip(roots._split(c), reference_split(c)):
        assert np.abs(got - ref).max() <= bound


def test_blocked_verdicts_never_contradict_the_level_loop(monkeypatch):
    # the loop's error, m 2^-52 per split, is within the blocked split's
    # bound, so its verdicts are certified too: the two may differ only
    # between a certified verdict and 0
    rng = np.random.default_rng(25)
    scanner = mc._scanner(144, IntervalSpec("full"), 0.25)
    xi = rng.standard_normal((scanner.rank, 600))
    a = scanner.lift(xi, rng.standard_normal((145, 600)))
    a[:, ::3] += 1.5  # deep bisection
    blocks = [a]
    for players in (2, 3, 4, 5):
        scanner = mc._scanner(players - 1, IntervalSpec("full"), 0.25)
        xi = rng.standard_normal((scanner.rank, 2000))
        xi = xi.compress(~scanner.sign_change(xi), axis=1)
        blocks.append(scanner.lift(xi, rng.standard_normal((players, xi.shape[1]))))
    blocked = [bernstein_verdicts(block) for block in blocks]
    monkeypatch.setattr(roots, "_split", reference_split)
    for got, block in zip(blocked, blocks):
        ref = bernstein_verdicts(block)
        assert np.all((got == ref) | (got == 0) | (ref == 0))
    assert set(np.concatenate(blocked).tolist()) >= {-1, 1}
