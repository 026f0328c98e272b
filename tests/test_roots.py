import math
from fractions import Fraction

import numpy as np
import pytest

from persistlab.polys import BinomialPolynomial, sample_polynomial
from persistlab.roots import (
    DyadicPolynomial,
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


# --- isolation and refinement ---


def test_locate_positive_roots():
    assert locate_positive_roots(dyadic(1.0, 1.0)) == []
    got = locate_positive_roots(dyadic(-6.0, 11.0, -6.0, 1.0))
    assert got == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)


def test_refine_hits_exact_dyadic_root():
    assert locate_positive_roots(dyadic(-0.5, 1.0)) == [0.5]  # root exactly 1/2


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
