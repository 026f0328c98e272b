import math

import numpy as np
import pytest

from persistlab.polys import BinomialPolynomial, eval_f, sample_polynomial


def test_sampling_degenerate_size():
    p = sample_polynomial(0, np.random.default_rng(0))
    assert p.degree == 0
    assert p.coefficients.shape == (1,)


def test_sampling_deterministic():
    a = sample_polynomial(5, np.random.default_rng(42)).coefficients
    b = sample_polynomial(5, np.random.default_rng(42)).coefficients
    assert np.array_equal(a, b)


def test_sampling_clt_bound():
    # mean of n+1 standard normals stays within 4 standard errors (fixed seed)
    n = 10**4
    p = sample_polynomial(n, np.random.default_rng(2024))
    assert abs(p.coefficients.mean()) < 4.0 / math.sqrt(n + 1)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        BinomialPolynomial(2, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        BinomialPolynomial(1, np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        BinomialPolynomial(-1, np.array([]))


def test_eval_f_two_term_sum():
    p = BinomialPolynomial(1, np.array([1.0, 1.0]))
    got = eval_f(p, 2.0)
    assert got.sign == 1
    assert got.log_abs == pytest.approx(math.log(3.0), rel=1e-14)


def test_eval_f_exact_cancellation():
    p = BinomialPolynomial(2, np.array([1.0, 0.0, -1.0]))
    assert eval_f(p, 1.0).sign == 0


def test_eval_f_binomial_theorem():
    # all-ones coefficients at x=1 sum the binomial row: 2^200
    p = BinomialPolynomial(200, np.ones(201))
    got = eval_f(p, 1.0)
    assert got.sign == 1
    assert got.log_abs == pytest.approx(200 * math.log(2.0), rel=1e-13)


def test_eval_f_matches_direct_evaluation():
    # n <= 30, moderate x: 10 significant digits against plain double summation
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(0, 31))
        x = float(rng.uniform(0.1, 5.0))
        p = sample_polynomial(n, rng)
        direct = sum(
            math.comb(n, i) * a * x**i for i, a in enumerate(p.coefficients)
        )
        got = eval_f(p, x)
        assert got.sign == (0 if direct == 0 else math.copysign(1, direct))
        if direct != 0:
            assert got.log_abs == pytest.approx(math.log(abs(direct)), abs=1e-10)


def test_eval_f_rejects_bad_x():
    p = BinomialPolynomial(1, np.array([1.0, 1.0]))
    for x in (0.0, -1.0, float("inf")):
        with pytest.raises(ValueError):
            eval_f(p, x)
