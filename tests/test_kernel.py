import math

import numpy as np
import pytest

from persistlab.kernel import (
    PeakIndex,
    alpha_shift,
    autocorr,
    autocorr_limit_gap,
    legendre_eval,
    main_window_width,
    mn_asymptotic,
    mn_exact,
    mn_peak_bounds,
    mn_via_legendre,
    transform_t,
    transform_x,
)


# --- exact route ---


def test_mn_exact_small_cases():
    assert mn_exact(1, 2.0).to_float() == pytest.approx(5.0, rel=1e-14)
    assert mn_exact(2, 1.0).to_float() == pytest.approx(6.0, rel=1e-14)


def test_mn_exact_central_binomial():
    # Vandermonde: sum_i C(n,i)^2 = C(2n, n), exact integer oracle
    for n in range(1, 31):
        assert mn_exact(n, 1.0).log_abs == pytest.approx(
            math.log(math.comb(2 * n, n)), abs=1e-12
        )
    assert mn_exact(50, 1.0).log_abs == pytest.approx(
        math.log(math.comb(100, 50)), abs=1e-11
    )


def test_mn_exact_inversion_identity():
    # M(x) = x^(2n) M(1/x)
    for n in (10, 100, 1000):
        for x in (2.0, 5.0, 10.0):
            lhs = mn_exact(n, x).log_abs
            rhs = 2 * n * math.log(x) + mn_exact(n, 1.0 / x).log_abs
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_mn_exact_validation():
    with pytest.raises(ValueError):
        mn_exact(0, 1.0)
    with pytest.raises(ValueError):
        mn_exact(5, -1.0)


# --- closed-form route ---


def test_mn_asymptotic_formula_value():
    # direct substitution at n=1e4, x=1
    got = mn_asymptotic(10**4, 1.0)
    expected = 20001 * math.log(2.0) - math.log(2.0 * math.sqrt(math.pi * 10**4))
    assert got.sign == 1
    assert got.log_abs == pytest.approx(expected, rel=1e-15)


def test_mn_asymptotic_accuracy():
    err = abs(
        math.expm1(mn_asymptotic(10**4, 0.5).log_abs - mn_exact(10**4, 0.5).log_abs)
    )
    assert err < 0.05


def test_mn_asymptotic_error_nonincreasing():
    errs = [
        abs(math.expm1(mn_asymptotic(n, 0.5).log_abs - mn_exact(n, 0.5).log_abs))
        for n in (10**2, 10**3, 10**4, 10**5)
    ]
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_mn_asymptotic_inversion_branch():
    n = 10**4
    lhs = mn_asymptotic(n, 2.0).log_abs
    rhs = 2 * n * math.log(2.0) + mn_asymptotic(n, 0.5).log_abs
    assert lhs == pytest.approx(rhs, rel=1e-15)


def test_mn_asymptotic_window_enforced():
    n = 10**4
    lo = n ** (-1.0 / 6.0)
    for x in (lo * 0.99, 1.0 / lo * 1.01):
        with pytest.raises(ValueError):
            mn_asymptotic(n, x)


# --- dominant-term sandwich ---


def test_peak_index():
    assert PeakIndex.at(1000, 1.0).index == 500
    peak = PeakIndex.at(1000, 0.3)
    assert abs(peak.index / 1000 - 0.3 / 1.3) <= 1.0 / 1000


def test_peak_bounds_sandwich():
    for n, x in ((10**3, 0.5), (10**3, 1.0), (10**5, 0.1)):
        lower, upper = mn_peak_bounds(n, x)
        exact = mn_exact(n, x).log_abs
        assert lower.log_abs <= exact <= upper.log_abs


def test_peak_bounds_range_enforced():
    with pytest.raises(ValueError):
        mn_peak_bounds(1000, math.log(1000) / 6000 * 0.5)
    with pytest.raises(ValueError):
        mn_peak_bounds(1000, 1.5)


# --- classical-polynomial route ---


def test_legendre_initial_data():
    for z in (1.0, 3.0, 7.0, 100.0):
        assert legendre_eval(0, z).to_float() == 1.0
    assert legendre_eval(1, 7.0).to_float() == pytest.approx(7.0, rel=1e-15)


def test_legendre_at_one():
    # the recurrence with z=1 gives 1 for every order
    for n in (2, 5, 17, 100):
        assert legendre_eval(n, 1.0).to_float() == pytest.approx(1.0, rel=1e-12)


def test_legendre_closed_forms():
    for z in (1.0, 1.5, 4.0, 30.0):
        assert legendre_eval(2, z).to_float() == pytest.approx(
            (3 * z * z - 1) / 2, rel=1e-14
        )


def test_legendre_renormalized_growth():
    # large order and argument would overflow doubles without renormalization
    got = legendre_eval(2000, 50.0)
    assert got.sign == 1
    assert math.isfinite(got.log_abs)
    assert got.log_abs > 2000  # grows like (z + sqrt(z^2-1))^n


def test_mn_via_legendre_small_case():
    assert mn_via_legendre(1, 0.5).to_float() == pytest.approx(1.25, rel=1e-14)
    assert mn_via_legendre(2, 0.5).to_float() == pytest.approx(2.0625, rel=1e-13)


def test_mn_via_legendre_matches_exact():
    for n in (1, 2, 5, 10, 25):
        for k in range(1, 10):
            x = k / 10.0
            diff = abs(mn_via_legendre(n, x).log_abs - mn_exact(n, x).log_abs)
            assert diff < 1e-9


def test_mn_via_legendre_rejects_singular_argument():
    with pytest.raises(ValueError):
        mn_via_legendre(3, 1.0)
    with pytest.raises(ValueError):
        mn_via_legendre(3, 1.5)


# --- autocorrelation ---


def test_autocorr_diagonal_is_exactly_one():
    for n, x in ((1, 0.3), (10, 1.7), (500, 0.02)):
        assert autocorr(n, x, x) == 1.0


def test_autocorr_symmetric_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        x, y = rng.uniform(0.05, 5.0, size=2)
        a = autocorr(n, float(x), float(y))
        assert a == autocorr(n, float(y), float(x))
        assert 0.0 < a <= 1.0


def test_autocorr_closed_form():
    # M_1(u) = 1 + u^2: A_1(1,4) = 5 / sqrt(2 * 17)
    assert autocorr(1, 1.0, 4.0) == pytest.approx(5.0 / math.sqrt(34.0), rel=1e-12)


# --- time transform ---


def test_transform_quarter_circle():
    assert transform_t(1.0, 4) == pytest.approx(math.pi, rel=1e-15)


def test_transform_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 10**6))
        x = float(rng.uniform(1e-4, 1e4))
        assert transform_x(transform_t(x, n), n) == pytest.approx(x, rel=1e-12)


def test_transform_domain_enforced():
    with pytest.raises(ValueError):
        transform_x(0.0, 9)
    with pytest.raises(ValueError):
        transform_x(3 * math.pi + 1e-9, 9)
    with pytest.raises(ValueError):
        transform_t(0.0, 9)


def test_alpha_shift_value():
    # 2 sqrt(n) atan(n^(-1/12)) at n = 1e6
    assert alpha_shift(10**6) == pytest.approx(
        2000.0 * math.atan(10 ** (-0.5)), rel=1e-15
    )
    assert alpha_shift(10**6) == pytest.approx(612.5547, abs=1e-3)


# --- limit gap diagnostics ---


def test_limit_gap_zero_lag():
    for n in (10**4, 10**6):
        assert autocorr_limit_gap(n, 3.0, 3.0) == 0.0


def test_limit_gap_symmetric():
    n = 10**4
    assert autocorr_limit_gap(n, 1.0, 3.5) == pytest.approx(
        autocorr_limit_gap(n, 3.5, 1.0), rel=1e-12
    )


def test_limit_gap_small_at_large_n():
    assert autocorr_limit_gap(10**6, 5.0, 6.0) < 0.01


def test_limit_gap_rejects_outside_window():
    n = 10**4
    with pytest.raises(ValueError):
        autocorr_limit_gap(n, -1.0, 2.0)
    with pytest.raises(ValueError):
        autocorr_limit_gap(n, 0.0, main_window_width(n) + 1.0)
