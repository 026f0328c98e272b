import math

import numpy as np
import pytest

from persistlab.logscale import (
    SignedLogValue,
    _log_factorials,
    log_binomial,
    log_binomial_row,
    signed_log_sum,
)


def test_signed_log_value_roundtrip():
    for v in (3.0, -2.5, 1e-30, -7e40, 0.0):
        slv = SignedLogValue.from_float(v)
        assert slv.to_float() == pytest.approx(v, rel=1e-13)


def test_zero_normalizes_log_abs():
    slv = SignedLogValue(0, 123.0)
    assert slv.log_abs == float("-inf")
    assert slv.to_float() == 0.0


def test_invalid_sign_rejected():
    with pytest.raises(ValueError):
        SignedLogValue(2, 0.0)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        SignedLogValue.from_float(float("inf"))


def test_scaled_multiplies_in_log_space():
    slv = SignedLogValue.from_float(-3.0).scaled(math.log(2.0))
    assert slv.to_float() == pytest.approx(-6.0, rel=1e-14)
    assert SignedLogValue(0, float("-inf")).scaled(5.0).sign == 0


def test_signed_log_sum_simple():
    # 3 - 1 + 0.5 = 2.5
    vals = [3.0, -1.0, 0.5]
    got = signed_log_sum(
        [math.log(abs(v)) for v in vals], [math.copysign(1, v) for v in vals]
    )
    assert got.sign == 1
    assert got.to_float() == pytest.approx(2.5, rel=1e-14)


def test_signed_log_sum_exact_cancellation():
    got = signed_log_sum([math.log(2.0), math.log(2.0)], [1.0, -1.0])
    assert got.sign == 0


def test_signed_log_sum_ignores_zero_sign_terms():
    got = signed_log_sum([0.0, float("-inf")], [1.0, 0.0])
    assert got.to_float() == pytest.approx(1.0)


def test_signed_log_sum_empty():
    assert signed_log_sum([], []).sign == 0


def test_signed_log_sum_large_offsets():
    # 1e400-scale magnitudes cancel down to a 1e380-scale remainder
    big = 1000.0
    got = signed_log_sum([big, big - math.log(2.0)], [1.0, -1.0])
    assert got.sign == 1
    assert got.log_abs == pytest.approx(big - math.log(2.0), abs=1e-12)


def test_log_binomial_row_matches_exact_integers():
    for n in list(range(0, 31)) + [50]:
        row = log_binomial_row(n)
        exact = [math.log(math.comb(n, i)) for i in range(n + 1)]
        assert np.allclose(row, exact, rtol=1e-12, atol=1e-12)


def test_log_factorials_are_scipy_gammaln_bit_for_bit():
    # scipy's gammaln built the rows before, so every fixed-seed output
    # stays unchanged only if these floats are its floats
    from scipy.special import gammaln

    ks = np.concatenate([np.arange(30_000), [10**8 - 1, 10**8, 10**12, 2**52]])
    np.testing.assert_array_equal(_log_factorials(ks), gammaln(ks + 1.0))
    for n in list(range(0, 200)) + [997, 1000, 4096, 10_000, 20_000]:
        i = np.arange(n + 1, dtype=float)
        ref = gammaln(n + 1.0) - gammaln(i + 1.0) - gammaln(n - i + 1.0)
        np.testing.assert_array_equal(log_binomial_row(n), ref)
        assert log_binomial(n, n // 3) == ref[n // 3]


def test_log_binomial_row_cached_readonly():
    row = log_binomial_row(64)
    assert row is log_binomial_row(64)
    with pytest.raises(ValueError):
        row[0] = 1.0


def test_log_binomial_single():
    assert log_binomial(10, 3) == pytest.approx(math.log(120), rel=1e-14)
    with pytest.raises(ValueError):
        log_binomial(5, 6)
