import math

import pytest
from scipy.stats import norm, t as student_t

from persistlab import stats
from persistlab.stats import PersistenceEstimate, SplittingEstimate, wilson_ci


def test_wilson_zero_successes():
    lo, hi = wilson_ci(0, 100)
    assert lo == 0.0
    assert 0.0 < hi < 0.06


def test_wilson_all_successes():
    lo, hi = wilson_ci(100, 100)
    assert hi == 1.0
    assert 0.94 < lo < 1.0


def test_wilson_half():
    lo, hi = wilson_ci(50, 100)
    assert (lo + hi) / 2 == pytest.approx(0.5, abs=1e-12)
    assert hi - lo == pytest.approx(0.19, abs=0.01)


def test_wilson_width_scaling():
    # quadrupling the sample count halves the width
    lo1, hi1 = wilson_ci(300, 1000)
    lo2, hi2 = wilson_ci(1200, 4000)
    assert (hi2 - lo2) == pytest.approx((hi1 - lo1) / 2, rel=0.03)


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_ci(5, 0)
    with pytest.raises(ValueError):
        wilson_ci(6, 5)
    with pytest.raises(ValueError):
        wilson_ci(1, 5, level=1.0)


def test_estimate_from_counts():
    est = PersistenceEstimate.from_counts(25, 100)
    assert est.p_hat == 0.25
    assert est.ci_low <= est.p_hat <= est.ci_high
    assert est.log_p == pytest.approx(math.log(0.25))
    assert est.log_p_stderr == pytest.approx(math.sqrt(0.75 / 25), rel=1e-12)


def test_estimate_zero_successes_flagged():
    est = PersistenceEstimate.from_counts(0, 1000)
    assert not est.log_usable()
    with pytest.raises(ValueError):
        _ = est.log_p


def test_estimate_overlap():
    a = PersistenceEstimate.from_counts(50, 100)
    b = PersistenceEstimate.from_counts(55, 100)
    c = PersistenceEstimate.from_counts(95, 100)
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c)


def test_splitting_estimate_from_replicates():
    reps = [2e-12, 3e-12, 4e-12, 3e-12]
    est = SplittingEstimate.from_replicates(reps, 500, levels=1000, successes=1800, unresolved=2)
    assert est.p_hat == pytest.approx(3e-12)
    assert est.log_p == pytest.approx(math.log(3e-12))
    # delta method on the replicate mean: sd / (sqrt(R) p_hat)
    sd = math.sqrt(sum((p - 3e-12) ** 2 for p in reps) / 3)
    assert est.log_p_stderr == pytest.approx(sd / 2 / 3e-12)
    assert est.ci_low < est.p_hat < est.ci_high
    assert math.log(est.ci_high / est.p_hat) == pytest.approx(
        -math.log(est.ci_low / est.p_hat)
    )
    assert est.log_usable() and est.unresolved == 2
    assert est.overlaps(PersistenceEstimate.from_counts(0, 1000))
    zero = SplittingEstimate.from_replicates([0.0, 0.0], 500, 10, 0, 0)
    assert (zero.ci_low, zero.ci_high) == (0.0, 1.0) and not zero.log_usable()
    with pytest.raises(ValueError):
        SplittingEstimate.from_replicates([1e-3], 500, 10, 400, 0)


def test_wilson_quantile_is_memoized_exactly():
    # the cached z is the float norm.ppf gives, so intervals do not move
    for level in (0.9, 0.95, 0.99):
        assert stats._z(level) == float(norm.ppf(0.5 + level / 2.0))
        assert stats._z(level) is stats._z(level)


def test_splitting_interval_uses_the_student_t_quantile():
    # the interval's quantile is the float scipy.stats.t.ppf gives
    for df in range(1, 31):
        reps = [1e-6 * (1.0 + 0.1 * k) for k in range(df + 1)]
        est = SplittingEstimate.from_replicates(reps, 500, 10, 100, 0)
        z = float(student_t.ppf(0.975, df))
        se = est.log_p_stderr
        assert est.ci_low == est.p_hat * math.exp(-z * se)
        assert est.ci_high == min(1.0, est.p_hat * math.exp(z * se))
