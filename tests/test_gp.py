import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from persistlab.engine import _PEAK_TIE, dense
from persistlab.gp import (
    DEFAULT_KERNEL,
    HALF_TIME_KERNEL,
    ExponentFit,
    FactorizationError,
    GaussianKernel,
    cholesky_with_escalation,
    estimate_exponent,
    estimate_survival,
    SERIES_TAIL_TOL,
    _cholesky,
    _design_matrix,
    _series_factor,
    _survival_state,
    fit_exponent,
    grid_times,
    latent_factor,
    required_truncation,
    sample_paths_series,
    series_tail_bound,
)


def test_kernel_basics():
    k = DEFAULT_KERNEL
    assert k.corr(0.0) == 1.0
    assert k.corr(2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    taus = np.linspace(0, 10, 50)
    vals = k.corr(taus)
    assert np.all(np.diff(vals) <= 0) and np.all(vals > 0)
    with pytest.raises(ValueError):
        GaussianKernel(0.0)


def test_grid_times():
    t = grid_times(6.0, 0.25)
    assert len(t) == 25
    assert t[-1] == pytest.approx(6.0)


def test_tail_bound_and_truncation():
    k = DEFAULT_KERNEL
    K = required_truncation(k, 8.0)
    assert series_tail_bound(k, 8.0, K) < 1e-12
    assert series_tail_bound(k, 8.0, K - 1) >= 1e-12
    # analytic check against direct Poisson summation
    y = (8.0 / k.scale) ** 2
    direct = 1.0 - sum(
        math.exp(-y + j * math.log(y) - math.lgamma(j + 1)) for j in range(K + 1)
    )
    assert series_tail_bound(k, 8.0, K) == pytest.approx(direct, abs=1e-13)


def test_tail_bound_matches_scipy_pdtrc():
    # the tail is summed without scipy; scipy's pdtrc, which gave it
    # before, is the reference
    from scipy.special import pdtrc

    unit = GaussianKernel(1.0)
    horizons = [*np.linspace(0.1, 10.0, 34), *np.linspace(10.5, 84.85, 17)]
    for horizon in map(float, horizons):
        y = horizon**2  # up to 7200
        top = int(y + 10.0 * math.sqrt(y) + 40.0)
        for k in range(math.ceil(y), top + 1, max(1, int(math.sqrt(y) / 4))):
            ref = float(pdtrc(k, y))
            assert series_tail_bound(unit, horizon, k) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("kernel", [DEFAULT_KERNEL, HALF_TIME_KERNEL])
def test_truncation_matches_scipy_pdtrc_search(kernel):
    # the K the scalar search over scipy's pdtrc found, at every horizon of
    # a 0.25 grid out to T = 120
    from scipy.special import pdtrc

    for horizon in 0.25 * np.arange(1, 481):
        y = (float(horizon) / kernel.scale) ** 2
        start = max(0, int(y))
        ks = np.arange(start, start + int(20.0 * math.sqrt(y)) + 60)
        expected = start + int(np.argmax(pdtrc(ks, y) < SERIES_TAIL_TOL))
        assert required_truncation(kernel, float(horizon)) == expected


def test_series_rejects_insufficient_truncation():
    with pytest.raises(ValueError):
        sample_paths_series(DEFAULT_KERNEL, 8.0, 0.25, 10, np.random.default_rng(0), 10)


def test_series_deterministic():
    a = sample_paths_series(DEFAULT_KERNEL, 4.0, 0.25, 60, np.random.default_rng(9), 1)
    b = sample_paths_series(DEFAULT_KERNEL, 4.0, 0.25, 60, np.random.default_rng(9), 1)
    assert np.array_equal(a, b)


def test_series_covariance_matches_kernel():
    # truncated-series covariance: e^{-(t^2+u^2)/(2 s^2)} sum_{k<=K} (tu/s^2)^k/k!
    # equals the kernel up to the certified tail; empirical within 4 SE
    kernel = DEFAULT_KERNEL
    K = required_truncation(kernel, 6.0)
    rng = np.random.default_rng(1234)
    paths = sample_paths_series(kernel, 6.0, 0.25, K, rng, 60_000)
    times = grid_times(6.0, 0.25)
    for i, j in ((0, 8), (4, 8), (0, 16), (8, 20), (12, 13)):
        t, u = times[i], times[j]
        s2 = kernel.scale**2
        truncated = math.exp(-(t * t + u * u) / (2 * s2)) * sum(
            (t * u / s2) ** k / math.factorial(k) for k in range(K + 1)
        )
        assert truncated == pytest.approx(
            float(kernel.corr(t - u)), abs=1e-11
        )
        products = paths[:, i] * paths[:, j]
        se = products.std() / math.sqrt(len(products))
        assert abs(products.mean() - truncated) < 4 * se


LATENT_CASES = [(float(t), step) for step in (0.25, 0.125) for t in range(3, 13)] + [
    (60.0, 0.25)
]


@pytest.mark.parametrize("horizon,step", LATENT_CASES)
def test_latent_series_factor(horizon, step):
    # the sampler's factor G leaves every design-matrix row a residual
    # variance within SERIES_TAIL_TOL, so G G^T misses Phi Phi^T by at most
    # |E_i| |E_j| <= 1e-12 per entry, with far fewer columns than Phi
    kernel = DEFAULT_KERNEL
    K = required_truncation(kernel, horizon)
    phi = _design_matrix(kernel, grid_times(horizon, step), K)
    g = _series_factor(kernel, horizon, step, K)
    g_again, v = latent_factor(*dense(phi), math.sqrt(SERIES_TAIL_TOL))
    assert np.array_equal(g, g_again)
    residual = np.square(phi - g_again @ v).sum(axis=1)
    assert residual.max() <= SERIES_TAIL_TOL
    assert np.abs(g @ g.T - phi @ phi.T).max() <= 1.1e-12
    rank = g.shape[1]
    assert rank < K + 1 and rank < len(phi)
    if horizon == 12.0:
        assert rank == 26


def lapack_eigh(driver):
    """np.linalg.eigh's signature on scipy's eigh with another LAPACK driver."""
    return lambda a, UPLO="L": scipy.linalg.eigh(a, lower=UPLO == "L", driver=driver)


@pytest.mark.parametrize("horizon", [8.0, 12.0])
def test_series_factor_sign_is_canonical(horizon, monkeypatch):
    # eigenvectors are unique only up to sign and LAPACK drivers differ in
    # the sign they return; the factor (G, V) must not follow the driver.
    # Column 1 at T = 8 is antisymmetric about the grid centre, so two of
    # its entries tie for the largest magnitude
    K = required_truncation(DEFAULT_KERNEL, horizon)
    phi = _design_matrix(DEFAULT_KERNEL, grid_times(horizon, 0.25), K)
    g, v = latent_factor(*dense(phi), math.sqrt(SERIES_TAIL_TOL))
    # the first entry tied with the column's largest magnitude is positive
    mag = np.abs(g)
    peak = np.argmax(mag >= (1.0 - _PEAK_TIE) * mag.max(axis=0), axis=0)
    assert (g[peak, np.arange(g.shape[1])] > 0).all()
    assert np.array_equal(_series_factor(DEFAULT_KERNEL, horizon, 0.25, K), g)
    for driver in ("evr", "ev"):
        monkeypatch.setattr(np.linalg, "eigh", lapack_eigh(driver))
        g_other, v_other = latent_factor(*dense(phi), math.sqrt(SERIES_TAIL_TOL))
        assert g_other.shape == g.shape
        assert np.allclose(g_other, g, rtol=0.0, atol=1e-9), driver
        # the Gram fixes V's last rows only to about 1e-16 lambda_max / gap,
        # 1e-6 here; a sign flip would move a row by O(1)
        assert np.allclose(v_other, v, rtol=0.0, atol=1e-5), driver


def test_series_unit_variance():
    rng = np.random.default_rng(77)
    K = required_truncation(DEFAULT_KERNEL, 4.0)
    paths = sample_paths_series(DEFAULT_KERNEL, 4.0, 0.25, K, rng, 50_000)
    v = paths[:, 7].var()
    assert v == pytest.approx(1.0, abs=0.03)


def test_factor_single_point_is_standard_normal_draw():
    # one grid point: the factor path G z is z scaled by sqrt(1 + jitter)
    chol = _cholesky(DEFAULT_KERNEL, grid_times(0.1, 0.25), 1e-12)
    assert chol.shape == (1, 1)
    assert chol[0, 0] == pytest.approx(math.sqrt(1 + 1e-12), rel=1e-15)


def test_factor_covariance_lag_one():
    # the factor's paths G z have covariance G G^T: the jittered kernel
    # matrix at T = 4, so lag one (four steps) correlates by e^(-1/4)
    times = grid_times(4.0, 0.25)
    chol = _cholesky(DEFAULT_KERNEL, times, 1e-10)
    cov = DEFAULT_KERNEL.corr(times[:, None] - times[None, :])
    np.testing.assert_allclose(
        chol @ chol.T, cov + 1e-10 * np.eye(len(times)), rtol=0.0, atol=1e-14
    )
    assert (chol @ chol.T)[0, 4] == pytest.approx(math.exp(-0.25), abs=1e-14)


def test_factor_escalation_reports_jitter():
    times = grid_times(8.0, 0.25)
    with pytest.raises(FactorizationError) as err:
        # the raw kernel matrix at this size is numerically indefinite
        _cholesky(DEFAULT_KERNEL, times, 0.0)
    assert err.value.jitter == 0.0
    chol, used = cholesky_with_escalation(DEFAULT_KERNEL, times, 1e-14)
    assert used <= 1e-8
    cov = DEFAULT_KERNEL.corr(times[:, None] - times[None, :])
    assert np.allclose(chol @ chol.T, cov, atol=1e-7)


def _check_sieve(g, sieve, rng, count):
    """Complete every sieve draw, rejected ones included: each meets the
    sieve rows to within rho, and no rejected column survives the grid
    verdict min(G xi) > 0.  Returns how many columns the sieve rejected."""
    eta = rng.standard_normal((len(sieve.rows), count))
    xi = sieve.complete(eta, rng.standard_normal((g.shape[1], count)))
    gap = np.abs(g[sieve.rows] @ xi - sieve.l @ eta)
    assert np.all(gap <= sieve.rho[:, None])
    rejected = ~sieve.passes(eta)
    assert not np.any(rejected & ((g @ xi).min(axis=0) > 0.0))
    return int(np.count_nonzero(rejected))


@pytest.mark.parametrize("method", ["series", "factor"])
@pytest.mark.parametrize("horizon", [0.2, 3.0, 12.0, 60.0])
def test_survival_sieve_rejects_only_paths_that_fail(horizon, method):
    # gp's sieve rows reject below 0 (threshold rho): a rejected path is
    # negative on a sieve row, so the grid verdict fails too
    g, sieve = _survival_state(DEFAULT_KERNEL, horizon, 0.25, method)
    np.testing.assert_array_equal(sieve.thr, sieve.rho)
    t = grid_times(horizon, 0.25)[sieve.rows]
    assert len(t) == min(10, 1 + int(horizon // 2.5))
    assert _check_sieve(g, sieve, np.random.default_rng(int(horizon * 10)), 20_000)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    horizon=st.floats(0.2, 30.0),
    step=st.floats(0.05, 0.25, exclude_min=True),
    method=st.sampled_from(["series", "factor"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_survival_sieve_property(horizon, step, method, seed):
    # on any grid the rho bound holds and no survivor is lost
    g, sieve = _survival_state(DEFAULT_KERNEL, horizon, step, method)
    _check_sieve(g, sieve, np.random.default_rng(seed), 2000)


@pytest.mark.parametrize("horizon", [3.0, 12.0])
def test_survival_sieve_row_by_row_keeps_the_columns_passes_keeps(horizon):
    # on the same normals, sift asks only for the rows of live columns and
    # keeps exactly the columns the all-rows predicate keeps
    _, sieve = _survival_state(DEFAULT_KERNEL, horizon, 0.25, "series")
    eta = np.random.default_rng(int(horizon)).standard_normal((len(sieve.rows), 20_000))
    asked = np.zeros(eta.shape, dtype=bool)

    def row(j, alive, out):
        asked[j, alive] = True
        out[:] = eta[j, alive]

    kept, alive = sieve.sift(eta.shape[1], row)
    np.testing.assert_array_equal(alive, np.flatnonzero(sieve.passes(eta)))
    np.testing.assert_array_equal(kept, eta[:, alive])
    assert 0 < len(alive) < eta.shape[1]
    y = sieve.l @ eta >= -sieve.thr[:, None]
    live = np.cumprod(np.vstack([np.ones(eta.shape[1], dtype=bool), y[:-1]]), axis=0)
    np.testing.assert_array_equal(asked, live.astype(bool))


def test_survival_states_are_cached_and_read_only():
    horizons = [float(t) for t in range(3, 13)]
    states = [_survival_state(DEFAULT_KERNEL, t, 0.25, "series") for t in horizons]
    for t, state in zip(horizons, states):
        assert _survival_state(DEFAULT_KERNEL, t, 0.25, "series") is state
    g, _ = states[-1]
    with pytest.raises(ValueError):
        g[0, 0] = 0.0


def _unsieved_survivors(g, samples, seed):
    """Paths G z, z ~ N(0, I_r), with min over the grid > 0: the sampler
    before the sieve, drawn in chunks."""
    rng = np.random.default_rng(seed)
    hits = 0
    for lo in range(0, samples, 100_000):
        z = rng.standard_normal((g.shape[1], min(100_000, samples - lo)))
        hits += int(np.count_nonzero((g @ z).min(axis=0) > 0.0))
    return hits


@pytest.mark.parametrize("method", ["series", "factor"])
def test_sieved_survival_matches_unsieved_reference(method):
    # two-sample z on 10^6 paths each; |z| < 4 is a two-sided alpha of
    # 6.3e-5 per horizon, and it detects a relative bias in p of about 1.2%
    # at T = 3 (p = 0.20) and 5% at T = 12 (p = 0.012)
    samples = 1_000_000
    for horizon in (3.0, 6.0, 12.0):
        times = grid_times(horizon, 0.25)
        if method == "series":
            trunc = required_truncation(DEFAULT_KERNEL, horizon)
            g = _series_factor(DEFAULT_KERNEL, horizon, 0.25, trunc)
        else:
            g, _ = cholesky_with_escalation(DEFAULT_KERNEL, times)
        est = estimate_survival(
            DEFAULT_KERNEL, horizon, 0.25, samples, (314, int(horizon)), method
        )
        ref = _unsieved_survivors(g, samples, (271, int(horizon)))
        pooled = (est.successes + ref) / (2 * samples)
        z = (est.successes - ref) / math.sqrt(2 * samples * pooled * (1 - pooled))
        assert abs(z) < 4.0, (horizon, est.successes, ref, z)


def test_survival_preconditions():
    with pytest.raises(ValueError):
        estimate_survival(DEFAULT_KERNEL, 4.0, 0.3, 2000, 0)
    with pytest.raises(ValueError):
        estimate_survival(DEFAULT_KERNEL, 4.0, 0.25, 500, 0)
    with pytest.raises(ValueError):
        estimate_survival(DEFAULT_KERNEL, 4.0, 0.25, 2000, 0, method="magic")


def test_survival_single_point_is_half():
    est = estimate_survival(DEFAULT_KERNEL, 0.2, 0.25, 40_000, 3)
    assert abs(est.p_hat - 0.5) < 3 * (est.ci_high - est.ci_low) / 2


def test_survival_nonincreasing_in_horizon():
    ests = [
        estimate_survival(DEFAULT_KERNEL, T, 0.25, 30_000, 11) for T in (2, 4, 6, 8)
    ]
    for a, b in zip(ests, ests[1:]):
        assert b.p_hat <= a.ci_high  # nested events, up to CI noise


def test_survival_step_halving_consistent():
    a = estimate_survival(DEFAULT_KERNEL, 6.0, 0.25, 60_000, 21)
    b = estimate_survival(DEFAULT_KERNEL, 6.0, 0.125, 60_000, 22)
    assert a.overlaps(b)


def test_survival_series_factor_agree():
    for horizon, seed in ((5.0, 31), (8.0, 33), (12.0, 35)):
        a = estimate_survival(
            DEFAULT_KERNEL, horizon, 0.25, 60_000, seed, method="series"
        )
        b = estimate_survival(
            DEFAULT_KERNEL, horizon, 0.25, 60_000, seed + 1, method="factor"
        )
        assert a.overlaps(b), horizon


def test_survival_deterministic():
    a = estimate_survival(DEFAULT_KERNEL, 4.0, 0.25, 20_000, 99)
    b = estimate_survival(DEFAULT_KERNEL, 4.0, 0.25, 20_000, 99)
    assert a == b


def test_survival_subadditivity_surrogate():
    # positive correlation makes -log p subadditive: p(T1+T2) >= p(T1) p(T2)
    # up to Monte Carlo noise (three combined interval widths of slack)
    e3 = estimate_survival(DEFAULT_KERNEL, 3.0, 0.25, 60_000, 71)
    e4 = estimate_survival(DEFAULT_KERNEL, 4.0, 0.25, 60_000, 72)
    e7 = estimate_survival(DEFAULT_KERNEL, 7.0, 0.25, 60_000, 73)
    slack = 3 * (
        (e3.ci_high - e3.ci_low) + (e4.ci_high - e4.ci_low) + (e7.ci_high - e7.ci_low)
    )
    assert e7.p_hat >= e3.p_hat * e4.p_hat - slack


def test_fit_exact_line():
    pts = [(float(t), -0.5 * t + 0.1, 0.0) for t in range(3, 11)]
    fit = fit_exponent(pts)
    assert fit.b_hat == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(0.1, abs=1e-10)
    assert fit.stderr < 1e-10


def test_fit_noisy_line():
    rng = np.random.default_rng(13)
    pts = [
        (float(t), -0.5 * t + 0.1 + 0.01 * rng.standard_normal(), 0.01)
        for t in range(3, 13)
    ]
    fit = fit_exponent(pts)
    assert abs(fit.b_hat - 0.5) < 3 * fit.stderr


def test_fit_requires_enough_points():
    with pytest.raises(ValueError):
        fit_exponent([(3.0, -1.0, 0.1), (4.0, -1.5, 0.1), (5.0, -2.0, 0.1)])
    # points below t_min are skimmed off before the count
    with pytest.raises(ValueError):
        fit_exponent([(t, -0.5 * t, 0.1) for t in (1.0, 2.0, 2.5, 4.0, 5.0)])


def test_fit_skims_pre_asymptotic():
    pts = [(2.0, 99.0, 0.1)] + [(float(t), -0.5 * t, 0.1) for t in range(3, 8)]
    fit = fit_exponent(pts)
    assert fit.b_hat == pytest.approx(0.5, abs=1e-9)
    assert all(t >= 3.0 for t, _, _ in fit.points)


def test_estimate_exponent_pipeline():
    fit, ests = estimate_exponent(
        DEFAULT_KERNEL, [3.0, 4.0, 5.0, 6.0, 7.0], 0.25, 5000, seed=50
    )
    assert isinstance(fit, ExponentFit)
    assert len(ests) == 5
    assert 0.2 < fit.b_hat < 0.4  # crude sanity band for the quarter kernel


def test_two_kernel_time_change():
    # e^{-t^2/2} runs sqrt(2) times faster than e^{-t^2/4}: survival at T on a
    # given grid equals the quarter kernel's survival on the sqrt(2)-scaled grid
    root2 = math.sqrt(2)
    a = estimate_survival(HALF_TIME_KERNEL, 4.0, 0.25 / root2, 60_000, 61)
    b = estimate_survival(DEFAULT_KERNEL, 4.0 * root2, 0.25, 60_000, 62)
    assert len(grid_times(4.0, 0.25 / root2)) == len(grid_times(4.0 * root2, 0.25))
    assert a.overlaps(b)
