"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 6-8 (statistical batches) and 11 take seconds each, criterion 10
(80,000 games) about half a minute; they are marked `slow` but still run in
a default `pytest` invocation.  Criterion 8's largest size
is far beyond plain Monte Carlo at desk scale, so it runs on the splitting
estimator, validated against plain Monte Carlo in tests/test_mc.py.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from persistlab import engine
from persistlab.cli import main
from persistlab.games import (
    GamePayoffs,
    equilibrium_polynomial,
    internal_equilibria,
    prob_no_internal_equilibria,
)
from persistlab.gp import (
    DEFAULT_KERNEL,
    HALF_TIME_KERNEL,
    estimate_exponent,
    estimate_survival,
    grid_times,
    required_truncation,
    sample_paths_series,
)
from persistlab.kernel import mn_asymptotic, mn_exact, mn_peak_bounds, mn_via_legendre
from persistlab.mc import (
    FULL_AXIS,
    auto_budget,
    autocorr_convergence_report,
    estimate_persistence,
    negligible_interval_report,
)
from persistlab.polys import sample_polynomial
from persistlab.roots import count_positive_roots, is_persistent


def report(idx: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {idx:2d}: {status} ({time.perf_counter() - t0:.1f}s) {detail}")


def test_criterion_01_degree_one_anchor(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "persist.csv"
    code = main(
        ["persist", "--n", "1", "--samples", "100000", "--seed", "7", "--out", str(out)]
    )
    elapsed = time.perf_counter() - t0
    row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
    cells = dict(zip(("n", "interval", "samples", "successes", "p_hat", "ci_low", "ci_high"), row.split(",")))
    ok = (
        code == 0
        and float(cells["ci_low"]) <= 0.25 <= float(cells["ci_high"])
        and elapsed < 5.0
    )
    report(1, ok, f"p_hat={cells['p_hat']} CI=({cells['ci_low']},{cells['ci_high']})", t0)
    assert ok


def test_criterion_02_legendre_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 26):
        for k in range(1, 10):
            x = k / 10.0
            err = abs(
                math.expm1(mn_via_legendre(n, x).log_abs - mn_exact(n, x).log_abs)
            )
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(2, ok, f"max rel discrepancy {worst:.2e}", t0)
    assert ok


def test_criterion_03_asymptotic_route():
    t0 = time.perf_counter()
    errs = [
        abs(math.expm1(mn_asymptotic(n, 0.5).log_abs - mn_exact(n, 0.5).log_abs))
        for n in (10**2, 10**3, 10**4, 10**5)
    ]
    nonincreasing = all(a >= b for a, b in zip(errs, errs[1:]))
    sandwich = True
    for n, x in ((10**3, 0.5), (10**3, 1.0), (10**5, 0.1)):
        lower, upper = mn_peak_bounds(n, x)
        exact = mn_exact(n, x).log_abs
        sandwich &= lower.log_abs <= exact <= upper.log_abs
    elapsed = time.perf_counter() - t0
    ok = nonincreasing and errs[2] < 0.05 and sandwich and elapsed < 10.0
    report(3, ok, f"errors {['%.2e' % e for e in errs]}, sandwich={sandwich}", t0)
    assert ok


def _oracle_persistent(n: int, coeffs: np.ndarray) -> bool:
    """Eigenvalue root finder with high-precision arbitration near the axis."""
    w = np.array([math.comb(n, i) * a for i, a in enumerate(coeffs)])
    positive_at_one = sum(Fraction(float(v)) for v in w) > 0
    if n == 0:
        return positive_at_one
    roots = np.roots(w[::-1])
    has_pos = False
    ambiguous = False
    for z in roots:
        rel_imag = abs(z.imag) / max(1.0, abs(z))
        if z.real > 0 and rel_imag < 1e-7:
            has_pos = True
        elif z.real > 0 and rel_imag < 1e-4:
            ambiguous = True
    if ambiguous and not has_pos:
        import mpmath

        with mpmath.workdps(50):
            mp_roots = mpmath.polyroots(
                [mpmath.mpf(float(v)) for v in w[::-1]], maxsteps=200
            )
            has_pos = any(
                abs(mpmath.im(z)) < mpmath.mpf("1e-30") and mpmath.re(z) > 0
                for z in mp_roots
            )
    return (not has_pos) and positive_at_one


def test_criterion_04_root_counter_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    disagreements = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        p = sample_polynomial(n, rng)
        if is_persistent(p) != _oracle_persistent(n, p.coefficients):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 60.0
    report(4, ok, f"{disagreements} disagreements over 10^4 instances", t0)
    assert ok


def test_criterion_05_gp_kernel_fidelity():
    t0 = time.perf_counter()
    kernel = DEFAULT_KERNEL
    trunc = required_truncation(kernel, 8.0)
    paths = sample_paths_series(
        kernel, 8.0, 0.25, trunc, np.random.default_rng(515151), 100_000
    )
    times = grid_times(8.0, 0.25)
    pairs = [(0, 1), (0, 2), (0, 4), (4, 8), (8, 16), (0, 8), (12, 16), (16, 24), (3, 9), (20, 21)]
    cov_ok = True
    worst_z = 0.0
    for i, j in pairs:
        products = paths[:, i] * paths[:, j]
        se = products.std() / math.sqrt(len(products))
        z = abs(products.mean() - float(kernel.corr(times[i] - times[j]))) / se
        worst_z = max(worst_z, z)
        cov_ok &= z < 4.0
    survival_ok = True
    for horizon, seed_a, seed_b in ((3.0, 1001, 1002), (6.0, 1003, 1004)):
        a = estimate_survival(kernel, horizon, 0.25, 100_000, seed_a, method="series")
        b = estimate_survival(kernel, horizon, 0.25, 100_000, seed_b, method="factor")
        survival_ok &= a.overlaps(b)
    elapsed = time.perf_counter() - t0
    ok = cov_ok and survival_ok and elapsed < 300.0
    report(5, ok, f"worst |z|={worst_z:.2f}, samplers agree={survival_ok}", t0)
    assert ok


@pytest.mark.slow
def test_criterion_06_exponent_self_consistency():
    t0 = time.perf_counter()
    horizons = [float(t) for t in range(3, 13)]
    fit_coarse, _ = estimate_exponent(
        DEFAULT_KERNEL, horizons, 0.25, 150_000, seed=606101
    )
    fit_fine, _ = estimate_exponent(
        DEFAULT_KERNEL, horizons, 0.125, 150_000, seed=606202
    )
    diff = abs(fit_coarse.b_hat - fit_fine.b_hat)
    tol = 2.0 * math.hypot(fit_coarse.stderr, fit_fine.stderr)
    stable = diff < tol

    fit_half, _ = estimate_exponent(
        HALF_TIME_KERNEL, horizons, 0.25, 150_000, seed=606303
    )
    ratio = fit_coarse.b_hat / fit_half.b_hat
    se_ratio = ratio * math.hypot(
        fit_coarse.stderr / fit_coarse.b_hat, fit_half.stderr / fit_half.b_hat
    )
    target = 1.0 / math.sqrt(2.0)
    scaled = abs(ratio - target) < 1.96 * se_ratio
    elapsed = time.perf_counter() - t0
    ok = stable and scaled and elapsed < 1800.0
    report(
        6,
        ok,
        f"b={fit_coarse.b_hat:.4f}±{fit_coarse.stderr:.4f}, halving diff {diff:.4f} "
        f"(tol {tol:.4f}), kernel ratio {ratio:.4f} vs {target:.4f} ± {1.96 * se_ratio:.4f}",
        t0,
    )
    assert ok


@pytest.mark.slow
def test_criterion_07_main_theorem_trend():
    t0 = time.perf_counter()
    seed = 2718
    fit, _ = estimate_exponent(
        DEFAULT_KERNEL, [float(t) for t in range(3, 13)], 0.25, 200_000, seed=707001
    )
    b_hat = fit.b_hat
    rows = []
    for n in (16, 36, 64, 100, 144):
        budget = auto_budget(
            n, FULL_AXIS, seed=seed, target_successes=100,
            floor=100_000, cap=10_000_000, workers=2,
        )
        est = estimate_persistence(n, FULL_AXIS, budget, seed=(seed, n), workers=2)
        denom = math.pi * math.sqrt(n)
        ratio = -est.log_p / denom
        half_width = 1.96 * est.log_p_stderr / denom
        rows.append((n, budget, est, ratio, half_width))
    dists = [abs(r[3] - b_hat) for r in rows]
    monotone = all(
        dists[i + 1] < dists[i] + rows[i][4] + rows[i + 1][4]
        for i in range(len(rows) - 1)
    )
    final_close = dists[-1] < 0.2 * b_hat
    elapsed = time.perf_counter() - t0
    ok = monotone and final_close
    detail = ", ".join(
        f"n={r[0]}:ratio={r[3]:.4f}(N={r[1]})" for r in rows
    )
    report(7, ok, f"b_hat={b_hat:.4f}; {detail}; |ratio(144)-b|={dists[-1]:.4f}", t0)
    assert ok


@pytest.mark.slow
def test_criterion_08_negligible_intervals():
    """Edge-interval criterion on the splitting estimator.

    The n=1e4 low-interval probability is ~1e-12 (decay rate ~0.3 over a
    window of ~87 correlation times), which no plain Monte Carlo budget a
    desk machine can run resolves (a log estimate needs ~1e13 samples).
    Adaptive multilevel splitting resolves it; the estimator is checked
    against plain Monte Carlo at n = 36, 100 and 1000 in tests/test_mc.py.
    The thresholds are the protocol's: low/high symmetry at 1e2 and 1e3,
    strict decrease of -log p / sqrt(n) over 1e2, 1e3, 1e4, and 1800 s.
    """
    t0 = time.perf_counter()
    rows = negligible_interval_report(
        (10**2, 10**3, 10**4),
        seed=808080,
        workers=2,
        estimator="splitting",
    )
    low = {r.n: r for r in rows if r.kind == "low"}
    high = {r.n: r for r in rows if r.kind == "high"}
    symmetry = all(
        low[n].estimate.overlaps(high[n].estimate) for n in (10**2, 10**3)
    )
    normalized = [low[n].normalized for n in (10**2, 10**3, 10**4)]
    resolved = all(v is not None for v in normalized)
    decreasing = resolved and all(
        a > b for a, b in zip(normalized, normalized[1:])
    )
    elapsed = time.perf_counter() - t0
    ok = symmetry and decreasing and elapsed < 1800.0
    detail = ", ".join(
        f"n={n}:{'%.4f' % v if v is not None else 'UNRESOLVED'}"
        for n, v in zip((10**2, 10**3, 10**4), normalized)
    )
    unresolved = ", ".join(f"{r.n}/{r.kind}:{r.unresolved}" for r in rows)
    moves = "; ".join(
        f"{r.n}/{r.kind}: levels {list(r.estimate.replicate_levels)} pCN accept "
        + " ".join("%.2f" % a for a in r.estimate.replicate_accept)
        for r in rows
    )
    report(
        8,
        ok,
        f"symmetry={symmetry}; -log p/sqrt(n): {detail}; unresolved {unresolved}; "
        f"per replicate {moves}",
        t0,
    )
    assert ok


def test_criterion_09_autocorr_convergence():
    t0 = time.perf_counter()
    rows = autocorr_convergence_report((10**4, 10**5, 10**6))
    by_n_lag = {(r.n, r.lag): r.sup_gap for r in rows}
    lag1 = [by_n_lag[(n, 1.0)] for n in (10**4, 10**5, 10**6)]
    monotone = all(a >= b for a, b in zip(lag1, lag1[1:]))
    largest_n_gaps = [g for (n, _), g in by_n_lag.items() if n == 10**6]
    small = max(largest_n_gaps) < 0.01
    elapsed = time.perf_counter() - t0
    ok = monotone and small and elapsed < 300.0
    report(9, ok, f"lag-1 gaps {['%.2e' % g for g in lag1]}", t0)
    assert ok


@pytest.mark.slow
def test_criterion_10_game_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101010)
    disagreements = 0
    for players in range(2, 10):
        for _ in range(10_000):
            g = GamePayoffs.from_differences(rng.standard_normal(players))
            q = equilibrium_polynomial(g)
            if internal_equilibria(g).count != count_positive_roots(q).count:
                disagreements += 1
    two = prob_no_internal_equilibria(2, 100_000, seed=111)
    half_in = two.ci_low <= 0.5 <= two.ci_high
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and half_in and elapsed < 300.0
    report(
        10, ok, f"{disagreements} disagreements; n=2 CI=({two.ci_low:.4f},{two.ci_high:.4f})", t0
    )
    assert ok


def _payload(path):
    with open(path, "rb") as fh:
        return b"\n".join(
            l for l in fh.read().split(b"\n") if not l.startswith(b"#")
        )


@pytest.mark.slow
def test_criterion_11_reproducibility(tmp_path):
    """Byte-identical payloads for every command type at fixed seed/workers."""
    t0 = time.perf_counter()
    commands = [
        ["mn-check", "--n", "25"],
        ["persist", "--n", "1", "--samples", "20000", "--seed", "7", "--workers", "2"],
        ["persist", "--n", "36", "--interval", "low", "--samples", "5000", "--seed", "3"],
        ["ratio", "--n-list", "16,36", "--samples", "30000", "--seed", "9", "--workers", "2"],
        ["gp-exponent", "--horizons", "3,4,5,6,7,8", "--samples", "20000", "--seed", "4"],
        ["negligible", "--n-list", "100", "--samples", "20000", "--seed", "5", "--workers", "2"],
        ["game", "--n-list", "2,5", "--samples", "20000", "--seed", "6", "--workers", "2"],
        ["b1-report", "--n-list", "1000,10000"],
    ]
    # every pooled command spans two units, so its payload crosses the pool
    for args in commands:
        if "--workers" in args:
            samples = int(args[args.index("--samples") + 1])
            assert len(engine._blocks(0, samples)) >= 2, args
    ok = True
    for idx, args in enumerate(commands):
        for fmt in ("csv", "json"):
            a = tmp_path / f"{idx}_{fmt}_a.out"
            b = tmp_path / f"{idx}_{fmt}_b.out"
            assert main(args + ["--format", fmt, "--out", str(a)]) == 0
            assert main(args + ["--format", fmt, "--out", str(b)]) == 0
            ok &= _payload(a) == _payload(b)
    elapsed = time.perf_counter() - t0
    report(11, ok, f"{len(commands)} commands x 2 formats rerun byte-identical", t0)
    assert ok
