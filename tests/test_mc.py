import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from persistlab.mc import (
    FULL_AXIS,
    HIGH_INTERVAL,
    LOW_INTERVAL,
    MAIN_INTERVAL,
    IntervalSpec,
    _SignScanner,
    _splitting_replicate,
    auto_budget,
    autocorr_convergence_report,
    estimate_persistence,
    estimate_persistence_splitting,
    negligible_interval_report,
    ratio_sequence,
)
from persistlab import engine, mc
from persistlab.games import prob_no_internal_equilibria
from persistlab.kernel import mn_exact, transform_x
from persistlab.logscale import log_binomial_row
from persistlab.polys import BinomialPolynomial, eval_f
from persistlab.roots import is_persistent
from persistlab.stats import PersistenceEstimate


def test_interval_ranges():
    n = 10**6
    edge = n ** (-1.0 / 6.0)
    assert FULL_AXIS.x_range(n) == (0.0, math.inf)
    assert LOW_INTERVAL.x_range(n) == (0.0, edge)
    assert HIGH_INTERVAL.x_range(n) == (1.0 / edge, math.inf)
    assert MAIN_INTERVAL.x_range(n) == (edge, 1.0 / edge)
    lo, hi = MAIN_INTERVAL.t_range(n)
    assert lo == pytest.approx(612.5547, abs=1e-3)
    assert hi == pytest.approx(math.pi * 1000 - 612.5547, abs=1e-3)
    with pytest.raises(ValueError):
        IntervalSpec("everything")


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_persistence(1, FULL_AXIS, 500, seed=0)
    with pytest.raises(ValueError):
        estimate_persistence(-1, FULL_AXIS, 2000, seed=0)
    with pytest.raises(ValueError):
        estimate_persistence(1, FULL_AXIS, 2000, seed=0, workers=0)


def test_degenerate_degree_zero():
    # f = a_0: positive with probability 1/2 on any interval
    est = estimate_persistence(0, FULL_AXIS, 40_000, seed=3)
    assert abs(est.p_hat - 0.5) < 0.01


def test_degree_one_quarter():
    est = estimate_persistence(1, FULL_AXIS, 100_000, seed=7)
    half_width = (est.ci_high - est.ci_low) / 2
    assert abs(est.p_hat - 0.25) < 3 * half_width


def test_degenerate_main_interval_at_n1():
    # at n=1 the central window is empty, so the event holds vacuously
    est = estimate_persistence(1, MAIN_INTERVAL, 1000, seed=5)
    assert est.p_hat == 1.0


def test_degree_two_against_quadratic_oracle():
    # f = a0 + 2 a1 x + a2 x^2 > 0 on (0, inf)  iff
    # a0 > 0, a2 > 0, and (a1 >= 0 or a1^2 < a0 a2)
    rng = np.random.default_rng(101)
    n_samples = 200_000
    a = rng.standard_normal((3, n_samples))
    oracle_hits = int(
        np.count_nonzero(
            (a[0] > 0) & (a[2] > 0) & ((a[1] >= 0) | (a[1] ** 2 < a[0] * a[2]))
        )
    )
    oracle = PersistenceEstimate.from_counts(oracle_hits, n_samples)
    est = estimate_persistence(2, FULL_AXIS, n_samples, seed=202)
    assert est.overlaps(oracle)


def test_estimate_bit_reproducible():
    assert len(engine._blocks(5, 20_000)) >= 2  # two units cross the pool
    a = estimate_persistence(16, FULL_AXIS, 20_000, seed=5, workers=1)
    b = estimate_persistence(16, FULL_AXIS, 20_000, seed=5, workers=1)
    assert a == b
    c = estimate_persistence(16, FULL_AXIS, 20_000, seed=5, workers=2)
    d = estimate_persistence(16, FULL_AXIS, 20_000, seed=5, workers=2)
    assert c == d
    assert a == c  # independent of the worker count


def test_reversal_law_invariance():
    # reversed-coefficient sampling has the same law; independent estimates
    # of the full-axis event agree within combined intervals
    a = estimate_persistence(8, FULL_AXIS, 100_000, seed=31)
    rng = np.random.default_rng(77)
    hits = sum(
        is_persistent(BinomialPolynomial(8, rng.standard_normal(9)[::-1]))
        for _ in range(30_000)
    )
    b = PersistenceEstimate.from_counts(hits, 30_000)
    assert a.overlaps(b)


def test_low_interval_bounded_by_half():
    # the event forces a_0 >= 0 through continuity at the origin
    est = estimate_persistence(64, LOW_INTERVAL, 20_000, seed=9)
    assert est.p_hat <= 0.5 + (est.ci_high - est.ci_low)


def test_low_high_symmetry():
    a = estimate_persistence(100, LOW_INTERVAL, 50_000, seed=13)
    b = estimate_persistence(100, HIGH_INTERVAL, 50_000, seed=14)
    assert a.overlaps(b)


def test_scanner_agrees_with_exact_decision():
    # every full-axis verdict must reproduce the exact per-sample decision
    n = 24
    scanner = _SignScanner(n, FULL_AXIS)
    rng = np.random.default_rng(55)
    a = rng.standard_normal((n + 1, 400))
    verdicts, _ = scanner.classify(a)
    assert set(np.unique(verdicts)) <= {-1, 0}
    for j in range(a.shape[1]):
        exact = is_persistent(BinomialPolynomial(n, a[:, j]))
        if verdicts[j] == _SignScanner.REJECT:
            assert not exact
        else:
            assert verdicts[j] == _SignScanner.ESCALATE


def test_scanner_restricted_agrees_with_exact():
    # restricted-interval verdicts (including statistical accepts) agree with
    # the exact interval decision at modest n
    from fractions import Fraction

    from persistlab.roots import DyadicPolynomial, count_roots_in

    n = 16
    scanner = _SignScanner(n, LOW_INTERVAL)
    rng = np.random.default_rng(56)
    a = rng.standard_normal((n + 1, 500))
    verdicts, u_pad = scanner.classify(a)
    persistent, unresolved, _ = mc._decide(scanner, a, verdicts, u_pad)
    assert unresolved == 0
    x_hi = LOW_INTERVAL.x_range(n)[1]
    for j in range(a.shape[1]):
        p = BinomialPolynomial(n, a[:, j])
        dp = DyadicPolynomial.from_binomial(p)
        exact = (
            count_roots_in(dp, None, Fraction(x_hi)) == 0
            and a[0, j] > 0
        )
        if verdicts[j] == _SignScanner.REJECT:
            assert not exact
        elif verdicts[j] == _SignScanner.ACCEPT:
            assert exact
        else:
            assert persistent[j] == exact


def _scalar_u(scanner, p, t):
    """u = f / sqrt(M) at one t from the log-domain sums eval_f and
    mn_exact (the limit values a_0 and a_n at the ends of the axis)."""
    n = scanner.n
    span = math.pi * math.sqrt(n)
    if t <= 1e-12:
        return float(p.coefficients[0])
    if t >= span * (1.0 - 1e-15):
        return float(p.coefficients[-1])
    x = transform_x(t, n)
    v = eval_f(p, x)
    if v.sign == 0:
        return 0.0
    return v.sign * math.exp(v.log_abs - 0.5 * mn_exact(n, x).log_abs)


def _certify(scanner, p, t0, t1, u0, u1, depth):
    """One cell of the recursive reference: False (rejected), None
    (undecided) or True (cleared), bisecting at most depth times."""
    if u0 < -mc._AMBIG_NORMALIZED or u1 < -mc._AMBIG_NORMALIZED:
        return False
    if abs(u0) <= mc._AMBIG_NORMALIZED or abs(u1) <= mc._AMBIG_NORMALIZED:
        return None
    if min(u0, u1) >= mc._clearance(t1 - t0):
        return True
    if depth <= 0:
        return None
    tm = 0.5 * (t0 + t1)
    um = _scalar_u(scanner, p, tm)
    left = _certify(scanner, p, t0, tm, u0, um, depth - 1)
    if left is False:
        return False
    right = _certify(scanner, p, tm, t1, um, u1, depth - 1)
    if right is False:
        return False
    if left is None or right is None:
        return None
    return True


def refine_reference(scanner, coeffs, u_col, depth):
    """The per-sample recursive refinement that mc._refine batches, one cell
    of the padded grid at a time with scalar evaluations: -1 when a cell
    rejects, else 0 when one is undecided, else 1."""
    p = BinomialPolynomial(scanner.n, coeffs)
    undecided = False
    t = scanner.t_pad
    for k in range(len(t) - 1):
        got = _certify(
            scanner, p, float(t[k]), float(t[k + 1]), float(u_col[k]),
            float(u_col[k + 1]), depth,
        )
        if got is False:
            return -1
        undecided |= got is None
    return 0 if undecided else 1


def _final_stage(scanner, seed, particles):
    """The lifted particles that one splitting replicate's final stage hands
    to _decide."""
    final = []
    decide = mc._decide

    def recording_decide(scanner, a, verdicts, u_pad):
        final.append(a)
        return decide(scanner, a, verdicts, u_pad)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_decide", recording_decide)
        _splitting_replicate(scanner, seed, particles)
    return final[-1]


@pytest.mark.parametrize(
    "n, kind", [(16, "low"), (100, "high"), (36, "main"), (1000, "low")]
)
def test_refine_matches_the_recursive_reference(n, kind, monkeypatch):
    # random columns around three offsets, the zero polynomial and the
    # lifted particles of a splitting final stage (at n = 1000 nearly all
    # escalations come from there): _refine gives every escalated column
    # the recursive reference's verdict, at the default depth and at depth 1,
    # where cells stay open at the last level
    scanner = _SignScanner(n, IntervalSpec(kind))
    rng = np.random.default_rng(n)
    a = np.hstack(
        [off + rng.standard_normal((n + 1, 700)) for off in (0.0, 0.5, 1.0)]
        + [np.zeros((n + 1, 1)), _final_stage(scanner, (n, 5), 200)]
    )
    verdicts, u_pad = scanner.classify(a)
    escalated = np.flatnonzero(verdicts == _SignScanner.ESCALATE)
    assert len(escalated) >= 40
    seen = set()
    for depth in (mc._REFINE_DEPTH, 1):
        monkeypatch.setattr(mc, "_REFINE_DEPTH", depth)
        got = mc._refine(scanner, a[:, escalated], u_pad[:, escalated])
        want = [refine_reference(scanner, a[:, j], u_pad[:, j], depth) for j in escalated]
        assert got.tolist() == want, depth
        seen.update(want)
    assert seen == {-1, 0, 1}
    # the batched evaluator against the scalar one at the cell midpoints
    t = 0.5 * (scanner.t_pad[:-1] + scanner.t_pad[1:])
    cols = escalated[np.arange(len(t)) % len(escalated)]
    want = [_scalar_u(scanner, BinomialPolynomial(n, a[:, j]), s) for s, j in zip(t, cols)]
    np.testing.assert_allclose(mc._u_at(n, t, a, cols), want, rtol=1e-12, atol=1e-13)


def test_auto_budget_scales_with_rarity():
    easy = auto_budget(1, FULL_AXIS, seed=1, target_successes=100)
    hard = auto_budget(36, FULL_AXIS, seed=1, target_successes=100)
    assert easy < hard
    assert easy >= 100 / 0.3  # p = 1/4 needs at least ~400 samples
    capped = auto_budget(36, FULL_AXIS, seed=1, target_successes=100, cap=2000)
    assert capped == 2000


def test_ratio_sequence_synthetic_inversion():
    # exact decay p_n = exp(-0.1 pi sqrt(n)) inverts to ratio 0.1;
    # mirrors the RatioPoint construction on synthetic estimates
    for n in (16, 64, 144):
        p = math.exp(-0.1 * math.pi * math.sqrt(n))
        ratio = -math.log(p) / (math.pi * math.sqrt(n))
        assert ratio == pytest.approx(0.1, rel=1e-12)


def test_ratio_sequence_reports_and_drops():
    points, dropped = ratio_sequence([1, 4], samples=5000, seed=3)
    assert [pt.n for pt in points] == [1, 4]
    for pt in points:
        assert pt.ci_low <= pt.ratio <= pt.ci_high
        assert pt.ratio == pytest.approx(
            -math.log(pt.estimate.p_hat) / (math.pi * math.sqrt(pt.n)), rel=1e-12
        )
    # an unresolvable n at a tiny budget lands in the dropped report
    points, dropped = ratio_sequence([100], samples=2000, seed=3)
    assert points == [] and dropped[0][0] == 100


def test_negligible_report_rows():
    rows = negligible_interval_report([36], samples=4000, seed=5)
    kinds = {(r.n, r.kind) for r in rows}
    assert kinds == {(36, "low"), (36, "high")}
    for r in rows:
        if r.estimate.log_usable():
            assert r.normalized == pytest.approx(
                -r.estimate.log_p / 6.0, rel=1e-12
            )


def test_autocorr_report_monotone_in_n():
    rows = autocorr_convergence_report([10**4, 10**5], lags=(1.0,))
    assert len(rows) == 2
    assert rows[0].sup_gap >= rows[1].sup_gap
    assert all(r.sup_gap < 1e-3 for r in rows)


def test_unresolved_samples_are_counted(monkeypatch):
    # without local refinement, escalated restricted-interval samples above
    # the exact-fallback degree stay undecided; they must be counted, not
    # dropped, and still count as failures
    monkeypatch.setattr(mc, "_REFINE_DEPTH", 0)
    est = estimate_persistence(200, LOW_INTERVAL, 2000, seed=4)
    assert est.unresolved > 0
    assert est.p_hat == est.successes / est.samples
    rows = negligible_interval_report([200], samples=2000, seed=4)
    assert all(r.unresolved == r.estimate.unresolved for r in rows)
    assert sum(r.unresolved for r in rows) > 0


def _dense_rows(scanner):
    """The scanner's padded rows (tau units) over its kept columns: its
    stored row blocks placed into one dense array."""
    rows = np.zeros((len(scanner.u_scale), len(scanner.columns)))
    for k, (block_rows, first, block) in enumerate(scanner._row_blocks):
        # consecutive blocks of _ROW_BLOCK rows, in row order
        assert block_rows == slice(k * mc._ROW_BLOCK, (k + 1) * mc._ROW_BLOCK)
        rows[block_rows, first : first + block.shape[1]] = block
    return rows


@pytest.mark.parametrize(
    "n, kind",
    [
        (24, "full"),
        (144, "full"),
        (16, "low"),
        (100, "high"),
        (36, "main"),
        (2000, "low"),
        (3000, "full"),
    ],
)
def test_latent_scan_agrees_with_classify_on_lifts(n, kind):
    scanner = _SignScanner(n, IntervalSpec(kind))
    rng = np.random.default_rng(n)
    sieve = scanner.sieve
    eta = rng.standard_normal((len(sieve.rows), 3000))
    xi = sieve.complete(eta, rng.standard_normal((scanner.rank, 3000)))
    a = scanner.lift(xi, rng.standard_normal((n + 1, 3000)))
    latent = scanner.scan(xi)
    exact, u_pad = scanner.classify(a)
    # a sieve reject is a scan reject of the completed column, because the
    # completion meets the sieve rows to within rho
    assert np.all(latent[~sieve.passes(eta)] == _SignScanner.REJECT)
    np.testing.assert_array_equal(
        sieve.thr, 1.0 + scanner.margin[sieve.rows] + sieve.rho
    )
    gap = np.abs(scanner._g[sieve.rows] @ xi - sieve.l @ eta)
    assert np.all(gap <= sieve.rho[:, None])
    assert np.all(exact[latent == _SignScanner.REJECT] == _SignScanner.REJECT)
    accepted = latent == _SignScanner.ACCEPT
    decided = mc._decide(scanner, a[:, accepted], exact[accepted], u_pad[:, accepted])
    assert np.all(decided[0])
    assert np.count_nonzero(latent == _SignScanner.REJECT) > 1000
    if kind != "full" and n <= 100:  # p is far below 1/3000 at n = 2000
        assert np.count_nonzero(latent == _SignScanner.ACCEPT) > 0

    # the padded rows in tau units, rebuilt row by row: w_j = C(n, i) x_j^i
    # over its peak e^(m_j) on the row's window (w_j >= _PRUNE_REL), zero
    # elsewhere, tau_j = _NOISE_REL sum(w_j), and u_scale takes the row to
    # units of its sd sqrt(M(x_j))
    i = np.arange(n + 1, dtype=float)
    padded, scale = [], []
    for x in scanner.xs:
        lt = log_binomial_row(n) + i * math.log(x)
        m = lt.max()
        w = np.exp(lt - m)
        w[w < mc._PRUNE_REL] = 0.0
        tau = mc._NOISE_REL * w.sum()
        padded.append(w[scanner.columns] / tau)
        scale.append(tau * math.exp(m - 0.5 * mn_exact(n, float(x)).log_abs))
    if scanner.left_limit:
        padded.insert(0, (scanner.columns == 0) / mc._NOISE_REL)
        scale.insert(0, mc._NOISE_REL)
    if scanner.right_limit:
        padded.append((scanner.columns == n) / mc._NOISE_REL)
        scale.append(mc._NOISE_REL)
    padded = np.vstack(padded)
    # at n = 3000 each weight and scale is exp of an exponent up to 4.4e4 in
    # magnitude (ulp 7e-12), and subnormal weights carry fewer bits
    large = n >= 3000
    rtol, atol = (1e-11, 1e-300) if large else (1e-12, 0.0)
    rows = _dense_rows(scanner)
    np.testing.assert_allclose(rows, padded, rtol=rtol, atol=atol)
    np.testing.assert_allclose(scanner.u_scale, scale, rtol=rtol, atol=0.0)
    # each row's residual E_j meets the lift only through E_j z, a
    # N(0, |E_j|^2) draw; it exceeds c |E_j| on some of the R rows with
    # probability at most R e^(-c^2/2) = e^-50.  E, a difference of
    # near-equal rows, is sensitive to their rounding, so at n = 3000 it is
    # taken from the stored rows, which match the rebuilt ones only to it,
    # and G V is formed in the build's blocks of _ROW_BLOCK rows, since a
    # product's rounding depends on its shape
    c = math.sqrt(2.0 * (50.0 + math.log(len(padded))))
    blocks = range(0, len(rows), mc._ROW_BLOCK)
    gv = np.vstack([scanner._g[k : k + mc._ROW_BLOCK] @ scanner._v for k in blocks])
    residual = (rows if large else padded) - gv
    e = np.linalg.norm(residual, axis=1)
    assert np.all(c * e * scanner.u_scale <= mc._MARGIN_U)
    # E V^T = 0 up to rounding; the margin also carries that rounding while
    # |xi| and |V z| stay below sqrt(r) + 10
    leak = np.linalg.norm(residual @ scanner._v.T, axis=1)
    np.testing.assert_allclose(
        scanner.margin,
        c * e + leak * (2.0 * math.sqrt(scanner.rank) + 20.0) + mc._FLOAT_SLACK,
        rtol=1e-9,
    )
    # on actual lifts the latent values miss the padded values by < margin
    gap = np.abs(padded @ a[scanner.columns] - scanner._g @ xi)
    assert np.all(gap <= scanner.margin[:, None])

    # the lift is exactly N(0, I) because V has orthonormal rows, and it
    # returns any coefficient vector from its own latent coordinates
    np.testing.assert_allclose(
        scanner._v @ scanner._v.T, np.eye(scanner.rank), atol=1e-12
    )
    back = scanner.lift(scanner._v @ a[scanner.columns], a)
    np.testing.assert_allclose(back, a, rtol=0, atol=1e-12)


def _dense_build(scanner):
    """The padded rows as a dense build makes them, on the scanner's grid:
    each row C(n, i) x_j^i over its peak on all n + 1 columns, the columns
    where some row reaches _PRUNE_REL kept.  Returns the kept columns, the
    padded rows over them (tau units), u_scale and latent_factor's rank."""
    n = scanner.n
    w = np.multiply.outer(np.log(scanner.xs), np.arange(n + 1, dtype=float))
    w += log_binomial_row(n)
    w = np.exp(w - w.max(axis=1, keepdims=True))
    tau = mc._NOISE_REL * w.sum(axis=1)
    keep = (w >= mc._PRUNE_REL).any(axis=0)
    keep[0] |= scanner.left_limit
    keep[-1] |= scanner.right_limit
    columns = np.flatnonzero(keep)
    rows = [w[:, columns] / tau[:, None]]
    scale = [tau / np.linalg.norm(w, axis=1)]
    if scanner.left_limit:
        rows.insert(0, (columns == 0)[None, :] / mc._NOISE_REL)
        scale.insert(0, [mc._NOISE_REL])
    if scanner.right_limit:
        rows.append((columns == n)[None, :] / mc._NOISE_REL)
        scale.append([mc._NOISE_REL])
    rows, u_scale = np.vstack(rows), np.concatenate(scale)
    c = math.sqrt(2.0 * (50.0 + math.log(len(rows))))
    g, _ = engine.latent_factor(
        *engine.dense(rows * u_scale[:, None]), mc._MARGIN_U, c
    )
    return columns, rows, u_scale, g.shape[1]


@pytest.mark.parametrize(
    "n, kind",
    [(144, "full"), (36, "main"), (2000, "low"), (10**4, "low"), (10**4, "high")],
)
def test_windowed_scanner_matches_the_dense_build(n, kind):
    # the windows drop only entries below _PRUNE_REL of their row's peak, so
    # the kept columns, the rank and every classify() verdict are the dense
    # build's, and the padded values agree to the rounding of their sums
    scanner = _SignScanner(n, IntervalSpec(kind))
    columns, rows, u_scale, rank = _dense_build(scanner)
    np.testing.assert_array_equal(scanner.columns, columns)
    assert scanner.rank == rank
    rtol = 1e-11 if n >= 3000 else 1e-12
    np.testing.assert_allclose(scanner.u_scale, u_scale, rtol=rtol, atol=0.0)
    rng = np.random.default_rng(n + 1)
    a = rng.standard_normal((n + 1, 2000))
    a[:, 1000:] = np.abs(a[:, 1000:])  # positive polynomials
    verdicts, u_pad = scanner.classify(a)
    v = rows @ a[columns]
    expected = np.full(a.shape[1], _SignScanner.ESCALATE, dtype=np.int8)
    negdef = (v < -1.0).any(axis=0)
    expected[negdef] = _SignScanner.REJECT
    u_dense = v * u_scale[:, None]
    if kind != "full":
        cleared = (np.minimum(u_dense[:-1], u_dense[1:]) >= scanner.kappa).all(axis=0)
        ambig = (np.abs(v) <= 1.0).any(axis=0)
        expected[cleared & ~negdef & ~ambig] = _SignScanner.ACCEPT
    np.testing.assert_array_equal(verdicts, expected)
    assert np.count_nonzero(verdicts == _SignScanner.REJECT) > 500
    assert np.count_nonzero(verdicts != _SignScanner.REJECT) >= 1000
    size = (np.abs(rows) @ np.abs(a[columns])) * u_scale[:, None]
    assert np.all(np.abs(u_pad - u_dense) <= rtol * size)


@pytest.mark.parametrize("n, kind", [(144, "full"), (10**4, "low"), (36, "main")])
def test_sieve_row_by_row_keeps_the_columns_passes_keeps(n, kind):
    # on the same normals, sift asks only for the rows of live columns and
    # keeps exactly the columns the all-rows predicate keeps
    sieve = mc._scanner(n, IntervalSpec(kind), 0.25).sieve
    eta = np.random.default_rng(n).standard_normal((len(sieve.rows), 20_000))
    asked = np.zeros(eta.shape, dtype=bool)

    def row(j, alive, out):
        asked[j, alive] = True
        out[:] = eta[j, alive]

    kept, alive = sieve.sift(eta.shape[1], row)
    np.testing.assert_array_equal(alive, np.flatnonzero(sieve.passes(eta)))
    np.testing.assert_array_equal(kept, eta[:, alive])
    assert 0 < len(alive) < eta.shape[1]
    # row j is asked for the columns rows 0..j-1 keep, and no others
    y = sieve.l @ eta >= -sieve.thr[:, None]
    live = np.cumprod(np.vstack([np.ones(eta.shape[1], dtype=bool), y[:-1]]), axis=0)
    np.testing.assert_array_equal(asked, live.astype(bool))


def _block_alone(scanner, seed, size):
    """One seeded block drawn and decided on its own: its counts
    (successes, lifted, unresolved, exact), its sieve survivors, its lifted
    coefficients and its generator's final state.  The block draws eta row
    by row for the live columns, w for the survivors, z for the lifts."""
    rng = np.random.default_rng(seed)

    def row(j, alive, out):
        out[:] = rng.standard_normal(len(alive))

    eta, _ = scanner.sieve.sift(size, row)
    xi = scanner.sieve.complete(eta, rng.standard_normal((scanner.rank, eta.shape[1])))
    verdicts = scanner.scan(xi)
    lifted = np.flatnonzero(verdicts == _SignScanner.ESCALATE)
    a = scanner.lift(xi[:, lifted], rng.standard_normal((scanner.n + 1, len(lifted))))
    persistent, unresolved, exact = mc._decide(scanner, a, *scanner.classify(a))
    successes = np.count_nonzero(verdicts == _SignScanner.ACCEPT)
    successes += np.count_nonzero(persistent)
    counts = (successes, len(lifted), unresolved, exact)
    return counts, xi.shape[1], a, rng.bit_generator.state


@pytest.mark.parametrize(
    "n, kind, seed, blocks",
    [(144, "full", 1440, 40), (100, "low", 1001, 8), (10**4, "low", 7, 4)],
)
def test_group_pass_counts_equal_its_blocks_one_by_one(
    n, kind, seed, blocks, monkeypatch
):
    # a unit of seeded blocks decided in one pass counts what its blocks
    # count one by one, lifts the same coefficients and leaves each block's
    # generator where the block alone leaves it; the last block is 3
    # samples, which no column of survives the sieve, so the last group
    # mixes empty and live blocks
    scanner = mc._scanner(n, IntervalSpec(kind), 0.25)
    groups = engine._blocks(seed, (blocks - 1) * engine._BATCH + 3)
    assert [len(g) for g in groups] == [engine._GROUP] * (blocks // engine._GROUP)
    alone = [[_block_alone(scanner, *block) for block in group] for group in groups]
    seen = {}

    def group_of(blocks):
        seen["rngs"], edges = engine._group(blocks)
        return seen["rngs"], edges

    def decide(scanner, a, *verdicts):
        seen["a"] = a
        return decide_alone(scanner, a, *verdicts)

    decide_alone = mc._decide
    monkeypatch.setattr(mc, "_group", group_of)
    monkeypatch.setattr(mc, "_decide", decide)
    mixed = lifted = 0
    for group, parts in zip(groups, alone):
        counts, survivors, coeffs, states = zip(*parts)
        assert mc._persistence_block(scanner, *group) == tuple(map(sum, zip(*counts)))
        np.testing.assert_allclose(seen["a"], np.hstack(coeffs), rtol=0.0, atol=1e-12)
        assert [rng.bit_generator.state for rng in seen["rngs"]] == list(states)
        lifts = [c[1] for c in counts]
        mixed += min(survivors) == 0 < max(survivors) or min(lifts) == 0 < max(lifts)
        lifted += sum(lifts)
    assert mixed and (lifted > 0) == (n < 10**4)


def test_sieve_completion_is_standard_normal():
    # xi = Q_S eta + (I - Q_S Q_S^T) w is N(0, I_r): over 10^5 completions
    # each mean is within 5 standard errors of 0 and each covariance entry
    # within 5 of its value in I_r (sd 1/sqrt(N), sqrt(2/N) on the diagonal)
    scanner = mc._scanner(144, FULL_AXIS, 0.25)
    rng = np.random.default_rng(1441)
    count = 100_000
    eta = rng.standard_normal((len(scanner.sieve.rows), count))
    xi = scanner.sieve.complete(eta, rng.standard_normal((scanner.rank, count)))
    assert np.all(np.abs(xi.mean(axis=1)) <= 5.0 / math.sqrt(count))
    cov = xi @ xi.T / count
    sd = np.full(cov.shape, 1.0 / math.sqrt(count))
    np.fill_diagonal(sd, math.sqrt(2.0 / count))
    assert np.all(np.abs(cov - np.eye(scanner.rank)) <= 5.0 * sd)


def test_sieve_rows_are_spaced_and_well_conditioned():
    # ten rows spread evenly over the 16 rows of n = 36 main would be so
    # correlated that cond(L) ~ 1e5 and |Q_S^T Q_S - I| ~ 4e-7; spaced rows
    # keep Q_S orthonormal and rho, the float gap of the completion, far
    # below the scan's margins (in normalized units)
    scanner = _SignScanner(36, MAIN_INTERVAL)
    sieve = scanner.sieve
    t = scanner.t_pad[sieve.rows]
    assert len(t) >= 2 and np.all(np.diff(t) >= engine._SIEVE_GAP)
    np.testing.assert_allclose(
        sieve.q.T @ sieve.q, np.eye(len(t)), rtol=0.0, atol=1e-14
    )
    assert np.all(sieve.rho > 0.0)
    assert np.all(sieve.rho * scanner.u_scale[sieve.rows] <= 1e-5 * mc._MARGIN_U)
    for n, kind in ((144, "full"), (10**4, "low")):
        scanner = mc._scanner(n, IntervalSpec(kind), 0.25)
        t = scanner.t_pad[scanner.sieve.rows]
        assert len(t) == engine._SIEVE_ROWS
        assert np.all(np.diff(t) >= engine._SIEVE_GAP)
        assert np.linalg.cond(scanner.sieve.l) < 100.0


def test_latent_rank_is_low_where_the_grid_is_smooth():
    assert _SignScanner(144, FULL_AXIS).rank <= 60
    assert _SignScanner(2000, LOW_INTERVAL).rank < 150
    # at n = 2000 the low interval's weights underflow for high-index columns
    assert len(_SignScanner(2000, LOW_INTERVAL).columns) < 2001
    big = _SignScanner(10**4, LOW_INTERVAL)
    assert big.rank <= 140 and len(big.columns) <= 2200


@pytest.mark.parametrize(
    "n, kind",
    [
        (2000, "low"),
        (3000, "main"),
        (10**4, "low"),
        (10**4, "high"),
        (10**4, "full"),
    ],
)
def test_pruned_columns_fit_in_the_noise_threshold(n, kind):
    # the weights outside a row's window (dropped columns included), D_j,
    # move a padded value by |D_j a| <= |D_j| |a|, far inside tau while
    # |a| <= sqrt(n+1) + 10
    scanner = _SignScanner(n, IntervalSpec(kind))
    rows = _dense_rows(scanner)[scanner.left_limit :][: len(scanner.xs)]
    logw = log_binomial_row(n)
    i = np.arange(n + 1, dtype=float)
    for x, row in zip(scanner.xs, rows):
        lt = logw + i * math.log(x)
        w = np.exp(lt - lt.max())
        tau = mc._NOISE_REL * w.sum()
        dropped = np.ones(n + 1, dtype=bool)
        dropped[scanner.columns[row != 0.0]] = False
        assert np.linalg.norm(w[dropped]) * (math.sqrt(n + 1) + 10.0) <= 1e-3 * tau


@pytest.mark.parametrize("n, kind", [(144, "full"), (10**4, "low")])
def test_scanner_factor_sign_is_canonical(n, kind, monkeypatch):
    # fixed-seed draws go through (G, V), so they must not depend on the
    # LAPACK eigensolver's sign convention (see test_gp's series version)
    scanner = _SignScanner(n, IntervalSpec(kind))
    g = scanner._g * scanner.u_scale[:, None]  # unit rows
    for driver in ("evr", "ev"):
        monkeypatch.setattr(
            np.linalg,
            "eigh",
            lambda a, UPLO="L": scipy.linalg.eigh(a, lower=UPLO == "L", driver=driver),
        )
        other = _SignScanner(n, IntervalSpec(kind))
        assert other.rank == scanner.rank
        assert np.allclose(
            other._g * other.u_scale[:, None], g, rtol=0.0, atol=1e-9
        ), driver
        assert np.allclose(other._v, scanner._v, rtol=0.0, atol=1e-5), driver


def test_escalations_are_counted():
    assert len(engine._blocks(2, 20_000)) >= 2
    one = estimate_persistence(36, MAIN_INTERVAL, 20_000, seed=2)
    two = estimate_persistence(36, MAIN_INTERVAL, 20_000, seed=2, workers=2)
    for est in (one, two):
        assert 0 < est.escalated < est.samples // 10
    assert one == two
    full = estimate_persistence(24, FULL_AXIS, 20_000, seed=2)
    assert full.escalated >= full.successes


def test_scanner_refuses_oversized_weight_rows():
    with pytest.raises(ValueError):
        _SignScanner(100_000, FULL_AXIS)


def test_splitting_score_bounds_padded_grid_minimum():
    # the score is min_j (latent u_j + margin_j), an upper bound on the exact
    # minimum of u_pad; each latent u_j is itself within one margin of the
    # exact value, so the bound is loose by at most two margins
    rng = np.random.default_rng(61)
    for n, interval in ((36, LOW_INTERVAL), (36, HIGH_INTERVAL), (2000, LOW_INTERVAL)):
        scanner = _SignScanner(n, interval)
        a = rng.standard_normal((n + 1, 50))
        _, u_pad = scanner.classify(a)
        exact = u_pad.min(axis=0)
        got = scanner.score(scanner._v @ a[scanner.columns])
        slack = 2.0 * (scanner.margin * scanner.u_scale).max()
        assert np.all(exact <= got + 1e-12)
        assert np.all(got <= exact + slack + 1e-12)


def test_splitting_final_stage_uses_scanner_verdicts(monkeypatch):
    # the final stage hands the lifted particles to _decide once; record them
    final = []

    def recording_decide(scanner, a, verdicts, u_pad):
        persistent, *counts = decide(scanner, a, verdicts, u_pad)
        final.append((a, persistent))
        return persistent, *counts

    decide = mc._decide
    monkeypatch.setattr(mc, "_decide", recording_decide)
    for kind in ("low", "high"):
        scanner = _SignScanner(36, IntervalSpec(kind))
        rep = _splitting_replicate(scanner, (71, kind == "low"), 200)
        assert rep.levels > 0
        a, persistent = final.pop()
        assert a.shape == (37, 200)
        verdicts, u_pad = scanner.classify(a)
        decided = decide(scanner, a, verdicts, u_pad)[0]
        for j in range(a.shape[1]):
            if verdicts[j] == _SignScanner.ESCALATE:
                expected = decided[j]
            else:
                expected = verdicts[j] == _SignScanner.ACCEPT
            assert persistent[j] == expected
        assert rep.successes == int(persistent.sum())


def test_splitting_overlaps_plain_mc_at_n36():
    for kind in ("low", "high"):
        split = estimate_persistence_splitting(36, kind, seed=81)
        plain = estimate_persistence(36, kind, 200_000, seed=(82, kind == "low"))
        assert split.overlaps(plain), (kind, split, plain)
        assert split.ci_low <= split.p_hat <= split.ci_high


def test_splitting_independent_of_worker_count():
    one = estimate_persistence_splitting(36, LOW_INTERVAL, replicates=3, seed=91)
    two = estimate_persistence_splitting(
        36, LOW_INTERVAL, replicates=3, seed=91, workers=2
    )
    assert one == two
    # per-replicate diagnostics add up to the totals
    assert len(one.replicate_levels) == 3 and sum(one.replicate_levels) == one.levels
    assert len(one.replicate_accept) == 3
    assert all(0.0 < a < 1.0 for a in one.replicate_accept)


def test_splitting_degenerate_interval_and_validation():
    est = estimate_persistence_splitting(1, MAIN_INTERVAL, seed=1)
    assert est.p_hat == 1.0 and est.levels == 0
    assert est.replicate_levels == (0,) * 4 and est.replicate_accept == (0.0,) * 4
    with pytest.raises(ValueError):
        estimate_persistence_splitting(36, LOW_INTERVAL, replicates=1)
    with pytest.raises(ValueError):
        estimate_persistence_splitting(0, LOW_INTERVAL)
    with pytest.raises(ValueError):
        negligible_interval_report([36], estimator="importance")
    with pytest.raises(ValueError):
        negligible_interval_report([36], samples=4000, estimator="splitting")


def test_negligible_report_splitting_rows():
    rows = negligible_interval_report([36], seed=5, estimator="splitting")
    assert {(r.n, r.kind) for r in rows} == {(36, "low"), (36, "high")}
    for r in rows:
        assert r.normalized == pytest.approx(-math.log(r.estimate.p_hat) / 6.0)
        assert r.unresolved == 0


@pytest.mark.slow
@pytest.mark.parametrize("n", [100, 1000])
def test_splitting_overlaps_plain_mc(n):
    # the gate before criterion 8 may use the splitting estimator: where
    # plain Monte Carlo resolves the edge intervals, the two agree
    plain_samples = {100: 200_000, 1000: 2_000_000}[n]
    for kind in ("low", "high"):
        split = estimate_persistence_splitting(
            n, kind, replicates=8, seed=(101, n), workers=2
        )
        plain = estimate_persistence(
            n, kind, plain_samples, seed=(102, n, kind == "low"), workers=2
        )
        assert plain.successes >= 50
        assert split.overlaps(plain), (n, kind, split, plain)


@pytest.mark.parametrize("workers", [1, 2])
def test_fixed_seed_outputs_are_pinned(workers):
    # plain-MC counts from the release that draws the sieve row by row;
    # splitting and games counts from the release before the seeded-block
    # code moved to engine.py: later changes must not change a draw
    full = estimate_persistence(144, FULL_AXIS, 400_000, seed=1441, workers=workers)
    assert (full.successes, full.escalated, full.unresolved) == (3, 5, 0)
    low = estimate_persistence(100, LOW_INTERVAL, 20_000, seed=1001, workers=workers)
    assert (low.successes, low.escalated, low.unresolved) == (354, 77, 0)
    split = estimate_persistence_splitting(
        36, LOW_INTERVAL, replicates=2, seed=36, workers=workers
    )
    assert split.replicate_levels == (26, 25)
    assert (split.successes, split.unresolved) == (951, 0)
    assert split.replicate_p == pytest.approx(
        (0.06433830481613889, 0.06489797808734345), rel=1e-12
    )
    game = prob_no_internal_equilibria(5, 20_000, seed=55, workers=workers)
    assert (game.successes, game.escalated) == (4409, 4419)
    # every lifted game and full-axis sample here gets a certified verdict
    assert (full.exact, game.exact) == (0, 0)
    # counts from the release that decided every lifted game in Fractions:
    # the certified float verdicts must not change one of them
    games = {
        players: prob_no_internal_equilibria(
            players, samples, seed=players, workers=workers
        )
        for players, samples in ((2, 20_000), (3, 20_000), (11, 20_000), (51, 100_000))
    }
    assert {p: (g.successes, g.escalated) for p, g in games.items()} == {
        2: (9977, 9977),
        3: (7439, 7450),
        11: (1570, 1582),
        51: (202, 205),
    }


def test_benchmark_game_calls_are_pinned():
    # (successes, escalated, exact) of the game benchmark's own call,
    # prob_no_internal_equilibria(p, 10^4, seed=(1, i, p)), from the release
    # before the certificate and the lift gathered contiguous column blocks
    pinned = {
        2: [(4978, 4978, 0), (5064, 5064, 0), (4990, 4990, 0)],
        3: [(3700, 3702, 0), (3729, 3736, 0), (3699, 3701, 0)],
        4: [(2761, 2768, 0), (2806, 2811, 0), (2814, 2823, 0)],
        5: [(2240, 2249, 0), (2220, 2225, 0), (2267, 2272, 0)],
    }
    for players, counts in pinned.items():
        for i, expected in enumerate(counts):
            est = prob_no_internal_equilibria(players, 10_000, seed=(1, i, players))
            assert (est.successes, est.escalated, est.exact) == expected, (players, i)


def test_restricted_exact_decisions_are_pinned():
    # counts from the release that decided restricted-interval samples with
    # a Sturm chain count and a probe (seed 7 lifts a sample whose chain
    # takes seconds): is_persistent's verdicts must not change one of them
    low = estimate_persistence(100, LOW_INTERVAL, 20_000, seed=7)
    assert (low.successes, low.escalated, low.unresolved) == (359, 91, 0)
    # the one lifted sample that batched refinement leaves undecided
    assert low.exact == 1


def _unsieved_successes(scanner, samples, seed):
    """Persistent samples of the sampler without the sieve: full-rank xi,
    the latent scan, then the lifted columns through classify and _decide,
    drawn in chunks."""
    rng = np.random.default_rng(seed)
    hits = 0
    for lo in range(0, samples, 100_000):
        xi = rng.standard_normal((scanner.rank, min(100_000, samples - lo)))
        verdicts = scanner.scan(xi)
        hits += int(np.count_nonzero(verdicts == _SignScanner.ACCEPT))
        lifted = np.flatnonzero(verdicts == _SignScanner.ESCALATE)
        z = rng.standard_normal((scanner.n + 1, len(lifted)))
        a = scanner.lift(xi[:, lifted], z)
        hits += int(np.count_nonzero(mc._decide(scanner, a, *scanner.classify(a))[0]))
    return hits


@pytest.mark.slow
def test_sieved_persistence_matches_unsieved_reference():
    # two-sample z on 10^6 samples each; |z| < 4 is a two-sided alpha of
    # 6.3e-5, and it detects a relative bias in p (about 0.018) of about 4%.
    # About 10 s: each side settles some 4000 lifted samples one by one
    samples = 1_000_000
    est = estimate_persistence(100, LOW_INTERVAL, samples, seed=1002)
    ref = _unsieved_successes(mc._scanner(100, LOW_INTERVAL, 0.25), samples, 1003)
    pooled = (est.successes + ref) / (2 * samples)
    z = (est.successes - ref) / math.sqrt(2 * samples * pooled * (1 - pooled))
    assert abs(z) < 4.0, (est.successes, ref, z)


def test_full_axis_decide_sends_undecided_columns_to_exact_check():
    # a_0 = 0 leaves the Bernstein certificate undecided, so those two
    # columns reach is_persistent; the others get certified verdicts
    a = np.array(
        [
            [0.0, 0.0, 1.0, -1.0, 1.0],
            [1.0, -1.0, 1.0, -1.0, -3.0],
            [1.0, 1.0, 1.0, -1.0, 1.0],
            [1.0, 1.0, 1.0, -1.0, 1.0],
            [1.0, 1.0, 1.0, -1.0, 1.0],
        ]
    )
    verdicts = np.full(a.shape[1], _SignScanner.ESCALATE, dtype=np.int8)
    persistent, unresolved, exact = mc._decide(
        _SignScanner(4, FULL_AXIS), a, verdicts, None
    )
    expected = [is_persistent(BinomialPolynomial(4, a[:, j])) for j in range(5)]
    assert persistent.tolist() == expected == [True, False, True, False, False]
    assert (unresolved, exact) == (0, 2)


@pytest.mark.parametrize(
    "n, kind",
    [
        (1, "full"),
        (2, "full"),
        (3, "full"),
        (4, "full"),
        (10, "full"),
        (50, "full"),
        (144, "full"),
        (100, "low"),
    ],
)
def test_lift_does_not_depend_on_the_gather(n, kind):
    # games and plain Monte Carlo lift xi.take(lifted, axis=1), a C-ordered
    # block, where xi[:, lifted] comes back in Fortran order: every entry
    # of the lift must be the same float either way
    scanner = mc._scanner(n, IntervalSpec(kind), 0.25)
    rng = np.random.default_rng(n)
    xi = rng.standard_normal((scanner.rank, 5000))
    lifted = np.flatnonzero(rng.random(5000) < 0.4)
    z = rng.standard_normal((n + 1, len(lifted)))
    fancy = scanner.lift(xi[:, lifted], z)
    taken = scanner.lift(xi.take(lifted, axis=1), z)
    assert list(map(float.hex, fancy.ravel())) == list(map(float.hex, taken.ravel()))


def test_cached_scanner_is_read_only():
    scanner = mc._scanner(36, LOW_INTERVAL, 0.25)
    assert mc._scanner(36, LOW_INTERVAL, 0.25) is scanner
    with pytest.raises(ValueError):
        scanner._row_blocks[0][2][0, 0] = 0.0
    names = ("ts", "xs", "t_pad", "columns", "u_scale", "_g", "_v", "margin")
    for name in names:
        assert not getattr(scanner, name).flags.writeable, name
    for _, _, block in scanner._row_blocks:
        assert not block.flags.writeable
    for name in ("rows", "l", "q", "rho", "thr"):
        assert not getattr(scanner.sieve, name).flags.writeable, name


def test_kept_cache_evicts_least_recently_used():
    built = []

    @engine._kept(3 * np.zeros(10).nbytes)
    def build(k):
        built.append(k)
        return np.zeros(10)

    for k in (0, 1, 2, 0, 3):  # 3 evicts 1, the least recently used
        build(k)
    for k in (0, 2, 1):  # 1 is rebuilt and evicts 3
        build(k)
    assert built == [0, 1, 2, 3, 1]
    assert engine._nbytes((np.zeros(3), [np.zeros(2)], None)) == 40


def test_scanner_cache_keeps_small_scanners_until_a_large_one():
    # a game sweep's scanners stay cached together; a scanner over the byte
    # budget evicts them all and is kept alone
    mc._scanner.cache_clear()
    small = {n: mc._scanner(n, FULL_AXIS, 0.25) for n in (1, 2, 3, 4)}
    assert all(mc._scanner(n, FULL_AXIS, 0.25) is s for n, s in small.items())
    large = mc._scanner(3000, FULL_AXIS, 0.25)
    assert engine._nbytes(large) > mc._SCANNER_CACHE_BYTES
    assert mc._scanner(3000, FULL_AXIS, 0.25) is large
    assert all(mc._scanner(n, FULL_AXIS, 0.25) is not s for n, s in small.items())
    mc._scanner.cache_clear()


COLD_WARM_CALLS = {
    "full-144": lambda w: estimate_persistence(144, FULL_AXIS, 20_000, 7, w),
    "low-100": lambda w: estimate_persistence(100, LOW_INTERVAL, 20_000, 7, w),
    "game-4": lambda w: prob_no_internal_equilibria(4, 20_000, 7, w),
    "split-low-36": lambda w: estimate_persistence_splitting(
        36, LOW_INTERVAL, replicates=2, seed=7, workers=w
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(COLD_WARM_CALLS))
def test_cold_and_warm_calls_agree(name, workers):
    # a fresh pool forks from a process with an empty cache, so its workers
    # start cold too
    mc._scanner.cache_clear()
    engine._drop_pool()
    call = COLD_WARM_CALLS[name]
    assert call(workers) == call(workers)


def test_pool_is_kept_across_calls():
    one = estimate_persistence(16, FULL_AXIS, 20_000, seed=8, workers=2)
    pool = engine._pool(2)
    pids = set(pool._processes)
    assert estimate_persistence(16, FULL_AXIS, 20_000, seed=8, workers=2) == one
    assert engine._pool(2) is pool
    assert set(pool._processes) == pids


def test_broken_pool_recovers():
    def call(workers):
        return estimate_persistence(36, MAIN_INTERVAL, 20_000, seed=9, workers=workers)

    call(2)
    pool = engine._pool(2)
    pid = next(iter(pool._processes))
    # kill only a worker this process started
    assert pid in {child.pid for child in multiprocessing.active_children()}
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert call(2) == call(1)
    assert engine._pool(2) is not pool


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # an exited process its (new) parent has not reaped yet is a zombie
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return not Path("/proc/self").exists()


def _env() -> dict:
    """This environment, with this checkout's persistlab first on the path."""
    src = str(Path(mc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_pool_forks_whatever_the_default_start_method():
    # from Python 3.14 the default start method on Linux is forkserver,
    # whose workers are not children of the caller; the pool forks anyway
    if not sys.platform.startswith("linux"):
        pytest.skip("the pool forks only on Linux")
    code = (
        "import multiprocessing\n"
        "multiprocessing.set_start_method('forkserver')\n"
        "from persistlab import engine, mc\n"
        "def call(workers):\n"
        "    return mc.estimate_persistence(\n"
        "        16, mc.FULL_AXIS, 20_000, seed=1, workers=workers\n"
        "    )\n"
        "assert call(2) == call(1)\n"
        "print(engine._pool(2)._mp_context.get_start_method())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.split() == ["fork"]


def test_pool_workers_exit_with_their_interpreter():
    code = (
        "from persistlab import engine, mc\n"
        "mc.estimate_persistence(16, mc.FULL_AXIS, 20_000, seed=1, workers=2)\n"
        "print(*engine._pool(2)._processes)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    alive = [int(pid) for pid in out.stdout.split()]
    assert len(alive) == 2
    try:
        deadline = time.monotonic() + 10.0
        while alive and time.monotonic() < deadline:
            alive = [pid for pid in alive if _running(pid)]
            time.sleep(0.05)
        assert not alive
    finally:
        for pid in alive:
            os.kill(pid, signal.SIGKILL)


def test_pool_workers_exit_when_their_caller_is_killed():
    # a caller killed by a signal runs no exit hook; its kept workers get
    # SIGTERM from the kernel (PR_SET_PDEATHSIG) instead
    if not sys.platform.startswith("linux"):
        pytest.skip("PR_SET_PDEATHSIG is Linux-only")
    code = (
        "from persistlab import engine, mc\n"
        "mc.estimate_persistence(16, mc.FULL_AXIS, 20_000, seed=1, workers=2)\n"
        "print(*engine._pool(2)._processes, flush=True)\n"
        "while True:\n"
        "    mc.estimate_persistence(16, mc.FULL_AXIS, 200_000, seed=2, workers=2)\n"
    )
    caller = subprocess.Popen(
        [sys.executable, "-c", code], env=_env(), stdout=subprocess.PIPE, text=True
    )
    alive = []
    try:
        alive = [int(pid) for pid in caller.stdout.readline().split()]
        assert len(alive) == 2
        time.sleep(0.5)  # inside a pooled call
        caller.kill()
        caller.wait(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while alive and time.monotonic() < deadline:
            alive = [pid for pid in alive if _running(pid)]
            time.sleep(0.05)
        assert not alive
    finally:
        caller.kill()
        caller.wait(timeout=10.0)
        caller.stdout.close()
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
