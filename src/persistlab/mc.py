"""Monte Carlo persistence estimates for the weighted random polynomial family.

Per-sample decisions:

* full positive axis: exact.  A vectorized sign scan over the time grid
  rejects samples with a certifiably negative value (threshold far above
  float cancellation noise); everything else is decided by the certified
  Bernstein bisection roots.bernstein_verdicts, and the few samples it
  leaves undecided by the exact integer check, so a True verdict is always
  exact.
* restricted intervals (low / high / main): statistical with guards.  The
  time-grid step resolves the O(1) correlation scale; grid-positive samples
  are accepted once every cell clears a conditional-dip threshold, the other
  escalated samples' cells are bisected in one batch (_refine), and the few
  left undecided escalate to the exact roots.is_persistent(p, lo, hi)
  (conservative reject above the exact-degree cutoff, counted in `unresolved`).

The scan runs in a latent space.  On the t-grid the normalized polynomial is
close to a smooth stationary process (kernel e^(-tau^2/4)), so the Gram
matrix of the normalized grid rows is close to that process's grid
covariance, whose spectrum falls like e^(-w^2): each process factors the
rows once per (n, interval, step) from that Gram matrix (_scanner;
engine.latent_factor: one eigh, no SVD), each row held as its window of
about 6 sqrt(n) columns, and keeps rank r,
r = 56 of 145 columns at n = 144 (full axis), 148 of 1001 at
n = 1000 (full axis), 134 of the 2108 columns that carry weight at n = 10^4
(low interval).  A sample is then r normals xi, scanned through an r-column
factor with thresholds widened by each row's Gaussian residual margin; only
the samples the scan cannot settle are lifted to an exactly N(0, I)
coefficient vector and decided by the coefficient-space scan and the exact
checks above.  A latent reject or accept differs from the coefficient-space
verdict on the lift only with probability below e^-50 per sample (see
_SignScanner).

Rare events (p far below 1e-6, as on the edge intervals at n = 10^4) use
adaptive multilevel splitting on the latent scan score with pCN moves
(estimate_persistence_splitting); its final stage makes the same per-sample
decisions as above.

Plain Monte Carlo draws each block in two stages: the values at about ten
padded rows far apart in t first, which reject almost every sample, then the
rest of the latent vector for the survivors only (engine.Sieve); the
completed vectors are N(0, I_r), so the scan and every verdict after it are
unchanged.

Determinism: plain Monte Carlo (and games) draw in blocks of
engine._BATCH samples, block b seeded from SeedSequence(seed).spawn(B)[b],
and splitting replicate r from (seed, n, interval, r).  A plain-MC block
draws the sieve normals eta row by row (row j for the columns rows 0..j-1
kept), then w for the sieve's survivors, then z for the columns the scan
lifts.  Up to engine._GROUP consecutive blocks form one unit, decided in
one vectorized pass (_persistence_block): each block still draws from its
own generator the same normals in the same order as alone, and every
verdict is per column, so the unit's counts are its blocks' sums.  Workers
take contiguous ranges of these units and results are summed in unit order
(engine._run_units), so every estimate is reproducible bit-for-bit from
the seed alone, at any worker count.
Workers are forked (on Linux, whatever the default start method) once per
process and reused by later calls (engine._pool); they keep the module state
they were forked with, so a monkeypatch of this module made after the first
pooled call does not reach them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (
    Sieve,
    _blocks,
    _columns,
    _derive_seed,
    _group,
    _kept,
    _run_units,
    latent_factor,
)
from .kernel import alpha_shift, autocorr_limit_gap, main_window_width, transform_x
from .logscale import log_binomial_row
from .polys import BinomialPolynomial
from .roots import bernstein_verdicts, is_persistent
from .stats import PersistenceEstimate, SplittingEstimate
from .kernel import mn_exact  # noqa: F401  (perfbench traces it here by name)
from .polys import eval_f  # noqa: F401  (perfbench traces it here by name)
from .roots import count_roots_in  # noqa: F401  (perfbench traces it here by name)

__all__ = [
    "IntervalSpec",
    "FULL_AXIS",
    "LOW_INTERVAL",
    "HIGH_INTERVAL",
    "MAIN_INTERVAL",
    "estimate_persistence",
    "estimate_persistence_splitting",
    "auto_budget",
    "RatioPoint",
    "ratio_sequence",
    "IntervalReportRow",
    "negligible_interval_report",
    "AutocorrGapRow",
    "autocorr_convergence_report",
]

_KINDS = ("full", "low", "high", "main")

# scan tuning; part of the determinism contract for a given release
_NOISE_REL = 1e-10  # definite-sign threshold relative to the row weight mass
_AMBIG_NORMALIZED = 1e-9  # normalized |value| below this is unresolvable in float
_DIP_GUARD = 12.0  # clearance in units of the conditional in-cell sd
_REFINE_DEPTH = 6
_EXACT_FALLBACK_MAX_DEGREE = 128
# largest rows x (n + 1) a scanner builds: no such array is formed, but it
# bounds the windows (rows x width), the lift basis (rank x columns) and
# classify()'s dense row blocks
_W_MAX_ELEMENTS = 15_000_000
_MARGIN_U = 1e-4  # largest latent row residual margin, in normalized units
_PRUNE_REL = 1e-16  # columns below this fraction of every row's peak weight drop
_FLOAT_SLACK = 1e-3  # tau units; covers the rounding of the scan and the lift
_ROW_BLOCK = 64  # padded rows per dense block of a scanner's rows
# bytes of scanner arrays _scanner keeps: all of a game sweep's scanners,
# but a full-axis scanner from n ~ 2350 on (11 MiB at n = 3000) alone
_SCANNER_CACHE_BYTES = 8 * 2**20


@dataclass(frozen=True)
class IntervalSpec:
    """Evaluation interval: the full positive axis or one of the pieces
    (0, n^-1/6), (n^1/6, inf), (n^-1/6, n^1/6); endpoints are computed from
    n at use time."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")

    def x_range(self, n: int) -> tuple[float, float]:
        edge = n ** (-1.0 / 6.0) if n >= 1 else 1.0
        if self.kind == "full":
            return 0.0, math.inf
        if self.kind == "low":
            return 0.0, edge
        if self.kind == "high":
            return 1.0 / edge, math.inf
        return edge, 1.0 / edge

    def t_range(self, n: int) -> tuple[float, float]:
        span = math.pi * math.sqrt(n)
        if self.kind == "full":
            return 0.0, span
        alpha = alpha_shift(n)
        if self.kind == "low":
            return 0.0, alpha
        if self.kind == "high":
            return span - alpha, span
        return alpha, span - alpha


FULL_AXIS = IntervalSpec("full")
LOW_INTERVAL = IntervalSpec("low")
HIGH_INTERVAL = IntervalSpec("high")
MAIN_INTERVAL = IntervalSpec("main")


def _coerce_interval(interval) -> IntervalSpec:
    if isinstance(interval, IntervalSpec):
        return interval
    return IntervalSpec(str(interval))


def _conditional_dip_sd(step: float) -> float:
    """Sd of the in-cell midpoint around its conditional mean for the limiting
    unit kernel e^(-tau^2/4); the clearance thresholds scale from this."""
    r_half = math.exp(-0.25 * (step / 2.0) ** 2)
    r_full = math.exp(-0.25 * step * step)
    var = 1.0 - 2.0 * r_half * r_half / (1.0 + r_full)
    return math.sqrt(max(var, 0.0))


def _clearance(step: float) -> float:
    return _DIP_GUARD * _conditional_dip_sd(step)


def _dense_blocks(win: np.ndarray, off: np.ndarray) -> tuple:
    """Rows given as windows, row j being win[j] on the kept columns
    off[j] : off[j] + width, as dense blocks of _ROW_BLOCK rows, each over
    the kept columns its windows span: a tuple of (rows, first column,
    block)."""
    width = win.shape[1]
    blocks = []
    for lo in range(0, len(win), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        part, start = win[rows], off[rows]
        first = int(start.min())
        span = int(start.max()) - first + width
        block = np.zeros((len(part), span))
        start = np.arange(len(part)) * span + start - first
        block.reshape(-1)[start[:, None] + np.arange(width)] = part
        blocks.append((rows, first, block))
    return tuple(blocks)


def _weight_windows(n: int, xs: np.ndarray):
    """Each grid row's window, the columns lo_j..hi_j where the weight
    C(n, i) x_j^i is at least _PRUNE_REL of the row's peak, and logw with
    logw(cols) the log of that weight over the peak at the columns cols
    (rows x k).  The log-weight is concave in i, so the window is one
    interval around the peak (n + 1) x_j / (1 + x_j), and its ends are
    found by bisection without evaluating the whole row."""
    lbr = log_binomial_row(n)
    logx = np.log(xs)[:, None]
    peak = np.clip(np.floor((n + 1) * xs / (1.0 + xs)).astype(int), 0, n)
    near = np.clip(peak[:, None] + np.arange(-2, 3), 0, n)
    top = (logx * near + lbr[near]).max(axis=1, keepdims=True)

    def logw(cols):
        return logx * cols + lbr[cols] - top

    def inside(cols):
        return np.exp(logw(cols[:, None])[:, 0]) >= _PRUNE_REL

    def bisect(true, false):
        # the weight is at least _PRUNE_REL at true and below it at false
        while np.any(np.abs(false - true) > 1):
            mid = (true + false) // 2
            ok = inside(mid)
            true, false = np.where(ok, mid, true), np.where(ok, false, mid)
        return true

    first, last = np.zeros_like(peak), np.full_like(peak, n)
    lo = np.where(inside(first), first, bisect(peak, first))
    hi = np.where(inside(last), last, bisect(peak, last))
    return lo, hi, logw


class _SignScanner:
    """Precomputed normalized weight rows over a t-grid for one (n, interval).

    classify() maps a batch of coefficient vectors to verdicts
    -1 (certifiably nonpositive somewhere), +1 (positive with clearance,
    restricted intervals only), 0 (escalated, for _decide).

    scan() gives the same verdicts from latent vectors xi ~ N(0, I_r).  The
    padded rows of classify() (limit rows first and last, each in units of
    its threshold tau, so -1 and 1 are the reject and ambiguity thresholds)
    form the matrix W~ over the kept columns.  Each row weighs on a window
    of about 6 sqrt(n) consecutive columns (a limit row's window has one
    nonzero entry), so W~ is kept as _row_blocks, dense blocks of
    _ROW_BLOCK rows over the kept columns their windows span, built once;
    no rows x (n + 1) array is formed.  latent_factor factors W~ in normalized
    (u) units, where every row has unit norm, from its Gram matrix:
    W~ = G V + E with orthonormal rows V and E V^T = 0 up to rounding.  A
    lifted vector a (see lift) has a[columns] = z_c +
    V^T (xi - V z_c), so its padded values are G xi + E_j a[columns] with
    E_j a[columns] = E_j z_c, a N(0, |E_j|^2) draw independent of xi (of any
    law of xi, so it holds for splitting's particles too).  The row margin
    is margin_j = c |E_j| + l_j + _FLOAT_SLACK with c = sqrt(2 (50 + ln R))
    over the R padded rows (c = 10.5 at R = 152, 10.6 at R = 349), and a
    union bound gives
    P(some |E_j z_c| > c |E_j|) <= R e^(-c^2/2) = e^-50.  E V^T is zero
    only up to rounding, and it meets the lift through E V^T (xi - V z_c)
    with |xi - V z_c| <= 2 sqrt(r) + 20 (outside a further e^-50 event for
    Gaussian xi), so each row's margin carries l_j = |E_j V^T| (2 sqrt(r) +
    20), measured at build (at most 1.0e-3 tau at n = 3000 and 10^4 on the
    full axis, r = 256 and 466, set by the rows at the ends of the axis,
    whose tau is about 1e-10 u); the scan's and
    the lift's rounding stay within _FLOAT_SLACK.  Outside these events a
    latent reject (some row below -(1 + margin_j)) is a classify() reject
    of the lift, and a latent accept (every row clears kappa by margin_j and
    none is within 1 + margin_j of zero) is a classify() accept.  r is the
    smallest rank with every c |E_j| at most _MARGIN_U = 1e-4 in u units,
    0.15% of the clearance kappa = 0.066, so the widened thresholds move
    almost no sample.

    A row's window holds the columns where its weight is at least
    _PRUNE_REL = 1e-16 of its peak; the weight is log-concave in the column,
    so they are consecutive.  Columns outside every window are dropped from
    classify() and the factor.  The part D_j of a row outside its window
    moves its value by |D_j a| <= 1e-16 max_j sqrt(n+1) |a| against
    tau_j >= 1e-10 max_j.  Measured over n = 36 to 10^4 on all four
    intervals, |D_j| (sqrt(n+1) + 10) is at most 9.9e-5 tau_j (n = 10^4,
    full axis), so while |a| <= sqrt(n+1) + 10 (probability 1 - e^-50) it
    stays far inside the threshold's cushion and every classify() verdict
    holds for the full row.  At n = 10^4 (low interval) 2108 of the 3383
    columns with a nonzero weight remain, and a row's window is at most 655
    columns; on the full axis no column drops, and a window is at most 858
    of the 10001 columns.

    On the same event, a latent sign change (sign_change: some row below
    -(1 + margin_j) and some row above 1 + margin_k) puts one padded value
    of the lift below -1 and another above 1, so the polynomial takes both
    signs on the interval (a limit row gives the sign of a_0 at 0+ or of a_n
    at infinity) and has a root there.  The rule reads no sign off a_0 in
    advance, so it holds even when a_0 lies within its own band.

    Plain Monte Carlo draws xi in two stages on sieve, an engine.Sieve over
    the padded rows whose base thresholds are 1 + margin_j, so a sieve
    reject is a scan() reject of the completed xi.
    """

    REJECT = -1
    ACCEPT = 1
    ESCALATE = 0

    def __init__(self, n: int, interval: IntervalSpec, step: float = 0.25):
        if n < 1:
            raise ValueError("scanner requires n >= 1")
        if not 0.0 < step <= 0.25:
            raise ValueError("step must lie in (0, 0.25]")
        self.n = n
        self.interval = interval
        self.step = step

        span = math.pi * math.sqrt(n)
        t_lo, t_hi = interval.t_range(n)
        self.degenerate = t_hi <= t_lo
        self.left_limit = interval.kind in ("full", "low")  # f(0+) -> a_0
        self.right_limit = interval.kind in ("full", "high")  # sign a_n at inf
        if self.degenerate:
            return

        ts = [t_lo + step * k for k in range(int((t_hi - t_lo) / step + 1e-9) + 1)]
        if t_hi - ts[-1] > 1e-9 * max(1.0, t_hi):
            ts.append(t_hi)
        ts = [t for t in ts if 1e-12 < t < span * (1.0 - 1e-15)]
        self.ts = np.array(ts)
        self.xs = np.array([transform_x(t, n) for t in ts])
        # padded t sequence including the limit pseudo-points, for cell checks;
        # rows and pad entries stay in one-to-one order with classify()'s u_pad
        pad = list(ts)
        if self.left_limit:
            pad = [t_lo] + pad
        if self.right_limit:
            pad = pad + [t_hi]
        self.t_pad = np.array(pad)

        rows = len(self.xs)
        if rows * (n + 1) > _W_MAX_ELEMENTS:
            raise ValueError(
                f"the scanner's weight rows ({rows} x {n + 1}) exceed "
                f"{_W_MAX_ELEMENTS} elements"
            )
        # w[j, i] = C(n, i) x_j^i / (its row peak) on row j's window, the
        # columns where it is at least _PRUNE_REL; zero elsewhere
        lo, hi, logw = _weight_windows(n, self.xs)
        # the coefficients some row (or limit point) depends on: the union
        # of the windows
        cover = np.zeros(n + 2, dtype=int)
        np.add.at(cover, lo, 1)
        np.add.at(cover, hi + 1, -1)
        keep = np.cumsum(cover[:-1]) > 0
        keep[0] |= self.left_limit
        keep[-1] |= self.right_limit
        self.columns = np.flatnonzero(keep)
        # each row's window is consecutive among the kept columns; all rows
        # get one width, their offsets clipped to fit
        width = int((hi - lo).max()) + 1
        last = len(self.columns) - width
        off = np.minimum(np.searchsorted(self.columns, lo), last)
        cols = self.columns[off[:, None] + np.arange(width)]
        inside = (cols >= lo[:, None]) & (cols <= hi[:, None])
        w = np.zeros(cols.shape)
        np.exp(logw(cols), out=w, where=inside)
        # M(x_j) = e^(2 m_j) |w_j|^2, so a row's sd in normalized units is
        # 1 / |w_j|; its threshold tau_j comes from the row mass
        tau = _NOISE_REL * w.sum(axis=1)
        inv_sd = 1.0 / np.linalg.norm(w, axis=1)
        self.kappa = _clearance(step)
        # the padded rows in tau units, limit rows first and last as
        # one-column windows (a limit row's mass is 1, so its tau is
        # _NOISE_REL); u_scale takes them to normalized units
        w /= tau[:, None]
        limit = np.zeros((1, width))
        limit[0, 0] = 1.0 / _NOISE_REL
        windows, offsets, scale = [w], [off], [tau * inv_sd]
        if self.left_limit:
            windows.insert(0, limit)
            offsets.insert(0, [0])
            scale.insert(0, [_NOISE_REL])
        if self.right_limit:
            windows.append(limit[:, ::-1])
            offsets.append([last])
            scale.append([_NOISE_REL])
        self.u_scale = np.concatenate(scale)
        self._row_blocks = _dense_blocks(np.vstack(windows), np.concatenate(offsets))
        self._factor()
        self.sieve = Sieve(self._g, self.t_pad, 1.0 + self.margin)
        # _scanner shares one scanner among all later calls: freeze it
        arrays = [block for _, _, block in self._row_blocks]
        for value in arrays + list(vars(self).values()):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def _factor(self) -> None:
        """Rank-r factor of the padded rows (see the class docstring): sets
        rank, the factor _g (padded rows x r, tau units), the lift basis _v
        (r x columns) and margin (tau units).  The rows are factored in u
        units, where each has unit norm, from copies of the dense row
        blocks (_row_blocks) scaled by u_scale: the Gram matrix from the
        pairs of blocks whose spans overlap (the other row pairs share no
        column), and the products with the rows block by block."""
        size = len(self.u_scale)
        blocks = [
            (rows, first, block * self.u_scale[rows, None])
            for rows, first, block in self._row_blocks
        ]
        gram = np.zeros((size, size))
        for k, (rows, first, block) in enumerate(blocks):
            for rows2, first2, block2 in blocks[k:]:
                lo = max(first, first2)
                hi = min(first + block.shape[1], first2 + block2.shape[1])
                if lo < hi:
                    part = block[:, lo - first : hi - first]
                    part2 = block2[:, lo - first2 : hi - first2]
                    gram[rows, rows2] = part @ part2.T
                    gram[rows2, rows] = gram[rows, rows2].T

        def left(c):
            out = np.zeros((len(c), len(self.columns)))
            for rows, first, block in blocks:
                out[:, first : first + block.shape[1]] += c[:, rows] @ block
            return out

        def right(b):
            return np.vstack(
                [block @ b[lo : lo + block.shape[1]] for _, lo, block in blocks]
            )

        c = math.sqrt(2.0 * (50.0 + math.log(size)))
        g, self._v = latent_factor(gram, left, right, _MARGIN_U, c)
        del blocks  # free the u-unit blocks before the residual's
        self._g = g / self.u_scale[:, None]
        self.rank = self._g.shape[1]
        # the residual E = W~ - G V of a block of rows at a time
        norm = np.empty(size)
        leak = np.empty(size)
        for rows, first, block in self._row_blocks:
            residual = -(self._g[rows] @ self._v)
            residual[:, first : first + block.shape[1]] += block
            norm[rows] = np.linalg.norm(residual, axis=1)
            leak[rows] = np.linalg.norm(residual @ self._v.T, axis=1)
        self.margin = (
            c * norm + leak * (2.0 * math.sqrt(self.rank) + 20.0) + _FLOAT_SLACK
        )

    # -- batched classification --

    def _padded(self, a: np.ndarray) -> np.ndarray:
        """The padded rows (tau units) times a batch of coefficient columns,
        one dense block of rows at a time (_row_blocks).  Most batches are
        empty (no sample of a unit lifted), and those form no product."""
        if a.shape[1] == 0:
            return np.zeros((len(self.u_scale), 0))
        ac = a[self.columns]
        return np.vstack(
            [b @ ac[lo : lo + b.shape[1]] for _, lo, b in self._row_blocks]
        )

    def classify(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Verdicts for a batch of coefficient columns, plus the padded
        normalized value matrix (None when the interval is degenerate)."""
        b = a.shape[1]
        if self.degenerate:
            return np.full(b, self.ACCEPT, dtype=np.int8), None
        v = self._padded(a)
        negdef = (v < -1.0).any(axis=0)
        ambig = (np.abs(v) <= 1.0).any(axis=0)
        u_pad = v * self.u_scale[:, None]

        verdicts = np.full(b, self.ESCALATE, dtype=np.int8)
        verdicts[negdef] = self.REJECT
        if self.interval.kind != "full":
            cleared = (
                np.minimum(u_pad[:-1], u_pad[1:]) >= self.kappa
            ).all(axis=0)
            verdicts[cleared & ~negdef & ~ambig] = self.ACCEPT
        return verdicts, u_pad

    def scan(self, xi: np.ndarray) -> np.ndarray:
        """classify()'s verdicts for the lifts of a batch of latent columns
        (rank, B), up to probability e^-50 per column; ESCALATE columns have
        to be lifted and classified.  The interval must not be degenerate."""
        y = self._g @ xi
        verdicts = np.full(xi.shape[1], self.ESCALATE, dtype=np.int8)
        verdicts[(y < -1.0 - self.margin[:, None]).any(axis=0)] = self.REJECT
        if self.interval.kind != "full":
            # a row at or above margin_j + kappa / u_scale_j clears kappa in
            # u units, and kappa / u_scale_j >> 1 (u_scale_j is at most
            # 1e-10 sqrt(n+1)) puts it far above its band 1 + margin_j, so a
            # column with every row there is classify()'s accept
            clear = self.margin + self.kappa / self.u_scale
            verdicts[(y >= clear[:, None]).all(axis=0)] = self.ACCEPT
        return verdicts

    def sign_change(self, xi: np.ndarray) -> np.ndarray:
        """Per latent column (rank, B): whether its lift certifiably takes
        both signs on the interval, so has a root in it, up to probability
        e^-50 per column.  The interval must not be degenerate."""
        y = self._g @ xi
        band = 1.0 + self.margin[:, None]
        return (y < -band).any(axis=0) & (y > band).any(axis=0)

    def score(self, xi: np.ndarray) -> np.ndarray:
        """Upper bound on the minimum of classify()'s u_pad over the lifts of
        each latent column (up to probability e^-50), so a column whose lift
        persists scores above zero.  The interval must not be degenerate."""
        y = self._g @ xi + self.margin[:, None]
        return (y * self.u_scale[:, None]).min(axis=0)

    def lift(self, xi: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Coefficient columns a with V a[columns] = xi: a[columns] =
        V^T xi + (I - V^T V) z[columns], a = z elsewhere.  With xi ~ N(0, I_r)
        and z ~ N(0, I_(n+1)) independent, a is exactly N(0, I_(n+1))."""
        a = z.copy()
        zc = z[self.columns]
        a[self.columns] = zc + self._v.T @ (xi - self._v @ zc)
        return a


def _u_at(n: int, ts: np.ndarray, a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """u = f(x) / sqrt(M(x)) at x = x(ts[k]) for the coefficient column
    a[:, cols[k]], for each pair k, with 0 < ts[k] < pi sqrt(n): the
    windowed dot product of _weight_windows's row at x with the column over
    the window's norm, which differs from f / sqrt(M) by the weights below
    _PRUNE_REL that _SignScanner bounds."""
    times, row = np.unique(ts, return_inverse=True)
    lo, hi, logw = _weight_windows(n, np.array([transform_x(t, n) for t in times]))
    width = int((hi - lo).max()) + 1
    index = np.minimum(lo, n + 1 - width)[:, None] + np.arange(width)
    w = np.zeros(index.shape)
    np.exp(logw(index), out=w, where=(index >= lo[:, None]) & (index <= hi[:, None]))
    w /= np.linalg.norm(w, axis=1)[:, None]
    return np.einsum("kw,kw->k", w[row], a[index[row], cols[:, None]])


def _refine(scanner: _SignScanner, a: np.ndarray, u_pad: np.ndarray) -> np.ndarray:
    """Verdict per coefficient column of a on a restricted interval from its
    padded values u_pad (classify()): -1 (not persistent) when an end of a
    cell is below -_AMBIG_NORMALIZED, else 0 (for the exact check) when one
    is within _AMBIG_NORMALIZED of zero or a cell stays open after
    _REFINE_DEPTH bisections, else +1.  A cell closes once both ends clear
    the conditional-dip threshold of its width; every open (column, cell)
    pair of a level is split at its midpoint in one pass."""
    t = scanner.t_pad
    b = a.shape[1]
    col = np.repeat(np.arange(b), len(t) - 1)
    t0, t1 = np.tile(t[:-1], b), np.tile(t[1:], b)
    u0, u1 = u_pad[:-1].T.ravel(), u_pad[1:].T.ravel()
    rejected = np.zeros(b, dtype=bool)
    undecided = np.zeros(b, dtype=bool)
    for depth in range(_REFINE_DEPTH, -1, -1):
        low = np.minimum(u0, u1)
        rejected[col[low < -_AMBIG_NORMALIZED]] = True
        # an end near zero, or a rejected pair (its column gets -1 anyway)
        ambiguous = low <= _AMBIG_NORMALIZED
        undecided[col[ambiguous]] = True
        # _clearance's scalar floats, one call per distinct width
        widths, which = np.unique(t1 - t0, return_inverse=True)
        clear = np.array([_clearance(float(w)) for w in widths])[which]
        split = np.flatnonzero(~ambiguous & (low < clear) & ~rejected[col])
        if depth == 0 or split.size == 0:
            undecided[col[split]] = True  # pairs open at the last level
            break
        tm = 0.5 * (t0[split] + t1[split])
        um = _u_at(scanner.n, tm, a, col[split])
        col = np.concatenate([col[split], col[split]])
        t0, t1 = np.concatenate([t0[split], tm]), np.concatenate([tm, t1[split]])
        u0, u1 = np.concatenate([u0[split], um]), np.concatenate([um, u1[split]])
    return np.where(rejected, -1, np.where(undecided, 0, 1)).astype(np.int8)


def _decide(
    scanner: _SignScanner, a, verdicts, u_pad
) -> tuple[np.ndarray, int, int]:
    """Persistence verdict per coefficient column from classify()'s output,
    how many columns no check could decide (scored as not persistent) and
    how many the exact is_persistent decided.  Accepted columns persist.
    The escalated columns are settled together first: on the full axis by
    the certified Bernstein bisection (persistent: no positive root and
    a_0 > 0), on a restricted interval by _refine.  The ones left undecided
    go one by one to the exact is_persistent on the interval, which a
    restricted interval calls only up to _EXACT_FALLBACK_MAX_DEGREE."""
    persistent = verdicts == _SignScanner.ACCEPT
    escalated = np.flatnonzero(verdicts == _SignScanner.ESCALATE)
    if len(escalated) == 0:
        return persistent, 0, 0
    n, interval = scanner.n, scanner.interval
    if interval.kind == "full":
        certified = bernstein_verdicts(a[:, escalated])
        persistent[escalated] = (certified > 0) & (a[0, escalated] > 0.0)
    else:
        certified = _refine(scanner, a[:, escalated], u_pad[:, escalated])
        persistent[escalated] = certified > 0
    undecided = escalated[certified == 0]
    if interval.kind != "full" and n > _EXACT_FALLBACK_MAX_DEGREE:
        return persistent, len(undecided), 0
    for j in undecided:
        p = BinomialPolynomial(n, a[:, j])
        persistent[j] = is_persistent(p, *interval.x_range(n))
    return persistent, 0, len(undecided)


@_kept(_SCANNER_CACHE_BYTES)
def _scanner(n: int, interval: IntervalSpec, step: float) -> _SignScanner | None:
    """The block state of every estimate (None at degree 0), built once per
    process for each (n, interval, step) while it stays in the cache.  The
    cache holds _SCANNER_CACHE_BYTES of scanner arrays, so games over several
    player counts keep all their scanners, while a large-n sweep holds one
    scanner at a time (53 MiB at n = 10^4 on the full axis, most of it the
    lift basis V); the arrays are read-only."""
    return _SignScanner(n, interval, step) if n else None


def _persistence_block(
    scanner: _SignScanner | None, *blocks
) -> tuple[int, int, int, int]:
    """(successes, lifted samples, unresolved samples, samples decided by
    the exact full-axis check) of a unit of seeded blocks (seed, size),
    decided in one pass: the sieve, the latent scan of the completed
    survivors, then the lifted columns through classify and _decide.  Each
    block's generator draws its sieve normals, w and then z for its own
    lifted columns, as the block would alone, and every verdict is per
    column, so the counts are the sums of the blocks' own."""
    rngs, edges = _group(blocks)
    if scanner is None:  # n = 0: f = a_0
        return int(np.count_nonzero(_columns(rngs, 1, edges) > 0.0)), 0, 0, 0
    if scanner.degenerate:  # the event holds vacuously
        return int(edges[-1]), 0, 0, 0
    xi, cut = scanner.sieve.draw(rngs, edges)
    verdicts = scanner.scan(xi)
    successes = int(np.count_nonzero(verdicts == _SignScanner.ACCEPT))
    lifted = np.flatnonzero(verdicts == _SignScanner.ESCALATE)
    z = _columns(rngs, scanner.n + 1, np.searchsorted(lifted, cut))
    a = scanner.lift(xi.take(lifted, axis=1), z)
    persistent, unresolved, exact = _decide(scanner, a, *scanner.classify(a))
    successes += int(np.count_nonzero(persistent))
    return successes, len(lifted), unresolved, exact


def estimate_persistence(
    n: int,
    interval=FULL_AXIS,
    samples: int = 100_000,
    seed=0,
    workers: int = 1,
    step: float = 0.25,
) -> PersistenceEstimate:
    """Monte Carlo estimate of P(f > 0 on the interval) with a 95% Wilson
    interval.

    Full-axis decisions are exact; restricted intervals use the guarded grid
    scan (see module docstring).  Bit-identical given the seed, for any
    worker count.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if workers < 1:
        raise ValueError("workers must be positive")
    interval = _coerce_interval(interval)
    blocks = _blocks(seed, samples)
    results = _run_units(
        _scanner, (n, interval, step), _persistence_block, blocks, workers
    )
    successes, escalated, unresolved, exact = (sum(r) for r in zip(*results))
    return PersistenceEstimate.from_counts(
        successes, samples, unresolved=unresolved, escalated=escalated, exact=exact
    )


# adaptive multilevel splitting tuning; part of the determinism contract
_SPLIT_PARTICLES = 500
_SPLIT_KILL_FRACTION = 0.1
_PCN_RHO = 0.8  # initial pCN correlation; the step size then adapts per level
_PCN_STEPS = 10
_PCN_TARGET_ACCEPT = 0.3


@dataclass(frozen=True)
class _Replicate:
    """One splitting run: its estimate of p and diagnostics (accept is the
    share of proposed pCN moves accepted, 0 when it made none)."""

    p: float
    levels: int
    accept: float
    successes: int
    unresolved: int


def _splitting_replicate(scanner: _SignScanner, seed, particles: int) -> _Replicate:
    """Generalized adaptive multilevel splitting (Cerou & Guyader 2007;
    Brehier et al. 2016) on the scan score, with pCN moves (Cotter et al.
    2013).

    Each level kills every particle at or below the k-th lowest score, ties
    included, clones a uniformly chosen survivor into each killed slot and
    moves the clone by pCN steps a' = rho a + sqrt(1 - rho^2) z, which leave
    N(0, I) invariant, accepting a step only if its score stays above the
    level.  rho is fixed within a level and adapts between levels toward a
    target acceptance rate.  Once the k-th lowest score is nonnegative, the
    final stage lifts every particle and decides it with classify and
    _decide, so a persistent verdict means what it means in plain Monte
    Carlo, and p = prod(1 - K_level / N) * (persistent particles) / N
    estimates P(persistent).

    Particles are the scanner's latent vectors xi and the score is
    _SignScanner.score, an upper bound on the minimum normalized grid value
    of any lift, so persistence implies a positive score.  The score depends
    on xi alone; the rest of a lift, (I - V^T V) z, stays independent of xi
    under every level's conditional law and is drawn fresh at the end.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if scanner.degenerate:  # the event holds vacuously
        return _Replicate(1.0, 0, 0.0, particles, 0)
    x = rng.standard_normal((scanner.rank, particles))
    score = scanner.score(x)
    k = max(1, int(_SPLIT_KILL_FRACTION * particles))
    spread = math.sqrt(1.0 - _PCN_RHO**2)
    log_weight = 0.0
    levels = 0
    accepted = proposed = 0
    while True:
        level = np.partition(score, k - 1)[k - 1]
        if level >= 0.0:
            break
        killed = np.flatnonzero(score <= level)
        survivors = np.flatnonzero(score > level)
        if len(survivors) == 0:  # every particle tied at the level
            log_weight = -math.inf
            break
        parents = survivors[rng.integers(0, len(survivors), len(killed))]
        y = x[:, parents]
        sy = score[parents]
        rho = math.sqrt(1.0 - spread * spread)
        taken = 0
        for _ in range(_PCN_STEPS):
            proposal = rho * y + spread * rng.standard_normal(y.shape)
            sp = scanner.score(proposal)
            accept = sp > level
            y[:, accept] = proposal[:, accept]
            sy[accept] = sp[accept]
            taken += int(np.count_nonzero(accept))
        x[:, killed] = y
        score[killed] = sy
        log_weight += math.log1p(-len(killed) / particles)
        levels += 1
        # steer the next level's step toward the target acceptance rate; the
        # kernel within a level is fixed, so each level's moves stay
        # invariant for N(0, I) conditioned above that level
        rate = taken / (_PCN_STEPS * len(killed))
        accepted += taken
        proposed += _PCN_STEPS * len(killed)
        spread = min(1.0, spread * math.exp(2.0 * (rate - _PCN_TARGET_ACCEPT)))
    a = scanner.lift(x, rng.standard_normal((scanner.n + 1, particles)))
    persistent, unresolved, _ = _decide(scanner, a, *scanner.classify(a))
    successes = int(np.count_nonzero(persistent))
    p = math.exp(log_weight) * successes / particles
    accept = accepted / proposed if proposed else 0.0
    return _Replicate(p, levels, accept, successes, unresolved)


def estimate_persistence_splitting(
    n: int,
    interval=LOW_INTERVAL,
    replicates: int = 4,
    seed=0,
    workers: int = 1,
    step: float = 0.25,
) -> SplittingEstimate:
    """Rare-event estimate of P(f > 0 on the interval) by adaptive multilevel
    splitting (see _splitting_replicate), for probabilities far below what
    plain Monte Carlo can see.  Each replicate runs _SPLIT_PARTICLES
    particles.

    Replicate r is seeded from (seed, n, interval, r) alone and each process
    builds the scanner once (_scanner), so the result is bit-identical for
    any worker count.  The interval on log p comes from the replicate
    spread.
    """
    if n < 1:
        raise ValueError("splitting requires n >= 1")
    if replicates < 2:
        raise ValueError("need at least two replicates")
    if workers < 1:
        raise ValueError("workers must be positive")
    interval = _coerce_interval(interval)
    tag = _KINDS.index(interval.kind)
    units = [
        (_derive_seed(seed, n, tag, r), _SPLIT_PARTICLES) for r in range(replicates)
    ]
    reps = _run_units(
        _scanner, (n, interval, step), _splitting_replicate, units, workers
    )
    return SplittingEstimate.from_replicates(
        [r.p for r in reps],
        _SPLIT_PARTICLES,
        levels=sum(r.levels for r in reps),
        successes=sum(r.successes for r in reps),
        unresolved=sum(r.unresolved for r in reps),
        replicate_levels=[r.levels for r in reps],
        replicate_accept=[r.accept for r in reps],
    )


_PILOT_TAG = 0x9111
_PILOT_SAMPLES = 1000  # the first pilot's size, and the smallest budget
_PILOT_CAP = 1_000_000  # the largest pilot


def auto_budget(
    n: int,
    interval=FULL_AXIS,
    seed=0,
    target_successes: int = 100,
    floor: int | None = None,
    cap: int = 10_000_000,
    workers: int = 1,
    step: float = 0.25,
) -> int:
    """Sample budget ceil(target_successes / p_rough) from a pilot run,
    raised to floor and clipped to cap.

    When the base pilot of _PILOT_SAMPLES sees too few hits to gauge the
    probability, its size escalates by decades (up to _PILOT_CAP) until it
    does; genuinely rare events then simply charge the cap, and callers
    should still check the success floor on the final estimate.
    """
    size = _PILOT_SAMPLES
    stage = 0
    while True:
        pilot = estimate_persistence(
            n,
            interval,
            size,
            seed=_derive_seed(seed, _PILOT_TAG, n, stage),
            workers=workers,
            step=step,
        )
        if pilot.successes >= 20 or size >= _PILOT_CAP:
            break
        size = min(size * 10, _PILOT_CAP)
        stage += 1
    p_rough = max(pilot.successes, 1) / size
    budget = math.ceil(target_successes / p_rough)
    if floor is not None:
        budget = max(budget, floor)
    return min(cap, max(budget, _PILOT_SAMPLES))


@dataclass(frozen=True)
class RatioPoint:
    """One point of the normalized ratio sequence -log p_n / (pi sqrt(n))."""

    n: int
    ratio: float
    ci_low: float
    ci_high: float
    estimate: PersistenceEstimate


def ratio_sequence(
    ns: Sequence[int],
    samples: int | None = None,
    seed=0,
    workers: int = 1,
    step: float = 0.25,
) -> tuple[list[RatioPoint], list[tuple[int, PersistenceEstimate]]]:
    """Full-axis ratio points over increasing n; `samples=None` auto-budgets
    each n (capped at 10^7).  Undersampled n (below the success floor of
    PersistenceEstimate.log_usable) are dropped into the second return value
    instead of producing an unstable log."""
    points: list[RatioPoint] = []
    dropped: list[tuple[int, PersistenceEstimate]] = []
    for n in ns:
        budget = samples or auto_budget(
            n, FULL_AXIS, seed=seed, cap=10_000_000, workers=workers, step=step
        )
        est = estimate_persistence(
            n, FULL_AXIS, budget, seed=_derive_seed(seed, n), workers=workers, step=step
        )
        if not est.log_usable():
            dropped.append((n, est))
            continue
        denom = math.pi * math.sqrt(n)
        points.append(
            RatioPoint(
                n=n,
                ratio=-est.log_p / denom,
                ci_low=-math.log(est.ci_high) / denom,
                ci_high=-math.log(est.ci_low) / denom if est.ci_low > 0 else math.inf,
                estimate=est,
            )
        )
    return points, dropped


@dataclass(frozen=True)
class IntervalReportRow:
    """Normalized edge-interval contribution -log p / sqrt(n)."""

    n: int
    kind: str
    estimate: PersistenceEstimate | SplittingEstimate
    normalized: float | None

    @property
    def unresolved(self) -> int:
        """Samples (or final-stage particles) no check could decide."""
        return self.estimate.unresolved


def negligible_interval_report(
    ns: Sequence[int],
    samples: int | None = None,
    seed=0,
    workers: int = 1,
    step: float = 0.25,
    estimator: str = "mc",
) -> list[IntervalReportRow]:
    """Low- and high-interval persistence, normalized by sqrt(n).

    The two intervals have equal probability in law (coefficient reversal),
    which the report exposes by estimating both independently.

    estimator="mc" is plain Monte Carlo with `samples` per interval, or
    with auto_budget's pilot-scaled budget capped at 2 * 10^6 when `samples`
    is None; estimator="splitting" uses estimate_persistence_splitting at
    its default size, which resolves the probabilities near 1e-12 that the
    low interval reaches at n = 10^4.  Estimates below the success floor of
    PersistenceEstimate.log_usable get no normalized value.
    """
    if estimator not in ("mc", "splitting"):
        raise ValueError(f"estimator must be 'mc' or 'splitting', got {estimator!r}")
    if estimator == "splitting" and samples is not None:
        raise ValueError("samples applies to estimator='mc' only")
    rows: list[IntervalReportRow] = []
    for n in ns:
        for kind in ("low", "high"):
            interval = IntervalSpec(kind)
            if estimator == "splitting":
                est = estimate_persistence_splitting(
                    n, interval, seed=seed, workers=workers, step=step
                )
            else:
                budget = samples or auto_budget(
                    n,
                    interval,
                    seed=_derive_seed(seed, 1 if kind == "low" else 2),
                    cap=2_000_000,
                    workers=workers,
                    step=step,
                )
                est = estimate_persistence(
                    n,
                    interval,
                    budget,
                    seed=_derive_seed(seed, n, 1 if kind == "low" else 2),
                    workers=workers,
                    step=step,
                )
            normalized = -est.log_p / math.sqrt(n) if est.log_usable() else None
            rows.append(IntervalReportRow(n, kind, est, normalized))
    return rows


@dataclass(frozen=True)
class AutocorrGapRow:
    """sup over window offsets of the autocorrelation limit gap at one lag."""

    n: int
    lag: float
    sup_gap: float


def autocorr_convergence_report(
    ns: Sequence[int],
    lags: Sequence[float] = (0.5, 1.0, 2.0, 3.0),
    offsets: Sequence[float] = (0.05, 0.2, 0.35, 0.5),
) -> list[AutocorrGapRow]:
    """Uniform-convergence diagnostic of the finite-n autocorrelation toward
    the limiting kernel, sampled over window offsets."""
    rows: list[AutocorrGapRow] = []
    for n in ns:
        width = main_window_width(n)
        for lag in lags:
            us = [o * width for o in offsets if o * width + lag <= width]
            if not us:
                continue
            sup_gap = max(autocorr_limit_gap(n, u, u + lag) for u in us)
            rows.append(AutocorrGapRow(n, float(lag), sup_gap))
    return rows
