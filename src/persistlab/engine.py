"""The sampling engine that mc, games and gp share.

Each of them scans a Gaussian field on a grid: the random polynomial family
on its t-grid (mc, games) and the limit process on its time grid (gp).  The
field is drawn as G xi with a factor G (grid rows x r) and latent normals
xi ~ N(0, I_r):

* latent_factor gives a low-rank G from the rows' Gram matrix and their
  products, so the rows need not be held whole;
* Sieve draws xi in two stages, rejecting most columns on a few rows of G,
  one row at a time, before the rest of xi is drawn;
* _blocks, _run_units and _pool run seeded blocks of samples, optionally
  on a process pool, so every estimate is bit-identical from its seed at
  any worker count.  A unit is a group of up to _GROUP consecutive blocks
  that mc and games decide in one vectorized pass: each block draws from
  its own generator exactly the normals it would draw alone (_group,
  _columns, Sieve.draw), and every verdict after the draw is per column,
  so grouping changes no count.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
import os
import signal
import sys
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

# relative gap below which two peak magnitudes of a factor column tie; far
# above the ~1e-7 relative drift of the smallest kept columns between LAPACK
# eigensolvers
_PEAK_TIE = 1e-6
_BATCH = 4096  # samples per seeded block
_GROUP = 4  # most seeded blocks per unit, decided in one pass
_SIEVE_ROWS = 10  # most rows a sieve draws before the rest
_SIEVE_GAP = 2.5  # least t between sieve rows (limit correlation e^(-gap^2/4))


def latent_factor(
    gram: np.ndarray, left, right, bound: float, reach: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-r factor (G, V) of a matrix M ~ G V, given its Gram matrix
    gram = M M^T and its products left(C) = C M and right(B) = M B; dense()
    gives these for a matrix at hand, mc's scanner builds them from its
    windowed weight rows.

    The Gram matrix M M^T = Q Lambda Q^T (one eigh) gives the left singular
    vectors Q and squared singular values Lambda, so the tail energies
    q_jk^2 lambda_k are the row residuals of every rank.  r is the smallest
    rank with every row residual |E_j| of M - G V (times reach) at most
    bound.  V0 = Lambda_r^(-1/2) Q_r^T M spans the top r right singular
    vectors; one Cholesky-QR pass, V = chol(V0 V0^T)^(-1) V0, makes its rows
    orthonormal to rounding, and G = M V^T, so the residual E = M - G V
    satisfies E V^T = 0 to rounding.  Paths G xi with xi ~ N(0, I_r) have
    covariance G G^T, which differs from M M^T by E E^T, at most |E_i| |E_j|
    per entry.

    The Gram squares the spectrum: eigh resolves a row's tail energy only to
    about 1e-16 times the largest eigenvalue, so a residual |E_j| is
    resolved down to about 1e-8 of the largest singular value.  Both users
    ask for far less (the series: |E_j|^2 <= 1e-12 on unit-variance rows;
    the sign scanner: |E_j| <= 1e-4 / reach on unit rows).

    Each column of G is flipped to make its largest-magnitude entry
    positive (and the matching row of V with it): eigenvectors are unique
    only up to sign and LAPACK drivers differ in the sign they return, so
    without the flip paths at a fixed seed would depend on the LAPACK build.
    Entries within _PEAK_TIE of the largest magnitude count as tied and the
    first of them decides: on a grid symmetric about its centre (the series
    grid, the full axis) some columns are antisymmetric, with two opposite
    peaks that only rounding tells apart.
    """
    lam, q = np.linalg.eigh(gram)
    lam = np.maximum(lam[::-1], 0.0)
    q = q[:, ::-1]
    # tail[j, k] = |row j of the rank-k residual|^2; it falls with k, so
    # the smallest admissible rank is the number of ranks that fail
    tail = np.cumsum((q * q * lam)[:, ::-1], axis=1)[:, ::-1]
    rank = int(np.count_nonzero(np.sqrt(tail.max(axis=0)) * reach > bound))
    v = left((q[:, :rank] / np.sqrt(lam[:rank])).T)
    v = np.linalg.inv(np.linalg.cholesky(v @ v.T)) @ v
    g = right(v.T)
    mag = np.abs(g)
    peak = np.argmax(mag >= (1.0 - _PEAK_TIE) * mag.max(axis=0), axis=0)
    sign = np.sign(g[peak, np.arange(rank)])
    return g * sign, v * sign[:, None]


def dense(matrix: np.ndarray) -> tuple:
    """latent_factor's (gram, left, right) for a matrix held whole."""
    return matrix @ matrix.T, lambda c: c @ matrix, lambda b: matrix @ b


class Sieve:
    """Two-stage draw of latent columns xi ~ N(0, I_r) for a factor G
    (rows x r) whose scan rejects a column with some (G xi)_j below
    -base_j (mc's scanner: base_j = 1 + margin_j in tau units; gp: 0).

    Almost every sample is rejected, and a few rows S far apart in t,
    nearly independent in the limit, decide most of them: the sieve draws
    only y_S = L eta, eta ~ N(0, I_s), with L = chol(G_S G_S^T), and rejects
    a column with some y_S,j < -thr_j.  L is lower triangular, so y_S,j
    needs eta_0..j only: draw() asks each block's generator for eta_0 for
    every column, then for each eta_j only for the columns rows 0..j-1 kept
    (sift), then for w for the survivors; each row keeps about half the
    columns, so a column costs about 2 sieve normals instead of s (2.15 at
    mc's n = 144 on the full axis, 2.0 at n = 10^4 on the low interval).
    The reject predicate is the same as on a whole draw (passes), so the
    survivors' (eta, w) have the same law.  The survivors are completed to
    xi = Q_S eta + (I - Q_S Q_S^T) w, w ~ N(0, I_r), with Q_S = G_S^T L^-T,
    whose columns are orthonormal: xi is N(0, I_r) and G_S xi = L eta.  In
    float, |G_S xi - L eta|_j <= rho_j while |eta| <= sqrt(s) + 10 and
    |w| <= sqrt(r) + 10 (each outside an e^-50 event), with rho_j =
    (sqrt(s) + 10) |D_j| + (sqrt(r) + 10) |F_j| + 8 s gamma |G_S,j|
    (sqrt(s) + 2 sqrt(r) + 30) over the computed D = G_S Q_S - L and
    F = G_S (I - Q_S Q_S^T); the last term bounds the rounding of L eta,
    of the completion, of the scan's G xi and of D and F themselves, with
    Higham's gamma = k eps / (1 - k eps), k = r + s + 2, for every product
    (|L_j| = |G_S,j|, |Q_S|_F = sqrt(s)).  So with thr_j = base_j + rho_j a
    sieve reject is a scan reject of the completed xi.

    S walks the rows in t order keeping each row at least _SIEVE_GAP
    beyond the last one kept, thinned evenly to at most _SIEVE_ROWS and the
    rank; rows spread evenly instead can be so correlated that L is
    ill-conditioned (cond 1e5 at n = 36 on mc's main interval).  The
    arrays are read-only.
    """

    def __init__(self, g: np.ndarray, times: np.ndarray, base) -> None:
        kept = [0]
        for k, t in enumerate(times):
            if t >= times[kept[-1]] + _SIEVE_GAP:
                kept.append(k)
        r = g.shape[1]
        s = min(_SIEVE_ROWS, r, len(kept))
        self.rows = np.array(kept)[np.arange(s) * (len(kept) - 1) // max(s - 1, 1)]
        gs = g[self.rows]
        self.l = np.linalg.cholesky(gs @ gs.T)
        self.q = np.linalg.solve(self.l, gs).T
        ku = (r + s + 2) * np.finfo(float).eps
        gamma = ku / (1.0 - ku)
        gq = gs @ self.q
        self.rho = (
            (math.sqrt(s) + 10.0) * np.linalg.norm(gq - self.l, axis=1)
            + (math.sqrt(r) + 10.0) * np.linalg.norm(gs - gq @ self.q.T, axis=1)
            + 8.0 * s * gamma * np.linalg.norm(gs, axis=1)
            * (math.sqrt(s) + 2.0 * math.sqrt(r) + 30.0)
        )
        self.thr = np.broadcast_to(base, len(g))[self.rows] + self.rho
        for value in (self.rows, self.l, self.q, self.rho, self.thr):
            value.flags.writeable = False

    def passes(self, eta: np.ndarray) -> np.ndarray:
        """Which columns of a batch of sieve draws eta ~ N(0, I_s) (s, B)
        survive; the others are scan rejects of any completion (up to
        probability e^-50)."""
        return ~(self.l @ eta < -self.thr[:, None]).any(axis=0)

    def sift(self, size: int, row) -> tuple[np.ndarray, np.ndarray]:
        """passes() row by row on `size` columns, asking for each eta_j only
        where it is needed: L is lower triangular, so (L eta)_j needs
        eta_0..j alone.  row(j, alive, out) writes into out eta_j for the
        columns alive (indices into 0..size-1, increasing) that rows
        0..j-1 kept, and row j keeps those with (L eta)_j >= -thr_j.
        Returns the survivors' eta (s, m) and their indices.  A sum of
        j + 1 terms rounds within rho's gamma, so the kept columns are the
        ones passes() keeps on the same eta."""
        eta = np.empty((len(self.rows), size))
        alive = np.arange(size)
        for j, thr in enumerate(self.thr):
            m = len(alive)
            if m == 0:
                break
            row(j, alive, eta[j, :m])
            keep = np.dot(self.l[j, : j + 1], eta[: j + 1, :m]) >= -thr
            alive = alive.compress(keep)
            eta[: j + 1, : len(alive)] = eta[: j + 1, :m].compress(keep, axis=1)
        return eta[:, : len(alive)], alive

    def complete(self, eta: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Latent columns xi = Q_S eta + (I - Q_S Q_S^T) w, with G_S xi =
        L eta (up to rho): for eta ~ N(0, I_s) and w ~ N(0, I_r)
        independent, xi ~ N(0, I_r)."""
        return w + self.q @ (eta - self.q.T @ w)

    def draw(self, rngs, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The completed latent columns (r, survivors) of a group of blocks
        (_group: block b is columns edges[b]:edges[b+1]) and the edges of
        each block's survivors among them.  rngs[b] draws block b's normals
        as it would alone: eta row by row, each row for the block's columns
        still alive (sift), then w for its survivors; a block with no
        column alive draws nothing more."""

        def row(j, alive, out):
            cut = alive.searchsorted(edges)
            for rng, lo, hi in zip(rngs, cut, cut[1:]):
                rng.standard_normal(out=out[lo:hi])

        eta, alive = self.sift(int(edges[-1]), row)
        cut = alive.searchsorted(edges)
        return self.complete(eta, _columns(rngs, self.q.shape[0], cut)), cut


def _group(blocks) -> tuple[list[np.random.Generator], np.ndarray]:
    """The generators of a unit's blocks (seed, size) and the block edges of
    the unit's columns: block b is columns edges[b]:edges[b+1]."""
    rngs = [np.random.default_rng(seed) for seed, _ in blocks]
    return rngs, np.array([0, *itertools.accumulate(size for _, size in blocks)])


def _columns(rngs, rows: int, edges) -> np.ndarray:
    """Normals (rows, edges[-1]) whose columns edges[b]:edges[b+1] are
    rngs[b].standard_normal((rows, edges[b+1] - edges[b])); a block with no
    columns leaves its generator as it was."""
    parts = zip(rngs, edges, edges[1:])
    return np.concatenate(
        [rng.standard_normal((rows, hi - lo)) for rng, lo, hi in parts], axis=1
    )


def _nbytes(value) -> int:
    """Bytes of the numpy arrays in value, its tuple items and its
    attributes, recursively."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(map(_nbytes, value))
    return sum(map(_nbytes, getattr(value, "__dict__", {}).values()))


def _kept(budget: int):
    """Decorator: a least-recently-used cache of build(*args) bounded by the
    total bytes of the kept values' arrays (_nbytes).  A new value evicts the
    least recently used ones until the total fits the budget, and is kept
    even when it alone is over it.  The wrapper has lru_cache's cache_clear.
    Estimates are called from one thread, so it needs no lock."""

    def decorate(build):
        kept: dict[tuple, tuple[object, int]] = {}  # oldest use first

        @functools.wraps(build)
        def cached(*args):
            if args in kept:
                kept[args] = kept.pop(args)
                return kept[args][0]
            value = build(*args)
            kept[args] = (value, _nbytes(value))
            total = sum(size for _, size in kept.values())
            while len(kept) > 1 and total > budget:
                total -= kept.pop(next(iter(kept)))[1]
            return value

        cached.cache_clear = kept.clear
        return cached

    return decorate


def _pin_blas() -> None:
    """One OpenBLAS thread per pool worker, so pooled workers do not
    oversubscribe the cores.  Acts on the OpenBLAS bundled with numpy
    wheels; with any other BLAS it does nothing.  Thread counts change the
    speed, not the results."""
    import ctypes
    from pathlib import Path

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            setter = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


def _init_worker(parent: int) -> None:
    """Pool initializer: one BLAS thread (_pin_blas), and on Linux SIGTERM
    from the kernel when the parent dies (prctl PR_SET_PDEATHSIG), so kept
    workers do not outlive a caller killed by a signal; a worker whose
    parent is already gone exits at once.  The signal fires when the thread
    that forked the worker exits: the pool forks its workers in the thread
    that first submits to it, and estimates are called from one thread."""
    _pin_blas()
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(1, signal.SIGTERM, 0, 0, 0)  # 1 = PR_SET_PDEATHSIG, <linux/prctl.h>
    if os.getppid() != parent:
        os._exit(1)


_kept_pool: dict[int, ProcessPoolExecutor] = {}  # at most one: workers -> pool


def _pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of `workers` workers, started on first use and
    kept for later calls; asking for another size replaces it.  At
    interpreter exit concurrent.futures' own exit hook joins its workers and
    the atexit hook below drops the pool; if this process is killed, they
    get SIGTERM (_init_worker).  Estimates are called from one thread, so the
    check-then-replace needs no lock.  concurrent.futures and
    multiprocessing are imported here, on first use, so a process that
    never pools does not load them."""
    if workers not in _kept_pool:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _drop_pool()
        # fork on Linux whatever the default start method (forkserver from
        # Python 3.14): a forkserver's workers are its children, not this
        # process's, so _init_worker's parent check would end them all
        linux = sys.platform.startswith("linux")
        _kept_pool[workers] = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork") if linux else None,
            initializer=_init_worker,
            initargs=(os.getpid(),),
        )
    return _kept_pool[workers]


def _drop_pool() -> None:
    for pool in _kept_pool.values():
        pool.shutdown()
    _kept_pool.clear()


# _pool imports concurrent.futures after this module, so interpreter teardown
# clears it first; a pool still kept then is collected with its module gone,
# and its weakref callback fails ("Exception ignored ... no attribute 'util'")
atexit.register(_drop_pool)


def _run_slice(build, args, run, units) -> list:
    state = build(*args)
    return [run(state, *unit) for unit in units]


def _run_units(build, args, run, units: list, workers: int) -> list:
    """[run(state, *unit) for unit in units] with state = build(*args) in
    the process that runs the unit.  With workers > 1 the units are cut
    into min(workers, len(units)) contiguous slices run on _pool(workers),
    whose workers are forked once per process and reused, so a cached build
    (mc._scanner) is paid once per worker, not once per call; they keep the
    module state they were forked with.  If the kept pool is broken (a
    worker died), the call runs once more on a fresh pool.  Every block
    carries its own seed, so the results do not depend on workers, nor on
    which worker ran which slice."""
    k = min(workers, len(units))
    if k <= 1:
        return _run_slice(build, args, run, units)
    from concurrent.futures.process import BrokenProcessPool

    cuts = [len(units) * w // k for w in range(k + 1)]
    slices = [units[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

    def pooled() -> list:
        parts = _pool(workers).map(
            _run_slice, [build] * k, [args] * k, [run] * k, slices
        )
        return [result for part in parts for result in part]

    try:
        return pooled()
    except BrokenProcessPool:
        _drop_pool()
        return pooled()


def _blocks(seed, samples: int) -> list[tuple]:
    """Units of up to _GROUP consecutive blocks (seed, size), each block of
    _BATCH samples, the last one shorter; block b is seeded from
    SeedSequence(seed).spawn(B)[b] whatever unit it falls in, and
    _run_units calls run(state, *blocks) on each unit."""
    sizes = [min(_BATCH, samples - lo) for lo in range(0, samples, _BATCH)]
    blocks = list(zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes))
    return [tuple(blocks[lo : lo + _GROUP]) for lo in range(0, len(blocks), _GROUP)]


def _derive_seed(seed, *tags: int) -> tuple:
    if isinstance(seed, (tuple, list)):
        return tuple(seed) + tags
    return (int(seed),) + tags
