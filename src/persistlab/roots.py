"""Exact positive-root counting for dyadic-coefficient polynomials.

IEEE doubles are dyadic rationals, so a sampled polynomial scaled by a common
power of two has integer coefficients, and every sign decision below is exact
integer arithmetic.  Two independent engines share that representation:
Descartes bisection (integer Taylor shifts) isolates roots, its first
isolating interval deciding existence on any interval and all of them,
bisected further, locating the roots; a generalized Sturm chain with
subresultant magnitudes counts roots and gives the depth cap's squarefree part.

In front of them, bernstein_verdicts settles whole blocks of binomial-weighted
float columns at once with a rigorous floating-point certificate (midpoint
de Casteljau bisection in the Bernstein form, with a bound on every rounding
error); only the columns it leaves undecided need the exact engines.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .polys import BinomialPolynomial

__all__ = [
    "DyadicPolynomial",
    "SturmChain",
    "RootCountResult",
    "build_chain",
    "count_positive_roots",
    "count_roots_in",
    "no_positive_roots",
    "locate_positive_roots",
    "is_persistent",
    "bernstein_verdicts",
]


def _is_power_of_two(v: int) -> bool:
    return v > 0 and (v & (v - 1)) == 0


@dataclass(frozen=True)
class DyadicPolynomial:
    """Exact polynomial with dyadic-rational coefficients, ascending powers.

    Trailing zero coefficients are stripped so the leading coefficient is
    nonzero; the zero polynomial is the empty tuple.
    """

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = list(self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not isinstance(c, Fraction):
                raise TypeError(f"coefficients must be Fractions, got {type(c)!r}")
            if not _is_power_of_two(c.denominator):
                raise ValueError(f"denominator of {c!r} is not a power of two")
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def from_floats(cls, values: Iterable[float]) -> "DyadicPolynomial":
        """Bit-exact image of floating coefficients (floats are dyadic)."""
        return cls(tuple(Fraction(float(v)) for v in values))

    @classmethod
    def from_binomial(cls, p: BinomialPolynomial) -> "DyadicPolynomial":
        """Weighted image C(n,i) * a_i with exact integer binomials."""
        n = p.degree
        return cls(
            tuple(
                Fraction(float(a)) * math.comb(n, i)
                for i, a in enumerate(p.coefficients)
            )
        )

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def scaled_integers(self) -> tuple[int, ...]:
        """Coefficients times the smallest common power-of-two denominator."""
        if self.is_zero():
            return ()
        shift = max(c.denominator.bit_length() - 1 for c in self.coefficients)
        return tuple(
            c.numerator * (1 << (shift - (c.denominator.bit_length() - 1)))
            for c in self.coefficients
        )


# --- integer-list polynomial core (ascending powers) ---


def _strip(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _derivative(c: Sequence[int]) -> list[int]:
    return [i * c[i] for i in range(1, len(c))]


def _content(c: Sequence[int]) -> int:
    g = 0
    for v in c:
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g or 1


def _primitive(c: list[int]) -> list[int]:
    g = _content(c)
    return [v // g for v in c] if g > 1 else c


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _pseudo_rem_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Textbook pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b.

    The elimination loop applies one factor of lc(b) per round; the result is
    padded to the exact power so the subresultant divisions stay exact.
    """
    db = len(b) - 1
    lc = b[-1]
    delta = len(a) - 1 - db
    r = list(a)
    e = 0
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        head = r[-1]
        r = [lc * v for v in r]
        for i, bv in enumerate(b):
            r[shift + i] -= head * bv
        r.pop()
        _strip(r)
        e += 1
    pad = delta + 1 - e
    if r and pad > 0:
        m = lc**pad
        r = [m * v for v in r]
    return r


def _signed_remainder_chain(c0: list[int]) -> list[list[int]]:
    """Sign-true generalized Sturm chain of an integer polynomial.

    Magnitudes follow Brown's subresultant recurrence (exact divisions by
    known factors, no content gcds, near-minimal coefficient growth); each
    element is then flipped so that consecutive elements satisfy the
    negated-remainder convention up to positive constants.  Ends at a
    constant, or at (a constant multiple of) gcd(p, p') for repeated roots.
    """
    chain = [c0]
    if len(c0) <= 1:
        return chain
    d1 = _derivative(c0)
    _strip(d1)
    if not d1:
        return chain
    chain.append(d1)
    a, b = c0, d1
    g, h = 1, 1
    eps_a, eps_b = 1, 1  # sign multipliers making a, b Sturm-true
    while len(b) > 1:
        delta = (len(a) - 1) - (len(b) - 1)
        prem = _pseudo_rem_exact(a, b)
        if not prem:
            break
        denom = g * h**delta
        nxt = []
        for v in prem:
            q, rem = divmod(v, denom)
            if rem:
                raise ArithmeticError("subresultant division was not exact")
            nxt.append(q)
        # relate the raw element to the negated true remainder:
        # next_raw = rem(a, b) * lc(b)^(delta+1) / denom
        m = _sign(b[-1]) ** (delta + 1) * _sign(denom)
        eps_next = -eps_a * m
        a, b = b, nxt
        g = a[-1]
        h = g if delta == 1 else g**delta // h ** (delta - 1)
        eps_a, eps_b = eps_b, eps_next
        chain.append([-v for v in nxt] if eps_next < 0 else nxt)
    return chain


def _exact_div(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Quotient of an exact integer-polynomial division (remainder must vanish)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    while len(num) >= len(den):
        q, rem = divmod(num[-1], den[-1])
        if rem:
            raise ArithmeticError("division is not exact")
        k = len(num) - len(den)
        out[k] = q
        for i, dv in enumerate(den):
            num[k + i] -= q * dv
        num.pop()
        _strip(num)
        if not num:
            break
    if num:
        raise ArithmeticError("division left a remainder")
    return _strip(out)


@dataclass(frozen=True)
class SturmChain:
    """Generalized remainder chain; consecutive elements are proportional, by
    positive constants, to (p, p', -rem(p, p'), ...)."""

    elements: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.elements)


def build_chain(p: DyadicPolynomial) -> SturmChain:
    """Remainder chain from (p, p'); ends at a constant, or at the gcd of
    (p, p') when p has repeated roots."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no chain")
    chain = _signed_remainder_chain(_primitive(list(p.scaled_integers())))
    return SturmChain(tuple(tuple(c) for c in chain))


def _squarefree_part(c: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """The primitive squarefree part c / gcd(c, c') and c's own chain, the
    gcd read off the chain's last element; c is its own squarefree part when
    the chain ends at a constant, the common case."""
    c0 = _primitive(list(c))
    chain = _signed_remainder_chain(c0)
    if len(chain[-1]) > 1:  # gcd(c, c') up to a factor; the quotient's sign is moot
        gcd = _primitive(list(chain[-1]))
        return _primitive(_exact_div(c0, gcd)), chain
    return c0, chain


def _squarefree_chain(c: Sequence[int]) -> SturmChain:
    """Chain of the squarefree part of c; reuses c's own chain when c is
    already squarefree, which halves the chain work."""
    part, chain = _squarefree_part(c)
    if len(chain[-1]) > 1:
        chain = _signed_remainder_chain(part)
    return SturmChain(tuple(tuple(e) for e in chain))


def _variations(signs: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _sign_at_zero_plus(c: Sequence[int]) -> int:
    for v in c:
        if v:
            return _sign(v)
    return 0


def _sign_at_infinity(c: Sequence[int]) -> int:
    return _sign(c[-1])


def _sign_at(c: Sequence[int], num: int, den: int) -> int:
    """Exact sign of the integer polynomial at the rational point num/den."""
    d = len(c) - 1
    acc = c[-1]
    dp = 1
    for i in range(d - 1, -1, -1):
        dp *= den
        acc = acc * num + c[i] * dp
    return _sign(acc)


def _variations_at_zero_plus(chain: SturmChain) -> int:
    return _variations(_sign_at_zero_plus(c) for c in chain.elements)


def _variations_at_infinity(chain: SturmChain) -> int:
    return _variations(_sign_at_infinity(c) for c in chain.elements)


def _variations_at(chain: SturmChain, q: Fraction) -> int:
    num, den = q.numerator, q.denominator
    return _variations(_sign_at(c, num, den) for c in chain.elements)


@dataclass(frozen=True)
class RootCountResult:
    """Distinct positive real roots and the strict-positivity verdict."""

    count: int
    persistent_positive: bool


def count_positive_roots(p: DyadicPolynomial) -> RootCountResult:
    """Distinct real roots of p in (0, inf) and whether p > 0 on all of it.

    Repeated roots are collapsed by taking the squarefree part first, so an
    even-order touch of zero still shows up in the count and falsifies
    strict positivity.  Sign variations are read at 0+ from the lowest
    nonzero coefficients and at +inf from the leading ones.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no root count")
    chain = _squarefree_chain(p.scaled_integers())
    count = _variations_at_zero_plus(chain) - _variations_at_infinity(chain)
    positive_at_one = sum(p.scaled_integers()) > 0
    return RootCountResult(count, count == 0 and positive_at_one)


def count_roots_in(
    p: DyadicPolynomial, lo: Fraction | None, hi: Fraction | None
) -> int:
    """Distinct real roots of p in (lo, hi]; lo=None means 0+ and hi=None
    means +inf (the endpoint signs come from trailing/leading coefficients)."""
    if lo is not None and hi is not None and hi < lo:
        raise ValueError("interval endpoints out of order")
    chain = _squarefree_chain(p.scaled_integers())
    v_lo = (
        _variations_at_zero_plus(chain) if lo is None else _variations_at(chain, lo)
    )
    v_hi = (
        _variations_at_infinity(chain) if hi is None else _variations_at(chain, hi)
    )
    return v_lo - v_hi


def _taylor_shift1(c: list[int]) -> list[int]:
    """In-place coefficients of p(y + 1), ascending powers."""
    d = len(c) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += c[j + 1]
    return c


_MAX_DEPTH = 200  # Descartes bisection levels before an exact decision gives up


def _isolate_open01(
    c: Sequence[int], max_depth: int | None
) -> Iterator[tuple[int, int, int, int] | None]:
    """Isolate the roots of the integer polynomial c in the open interval
    (0, 1) by Descartes bisection (Collins & Akritas 1976), in no order.

    The cell (j, j + 1) / 2^k carries q(y) = 2^(d k) c((j + y) / 2^k); the
    variation count of (1 + y)^d q(1 / (1 + y)) bounds its root count from
    above and matches its parity, so 0 variations certify an empty cell and
    1 a single simple root, yielded as (j, j + 1, k, s): s is the sign of c
    just right of j / 2^k, the lowest nonzero coefficient of q, since either
    end may be a root.  A split point m / 2^k that is a root is yielded as
    (m, m, k, 0) and divided out of the right half.  Bisection never ends at
    a repeated root: a cell undecided at max_depth yields None and ends it
    (max_depth None: no cap, safe when c is squarefree).
    """
    work: list[tuple[list[int], int, int]] = [(list(c), 0, 0)]
    while work:
        q, depth, j = work.pop()
        v = _variations(map(_sign, _taylor_shift1(q[::-1])))
        if v == 0:
            continue
        if v == 1:
            yield j, j + 1, depth, _sign_at_zero_plus(q)
            continue
        if max_depth is not None and depth >= max_depth:
            yield None
            return
        d = len(q) - 1
        half = [ci << (d - i) for i, ci in enumerate(q)]  # q(y/2) * 2^d
        right = _taylor_shift1(list(half))  # q((y+1)/2) * 2^d
        if right[0] == 0:
            yield 2 * j + 1, 2 * j + 1, depth + 1, 0  # the split point is a root
            right.pop(0)
        work.append((half, depth + 1, 2 * j))
        work.append((right, depth + 1, 2 * j + 1))


def _root_inside(
    g: Sequence[int], max_depth: int | None, unbounded: bool = True
) -> bool | None:
    """Whether the integer polynomial g has a root in (0, inf), or in (0, 1)
    when not unbounded: the first isolating cell of (0, 1), and of (1, inf)
    taken to (0, 1) by x -> 1/x, decides; None at max_depth."""
    g = list(g)
    while g[0] == 0:
        g.pop(0)  # roots at exactly 0 are outside
    if _variations(map(_sign, g)) == 0:
        return False  # Descartes on all of (0, inf)
    if unbounded and sum(g) == 0:
        return True  # an exact root at 1
    got = False
    for q in (g, g[::-1]) if unbounded else (g,):
        cell = next(_isolate_open01(q, max_depth), False)
        if cell:
            return True
        if cell is None:
            got = None
    return got


def _descartes(decide: Callable, c: Sequence[int]) -> tuple[Sequence[int], Any]:
    """The depth-cap policy of every exact decision: (c, decide(c, _MAX_DEPTH)),
    or, at the cap (bisection never ends at a repeated root), (s, decide(s,
    None)) for the squarefree part s of c itself, not of a larger image."""
    got = decide(c, _MAX_DEPTH)
    if got is None:
        c = _squarefree_part(c)[0]
        got = decide(c, None)
    return c, got


def no_positive_roots(p: DyadicPolynomial) -> bool:
    """Exact decision of {p has no root in (0, inf)} by Descartes bisection
    at input-sized coefficients."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no root decision")
    return not _descartes(_root_inside, p.scaled_integers())[1]


def _image(c: Sequence[int], lo: Fraction, hi: float) -> list[int]:
    """den^d c(lo + (hi - lo) s), s in (0, 1), or den^d c(lo (1 + y)),
    y in (0, inf), when hi is inf; den is the larger denominator of lo and hi,
    both powers of two.  On the whole axis this is c itself."""
    right = Fraction(1 if hi == math.inf else hi)
    den = max(lo.denominator, right.denominator)
    a, b = int(lo * den), int(right * den)
    shift, d = den.bit_length() - 1, len(c) - 1
    g, power = [], 1
    for i, ci in enumerate(c):  # den^d c(lo y), or den^d c(hi y) when lo = 0
        g.append(ci * power << shift * (d - i))
        power *= a or b
    if not a:
        return g
    _taylor_shift1(g)  # den^d c(lo (1 + y))
    if hi == math.inf:
        return g
    # y = (b - a) s / a; the shift left coefficient i a multiple of a^i
    return [gi // a**i * (b - a) ** i for i, gi in enumerate(g)]


def is_persistent(p: BinomialPolynomial, lo: float = 0.0, hi: float = math.inf) -> bool:
    """Exact decision of the event {f > 0 everywhere on (lo, hi]} ((lo, inf)
    when hi is inf, by default the whole positive axis): the sign at hi (of
    the leading coefficient when hi is inf), then Descartes bisection on the
    interval's exact image.  A zero in the interval (a tangency, a root at
    hi) makes the answer False; a root at lo is outside it."""
    if not 0.0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    dp = DyadicPolynomial.from_binomial(p)
    if dp.is_zero():
        return False
    c = dp.scaled_integers()
    unbounded = hi == math.inf
    if (c[-1] if unbounded else _sign_at(c, *Fraction(hi).as_integer_ratio())) <= 0:
        return False  # f(hi) <= 0, or f < 0 near inf
    return not _descartes(
        lambda q, depth: _root_inside(_image(q, Fraction(lo), hi), depth, unbounded), c
    )[1]


# --- batched float certificate in the Bernstein form ---

_BERNSTEIN_DEPTH = 40  # bisection levels before a column is left undecided
_BERNSTEIN_CELLS = 64  # open cells a column may keep before it is left undecided
_BLOCK = 56  # de Casteljau levels per product; C(56, 28) < 2^53 keeps weights exact
_BLOCK_ROUNDING = 2.0**-51  # error of one product, per term; see bernstein_verdicts


@functools.cache
def _weights() -> tuple[np.ndarray, np.ndarray]:
    """The de Casteljau weights w[t, l] = C(t, l) / 2^t, l <= t <= _BLOCK,
    zero above the diagonal, each an exact double, and the same table
    reversed in both axes; built once, read-only."""
    w = np.zeros((_BLOCK + 1, _BLOCK + 1))
    for t in range(_BLOCK + 1):
        w[t, : t + 1] = [math.comb(t, l) / 2.0**t for l in range(t + 1)]
    flipped = w[::-1, ::-1].copy()
    w.flags.writeable = flipped.flags.writeable = False
    return w, flipped


def _blocks(m: int) -> tuple[int, int]:
    """(blocks, levels per block) of a split at degree m: the fewest blocks
    of at most _BLOCK levels, all of one size but a shorter last one."""
    blocks = max(1, -(-m // _BLOCK))
    return blocks, -(-m // blocks)


def _split(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint de Casteljau subdivision of Bernstein coefficient columns
    c (m + 1, cells), m >= 1: the coefficients of the left and right halves
    of each cell.  The value at the midpoint is left[-1], and right[0] the
    same value from another product.

    Level k of the de Casteljau triangle is c_i^(k) = sum_l w[k, l] c_(i+l),
    and left[k] = c_0^(k), right[m - k] = c_(m-k)^(k).  The m levels go in
    blocks of b <= _BLOCK: from the row of level s, one product over its
    first b + 1 entries gives left at levels s + 1..s + b, one over its last
    b + 1 entries right (with the reversed table, as w[t, l] = w[t, t - l]),
    and one banded product with w[b] moves the row on to level s + b."""
    c = np.ascontiguousarray(c)
    m = len(c) - 1
    left = np.empty_like(c)
    right = np.empty_like(c)
    left[0], right[m] = c[0], c[m]
    w, flipped = _weights()
    b = _blocks(m)[1]
    for s in range(0, m, b):
        t = min(b, m - s)
        np.matmul(w[1 : t + 1, : t + 1], c[: t + 1], out=left[s + 1 : s + t + 1])
        np.matmul(
            flipped[_BLOCK - t : _BLOCK, _BLOCK - t :],
            c[-t - 1 :],
            out=right[m - s - t : m - s],
        )
        if s + t < m:
            # the windows c[i : i + b + 1] of the C-ordered row, a
            # (rows, b + 1, cells) view that is only read
            shape = (len(c) - b, b + 1, c.shape[1])
            rows = np.ndarray(shape, c.dtype, c, strides=c.strides[:1] + c.strides)
            c = np.matmul(w[b, : b + 1], rows)
    return left, right


def bernstein_verdicts(a: np.ndarray) -> np.ndarray:
    """Certified verdicts on {no root in (0, inf)} for the polynomials
    sum_k a[k, j] C(n, k) x^k, one per float column of a (n + 1, B).

    +1: certified no positive root (the polynomial keeps the sign of a_0 on
    all of (0, inf)); -1: certified positive root; 0: undecided (a_0 = 0,
    the zero polynomial, tangencies, values within the rounding bound on a
    whole interval), for the exact no_positive_roots or is_persistent.

    Under y = x / (1 + x) the polynomial is (1 - y)^-n B(y) with
    B(y) = sum_k a_k C(n, k) y^k (1 - y)^(n - k), so a column is exactly the
    Bernstein coefficient vector of B on (0, 1), whose roots are the
    polynomial's positive roots.  Each column is scaled by an exact power of
    two so that its largest |a_k| lies in [1, 2), and by the sign s of a_0:
      * s a_n < 0 (B(0) and B(1) differ in sign) certifies a root;
      * a cell whose coefficients all exceed e_d holds no root (B > 0 on
        the closed cell, as a convex combination of positive values); at
        depth 0, e_0 = 0 and this is Descartes' rule of signs;
      * the other cells are bisected by midpoint de Casteljau, on all
        columns' cells at once, and a midpoint value below -e_(d+1) certifies
        a root between 0 and that point.
    Rounding (Higham 2002, ch. 3; Moore, Kearfott & Cloud 2009): _split
    computes every value as one product sum_l w_l r_l of at most b + 1
    exact, nonnegative weights that sum to 1 (b <= _BLOCK levels per block,
    see _split) with computed values r_l below 3 in magnitude (the exact
    values are convex combinations of the scaled column, below 2, and the
    errors below stay under 1 for any n under 10^13).  In any order of
    summation, fused or not, the product errs from sum_l w_l r_l by at most
    gamma_(b+1) sum_l w_l |r_l| < 3 (b + 1) 2^-53 (1 + 2^-46), plus 2^-1075
    for each term that underflows, in all below (b + 1) 2^-51; the errors
    already in the r_l pass through as a convex combination and do not grow.
    A value at level k of a split is ceil(k / b) products deep, so one split
    at degree n adds at most rho = ceil(n / b) (b + 1) 2^-51, and a value at
    depth d errs by at most e_d = d rho plus the 2^-1075 of a scaling that
    underflowed; a double strictly beyond e_d clears that last term by its
    own ulp.  Every verdict is therefore either certified or left to the
    exact path.

    The live columns are copied once into one C-ordered block, and every
    later gather keeps that order (take and compress, not a[:, index], which
    numpy returns in Fortran order).  Every step reduces or compares across
    the few coefficient rows of each column, and in Fortran order numpy runs
    those one column at a time, some 30 times slower at n = 1.  Whatever the
    layout of a, every later step sees the same C-ordered block, so the
    verdicts do not depend on it.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or len(a) == 0:
        raise ValueError(f"need a (n + 1, B) block of columns, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite")
    n = len(a) - 1
    verdict = np.zeros(a.shape[1], dtype=np.int8)
    sign = np.sign(a[0])
    verdict[sign * a[-1] < 0.0] = -1
    live = np.flatnonzero((sign != 0.0) & (verdict == 0))
    if not len(live):
        return verdict
    block = a.take(live, axis=1)  # C-ordered, unlike a[:, live]
    _, exponent = np.frexp(np.abs(block).max(axis=0))
    cells = np.ldexp(block * sign[live], 1 - exponent)
    blocks, b = _blocks(n)
    rho = blocks * (b + 1) * _BLOCK_ROUNDING  # the error one split adds
    owner = np.arange(len(live))
    rooted = np.zeros(len(live), dtype=bool)
    undecided = np.zeros(len(live), dtype=bool)
    for depth in range(_BERNSTEIN_DEPTH + 1):
        open_ = cells.min(axis=0) <= depth * rho
        # a column still open at the depth cap is undecided, and so is one
        # with more than _BERNSTEIN_CELLS open cells: near a tangency the
        # values stay within the rounding bound on a whole interval, whose
        # cells would double at every level
        crowd = _BERNSTEIN_CELLS if depth < _BERNSTEIN_DEPTH else 0
        undecided |= np.bincount(owner[open_], minlength=len(live)) > crowd
        open_ &= ~undecided[owner]
        if not open_.any():
            break
        left, right = _split(cells.compress(open_, axis=1))
        owner = owner[open_]
        rooted[owner[left[-1] < -(depth + 1) * rho]] = True
        keep = ~rooted[owner]
        cells = np.concatenate(
            (left.compress(keep, axis=1), right.compress(keep, axis=1)), axis=1
        )
        owner = np.concatenate((owner[keep], owner[keep]))
    verdict[live] = np.where(rooted, -1, np.where(undecided, 0, 1))
    return verdict


# --- location: Descartes isolation and refinement ---


def _cauchy_bound(c: Sequence[int]) -> int:
    """Power-of-two upper bound, via Cauchy's bound, on all positive roots."""
    lead = abs(c[-1])
    rest = max((abs(v) for v in c[:-1]), default=0)
    b = 1 + (rest + lead - 1) // lead
    return 1 << b.bit_length()


def _isolating_intervals(
    c: Sequence[int], max_depth: int | None
) -> list[tuple[Fraction, Fraction, int]] | None:
    """Sorted isolating intervals (lo, hi, s) of the positive roots of c:
    a root in the open (lo, hi), s the sign just right of lo, or the root
    lo = hi, s = 0; None at max_depth.  Descartes bisection runs on c(B y),
    B the power-of-two Cauchy bound, so every end is dyadic."""
    bound = _cauchy_bound(c)
    cells = list(_isolate_open01([ci * bound**i for i, ci in enumerate(c)], max_depth))
    if None in cells:
        return None
    return sorted(
        (Fraction(lo * bound, 1 << k), Fraction(hi * bound, 1 << k), s)
        for lo, hi, k, s in cells
    )


def _refine_on_ints(
    ints: Sequence[int], lo: Fraction, hi: Fraction, s_lo: int, tol: float
) -> float:
    """Bisect the isolating interval (lo, hi) of a simple root of ints to
    width tol on integer numerators over a denominator that doubles each
    step (isolation leaves dyadic ends).  s_lo is the sign just right of lo;
    the ends, either of which may be a root, are never evaluated.  The
    floats returned are correctly rounded quotients, as Fraction's are."""
    den = math.lcm(lo.denominator, hi.denominator)
    lo_num, hi_num = int(lo * den), int(hi * den)
    while (hi_num - lo_num) / den > tol:
        mid = lo_num + hi_num
        den *= 2
        s_mid = _sign_at(ints, mid, den)
        if s_mid == 0:
            return mid / den
        if s_mid == s_lo:
            lo_num, hi_num = mid, 2 * hi_num
        else:
            lo_num, hi_num = 2 * lo_num, mid
    return (lo_num + hi_num) / (2 * den)


def locate_positive_roots(p: DyadicPolynomial, tol: float = 1e-12) -> list[float]:
    """All distinct positive roots, sorted, isolated exactly by Descartes
    bisection and bisected to width tol; a root at a split point comes out
    exactly.  At a repeated root bisection hits its depth cap, and the
    squarefree part is isolated instead (_descartes); the chain count
    (count_positive_roots) is an independent check on the result."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if p.is_zero():
        raise ValueError("the zero polynomial has no located roots")
    ints, intervals = _descartes(_isolating_intervals, p.scaled_integers())
    return [
        float(lo) if lo == hi else _refine_on_ints(ints, lo, hi, s, tol)
        for lo, hi, s in intervals
    ]
