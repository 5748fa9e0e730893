"""Factorials and the cancellation threshold of signed log-domain sums.

Everything downstream works with quantities like sqrt(2^k / k!) * x^k * e^(-x^2)
whose factors overflow or underflow IEEE doubles long before the quantity
itself becomes uninteresting.  They are held as (signs, logs) arrays, the
sign and the natural log of the magnitude (``basis.log_psi``), which keeps
every operation in a comfortable numeric range for indices up to several
million.

``log_factorial`` is the package's only ln k!: exact products up to k = 20,
then the formulas of Cephes' ``lgam`` (S. L. Moshier, *Cephes Mathematical
Library*), the code behind ``scipy.special.gammaln``, with its bits.

``fsum_segments`` and ``fsum_with_rest`` return the bits of ``math.fsum``
from numpy arrays, without a list of Python floats.

All functions here are pure and stateless.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "log_factorial",
    "log_factorial_array",
    "CANCELLATION_FLUSH",
    "fsum_segments",
    "fsum_with_rest",
    "half_gap",
]

# Sums whose result is smaller than this fraction of the dominant term are
# flushed to exact zero: bump cross-terms sit around 1e-11 of a peak, true
# cancellations land at rounding level, and a fixed threshold keeps tests
# deterministic.
CANCELLATION_FLUSH = 1e-14

_LS2PI = 0.91893853320467274178  # ln sqrt(2 pi), as Cephes writes it
# P(1/x^2), highest power first: Cephes' minimax fit for 13 <= x < 1000, and
# the Stirling series above
_MINIMAX = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
            7.93650340457716943945e-4, -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_STIRLING = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)


def _lgam(x, coefs=_STIRLING, log=math.log):
    """ln Gamma(x) for x >= 13, in Cephes' order of operations: a float
    with ``math.log`` or an array with ``np.log``."""
    p = 1.0 / (x * x)
    poly = coefs[0]
    for c in coefs[1:]:
        poly = poly * p + c
    return (x - 0.5) * log(x) - x + _LS2PI + poly / x


# ln k! for k < _TABLE_SIZE: exact integer products up to k = 20
_TABLE_SIZE = 999
_LOG_FACTORIALS = np.array(
    [math.log(math.factorial(k)) for k in range(21)]
    + [_lgam(k + 1.0, _MINIMAX) for k in range(21, _TABLE_SIZE)]
)


def log_factorial(k: int) -> float:
    """ln(k!) for an integer k >= 0: the table below 999, the Stirling series above."""
    if k < 0:
        raise DomainError(f"factorial undefined for negative k={k}")
    if k < _TABLE_SIZE:
        return float(_LOG_FACTORIALS[k])
    return _lgam(float(k) + 1.0)


def log_factorial_array(ks: np.ndarray) -> np.ndarray:
    """Vectorised ln(k!) for integer-valued ``ks``: a 0-d input takes :func:`log_factorial`,
    an array ``np.log`` for ln x above 998, within 2 ulp of the scalar path."""
    ks = np.asarray(ks, dtype=np.float64)
    if np.any(ks < 0):
        raise DomainError("factorial undefined for negative indices")
    if ks.ndim == 0:
        return np.float64(log_factorial(int(ks)))
    out = _LOG_FACTORIALS[np.minimum(ks, _TABLE_SIZE - 1).astype(np.int64)]
    big = ks >= _TABLE_SIZE
    if np.any(big):
        out[big] = _lgam(ks[big] + 1.0, log=np.log)
    return out


# ----------------------------------------------------------------------
# Exact sums (Rump, Ogita & Oishi, "Accurate Floating-Point Summation",
# SIAM J. Sci. Comput. 2008).  Only +, -, abs, max, frexp and ldexp touch
# the terms, all exact or correctly rounded IEEE operations, so every numpy
# SIMD level gives the same bits.

# A segment whose largest |term| is not below this (or is not finite) is
# summed by math.fsum: below it, no partial sum of fewer than 2^60 terms
# overflows, here or inside fsum.
_EXACT_LIMIT = 2.0**900


def _extract(x, starts, lens, len_exp):
    """One error-free pass of ExtractVector: (per-segment sum of q, r, max|x|).

    sigma = 2^k >= 2 * len * max|x| per segment, and q = (sigma + x) - sigma
    and r = x - q are exact, with q a multiple of 2^(k-53) and
    sum |q| < sigma; so every partial sum of a segment's q is a multiple of
    2^(k-53) below 2^k, representable, and the sum is exact in any order.
    """
    top = np.maximum.reduceat(np.abs(x), starts)
    sigma = np.ldexp(1.0, np.frexp(top)[1] + len_exp + 1)
    if sigma.size > 1:  # a single segment's sigma broadcasts as it is
        sigma = np.repeat(sigma, lens)
    q = (sigma + x) - sigma
    return np.add.reduceat(q, starts), x - q, top


def _split(x, starts, lens):
    """Per nonempty segment, (t1, t2, bound, ok): the segment's exact sum is
    t1 + t2 + rho with |rho| <= bound, a power of two or 0, wherever ok;
    where not ok (a term not finite or not below _EXACT_LIMIT) fsum decides.
    """
    len_exp = np.frexp(lens.astype(np.float64))[1]  # len < 2^len_exp
    with np.errstate(invalid="ignore", over="ignore"):
        t1, r, top = _extract(x, starts, lens, len_exp)
        t2, r, _ = _extract(r, starts, lens, len_exp)
        rest = np.maximum.reduceat(np.abs(r), starts)
    bound = np.where(rest > 0.0, np.ldexp(1.0, np.frexp(rest)[1] + len_exp), 0.0)
    return t1, t2, bound, top < _EXACT_LIMIT


def _rounded(t1, t2, bound):
    """(s, certain): s = fl(t1 + t2), and whether s is the correctly rounded
    t1 + t2 + rho for every |rho| <= bound.

    TwoSum gives t1 + t2 = s + err exactly.  With h = ``half_gap(s)``, the
    exact sum lies strictly inside s's rounding interval, tie excluded,
    when |err| + bound < h, and rounding is monotone, so
    fl(|err| + bound) < h implies it.  At bound == 0 the exact sum is
    t1 + t2, whose correctly rounded value s is, ties to even as in fsum.
    s == 0 is never certain: fsum's sign-of-zero rules decide it.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        s = t1 + t2
        b = s - t1
        err = (t1 - (s - b)) + (t2 - b)
        return s, ((bound == 0.0) | (np.abs(err) + bound < half_gap(s))) & (s != 0.0)


def half_gap(x: np.ndarray) -> np.ndarray:
    """Half the smaller gap between each finite x != 0 and its two neighbour
    doubles: 2^(e-54) for x = m 2^e, 1/2 <= |m| < 1, or 2^(e-55) when
    |m| = 1/2 (x a power of two, whose gap below is half its gap above).
    Every real strictly closer to x than this rounds to x.  For
    |x| <= 2^-1021 the true half-gap, 2^-1075, is no double, and this
    comes out 0.
    """
    m, e = np.frexp(x)
    return np.ldexp(1.0, e - 54 - (np.abs(m) == 0.5))


def fsum_segments(x: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each consecutive segment of ``x``, ``lens[i]`` terms
    long, bit and sign for bit and sign.

    Two exact extraction passes and one certified rounding per segment, all
    segments at once; a segment the rounding cannot certify (a near-tie, a
    zero sum, a term not finite or at 2^900 and beyond) is summed by
    ``math.fsum``.  An empty segment sums to 0.0, as in fsum.
    """
    x = np.asarray(x, dtype=np.float64)
    lens = np.asarray(lens, dtype=np.int64)
    if x.ndim != 1 or lens.ndim != 1 or np.any(lens < 0) or lens.sum() != x.size:
        raise DomainError("segment lengths must be >= 0 and add up to the length of x")
    out = np.zeros(lens.size)
    live = np.flatnonzero(lens)
    if live.size:
        ends = np.cumsum(lens)
        live_lens = lens[live]
        t1, t2, bound, ok = _split(x, ends[live] - live_lens, live_lens)
        s, certain = _rounded(t1, t2, bound)
        out[live] = s
        for k in live[~(ok & certain)]:
            out[k] = math.fsum(x[ends[k] - lens[k] : ends[k]].tolist())
    return out


def fsum_with_rest(x: np.ndarray, rest: float) -> float | None:
    """``math.fsum`` over the 1-d array ``x`` and any terms left out of it
    whose magnitudes sum to at most ``rest`` >= 0, bit and sign for bit and
    sign; or None where one split, its rounding certified against
    2 max(bound, rest) >= bound + rest, cannot prove it: a near-tie, a zero
    sum, a term not finite or at 2^900 and beyond, or an empty ``x``."""
    if not rest >= 0.0:
        raise DomainError(f"rest must be a bound >= 0, got {rest!r}")
    if not x.size:
        return None
    t1, t2, bound, ok = _split(x, np.zeros(1, np.int64), np.array([x.size]))  # one segment
    s, certain = _rounded(t1, t2, 2.0 * max(float(bound[0]), rest))
    return float(s[0]) if ok[0] and certain[0] else None
