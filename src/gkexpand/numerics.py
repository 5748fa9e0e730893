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
