"""Signed log-domain arithmetic and factorial helpers.

Everything downstream works with quantities like sqrt(2^k / k!) * x^k * e^(-x^2)
whose factors overflow or underflow IEEE doubles long before the quantity
itself becomes uninteresting.  A ``SignedLogValue`` stores the sign and the
natural log of the magnitude, which keeps every operation in a comfortable
numeric range for indices up to several million.

``log_factorial`` is the package's only ln k!: exact products up to k = 20,
then the formulas of Cephes' ``lgam`` (S. L. Moshier, *Cephes Mathematical
Library*), the code behind ``scipy.special.gammaln``, with its bits.

All functions here are pure and stateless; they can be called concurrently
from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "SignedLogValue",
    "SLV_ZERO",
    "from_real",
    "slv_product",
    "slv_sum",
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


@dataclass(frozen=True, slots=True)
class SignedLogValue:
    """A real number as (sign, log magnitude).

    ``sign`` is -1, 0 or +1; ``log_mag`` is the natural log of the absolute
    value and is ignored (normalised to 0.0) when the value is zero.
    """

    sign: int
    log_mag: float = 0.0

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.sign != 0 and not math.isfinite(self.log_mag):
            raise DomainError("log magnitude of a nonzero value must be finite")

    def to_real(self) -> float:
        """Back to an ordinary float; saturates to +/-inf or 0.0 outside
        the representable range of doubles."""
        if self.sign == 0:
            return 0.0
        if self.log_mag > 709.7:
            return math.inf if self.sign > 0 else -math.inf
        if self.log_mag < -745.2:
            return 0.0
        return self.sign * math.exp(self.log_mag)

    def scaled(self, log_factor: float) -> "SignedLogValue":
        """Multiply by exp(log_factor) without leaving the log domain."""
        if self.sign == 0:
            return self
        return SignedLogValue(self.sign, self.log_mag + log_factor)


SLV_ZERO = SignedLogValue(0)


def from_real(v: float) -> SignedLogValue:
    """Exact conversion of a finite float into sign/log-magnitude form."""
    if not math.isfinite(v):
        raise DomainError(f"cannot represent non-finite value {v!r}")
    if v == 0.0:
        return SLV_ZERO
    return SignedLogValue(1 if v > 0 else -1, math.log(abs(v)))


def slv_product(a: SignedLogValue, b: SignedLogValue) -> SignedLogValue:
    """Product: signs multiply, log magnitudes add, zero absorbs."""
    if a.sign == 0 or b.sign == 0:
        return SLV_ZERO
    return SignedLogValue(a.sign * b.sign, a.log_mag + b.log_mag)


def slv_sum(terms: Sequence[SignedLogValue] | Iterable[SignedLogValue]) -> SignedLogValue:
    """Signed log-sum-exp of a non-empty collection of terms.

    The sum is anchored at the maximum log magnitude, the rescaled terms are
    accumulated with ``math.fsum`` (exact, hence order independent), and a
    result below ``CANCELLATION_FLUSH`` of the dominant term is flushed to
    exact zero.
    """
    terms = list(terms)
    if not terms:
        raise DomainError("slv_sum requires at least one term")
    anchor = -math.inf
    for t in terms:
        if t.sign != 0 and t.log_mag > anchor:
            anchor = t.log_mag
    if anchor == -math.inf:  # every term is zero
        return SLV_ZERO
    acc = math.fsum(
        t.sign * math.exp(t.log_mag - anchor) for t in terms if t.sign != 0
    )
    if abs(acc) < CANCELLATION_FLUSH:
        return SLV_ZERO
    return SignedLogValue(1 if acc > 0 else -1, anchor + math.log(abs(acc)))


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
