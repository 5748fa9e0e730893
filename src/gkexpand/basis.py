"""The raw basis functions psi_k, their peaks, the error of their bump
model, and the sup-norms of the domain-scaled variants h_k = k * psi_k.

psi_k(x) = sqrt(2^k / k!) * x^k * e^(-x^2) never exceeds 1 in magnitude, but
its factors explode, so every evaluation goes through the log domain:

    log |psi_k(x)| = (k ln 2 - ln k!) / 2 + k ln|x| - x^2.

Accuracy note: the log is accumulated in doubles, so the achievable relative
accuracy of a value degrades like a few ulps of the largest log term
(roughly k * 1e-16 near the peak).  That is far below every tolerance used
by the consumers in this package, which start at 1e-12 for small k.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .numerics import log_factorial_array

__all__ = [
    "PsiIndex",
    "PeakInfo",
    "HEnvelope",
    "peak",
    "bump_error",
    "fit_h_envelope",
    "log_psi",
    "log_index_half",
    "log_psi_from_half",
    "log_abs_psi_terms",
    "log_abs_psi_many",
    "log_m_squared_many",
    "log_h_sup_many",
]

# Series index of a basis function; kept as a plain int.
PsiIndex = int

_LN2 = math.log(2.0)

# Grid pitch for empirical extremum scans.  The bumps have standard
# deviation 1/2, so a 1e-3 pitch cannot skip a peak.
GRID_STEP = 1e-3

MAX_INDICES = 10**7  # k_max or horizon: 80 MB per array, 3.4x block 8's 2,949,075 terms
MAX_BUMP_HALFWIDTH = 1000.0  # 2 * 10^6 grid points, 2,000 bump standard deviations


@dataclass(frozen=True, slots=True)
class PeakInfo:
    """Location and size of the maximum of psi_k.

    ``m`` is the linear sup-norm (always representable: it decays only like
    k^(-1/4)); ``m_squared_log`` is ln(m^2) computed directly in the log
    domain, which is the form the weight laws consume.
    """

    x_peak: float
    m: float
    m_squared_log: float

    @property
    def log_m(self) -> float:
        return 0.5 * self.m_squared_log


def _check_index(k: int) -> int:
    if not 0 <= k < math.inf or k != int(k):  # NaN and +-inf too
        raise DomainError(f"basis index must be a non-negative integer, got {k!r}")
    return int(k)


def log_psi(ks, x) -> tuple[np.ndarray, np.ndarray]:
    """(signs, log |psi_k(x)|) for integer indices ``ks`` (any dtype)
    broadcast against ``x``, a single point or an array of points.

    Signs are floats in {-1, 0, +1}; the log is -inf where psi_k(x) = 0.  Every
    psi evaluation in the package goes through this function or, with
    the index half computed once, through :func:`log_psi_from_half` or
    (x > 0 only, no signs) :func:`log_abs_psi_terms`.
    """
    return log_psi_from_half(ks, log_index_half(ks), x)


def log_index_half(ks) -> np.ndarray:
    """(k ln 2 - ln k!) / 2, the part of log |psi_k| that does not depend on x."""
    kf = np.asarray(ks, dtype=np.float64)
    return 0.5 * (kf * _LN2 - log_factorial_array(kf))


def log_psi_from_half(ks, half, x) -> tuple[np.ndarray, np.ndarray]:
    """:func:`log_psi` with ``half = log_index_half(ks)`` supplied, for a
    caller that evaluates the same indices at many points; the bits are
    those of ``log_psi(ks, x)``."""
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim == 0:
        x = float(xs)
        flip = None if x > 0.0 else 1.0
        # math.log, not np.log: they differ in the last bit on some doubles
        lx = math.log(abs(x)) if x else 0.0  # psi's log at x = 0 is set apart
        return _log_psi_terms(ks, half, lx, x * x, flip, True if x == 0.0 else None)
    zero = xs == 0.0
    with np.errstate(divide="ignore"):
        lx = np.log(np.abs(xs))
    if zero.any():
        lx[zero] = 0.0  # psi's log at x = 0 is set apart
    else:
        zero = None
    flip = None if np.all(xs > 0.0) else np.where(xs > 0.0, 0.0, 1.0)
    return _log_psi_terms(ks, half, lx, xs * xs, flip, zero)


def _log_psi_terms(ks, half, lx, sq, flip, zero) -> tuple[np.ndarray, np.ndarray]:
    """(signs, logs) of psi_k from the per-point terms ln|x|, x^2, ``flip``
    (1.0 where odd k flip the sign, x not above 0) and ``zero`` (x = 0):
    floats for one point, or arrays that broadcast against ``ks``.  ``flip`` and
    ``zero`` are None where no point has them.  :func:`log_abs_psi_terms`,
    then the signs."""
    kf = np.asarray(ks, dtype=np.float64)
    logs = log_abs_psi_terms(kf, half, lx, sq)
    if flip is None:
        return np.ones(logs.shape), logs
    signs = 1.0 - (2.0 * flip) * _parity(ks)
    if zero is not None:
        k_zero = kf == 0
        logs = np.where(zero, np.where(k_zero, 0.0, -np.inf), logs)
        signs = np.where(zero, k_zero, signs)
    return signs, logs


def log_abs_psi_terms(kf: np.ndarray, half, lx, sq) -> np.ndarray:
    """log |psi_k(x)| = k ln|x| + half - x^2 from float indices ``kf``, their
    index half and the terms ln|x| and x^2 (floats, or arrays that broadcast
    against ``kf``): the one place the formula is written."""
    logs = kf * lx
    logs += half
    logs -= sq
    return logs


def _parity(ks) -> np.ndarray:
    """k mod 2 from an int64 view of the indices (no float modulo)."""
    return np.asarray(ks).astype(np.int64, copy=False) & 1


def log_abs_psi_many(ks: np.ndarray, x: float) -> np.ndarray:
    """log |psi_k(x)| for an array of indices at a single point.  No package
    code calls it; the benchmark harness (``perfbench/tracing.py``) traces
    it by name."""
    return log_psi(ks, x)[1]


def peak(k: PsiIndex) -> PeakInfo:
    """Peak location x_k = sqrt(k/2) and sup-norm m_k = sqrt(k^k/k!) e^(-k/2).

    k = 0 is the constant-times-Gaussian term with its maximum 1 at x = 0.
    """
    k = _check_index(k)
    m_squared_log = float(log_m_squared_many(k))
    return PeakInfo(math.sqrt(k / 2.0), math.exp(0.5 * m_squared_log), m_squared_log)


def _log_index(ks: np.ndarray) -> np.ndarray:
    """ln k, with ln 0 read as 0.  A scalar takes math.log, as in
    :func:`log_psi`, so the scalar paths keep their bits."""
    safe = np.maximum(ks, 1.0)
    return math.log(safe) if ks.ndim == 0 else np.log(safe)


def log_m_squared_many(ks: np.ndarray) -> np.ndarray:
    """ln(m_k^2) = k ln k - k - ln k!, which is 0 for k = 0 (m_0 = 1)."""
    ks = np.asarray(ks, dtype=np.float64)
    return ks * _log_index(ks) - ks - log_factorial_array(ks)


def bump_error(k: PsiIndex, window_halfwidth: float) -> float:
    """Sup of |psi_k - bump| / m_k over a 1e-3 grid around the peak, for
    the Gaussian-bump model bump(x) = (2 pi k)^(-1/4) e^(-2 (x - x_k)^2).

    The window is [x_k - w, x_k + w]; the error is normalised by the
    sup-norm m_k so values are comparable across k.
    """
    k = _check_index(k)
    if k < 1:
        raise DomainError("bump error needs k >= 1")
    if not window_halfwidth > 0.0:
        raise DomainError("window halfwidth must be positive")
    if window_halfwidth > MAX_BUMP_HALFWIDTH:
        raise RangeError(f"window halfwidth {window_halfwidth!r} exceeds {MAX_BUMP_HALFWIDTH!r}")
    info = peak(k)
    steps = int(round(window_halfwidth / GRID_STEP))
    xs = info.x_peak + np.arange(-steps, steps + 1, dtype=np.float64) * GRID_STEP
    signs, logs = log_psi(k, xs)
    with np.errstate(under="ignore"):
        psi = signs * np.exp(logs)
    model = (2.0 * math.pi * k) ** -0.25 * np.exp(-2.0 * (xs - info.x_peak) ** 2)
    return float(np.max(np.abs(psi - model)) / info.m)


def log_h_sup_many(ks: np.ndarray, domain_edge: float) -> np.ndarray:
    """ln of the maximum of h_k over [0, N] for an array of indices.

    psi_k rises up to its peak sqrt(k/2), so the maximum is k m_k for
    k <= 2 N^2 and h_k(N) beyond; k = 0 gives 0 (h_0 = psi_0 peaks at 1).
    """
    ks = np.asarray(ks, dtype=np.float64)
    interior = 0.5 * log_m_squared_many(ks)  # 0 at k = 0
    boundary = log_psi(ks, domain_edge)[1]
    return _log_index(ks) + np.where(np.sqrt(ks / 2.0) <= domain_edge, interior, boundary)


@dataclass(frozen=True, slots=True)
class HEnvelope:
    """Fitted decay envelope A k^(3/4) e^(-B k) for the h_k sup-norms,
    checked on [k0, k_max]; ``sup_argmax``/``sup_log_value`` locate the
    global sup over all k >= 1."""

    domain_edge: float
    k0: int
    k_max: int
    B: float
    log_A: float
    sup_argmax: int
    sup_log_value: float

    def log_envelope(self, k: float | np.ndarray) -> float | np.ndarray:
        return self.log_A + 0.75 * np.log(k) - self.B * k

    @property
    def max_violation(self) -> float:
        """Largest excess of ln sup h_k over the envelope on [k0, k_max], net
        of rounding; <= 0 means the envelope holds.

        Each side is good to a few eps times the total size of its log terms;
        4 eps is allowed (1.5 is the most seen against exact values, N <= 5).
        For ln sup h_k that size is at most ln k + (k ln 2 + ln k! + k) / 2 +
        k |ln N| + N^2 on both branches (interior k <= 2 N^2 bounds k ln k);
        the envelope adds |log_A| + (3/4) ln k + B k.  Without the allowance
        the touch point k0 fails on its own rounding.
        """
        ks = np.arange(self.k0, self.k_max + 1, dtype=np.float64)
        edge = self.domain_edge
        size = (1.75 * np.log(ks) + 0.5 * (ks * _LN2 + log_factorial_array(ks) + ks)
                + abs(self.log_A) + ks * (abs(math.log(edge)) + abs(self.B)) + edge * edge)
        excess = log_h_sup_many(ks, edge) - self.log_envelope(ks)
        return float(np.max(excess - 4.0 * sys.float_info.epsilon * size))


def fit_h_envelope(domain_edge: float, k_max: int = 5000) -> HEnvelope:
    """Fit the decaying envelope that certifies uniform boundedness of h_k.

    The threshold k0 is the smallest integer above 2 e N^2 (the point where
    the boundary value starts shrinking geometrically), B follows from the
    log ratio at k0, and A is anchored so the envelope touches h_k0.  The
    fit is then checked against every k in [k0, k_max].
    """
    if not 0.0 < domain_edge < math.inf:
        raise DomainError(f"domain edge must be positive and finite, got {domain_edge!r}")
    if k_max > MAX_INDICES:
        raise RangeError(f"k_max {k_max} exceeds {MAX_INDICES}")
    crit = 2.0 * math.e * domain_edge * domain_edge
    if crit < 2.0**-1022:  # then k0 / crit in B = ln(k0 / crit) / 2 may overflow
        raise DomainError(
            f"domain edge {domain_edge!r} is too small: 2 e N^2 underflows below the normal range"
        )
    # k_max <= floor(crit) + 1, compared in floats: crit is inf for huge N
    if k_max - 1 <= crit:
        raise DomainError(f"k_max must exceed k0 = floor(2 e N^2) + 1, with 2 e N^2 = {crit:.6g}")
    k0 = int(crit) + 1
    B = 0.5 * math.log(k0 / crit)
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    logh = log_h_sup_many(ks, domain_edge)
    log_A = float(logh[k0 - 1] - 0.75 * math.log(k0) + B * k0)
    sup_idx = int(np.argmax(logh))
    return HEnvelope(
        domain_edge=domain_edge,
        k0=k0,
        k_max=k_max,
        B=B,
        log_A=log_A,
        sup_argmax=int(ks[sup_idx]),
        sup_log_value=float(logh[sup_idx]),
    )
