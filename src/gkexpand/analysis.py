"""Weight statistics of combo expansions: per-block masses and the
logarithmic divergence law.

A block's r rows each hold one weight, ``blocks.row_log_weights``, shared
by the row's c slots, so a block mass is a sum over r rows of c lambda^p,
and no expansion is built.

The block masses follow G(n, p) ~ A(p) / b(p)^n with A(p) =
135 * 4^(p-1) / sqrt(90 pi)^p and b(p) = 4^(p-1).  These are large-n
asymptotics, approached only like 1/2^n: at p = 3 the block 4 -> 5 mass
ratio sits at least 10.166% above 4^(1-p), so no fixed window around the
asymptote is a fair gate at small n.  Gates use :func:`block_mass_bounds`
instead, a rigorous bracket on each finite-n mass from Robbins' Stirling
bounds and an integral comparison; the asymptote is reported alongside.
Identities, by contrast, are held to 1e-11 .. 1e-13.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import blocks
from .errors import DomainError, RangeError
from .expansion import DEFAULT_BLOCK_CAP, check_max_block
from .numerics import log_factorial

__all__ = [
    "WeightStats",
    "block_mass",
    "block_mass_bounds",
    "divergence_profile",
    "predicted_block_mass",
    "model_divergence_slope",
    "amplitude",
    "decay_base",
]


def amplitude(p: float) -> float:
    """A(p) = 135 * 4^(p-1) / sqrt(90 pi)^p."""
    return predicted_block_mass(0, p)


def decay_base(p: float) -> float:
    """b(p) = 4^(p-1)."""
    return 4.0 ** (p - 1.0)


def predicted_block_mass(n: int, p: float) -> float:
    """Asymptotic prediction A(p) / b(p)^n for the block-n mass, formed in
    the log domain: the factors overflow for large p, the mass only
    underflows."""
    log_a = math.log(135.0) - 0.5 * p * math.log(90.0 * math.pi)
    return math.exp(log_a + (1 - n) * (p - 1.0) * math.log(4.0))


def model_divergence_slope() -> float:
    """The D of the surrogate weight law D/k: 135 / (sqrt(90 pi) ln 4)."""
    return 135.0 / (math.sqrt(90.0 * math.pi) * math.log(4.0))


@dataclass(frozen=True, slots=True)
class WeightStats:
    """Divergence profile of a combo expansion's weight sequence."""

    p: float
    per_block: tuple[tuple[int, float], ...]
    partial_sums: tuple[tuple[int, float], ...]
    model_D: float
    fitted_slope: float
    # per partial sum: the fit over blocks 3..n, None before block 4
    running_slopes: tuple[float | None, ...]


def block_mass(n: int, p: float) -> float:
    """Exact sum of lambda^p over block n's terms (compensated), for blocks
    1..DEFAULT_BLOCK_CAP: c times each row's lambda^p, summed over the rows.

    fsum is correctly rounded, so one c v term gives the bits of c copies
    of v.  Each term is scaled, never the sum: c is a power of two, so c v
    is exact even for a subnormal v, but c times a rounded subnormal sum
    is not.
    """
    if not p >= 1.0:  # NaN too
        raise DomainError("p must be >= 1")
    if not 1 <= n <= DEFAULT_BLOCK_CAP:
        raise RangeError(f"block {n} outside 1..{DEFAULT_BLOCK_CAP}")
    c = blocks.block_spec(n).c
    with np.errstate(under="ignore"):
        return math.fsum((c * np.power(np.exp(blocks.row_log_weights(n)), p)).tolist())


def _power_integral(a: float, b: float, p: float) -> float:
    """Integral of t^(-p/2) over [a, b], 0 < a < b, without cancellation."""
    s = 1.0 - 0.5 * p
    log_ratio = math.log1p((b - a) / a)
    if s == 0.0:  # p = 2: the log antiderivative
        return log_ratio
    return a**s * math.expm1(s * log_ratio) / s


def block_mass_bounds(n: int, p: float) -> tuple[float, float]:
    """Rigorous bracket (lo, hi) on the block-n mass G(n, p), n >= 2.

    G(n, p) = c^(1-p) * sum over k in [y, y+r) of m_k^(2p), and Robbins'
    Stirling bounds give m_k^2 = (2 pi k)^(-1/2) e^(-theta_k) with
    1/(12k+1) < theta_k < 1/(12k).  Since t^(-p/2) decreases, comparing
    the sum with integrals of f(t) = (2 pi t)^(-p/2) gives

        c^(1-p) e^(-p/(12y)) int_y^(y+r) f  <=  G(n, p)  <=  c^(1-p) int_(y-1)^(y+r-1) f.

    Block 1 holds the k = 0 term (m_0 = 1, outside the Stirling form)
    and is rejected.  The bracket is widened by the rounding of the
    computed masses: ln m_k^2 = k ln k - k - ln k! cancels terms of size
    ln k!, so it is good to a few eps * ln k! (4 is allowed; 1.7 is the
    largest seen against exact values on block 8), an error that m_k^(2p)
    multiplies by p.  That allowance grows like 4^n and passes the whole
    lower end from block 21 on; G(n, p) > 0, so the lower end is clamped
    at 0.0.
    """
    if not 1.0 <= p < math.inf:  # NaN too; at p = inf the bracket is (nan, nan)
        raise DomainError(f"p must be finite and >= 1, got {p!r}")
    if n < 2:
        raise DomainError("the mass bracket needs n >= 2 (block 1 holds the k = 0 term)")
    spec = blocks.block_spec(n)
    y, r = spec.y, spec.r
    scale = spec.c ** (1.0 - p) * (2.0 * math.pi) ** (-0.5 * p)
    lo = scale * math.exp(-p / (12.0 * y)) * _power_integral(y, y + r, p)
    hi = scale * _power_integral(y - 1, y + r - 1, p)
    # ln k! at the block's largest k; the + 1 covers exp, power and fsum
    slack = 4.0 * sys.float_info.epsilon * p * (log_factorial(y + r - 1) + 1.0)
    return max(lo * (1.0 - slack), 0.0), hi * (1.0 + slack)


def divergence_profile(max_block: int) -> WeightStats:
    """Partial weight sums at block boundaries and their log-law fit, over
    blocks 1..max_block.

    The partial sum S(m) is recorded at m = y_2, y_3, ...; the slope of S
    against ln m, fitted over blocks >= 3, estimates the D of the
    surrogate law lambda*_k = D/k.  The fit is also reported as it runs,
    block by block.
    """
    if max_block < 4:
        raise DomainError("divergence profile needs at least 4 blocks")
    check_max_block(max_block)
    per_block = []
    partial = []
    slopes: list[float | None] = []
    running = 0.0
    fit_pts: list[tuple[float, float]] = []
    for n in range(1, max_block + 1):
        g = block_mass(n, 1.0)
        per_block.append((n, g))
        running = math.fsum([running, g])
        boundary = blocks.block_spec(n).next_start
        partial.append((boundary, running))
        if n >= 3:
            fit_pts.append((math.log(boundary), running))
        if len(fit_pts) < 2:
            slopes.append(None)
            continue
        a = np.array(fit_pts)
        design = np.vstack([a[:, 0], np.ones(len(a))]).T
        slopes.append(float(np.linalg.lstsq(design, a[:, 1], rcond=None)[0][0]))
    return WeightStats(
        p=1.0,
        per_block=tuple(per_block),
        partial_sums=tuple(partial),
        model_D=model_divergence_slope(),
        fitted_slope=slopes[-1],
        running_slopes=tuple(slopes),
    )
