"""Truncated kernel expansions: raw, bounded-domain and block-recombined.

An :class:`Expansion` is an ordered list of (weight, basis function) pairs.
The three builders produce:

* ``raw``      -- psi_k with unit weights (normalised form: lambda_k = m_k^2,
                  basis psi_k / m_k);
* ``bounded``  -- h_k = k psi_k with lambda_k = 1/k^2 on a domain [0, N]
                  (the k = 0 term keeps psi_0 with weight 1 so that K(x, x)
                  still reconstructs to 1);
* ``combo``    -- sign-recombined rows of the integer blocks, normalised,
                  with lambda = (sup-norm)^2.

An expansion stores one per-term array, its log weights (a normalised raw
or bounded one keeps its log sup-norms too): the linear weights are their
exponentials, and a combo's log sup-norm is half its log weight.  Basis
values are computed per point as (signs, logs) arrays.  A combo keeps the
parts that do not depend on the point -- each block's index half of
log psi_k and its float sign pattern -- from the first point that touches
the block on (the :class:`Expansion` docstring bounds their bytes), and
only for the blocks points have touched, so a deep combo expansion (block 8
has ~2.9 million terms) stays cheap.

psi_k(x)^2 = e^(-2 x^2) (2 x^2)^k / k! is the Poisson(2 x^2) probability of
k, so at a point only a window of indices around 2 x^2 is above double
underflow.  For combo expansions :meth:`Expansion.term_window` finds the
blocks that hold it and :meth:`Expansion.basis_log_values` evaluates just
that slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis, blocks
from .errors import DomainError, RangeError
from .numerics import CANCELLATION_FLUSH, log_factorial

__all__ = [
    "Expansion",
    "build_raw",
    "build_bounded",
    "build_combo",
    "check_max_block",
    "DEFAULT_BLOCK_CAP",
]

# Deepest block built by default; raw indices then reach ~2.95e6, which is
# where the asymptotic constants have long stabilised.  A row weight's
# basis.log_m_squared_many loses about eps * ln k! to cancellation, which
# grows like 4^n past the cap.
DEFAULT_BLOCK_CAP = 8

# Terms whose log magnitude is provably below this are skipped.  exp()
# returns exactly 0.0 below -745.13, so the 20-unit margin covers the
# rounding of every computed log term (and of the scalar bound itself).
_LOG_NEGLIGIBLE = -765.0
# Floor of the wide window, summed when no term of a pair reaches 1e-300.
# It keeps every bit of the full-horizon sum, anchored on its top term T:
# - every term outside a window is below e^floor, for any partner point;
# - if T >= e^-765, T lies inside both narrow windows and anchors the sum;
#   a term outside the wide windows rescales to exp(< -765), exactly 0.0;
# - if T < e^-765, as with disjoint narrow windows, both sums are +0.0:
#   T + ln(horizon) < -745 for a horizon below e^20 ~ 4.8e8 terms (block 11;
#   build_combo stops at block 8 by default).
_LOG_WIDE = 2 * _LOG_NEGLIGIBLE

_LN2 = math.log(2.0)


class Expansion:
    """Ordered collection of weighted basis functions.

    The weights never change after construction.  A combo expansion also
    keeps a private cache, filled the first time a point touches a block
    and never emptied, of that block's point-independent constants: the
    index half of its raw indices (``basis.log_index_half``, 8 r c bytes)
    and its float sign pattern (8 c^2 bytes).  With c = r / 135 that is
    8 + 8/135 bytes per term of the touched blocks, under twice
    ``log_weights``.  The cached arrays are read-only and no returned
    array aliases them; ``build_combo`` fills none of them.
    """

    def __init__(
        self,
        scheme: str,
        log_weights: np.ndarray,
        *,
        domain_edge: float | None = None,
        max_block: int | None = None,
        log_sups: np.ndarray | None = None,
    ) -> None:
        if scheme not in ("raw", "bounded", "combo"):
            raise DomainError(f"unknown scheme {scheme!r}")
        self.scheme = scheme
        self.domain_edge = domain_edge
        self.max_block = max_block
        self.log_weights = np.asarray(log_weights, dtype=np.float64)
        self.log_weights.flags.writeable = False
        # log sup-norm of each raw or bounded basis function, given when the
        # weights have absorbed it; a combo's is 0.5 * log_weights
        self._log_sups = None if log_sups is None else np.asarray(log_sups, np.float64)
        if self._log_sups is not None:
            self._log_sups.flags.writeable = False
        if self.scheme == "combo":
            if max_block is None:
                raise DomainError("combo expansion needs max_block")
            self._specs = [blocks.block_spec(n) for n in range(1, max_block + 1)]
            self._cache: dict[int, _ComboBlock] = {}  # block number -> constants
            # (y, next_start, ln c) of each block, for term_window
            self._spans = [(spec.y, spec.next_start, math.log(spec.c)) for spec in self._specs]
        elif self.scheme == "bounded" and domain_edge is None:
            raise DomainError("bounded expansion needs a domain edge")

    @property
    def normalized(self) -> bool:
        """Unit-sup-norm form: combo, or raw and bounded after normalize()."""
        return self.scheme == "combo" or self._log_sups is not None

    @property
    def weights(self) -> np.ndarray:
        """Linear weights, exp(log_weights); 0.0 where ln(lambda) < -745."""
        with np.errstate(under="ignore"):
            return np.exp(self.log_weights)

    # ------------------------------------------------------------------
    # Term access

    @property
    def horizon(self) -> int:
        """Number of retained terms."""
        return int(self.log_weights.shape[0])

    def __len__(self) -> int:
        return self.horizon

    # ------------------------------------------------------------------
    # Normalisation

    def normalize(self) -> "Expansion":
        """Unit-sup-norm form: weights absorb the squared sup-norms.

        Idempotent; combo expansions are built normalised already.
        """
        if self.normalized:
            return self
        if self.scheme == "raw":
            ks = np.arange(self.horizon, dtype=np.float64)
            log_m2 = basis.log_m_squared_many(ks)
            return Expansion("raw", self.log_weights + log_m2, log_sups=0.5 * log_m2)
        # bounded: sup of h_k on [0, N]
        log_sups = basis.log_h_sup_many(np.arange(self.horizon), float(self.domain_edge))
        return Expansion(
            "bounded",
            self.log_weights + 2.0 * log_sups,
            domain_edge=self.domain_edge,
            log_sups=log_sups,
        )

    # ------------------------------------------------------------------
    # Evaluation

    def basis_log_values(
        self, x: float, terms: slice | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(signs, log magnitudes) of the basis functions at x: all of them,
        or the contiguous slice ``terms``, in new arrays.  Each value has the
        same bits either way, and on every call: a combo's cached constants
        are the arrays ``basis.log_psi`` would compute."""
        if not math.isfinite(x):
            raise DomainError(f"basis values need a finite point, got {x!r}")
        start, stop, step = (slice(None) if terms is None else terms).indices(self.horizon)
        if step != 1:
            raise RangeError("term slices must be contiguous")
        if self.scheme == "combo":
            return self._combo_log_values(x, start, stop)
        ks = np.arange(start, stop, dtype=np.float64)
        signs, logs = basis.log_psi(ks, x)
        if self.scheme == "bounded":  # h_k = k psi_k, h_0 = psi_0
            logs = logs + np.log(np.maximum(ks, 1.0))
        if self._log_sups is not None:
            logs = logs - self._log_sups[start:stop]
        return signs, logs

    def _combo_block(self, n: int) -> _ComboBlock:
        """Block n's constants, made the first time a point touches it."""
        block = self._cache.get(n)
        if block is None:
            spec = self._specs[n - 1]
            ks = np.arange(spec.y, spec.next_start, dtype=np.float64)
            block = self._cache[n] = _ComboBlock(
                spec,
                _read_only(basis.log_index_half(ks)),
                _read_only(blocks.sign_rows(n).astype(np.float64)),
            )
        return block

    def _combo_log_values(self, x: float, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Every block that meets [start, stop) is evaluated whole, so the
        sign-recombination inputs never depend on the slice."""
        touched = [(n, y, end) for n, (y, end, _) in enumerate(self._spans, 1)
                   if y < stop and end > start]
        base = touched[0][1] if touched else start
        size = touched[-1][2] - base if touched else 0
        signs = np.empty(size)
        logs = np.empty(size)
        for n, y, end in touched:
            values = _combo_block_log_values(self._combo_block(n), x)
            signs[y - base : end - base], logs[y - base : end - base] = values
        logs -= 0.5 * self.log_weights[base : base + size]  # ln sup = ln(lambda) / 2
        cut = slice(start - base, stop - base)
        return signs[cut], logs[cut]

    def term_window(self, x: float, *, _floor: float = _LOG_NEGLIGIBLE) -> slice:
        """The contiguous terms outside which every term
        lambda_i b_i(x) b_i(y) is provably below e^_LOG_NEGLIGIBLE for any
        y, so that it evaluates to exactly 0.0.  The slice is empty if every
        term is.  Raw and bounded expansions are not windowed: their window
        is the full horizon.  The private ``_floor`` gives the wide window.

        psi_k(x)^2 is the Poisson(2 x^2) probability of k, unimodal in k
        with its mode at floor(2 x^2).  A combo term of block n is at most
        c_n M_n(x) M_n(y) <= c_n M_n(x), where M_n is the largest |psi_p|
        over the block's indices: the value at the mode clamped into them.
        Whole blocks are kept, from the first to the last whose bound
        reaches the threshold; the scan stops at the first block past the
        mode (y_n > 2 x^2) below it.  There M_n = |psi_{y_n}(x)|, and psi_k^2
        falls by 2 x^2 / (k + 1) < y_n / (k + 1) per step, so with
        y_{n+1} > 4 y_n, ln M_{n+1} - ln M_n < -sum_{j=y_n+1}^{4 y_n} ln(j / y_n) / 2
        < -y_n (4 ln 4 - 3) / 2 ~ -1.27 y_n: each later bound is lower by over
        1.27 y_n - ln 2 >= 56, far beyond the scalar bound's rounding.
        """
        if not math.isfinite(x):
            raise DomainError(f"term window needs a finite point, got {x!r}")
        if self.scheme != "combo":
            return slice(0, self.horizon)
        mode = 2.0 * x * x
        kept = []
        for y, end, log_c in self._spans:  # ln c_n + ln M_n(x) >= floor
            if log_c + _log_abs_psi(int(min(max(mode, y), end - 1)), x) >= _floor:
                kept.append((y, end))
            elif y > mode:
                break
        return slice(kept[0][0], kept[-1][1]) if kept else slice(0, 0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, slots=True)
class _ComboBlock:
    """The point-independent constants of one combo block: the index half
    of its raw indices y .. next_start - 1 (``basis.log_index_half``) and
    its float sign pattern (``blocks.sign_rows``)."""

    spec: blocks.BlockSpec
    half: np.ndarray
    signs: np.ndarray


def _combo_block_log_values(block: _ComboBlock, x: float) -> tuple[np.ndarray, np.ndarray]:
    """(signs, log mags) of all un-normalised combos of one block at x,
    ordered (row, slot) row-major."""
    spec = block.spec
    # the index ramp is made per call: kept, it would add 8 B per term
    ramp = np.arange(spec.y, spec.next_start, dtype=np.float64)
    psign, lpsi = basis.log_psi_from_half(ramp, block.half, x)
    del ramp  # so a deep block's recombination holds the cached half in its place
    if spec.c == 1:
        # [[1]] @ psi is psi, and its log anchor + ln 1 - (ln 1) / 2 the
        # anchor (psi's log is never -0.0, which adding 0.0 would flip), so
        # each combo is its psi, dead (sign 0) where psi's log is -inf
        return np.where(np.isfinite(lpsi), psign, 0.0), lpsi
    # index y + h + k*r sits at flat position k*r + h -> reshape to (c, r)
    lv = lpsi.reshape(spec.c, spec.r)
    sv = psign.reshape(spec.c, spec.r)
    anchor = np.max(lv, axis=0)  # (r,)
    dead = ~np.isfinite(anchor)
    safe_anchor = np.where(dead, 0.0, anchor)
    with np.errstate(under="ignore", divide="ignore"):
        scaled = sv * np.exp(lv - safe_anchor[None, :])  # (c, r)
        sums = block.signs @ scaled  # (c_slots, r)
        mags = np.abs(sums)
        # a sum below CANCELLATION_FLUSH of its top term is a cancellation,
        # flushed to exact zero
        alive = (mags >= CANCELLATION_FLUSH) & ~dead[None, :]
        logs = np.where(
            alive,
            safe_anchor[None, :] + np.log(np.where(mags > 0, mags, 1.0))
            - 0.5 * math.log(spec.c),
            -np.inf,
        )
    signs = np.where(alive, np.sign(sums), 0.0)
    # back to (row, slot) ordering
    return signs.T.reshape(-1), logs.T.reshape(-1)


def _log_abs_psi(k: int, x: float) -> float:
    """log |psi_k(x)| = (k ln(2 x^2) - ln k!) / 2 - x^2.  Scalar arithmetic
    in another order, so not bit-equal to basis.log_psi: it feeds only the
    skip rule, whose threshold leaves a 20-unit margin, and a numpy call on
    one index costs ten times more."""
    if x == 0.0:  # psi_k(0) = 0 for every k >= 1
        return 0.0 if k == 0 else -math.inf
    return 0.5 * (k * (_LN2 + 2.0 * math.log(abs(x))) - log_factorial(k)) - x * x


# ----------------------------------------------------------------------
# Builders


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise RangeError("horizon must be >= 1")
    if horizon > basis.MAX_INDICES:
        raise RangeError(f"horizon {horizon} exceeds {basis.MAX_INDICES} terms")


def build_raw(horizon: int) -> Expansion:
    """Plain truncation of the kernel power series: unit weights on psi_k."""
    _check_horizon(horizon)
    return Expansion("raw", np.zeros(horizon))


def build_bounded(domain_edge: float, horizon: int) -> Expansion:
    """Domain-[0, N] expansion with h_k = k psi_k and lambda_k = 1/k^2.

    Weight mass is summable (1 + pi^2/6 at most); the k = 0 term keeps the
    plain psi_0 with weight 1.
    """
    if not 0.0 < domain_edge < math.inf:
        raise DomainError(f"domain edge must be positive and finite, got {domain_edge!r}")
    _check_horizon(horizon)
    ks = np.arange(horizon, dtype=np.float64)
    log_w = np.where(ks > 0, -2.0 * np.log(np.where(ks > 0, ks, 1.0)), 0.0)
    return Expansion("bounded", log_w, domain_edge=float(domain_edge))


def check_max_block(max_block: int) -> None:
    """RangeError unless 1 <= max_block <= DEFAULT_BLOCK_CAP."""
    if max_block < 1:
        raise RangeError("max_block must be >= 1")
    if max_block > DEFAULT_BLOCK_CAP:
        raise RangeError(f"max_block {max_block} exceeds cap {DEFAULT_BLOCK_CAP}")


def build_combo(max_block: int) -> Expansion:
    """Normalised block-recombined expansion covering blocks 1..max_block.

    Every sup-norm is the leading-peak value m_{y+h} / sqrt(c): within a
    row the remaining peaks are lower and cross-talk between bumps is below
    ~1e-11 of a peak, so this matches the searched sup-norm to more digits
    than any consumer resolves (the agreement is itself under test).
    Term count is exactly y_{max_block+1}.
    """
    check_max_block(max_block)
    parts = [np.repeat(blocks.row_log_weights(n), blocks.block_spec(n).c)
             for n in range(1, max_block + 1)]
    return Expansion("combo", np.concatenate(parts), max_block=max_block)
