"""Truncated kernel expansions: raw, bounded-domain and block-recombined.

An :class:`Expansion` is an ordered list of (weight, basis function) pairs.
The three builders produce:

* ``raw``      -- psi_k with unit weights;
* ``bounded``  -- h_k = k psi_k with lambda_k = 1/k^2 on a domain [0, N]
                  (the k = 0 term keeps psi_0 with weight 1 so that K(x, x)
                  still reconstructs to 1);
* ``combo``    -- sign-recombined rows of the integer blocks, normalised,
                  with lambda = (sup-norm)^2.

An expansion stores one per-term array, its log weights: the linear weights
are their exponentials, and a combo's log sup-norm is half its log weight.
Basis values are computed per point as (signs, logs) arrays.  A combo keeps
the parts that do not depend on the point -- each block's index half of
log psi_k and its float sign pattern -- from the first point that touches
the block on (the :class:`Expansion` docstring bounds their bytes), and
only for the blocks points have touched, so a deep combo expansion (block 8
has ~2.9 million terms) stays cheap.

psi_k(x)^2 = e^(-2 x^2) (2 x^2)^k / k! is the Poisson(2 x^2) probability of
k, so at a point only indices near 2 x^2 are above double underflow, and
``Expansion._log_sup`` bounds each combo block there by its largest |psi|.
Block 1 (c = 1) is its psi values; every other block is sign-recombined.
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
]

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
    ) -> None:
        if scheme not in ("raw", "bounded", "combo"):
            raise DomainError(f"unknown scheme {scheme!r}")
        self.scheme = scheme
        self.domain_edge = domain_edge
        self.max_block = max_block
        self.log_weights = np.asarray(log_weights, dtype=np.float64)
        self.log_weights.flags.writeable = False
        if self.scheme == "combo":
            if max_block is None:
                raise DomainError("combo expansion needs max_block")
            blocks.check_max_block(max_block)
            self._specs = [blocks.block_spec(n) for n in range(1, max_block + 1)]
            if self.horizon != self._specs[-1].next_start:
                raise RangeError(f"combo log_weights hold {self.horizon} terms; "
                                 f"blocks 1..{max_block} have {self._specs[-1].next_start}")
            self._cache: dict[int, _ComboBlock] = {}  # block number -> constants
            # (y, next_start, ln c) of each block, for the block bounds
            self._spans = [(spec.y, spec.next_start, math.log(spec.c)) for spec in self._specs]
        elif self.scheme == "bounded" and domain_edge is None:
            raise DomainError("bounded expansion needs a domain edge")

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
    # Evaluation

    def basis_log_values(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """(signs, log magnitudes) of every basis function at x, in new
        arrays.  Each value has the same bits on every call: a combo's
        cached constants are the arrays ``basis.log_psi`` would compute."""
        if not math.isfinite(x):
            raise DomainError(f"basis values need a finite point, got {x!r}")
        if self.scheme == "combo":
            out = np.empty((2, self.horizon))  # signs, logs
            for n, (y, end, _) in enumerate(self._spans, 1):
                out[:, y:end] = self._block_values(n, x)
            return out[0], out[1]
        ks = np.arange(self.horizon, dtype=np.float64)
        signs, logs = basis.log_psi(ks, x)
        if self.scheme == "bounded":  # h_k = k psi_k, h_0 = psi_0
            logs = logs + np.log(np.maximum(ks, 1.0))
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

    def _block_values(self, n: int, x: float) -> tuple[np.ndarray, np.ndarray]:
        """(signs, log magnitudes) of block n's normalised combos at x, in
        new arrays: the block's slice of ``basis_log_values(x)``."""
        spec = self._specs[n - 1]
        signs, logs = _combo_block_log_values(self._combo_block(n), x)
        logs -= 0.5 * self.log_weights[spec.y : spec.next_start]  # ln sup = ln(lambda) / 2
        return signs, logs

    def _log_sup(self, i: int, x: float) -> float:
        """ln M_n(x) of block n = i + 1, the largest |psi_p(x)| over its
        indices: psi_p(x)^2 is unimodal in p, so that is its value at the
        mode 2 x^2 clamped into them (scalar `_log_abs_psi`)."""
        y, end, _ = self._spans[i]
        return _log_abs_psi(int(min(max(2.0 * x * x, y), end - 1)), x)


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
    ordered (row, slot) row-major.

    Slot s of row h is sum_k S[s, k] psi_{y + h + k r}(x) / sqrt(c).  A
    computed log is off the exact one by under 1e-3 e-folds up to block 12
    (from k ln|x| and ln k!, a subnormal x included).  Block 1 (c = 1,
    S = [[1]]) returns its psi values, the recombination's bits, except
    where x^2 overflows: there every log is -inf and the recombination
    gives sign 0, not psi's +-1.
    """
    spec = block.spec
    # the index ramp is made per call: kept, it would add 8 B per term
    ramp = np.arange(spec.y, spec.next_start, dtype=np.float64)
    psign, lpsi = basis.log_psi_from_half(ramp, block.half, x)
    if spec.c == 1 and x * x < math.inf:
        return psign, lpsi
    del ramp  # so a deep block's recombination holds the cached half in its place
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
    """log |psi_k(x)| by `basis.log_abs_psi_terms` on floats, the index half
    (k ln 2 - ln k!) / 2 computed inline: a numpy call on one index costs
    ten times more.  ``log_factorial`` may differ from the array path in the
    last bits, so this is not bit-equal to basis.log_psi: it feeds only the
    skip rule, whose threshold leaves a 20-unit margin."""
    if x == 0.0:  # psi_k(0) = 0 for every k >= 1
        return 0.0 if k == 0 else -math.inf
    return basis.log_abs_psi_terms(k, 0.5 * (k * _LN2 - log_factorial(k)), math.log(abs(x)), x * x)


# ----------------------------------------------------------------------
# Builders


def _check_horizon(horizon: int) -> int:
    horizon = blocks._integer(horizon, "horizon")
    if horizon < 1:
        raise RangeError("horizon must be >= 1")
    if horizon > basis.MAX_INDICES:
        raise RangeError(f"horizon {horizon} exceeds {basis.MAX_INDICES} terms")
    return horizon


def build_raw(horizon: int) -> Expansion:
    """Plain truncation of the kernel power series: unit weights on psi_k."""
    return Expansion("raw", np.zeros(_check_horizon(horizon)))


def build_bounded(domain_edge: float, horizon: int) -> Expansion:
    """Domain-[0, N] expansion with h_k = k psi_k and lambda_k = 1/k^2.

    Weight mass is summable (1 + pi^2/6 at most); the k = 0 term keeps the
    plain psi_0 with weight 1.
    """
    if not 0.0 < domain_edge < math.inf:
        raise DomainError(f"domain edge must be positive and finite, got {domain_edge!r}")
    ks = np.arange(_check_horizon(horizon), dtype=np.float64)
    log_w = np.where(ks > 0, -2.0 * np.log(np.where(ks > 0, ks, 1.0)), 0.0)
    return Expansion("bounded", log_w, domain_edge=float(domain_edge))


def build_combo(max_block: int) -> Expansion:
    """Normalised block-recombined expansion covering blocks 1..max_block.

    Every sup-norm is the leading-peak value m_{y+h} / sqrt(c): within a
    row the remaining peaks are lower and cross-talk between bumps is below
    ~1e-11 of a peak, so this matches the searched sup-norm to more digits
    than any consumer resolves (the agreement is itself under test).
    Term count is exactly y_{max_block+1}.
    """
    blocks.check_max_block(max_block)
    parts = [np.repeat(blocks.row_log_weights(n), blocks.block_spec(n).c)
             for n in range(1, max_block + 1)]
    return Expansion("combo", np.concatenate(parts), max_block=max_block)
