"""Integer block bookkeeping and sign recombination.

The non-negative integers are tiled by matrices with r_n = 135 * 2^(n-1)
rows and c_n = 2^(n-1) columns; the entries of one row index c_n raw basis
functions whose peaks are far enough apart (about 3.56 in x) that signed
combinations barely interact.  Recombining each row with an orthogonal
+-1 pattern shrinks every sup-norm by 1/sqrt(c_n) while keeping the kernel
sum invariant, which is the whole point of the construction.

The construction's pairing recursion (sums of adjacent pairs fill the first
half of the slots, differences the second, n-1 times) produces exactly the
natural-order Sylvester-Hadamard matrix S[j, k] = (-1)^popcount(j & k), so
`sign_rows` evaluates that closed form for just the rows a caller needs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, RangeError
from .optimize import golden_max
from . import basis

__all__ = [
    "BlockSpec",
    "SignMatrix",
    "block_spec",
    "check_max_block",
    "DEFAULT_BLOCK_CAP",
    "row_indices",
    "row_log_weights",
    "sign_rows",
    "sign_matrix",
    "row_sup_norms",
    "row_values",
    "min_row_separation",
    "SEPARATION_LIMIT",
    "MAX_SIGN_BYTES",
    "WINDOW_HALFWIDTH",
]

# Memory cap for the sign pattern of a block, checked in `sign_rows` before
# any allocation: 32 c^2 = 32 * 4^(n-1) bytes, room for the c x c 8-byte
# arrays the Gram check of `gkexpand signs` holds at once (the int64
# matrix, its float64 copy and their Gram product).
MAX_SIGN_BYTES = 2**28
_MAX_SIGN_BLOCK = 1 + int(math.log(MAX_SIGN_BYTES / 32, 4))

# Block numbers large enough that y_{n+1} would overflow a 64-bit integer
# are rejected so specs stay portable to fixed-width consumers.
_MAX_BLOCK_64BIT = 28

# Deepest block whose weights are built or summed (`check_max_block`): raw
# indices reach ~2.95e6 there.  A row weight's basis.log_m_squared_many
# loses about eps * ln k! to cancellation, which grows like 4^n past it.
DEFAULT_BLOCK_CAP = 8

# Sup-norm searches look at +-2 around each peak: contributions from
# outside a window are below 1e-11 of the peak, far under every tolerance.
# Only a row's first window is scanned on its grid unless a bound on a
# later window fails (`_window_maxima`).
WINDOW_HALFWIDTH = 2.0

# Limiting value of the in-row peak separation, 135 / (4 sqrt(90)).
SEPARATION_LIMIT = 135.0 / (4.0 * math.sqrt(90.0))

# The bound on a later window k >= 1 splits its grid points at
# |x - x_k| = _BAND_HALFWIDTH into a central band and the points outside:
# - psi_k is unimodal with its peak at the window centre x_k, so it is at
#   most its centre value on the band, and outside it at most the larger of
#   its values at the first grid point outside the band on either side;
# - the peaks of psi_{k-1} and psi_{k+1} lie at least 3.557 away, outside
#   the window, so each is monotone across it and largest at the edge
#   nearer its own peak: the band edge for the band, the window edge for
#   the points outside;
# - so |combo| on window k is at most scale * max(band part, outside part),
#   each part the sum of those three psi values (the last window has no
#   psi_{k+1}, and its term is 0).
# Near a peak psi_k falls like exp(-2 d^2), so the outside part sits at
# about 0.88 of the peak and the band part at about psi_k's peak height
# m_k, which falls like P_k^(-1/4).  Window 0's maximum exceeds the largest
# later bound by a factor of about 1 + 0.75 / c, and by at least 1.136 at
# block 2, 1.0110 at block 7 and 1.000366 at block 12 on the first, middle
# and last rows.
_BAND_HALFWIDTH = 0.25

# A later window is skipped when _SKIP_MARGIN times its bound is below
# every requested slot's maximum in window 0: then none of its grid values
# can reach window 0's.  The margin must exceed psi's relative rounding
# (about 1e-6 at block 12), by which a computed grid value may exceed its
# computed bound, and stay under the headroom above (3.66e-4 at block 12),
# or later windows get scanned.  2^-16 = 1.5e-5 is 15x the first and 1/24
# of the second.
_SKIP_MARGIN = 1.0 + 2.0**-16


@dataclass(frozen=True, slots=True)
class BlockSpec:
    """One block: top-left entry y, rows r, columns c."""

    n: int
    y: int
    r: int
    c: int

    @property
    def next_start(self) -> int:
        """First index of the following block (y + r * c)."""
        return self.y + self.r * self.c


def _integer(value, what: str) -> int:
    """``value`` as an int: a Python or numpy integer, else a RangeError
    naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise RangeError(f"{what} {value!r} is not an integer") from None


def block_spec(n: int) -> BlockSpec:
    """Exact integer geometry of block n, and the one rule for a block
    number: an integer from 1 to _MAX_BLOCK_64BIT.  A lower cap is an upper
    bound checked before it (`check_max_block`, `sign_rows`)."""
    n = _integer(n, "block number")
    if n < 1:
        raise RangeError(f"block number must be >= 1, got {n}")
    if n > _MAX_BLOCK_64BIT:
        raise RangeError(
            f"block {n} exceeds the 64-bit index range (max {_MAX_BLOCK_64BIT})"
        )
    return BlockSpec(
        n=n,
        y=45 * (4 ** (n - 1) - 1),
        r=135 * 2 ** (n - 1),
        c=2 ** (n - 1),
    )


def check_max_block(max_block: int) -> BlockSpec:
    """`block_spec(max_block)`, with the cap DEFAULT_BLOCK_CAP checked first:
    a RangeError unless max_block is a block number no deeper than it."""
    if _integer(max_block, "block number") > DEFAULT_BLOCK_CAP:
        raise RangeError(f"max_block {max_block} exceeds cap {DEFAULT_BLOCK_CAP}")
    return block_spec(max_block)


def row_indices(spec: BlockSpec, h: int) -> list[int]:
    """Raw indices of row h: y + h, y + h + r, ..., strictly increasing."""
    h = _integer(h, "row")
    if not 0 <= h < spec.r:
        raise RangeError(f"row {h} outside [0, {spec.r}) for block {spec.n}")
    return [spec.y + h + k * spec.r for k in range(spec.c)]


def row_log_weights(n: int) -> np.ndarray:
    """ln lambda = ln(m^2_{y+h} / c) of each row h = 0..r-1 of block n: the
    squared leading-peak sup-norm of the row's combos, which all c slots of
    the row share."""
    spec = block_spec(n)
    lm2 = basis.log_m_squared_many(spec.y + np.arange(spec.r, dtype=np.float64))
    return lm2 - math.log(spec.c)


def sign_rows(n: int, slots: Sequence[int] | None = None) -> np.ndarray:
    """Rows `slots` (default all, each an integer in [0, c)) of the block-n
    sign pattern, int64 +-1.

    S[j, k] = 1 - 2 * (popcount(j & k) mod 2) with j, k in [0, c): symmetric,
    S S^T = c I, first row and column all +1.  Shape (len(slots), c).  Block
    n obeys `block_spec`'s rule, with the sign-pattern cap checked first.
    """
    n = _integer(n, "block number")
    if n > _MAX_SIGN_BLOCK:
        raise RangeError(
            f"sign pattern for block {n} exceeds the {MAX_SIGN_BYTES}-byte cap "
            f"(deepest block {_MAX_SIGN_BLOCK})"
        )
    c = block_spec(n).c
    cols = np.arange(c, dtype=np.int64)
    if slots is None:
        rows = cols
    else:
        rows = [_integer(s, "slot") for s in slots]
        bad = [s for s in rows if not 0 <= s < c]
        if bad:
            raise RangeError(f"slot {bad[0]} outside [0, {c})")
        rows = np.array(rows, dtype=np.int64)
    bits = rows[:, None] & cols[None, :]
    # XOR-fold the n-1 bits so bit 0 holds their parity (numpy >= 2 has
    # np.bitwise_count; older numpy does not).
    shift = 1
    while shift < n - 1:
        bits ^= bits >> shift
        shift *= 2
    bits &= 1
    bits *= -2
    bits += 1
    return bits


@dataclass(frozen=True)
class SignMatrix:
    """The full c x c +-1 recombination pattern of one block."""

    n: int
    entries: np.ndarray

    def to_csv_text(self) -> str:
        """Row-major CSV of the +-1 entries, LF line endings."""
        text = {1: "1", -1: "-1"}.__getitem__
        return "\n".join(",".join(map(text, r)) for r in self.entries.tolist()) + "\n"


def sign_matrix(n: int) -> SignMatrix:
    """The whole block-n sign pattern, as written out by `gkexpand signs`."""
    return SignMatrix(n=n, entries=sign_rows(n))


def row_values(spec: BlockSpec, h: int, xs: np.ndarray) -> np.ndarray:
    """Signed linear psi values of one row's raw indices over a grid.

    Returns shape (c, len(xs)); entries below the double underflow limit
    come out as 0, which is harmless for the absolute comparisons these
    matrices feed.
    """
    idx = np.asarray(row_indices(spec, h), dtype=np.float64)
    return _linear(*basis.log_psi(idx[:, None], np.asarray(xs, dtype=np.float64)))


def _linear(signs: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """signs * exp(logs), written over ``logs``; underflow gives 0."""
    with np.errstate(under="ignore"):
        vals = np.exp(logs, out=logs)
    vals *= signs
    return vals


def _combo_abs_at(
    srow: np.ndarray, idx: np.ndarray, half: np.ndarray, scale: float, x: float
) -> float:
    """|combo(x)| for the sign row ``srow`` at a point x > 0 (else
    DomainError), given the index half of ``idx``, under the caller's
    underflow errstate.  Only the arithmetic that depends on the point:
    ``math.log``, `basis.log_abs_psi_terms`, one exp in place, the signs and
    a pairwise ``np.sum`` over the c terms in order, so the bits of
    `basis.log_psi_from_half` at x.
    """
    if not x > 0.0:
        raise DomainError(f"combo rows are evaluated at x > 0 only, got {x!r}")
    logs = basis.log_abs_psi_terms(idx, half, math.log(x), x * x)
    vals = np.exp(logs, out=logs)
    vals *= srow
    return float(abs(vals.sum())) * scale


def row_sup_norms(
    n: int, h: int, slots: Sequence[int] | None = None
) -> list[tuple[int, float, float]]:
    """Sup-norms of several slots of one row, sharing the evaluations:
    the maximum of |combo| over the windows around the row's peaks.

    Returns [(slot, x_star, value), ...] in the order requested.  All slots
    of a row share one grid scan (`_window_maxima`), at pitch 1e-3 over the
    first peak's +-2 window and over any later window its bound cannot rule
    out.  The peak heights fall with k, and the grid maximum lies in the
    first window on every row tested; the later windows come within 3.7e-4
    of it at block 12.  Each best grid point x is then refined by
    golden-section search to 1e-10 on x +- GRID_STEP (`optimize.golden_max`,
    36 evaluations): one search per certified grid point and one per
    uncertified slot, all under one errstate.  Every bracket lies within
    WINDOW_HALFWIDTH + GRID_STEP of a peak sqrt(k/2) >= sqrt(67.5), so its
    probes are at x > 0.

    Where `_single_column` certifies x's bracket for a column k, |combo|
    of every slot is psi_k / sqrt(c) at each probe, bit for bit:
    - the probes lie in [a, b] = [x - 2 GRID_STEP, x + 2 GRID_STEP], and
      the peaks of psi_{k-1} and psi_{k+1} lie outside it, so psi_k, being
      unimodal, is at least min(psi_k(a), psi_k(b)) there;
    - each psi_j with j > k rises on [a, b], and psi_j(b)^2 is a
      Poisson(2 b^2) pmf past its mode, so sum_{j>k} psi_j <= (c - 1 - k)
      psi_{k+1}(b); likewise sum_{j<k} psi_j <= k psi_{k-1}(a);
    - the certificate asks ln(that bound) + ln 2 < ln min psi_k - 54 ln 2,
      the ln 2 covering the computed logs' error (under 1e-3 e-folds
      through block 12) and exp's rounding;
    - so the other columns sum, in any order, to less than 2^-54 of the
      computed psi_k, below half an ulp of it, and the row sum over exact
      +-1 products of `_combo_abs_at` is +-psi_k.
    The slots sharing such an x then share one search, on psi_k alone, by
    `_combo_abs_at`'s per-element operations in its order (`math.log`,
    `basis.log_abs_psi_terms` on floats, one `np.exp`, times c^(-1/2)).
    The other slots (on every row tested, block-2 rows 263-269 only) each
    keep their own search on the whole row, `_combo_abs_at`.  A
    refinement that ends below a slot's grid value gives way to the grid
    point.  The index half of log psi is computed once for the row and
    serves every evaluation.
    """
    spec = block_spec(n)
    slots = range(spec.c) if slots is None else list(slots)
    srows = sign_rows(n, slots).astype(np.float64)
    idx = np.asarray(row_indices(spec, h), dtype=np.float64)
    scale = spec.c**-0.5

    if spec.c == 1:
        info = basis.peak(spec.y + h)
        return [(s, info.x_peak, info.m) for s in slots]

    half = basis.log_index_half(idx)
    tops, at = _window_maxima(srows, idx, half)
    best_x = at.tolist()
    shared = {}  # certified grid point -> the search its slots share
    out = []
    with np.errstate(under="ignore"):
        for x in dict.fromkeys(best_x):
            k = _single_column(idx, half, x)
            if k is not None:
                kf, hk = float(idx[k]), float(half[k])
                shared[x] = golden_max(
                    lambda p: float(np.exp(basis.log_abs_psi_terms(kf, hk, math.log(p), p * p))) * scale,
                    x - basis.GRID_STEP, x + basis.GRID_STEP)
        for s, srow, x, v in zip(slots, srows, best_x, tops.tolist()):
            if x in shared:
                x_star, v_star = shared[x]
            else:
                x_star, v_star = golden_max(lambda p: _combo_abs_at(srow, idx, half, scale, p),
                                            x - basis.GRID_STEP, x + basis.GRID_STEP)
            if v_star < v:  # refinement may only improve on the grid point
                x_star, v_star = x, v
            out.append((s, x_star, v_star))
    return out


def _single_column(idx: np.ndarray, half: np.ndarray, x: float) -> int | None:
    """The column k whose psi_k alone gives every combo of the row its
    |value| at each refinement probe of x +- GRID_STEP, or None where the
    certificate of `row_sup_norms` fails.  ``half`` is the index half of
    ``idx``."""
    c = len(idx)
    a, b = x - 2.0 * basis.GRID_STEP, x + 2.0 * basis.GRID_STEP
    centres = np.sqrt(idx / 2.0)
    k = int(np.abs(centres - x).argmin())
    if (k > 0 and centres[k - 1] >= a) or (k < c - 1 and centres[k + 1] <= b):
        return None
    # psi_k at a and b, psi_{k+1} at b and psi_{k-1} at a, each neighbour
    # times its column count; a clipped neighbour counts 0 times
    cols = np.clip([k, k, k + 1, k - 1], 0, c - 1)
    pts = np.array([a, b, b, a])
    logs = basis.log_abs_psi_terms(idx[cols], half[cols], np.log(pts), pts * pts)
    with np.errstate(divide="ignore"):
        rest = np.logaddexp.reduce(np.log([c - 1.0 - k, k]) + logs[2:])
    return k if rest + 55.0 * math.log(2.0) < min(logs[0], logs[1]) else None


def _window_maxima(
    srows: np.ndarray, idx: np.ndarray, half: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grid maximum of |combo| over all peak windows of one row, for each
    sign row of ``srows``: (values, first grid point reaching them), both
    of shape (len(srows),).

    Window 0 is scanned whole.  A later window is scanned only where
    `_SKIP_MARGIN` times its bound (`_BAND_HALFWIDTH`) reaches window 0's
    smallest slot maximum, and a slot takes its value only where it is
    strictly larger, so ties keep the first window.  ``half`` is the index
    half of ``idx`` (`basis.log_index_half`).
    """
    c = len(idx)
    scale = c**-0.5
    steps = int(round(WINDOW_HALFWIDTH / basis.GRID_STEP))
    offsets = np.arange(-steps, steps + 1, dtype=np.float64) * basis.GRID_STEP
    centres = np.sqrt(idx / 2.0)
    rows = np.arange(len(srows))

    # The scan of window k sums columns k-1..k+1 only, and no bit moves:
    # - the peaks of a row are at least min_row_separation(n) >=
    #   SEPARATION_LIMIT (3.557) apart, so every grid point of window k lies
    #   at least 2 * 3.557 - WINDOW_HALFWIDTH ~ 5.1 from the peak of any
    #   column two or more away;
    # - those columns sum to less than 2^-58 of the row's sup-norm through
    #   block 12 (each psi_j is monotone from a window's edge to its own
    #   peak, and the edge values bound the sum by 1.2e-23 at block 8 and
    #   2.5e-23 at block 12 on the first, middle and last rows);
    # - half an ulp of the winning grid value is at least 2^-54 of it, so
    #   neither the argmax nor its value can change.
    # Not proved: BLAS sums 3 columns instead of c, in an order of its own.
    # The bit-equality tests against the full-row scan in
    # tests/test_blocks.py cover that.
    def scan(k: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = max(k - 1, 0), min(k + 2, c)
        xs = centres[k] + offsets
        vals = _linear(*basis.log_psi_from_half(idx[lo:hi, None], half[lo:hi, None], xs))
        combos = np.abs(srows[:, lo:hi] @ vals) * scale
        arg = np.argmax(combos, axis=1)
        return combos[rows, arg], xs[arg]

    top, at = scan(0)
    bounds = _SKIP_MARGIN * _later_window_bounds(idx, half, offsets)
    # with no slots there is no maximum to reach
    for k in (1 + np.flatnonzero(bounds >= top.min(initial=np.inf))).tolist():
        vals, xs = scan(k)
        better = vals > top
        top = np.where(better, vals, top)
        at = np.where(better, xs, at)
    return top, at


def _later_window_bounds(idx: np.ndarray, half: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Bound on |combo| at the grid points ``offsets`` around each peak of
    windows 1..c-1 of a row, for every sign row (`_BAND_HALFWIDTH`), from
    one batch of 7 psi values per window."""
    c = len(idx)
    steps = len(offsets) // 2
    inner = int(round(_BAND_HALFWIDTH / basis.GRID_STEP))
    ks = np.arange(1, c)
    # the bound points, as (column offset, grid point): the band part's
    # centre and band edges, then the outside part's first points outside
    # the band and window edges
    cols = np.minimum(ks[:, None] + np.array([0, -1, 1, 0, 0, -1, 1]), c - 1)
    points = offsets[[steps, steps - inner, steps + inner, steps - inner - 1, steps + inner + 1, 0, -1]]
    with np.errstate(under="ignore"):
        psi = np.exp(basis.log_psi_from_half(idx[cols], half[cols], np.sqrt(idx[ks, None] / 2.0) + points)[1])
    psi[-1, [2, 6]] = 0.0  # the last window's clipped right neighbour
    band = psi[:, 0] + psi[:, 1] + psi[:, 2]
    outside = np.maximum(psi[:, 3], psi[:, 4]) + psi[:, 5] + psi[:, 6]
    return c**-0.5 * np.maximum(band, outside)


def min_row_separation(n: int) -> float:
    """Smallest (sqrt(P_k) - sqrt(P_{k-1})) / sqrt(2) over all rows of block n.

    Neighbours in a row differ by r, and sqrt(p) - sqrt(p - r) falls as p
    grows, so the minimum sits at the block's last entry
    p = y + (r - 1) + (c - 1) r.
    """
    spec = block_spec(n)
    if spec.c < 2:
        raise DomainError("separation needs at least two columns (n >= 2)")
    p = spec.y + (spec.r - 1) + (spec.c - 1) * spec.r
    return (math.sqrt(p) - math.sqrt(p - spec.r)) / math.sqrt(2.0)
