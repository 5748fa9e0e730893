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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, RangeError
from .numerics import SignedLogValue, slv_sum
from .optimize import golden_max
from . import basis

__all__ = [
    "BlockSpec",
    "SignMatrix",
    "ComboDescriptor",
    "block_spec",
    "row_indices",
    "sign_rows",
    "sign_matrix",
    "combo_descriptor",
    "eval_combo",
    "combo_sup_norm",
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

# Sup-norm searches look at +-2 around each peak: contributions from
# outside a window are below 1e-11 of the peak, far under every tolerance.
# A window's grid scan sums only its nearby columns (`_SCAN_NEIGHBOURS`),
# and only on the central band of the window (`_BAND_HALFWIDTH`).
WINDOW_HALFWIDTH = 2.0

# Limiting value of the in-row peak separation, 135 / (4 sqrt(90)).
SEPARATION_LIMIT = 135.0 / (4.0 * math.sqrt(90.0))

# The grid scan of window k sums columns k-1..k+1 only, and no bit moves:
# - the peaks of a row are at least min_row_separation(n) >= SEPARATION_LIMIT
#   (3.557) apart, so every grid point of window k lies at least
#   2 * 3.557 - WINDOW_HALFWIDTH ~ 5.1 from the peak of any column two or
#   more away;
# - those columns sum to less than 2^-58 of the row's sup-norm through
#   block 12 (each psi_j is monotone from a window's edge to its own peak,
#   and the edge values bound the sum by 1.2e-23 at block 8 and 2.5e-23 at
#   block 12 on the first, middle and last rows);
# - half an ulp of the winning grid value is at least 2^-54 of it, so
#   neither the argmax nor its value can change.
# Not proved: BLAS sums 3 columns instead of c, in an order of its own.  The
# bit-equality tests against the full-row scan in tests/test_blocks.py
# cover that.
_SCAN_NEIGHBOURS = 1

# The grid scan of window k evaluates its columns only on the grid points
# with |x - x_k| <= _BAND_HALFWIDTH (501 of the 4,001), and no bit moves
# where the band's maximum clears a bound on the points left out:
# - psi_k is unimodal with its peak at the window centre x_k, so on the
#   points left out it is largest at the first grid point outside the band
#   on either side;
# - the peaks of psi_{k-1} and psi_{k+1} lie at least 3.557 away, outside
#   the window, so each is monotone across it and largest at the window
#   edge nearer its own peak (left for k-1, right for k+1);
# - so |combo| at every point left out is at most scale * (the larger
#   psi_k at the two first points outside the band + psi_{k-1} at the left
#   edge + psi_{k+1} at the right edge);
# - if every requested slot's band maximum exceeds that bound by the
#   factor _BAND_MARGIN, far above psi's relative rounding (about 1e-6 at
#   block 12), no point left out can reach it, and the band's first
#   argmax and its value are the whole window's, bit for bit (each grid
#   value is the same dot product of the same 3 psi values).
# A window that fails the test is scanned over all its grid points
# (`row_values`).  Near a peak psi_k falls like exp(-2 d^2), so the band
# edge sits at about 0.88 of the peak, and no window of the first, middle
# or last row of blocks 2-12 fails the test (tests/test_blocks.py).
_BAND_HALFWIDTH = 0.25
_BAND_MARGIN = 1.01

# Windows whose band values are evaluated at once: 64 windows of 3 x 501
# values keep each array under 1 MB, even on a 2,048-window block-12 row.
_SCAN_CHUNK = 64


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


def block_spec(n: int) -> BlockSpec:
    """Exact integer geometry of block n (1-based)."""
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


def row_indices(spec: BlockSpec, h: int) -> list[int]:
    """Raw indices of row h: y + h, y + h + r, ..., strictly increasing."""
    if not 0 <= h < spec.r:
        raise RangeError(f"row {h} outside [0, {spec.r}) for block {spec.n}")
    return [spec.y + h + k * spec.r for k in range(spec.c)]


def sign_rows(n: int, slots: Sequence[int] | None = None) -> np.ndarray:
    """Rows `slots` (default all) of the block-n sign pattern, int64 +-1.

    S[j, k] = 1 - 2 * (popcount(j & k) mod 2) with j, k in [0, c): symmetric,
    S S^T = c I, first row and column all +1.  Shape (len(slots), c).
    """
    if n < 1:
        raise RangeError(f"block number must be >= 1, got {n}")
    if n > _MAX_SIGN_BLOCK:
        raise RangeError(
            f"sign pattern for block {n} exceeds the {MAX_SIGN_BYTES}-byte cap "
            f"(deepest block {_MAX_SIGN_BLOCK})"
        )
    c = 2 ** (n - 1)
    cols = np.arange(c, dtype=np.int64)
    if slots is None:
        rows = cols
    else:
        rows = np.asarray(slots, dtype=np.int64)
        bad = rows[(rows < 0) | (rows >= c)]
        if bad.size:
            raise RangeError(f"slot {int(bad[0])} outside [0, {c})")
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


@dataclass(frozen=True, slots=True)
class ComboDescriptor:
    """One recombined basis function: block, row, slot and its sign row."""

    block: BlockSpec
    row: int
    slot: int
    signs: tuple[int, ...]
    scale: float

    def indices(self) -> list[int]:
        return row_indices(self.block, self.row)


def combo_descriptor(n: int, h: int, slot: int) -> ComboDescriptor:
    spec = block_spec(n)
    signs = tuple(sign_rows(n, (slot,))[0].tolist())
    if not 0 <= h < spec.r:
        raise RangeError(f"row {h} outside [0, {spec.r}) for block {n}")
    return ComboDescriptor(
        block=spec, row=h, slot=slot, signs=signs, scale=spec.c**-0.5
    )


def eval_combo(d: ComboDescriptor, x: float) -> SignedLogValue:
    """c^(-1/2) * sum_k signs[k] * psi_{P_k}(x), via the signed log sum."""
    psign, logs = basis.log_psi(np.asarray(d.indices()), x)
    terms = [SignedLogValue(int(s * p), v) for s, p, v in zip(d.signs, psign.tolist(), logs.tolist())]
    return slv_sum(terms).scaled(-0.5 * math.log(d.block.c))


def row_values(
    spec: BlockSpec, h: int, xs: np.ndarray, cols: slice = slice(None)
) -> np.ndarray:
    """Signed linear psi values of one row's raw indices over a grid.

    Returns shape (len(columns), len(xs)) for the row's columns ``cols``
    (default all c); entries below the double underflow limit come out as
    0, which is harmless for the absolute comparisons these matrices feed.
    """
    idx = np.asarray(row_indices(spec, h)[cols], dtype=np.float64)
    return _linear(*basis.log_psi(idx[:, None], np.asarray(xs, dtype=np.float64)))


def _linear(signs: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """signs * exp(logs), written over ``logs``; underflow gives 0."""
    with np.errstate(under="ignore"):
        vals = np.exp(logs, out=logs)
    vals *= signs
    return vals


def _combo_abs_at(
    signs_arr: np.ndarray, idx: np.ndarray, half: np.ndarray, scale: float, x: float
) -> float:
    """|combo(x)| in linear space, given the index half of ``idx``
    (`basis.log_index_half`); accurate near the peaks where it is used."""
    psign, logs = basis.log_psi_from_half(idx, half, x)
    with np.errstate(under="ignore"):
        vals = np.exp(logs)
    return abs(float(np.sum(signs_arr * psign * vals))) * scale


def combo_sup_norm(d: ComboDescriptor) -> tuple[float, float]:
    """Maximise |combo| over windows around every constituent peak.

    Grid pitch 1e-3 over the central band of each window (the whole window
    where the band cannot be shown to hold the maximum), then
    golden-section refinement of the best grid point to 1e-10.  Returns
    (argmax, max).  The reported argmax may sit on any of the peaks (their
    heights agree to ~1e-11 for deep blocks); only the value carries a
    guarantee.
    """
    _, x_star, value = row_sup_norms(d.block.n, d.row, slots=(d.slot,))[0]
    return x_star, value


def row_sup_norms(
    n: int, h: int, slots: Sequence[int] | None = None
) -> list[tuple[int, float, float]]:
    """Sup-norms of several slots of one row, sharing the grid evaluations.

    Returns [(slot, x_star, value), ...] in the order requested.  All slots
    of a row share the same peak windows and one grid scan of each
    (`_window_maxima`); the golden-section refinement of the best grid
    point then sums the whole row.  The index half of log psi is computed
    once for the row and serves every evaluation.
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
    tops, at = _window_maxima(spec, h, srows, idx, half)
    best = np.argmax(tops, axis=0)  # the first window with the largest value
    out = []
    for si, s in enumerate(slots):
        best_x, best_v = float(at[best[si], si]), float(tops[best[si], si])

        def f(x: float, sa: np.ndarray = srows[si]) -> float:
            return _combo_abs_at(sa, idx, half, scale, x)

        x_star, v_star = golden_max(
            f, best_x - basis.GRID_STEP, best_x + basis.GRID_STEP, xtol=1e-10
        )
        if v_star < best_v:  # refinement may only improve on the grid point
            x_star, v_star = best_x, best_v
        out.append((s, x_star, v_star))
    return out


def _window_maxima(
    spec: BlockSpec, h: int, srows: np.ndarray, idx: np.ndarray, half: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grid maximum of |combo| in each peak window of row h, for each sign
    row of ``srows``: (values, first grid point reaching them), both of
    shape (c, len(srows)).

    Window k evaluates only columns k-1, k and k+1 (`_SCAN_NEIGHBOURS`),
    once for all sign rows, and only on its central band unless the band
    fails its bound (`_BAND_HALFWIDTH`).  ``half`` is the index half of
    ``idx`` (`basis.log_index_half`).
    """
    c = spec.c
    scale = c**-0.5
    steps = int(round(WINDOW_HALFWIDTH / basis.GRID_STEP))
    offsets = np.arange(-steps, steps + 1, dtype=np.float64) * basis.GRID_STEP
    inner = int(round(_BAND_HALFWIDTH / basis.GRID_STEP))
    band = offsets[steps - inner : steps + inner + 1]
    nb = _SCAN_NEIGHBOURS
    near = np.arange(-nb, nb + 1)
    # the bound points, as (column offset, grid point): the left neighbour
    # at the left edge, the centre column at the first point outside the
    # band on either side, the right neighbour at the right edge
    bound_cols = np.array([-1, 0, 0, 1])
    bound_offsets = offsets[[0, steps - inner - 1, steps + inner + 1, -1]]
    rows = np.arange(len(srows))
    tops = np.empty((c, len(srows)))
    at = np.empty((c, len(srows)))
    for w0 in range(0, c, _SCAN_CHUNK):
        ks = np.arange(w0, min(w0 + _SCAN_CHUNK, c))
        centres = np.sqrt(idx[ks] / 2.0)
        cols = np.clip(ks[:, None] + near, 0, c - 1)  # edge windows repeat a column
        band_xs = centres[:, None] + band
        band_vals = _linear(
            *basis.log_psi_from_half(idx[cols, None], half[cols, None], band_xs[:, None, :])
        )  # (windows, 2 nb + 1, band points)
        # an edge window's repeated column only loosens its bound
        bcols = np.clip(ks[:, None] + bound_cols, 0, c - 1)
        at_bound = _linear(
            *basis.log_psi_from_half(idx[bcols], half[bcols], centres[:, None] + bound_offsets)
        )
        bounds = _BAND_MARGIN * scale * (
            at_bound[:, 0] + np.maximum(at_bound[:, 1], at_bound[:, 2]) + at_bound[:, 3]
        )
        for i, k in enumerate(ks.tolist()):
            lo, hi = max(k - nb, 0), min(k + nb + 1, c)
            xs = band_xs[i]
            combos = np.abs(srows[:, lo:hi] @ band_vals[i, lo - k + nb : hi - k + nb]) * scale
            arg = np.argmax(combos, axis=1)
            top = combos[rows, arg]
            if not np.all(top > bounds[i]):  # the band may miss the maximum
                xs = centres[i] + offsets
                combos = np.abs(srows[:, lo:hi] @ row_values(spec, h, xs, slice(lo, hi))) * scale
                arg = np.argmax(combos, axis=1)
                top = combos[rows, arg]
            tops[k] = top
            at[k] = xs[arg]
    return tops, at


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
