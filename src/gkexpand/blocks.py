"""Integer block bookkeeping and recursive sign recombination.

The non-negative integers are tiled by matrices with r_n = 135 * 2^(n-1)
rows and c_n = 2^(n-1) columns; the entries of one row index c_n raw basis
functions whose peaks are far enough apart (about 3.56 in x) that signed
combinations barely interact.  Recombining each row with an orthogonal
+-1 pattern shrinks every sup-norm by 1/sqrt(c_n) while keeping the kernel
sum invariant, which is the whole point of the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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

# Memory cap for a dense c x c sign matrix, checked before any allocation.
# The Gram check of `gkexpand signs` holds four c x c int64 arrays at once
# (matrix, Gram matrix, identity, c * identity): 32 c^2 = 32 * 4^(n-1) bytes.
MAX_SIGN_BYTES = 2**28
_MAX_SIGN_BLOCK = 1 + int(math.log(MAX_SIGN_BYTES / 32, 4))

# Block numbers large enough that y_{n+1} would overflow a 64-bit integer
# are rejected so specs stay portable to fixed-width consumers.
_MAX_BLOCK_64BIT = 28

# Sup-norm searches look at +-2 around each peak: contributions from
# outside a window are below 1e-11 of the peak, far under every tolerance.
WINDOW_HALFWIDTH = 2.0

# Limiting value of the in-row peak separation, 135 / (4 sqrt(90)).
SEPARATION_LIMIT = 135.0 / (4.0 * math.sqrt(90.0))


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


@dataclass(frozen=True)
class SignMatrix:
    """The +-1 recombination pattern of one block.

    Rows are the sign rows of the recombined functions; the matrix is
    orthogonal in the exact sense S S^T = c I.
    """

    n: int
    entries: np.ndarray

    def row(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.entries.shape[0]:
            raise RangeError(f"slot {j} outside [0, {self.entries.shape[0]})")
        return tuple(int(v) for v in self.entries[j])

    def to_csv_text(self) -> str:
        """Row-major CSV of the +-1 entries, LF line endings."""
        lines = [",".join(str(int(v)) for v in r) for r in self.entries]
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=64)
def sign_matrix(n: int) -> SignMatrix:
    """Build the block-n sign pattern by the pairing recursion.

    Stage by stage, sums of adjacent pairs fill the first half of the slots
    and differences the second half; after n-1 stages every slot combines
    all c_n inputs.  (This ordering is the construction's own, kept verbatim
    so the worked 8x8 table can serve as a golden test.)
    """
    if n < 1:
        raise RangeError(f"block number must be >= 1, got {n}")
    if n > _MAX_SIGN_BLOCK:
        raise RangeError(
            f"sign matrix for block {n} exceeds the {MAX_SIGN_BYTES}-byte cap "
            f"(deepest block {_MAX_SIGN_BLOCK})"
        )
    c = 2 ** (n - 1)
    s = np.eye(c, dtype=np.int64)
    for _ in range(n - 1):
        nxt = np.empty_like(s)
        nxt[: c // 2] = s[0::2] + s[1::2]
        nxt[c // 2 :] = s[0::2] - s[1::2]
        s = nxt
    s.flags.writeable = False
    return SignMatrix(n=n, entries=s)


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
    signs = sign_matrix(n).row(slot)
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


def row_values(spec: BlockSpec, h: int, xs: np.ndarray) -> np.ndarray:
    """Signed linear psi values of one row's raw indices over a grid.

    Returns shape (c, len(xs)); entries below the double underflow limit
    come out as 0, which is harmless for the absolute comparisons these
    matrices feed.
    """
    idx = np.asarray(row_indices(spec, h), dtype=np.float64)
    signs, logs = basis.log_psi(idx[:, None], np.asarray(xs, dtype=np.float64))
    with np.errstate(under="ignore"):
        vals = np.exp(logs, out=logs)
    vals *= signs
    return vals


def _combo_abs_at(signs_arr: np.ndarray, idx: np.ndarray, scale: float, x: float) -> float:
    """|combo(x)| in linear space; accurate near the peaks where it is used."""
    psign, logs = basis.log_psi(idx, x)
    with np.errstate(under="ignore"):
        vals = np.exp(logs)
    return abs(float(np.sum(signs_arr * psign * vals))) * scale


def combo_sup_norm(d: ComboDescriptor) -> tuple[float, float]:
    """Maximise |combo| over windows around every constituent peak.

    Grid pitch 1e-3 per window, then golden-section refinement of the best
    grid point to 1e-10.  Returns (argmax, max).  The reported argmax may
    sit on any of the peaks (their heights agree to ~1e-11 for deep
    blocks); only the value carries a guarantee.
    """
    _, x_star, value = row_sup_norms(d.block.n, d.row, slots=(d.slot,))[0]
    return x_star, value


def row_sup_norms(
    n: int, h: int, slots: Sequence[int] | None = None
) -> list[tuple[int, float, float]]:
    """Sup-norms of several slots of one row, sharing the grid evaluations.

    Returns [(slot, x_star, value), ...] in the order requested.  All slots
    of a row share the same peak windows, so the psi grid is computed once
    per window and reused.
    """
    spec = block_spec(n)
    sm = sign_matrix(n)
    if slots is None:
        slots = range(spec.c)
    slots = list(slots)
    idx = np.asarray(row_indices(spec, h), dtype=np.float64)
    srows = sm.entries[slots].astype(np.float64)
    scale = spec.c**-0.5

    if spec.c == 1:
        info = basis.peak(spec.y + h)
        return [(s, info.x_peak, info.m) for s in slots]

    best_x = {s: 0.0 for s in slots}
    best_v = {s: -1.0 for s in slots}
    steps = int(round(WINDOW_HALFWIDTH / basis.GRID_STEP))
    offsets = np.arange(-steps, steps + 1, dtype=np.float64) * basis.GRID_STEP
    for pk in idx:
        center = math.sqrt(pk / 2.0)
        xs = center + offsets
        vals = row_values(spec, h, xs)  # (c, nx)
        combos = np.abs(srows @ vals) * scale  # (len(slots), nx)
        arg = np.argmax(combos, axis=1)
        for si, s in enumerate(slots):
            v = float(combos[si, arg[si]])
            if v > best_v[s]:
                best_v[s] = v
                best_x[s] = float(xs[arg[si]])

    out = []
    for si, s in enumerate(slots):
        signs_arr = srows[si]

        def f(x: float, sa: np.ndarray = signs_arr) -> float:
            return _combo_abs_at(sa, idx, scale, x)

        x_star, v_star = golden_max(
            f, best_x[s] - basis.GRID_STEP, best_x[s] + basis.GRID_STEP, xtol=1e-10
        )
        if v_star < best_v[s]:  # refinement may only improve on the grid point
            x_star, v_star = best_x[s], best_v[s]
        out.append((s, x_star, v_star))
    return out


def min_row_separation(n: int) -> float:
    """Smallest (sqrt(P_k) - sqrt(P_{k-1})) / sqrt(2) over all rows of block n."""
    spec = block_spec(n)
    if spec.c < 2:
        raise DomainError("separation needs at least two columns (n >= 2)")
    h = np.arange(spec.r, dtype=np.float64)[:, None]
    k = np.arange(spec.c, dtype=np.float64)[None, :]
    p = spec.y + h + k * spec.r
    sep = (np.sqrt(p[:, 1:]) - np.sqrt(p[:, :-1])) / math.sqrt(2.0)
    return float(sep.min())
