"""Truncated kernel evaluation, exact-kernel comparison and truncation
tail bounds.

The tail bound majorises the *mathematical* remainder of the power series.
Comparisons of floating-point evaluations against it therefore carry an
explicit machine allowance ``EVAL_SLACK``: for deep horizons the true
remainder (and its bound) sits hundreds of orders of magnitude below the
rounding noise of the evaluation, so a zero-slack comparison would be
meaningless.  That noise is not a fixed ~1e-15: each log term is good to
about k eps at the indices that matter, so it grows with |x| (3.2e-13 at
(24, 24.5) on ``build_combo(8)``), and the grid ``--scheme combo
--max-block 5 --range -40:40 --step 8`` exits 1 over the 1e-13 allowance
(ROADMAP, "Accuracy falls with |x|"; item 1 is the fix).  The mathematical
soundness of the bound itself is established separately against a
high-precision oracle in the test suite.

Every pair of every scheme goes through one function, :func:`_pair_sum`.
A raw or bounded pair sums its full horizon; a combo pair reads every
choice off one list, its blocks that reach e^-765 at both points (from
each point's block bounds, ``_Point.log_sups``).  It sums the head of
that list alone when the bound on the rest cannot move the rounding (at
|x|, |y| <= 3 block 1 alone, 135 terms), else the whole list, or the
blocks that reach e^-1530 when no term reaches 1e-300, with the bits of
the full-horizon sum (proofs at :func:`_pair_sum` and ``_LOG_WIDE``).  A
grid report counts its pairs by path, each a fact about the pair alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .expansion import Expansion
from .numerics import log_factorial

__all__ = [
    "ReconstructionReport",
    "exact_kernel",
    "series_kernel",
    "tail_bound",
    "grid_report",
    "EVAL_SLACK",
    "MAX_GRID_PAIRS",
    "MAX_COLUMN_BYTES",
    "PAIR_PATHS",
]

# Allowance for accumulated double rounding when comparing a float series
# evaluation against the analytic tail bound; it covers the noise at small
# |x| only (see the module docstring).
EVAL_SLACK = 1e-13

# Linear accumulation is used while any term magnitude stays above this;
# below it the signed log-domain reduction takes over.
_LINEAR_FLOOR_LOG = math.log(1e-300)

# A combo block with ln c_n + min(ln M_n(x), ln M_n(y)) below this is
# skipped at (x, y): its terms are at most c_n M_n(x) M_n(y), M_n <= 1
# (`_Point.log_sups`).  exp() is exactly 0.0 below -745.13, and the 20
# units to spare cover the rounding of every log term and of the bound.
_LOG_NEGLIGIBLE = -765.0
# The wide blocks' floor, summed when no term of a pair reaches 1e-300.
# It keeps every bit of the full-horizon sum, anchored on its top term T:
# - if T >= e^-765, T lies in a narrow block and anchors the sum; a term
#   outside the wide blocks rescales to exp(< -765), exactly 0.0;
# - if T < e^-765, as when no block is narrow, both sums are +0.0:
#   T + ln(horizon) < -745 for a horizon below e^20 ~ 4.8e8 terms (block 11;
#   build_combo stops at block 8 by default).
_LOG_WIDE = 2 * _LOG_NEGLIGIBLE

# A combo pair's head blocks are those whose bound lies within this many
# e-folds of the largest (`_pair_sum`).  The rest is then under
# 2 * 7 * e^-45 < 2^-60 of the largest bound (seven blocks at most), under
# 2^-7 of an ulp of a sum near that bound.  So a pair falls back to
# the narrow pass only if its sum cancels far below its largest bound or
# lies that close to a rounding boundary.  A wider gap sums more blocks:
# at |x|, |y| <= 3 block 1 is summed alone, block 2 being below e^-149 of it.
_HEAD_GAP = 45.0

# The paths a pair sum can take (`_pair_sum`), as a report counts them.
PAIR_PATHS = ("head", "narrow", "wide", "disjoint")

# Most (x, y) pairs a grid report evaluates; the CLI's default grid has 625.
MAX_GRID_PAIRS = 10**6

# Most bytes a raw or bounded grid report holds in its columns: each grid
# column keeps full-horizon (signs, logs), 16 bytes per term.  Combo columns
# hold the blocks their pairs sum, and are not counted against it.
MAX_COLUMN_BYTES = 2**29


def exact_kernel(x: float, y: float, eta: float = 1.0) -> float:
    """The Gaussian kernel e^(-(x-y)^2 / eta)."""
    if not eta > 0.0:
        raise DomainError("kernel width eta must be positive")
    d = x - y
    return math.exp(-d * d / eta)


def _check_domain(e: Expansion, x: float) -> None:
    if not math.isfinite(x):
        raise DomainError(f"evaluation point must be finite, got {x!r}")
    if e.domain_edge is not None and not 0.0 <= x <= e.domain_edge:  # bounded
        raise DomainError(f"bounded expansion is defined on [0, {e.domain_edge}], got {x!r}")


def _accumulate(
    log_weights: np.ndarray, sx, lx, sy, ly, linear_only: bool = False, rest: float = 0.0
) -> float | None:
    """Deterministic sum of lambda_i b_i(x) b_i(y) from log components.

    While any term is representable the terms are summed with math.fsum,
    which is correctly rounded; a signed log-domain reduction covers the
    regime where every term underflows.  With ``linear_only`` that regime
    returns None instead: its anchor is the top term of the whole horizon,
    which only the wide blocks must hold.  A log is -inf exactly where its
    sign is 0, so a dead term's exp is 0.0 without a mask, and each product
    with the +-1 or 0 signs is exact.

    A ``rest`` > 0 bounds the sum of terms left out.  Then only the linear
    regime answers: if the fsums with +rest and with -rest appended are one
    nonzero value, that value, to which every sum within rest of these
    terms' exact sum rounds; else None (proof at `_pair_sum`).  The reals
    that round to one double span at most its ulp, so the second fsum is
    not run when 2 rest exceeds the first's ulp.
    """
    log_terms = log_weights + lx + ly
    top = float(log_terms.max())
    tiny = top < _LINEAR_FLOOR_LOG
    strict = linear_only or rest > 0.0
    if top == -math.inf or (tiny and strict):
        return None if strict else 0.0
    if tiny:  # all-tiny regime: anchored signed reduction
        log_terms -= top
    with np.errstate(under="ignore"):
        terms = np.exp(log_terms, out=log_terms)
    terms *= sx
    terms *= sy
    if rest > 0.0:
        values = terms.tolist()
        values.append(rest)
        high = math.fsum(values)
        if high == 0.0 or 2.0 * rest > math.ulp(high):
            return None
        values[-1] = -rest
        return high if math.fsum(values) == high else None
    acc = math.fsum(terms.tolist())
    if not tiny:
        return acc
    if acc == 0.0:
        return 0.0
    log_res = top + math.log(abs(acc))  # the result may be subnormal
    if log_res < -745.0:
        return 0.0
    return math.copysign(math.exp(log_res), acc)


class _Point:
    """A point's values, each made on first use and kept: per combo block
    (block 0: a raw or bounded point's full horizon), and ln M_n(x) per
    combo block (`log_sups`)."""

    def __init__(self, e: Expansion, x: float) -> None:
        self.e, self.x = e, x
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._sups: list[float] = []

    def block(self, n: int):
        if n not in self._blocks:
            self._blocks[n] = self.e._block_values(n, self.x) if n else self.e.basis_log_values(self.x)
        return self._blocks[n]

    def log_sups(self, floor: float) -> list[float]:
        """ln M_n(x) (`Expansion._log_sup`) of blocks 1, 2, ... up to the
        first block past the mode (y_n > 2 x^2) whose ln c_n + ln M_n(x) is
        below ``floor``, or to the last: every later block is below it too.

        A combo term of block n at (x, y) is combo(x) combo(y), each combo a
        +-1 sum of c_n psi's over sqrt(c_n), so it is at most
        c_n M_n(x) M_n(y).  psi_k(x)^2 is unimodal in k with its mode at
        floor(2 x^2), so ln c_n + ln M_n(x) rises up to the mode's block and
        falls after it: the blocks whose bound reaches a floor are
        consecutive.  Past the mode M_n is |psi_{y_n}(x)|, and psi_k^2 falls
        by 2 x^2 / (k + 1) < y_n / (k + 1) per step, so with y_{n+1} > 4 y_n,
        ln M_{n+1} - ln M_n < -sum_{j=y_n+1}^{4 y_n} ln(j / y_n) / 2
        < -y_n (4 ln 4 - 3) / 2 ~ -1.27 y_n: each later bound is lower by
        over 1.27 y_n - ln 2 >= 56, far beyond the scalar bound's rounding,
        and once one past the mode is below a floor, so is every later one.
        """
        spans, sups, mode = self.e._spans, self._sups, 2.0 * self.x * self.x
        for i in range(len(sups), len(spans)):
            if sups and spans[i - 1][0] > mode and spans[i - 1][2] + sups[-1] < floor:
                break
            sups.append(self.e._log_sup(i, self.x))
        return sups


def _reaching(e: Expansion, px: _Point, py: _Point, floor: float) -> list[int]:
    """The blocks n, in order, with ln c_n + min(ln M_n(x), ln M_n(y)) >= floor:
    every term of any other block is below e^floor (`_LOG_NEGLIGIBLE`)."""
    sups = zip(e._spans, px.log_sups(floor), py.log_sups(floor))
    return [n for n, ((_, _, log_c), mx, my) in enumerate(sups, 1) if log_c + min(mx, my) >= floor]


def _columns(e: Expansion, px: _Point, py: _Point, numbers: list[int]):
    """`_accumulate`'s arguments for the blocks ``numbers``, from the points' values."""
    parts = [(e.log_weights[slice(*e._spans[n - 1][:2])], *px.block(n), *py.block(n)) for n in numbers]
    return parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]


def _head_sum(e: Expansion, px: _Point, py: _Point, narrow: list[int]) -> float | None:
    """A combo pair's sum over the head of its ``narrow`` blocks alone, or
    None unless that sum certifies the pair's bits (`_pair_sum`)."""
    spans, sx, sy = e._spans, px._sups, py._sups
    log_bounds = [math.log(spans[n - 1][1] - spans[n - 1][0]) + sx[n - 1] + sy[n - 1]
                  for n in narrow]  # ln B_n = ln(r_n c_n M_n(x) M_n(y))
    top = max(log_bounds)
    if top < _LINEAR_FLOOR_LOG:  # no term reaches 1e-300
        return None
    cut = top - _HEAD_GAP
    head = [n for n, b in zip(narrow, log_bounds) if b >= cut]
    if len(head) == len(narrow):  # the narrow pass sums the same terms, with one fsum, not two
        return None
    rest = 2.0 * sum(max(math.exp(b), 5e-324) for b in log_bounds if b < cut)
    return _accumulate(*_columns(e, px, py, head), rest=rest)


def _pair_sum(e: Expansion, px: _Point, py: _Point) -> tuple[float, str]:
    """(sum_i lambda_i b_i(x) b_i(y), the path that gave it).

    A raw or bounded pair sums its full horizon, counted as "narrow".  A
    combo pair's narrow blocks are those that reach _LOG_NEGLIGIBLE at both
    points (`_reaching`): every term of any other block is exactly 0.0 in a
    linear fsum.  With none the sum is +0.0 ("disjoint").  Else the pair
    first takes the "head" path: the fsum over its head blocks alone, when
    it certifies the narrow fsum's bits.  It is not tried when no term
    reaches 1e-300, or when the head is every narrow block, where it saves
    no work.  Otherwise the sum is the linear sum over the narrow blocks
    ("narrow"), else the log-domain sum over those that reach _LOG_WIDE
    ("wide").

    The head blocks are the narrow ones whose bound
    B_n = r_n c_n M_n(x) M_n(y) lies within _HEAD_GAP of the largest; rest
    is twice the sum of the other narrow B_n, each at least 5e-324.  Every
    bit is kept:

    1. S S^T = c I gives sum_s combo_s(x)^2 = sum_k psi_k(x)^2 over a row.
       So by Cauchy-Schwarz, twice, a block's |terms| sum to at most
       sqrt(P_x) sqrt(P_y) <= B_n, where P_x and P_y are the block's
       Poisson masses.  The factor 2 covers the rounding of the computed
       logs and combos (under 1e-3 e-folds through block 12, per
       `expansion._combo_block_log_values`) and of the bound itself, and
       the floor 5e-324 an exp that underflows.
    2. `_accumulate` with rest > 0 answers only if a head term is at least
       1e-300, so the narrow pass is linear: the fsum over the narrow
       blocks, whose terms outside the head sum to at most rest.
    3. fsum is correctly rounded and rounding is monotone.  So
       RN(S - rest) = RN(S + rest) = s != 0, for the head's exact sum S,
       forces RN(S + R) = s for every |R| <= rest: s is the narrow fsum.
    """
    if e.scheme != "combo":
        return _accumulate(e.log_weights, *px.block(0), *py.block(0)), "narrow"
    narrow = _reaching(e, px, py, _LOG_NEGLIGIBLE)
    if not narrow:
        return 0.0, "disjoint"
    value = _head_sum(e, px, py, narrow)
    if value is not None:
        return value, "head"
    # all blocks are the full horizon, which anchors the log-domain sum itself
    value = _accumulate(*_columns(e, px, py, narrow), linear_only=len(narrow) < len(e._spans))
    if value is not None:
        return value, "narrow"
    # the wide blocks hold the narrow ones, so they are not empty either
    return _accumulate(*_columns(e, px, py, _reaching(e, px, py, _LOG_WIDE))), "wide"


def series_kernel(e: Expansion, x: float, y: float) -> float:
    """sum_i lambda_i b_i(x) b_i(y) in a deterministic order.

    Every scheme goes through :func:`_pair_sum`: a raw or bounded pair sums
    its full horizon, a combo pair the blocks that can hold a nonzero term.
    """
    _check_domain(e, x)
    _check_domain(e, y)
    return _pair_sum(e, _Point(e, x), _Point(e, y))[0]


def tail_bound(horizon: int, x: float, y: float) -> float | None:
    """Majorant of the truncation error of a horizon-term raw expansion.

    The first omitted power-series index is ``horizon`` itself, and for
    horizon >= 2 |2xy| the remainder is dominated by twice its first term:
    e^(-x^2 - y^2) * 2 |2xy|^horizon / horizon!.  Outside that regime the
    ratio test does not apply and ``None`` ("bound unavailable") is
    returned rather than an unsound number.
    """
    z = 2.0 * x * y
    if horizon < 2.0 * abs(z):
        return None
    if z == 0.0:
        return 0.0
    log_b = (
        -x * x
        - y * y
        + math.log(2.0)
        + horizon * math.log(abs(z))
        - log_factorial(horizon)
    )
    if log_b < -745.0:
        # below the double range; the smallest subnormal still majorises
        return 5e-324
    return math.exp(log_b)


@dataclass(frozen=True)
class ReconstructionReport:
    """Grid comparison of a truncated series against the exact kernel."""

    scheme: str
    horizon: int
    eta: float
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    step: float
    rows: tuple[tuple[float, float, float, float, float, float | None], ...]
    max_abs_error: float
    max_tail_bound: float
    bound_satisfied: bool
    # (path, pairs) per `_pair_sum` path, in PAIR_PATHS order
    pair_paths: tuple[tuple[str, int], ...]

    def summary_dict(self) -> dict:
        return {
            "schema_version": 1,
            "scheme": self.scheme,
            "horizon": self.horizon,
            "eta": self.eta,
            "grid": {
                "x": list(self.x_range),
                "y": list(self.y_range),
                "step": self.step,
                "points": len(self.rows),
            },
            "max_abs_error": self.max_abs_error,
            "max_tail_bound": self.max_tail_bound,
            "eval_slack": EVAL_SLACK,
            "bound_satisfied": self.bound_satisfied,
            "pair_paths": dict(self.pair_paths),
        }


def _grid_count(lo: float, hi: float, step: float) -> int:
    """Number of points lo, lo + step, ... up to hi.  The count is checked
    in floating point, where a step too fine for the range gives a huge or
    infinite value rather than a huge list."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid bounds must be finite, got {lo!r}:{hi!r}")
    if not step > 0.0:
        raise DomainError("grid step must be positive")
    if hi < lo:
        raise DomainError("empty grid range")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_PAIRS:
        raise RangeError(
            f"grid {lo!r}:{hi!r} at step {step!r} exceeds {MAX_GRID_PAIRS} pairs"
        )
    return int(math.floor(span)) + 1


def grid_report(
    e: Expansion,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    step: float = 0.25,
    eta: float = 1.0,
) -> ReconstructionReport:
    """Compare series and exact kernel over a rectangular grid.

    For eta != 1 inputs are rescaled by 1/sqrt(eta) at this edge; the
    expansion itself always lives at unit width.  Rows are produced in
    grid order, x outer; no grid point lies past its range's end.  A grid
    of more than MAX_GRID_PAIRS pairs, or raw or bounded columns of more
    than MAX_COLUMN_BYTES, raises RangeError before any point is built.
    Every pair goes through :func:`_pair_sum`; a grid point keeps each of
    its block values, and its ln M_n, once made.
    """
    if not eta > 0.0:
        raise DomainError("kernel width eta must be positive")
    nx, ny = _grid_count(*x_range, step), _grid_count(*y_range, step)
    if nx * ny > MAX_GRID_PAIRS:
        raise RangeError(f"grid of {nx} x {ny} points exceeds {MAX_GRID_PAIRS} pairs")
    # lo + i * step may round past hi on the last point: it is then hi
    xs = [min(x_range[0] + i * step, x_range[1]) for i in range(nx)]
    ys = [min(y_range[0] + i * step, y_range[1]) for i in range(ny)]
    scale = 1.0 / math.sqrt(eta)
    for v in (xs[0], xs[-1], ys[0], ys[-1]):
        _check_domain(e, v * scale)
    horizon = len(e)
    if e.scheme != "combo" and ny * horizon * 16 > MAX_COLUMN_BYTES:
        raise RangeError(
            f"{ny} grid columns of {horizon} terms exceed {MAX_COLUMN_BYTES} bytes"
        )
    by = [_Point(e, y * scale) for y in ys]
    rows = []
    paths = dict.fromkeys(PAIR_PATHS, 0)
    for x in xs:
        px = _Point(e, x * scale)
        for y, py in zip(ys, by):
            series, path = _pair_sum(e, px, py)
            paths[path] += 1
            exact = exact_kernel(x, y, eta)
            bound = tail_bound(horizon, px.x, py.x)
            rows.append((x, y, exact, series, abs(exact - series), bound))
    max_err = max(r[4] for r in rows)
    max_bound = max((r[5] for r in rows if r[5] is not None), default=0.0)
    ok = all(r[5] is not None and r[4] <= r[5] + EVAL_SLACK for r in rows)
    return ReconstructionReport(
        scheme=e.scheme,
        horizon=horizon,
        eta=eta,
        x_range=tuple(x_range),
        y_range=tuple(y_range),
        step=step,
        rows=tuple(rows),
        max_abs_error=max_err,
        max_tail_bound=max_bound,
        bound_satisfied=ok,
        pair_paths=tuple(paths.items()),
    )

