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

Every pair of every scheme takes one path, :func:`_pair_sum`, which follows
:meth:`Expansion.term_window`: it sums the terms inside both points'
windows, or inside their wide windows when no term reaches 1e-300, and
each result keeps its bits (proof at ``expansion._LOG_WIDE``).  A combo
window holds the blocks that matter at its point, so no combo pair
evaluates the full horizon; raw and bounded windows are the full horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .expansion import _LOG_WIDE, Expansion
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
]

# Allowance for accumulated double rounding when comparing a float series
# evaluation against the analytic tail bound; it covers the noise at small
# |x| only (see the module docstring).
EVAL_SLACK = 1e-13

# Linear accumulation is used while any term magnitude stays above this;
# below it the signed log-domain reduction takes over.
_LINEAR_FLOOR_LOG = math.log(1e-300)

# Most (x, y) pairs a grid report evaluates; the CLI's default grid has 625.
MAX_GRID_PAIRS = 10**6

# Most bytes a raw or bounded grid report holds in its columns: each grid
# column keeps full-horizon (signs, logs), 16 bytes per term.  Combo columns
# hold term windows, not the horizon, and are not counted against it.
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
    log_weights: np.ndarray, sx, lx, sy, ly, linear_only: bool = False
) -> float | None:
    """Deterministic sum of lambda_i b_i(x) b_i(y) from log components.

    While any term is representable the terms are summed with math.fsum,
    which is correctly rounded; a signed log-domain reduction covers the
    regime where every term underflows.
    With ``linear_only`` that regime returns None instead: its anchor is
    the top term of the whole horizon, which only a wide window must hold.
    A log is -inf exactly where its sign is 0, so a dead term's exp is 0.0
    without a mask, and each product with the +-1 or 0 signs is exact.
    """
    log_terms = log_weights + lx + ly
    top = float(log_terms.max())
    tiny = top < _LINEAR_FLOOR_LOG
    if top == -math.inf or (tiny and linear_only):
        return None if linear_only else 0.0
    if tiny:  # all-tiny regime: anchored signed reduction
        log_terms -= top
    with np.errstate(under="ignore"):
        terms = np.exp(log_terms, out=log_terms)
    terms *= sx
    terms *= sy
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
    """A point's narrow (window, (signs, log magnitudes)) part, and its wide
    part, made on first use."""

    def __init__(self, e: Expansion, x: float) -> None:
        w = e.term_window(x)
        self.e, self.x, self.part, self._wide = e, x, (w, e.basis_log_values(x, w)), None

    def wide(self):
        if self._wide is None:
            w = self.e.term_window(self.x, _floor=_LOG_WIDE)
            self._wide = w, self.e.basis_log_values(self.x, w)
        return self._wide


def _overlap_sum(e: Expansion, x_part, y_part, linear_only: bool) -> float | None:
    """_accumulate over two parts' overlap: +0.0 if empty, one pass if full-horizon."""
    (wx, (sx, lx)), (wy, (sy, ly)) = x_part, y_part
    start, stop = max(wx.start, wy.start), min(wx.stop, wy.stop)
    if start >= stop:
        return 0.0
    cx, cy = slice(start - wx.start, stop - wx.start), slice(start - wy.start, stop - wy.start)
    return _accumulate(e.log_weights[start:stop], sx[cx], lx[cx], sy[cy], ly[cy],
                       linear_only and stop - start < len(e))


def _pair_sum(e: Expansion, px: _Point, py: _Point) -> float:
    """sum_i lambda_i b_i(x) b_i(y): +0.0 for disjoint windows, else the linear
    sum over the narrow intersection, else the log-domain sum over the wide."""
    value = _overlap_sum(e, px.part, py.part, linear_only=True)
    return _overlap_sum(e, px.wide(), py.wide(), linear_only=False) if value is None else value


def series_kernel(e: Expansion, x: float, y: float) -> float:
    """sum_i lambda_i b_i(x) b_i(y) in a deterministic order.

    Every scheme sums the terms inside both points' windows
    (:func:`_pair_sum`); raw and bounded windows are the full horizon.
    """
    _check_domain(e, x)
    _check_domain(e, y)
    return _pair_sum(e, _Point(e, x), _Point(e, y))


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
    Every pair goes through :func:`_pair_sum`, so no combo pair evaluates
    the full horizon; a grid point keeps its wide values once made.
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
    for x in xs:
        px = _Point(e, x * scale)
        for y, py in zip(ys, by):
            series = _pair_sum(e, px, py)
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
    )

