"""One-dimensional golden-section maximisation used to refine grid extrema.

`blocks.row_sup_norms` refines each grid maximum with one `golden_max`
call of 36 evaluations: one search per certified grid point, on that
column's psi alone, shared by the slots whose maxima sit there, and one
per uncertified slot, on the whole row (`blocks._combo_abs_at`).
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

XTOL = 1e-10  # final bracket width of every search


def golden_max(f: Callable[[float], float], a: float, b: float) -> Tuple[float, float]:
    """Maximise a unimodal f over [a, b], one probe at a time.

    Returns ``(x_star, f(x_star))`` with the bracket narrowed below
    `XTOL`.  The step count is fixed up front from the bracket width, so
    the probe sequence (and therefore the result) is fully deterministic.
    """
    a, b = (a, b) if a <= b else (b, a)
    h = b - a
    if h <= XTOL:
        x = 0.5 * (a + b)
        return x, f(x)

    n = max(1, int(math.ceil(math.log(XTOL / h) / math.log(INV_PHI))))
    c = a + INV_PHI_SQ * h
    d = a + INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n - 1):
        h *= INV_PHI
        if yc > yd:
            b = d
            d = c
            yd = yc
            c = a + INV_PHI_SQ * h
            yc = f(c)
        else:
            a = c
            c = d
            yc = yd
            d = a + INV_PHI * h
            yd = f(d)
    if yc > yd:
        return c, yc
    return d, yd
