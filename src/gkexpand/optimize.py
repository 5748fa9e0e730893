"""One-dimensional golden-section maximisation used to refine grid extrema.

`golden_steps` is the search itself, as a generator of probe points, so
that `golden_max` can step several searches in lockstep and evaluate all
their probes in one call: `blocks.row_sup_norms` refines a row this way,
one call of 36 steps.  Slots whose bracket one column certifies share one
search on that column's psi alone; only the other slots, each its own
search, are evaluated in a batch by the row evaluator
`blocks._combo_abs_at` (x > 0, one probe per slot, one errstate for the
search), 36 calls for all of them instead of 36 per slot.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Sequence, Tuple

from .errors import DomainError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

XTOL = 1e-10  # final bracket width of every search


def golden_steps(a: float, b: float) -> Generator[float, float, Tuple[float, float]]:
    """Maximise a unimodal f over [a, b], one probe at a time.

    Yields each probe x and is sent f(x); returns ``(x_star, f(x_star))``
    with the bracket narrowed below `XTOL`.  The step count is fixed up
    front from the bracket width, so the probe sequence (and therefore the
    result) is fully deterministic.
    """
    a, b = (a, b) if a <= b else (b, a)
    h = b - a
    if h <= XTOL:
        x = 0.5 * (a + b)
        return x, (yield x)

    n = max(1, int(math.ceil(math.log(XTOL / h) / math.log(INV_PHI))))
    c = a + INV_PHI_SQ * h
    d = a + INV_PHI * h
    yc = yield c
    yd = yield d
    for _ in range(n - 1):
        h *= INV_PHI
        if yc > yd:
            b = d
            d = c
            yd = yc
            c = a + INV_PHI_SQ * h
            yc = yield c
        else:
            a = c
            c = d
            yc = yd
            d = a + INV_PHI * h
            yd = yield d
    if yc > yd:
        return c, yc
    return d, yd


def golden_max(
    f: Callable[[list[float]], Sequence[float]],
    brackets: Sequence[Tuple[float, float]],
) -> list[Tuple[float, float]]:
    """Run `golden_steps` over each (a, b) of ``brackets`` in lockstep.

    Each step calls ``f(xs)`` once, with one probe point per bracket in
    order, and takes back their values in the same order.  The widths fix
    the step counts, which must all be equal, else DomainError.  Returns
    one ``(x_star, f(x_star))`` per bracket, in order.
    """
    searches = [golden_steps(a, b) for a, b in brackets]
    xs = [next(g) for g in searches]
    while xs:
        ys = f(xs)
        xs, done = [], []
        for g, y in zip(searches, ys):
            try:
                xs.append(g.send(y))
            except StopIteration as stop:
                done.append(stop.value)
        if done:
            if xs:
                raise DomainError("golden searches end on different steps")
            return done
    return []
