"""One-dimensional golden-section maximisation used to refine grid extrema.

`golden_steps` is the search itself, as a generator of probe points, so
that `golden_max_many` can step several searches in lockstep and evaluate
all their probes in one call: `blocks.row_sup_norms` refines every slot of
a row this way, with 36 batched evaluations per row instead of 36 per slot.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Sequence, Tuple

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_steps(
    a: float, b: float, xtol: float = 1e-10
) -> Generator[float, float, Tuple[float, float]]:
    """Maximise a unimodal f over [a, b], one probe at a time.

    Yields each probe x and is sent f(x); returns ``(x_star, f(x_star))``
    with the bracket narrowed below ``xtol``.  The step count is fixed up
    front from the bracket width, so the probe sequence (and therefore the
    result) is fully deterministic.
    """
    a, b = (a, b) if a <= b else (b, a)
    h = b - a
    if h <= xtol:
        x = 0.5 * (a + b)
        return x, (yield x)

    n = max(1, int(math.ceil(math.log(xtol / h) / math.log(INV_PHI))))
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


def golden_max_many(
    f: Callable[[list[int], list[float]], Sequence[float]],
    brackets: Sequence[Tuple[float, float]],
    xtol: float = 1e-10,
) -> list[Tuple[float, float]]:
    """Run `golden_steps` over each (a, b) of ``brackets`` in lockstep.

    Each step calls ``f(live, xs)`` once, with the positions in
    ``brackets`` of the searches still running and their probe points,
    and takes back their values in the same order.  A search keeps its own
    step count and drops out when it is done.  Returns one
    ``(x_star, f(x_star))`` per bracket, in order.
    """
    searches = [golden_steps(a, b, xtol) for a, b in brackets]
    out: list[Tuple[float, float]] = [(math.nan, math.nan)] * len(searches)
    live = list(range(len(searches)))
    xs = [next(g) for g in searches]
    while live:
        ys = f(live, xs)
        still, xs = [], []
        for i, y in zip(live, ys):
            try:
                xs.append(searches[i].send(y))
            except StopIteration as done:
                out[i] = done.value
            else:
                still.append(i)
        live = still
    return out


def golden_max(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 1e-10,
) -> Tuple[float, float]:
    """Maximise a unimodal ``f`` over [a, b]: one `golden_steps` search.

    Returns ``(x_star, f(x_star))`` with the bracket narrowed below ``xtol``.
    """
    return golden_max_many(lambda _live, xs: [f(xs[0])], [(a, b)], xtol)[0]
