"""The four benchmark workloads: inputs, ops, oracle checks and digests.

Each workload is a closed loop over a seeded, endless op stream.  The seed
fixes the input values and their order; it never changes the proportions
of the op mix (mixed workloads draw each kind once per cycle, in seeded
order).  Every op result is checked against the package's own oracle and
folded into an output digest.  The first ``prefix_ops`` ops of a stream
form the digest prefix: every run completes them, so their digest and
useful-work counts repeat exactly for a seed.

``full`` sizes are the benchmark's; ``tiny`` sizes exist for the harness
self-test and run each op in about a millisecond.
"""

from __future__ import annotations

import math
import random
import struct

import numpy as np

from gkexpand import basis, blocks, probe, reconstruct
from gkexpand.expansion import build_bounded, build_combo, build_raw

# Smallest positive double is 5e-324; a term whose log magnitude is below
# this underflows to 0.0 and adds nothing to a float sum.
LOG_SMALLEST_SUBNORMAL = math.log(5e-324)

# The CLI's sup-norm gate: value^2 * c * sqrt(2 pi (y + h)) for n >= 3.
COMBO_NORM_WINDOW = (0.95, 1.05)

# How far a probe verifier's quadratic form may sit from the builder's (and
# its squared linear form, relatively, from the one recomputed here): far
# above the rounding of an fsum taken in another order, far below the
# certified margins of eps = 0.1 and delta = 0.9.
QUANTITY_TOL = 1e-12


def _pack(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


class _SeriesWorkload:
    """Shared op, check and counters of the two series workloads.

    An op evaluates one grid point the way ``reconstruct`` does: the
    truncated series, the exact kernel and the truncation tail bound.
    """

    def run(self, inputs, op):
        kind, x, y = op
        e = inputs[kind]
        series = reconstruct.series_kernel(e, x, y)
        exact = reconstruct.exact_kernel(x, y)
        bound = reconstruct.tail_bound(len(e), x, y)
        return series, exact, bound

    def check(self, inputs, op, result) -> bool:
        series, exact, bound = result
        return bound is not None and abs(series - exact) <= bound + reconstruct.EVAL_SLACK

    def digest_bytes(self, result) -> bytes:
        return _pack(result[0])

    def useful_work(self, inputs, op, result) -> dict[str, tuple[int, int]]:
        """Terms of the evaluated sum that survive as nonzero doubles."""
        kind, x, y = op
        e = inputs[kind]
        sx, lx = e.basis_log_values(x)
        sy, ly = e.basis_log_values(y)
        log_terms = e.log_weights + lx + ly
        alive = (sx * sy != 0.0) & (log_terms >= LOG_SMALLEST_SUBNORMAL)
        return {"expansion.terms_alive_ratio": (int(np.count_nonzero(alive)), len(e))}


class ComboPairs(_SeriesWorkload):
    name = "combo-pairs"
    warmup_ops = 2
    prefix_ops = 8

    def __init__(self, tiny: bool = False) -> None:
        self.block = 2 if tiny else 7

    def build(self):
        return {"combo": build_combo(self.block)}

    def ops(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield "combo", rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)


class ShortSeries(_SeriesWorkload):
    name = "short-series"
    warmup_ops = 200
    prefix_ops = 1000

    def __init__(self, tiny: bool = False) -> None:
        self.raw_horizon, self.bounded_horizon = (40, 60) if tiny else (200, 300)

    def build(self):
        return {
            "raw": build_raw(self.raw_horizon),
            "bounded": build_bounded(3.0, self.bounded_horizon),
        }

    def ops(self, seed: int):
        rng = random.Random(seed)
        kinds = ["raw", "bounded"]
        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                lo = -3.0 if kind == "raw" else 0.0
                yield kind, rng.uniform(lo, 3.0), rng.uniform(lo, 3.0)


class ComboNorms:
    """One op is ``row_sup_norms`` for four slots of a seeded block row."""

    name = "combo-norms"
    warmup_ops = 2
    prefix_ops = 8
    slots_per_op = 4

    def __init__(self, tiny: bool = False) -> None:
        self.block = 3 if tiny else 7

    def build(self):
        return {"spec": blocks.block_spec(self.block)}

    def ops(self, seed: int):
        rng = random.Random(seed)
        spec = blocks.block_spec(self.block)
        while True:
            h = rng.randrange(spec.r)
            yield h, tuple(sorted(rng.sample(range(spec.c), self.slots_per_op)))

    def run(self, inputs, op):
        h, slots = op
        return blocks.row_sup_norms(self.block, h, slots)

    def check(self, inputs, op, result) -> bool:
        spec = inputs["spec"]
        h, slots = op
        lo, hi = COMBO_NORM_WINDOW
        if [s for s, _x, _v in result] != list(slots):
            return False
        scale = spec.c * math.sqrt(2.0 * math.pi * (spec.y + h))
        return all(lo <= v * v * scale <= hi for _s, _x, v in result)

    def digest_bytes(self, result) -> bytes:
        return b"".join(_pack(x, v) for _s, x, v in result)

    def useful_work(self, inputs, op, result) -> dict[str, tuple[int, int]]:
        """Nonzero entries of the psi grids the sup-norm scan evaluates.

        The grids are rebuilt from the public constants: a window of
        half-width WINDOW_HALFWIDTH at pitch GRID_STEP around each peak of
        the row.
        """
        spec = inputs["spec"]
        h, _slots = op
        steps = int(round(blocks.WINDOW_HALFWIDTH / basis.GRID_STEP))
        offsets = np.arange(-steps, steps + 1, dtype=np.float64) * basis.GRID_STEP
        nonzero = total = 0
        for k in blocks.row_indices(spec, h):
            vals = blocks.row_values(spec, h, math.sqrt(k / 2.0) + offsets)
            nonzero += int(np.count_nonzero(vals))
            total += vals.size
        return {"blocks.row_values.nonzero_ratio": (nonzero, total)}


class ProbeCertify:
    """One op is the CLI ``probe`` command: build, verify, row budgets."""

    name = "probe-certify"
    warmup_ops = 3
    prefix_ops = 6
    kernels = ("gaussian", "laplace", "cauchy")
    epsilon = 0.1
    delta = 0.9
    template = "cos"

    def __init__(self, tiny: bool = False) -> None:
        self.n = 20 if tiny else 500

    def build(self):
        return {"template": probe.TEMPLATES[self.template]}

    def ops(self, seed: int):
        rng = random.Random(seed)
        kernels = list(self.kernels)
        while True:
            rng.shuffle(kernels)
            yield from kernels

    def run(self, inputs, op):
        profile = probe.PROFILES[op]
        template = inputs["template"]
        cert = probe.build_certificate(profile, template, self.epsilon, self.n, delta=self.delta)
        verdict = probe.verify_certificate(cert, profile, template)
        rows = probe.offdiag_row_sums(cert, profile)
        return cert, verdict, rows

    def check(self, inputs, op, result) -> bool:
        """The verdict, and the numbers behind it.

        Every comparison is written so that a NaN fails it.  The verifier's
        quadratic form must be the builder's and its linear form the one
        recomputed here in O(n), both within QUANTITY_TOL, and both must
        clear the certified thresholds.  Since every coefficient is
        +-1/sqrt(n) and F(0) = 1, |Q - 1| <= (2/n) * (sum of the row sums),
        so row sums that come out too small fail too.
        """
        cert, verdict, rows = result
        n = cert.n
        lin = math.fsum(a * inputs["template"].value(y) for a, y in zip(cert.coefficients, cert.points))
        row_total = math.fsum(s for _i, s, _b in rows)
        return (
            bool(verdict)
            and abs(verdict.quad_form - cert.quad_form) <= QUANTITY_TOL
            and abs(verdict.lin_form_sq - lin * lin) <= QUANTITY_TOL * lin * lin
            and 1.0 - cert.epsilon < verdict.quad_form < 1.0 + cert.epsilon
            and verdict.lin_form_sq > n * cert.delta * cert.delta
            and len(rows) == n - 1
            and all(s < b for _i, s, b in rows)
            and abs(cert.quad_form - 1.0) <= 2.0 / n * row_total + QUANTITY_TOL
        )

    def digest_bytes(self, result) -> bytes:
        cert, verdict, rows = result
        return _pack(
            *cert.points, cert.quad_form, verdict.quad_form, verdict.lin_form_sq,
            *(s for _i, s, _b in rows),
        )

    def useful_work(self, inputs, op, result) -> dict[str, tuple[int, int]]:
        """Point pairs of the quadratic form whose kernel value is nonzero."""
        profile = probe.PROFILES[op]
        pts = result[0].points
        nonzero = sum(
            1 for i in range(len(pts)) for j in range(i) if profile(abs(pts[i] - pts[j])) != 0.0
        )
        return {"probe._quad_form.nonzero_pair_ratio": (nonzero, len(pts) * (len(pts) - 1) // 2)}


WORKLOADS = {w.name: w for w in (ComboPairs, ShortSeries, ComboNorms, ProbeCertify)}
