"""Weight statistics: block masses, divergence law."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from gkexpand.analysis import (
    amplitude,
    block_mass,
    block_mass_bounds,
    decay_base,
    divergence_profile,
    model_divergence_slope,
    predicted_block_mass,
)
from gkexpand.basis import log_m_squared_many, peak
from gkexpand.blocks import block_spec
from gkexpand.errors import DomainError, RangeError

# Exact per-block l_1 masses (sum over rows of m^2_{y+h}), frozen from the
# leading-peak weight law; see test_search_matches_leading_peak_form in
# test_blocks.py for the bridge to the searched sup-norms.
G1_FROZEN = {
    4: 7.440839480842963,
    5: 7.697754751485245,
    6: 7.852418705673794,
    7: 7.9375704790490245,
    8: 7.982302108132005,
}

# Ratios G(n+1,p)/G(n,p) of the exact masses, relative to the asymptotic
# target 4^(1-p).  The asymptote is approached only like 1/2^n, and the
# rigorous bracket of block_mass_bounds puts the (p=3, n=4) cell at least
# 10.166% off target, so no correct construction meets a 10% window there;
# the window holds from n = 5 on for p = 3 and from n = 4 for smaller p.
RATIO_DEV_FROZEN = {
    (1.5, 4): 0.05163, (1.5, 5): 0.03011, (1.5, 6): 0.01626, (1.5, 7): 0.00845,
    (2.0, 4): 0.06859, (2.0, 5): 0.04012, (2.0, 6): 0.02168, (2.0, 7): 0.01127,
    (3.0, 4): 0.10207, (3.0, 5): 0.06006, (3.0, 6): 0.03250, (3.0, 7): 0.01690,
}

FITTED_SLOPE_FROZEN = 5.613196990767753


class TestBlockMass:
    def test_block1_is_direct_m2_sum(self):
        oracle = math.fsum(peak(k).m**2 for k in range(135))
        assert block_mass(1, 1.0) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n", sorted(G1_FROZEN))
    def test_frozen_l1_masses(self, n):
        assert block_mass(n, 1.0) == pytest.approx(G1_FROZEN[n], rel=1e-9)

    def test_masses_do_not_decay(self):
        assert min(block_mass(n, 1.0) for n in range(4, 9)) > 5.0

    def test_l1_window(self):
        for n in range(4, 9):
            assert 7.2 <= block_mass(n, 1.0) <= 8.8

    def test_block_absent(self):
        # past the cap log_m_squared_many's rounding grows like 4^n; block 0
        # fails block_spec's rule, block 9 the cap checked before it
        for n, message in ((0, "block number must be >= 1, got 0"), (9, "max_block 9 exceeds cap 8")):
            with pytest.raises(RangeError, match=f"^{message}$"):
                block_mass(n, 1.0)

    def test_order_independent(self, combo8):
        spec = block_spec(5)
        lam = combo8.weights[spec.y : spec.next_start]
        shuffled = lam.copy()
        random.Random(11).shuffle(shuffled)
        a = math.fsum(np.power(lam, 2.0).tolist())
        b = math.fsum(np.power(shuffled, 2.0).tolist())
        assert b == pytest.approx(a, rel=1e-13)


class TestMassBounds:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_masses_inside_bracket(self, p):
        for n in range(2, 9):
            lo, hi = block_mass_bounds(n, p)
            assert lo <= block_mass(n, p) <= hi, n

    def test_block2_direct_sum(self):
        spec = block_spec(2)
        direct = math.fsum(peak(spec.y + h).m ** 6 for h in range(spec.r)) / spec.c**2
        assert block_mass(2, 3.0) == pytest.approx(direct, rel=1e-12)
        lo, hi = block_mass_bounds(2, 3.0)
        assert lo <= direct <= hi

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_bracket_is_ordered_and_nonnegative(self, p):
        # the rounding allowance passes the whole lower end from block 21
        # on; the mass is positive, so the lower end stops at 0
        for n in range(2, 29):
            lo, hi = block_mass_bounds(n, p)
            assert 0.0 <= lo <= hi, n
        assert block_mass_bounds(21, p)[0] == 0.0

    def test_block1_rejected(self):
        with pytest.raises(DomainError):
            block_mass_bounds(1, 2.0)

    def test_rounding_allowance_covers_log_m2(self):
        # the bracket's machine allowance assumes ln m_k^2 is good to
        # 4 eps ln k!; check that against exact values across block 8
        spec = block_spec(8)
        ks = np.linspace(spec.y, spec.next_start - 1, 25).astype(np.int64)
        got = log_m_squared_many(ks)
        with mp.workdps(40):
            for k, g in zip(ks.tolist(), got.tolist()):
                exact = k * mp.log(k) - k - mp.loggamma(k + 1)
                err = abs(float(mp.mpf(g) - exact))
                assert err <= 4.0 * np.finfo(float).eps * math.lgamma(k + 1), k


class TestRatios:
    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0])
    def test_successive_ratios(self, p):
        target = 4.0 ** (1.0 - p)
        for n in range(4, 8):
            ratio = block_mass(n + 1, p) / block_mass(n, p)
            dev = abs(ratio / target - 1.0)
            frozen = RATIO_DEV_FROZEN.get((p, n))
            if frozen is not None:
                assert dev == pytest.approx(frozen, abs=2e-5)
            if (p, n) == (3.0, 4):
                # provably outside the 10% window, see RATIO_DEV_FROZEN
                assert 0.10 < dev < 0.11
            else:
                assert dev <= 0.10

    def test_p2_example_window(self):
        ratio = block_mass(5, 2.0) / block_mass(4, 2.0)
        assert abs(ratio / 0.25 - 1.0) <= 0.10


class TestSliceExponentiation:
    """block_mass sums one term c lambda^p per row, with the bits of the
    direct sum over the c-fold weights of build_combo(8)."""

    @pytest.mark.parametrize("p", [1.0, 1.01, 1.5, 2.0, 3.0, 10.0, 252.0])
    def test_block_mass_bits(self, combo8, p):
        with np.errstate(under="ignore"):
            for n in range(1, 9):
                spec = block_spec(n)
                lam = np.exp(combo8.log_weights[spec.y : spec.next_start])
                expected = math.fsum(np.power(lam, p).tolist())
                assert block_mass(n, p) == expected, n


class TestNanP:
    # NaN fails every comparison, so "p < 1" let it through: the checks
    # returned nan and (nan, nan)
    def test_block_mass(self):
        # block_mass(2, inf) returned 0.0
        for p in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=f"^p must be finite and >= 1, got {p!r}$"):
                block_mass(2, p)

    def test_block_mass_bounds(self):
        # "p >= 1" let inf through too, and the bracket was (nan, nan)
        for p in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                block_mass_bounds(3, p)


class TestDivergence:
    def test_fitted_slope_frozen(self):
        stats = divergence_profile(8)
        assert stats.fitted_slope == pytest.approx(FITTED_SLOPE_FROZEN, rel=1e-9)

    def test_slope_near_model(self):
        stats = divergence_profile(8)
        assert stats.model_D == pytest.approx(
            135.0 / (math.sqrt(90.0 * math.pi) * math.log(4.0)), rel=1e-15
        )
        assert abs(stats.fitted_slope / stats.model_D - 1.0) <= 0.15

    def test_partial_sums_strictly_increase(self):
        sums = [s for _c, s in divergence_profile(8).partial_sums]
        assert all(b > a for a, b in zip(sums, sums[1:]))

    def test_block_increments_near_eight(self):
        stats = divergence_profile(8)
        sums = dict(stats.partial_sums)
        bounds = [block_spec(n).next_start for n in range(1, 9)]
        for n in range(4, 9):
            inc = sums[bounds[n - 1]] - sums[bounds[n - 2]]
            assert 7.2 <= inc <= 8.8

    def test_needs_four_blocks(self):
        with pytest.raises(DomainError):
            divergence_profile(3)

    def test_stops_at_the_cap(self):
        with pytest.raises(RangeError, match="max_block 9 exceeds cap 8"):
            divergence_profile(9)


class TestPredictions:
    def test_amplitude_and_base(self):
        assert amplitude(1.0) == pytest.approx(135.0 / math.sqrt(90.0 * math.pi), rel=1e-15)
        assert decay_base(2.0) == 4.0
        assert predicted_block_mass(4, 2.0) == pytest.approx(
            amplitude(2.0) / 256.0, rel=1e-15
        )

    def test_g1_prediction_near_eight(self):
        assert amplitude(1.0) == pytest.approx(8.0285585, rel=1e-6)

    def test_large_p_stays_in_the_log_domain(self):
        # sqrt(90 pi)^p overflows doubles from p = 252 and 4^(p-1) from
        # p = 513; A(p), the block predictions and the block masses only
        # underflow
        with mp.workdps(30):
            a400 = float(135 * mp.mpf(4) ** 399 / mp.sqrt(90 * mp.pi) ** 400)
            g1_252 = float(135 / mp.sqrt(90 * mp.pi) ** 252)  # A(p) / 4^(p-1)
        assert a400 > 0.0 and g1_252 > 0.0
        assert amplitude(400.0) == pytest.approx(a400, rel=1e-12)
        assert predicted_block_mass(1, 252.0) == pytest.approx(g1_252, rel=1e-12)
        assert predicted_block_mass(9, 600.0) == 0.0
        assert block_mass(1, 600.0) == 1.0  # lambda_0 = 1, the rest underflow
