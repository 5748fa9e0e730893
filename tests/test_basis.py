"""Basis functions: psi_k values, peaks, bump model, h_k variants."""

import dataclasses
import math
import re

import mpmath as mp
import numpy as np
import pytest

from gkexpand.basis import (
    bump_error,
    fit_h_envelope,
    log_h_sup_many,
    log_psi,
    peak,
)
from gkexpand.errors import DomainError, RangeError
from gkexpand.expansion import build_bounded, build_combo

# Oracle values for the bump-model error, frozen from the defining grid
# computation (step 1e-3, window +-2, error normalised by m_k).
BUMP_ERR_100 = 0.014652720982572996
BUMP_ERR_1000 = 0.004415649138908971
BUMP_ERR_10000 = 0.0013757397969066981


class TestEvalPsi:
    def test_k0_at_origin(self):
        sign, log = log_psi(0, 0.0)
        assert sign == 1.0 and log == 0.0

    def test_k2_at_one(self):
        # direct formula with exact small factorial: sqrt(2^2/2!) * 1 * e^-1
        sign, log = log_psi(2, 1.0)
        assert sign * math.exp(log) == pytest.approx(math.sqrt(2.0) * math.exp(-1.0), rel=1e-14)

    def test_peak_height_2835(self):
        info = peak(2835)
        law = math.exp(info.m_squared_log) * math.sqrt(2.0 * math.pi * 2835)
        assert 0.99 <= law <= 1.01

    def test_zero_argument(self):
        assert log_psi(3, 0.0) == (0.0, -math.inf)

    def test_rejects_non_finite(self):
        # log_psi itself gives NaN at inf; the public evaluation refuses it
        for e in (build_bounded(3.0, 5), build_combo(2)):
            for x in (math.inf, -math.inf, math.nan):
                with pytest.raises(DomainError):
                    e.basis_log_values(x)

    def test_rejects_negative_index(self):
        # the index check of peak and bump_error
        with pytest.raises(DomainError):
            peak(-1)
        with pytest.raises(DomainError):
            bump_error(-1, 2.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("check", [peak, lambda k: bump_error(k, 2.0)], ids=["peak", "bump"])
    def test_rejects_non_finite_index(self, check, k):
        # int(k) raised ValueError at nan and OverflowError at +-inf
        with pytest.raises(DomainError, match=f"got {k!r}$"):
            check(k)

    @pytest.mark.parametrize("k", [2**53 + 1, 10**400], ids=["2^53+1", "10^400"])
    @pytest.mark.parametrize("check", [peak, lambda k: bump_error(k, 2.0)], ids=["peak", "bump"])
    def test_rejects_index_past_exact_doubles(self, check, k):
        # 10^20 gave a RuntimeWarning and inf, 10^400 an OverflowError in
        # the float conversion
        with pytest.raises(RangeError, match=r"exceeds 2\^53 = 9007199254740992, "):
            check(k)

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 100, 2835])
    @pytest.mark.parametrize("x", [0.25, 1.0, 3.5, 37.6])
    def test_parity(self, k, x):
        plus_sign, plus_log = log_psi(k, x)
        minus_sign, minus_log = log_psi(k, -x)
        assert minus_log == plus_log
        assert minus_sign == (plus_sign if k % 2 == 0 else -plus_sign)

    @pytest.mark.parametrize("k,x", [(5, 2.0), (100, 7.0), (2835, 37.6)])
    def test_against_mpmath(self, k, x):
        with mp.workdps(50):
            truth = mp.sqrt(mp.mpf(2) ** k / mp.factorial(k)) * mp.mpf(x) ** k * mp.e ** (
                -mp.mpf(x) ** 2
            )
            sign, log = log_psi(k, x)
            assert sign == 1.0
            rel = abs(mp.mpf(float(log)) - mp.log(truth))
        assert rel < 1e-11


def _mp_log_psi(k: int, x: float):
    """(sign, log |psi_k(x)|) from the defining formula at 40 digits."""
    if x == 0.0:
        return (1.0, 0.0) if k == 0 else (0.0, -math.inf)
    sign = 1.0 if x > 0.0 or k % 2 == 0 else -1.0
    with mp.workdps(40):
        log = (k * mp.log(2) - mp.loggamma(k + 1)) / 2 + k * mp.log(abs(mp.mpf(x))) - mp.mpf(x) ** 2
    return sign, log


def _psi_log_size(k: int, x: float) -> float:
    """Total size of the terms log |psi_k(x)| sums: its rounding scale."""
    lnx = abs(math.log(abs(x))) if x != 0.0 else 0.0
    return 0.5 * (k * math.log(2.0) + math.lgamma(k + 1)) + k * lnx + x * x


class TestLogPsiKernel:
    KS = [0, 1, 2, 7, 10**3, 3 * 10**6]
    XS = [-3.2, -0.5, 0.0, 0.5, 3.2, 1200.0]

    def _check(self, k, x, sign, log):
        want_sign, want_log = _mp_log_psi(k, x)
        assert sign == want_sign, (k, x)
        if want_log == -math.inf:
            assert log == -math.inf, (k, x)
        else:
            err = abs(float(mp.mpf(float(log)) - want_log))
            assert err <= 4.0 * np.finfo(float).eps * (_psi_log_size(k, x) + 1.0), (k, x, err)

    def test_grid_against_mpmath(self):
        ks = np.array(self.KS, dtype=np.int64)
        signs, logs = log_psi(ks[:, None], np.array(self.XS))
        assert signs.shape == logs.shape == (len(self.KS), len(self.XS))
        for i, k in enumerate(self.KS):
            for j, x in enumerate(self.XS):
                self._check(k, x, signs[i, j], logs[i, j])

    @pytest.mark.parametrize("x", XS)
    def test_single_point_against_mpmath(self, x):
        signs, logs = log_psi(np.array(self.KS, dtype=np.float64), x)
        for i, k in enumerate(self.KS):
            self._check(k, x, signs[i], logs[i])


class TestPeak:
    def test_k0_convention(self):
        info = peak(0)
        assert info.x_peak == 0.0 and info.m == 1.0

    def test_k1_closed_form(self):
        info = peak(1)
        assert info.x_peak == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert info.m == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_k2_closed_form(self):
        info = peak(2)
        assert info.x_peak == 1.0
        assert info.m == pytest.approx(math.sqrt(2.0) * math.exp(-1.0), rel=1e-14)

    def test_k1000_stirling_law(self):
        info = peak(1000)
        assert info.m**2 == pytest.approx((2000.0 * math.pi) ** -0.5, rel=1e-3)

    def test_m_squared_log_asymptote(self):
        for k in (1000, 10**5, 10**6):
            assert peak(k).m_squared_log == pytest.approx(
                -0.5 * math.log(2.0 * math.pi * k), abs=1e-3
            )

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 100, 500, 2000])
    def test_matches_eval_psi_at_peak(self, k):
        # dual route: closed form vs direct evaluation at x_k
        info = peak(k)
        assert log_psi(k, info.x_peak)[1] == pytest.approx(info.log_m, abs=1e-12)

    @pytest.mark.parametrize("k", [10**4, 10**5, 10**6])
    def test_matches_eval_psi_large_k(self, k):
        # double rounding of k*ln(x) caps the agreement around k * 1e-16
        info = peak(k)
        assert log_psi(k, info.x_peak)[1] == pytest.approx(info.log_m, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 10, 1000, 12345])
    def test_strict_local_max(self, k):
        info = peak(k)
        at_peak = log_psi(k, info.x_peak)[1]
        assert log_psi(k, info.x_peak + 1e-3)[1] < at_peak
        assert log_psi(k, info.x_peak - 1e-3)[1] < at_peak

    @pytest.mark.parametrize("k", [1000, 31623, 10**6])
    def test_stirling_residual_bound(self, k):
        law = math.exp(peak(k).m_squared_log) * math.sqrt(2.0 * math.pi * k)
        assert abs(law - 1.0) <= 1.0 / (6.0 * k) + 1e-6


class TestBump:
    def test_value_at_peak(self):
        # a window narrower than half a grid step holds the peak alone,
        # where the bump model is (2 pi k)^(-1/4)
        for k in (10, 1000):
            m = peak(k).m
            assert bump_error(k, 1e-4) == pytest.approx(
                abs(m - (2.0 * math.pi * k) ** -0.25) / m, rel=1e-9
            )

    def test_error_frozen_values(self):
        assert bump_error(100, 2.0) == pytest.approx(BUMP_ERR_100, rel=1e-9)
        assert bump_error(1000, 2.0) == pytest.approx(BUMP_ERR_1000, rel=1e-9)
        assert bump_error(10000, 2.0) == pytest.approx(BUMP_ERR_10000, rel=1e-9)

    def test_error_decreases(self):
        assert bump_error(1000, 2.0) < bump_error(100, 2.0)

    def test_rejects_k0(self):
        with pytest.raises(DomainError):
            bump_error(0, 2.0)

    @pytest.mark.parametrize("k, allowance", [(10**9, "1.841e-05"), (2**53, "4.332e+127")],
                             ids=["1e9", "2^53"])
    def test_rejects_an_error_within_log_psi_rounding(self, k, allowance):
        # these passed on rounding error: 4.79e-6 at 10^9, 5.3e11 at 2^53
        with pytest.raises(RangeError, match=(
                f"^basis index {k} is past log psi's accuracy: its bump error over "
                f"window 2.0 is within the rounding allowance {re.escape(allowance)}$")):
            bump_error(k, 2.0)

    @pytest.mark.parametrize("k, w", [(10**6, 1e-4), (3 * 10**8, 2.0)])
    def test_error_above_the_allowance_passes(self, k, w):
        # the closest cases: 4.2e-8 against 1.2e-8, and 8.0e-6 against 5.2e-6
        assert bump_error(k, w) > 0.0


def _h(k: int, x: float) -> float:
    """h_k(x) in linear space: term k of an unnormalised bounded expansion."""
    signs, logs = build_bounded(3.0, k + 1).basis_log_values(x)
    return float(signs[k] * math.exp(logs[k]))


class TestScaledH:
    def test_k2_at_one(self):
        assert _h(2, 1.0) == pytest.approx(2.0 * math.sqrt(2.0) * math.exp(-1.0), rel=1e-14)

    def test_k0_convention(self):
        # h_0 is psi_0, not 0 * psi_0
        assert _h(0, 0.0) == 1.0

    def test_k1_at_peak(self):
        assert _h(1, math.sqrt(0.5)) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_sup_interior(self):
        # k = 2, N = 10: peak at 1 < 10, so sup = 2 m_2
        v = math.exp(log_h_sup_many(2, 10.0))
        assert v == pytest.approx(2.0 * math.sqrt(2.0) * math.exp(-1.0), rel=1e-14)

    def test_sup_boundary_against_mpmath(self):
        # k = 10^4, N = 3: sup = k * sqrt(2^k/k!) * 3^k * e^-9
        got = float(log_h_sup_many(10**4, 3.0))
        with mp.workdps(60):
            truth = mp.log(
                10**4
                * mp.sqrt(mp.mpf(2) ** 10**4 / mp.factorial(10**4))
                * mp.mpf(3) ** 10**4
                * mp.e**-9
            )
            assert abs(mp.mpf(got) - truth) < 1e-8

    def test_switchover_consistency(self):
        # at k = 2 N^2 both branches coincide
        n_edge = 3.0
        k = 18
        interior = math.log(k) + peak(k).log_m
        boundary = build_bounded(n_edge, k + 1).basis_log_values(n_edge)[1][k]
        assert interior == pytest.approx(boundary, abs=1e-11)


class TestBoundedSupVector:
    @staticmethod
    def _rounding_size(k: int, edge: float) -> float:
        # the term-size bound HEnvelope.max_violation allows 4 eps of
        return (math.log(k) + 0.5 * (k * math.log(2.0) + math.lgamma(k + 1) + k)
                + k * abs(math.log(edge)) + edge * edge)

    @pytest.mark.parametrize("edge", [1.0, 3.0, 5.0])
    def test_against_mpmath_both_branches(self, edge):
        # psi_k rises up to its peak sqrt(k/2), so the sup over [0, N] is
        # psi_k(min(N, sqrt(k/2))); both sides of k = 2 N^2 are sampled
        switch = int(2 * edge * edge)
        ks = sorted({1, 2, switch - 1, switch, switch + 1, 3 * switch, 10**3, 10**5})
        got = log_h_sup_many(np.array([0] + ks), edge)
        assert got[0] == 0.0  # h_0 = psi_0, sup 1 at x = 0
        for k, g in zip(ks, got[1:].tolist()):
            with mp.workdps(40):
                x = min(mp.mpf(edge), mp.sqrt(mp.mpf(k) / 2))
                truth = (mp.log(k) + (k * mp.log(2) - mp.loggamma(k + 1)) / 2
                         + k * mp.log(x) - x**2)
            err = abs(float(mp.mpf(g) - truth))
            assert err <= 4.0 * np.finfo(float).eps * self._rounding_size(k, edge), (k, err)


class TestEnvelope:
    @pytest.mark.parametrize("edge", [1.0, 2.0, 3.0, 5.0])
    def test_gate_passes_and_catches_a_shift(self, edge):
        env = fit_h_envelope(edge, k_max=5000)
        assert env.max_violation <= 0.0
        # an envelope 1e-12 too low in log is violated at its touch point
        assert dataclasses.replace(env, log_A=env.log_A - 1e-12).max_violation > 0.0

    def test_fit_for_n3(self):
        env = fit_h_envelope(3.0, k_max=5000)
        assert env.k0 == 49
        assert env.k0 > 2.0 * math.e * 9.0
        assert env.B > 0.0
        assert env.max_violation <= 0.0

    def test_global_sup_location_and_value(self):
        env = fit_h_envelope(3.0, k_max=5000)
        # frozen from a sweep of k * sup(psi_k on [0,3]) over k in [1, 5000]
        assert env.sup_argmax == 19
        assert math.exp(env.sup_log_value) == pytest.approx(5.65776300662514, rel=1e-10)

    @pytest.mark.parametrize("edge", [math.inf, math.nan, 1e200, 1e150])
    def test_huge_or_non_finite_edge_rejected(self, edge):
        # 2 e N^2 overflowed to inf and int(floor(inf)) raised OverflowError
        with pytest.raises(DomainError):
            fit_h_envelope(edge, k_max=5000)

    @pytest.mark.parametrize("k_max, message", [
        (5000.5, "k_max 5000.5 is not an integer"),
        (10**7 + 1, "k_max 10000001 exceeds 10000000"),
    ], ids=["non-integer", "past-cap"])
    def test_k_max_is_an_integer_within_the_cap(self, k_max, message):
        # 5000.5 was accepted
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            fit_h_envelope(3.0, k_max)

    def test_envelope_dominates_tail(self):
        env = fit_h_envelope(3.0, k_max=5000)
        ks = np.array([49, 100, 1234, 5000])
        assert np.all(log_h_sup_many(ks, 3.0) <= env.log_envelope(ks) + 1e-12)
