"""Signed log-domain arithmetic: representation, sums, factorials."""

import math
import random
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gkexpand
from gkexpand.errors import DomainError
from gkexpand.numerics import (
    CANCELLATION_FLUSH,
    SLV_ZERO,
    SignedLogValue,
    from_real,
    log_factorial,
    log_factorial_array,
    slv_product,
    slv_sum,
)


class TestFromReal:
    def test_one(self):
        v = from_real(1.0)
        assert v.sign == 1 and v.log_mag == 0.0

    def test_zero(self):
        assert from_real(0.0).sign == 0

    def test_minus_e(self):
        v = from_real(-math.e)
        assert v.sign == -1
        assert v.log_mag == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            from_real(bad)

    @given(st.floats(min_value=1e-290, max_value=1e290))
    @settings(max_examples=200, derandomize=True)
    def test_round_trip(self, v):
        # exp(log(v)) reproduces v up to one rounding of the stored log,
        # i.e. a relative error of about |ln v| * eps/2
        for s in (v, -v):
            tol = max(4.0, 2.0 * abs(math.log(abs(s)))) * 1.2e-16
            assert from_real(s).to_real() == pytest.approx(s, rel=tol)

    def test_to_real_saturates(self):
        assert SignedLogValue(1, 800.0).to_real() == math.inf
        assert SignedLogValue(-1, 800.0).to_real() == -math.inf
        assert SignedLogValue(1, -800.0).to_real() == 0.0


class TestProduct:
    def test_ones(self):
        assert slv_product(from_real(1.0), from_real(1.0)) == SignedLogValue(1, 0.0)

    def test_zero_absorbs(self):
        assert slv_product(SLV_ZERO, SignedLogValue(1, 100.0)).sign == 0

    def test_signs_multiply(self):
        v = slv_product(from_real(-2.0), from_real(-3.0))
        assert v.sign == 1
        assert v.log_mag == pytest.approx(math.log(6.0), rel=1e-15)

    @given(
        st.floats(min_value=1e-100, max_value=1e100),
        st.floats(min_value=1e-100, max_value=1e100),
    )
    @settings(max_examples=100, derandomize=True)
    def test_matches_float_product(self, a, b):
        v = slv_product(from_real(a), from_real(-b))
        assert v.sign == -1
        assert v.log_mag == pytest.approx(math.log(a) + math.log(b), rel=1e-12, abs=1e-12)


class TestSum:
    def test_cancellation_to_zero(self):
        assert slv_sum([from_real(1.0), from_real(-1.0)]).sign == 0

    def test_one_plus_one(self):
        v = slv_sum([from_real(1.0), from_real(1.0)])
        assert v.sign == 1
        assert v.log_mag == pytest.approx(math.log(2.0), rel=1e-15)

    def test_huge_dominates_tiny(self):
        # 700 + ln(1 + e^-700) rounds to exactly 700.0 in double precision
        v = slv_sum([SignedLogValue(1, 700.0), SignedLogValue(1, 0.0)])
        assert v.sign == 1
        assert v.log_mag == 700.0

    def test_flush_threshold(self):
        # relative residue ~1e-16 of the dominant term flushes to zero
        v = slv_sum([SignedLogValue(1, 0.0), SignedLogValue(-1, 1e-16)])
        assert v.sign == 0
        # a residue above the threshold survives
        keep = slv_sum([SignedLogValue(1, 0.0), SignedLogValue(-1, 1e-10)])
        assert keep.sign == -1

    def test_all_zero_terms(self):
        assert slv_sum([SLV_ZERO, SLV_ZERO]).sign == 0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            slv_sum([])

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6).filter(lambda v: abs(v) > 1e-3),
            min_size=1,
            max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, derandomize=True)
    def test_permutation_invariant(self, values, rng):
        terms = [from_real(v) for v in values]
        shuffled = list(terms)
        rng.shuffle(shuffled)
        a = slv_sum(terms)
        b = slv_sum(shuffled)
        # fsum-based accumulation makes the result exactly order independent
        assert a == b

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3).filter(lambda v: abs(v) > 1e-3),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=150, derandomize=True)
    def test_matches_float_sum(self, values):
        truth = math.fsum(values)
        got = slv_sum([from_real(v) for v in values]).to_real()
        scale = max(abs(v) for v in values)
        if abs(truth) < CANCELLATION_FLUSH * scale:
            assert got == 0.0
        else:
            assert got == pytest.approx(truth, rel=1e-12)


class TestLogFactorial:
    def test_zero(self):
        assert log_factorial(0) == 0.0

    def test_five(self):
        # exact small-k oracle: 5! = 120
        assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)

    def test_10395_against_direct_summation(self):
        oracle = math.fsum(math.log(j) for j in range(1, 10396))
        assert log_factorial(10395) == pytest.approx(oracle, rel=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            log_factorial(-1)

    @pytest.mark.parametrize("k", [1, 2, 5, 21, 100, 10**4, 10**6, 10**7])
    def test_stirling_brackets(self, k):
        lo = 0.5 * math.log(2.0 * math.pi * k) + k * math.log(k) - k
        hi = lo + 1.0 / (12.0 * k)
        assert lo <= log_factorial(k) <= hi

    def test_array_matches_scalar(self):
        import numpy as np

        ks = np.array([0, 1, 5, 20, 21, 135, 10395])
        out = log_factorial_array(ks)
        for k, v in zip(ks, out):
            assert v == log_factorial(int(k))


# scipy.special.gammaln(k + 1) at scipy 1.17.1: log_factorial evaluates the
# same Cephes formulas and keeps these bits.  The indices sit at the table
# edges, at the first index where np.log and math.log were seen to disagree
# (9169; numpy 2.4 on AVX-512), and at the ends of combo blocks 7 and 8.
GAMMALN_BITS = {
    21: 45.38013889847691,
    135: 530.5842882944336,
    674: 3720.0927719835076,
    998: 5898.313668430534,
    999: 5905.220423209181,
    9169: 74490.61792468536,
    737235: 9223305.559530336,
    2949075: 40983309.893959485,
}


class TestOneLogFactorial:
    @pytest.mark.parametrize("k", sorted(GAMMALN_BITS))
    def test_frozen_gammaln_bits(self, k):
        assert log_factorial(k) == GAMMALN_BITS[k]
        assert log_factorial_array(np.float64(k)) == GAMMALN_BITS[k]
        assert log_factorial_array(np.array(k)) == GAMMALN_BITS[k]

    @pytest.mark.parametrize(
        "k", [20, 21, 22, 998, 999, 1000, 12345, 10**6, 2949075, 10**7, 99999999, 10**8 + 1, 10**9]
    )
    def test_within_4_ulp_of_mpmath(self, k):
        with mp.workdps(40):
            truth = float(mp.loggamma(k + 1))
        assert abs(log_factorial(k) - truth) <= 4.0 * math.ulp(truth)

    def test_array_is_the_table_below_999(self):
        ks = np.arange(999)
        assert log_factorial_array(ks).tolist() == [log_factorial(k) for k in range(999)]

    def test_array_within_2_ulp_over_block_8(self):
        # np.log and math.log differ by one ulp of ln x at some x (96 of
        # block 8's indices with numpy 2.4 on AVX-512); (x - 1/2) ln x - x
        # carries that to at most 2 ulp (10 of them, the first k = 1225732)
        ks = np.arange(737235, 2949075)
        scalar = np.array([log_factorial(k) for k in range(737235, 2949075)])
        diff = np.abs(log_factorial_array(ks) - scalar)
        assert np.all(diff <= 2.0 * np.spacing(scalar))

    def test_import_leaves_scipy_out(self):
        src = str(Path(gkexpand.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import gkexpand, gkexpand.cli; "
            "print('scipy' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, check=True)
        assert proc.stdout == "False\n"
