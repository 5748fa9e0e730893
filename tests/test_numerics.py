"""Factorials, and the package's runtime imports."""

import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import gkexpand
from gkexpand.errors import DomainError
from gkexpand.numerics import log_factorial, log_factorial_array


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
        # numpy is the only runtime dependency: neither scipy nor a test
        # dependency (the oracles live in the tests) is imported
        src = str(Path(gkexpand.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import gkexpand, gkexpand.cli; "
            "print([m for m in ('scipy', 'mpmath', 'hypothesis', 'pytest') if m in sys.modules])"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, check=True)
        assert proc.stdout == "[]\n"
