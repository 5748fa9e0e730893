"""Factorials, the exact sums, and the package's runtime imports."""

import math
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import gkexpand
from gkexpand.errors import DomainError
from gkexpand.numerics import (
    _split,
    fsum_blocks,
    fsum_segments,
    half_gap,
    log_factorial,
    log_factorial_array,
)


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


def _bits(v):
    """A float's bytes: equal bits and signs compare equal, NaN included."""
    return struct.pack("<d", v)


def _counting_fsum(monkeypatch):
    calls = [0]
    fsum = math.fsum

    def counting(terms):
        calls[0] += 1
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", counting)
    return calls


def _check_segments(segments):
    """fsum_segments and fsum_blocks against math.fsum, bit and sign."""
    x = np.concatenate([np.asarray(g, dtype=float) for g in segments])
    got = fsum_segments(x, [len(g) for g in segments])
    assert [_bits(v) for v in got.tolist()] == [_bits(math.fsum(g)) for g in segments]
    blocks = [np.asarray(g, dtype=float) for g in segments]
    assert _bits(fsum_blocks(lambda: iter(blocks))) == _bits(math.fsum(x.tolist()))


TIE = 2.0**-53  # half an ulp of 1.0


class TestExactSums:
    @pytest.mark.parametrize("terms", [
        [1.0, TIE],  # a tie, to even: 1.0
        [1.0 + 2 * TIE, TIE],  # a tie, to even: 1 + 4 TIE
        [1.0, TIE, TIE],  # two halves make an ulp
        [1.0, TIE, 2.0**-200],  # just above the tie
        [1.0, TIE, -(2.0**-200)],  # just below the tie
        [-1.0, -TIE, 2.0**-1074],
        [1.0, -TIE / 2, -(2.0**-200)],  # below a power of two the gap halves
        [1.0, -TIE / 2, 2.0**-200],
        [3.0, TIE, TIE, TIE],
    ])
    def test_ties(self, terms):
        _check_segments([terms, terms[::-1], [-t for t in terms]])

    def test_cancellation_with_a_tiny_leftover(self):
        rng = np.random.default_rng(3)
        big = rng.standard_normal(500) * np.ldexp(1.0, rng.integers(-40, 40, 500))
        for leftover in (2.0**-1074, 1e-300, 3.0 * TIE, -(2.0**-60)):
            x = np.concatenate([big, -big, [leftover]])
            rng.shuffle(x)
            _check_segments([x, x[::-1]])
            assert fsum_segments(x, [x.size])[0] == leftover

    def test_subnormals(self):
        tiny = 2.0**-1074
        _check_segments([
            [tiny], [tiny, tiny], [tiny, -tiny, tiny], [2.0**-1022, -tiny],
            [2.0**-1022, tiny, tiny], [5 * tiny, -3 * tiny, 2.0**-1060],
            np.ldexp(np.arange(-20.0, 21.0), -1074),
        ])

    def test_zeros_and_empty_segments(self, monkeypatch):
        # the sign of a zero sum is fsum's, whatever its Python version rules
        segments = [[], [-0.0, -0.0], [], [0.0, -0.0], [], [1.0], [], [-0.0], [1.0, -1.0]]
        calls = _counting_fsum(monkeypatch)
        fsum_segments(np.array([-0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 1.0, -1.0]),
                      [len(g) for g in segments])
        assert calls[0] == 4  # the zero sums; fsum([]) is 0.0 without a call
        monkeypatch.undo()
        _check_segments(segments)
        _check_segments([[-0.0]])
        assert fsum_segments(np.array([]), []).size == 0
        assert _bits(fsum_blocks(lambda: iter([]))) == _bits(0.0)

    def test_magnitudes_over_the_whole_range(self, monkeypatch):
        rng = np.random.default_rng(5)
        segments = []
        for _ in range(200):
            n = int(rng.integers(1, 80))
            segments.append(
                rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-1074, 900, n))
            )
        calls = _counting_fsum(monkeypatch)
        fsum_segments(np.concatenate(segments), [g.size for g in segments])
        assert calls[0] == 0  # the spread alone does not defeat the two passes
        monkeypatch.undo()
        _check_segments(segments)

    def test_adversarial_arrays(self):
        # 1,000 short arrays from families that stress the rounding:
        # cancelling pairs, ties and near-ties at a random scale,
        # subnormals, integers at the 2^53 edge, and wide spreads
        rng = np.random.default_rng(21)
        segments = []
        for family in rng.integers(0, 5, 1000).tolist():
            n = int(rng.integers(1, 40))
            if family == 0:
                half = rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-50, 50, n))
                g = np.concatenate([half, -half, rng.standard_normal(1) * 2.0**-70])
            elif family == 1:
                g = np.ldexp(rng.choice([1.0, TIE, TIE / 2, 2.0**-200, 3.0], n),
                             int(rng.integers(-900, 800))) * rng.choice([-1.0, 1.0], n)
            elif family == 2:
                g = np.ldexp(rng.integers(-8, 9, n).astype(float), rng.integers(-1074, -1040, n))
            elif family == 3:
                g = rng.integers(-(2**53), 2**53, n).astype(float)
            else:
                g = rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-1074, 900, n))
            rng.shuffle(g)
            segments.append(g)
        _check_segments(segments)

    def test_random_sums_take_the_numpy_route(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(20_000) * np.ldexp(1.0, rng.integers(-30, 30, 20_000))
        lens = rng.multinomial(x.size, np.full(300, 1 / 300))
        blocks = np.array_split(x, 7)
        calls = _counting_fsum(monkeypatch)
        got = fsum_segments(x, lens)
        total = fsum_blocks(lambda: iter(blocks))
        assert calls[0] == 0
        monkeypatch.undo()
        starts = np.cumsum(lens) - lens
        assert got.tolist() == [math.fsum(x[a : a + k].tolist()) for a, k in zip(starts, lens)]
        assert _bits(total) == _bits(math.fsum(x.tolist()))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_terms_take_the_fsum_route(self, bad):
        _check_segments([[1.0, bad, 2.0], [3.0], [bad]])

    def test_opposite_infinities_raise_as_fsum_does(self):
        with pytest.raises(ValueError):
            math.fsum([math.inf, -math.inf])
        with pytest.raises(ValueError):
            fsum_segments(np.array([math.inf, -math.inf]), [2])
        with pytest.raises(ValueError):
            fsum_blocks(lambda: iter([np.array([math.inf]), np.array([-math.inf])]))

    def test_near_overflow_takes_the_fsum_route(self, monkeypatch):
        segments = [[2.0**900, -(2.0**900), TIE], [1e308, -1e308, 1.0], [-(2.0**1023), 1.0]]
        calls = _counting_fsum(monkeypatch)
        fsum_segments(np.concatenate(segments), [3, 3, 2])
        assert calls[0] == 3
        monkeypatch.undo()
        _check_segments(segments)
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308, -1e308])
        with pytest.raises(OverflowError):
            fsum_segments(np.array([1e308, 1e308, -1e308]), [3])

    def test_pieces_and_remainder_bound_are_exact(self):
        # in rational arithmetic: each segment's sum is t1 + t2 + rho with
        # |rho| <= bound, which is what the rounding is certified against
        rng = np.random.default_rng(13)
        lens = np.array([1, 2, 7, 100, 1000, 3])
        x = rng.standard_normal(lens.sum()) * np.ldexp(1.0, rng.integers(-60, 60, lens.sum()))
        # 1000 equal remainders of one sign: the bound must grow with the length
        x = np.concatenate([x, [1.0], np.full(1000, 2.0**-60 + 2.0**-112)])
        lens = np.append(lens, 1001)
        starts = np.cumsum(lens) - lens
        t1, t2, bound, ok = _split(x, starts, lens)
        assert ok.all()
        for a, k, p1, p2, b in zip(starts, lens, t1.tolist(), t2.tolist(), bound.tolist()):
            exact = sum(map(Fraction, x[a : a + k].tolist()))
            assert abs(exact - Fraction(p1) - Fraction(p2)) <= Fraction(b)
            assert b == 0.0 or math.frexp(b)[0] == 0.5  # a power of two

    def test_a_near_tie_forces_the_fallback(self, monkeypatch):
        # 1 + 2^-53 rounds to 1.0 in the two exact pieces, while the
        # 2^-200 the passes leave over tips the exact sum above the tie
        calls = _counting_fsum(monkeypatch)
        x = np.array([1.0, TIE, 2.0**-200])
        got = fsum_segments(x, [3])[0]
        assert calls[0] == 1
        assert got == 1.0 + 2 * TIE
        calls[0] = 0
        assert fsum_blocks(lambda: iter([x[:1], x[1:]])) == 1.0 + 2 * TIE
        assert calls[0] == 1

    def test_a_failed_block_sums_every_block_again(self, monkeypatch):
        calls = _counting_fsum(monkeypatch)
        made = [0]

        def blocks():
            made[0] += 1
            yield np.array([1.0, 2.0])
            yield np.array([math.inf])
            yield np.array([3.0])

        assert fsum_blocks(blocks) == math.inf
        assert made[0] == 2
        assert calls[0] == 1

    def test_a_rest_that_certifies(self, monkeypatch):
        # terms left out of the blocks whose sum is within rest: the result
        # is fsum over the terms given and the terms left out together
        rng = np.random.default_rng(17)
        x = rng.standard_normal(1000)
        left_out = rng.standard_normal(50) * 2.0**-80
        rest = 2.0 * math.fsum(np.abs(left_out).tolist())
        made = [0]

        def blocks():
            made[0] += 1
            yield x[:500]
            yield x[500:]

        calls = _counting_fsum(monkeypatch)
        got = fsum_blocks(blocks, rest)
        assert calls[0] == 0
        monkeypatch.undo()
        assert made[0] == 1
        assert _bits(got) == _bits(math.fsum(x.tolist() + left_out.tolist()))
        # a rest of 0.0 leaves nothing out
        assert _bits(fsum_blocks(lambda: iter([x]), 0.0)) == _bits(math.fsum(x.tolist()))

    @pytest.mark.parametrize("terms, rest", [
        ([1.0, TIE], 2.0**-200),  # an exact tie: any rest > 0 straddles it
        ([1.0, TIE, 2.0**-200], 2.0**-100),  # a near-tie the rest straddles
        ([1.0], 2.0**-50),  # past half an ulp of the sum
        ([1.0], math.inf),
        ([1.0, -1.0], 0.0),  # a zero sum: fsum's sign rules decide
        ([], 2.0**-60),  # nothing given
        ([1.0, math.inf], 0.0),  # a term only fsum may sum
    ], ids=["tie", "near-tie", "wide", "infinite", "zero", "empty", "not-finite"])
    def test_a_rest_that_cannot_certify_is_refused(self, monkeypatch, terms, rest):
        made = [0]

        def blocks():
            made[0] += 1
            yield np.array(terms, dtype=float)

        calls = _counting_fsum(monkeypatch)
        assert fsum_blocks(blocks, rest) is None
        assert made[0] == 1  # no second pass
        assert calls[0] == 0

    @pytest.mark.parametrize("rest", [-(2.0**-60), math.nan])
    def test_rest_must_be_a_bound(self, rest):
        with pytest.raises(DomainError):
            fsum_blocks(lambda: iter([np.ones(2)]), rest)

    @pytest.mark.parametrize("lens", [[2], [4], [-1, 4], [[3]]])
    def test_lengths_must_tile_x(self, lens):
        with pytest.raises(DomainError):
            fsum_segments(np.zeros(3), lens)


class TestHalfGap:
    def test_half_the_smaller_gap_to_the_neighbours(self):
        rng = np.random.default_rng(7)
        xs = [1.0, 3.0 * 2.0**60, 2.0**70, math.nextafter(2.0**70, 0.0), 2.0**-1020,
              math.nextafter(2.0**-1021, 1.0), math.nextafter(math.inf, 0.0),
              *np.exp2(rng.uniform(-1000.0, 1000.0, 300)).tolist()]
        xs += [-x for x in xs]
        for x, h in zip(xs, half_gap(np.array(xs)).tolist()):
            near = [math.nextafter(x, d) for d in (-math.inf, math.inf)]
            exact = min(abs(Fraction(y) - Fraction(x)) for y in near if math.isfinite(y)) / 2
            assert Fraction(h) == exact, x

    def test_zero_where_the_half_gap_is_no_double(self):
        xs = np.array([5e-324, 1e-310, 2.0**-1022, 2.0**-1021, -(2.0**-1021)])
        assert half_gap(xs).tolist() == [0.0] * 5
