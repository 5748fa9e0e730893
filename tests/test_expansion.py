"""Expansion assembly, normalisation and equivalence."""

import math
import re

import numpy as np
import pytest

from gkexpand.basis import log_h_sup_many, log_m_squared_many, log_psi, peak
from gkexpand.blocks import block_spec, row_indices, row_log_weights, sign_rows
from gkexpand.errors import DomainError, RangeError
from gkexpand import blocks, expansion
from gkexpand.expansion import Expansion, build_bounded, build_combo, build_raw
from gkexpand.numerics import CANCELLATION_FLUSH
from gkexpand.reconstruct import _LOG_NEGLIGIBLE, _Point, _reaching, series_kernel, tail_bound


def _values(e, x):
    """Signed linear values of every basis function of e at x; 0.0 below
    the double underflow limit."""
    signs, logs = e.basis_log_values(x)
    with np.errstate(under="ignore"):
        return signs * np.exp(logs)


def _combo_oracle(n, h, slot, x):
    """Slot ``slot`` of row h of block n at x, c^(-1/2) sum_k S[slot, k]
    psi_{P_k}(x), as one scalar signed log-sum-exp: the terms rescaled by
    the top one and summed with math.fsum, a sum below CANCELLATION_FLUSH
    flushed to 0.  An independent check on the matrix sums of the
    (row, slot) array path."""
    spec = block_spec(n)
    psign, logs = log_psi(np.asarray(row_indices(spec, h)), x)
    signs = sign_rows(n, [slot])[0].tolist()
    terms = [(s * p, v) for s, p, v in zip(signs, psign.tolist(), logs.tolist())]
    anchor = max((v for sign, v in terms if sign), default=-math.inf)
    if anchor == -math.inf:
        return 0.0
    acc = math.fsum(sign * math.exp(v - anchor) for sign, v in terms if sign)
    if abs(acc) < CANCELLATION_FLUSH:
        return 0.0
    return math.copysign(math.exp(anchor + math.log(abs(acc)) - 0.5 * math.log(spec.c)), acc)


class TestBuildRaw:
    def test_single_term_reconstructs_origin(self):
        e = build_raw(1)
        assert series_kernel(e, 0.0, 0.0) == 1.0

    def test_weights_are_unit(self):
        e = build_raw(10)
        assert np.all(e.weights == 1.0)
        assert len(e) == 10

    # The normalised raw expansion has weights lambda_k = m_k^2 on the
    # basis psi_k / m_k, whose sup-norms are 1.

    def test_normalized_weights_follow_peak_law(self):
        weights = np.exp(log_m_squared_many(np.arange(200)))
        lam100 = weights[100]
        assert 0.99 <= lam100 * math.sqrt(200.0 * math.pi) <= 1.01
        with pytest.raises(IndexError):
            _ = weights[1000]

    def test_normalized_mass_tracks_asymptote(self):
        # oracle: 1 (the k = 0 term) plus sum of (2 pi k)^(-1/2)
        total = math.fsum(np.exp(log_m_squared_many(np.arange(200))).tolist())
        oracle = 1.0 + math.fsum((2.0 * math.pi * k) ** -0.5 for k in range(1, 200))
        assert 0.95 <= total / oracle <= 1.05

    def test_normalized_basis_has_unit_sup(self):
        e = build_raw(300)
        log_m2 = log_m_squared_many(np.arange(300))
        for k in (1, 17, 250):
            signs, logs = e.basis_log_values(peak(k).x_peak)
            assert signs[k] * math.exp(logs[k] - log_m2[k] / 2) == pytest.approx(1.0, rel=1e-11)

    def test_horizon_validation(self):
        # build_raw(2.5) ended in a TypeError from numpy, and
        # build_bounded(3.0, 2.5) built 3 terms
        for build, message in [
            (lambda: build_raw(0), "horizon must be >= 1"),
            (lambda: build_raw(2.5), "horizon 2.5 is not an integer"),
            (lambda: build_bounded(3.0, 2.5), "horizon 2.5 is not an integer"),
            (lambda: build_raw(10**7 + 1), "horizon 10000001 exceeds 10000000 terms"),
        ]:
            with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
                build()


class TestBuildBounded:
    def test_weight_mass_summable(self):
        e = build_bounded(3.0, 400)
        assert math.fsum(e.weights.tolist()) <= 1.0 + math.pi**2 / 6.0

    def test_weights(self):
        e = build_bounded(3.0, 10)
        assert e.weights[0] == 1.0
        assert e.weights[3] == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_reconstructs_kernel(self):
        e = build_bounded(3.0, 300)
        assert series_kernel(e, 1.0, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_sup_attained_at_small_k(self):
        # sup over the first 300 h_k on [0, 3] is finite, peak near k = 19
        sups = log_h_sup_many(np.arange(300), 3.0)
        assert int(np.argmax(sups)) == 19
        assert math.exp(float(np.max(sups))) == pytest.approx(5.65776300662514, rel=1e-10)

    @pytest.mark.parametrize("edge", [math.inf, math.nan, 0.0, -1.0])
    def test_edge_must_be_positive_and_finite(self, edge):
        with pytest.raises(DomainError):
            build_bounded(edge, 50)

    def test_term_identity_with_raw(self):
        # lambda_k * h_k(x) h_k(t) telescopes back to psi_k(x) psi_k(t)
        eb = build_bounded(3.0, 50)
        er = build_raw(50)
        for x, t in ((0.5, 1.5), (2.0, 3.0)):
            assert series_kernel(eb, x, t) == pytest.approx(
                series_kernel(er, x, t), rel=1e-13
            )


class TestBuildCombo:
    def test_block1_matches_normalized_raw(self):
        # block 1 is psi_0 .. psi_134 normalised: weights m_k^2, basis psi_k / m_k
        ec = build_combo(1)
        log_m2 = log_m_squared_many(np.arange(135))
        assert len(ec) == 135
        np.testing.assert_allclose(ec.weights, np.exp(log_m2), rtol=1e-14)
        x = 5.5
        signs, logs = build_raw(135).basis_log_values(x)
        with np.errstate(under="ignore"):
            raw = signs * np.exp(logs - log_m2 / 2)
        np.testing.assert_allclose(_values(ec, x), raw, rtol=1e-12, atol=1e-300)

    def test_weights_repeat_each_row_weight_c_fold(self, combo4):
        # every slot of row h carries row_log_weights(n)[h], bit for bit
        for n in range(1, 5):
            spec = block_spec(n)
            block = combo4.log_weights[spec.y : spec.next_start].reshape(spec.r, spec.c)
            assert np.array_equal(block, np.repeat(row_log_weights(n)[:, None], spec.c, axis=1))

    def test_term_count_is_tiling(self):
        assert len(build_combo(4)) == 11475  # y_5 = 45 (4^4 - 1)

    def test_cap(self, monkeypatch):
        with pytest.raises(RangeError):
            build_combo(9)
        monkeypatch.setattr(blocks, "DEFAULT_BLOCK_CAP", 9)
        assert len(build_combo(9)) == 45 * (4**9 - 1)

    def test_basis_values_match_scalar_combo(self, combo4):
        # term y + h c + slot of block n is that slot of row h, over its
        # sup-norm sqrt(lambda)
        x = 41.3
        vals = _values(combo4, x)
        for pos, (n, h, slot) in ((0, (1, 0, 0)), (135, (2, 0, 0)), (2835, (4, 0, 0)),
                                  (2843, (4, 1, 0)), (7443, (4, 576, 0)), (11474, (4, 1079, 7))):
            assert pos == block_spec(n).y + h * block_spec(n).c + slot
            expected = _combo_oracle(n, h, slot, x) / math.sqrt(combo4.weights[pos])
            assert vals[pos] == pytest.approx(expected, rel=1e-10, abs=1e-280)

    def test_scheme_equivalence_with_raw(self):
        # same raw index coverage: combo blocks 1..2 vs raw horizon 675
        ec = build_combo(2)
        er = build_raw(675)
        xs = np.linspace(-3.0, 3.0, 15)
        for x in xs:
            for y in xs:
                assert series_kernel(ec, x, y) == pytest.approx(
                    series_kernel(er, x, y), abs=1e-11
                )


class TestDiagonalSandwich:
    @pytest.mark.parametrize("x", [-3.0, -1.2, 0.0, 0.7, 2.9])
    def test_all_schemes_pin_diagonal(self, x, raw200):
        for e in (raw200, build_combo(2)):
            val = series_kernel(e, x, x)
            bound = tail_bound(len(e), x, x)
            assert val <= 1.0 + bound + 1e-13
            assert val >= 1.0 - bound - 1e-13
        if x >= 0.0:
            eb = build_bounded(3.0, 300)
            val = series_kernel(eb, x, x)
            bound = tail_bound(300, x, x)
            assert abs(val - 1.0) <= bound + 1e-13


class TestTermAccess:
    def test_weight_at_both_ends(self, combo4):
        # a combo's weight is its leading peak's m^2 / c: psi_0 alone first,
        # row 1079 of block 4 (leading index 2835 + 1079) last
        weights = combo4.weights
        assert weights[0] == 1.0
        assert weights[-1] == pytest.approx(peak(2835 + 1079).m ** 2 / 8.0, rel=1e-12)


class TestOnePerTermArray:
    """A combo expansion keeps only its log weights; the linear weights and
    the combo sup-norms derive from them."""

    def test_block8_holds_one_horizon_array(self, combo8):
        held = [name for name, v in vars(combo8).items()
                if isinstance(v, np.ndarray) and v.shape[:1] == (len(combo8),)]
        assert held == ["log_weights"]

    def test_combo_log_weights_must_fill_its_blocks(self):
        # 3 log weights at max_block 2 ended in a broadcast ValueError in
        # series_kernel
        with pytest.raises(RangeError, match=r"^combo log_weights hold 3 terms; blocks 1\.\.2 have 675$"):
            Expansion("combo", np.zeros(3), max_block=2)

    @pytest.mark.parametrize("scheme, message", [
        ("foo", "unknown scheme 'foo'"),
        ("combo", "combo expansion needs max_block"),
        ("bounded", "bounded expansion needs a domain edge"),
    ], ids=["unknown-scheme", "combo-without-max-block", "bounded-without-edge"])
    def test_constructor_errors(self, scheme, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Expansion(scheme, np.zeros(3))



# The points of the cache tests: both zeros, the smallest subnormal, and
# points whose windows hold blocks 1-2, block 5 and block 8 alone.
CACHE_POINTS = (0.0, -0.0, 5e-324, 0.3, -0.3, 3.0, -3.0, 24.0, -24.0, 1000.0)


def _fresh_combo_block(spec, x):
    """(signs, logs) of one combo block at x with every constant made anew:
    psi from basis.log_psi, the sign pattern from sign_rows, and the
    generic recombination for every block, c = 1 included."""
    psign, lpsi = log_psi(spec.y + np.arange(spec.r * spec.c, dtype=np.float64), x)
    lv, sv = lpsi.reshape(spec.c, spec.r), psign.reshape(spec.c, spec.r)
    anchor = np.max(lv, axis=0)
    dead = ~np.isfinite(anchor)
    safe = np.where(dead, 0.0, anchor)
    with np.errstate(under="ignore", divide="ignore"):
        sums = sign_rows(spec.n).astype(np.float64) @ (sv * np.exp(lv - safe[None, :]))
        mags = np.abs(sums)
        alive = (mags >= CANCELLATION_FLUSH) & ~dead[None, :]
        logs = np.where(alive, safe[None, :] + np.log(np.where(mags > 0, mags, 1.0))
                        - 0.5 * math.log(spec.c), -np.inf)
    signs = np.where(alive, np.sign(sums), 0.0)
    return signs.T.reshape(-1), logs.T.reshape(-1)


def _fresh_series(e, x):
    """(signs, logs) of a raw or bounded expansion at x from basis.log_psi."""
    ks = np.arange(len(e), dtype=np.float64)
    signs, logs = log_psi(ks, x)
    if e.scheme == "bounded":
        logs = logs + np.log(np.maximum(ks, 1.0))
    return signs, logs


def _bits(pair):
    return pair[0].tobytes(), pair[1].tobytes()


def _fresh_copy(e):
    """A new expansion on e's weights, its cache empty."""
    return Expansion(e.scheme, e.log_weights, domain_edge=e.domain_edge,
                     max_block=e.max_block)


class TestConstantCache:
    """Each expansion computes its point-independent constants once; every
    later point gives the bits of a fresh basis.log_psi evaluation."""

    @pytest.mark.parametrize("make", [
        lambda: build_raw(300), lambda: build_bounded(3.0, 300),
    ], ids=["raw", "bounded"])
    def test_series_bits_match_fresh_log_psi(self, make):
        # raw and bounded keep no cache; their values must stay those of a
        # fresh log_psi on the first call and on every later one
        made = make()
        for x in CACHE_POINTS + (1e200, -1e200):  # psi's log is -inf, its sign not 0
            e = _fresh_copy(made)
            want = _bits(_fresh_series(e, x))
            assert _bits(e.basis_log_values(x)) == want
            assert _bits(e.basis_log_values(x)) == want

    @pytest.mark.parametrize("n", range(1, 9))
    def test_combo_block_bits_match_fresh_recombination(self, combo8, n):
        # the oracle recombines every block, block 1 with [[1]].  6.2e9: block
        # 2's recombined logs tie there; 1e154: x^2 is finite, 1e155 and
        # +-1e200: it overflows, every log is -inf and psi's signs are +-1
        spec = block_spec(n)
        points = CACHE_POINTS + (6165753934.371338, 1e154, 1e155, 1e200, -1e200)
        for i, x in enumerate(points):
            want = _bits(_fresh_combo_block(spec, x))
            if i == 0 or n < 8:  # an empty cache; at block 8 (0.1 s a fill) once
                e = _fresh_copy(combo8)
            # the first call at a fresh copy fills the cache, the second reads it
            assert _bits(expansion._combo_block_log_values(e._combo_block(n), x)) == want
            assert _bits(expansion._combo_block_log_values(e._combo_block(n), x)) == want

    def test_block_1_is_its_psi_values(self):
        # block 1 is evaluated without the recombination: its combos are
        # psi_0 .. psi_134, bit for bit, wherever x^2 is finite
        e = build_combo(1)
        ks = np.arange(135.0)
        for x in CACHE_POINTS + (-1e-160, 6165753934.371338, 1e154, -1e154):
            assert _bits(expansion._combo_block_log_values(e._combo_block(1), x)) == _bits(log_psi(ks, x))
        # where x^2 overflows it is the recombination, whose sign is 0
        # exactly where its log is -inf, though psi's own sign is +-1
        for x in (1e155, 1e200, -1e200):
            signs, logs = expansion._combo_block_log_values(e._combo_block(1), x)
            assert _bits((signs, logs)) == _bits(_fresh_combo_block(block_spec(1), x))
            assert np.array_equal(signs == 0.0, logs == -np.inf)
            assert np.all(log_psi(ks, x)[0] != 0.0)

    @pytest.mark.parametrize("x", CACHE_POINTS[:7] + (1e200,))
    def test_combo_values_match_fresh_blocks(self, x):
        # the normalised values of every block that can hold a nonzero term
        # at x, as before
        e = build_combo(3)
        p = _Point(e, x)
        kept = _reaching(e, p, p, _LOG_NEGLIGIBLE)
        w = slice(e._spans[kept[0] - 1][0], e._spans[kept[-1] - 1][1]) if kept else slice(0, 0)
        fresh = [_fresh_combo_block(block_spec(n), x) for n in (1, 2, 3)]
        signs = np.concatenate([f[0] for f in fresh])[w]
        logs = (np.concatenate([f[1] for f in fresh]) - 0.5 * e.log_weights)[w]
        for _ in range(2):
            got_signs, got_logs = e.basis_log_values(x)
            assert _bits((got_signs[w], got_logs[w])) == (signs.tobytes(), logs.tobytes())

    def test_build_combo_fills_no_cache(self):
        e = build_combo(8)
        assert e._cache == {}
        for x in (-3.0, -0.4, 0.0, 1.9, 3.0):
            for y in (-2.2, 0.0, 3.0):
                series_kernel(e, x, y)
        assert sorted(e._cache) == [1]  # |x| <= 3 sums block 1 only (the head)

    def test_cache_bytes_within_bound(self, combo4):
        e = _fresh_copy(combo4)
        e.basis_log_values(7.0)  # every block
        for n in range(1, 5):
            spec = block_spec(n)
            block = e._cache[n]
            assert block.half.nbytes + block.signs.nbytes == 8 * spec.r * spec.c + 8 * spec.c**2
        held = sum(b.half.nbytes + b.signs.nbytes for b in e._cache.values())
        assert held <= 16 * len(e) == 2 * e.log_weights.nbytes

    def test_cache_arrays_read_only(self, combo4):
        e = _fresh_copy(combo4)
        e.basis_log_values(5.0)
        arrays = [a for b in e._cache.values() for a in (b.half, b.signs)]
        assert len(arrays) == 2 * 4
        for a in arrays:
            assert not a.flags.writeable

    @pytest.mark.parametrize("make", [lambda: build_raw(50), lambda: build_bounded(3.0, 50),
                                      lambda: build_combo(2)], ids=["raw", "bounded", "combo"])
    @pytest.mark.parametrize("x", [0.0, -1.3, 2.0])
    def test_returned_arrays_are_the_callers(self, make, x):
        e = make()
        want = _bits(e.basis_log_values(x))
        signs, logs = e.basis_log_values(x)
        cached = [a for b in getattr(e, "_cache", {}).values() for a in (b.half, b.signs)]
        assert not any(np.shares_memory(r, a) for r in (signs, logs) for a in cached)
        signs[:] = 7.0
        logs[:] = 7.0
        assert _bits(e.basis_log_values(x)) == want
