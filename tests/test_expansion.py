"""Expansion assembly, normalisation and equivalence."""

import math

import numpy as np
import pytest

from gkexpand.basis import eval_psi, peak
from gkexpand.blocks import combo_descriptor, eval_combo
from gkexpand.errors import DomainError, RangeError
from gkexpand.expansion import (
    Combo,
    RawPsi,
    ScaledH,
    build_bounded,
    build_combo,
    build_raw,
)
from gkexpand.reconstruct import series_kernel, tail_bound


class TestBuildRaw:
    def test_single_term_reconstructs_origin(self):
        e = build_raw(1)
        assert series_kernel(e, 0.0, 0.0) == 1.0

    def test_weights_are_unit(self):
        e = build_raw(10)
        assert np.all(e.weights == 1.0)
        assert [d.k for _w, d in e.terms()] == list(range(10))

    def test_normalized_weights_follow_peak_law(self):
        e = build_raw(200).normalize()
        lam100 = e.weight(100)
        assert 0.99 <= lam100 * math.sqrt(200.0 * math.pi) <= 1.01
        with pytest.raises(IndexError):
            _ = e.weights[1000]

    def test_normalized_mass_tracks_asymptote(self):
        # oracle: 1 (the k = 0 term) plus sum of (2 pi k)^(-1/2)
        e = build_raw(200).normalize()
        total = math.fsum(e.weights.tolist())
        oracle = 1.0 + math.fsum((2.0 * math.pi * k) ** -0.5 for k in range(1, 200))
        assert 0.95 <= total / oracle <= 1.05

    def test_normalize_idempotent(self):
        e = build_raw(50).normalize()
        again = e.normalize()
        assert again is e

    def test_normalized_basis_has_unit_sup(self):
        e = build_raw(300).normalize()
        for k in (1, 17, 250):
            vals = e.basis_values(peak(k).x_peak)
            assert vals[k] == pytest.approx(1.0, rel=1e-11)

    def test_horizon_validation(self):
        with pytest.raises(RangeError):
            build_raw(0)


class TestBuildBounded:
    def test_weight_mass_summable(self):
        e = build_bounded(3.0, 400)
        assert math.fsum(e.weights.tolist()) <= 1.0 + math.pi**2 / 6.0

    def test_weights(self):
        e = build_bounded(3.0, 10)
        assert e.weight(0) == 1.0
        assert e.weight(3) == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert isinstance(e.descriptor(3), ScaledH)

    def test_reconstructs_kernel(self):
        e = build_bounded(3.0, 300)
        assert series_kernel(e, 1.0, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_sup_attained_at_small_k(self):
        # sup over the first 300 h_k on [0, 3] is finite, peak near k = 19
        e = build_bounded(3.0, 300).normalize()
        sups = e._log_sups
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
        ec = build_combo(1)
        er = build_raw(135).normalize()
        assert len(ec) == 135
        np.testing.assert_allclose(ec.weights, er.weights, rtol=1e-14)
        x = 5.5
        np.testing.assert_allclose(
            ec.basis_values(x), er.basis_values(x), rtol=1e-12, atol=1e-300
        )

    def test_term_count_is_tiling(self):
        assert len(build_combo(4)) == 11475  # y_5 = 45 (4^4 - 1)

    def test_cap(self):
        with pytest.raises(RangeError):
            build_combo(9)
        assert len(build_combo(9, cap=9)) == 45 * (4**9 - 1)

    def test_descriptors(self, combo4):
        d = combo4.descriptor(2835)
        assert isinstance(d, Combo)
        assert d.descriptor.block.n == 4
        assert d.descriptor.row == 0 and d.descriptor.slot == 0
        assert combo4.descriptor(0) == Combo(combo_descriptor(1, 0, 0))

    def test_basis_values_match_scalar_combo(self, combo4):
        x = 41.3
        vals = combo4.basis_values(x)
        for pos in (0, 135, 2835, 2843, 11474):
            d = combo4.descriptor(pos).descriptor
            lam = combo4.weight(pos)
            expected = eval_combo(d, x).to_real() / math.sqrt(lam)
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
    def test_raw_descriptor(self):
        assert build_raw(3).descriptor(2) == RawPsi(2)

    def test_indices_distinct(self, combo4):
        descs = [combo4.descriptor(i) for i in range(0, len(combo4), 997)]
        assert len(set(descs)) == len(descs)

    def test_out_of_range(self, combo4):
        with pytest.raises(RangeError):
            combo4.descriptor(len(combo4))

    @pytest.mark.parametrize("i", [-1, 11475])
    def test_weight_out_of_range(self, combo4, i):
        # weight(-1) returned the last weight, weight(horizon) an IndexError
        with pytest.raises(RangeError):
            combo4.weight(i)

    def test_weight_at_both_ends(self, combo4):
        weights = combo4.weights
        assert combo4.weight(0) == weights[0]
        assert combo4.weight(len(combo4) - 1) == weights[-1]


class TestOnePerTermArray:
    """A combo expansion keeps only its log weights; the linear weights, the
    combo sup-norms and the normalised flag derive from them."""

    def test_block8_holds_one_horizon_array(self, combo8):
        held = [name for name, v in vars(combo8).items()
                if isinstance(v, np.ndarray) and v.shape[:1] == (len(combo8),)]
        assert held == ["log_weights"]

    def test_weight_has_the_bits_of_weights(self, combo8):
        weights = combo8.weights
        # np.exp of one element has the array's bits; math.exp does not
        for i in range(0, len(combo8), 997):
            assert combo8.weight(i) == weights[i]

    def test_normalized_flag(self):
        raw, bounded, combo = build_raw(50), build_bounded(3.0, 50), build_combo(2)
        assert (raw.normalized, bounded.normalized, combo.normalized) == (False, False, True)
        assert raw.normalize().normalized and bounded.normalize().normalized
        assert combo.normalize() is combo

