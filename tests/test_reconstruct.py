"""Kernel reconstruction: series evaluation, tail bounds, grid reports."""

import math

import mpmath as mp
import numpy as np
import pytest

from gkexpand.errors import DomainError, RangeError
from gkexpand.expansion import build_bounded, build_combo, build_raw
from gkexpand.reconstruct import (
    EVAL_SLACK,
    MAX_GRID_PAIRS,
    exact_kernel,
    grid_report,
    series_kernel,
    tail_bound,
)


class TestExactKernel:
    def test_diagonal_is_one(self):
        assert exact_kernel(1.7, 1.7) == 1.0

    def test_unit_width(self):
        assert exact_kernel(1.0, 2.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_width_rescaling(self):
        assert exact_kernel(0.0, 3.0, 9.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_rejects_bad_width(self):
        with pytest.raises(DomainError):
            exact_kernel(0.0, 0.0, 0.0)


class TestSeriesKernel:
    def test_raw_at_12(self, raw200):
        assert series_kernel(raw200, 1.0, 2.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_combo_matches_raw_at_origin(self, combo4):
        er = build_raw(11475)
        assert series_kernel(combo4, 0.0, 0.0) == pytest.approx(
            series_kernel(er, 0.0, 0.0), abs=1e-12
        )
        assert series_kernel(combo4, 0.0, 0.0) == 1.0

    @pytest.mark.parametrize("x,y", [(0.3, -1.2), (2.5, 2.5), (-3.0, 1.0)])
    def test_symmetry(self, raw200, x, y):
        assert series_kernel(raw200, x, y) == pytest.approx(
            series_kernel(raw200, y, x), rel=1e-14, abs=1e-300
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        # used to return nan with a RuntimeWarning
        for e in (build_raw(50), build_combo(1)):
            with pytest.raises(DomainError):
                series_kernel(e, bad, 0.5)
            with pytest.raises(DomainError):
                series_kernel(e, 0.5, bad)

    def test_bounded_domain_guard(self):
        e = build_bounded(3.0, 50)
        with pytest.raises(DomainError):
            series_kernel(e, -0.5, 1.0)
        with pytest.raises(DomainError):
            series_kernel(e, 1.0, 3.5)

    def test_far_out_underflow_regime(self, combo4):
        # both arguments far from every peak: all terms underflow together
        v = series_kernel(combo4, 150.0, 150.0)
        assert v == 0.0

    def test_monotone_horizon_approach(self):
        # K(x, x) = 1 is approached from below as the horizon grows
        vals = [series_kernel(build_raw(h), 2.0, 2.0) for h in (10, 20, 40, 80)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-10)


class TestTailBound:
    def test_deep_horizon_is_tiny(self):
        b = tail_bound(200, 3.0, 3.0)
        assert 0.0 < b < 1e-100

    def test_zero_product_collapses(self):
        assert tail_bound(10, 0.0, 5.0) == 0.0

    def test_precondition_sentinel(self):
        assert tail_bound(10, 3.0, 3.0) is None  # 10 < 2 |2xy| = 36

    def test_mathematical_soundness_against_mpmath(self):
        # the bound must dominate the *true* remainder; precision is raised
        # until the oracle resolves the bound itself
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
            for h in (50, 100, 200):
                b = tail_bound(h, x, y)
                if b is None or b == 0.0:
                    continue
                dps = max(40, int(-math.log10(b)) + 30)
                with mp.workdps(dps):
                    xx, yy = mp.mpf(x), mp.mpf(y)
                    s = mp.fsum((2 * xx * yy) ** k / mp.factorial(k) for k in range(h))
                    truth = mp.e ** (-((xx - yy) ** 2))
                    series = mp.e ** (-xx * xx - yy * yy) * s
                    assert abs(truth - series) <= mp.mpf(b)

    def test_float_soundness_with_slack(self, raw200):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x, y = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
            for h in (50, 100, 200):
                b = tail_bound(h, x, y)
                if b is None:
                    continue
                err = abs(exact_kernel(x, y) - series_kernel(build_raw(h), x, y))
                assert err <= b + EVAL_SLACK


class TestGridReport:
    def test_raw_200_default_grid(self, raw200):
        rep = grid_report(raw200, (-3.0, 3.0), (-3.0, 3.0), 0.25)
        assert len(rep.rows) == 625
        assert rep.max_abs_error < 1e-10
        assert rep.bound_satisfied

    def test_bounded_grid(self):
        e = build_bounded(3.0, 300)
        rep = grid_report(e, (0.0, 3.0), (0.0, 3.0), 0.25)
        assert rep.max_abs_error < 1e-8
        assert rep.bound_satisfied

    def test_combo_matches_raw_grid(self):
        ec = build_combo(3)
        er = build_raw(len(ec))
        edge = math.sqrt(2835.0 / 2.0)
        xs = np.linspace(-edge, edge, 7)
        for x in xs:
            for y in xs:
                assert series_kernel(ec, float(x), float(y)) == pytest.approx(
                    series_kernel(er, float(x), float(y)), abs=1e-11
                )

    def test_domain_error_propagates(self):
        e = build_bounded(3.0, 50)
        with pytest.raises(DomainError):
            grid_report(e, (-5.0, 5.0), (-5.0, 5.0), 1.0)

    @pytest.mark.parametrize(
        "lo,hi", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)]
    )
    def test_non_finite_bounds_rejected(self, raw200, lo, hi):
        with pytest.raises(DomainError):
            grid_report(raw200, (lo, hi), (0.0, 1.0), 0.5)
        with pytest.raises(DomainError):
            grid_report(raw200, (0.0, 1.0), (lo, hi), 0.5)

    def test_pair_cap(self, raw200):
        # 1000 x 1001 points is one row past MAX_GRID_PAIRS
        assert MAX_GRID_PAIRS == 1000 * 1000
        with pytest.raises(RangeError, match="1000 x 1001"):
            grid_report(raw200, (0.0, 999.0), (0.0, 1000.0), 1.0)

    def test_eta_rescaling(self):
        e = build_raw(120)
        rep = grid_report(e, (-6.0, 6.0), (-6.0, 6.0), 1.0, eta=4.0)
        assert rep.max_abs_error < 1e-10


class TestPositiveSemidefinite:
    def test_desk_scale_gram_matrices(self, raw200):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            pts = rng.uniform(-3.0, 3.0, 8)
            gram = np.array(
                [[series_kernel(raw200, float(a), float(b)) for b in pts] for a in pts]
            )
            assert np.linalg.eigvalsh(gram).min() > -1e-9
