"""Localised evaluation: every pair of every scheme goes through one
windowed pair sum.  Term windows skip only terms that are exactly 0.0, so
every windowed sum keeps the bits of the full-horizon sum; no combo pair
evaluates the full horizon, and raw and bounded windows are the full
horizon."""

import math
import struct
from collections import Counter

import numpy as np
import pytest

from gkexpand import expansion, reconstruct
from gkexpand.blocks import block_spec
from gkexpand.errors import DomainError, RangeError
from gkexpand.expansion import _LOG_NEGLIGIBLE, _LOG_WIDE, Expansion, build_bounded, build_combo, build_raw
from gkexpand.reconstruct import _overlap_sum, _pair_sum, _Point, grid_report, series_kernel

LINE_POINTS = (0.0, -0.0, 0.4, -1.3, 2.9, -3.0, 7.5, -11.0, 26.0)
# (4, -16): a block bound of 4 sits within 150 of the threshold while -16
# peaks in that block, so a threshold raised to -600 drops live terms
COMBO_POINTS = (0.0, -0.0, -2.2, 3.0, 4.0, 9.7, -15.0, -16.0, 33.0, -60.0)
DEEP_COMBO_POINTS = (-0.0, -2.2, 9.7, 33.0, -60.0)
DOMAIN_POINTS = (0.0, 0.25, 1.7, 3.0)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _masked_accumulate(log_weights, sx, lx, sy, ly):
    """The full-horizon sum as an explicitly masked reference, kept apart
    from the package's own accumulation so that tests compare two
    implementations: linear fsum while a term reaches 1e-300, else the
    signed reduction anchored on the top live term."""
    log_terms = log_weights + lx + ly
    signs = sx * sy
    alive = signs != 0.0
    if not np.any(alive):
        return 0.0
    top = float(np.max(log_terms[alive]))
    if top >= math.log(1e-300):
        with np.errstate(under="ignore"):
            terms = np.where(alive, signs * np.exp(log_terms), 0.0)
        return math.fsum(terms.tolist())
    with np.errstate(under="ignore"):
        acc = math.fsum((signs * np.exp(log_terms - top)).tolist())
    if acc == 0.0:
        return 0.0
    log_res = top + math.log(abs(acc))
    if log_res < -745.0:
        return 0.0
    return math.copysign(math.exp(log_res), acc)


class _Full:
    """Full-horizon basis values per point, cached: the oracle path."""

    def __init__(self, e):
        self.e = e
        self.cache = {}

    def values(self, x):
        key = _bits(x)
        if key not in self.cache:
            self.cache[key] = self.e.basis_log_values(x)
        return self.cache[key]

    def sum(self, x, y):
        return _masked_accumulate(self.e.log_weights, *self.values(x), *self.values(y))

    def log_terms(self, x, y):
        (sx, lx), (sy, ly) = self.values(x), self.values(y)
        return sx * sy, self.e.log_weights + lx + ly


def _cases():
    yield "raw200", build_raw(200), LINE_POINTS
    yield "raw3000", build_raw(3000), LINE_POINTS + (30.0, -38.0)
    yield "bounded", build_bounded(3.0, 1000), DOMAIN_POINTS
    yield "bounded-wide", build_bounded(40.0, 4000), DOMAIN_POINTS + (12.0, 39.5)
    for n in range(1, 8):
        yield f"combo{n}", build_combo(n), COMBO_POINTS if n < 6 else DEEP_COMBO_POINTS


CASES = list(_cases())


@pytest.mark.parametrize("name,e,points", CASES, ids=[c[0] for c in CASES])
class TestWindowedSum:
    def test_series_bit_equal_to_full_horizon(self, name, e, points):
        full = _Full(e)
        for x in points:
            for y in points:
                assert _bits(series_kernel(e, x, y)) == _bits(full.sum(x, y)), (x, y)

    def test_point_window_holds_for_every_partner(self, name, e, points):
        full = _Full(e)
        for x in points:
            w = e.term_window(x)
            outside = np.ones(len(e), dtype=bool)
            outside[w] = False
            for y in points:
                signs, log_terms = full.log_terms(x, y)
                live = outside & (signs != 0.0)
                # the skip rule's own claim, and what it buys: exp() is 0.0
                assert np.all(log_terms[live] < _LOG_NEGLIGIBLE + 1e-6), (x, y)
                with np.errstate(under="ignore"):
                    assert not np.any(signs[live] * np.exp(log_terms[live])), (x, y)

    def test_sign_is_zero_exactly_where_log_is_minus_inf(self, name, e, points):
        # what lets the accumulation skip its mask: a dead term's exp is 0.0
        for x in points:
            signs, logs = e.basis_log_values(x)
            assert np.array_equal(signs == 0.0, logs == -np.inf), x
            assert not np.any(np.isnan(logs) | (logs == np.inf)), x

    def test_series_takes_one_pair_sum(self, name, e, points, monkeypatch):
        calls = []
        real = reconstruct._pair_sum

        def spy(e_, px, py):
            calls.append((px.x, py.x))
            return real(e_, px, py)

        monkeypatch.setattr(reconstruct, "_pair_sum", spy)
        for x in points:
            series_kernel(e, x, points[-1])
        assert calls == [(x, points[-1]) for x in points]

    def test_sliced_values_bit_equal(self, name, e, points):
        for x in points:
            fs, fl = e.basis_log_values(x)
            for w in (e.term_window(x), slice(3, len(e) - 5), slice(len(e) // 3, None)):
                s, l = e.basis_log_values(x, w)
                assert s.tobytes() == fs[w].tobytes() and l.tobytes() == fl[w].tobytes()


class TestWindowShape:
    @pytest.mark.parametrize("x,y,empty", [(0.0, 40.0, True), (0.0, 30.0, False)])
    def test_all_tiny_pair_sums_the_wide_window(self, x, y, empty):
        # no term reaches 1e-300, so the narrow windows cannot anchor the
        # log-domain sum.  At (0, 40) they do not meet and the pair is +0.0
        # at once; at (0, 30) they share block 1 and the wide windows are
        # summed
        e = build_combo(4)
        px, py = _Point(e, x), _Point(e, y)
        (wx, _), (wy, _) = px.part, py.part
        assert (max(wx.start, wy.start) >= min(wx.stop, wy.stop)) == empty
        narrow = _overlap_sum(e, px.part, py.part, linear_only=True)
        if empty:
            assert _bits(narrow) == _bits(0.0)
        else:
            assert narrow is None
        value = _pair_sum(e, px, py)
        assert (px._wide is None and py._wide is None) == empty
        assert _bits(value) == _bits(_Full(e).sum(x, y))
        assert _bits(series_kernel(e, x, y)) == _bits(_Full(e).sum(x, y))

    def test_zero_point_keeps_block_1(self):
        # psi_k(0) = 0 for k >= 1, so only the block holding psi_0 counts
        e = build_combo(7)
        for x in (0.0, -0.0):
            assert e.term_window(x) == slice(0, block_spec(1).next_start)

    @pytest.mark.parametrize("e", [build_raw(200), build_bounded(3.0, 300)])
    def test_raw_and_bounded_are_not_windowed(self, e):
        for x in (0.0, 1.5, 3.0):
            assert e.term_window(x) == slice(0, len(e))

    def test_combo7_small_points_touch_blocks_1_and_2(self, monkeypatch):
        e = build_combo(7)
        seen = []
        real = expansion._combo_block_log_values

        def spy(block, x):
            seen.append(block.spec.n)
            return real(block, x)

        monkeypatch.setattr(expansion, "_combo_block_log_values", spy)
        for x in (-3.0, -1.1, 0.0, 2.4, 3.0):
            for y in (-3.0, 0.3, 3.0):
                series_kernel(e, x, y)
            w = e.term_window(x)
            assert w.start == 0 and w.stop in (135, 675)
        assert sorted(set(seen)) == [1, 2]
        assert len(seen) <= 2 * 2 * 15

    def test_combo_window_is_whole_blocks(self):
        e = build_combo(6)
        starts = {block_spec(n).y for n in range(1, 7)} | {len(e)}
        for x in COMBO_POINTS:
            w = e.term_window(x)
            assert w.start == w.stop == 0 or {w.start, w.stop} <= starts

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_early_stop_keeps_the_all_blocks_window(self, n, combo8):
        # term_window stops at the first block past the mode whose bound is
        # below the floor; bounding every block gives the same slice
        e = combo8 if n == 8 else build_combo(n)

        def all_blocks(x, floor):
            mode = 2.0 * x * x
            kept = [(y, end) for y, end, log_c in e._spans
                    if log_c + expansion._log_abs_psi(int(min(max(mode, y), end - 1)), x) >= floor]
            return slice(kept[0][0], kept[-1][1]) if kept else slice(0, 0)

        # the mode at each block start, a ulp either side, extreme points and
        # random ones out past the last block's peaks
        edges = [math.sqrt(y / 2.0) for y, _end, _c in e._spans] + [math.sqrt(len(e) / 2.0)]
        points = [0.0, -0.0, 5e-324, 1e200, -1e200]
        for m in edges:
            points += [m, math.nextafter(m, 0.0), math.nextafter(m, math.inf)]
        points += np.random.default_rng(n).uniform(-1.2 * edges[-1], 1.2 * edges[-1], 9000).tolist()
        for floor in (_LOG_NEGLIGIBLE, _LOG_WIDE):
            for x in points:
                assert e.term_window(x, _floor=floor) == all_blocks(x, floor), (x, floor)

    def test_non_finite_point_rejected(self):
        for e in (build_raw(20), build_combo(2)):
            with pytest.raises(DomainError):
                e.term_window(math.nan)
            with pytest.raises(DomainError):
                e.term_window(math.inf)

    def test_non_contiguous_slice_rejected(self):
        with pytest.raises(RangeError):
            build_raw(20).basis_log_values(1.0, slice(0, 10, 2))


class TestGridWindows:
    def test_raw_grid_bit_equal_to_full_horizon(self):
        # spans the all-tiny regime: (0, 30) and (30, 0) are below 1e-300
        e = build_raw(3000)
        full = _Full(e)
        rep = grid_report(e, (0.0, 30.0), (0.0, 30.0), 7.5)
        assert len(rep.rows) == 25
        for x, y, _exact, series, _err, _bound in rep.rows:
            assert _bits(series) == _bits(full.sum(x, y)), (x, y)

    def test_combo_grid_bit_equal_to_full_horizon(self):
        e = build_combo(4)
        full = _Full(e)
        rep = grid_report(e, (-36.0, 36.0), (-36.0, 36.0), 12.0)
        for x, y, _exact, series, _err, _bound in rep.rows:
            assert _bits(series) == _bits(full.sum(x, y)), (x, y)


@pytest.fixture
def sliced_calls(monkeypatch):
    """The term slice of every Expansion.basis_log_values call."""
    seen = []
    real = Expansion.basis_log_values

    def spy(self, x, terms=None):
        seen.append(terms)
        return real(self, x, terms)

    monkeypatch.setattr(Expansion, "basis_log_values", spy)
    return seen


class TestWideWindow:
    @pytest.mark.parametrize(
        "y,expected", [(26.5, 1.0392022621430825e-305), (27.0, 2.507972e-317)]
    )
    def test_subnormal_pair_bit_equal_without_full_horizon(self, sliced_calls, y, expected):
        # the log-domain regime with a nonzero result: the wide windows hold
        # the top term, and stop at 11,475 of 46,035 terms
        e = build_combo(5)
        value = series_kernel(e, 0.0, y)
        assert _bits(value) == _bits(expected)
        assert len(e) == 46035
        assert e.term_window(0.0, _floor=_LOG_WIDE).stop <= 11475
        assert e.term_window(y, _floor=_LOG_WIDE) == slice(0, 11475)
        assert None not in sliced_calls
        assert _bits(_Full(e).sum(0.0, y)) == _bits(expected)

    @pytest.mark.parametrize("n,x,y", [(5, -42.52, -4.64), (5, -39.39, 4.46), (6, -43.21, -4.79)])
    def test_wide_windows_hold_the_log_domain_anchor(self, n, x, y):
        # the top term lies in [e^-765, 1e-300): a term outside the narrow
        # windows can still rescale to a nonzero double, but every term
        # outside the wide windows rescales to exactly 0.0
        e = build_combo(n)
        signs, log_terms = _Full(e).log_terms(x, y)
        alive = signs != 0.0
        top = float(np.max(log_terms[alive]))
        assert _LOG_NEGLIGIBLE <= top < math.log(1e-300)
        rescaled = []
        for floor in (_LOG_NEGLIGIBLE, _LOG_WIDE):
            wx, wy = e.term_window(x, _floor=floor), e.term_window(y, _floor=floor)
            outside = alive.copy()
            outside[max(wx.start, wy.start):min(wx.stop, wy.stop)] = False
            with np.errstate(under="ignore"):
                rescaled.append(np.exp(log_terms[outside] - top))
        assert np.any(rescaled[0]) and not np.any(rescaled[1])
        assert _bits(series_kernel(e, x, y)) == _bits(_Full(e).sum(x, y))

    def test_block8_disjoint_pair_is_positive_zero(self, combo8, sliced_calls):
        value = series_kernel(combo8, 0.0, 40.0)
        assert _bits(value) == _bits(0.0)
        assert sliced_calls
        for terms in sliced_calls:
            assert terms is not None and terms.stop - terms.start < len(combo8)

    def test_grid_makes_each_wide_window_once(self, monkeypatch):
        # every pair is all-tiny with meeting windows, so every point needs
        # its wide window; the grid makes it once per point
        e = build_combo(5)
        made = Counter()
        real = Expansion.term_window

        def spy(self, x, **floor):
            if floor:
                made[x] += 1
            return real(self, x, **floor)

        monkeypatch.setattr(Expansion, "term_window", spy)
        rep = grid_report(e, (0.0, 0.25), (27.0, 28.0), 0.25)
        monkeypatch.undo()
        full = _Full(e)
        assert len(rep.rows) == 10
        assert set(made) == {0.0, 0.25, 27.0, 27.25, 27.5, 27.75, 28.0}
        assert set(made.values()) == {1}
        for x, y, _exact, series, _err, _bound in rep.rows:
            assert _bits(series) == _bits(full.sum(x, y)), (x, y)
