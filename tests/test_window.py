"""Localised evaluation: every pair of every scheme goes through one pair
sum.  A combo pair skips only blocks whose terms are exactly 0.0, read off
each point's block bounds ln M_n(x), so every sum keeps the bits of the
full-horizon sum; no combo pair evaluates the full horizon, and raw and
bounded pairs sum it."""

import math
import struct
from collections import Counter

import numpy as np
import pytest

from gkexpand import expansion, reconstruct
from gkexpand.blocks import block_spec
from gkexpand.errors import DomainError, RangeError
from gkexpand.expansion import Expansion, build_bounded, build_combo, build_raw
from gkexpand.reconstruct import (
    _LOG_NEGLIGIBLE,
    _LOG_WIDE,
    PAIR_PATHS,
    _accumulate,
    _columns,
    _pair_sum,
    _Point,
    _reaching,
    grid_report,
    series_kernel,
)

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


def _point_blocks(e, x, floor=_LOG_NEGLIGIBLE):
    """The blocks whose bound ln c_n + ln M_n(x) reaches floor at x alone."""
    p = _Point(e, x)
    return _reaching(e, p, p, floor)


def _window(e, x, floor=_LOG_NEGLIGIBLE):
    """The terms of x's blocks at floor, which are consecutive; for raw and
    bounded expansions the full horizon."""
    if e.scheme != "combo":
        return slice(0, len(e))
    kept = _point_blocks(e, x, floor)
    if not kept:
        return slice(0, 0)
    assert kept == list(range(kept[0], kept[-1] + 1)), (x, floor)
    return slice(e._spans[kept[0] - 1][0], e._spans[kept[-1] - 1][1])


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
            w = _window(e, x)
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
        # each block a pair sum reads of a point (block 0: a raw or bounded
        # point's full horizon) has the bits of its slice of the full values
        if e.scheme == "combo":
            parts = [(n, slice(y, end)) for n, (y, end, _) in enumerate(e._spans, 1)]
        else:
            parts = [(0, slice(0, len(e)))]
        for x in points:
            fs, fl = e.basis_log_values(x)
            p = _Point(e, x)
            for n, w in parts:
                s, l = p.block(n)
                assert s.tobytes() == fs[w].tobytes() and l.tobytes() == fl[w].tobytes()


class TestWindowShape:
    @pytest.mark.parametrize("x,y,empty", [(0.0, 40.0, True), (0.0, 30.0, False)])
    def test_all_tiny_pair_sums_the_wide_window(self, x, y, empty):
        # no term reaches 1e-300, so the narrow blocks cannot anchor the
        # log-domain sum.  At (0, 40) no block reaches e^-765 at both points
        # and the pair is +0.0 with no block evaluated; at (0, 30) they share
        # block 1 and the wide blocks are summed
        e = build_combo(4)
        px, py = _Point(e, x), _Point(e, y)
        value, path = _pair_sum(e, px, py)
        assert path == ("disjoint" if empty else "wide")
        assert (not px._blocks and not py._blocks) == empty
        narrow = _reaching(e, px, py, _LOG_NEGLIGIBLE)
        assert (not narrow) == empty
        if not empty:
            assert _accumulate(*_columns(e, px, py, narrow), linear_only=True) is None
        assert _bits(value) == _bits(_Full(e).sum(x, y))
        assert _bits(series_kernel(e, x, y)) == _bits(_Full(e).sum(x, y))

    def test_zero_point_keeps_block_1(self):
        # psi_k(0) = 0 for k >= 1, so only the block holding psi_0 counts
        e = build_combo(7)
        for x in (0.0, -0.0):
            for floor in (_LOG_NEGLIGIBLE, _LOG_WIDE):
                assert _point_blocks(e, x, floor) == [1]
            assert _window(e, x) == slice(0, block_spec(1).next_start)

    @pytest.mark.parametrize("e", [build_raw(200), build_bounded(3.0, 300)])
    def test_raw_and_bounded_are_not_windowed(self, e):
        # no block bounds: a pair sums the full horizon, kept as block 0,
        # and lists no ln M_n
        for x in (0.0, 1.5, 3.0):
            p = _Point(e, x)
            assert _pair_sum(e, p, p)[1] == "narrow" and p._sups == []
            assert list(p._blocks) == [0] and len(p.block(0)[0]) == len(e)

    def test_combo7_small_points_touch_block_1(self, monkeypatch):
        # block 2 reaches the floor, but the head sum of block 1 certifies
        # the pair's bits first
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
            assert _point_blocks(e, x) in ([1], [1, 2])
        assert sorted(set(seen)) == [1]
        assert len(seen) <= 2 * 15

    def test_combo_window_is_whole_blocks(self):
        # the blocks reaching a floor at a point are consecutive: the bound
        # rises to the mode's block and falls after it
        e = build_combo(6)
        for x in COMBO_POINTS:
            for floor in (_LOG_NEGLIGIBLE, _LOG_WIDE):
                kept = _point_blocks(e, x, floor)
                assert not kept or kept == list(range(kept[0], kept[-1] + 1)), (x, floor)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_early_stop_keeps_the_all_blocks_window(self, n, combo8):
        # a point's list stops at the first block past the mode whose bound
        # is below the floor; bounding every block keeps the same blocks
        e = combo8 if n == 8 else build_combo(n)

        def all_blocks(x, floor):
            mode = 2.0 * x * x
            return [b for b, (y, end, log_c) in enumerate(e._spans, 1)
                    if log_c + expansion._log_abs_psi(int(min(max(mode, y), end - 1)), x) >= floor]

        # the mode at each block start, a ulp either side, extreme points and
        # random ones out past the last block's peaks
        edges = [math.sqrt(y / 2.0) for y, _end, _c in e._spans] + [math.sqrt(len(e) / 2.0)]
        points = [0.0, -0.0, 5e-324, 1e154, 1e200, -1e200]
        for m in edges:
            points += [m, math.nextafter(m, 0.0), math.nextafter(m, math.inf)]
        points += np.random.default_rng(n).uniform(-1.2 * edges[-1], 1.2 * edges[-1], 9000).tolist()
        for floor in (_LOG_NEGLIGIBLE, _LOG_WIDE):
            for x in points:
                kept = _point_blocks(e, x, floor)
                assert kept == all_blocks(x, floor), (x, floor)
                assert not kept or kept == list(range(kept[0], kept[-1] + 1)), (x, floor)

    def test_list_grows_past_the_mode_while_a_block_reaches_the_floor(self):
        # at x = 10 the mode 200 sits in block 2, and block 3, past it, is
        # still about -174: the list grows to block 4, far below either
        # floor, and stops there for both
        e = build_combo(5)
        p = _Point(e, 10.0)
        sups = p.log_sups(_LOG_NEGLIGIBLE)
        assert len(sups) == 4
        assert -174.0 < e._spans[2][2] + sups[2] < -173.0
        assert e._spans[3][2] + sups[3] < _LOG_WIDE
        assert p.log_sups(_LOG_WIDE) is sups and len(sups) == 4
        for floor in (_LOG_NEGLIGIBLE, _LOG_WIDE):
            assert _reaching(e, p, p, floor) == [1, 2, 3]
        # at x = 16 block 4 is about -1265: the list stops there at the
        # narrow floor, and a wide one extends the same list to block 5
        p = _Point(e, 16.0)
        sups = p.log_sups(_LOG_NEGLIGIBLE)
        assert len(sups) == 4 and _LOG_WIDE < e._spans[3][2] + sups[3] < _LOG_NEGLIGIBLE
        assert p.log_sups(_LOG_WIDE) is sups and len(sups) == 5
        assert p.log_sups(_LOG_NEGLIGIBLE) is sups and len(sups) == 5
        assert _reaching(e, p, p, _LOG_NEGLIGIBLE) == [1, 2, 3]
        assert _reaching(e, p, p, _LOG_WIDE) == [1, 2, 3, 4]

    def test_non_finite_point_rejected(self):
        for e in (build_raw(20), build_combo(2)):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    series_kernel(e, bad, 0.5)
                with pytest.raises(DomainError):
                    e.basis_log_values(bad)
                with pytest.raises(DomainError):
                    grid_report(e, (bad, 1.0), (0.0, 1.0), 0.5)


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
def made_blocks(monkeypatch):
    """(x, n) of every combo block value made, and the point of every
    Expansion.basis_log_values call."""
    made, full = [], []
    real_block, real_values = Expansion._block_values, Expansion.basis_log_values

    def block_spy(self, n, x):
        made.append((x, n))
        return real_block(self, n, x)

    def values_spy(self, x):
        full.append(x)
        return real_values(self, x)

    monkeypatch.setattr(Expansion, "_block_values", block_spy)
    monkeypatch.setattr(Expansion, "basis_log_values", values_spy)
    return made, full


class TestWideWindow:
    @pytest.mark.parametrize(
        "y,expected", [(26.5, 1.0392022621430825e-305), (27.0, 2.507972e-317)]
    )
    def test_subnormal_pair_bit_equal_without_full_horizon(self, made_blocks, y, expected):
        # the log-domain regime with a nonzero result: the wide blocks hold
        # the top term, and stop at block 4, 11,475 of 46,035 terms
        e = build_combo(5)
        value = series_kernel(e, 0.0, y)
        assert _bits(value) == _bits(expected)
        assert len(e) == 46035 and block_spec(4).next_start == 11475
        assert _point_blocks(e, 0.0, _LOG_WIDE) == [1]
        assert _point_blocks(e, y, _LOG_WIDE) == [1, 2, 3, 4]
        made, full = made_blocks
        assert made and {n for _x, n in made} <= {1, 2, 3, 4}
        assert not full
        assert _bits(_Full(e).sum(0.0, y)) == _bits(expected)

    @pytest.mark.parametrize("n,x,y", [(5, -42.52, -4.64), (5, -39.39, 4.46), (6, -43.21, -4.79)])
    def test_wide_windows_hold_the_log_domain_anchor(self, n, x, y):
        # the top term lies in [e^-765, 1e-300): a term outside the narrow
        # blocks can still rescale to a nonzero double, but every term
        # outside the wide blocks rescales to exactly 0.0
        e = build_combo(n)
        signs, log_terms = _Full(e).log_terms(x, y)
        alive = signs != 0.0
        top = float(np.max(log_terms[alive]))
        assert _LOG_NEGLIGIBLE <= top < math.log(1e-300)
        px, py = _Point(e, x), _Point(e, y)
        rescaled = []
        for floor in (_LOG_NEGLIGIBLE, _LOG_WIDE):
            outside = alive.copy()
            for b in _reaching(e, px, py, floor):
                outside[e._spans[b - 1][0] : e._spans[b - 1][1]] = False
            with np.errstate(under="ignore"):
                rescaled.append(np.exp(log_terms[outside] - top))
        assert np.any(rescaled[0]) and not np.any(rescaled[1])
        assert _bits(series_kernel(e, x, y)) == _bits(_Full(e).sum(x, y))

    def test_block8_disjoint_pair_is_positive_zero(self, combo8, made_blocks):
        # no block reaches e^-765 at both 0 and 40: +0.0, with no block made
        px, py = _Point(combo8, 0.0), _Point(combo8, 40.0)
        value, path = _pair_sum(combo8, px, py)
        assert _bits(value) == _bits(0.0) and path == "disjoint"
        assert made_blocks == ([], [])

    def test_grid_makes_each_wide_window_once(self, made_blocks):
        # 8 of the 10 pairs are all-tiny with shared blocks, so every point
        # needs its wide blocks; the grid makes each block once per point
        e = build_combo(5)
        rep = grid_report(e, (0.0, 0.25), (27.0, 28.0), 0.25)
        made, _full = made_blocks
        full = _Full(e)
        assert len(rep.rows) == 10
        assert dict(rep.pair_paths) == {"head": 0, "narrow": 2, "wide": 8, "disjoint": 0}
        assert {x for x, _n in made} == {0.0, 0.25, 27.0, 27.25, 27.5, 27.75, 28.0}
        assert set(Counter(made).values()) == {1}
        for x, y, _exact, series, _err, _bound in rep.rows:
            assert _bits(series) == _bits(full.sum(x, y)), (x, y)


class TestAccumulateRest:
    def test_rest_zero_keeps_the_bits(self):
        rng = np.random.default_rng(11)
        for centre in (0.0, -800.0):  # the linear and the all-tiny regime
            lw, lx, ly = (rng.normal(centre / 3, 3.0, 64) for _ in range(3))
            sx, sy = (rng.choice([-1.0, 1.0], 64) for _ in range(2))
            sx[:4], lx[:4] = 0.0, -np.inf  # dead terms
            for linear_only in (False, True):
                args = (lw, sx, lx, sy, ly, linear_only)
                got, want = _accumulate(*args, rest=0.0), _accumulate(*args)
                assert (got is None and want is None) or _bits(got) == _bits(want)
            assert _bits(_accumulate(lw, sx, lx, sy, ly, rest=0.0)) == _bits(
                _masked_accumulate(lw, sx, lx, sy, ly))

    def test_near_tie_returns_none(self):
        # 1 + 2^-53 is the midpoint between 1 and its successor: the bracket
        # +-2^-70 around the terms' sum straddles it
        ones = np.ones(2)
        args = (np.zeros(2), ones, np.array([0.0, math.log(2.0**-53)]), ones, np.zeros(2))
        rest = 2.0**-70
        assert math.fsum([1.0, 2.0**-53, -rest]) != math.fsum([1.0, 2.0**-53, rest])
        assert _accumulate(*args, rest=rest) is None
        assert _accumulate(*args) in (1.0, 1.0 + 2.0**-52)
        # far from the midpoint the same bracket certifies
        args[2][1] = math.log(2.0**-60)
        assert _accumulate(*args, rest=rest) == 1.0

    def test_zero_sum_returns_none(self):
        args = (np.zeros(2), np.array([1.0, -1.0]), np.zeros(2), np.ones(2), np.zeros(2))
        assert _bits(_accumulate(*args)) == _bits(0.0)
        assert _accumulate(*args, rest=2.0**-60) is None

    def test_wide_rest_skips_the_second_fsum(self, monkeypatch):
        # the reals that round to one double span at most its ulp, so once
        # 2 rest exceeds the first fsum's ulp the +-rest fsums cannot agree
        calls = []
        real = math.fsum
        monkeypatch.setattr(reconstruct.math, "fsum", lambda v: calls.append(len(v)) or real(v))
        ones = np.ones(2)
        args = (np.zeros(2), ones, np.zeros(2), ones, np.zeros(2))  # 1 + 1, ulp(2) = 2^-51
        assert _accumulate(*args, rest=2.0**-51) is None
        assert calls == [3]
        # 2 rest = ulp(2) is run: 2 - 2^-52 is a double below the binade edge
        for rest, want in ((2.0**-52, None), (2.0**-54, 2.0)):
            calls.clear()
            assert _accumulate(*args, rest=rest) == want
            assert calls == [3, 3]
        monkeypatch.undo()
        # the early return keeps every answer of the two-fsum bracket
        rng = np.random.default_rng(12)
        answers = Counter()
        for _ in range(400):
            lw, lx, ly = (rng.normal(0.0, 2.0, 5) for _ in range(3))
            sx, sy = (rng.choice([-1.0, 1.0], 5) for _ in range(2))
            with np.errstate(under="ignore"):
                terms = (sx * sy * np.exp(lw + lx + ly)).tolist()
            rest = math.ldexp(1.0, int(rng.integers(-70, -40)))
            high = math.fsum(terms + [rest])
            want = high if high != 0.0 and math.fsum(terms + [-rest]) == high else None
            assert _accumulate(lw, sx, lx, sy, ly, rest=rest) == want
            answers[want is None] += 1
        assert answers[True] > 50 and answers[False] > 50

    def test_tiny_regime_returns_none(self):
        args = (np.zeros(3), np.ones(3), np.full(3, -400.0), np.ones(3), np.array([-300.0, -310.0, -320.0]))
        assert _accumulate(*args) > 0.0
        assert _accumulate(*args, rest=5e-324) is None


HEAD_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e200, -1e200)


def _head_pairs(n: int, count: int) -> list[tuple[float, float]]:
    """Edge pairs, then seeded pairs out to |x| = 40: each x with a
    cancelling partner near -x, a near partner and a random one."""
    rng = np.random.default_rng(100 + n)
    pairs = [(x, y) for x in HEAD_EDGES for y in HEAD_EDGES + (1.5, -2.0)]
    for x in rng.uniform(-40.0, 40.0, count).tolist():
        pairs += [(x, -x + rng.uniform(-1.0, 1.0)), (x, x + rng.uniform(-2.0, 2.0)),
                  (x, rng.uniform(-40.0, 40.0))]
    return pairs


@pytest.mark.parametrize("n", range(1, 9))
def test_head_sum_bit_equal_to_fallback_and_full_horizon(n, combo8, monkeypatch):
    e = combo8 if n == 8 else build_combo(n)
    pairs = _head_pairs(n, 40)
    taken = [_pair_sum(e, _Point(e, x), _Point(e, y)) for x, y in pairs]
    paths = Counter(path for _value, path in taken)
    monkeypatch.setattr(reconstruct, "_head_sum", lambda *args: None)
    for (x, y), (value, _path) in zip(pairs, taken):
        fallback, path = _pair_sum(e, _Point(e, x), _Point(e, y))
        assert path != "head"
        assert _bits(value) == _bits(fallback), (x, y)
    # block 1 alone is its own head, and sums the same terms as the narrow pass
    assert (paths["head"] > 0) == (n > 1)
    assert paths["narrow"] > 0
    # a full-horizon sum at block 8 takes about 0.15 s: every 15th pair there
    full, step = _Full(e), {7: 5, 8: 15}.get(n, 1)
    for (x, y), (value, _path) in list(zip(pairs, taken))[::step]:
        assert _bits(value) == _bits(full.sum(x, y)), (x, y)


def test_head_sum_fires_on_block_1_alone(made_blocks, monkeypatch):
    # the speed-up of small pairs: block 1 certifies the bits alone in one
    # sum, and block 2 is evaluated at neither point.  A pair near x = 0,
    # where block 2 is below the floor, has block 1 as its only narrow
    # block, and the narrow pass sums the same terms
    e = build_combo(7)
    made, _full = made_blocks
    sums = []
    real = reconstruct._accumulate
    monkeypatch.setattr(reconstruct, "_accumulate", lambda *a, **k: sums.append(1) or real(*a, **k))
    rng = np.random.default_rng(2000)
    paths = Counter()
    for x, y in rng.uniform(-3.0, 3.0, (2000, 2)).tolist():
        made.clear()
        sums.clear()
        px, py = _Point(e, x), _Point(e, y)
        _value, path = _pair_sum(e, px, py)
        assert [n for _x, n in made] == [1, 1] and len(sums) == 1, (x, y)
        if path != "head":
            assert path == "narrow" and _reaching(e, px, py, _LOG_NEGLIGIBLE) == [1], (x, y)
        paths[path] += 1
    assert paths["head"] >= 0.98 * 2000


def test_head_reads_past_the_mode_block(combo8, made_blocks):
    # at x = 6 the mode 72 lies in block 1, and block 3 still reaches the
    # floor at both points: the head of blocks 1 and 2 certifies the bits,
    # and block 3's 2,160 terms are evaluated at neither point
    made, _full = made_blocks
    full = _Full(combo8)
    for x, y in ((6.0, 6.0), (6.0, 6.5)):
        made.clear()
        px, py = _Point(combo8, x), _Point(combo8, y)
        value, path = _pair_sum(combo8, px, py)
        assert path == "head" and {n for _x, n in made} == {1, 2}, (x, y)
        assert _reaching(combo8, px, py, _LOG_NEGLIGIBLE) == [1, 2, 3]
        assert _bits(value) == _bits(full.sum(x, y)), (x, y)


@pytest.mark.parametrize("n,pairs,narrow", [
    (6, ((150.0, -150.0), (148.0, -148.3)), [5, 6]),
    (5, ((75.0, -75.0),), [4, 5]),
])
def test_cancelling_pairs_recombine_the_block_past_the_mode(n, pairs, narrow):
    # each point's mode 2 x^2 lies in block n - 1, just below block n's
    # first index, and the pair's narrow list also holds block n, whose
    # first column leads the rest there: it is recombined like every block
    # past block 1, and the sum keeps the full-horizon bits
    e = build_combo(n)
    full = _Full(e)
    for x, y in pairs:
        px, py = _Point(e, x), _Point(e, y)
        assert _reaching(e, px, py, _LOG_NEGLIGIBLE) == narrow, (x, y)
        for v in (x, y):
            assert block_spec(n - 1).y <= 2 * v * v < block_spec(n).y
        assert _bits(series_kernel(e, x, y)) == _bits(full.sum(x, y)), (x, y)


def test_combo_grid_columns_capped_before_any_block(combo8, made_blocks):
    # each of the 101 columns of 900:1100 may hold block 8, 35 MB: 3.4 GB
    # in all.  The grid fails before any block value is made, and the
    # 11 columns of 990:1010 (389 MB) stay under the cap
    made, _full = made_blocks
    with pytest.raises(RangeError, match="101 grid columns of up to 3574333440 bytes"):
        grid_report(combo8, (900.0, 1100.0), (900.0, 1100.0), 2.0)
    assert made == []
    by = [_Point(combo8, y) for y in (990.0 + 2.0 * i for i in range(11))]
    assert sum(reconstruct._column_bytes(combo8, p) for p in by) <= reconstruct.MAX_COLUMN_BYTES


def test_combo_column_bytes_bound_the_blocks_made(made_blocks):
    # every block a grid makes at a column's point, on the head, narrow and
    # wide paths (162/247/20/12 pairs), is among those _column_bytes counts
    e = build_combo(3)
    made, _full = made_blocks
    rep = grid_report(e, (-40.0, 40.0), (-40.0, 40.0), 4.0)
    assert dict(rep.pair_paths)["wide"] > 0
    spans = e._spans
    for y in {row[1] for row in rep.rows}:
        held = {n for v, n in made if v == y}
        assert sum(16 * (spans[n - 1][1] - spans[n - 1][0]) for n in held) <= \
            reconstruct._column_bytes(e, _Point(e, y)), y


class TestPairPaths:
    def test_report_counts_every_path(self):
        e = build_combo(5)
        rep = grid_report(e, (0.0, 40.0), (0.0, 40.0), 10.0)
        counts = Counter(_pair_sum(e, _Point(e, x), _Point(e, y))[1] for x, y, *_ in rep.rows)
        assert rep.pair_paths == tuple((p, counts[p]) for p in PAIR_PATHS)
        assert all(counts[p] > 0 for p in PAIR_PATHS)
        assert rep.summary_dict()["pair_paths"] == dict(rep.pair_paths)

    def test_block8_grid_takes_every_path(self, combo8):
        # the one quick grid known to take all four paths.  Every series
        # value is the pair's own from fresh points, and two of each path
        # match the full-horizon sum (0.2-0.3 s each at block 8)
        e = combo8
        rep = grid_report(e, (-60.0, 60.0), (-60.0, 60.0), 10.0)
        assert dict(rep.pair_paths) == {"head": 22, "narrow": 115, "wide": 4, "disjoint": 28}
        checked = Counter()
        for x, y, _exact, series, _err, _bound in rep.rows:
            value, path = _pair_sum(e, _Point(e, x), _Point(e, y))
            assert _bits(series) == _bits(value), (x, y)
            if checked[path] < 2:
                checked[path] += 1
                assert _bits(series) == _bits(_Full(e).sum(x, y)), (x, y)
        assert set(checked) == set(PAIR_PATHS)

    @pytest.mark.parametrize("n,step,counts", [(5, 8.0, (28, 85, 0, 8)), (3, 4.0, (162, 247, 20, 12))])
    def test_grid_paths_are_each_pairs_own(self, n, step, counts, monkeypatch):
        # a pair's path reads only its own blocks, so a grid point that met
        # other partners first takes the path, and gives the bits, of the
        # same pair from fresh points
        e = build_combo(n)
        seen = []
        real = reconstruct._pair_sum
        monkeypatch.setattr(reconstruct, "_pair_sum",
                            lambda e_, px, py: seen.append(real(e_, px, py)) or seen[-1])
        rep = grid_report(e, (-40.0, 40.0), (-40.0, 40.0), step)
        assert rep.pair_paths == tuple(zip(PAIR_PATHS, counts))
        assert len(seen) == len(rep.rows)
        for (x, y, *_), (value, path) in zip(rep.rows, seen):
            fresh, fresh_path = _pair_sum(e, _Point(e, x), _Point(e, y))
            assert path == fresh_path and _bits(value) == _bits(fresh), (x, y)

    @pytest.mark.parametrize("e", [build_raw(200), build_bounded(3.0, 300)])
    def test_raw_and_bounded_sum_the_narrow_window(self, e):
        rep = grid_report(e, (0.0, 3.0), (0.0, 3.0), 0.5)
        assert dict(rep.pair_paths) == {"head": 0, "narrow": 49, "wide": 0, "disjoint": 0}
