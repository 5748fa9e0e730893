"""Block geometry, sign recombination, combo evaluation and sup-norms."""

import math
import re
import time

import numpy as np
import pytest

from gkexpand import analysis, basis, blocks
from gkexpand.basis import log_psi, peak
from gkexpand.blocks import (
    SEPARATION_LIMIT,
    WINDOW_HALFWIDTH,
    block_spec,
    min_row_separation,
    row_indices,
    row_log_weights,
    row_sup_norms,
    row_values,
    sign_matrix,
    sign_rows,
)
from gkexpand.cli import COMBO_NORM_WINDOW
from gkexpand.errors import DomainError, RangeError
from gkexpand.expansion import Expansion, build_combo
from gkexpand.optimize import INV_PHI, INV_PHI_SQ, XTOL, golden_max

# The worked 8x8 recombination table (block 4).
TABLE_N4 = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, -1, 1, -1, 1, -1, 1, -1],
        [1, 1, -1, -1, 1, 1, -1, -1],
        [1, -1, -1, 1, 1, -1, -1, 1],
        [1, 1, 1, 1, -1, -1, -1, -1],
        [1, -1, 1, -1, -1, 1, -1, 1],
        [1, 1, -1, -1, -1, -1, 1, 1],
        [1, -1, -1, 1, -1, 1, 1, -1],
    ]
)


class TestBlockSpec:
    def test_first_block(self):
        s = block_spec(1)
        assert (s.y, s.r, s.c) == (0, 135, 1)

    def test_block_four(self):
        s = block_spec(4)
        assert (s.y, s.r, s.c) == (2835, 1080, 8)

    def test_block_two_cross_check(self):
        s1, s2 = block_spec(1), block_spec(2)
        assert (s2.y, s2.r, s2.c) == (135, 270, 2)
        assert s2.y == s1.y + s1.c * s1.r

    def test_tiling_adjacency(self):
        for n in range(1, 9):
            assert block_spec(n).next_start == block_spec(n + 1).y

    def test_tiling_is_exact_partition(self):
        # union of all row indices over blocks 1..8 covers [0, y_9) exactly
        total = block_spec(9).y
        seen = np.zeros(total, dtype=np.int8)
        for n in range(1, 9):
            s = block_spec(n)
            h = np.arange(s.r)[:, None]
            k = np.arange(s.c)[None, :]
            idx = (s.y + h + k * s.r).ravel()
            seen[idx] += 1
        assert np.all(seen == 1)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            block_spec(0)
        with pytest.raises(RangeError):
            block_spec(29)  # y_30 overflows 64-bit indices


class TestRowIndices:
    def test_block4_row0(self):
        assert row_indices(block_spec(4), 0) == [
            2835, 3915, 4995, 6075, 7155, 8235, 9315, 10395,
        ]

    def test_single_column(self):
        assert row_indices(block_spec(1), 7) == [7]

    def test_block2_row0(self):
        assert row_indices(block_spec(2), 0) == [135, 405]

    def test_row_out_of_range(self):
        with pytest.raises(RangeError):
            row_indices(block_spec(1), 135)

    @pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(2), 2.5, np.float64(2.0), "2"])
    def test_rows_and_slots_must_be_integers(self, value):
        # row 2.5 read as indices y + 2.5 + k r, slot 1.5 as slot 1, and
        # block 2.5 as a block of 2.83 columns
        spec = block_spec(4)
        if isinstance(value, (int, np.integer)):
            assert row_indices(spec, value) == row_indices(spec, 2)
            assert np.array_equal(sign_rows(4, [value]), sign_rows(4, [2]))
            assert row_sup_norms(4, value, [value]) == row_sup_norms(4, 2, [2])
            assert block_spec(value) == block_spec(2)
            assert np.array_equal(sign_rows(value), sign_rows(2))
            return
        calls = (
            lambda: row_indices(spec, value),
            lambda: sign_rows(4, [0, value]),
            lambda: row_sup_norms(4, value, [0]),
            lambda: row_sup_norms(4, 0, [value]),
            lambda: block_spec(value),
            lambda: sign_rows(value),
        )
        for call in calls:
            with pytest.raises(RangeError, match=re.escape(f"{value!r} is not an integer")):
                call()


class TestRowLogWeights:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_one_weight_per_row_from_the_leading_peak(self, n):
        # lambda = m_{y+h}^2 / c: the squared leading-peak sup-norm
        spec = block_spec(n)
        got = row_log_weights(n)
        assert got.shape == (spec.r,)
        for h in (0, spec.r // 2, spec.r - 1):
            expected = 2.0 * math.log(peak(spec.y + h).m) - math.log(spec.c)
            assert got[h] == pytest.approx(expected, rel=1e-12, abs=1e-12), h


def pairing_recursion(n):
    """The construction's own recursion: sums of adjacent pairs fill the
    first half of the slots and differences the second, n-1 times."""
    c = 2 ** (n - 1)
    s = np.eye(c, dtype=np.int64)
    for _ in range(n - 1):
        nxt = np.empty_like(s)
        nxt[: c // 2] = s[0::2] + s[1::2]
        nxt[c // 2 :] = s[0::2] - s[1::2]
        s = nxt
    return s


def separation_array_min(n):
    """Minimum of the full r x c separation array, taken in row chunks."""
    spec = block_spec(n)
    k = np.arange(spec.c, dtype=np.float64)[None, :]
    best = math.inf
    for h0 in range(0, spec.r, 4096):
        h = np.arange(h0, min(h0 + 4096, spec.r), dtype=np.float64)[:, None]
        p = spec.y + h + k * spec.r
        sep = (np.sqrt(p[:, 1:]) - np.sqrt(p[:, :-1])) / math.sqrt(2.0)
        best = min(best, float(sep.min()))
    return best


def _no_alloc(*args, **kwargs):
    raise AssertionError("allocated before the memory cap check")


class TestOneBlockRule:
    """block_spec decides what a block number is; each cap is an upper
    bound checked before it, so every entry point reads the same."""

    ENTRY_POINTS = {
        "block_spec": block_spec,
        "check_max_block": blocks.check_max_block,
        "sign_rows": sign_rows,
        "row_log_weights": row_log_weights,
        "build_combo": build_combo,
        "Expansion": lambda n: Expansion("combo", np.zeros(3), max_block=n),
        "block_mass": lambda n: analysis.block_mass(n, 1.0),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("n, message", [
        (2.5, "block number 2.5 is not an integer"),
        (0, "block number must be >= 1, got 0"),
        (-3, "block number must be >= 1, got -3"),
    ])
    def test_same_message_everywhere(self, entry, n, message):
        # build_combo(2.5) and Expansion(..., max_block=2.5) ended in a
        # TypeError from range()
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            self.ENTRY_POINTS[entry](n)

    def test_divergence_profile_non_integer(self):
        # was a TypeError from range()
        with pytest.raises(RangeError, match=r"^block number 4\.5 is not an integer$"):
            analysis.divergence_profile(4.5)

    def test_caps_come_first(self):
        with pytest.raises(RangeError, match="^max_block 30 exceeds cap 8$"):
            blocks.check_max_block(30)
        with pytest.raises(RangeError, match="^sign pattern for block 30 exceeds"):
            sign_rows(30)
        with pytest.raises(RangeError, match="^block 30 exceeds the 64-bit index range"):
            block_spec(30)

    def test_check_max_block_returns_the_spec(self):
        assert blocks.check_max_block(np.int64(8)) == block_spec(8)


class TestSignRows:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_pairing_recursion(self, n):
        s = sign_rows(n)
        assert s.dtype == np.int64
        assert np.array_equal(s, pairing_recursion(n))
        assert np.array_equal(s, s.T)

    @pytest.mark.parametrize("n", [1, 4, 9, 12])
    def test_selected_rows(self, n):
        c = 2 ** (n - 1)
        slots = [c - 1, 0, c // 2, c - 1]
        assert np.array_equal(sign_rows(n, slots), pairing_recursion(n)[slots])
        assert sign_rows(n, []).shape == (0, c)

    @pytest.mark.parametrize("slot", [-1, 8])
    def test_slot_out_of_range(self, slot):
        with pytest.raises(RangeError):
            sign_rows(4, [0, slot])
        with pytest.raises(RangeError):
            row_sup_norms(4, 0, [slot])

    def test_block_out_of_range(self):
        with pytest.raises(RangeError):
            sign_rows(0)

    def test_descriptor_and_norms_capped_before_allocating(self, monkeypatch):
        monkeypatch.setattr(np, "arange", _no_alloc)
        with pytest.raises(RangeError):
            row_sup_norms(13, 0, [0])


class TestSignMatrix:
    def test_n1(self):
        assert sign_matrix(1).entries.tolist() == [[1]]

    def test_n4_matches_worked_table(self):
        assert np.array_equal(sign_matrix(4).entries, TABLE_N4)

    def test_n3_stage_pattern(self):
        # stage-3 signs of the worked example: all-plus, alternating,
        # half-split, double-flip
        expected = [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]
        assert sign_matrix(3).entries.tolist() == expected

    @pytest.mark.parametrize("n", range(1, 11))
    def test_orthogonality_exact(self, n):
        s = sign_matrix(n).entries
        c = s.shape[0]
        assert np.array_equal(s @ s.T, c * np.eye(c, dtype=np.int64))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_first_row_and_column_positive(self, n):
        s = sign_matrix(n).entries
        assert np.all(s[0] == 1)
        assert np.all(s[:, 0] == 1)

    def test_column_cap(self):
        with pytest.raises(RangeError):
            sign_matrix(17)

    @pytest.mark.parametrize("n", [13, 16])
    def test_memory_cap_checked_before_allocating(self, monkeypatch, n):
        # block 16 (c = 2^15) used to pass a column cap and then ask for
        # two 8 GiB int64 arrays
        monkeypatch.setattr(np, "arange", _no_alloc)
        with pytest.raises(RangeError):
            sign_matrix(n)

    def test_csv_golden_n2(self):
        assert sign_matrix(2).to_csv_text() == "1,1\n1,-1\n"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_csv_matches_per_entry_formatting(self, n):
        entries = sign_matrix(n).entries
        expected = "\n".join(",".join(str(int(v)) for v in r) for r in entries) + "\n"
        assert sign_matrix(n).to_csv_text() == expected


def _psi(k, x):
    sign, log = log_psi(k, x)
    return float(sign * math.exp(log))


class TestEvalCombo:
    """Combos as terms of a combo expansion: term y + h c + s of block n is
    slot s of row h, normalised by its sup-norm sqrt(lambda)."""

    def test_single_column_equals_psi(self):
        # block 1 row 7 is psi_7 alone: the normalised term is psi_7 / m_7
        e = build_combo(1)
        for x in (0.5, 1.87, peak(7).x_peak, -2.0):
            signs, logs = e.basis_log_values(x)
            sign, log = log_psi(7, x)
            assert signs[7] == sign
            assert logs[7] == log - 0.5 * e.log_weights[7]

    def test_block2_peak_value(self):
        # leading peak of row 0 in block 2; the 405-peak crosses in at ~8e-39
        e = build_combo(2)
        signs, logs = e.basis_log_values(math.sqrt(135.0 / 2.0))
        got = signs[135] * math.exp(logs[135] + 0.5 * e.log_weights[135])
        assert got == pytest.approx(peak(135).m / math.sqrt(2.0), rel=1e-9)

    def test_block2_pair_identity(self):
        # lambda_0 b_0^2 + lambda_1 b_1^2 over the two slots of row 0
        # reproduces psi_135^2 + psi_405^2 pointwise
        e = build_combo(2)
        for x in (8.2, 9.0, 10.5, 13.0, 14.5):
            _signs, logs = e.basis_log_values(x)
            lhs = sum(math.exp(2.0 * logs[i] + e.log_weights[i]) for i in (135, 136))
            rhs = _psi(135, x) ** 2 + _psi(405, x) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_zero_argument(self):
        signs, logs = build_combo(2).basis_log_values(0.0)
        assert (signs[135], logs[135]) == (0.0, -math.inf)


class TestComboSupNorm:
    def test_single_column_recovers_peak(self):
        (s, x, v), = row_sup_norms(1, 42, [0])
        info = peak(42)
        assert s == 0
        assert x == info.x_peak
        assert v == info.m

    def test_block4_norm_law(self):
        (_, _, v), = row_sup_norms(4, 0, [0])
        law = v * v * math.sqrt(2.0 * math.pi * 2835.0) * 8.0
        assert 0.98 <= law <= 1.02

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_norm_law_sampled(self, n):
        spec = block_spec(n)
        for h in (0, spec.r // 2):
            for s, _x, v in row_sup_norms(n, h, slots=range(min(4, spec.c))):
                law = v * v * spec.c * math.sqrt(2.0 * math.pi * (spec.y + h))
                assert 0.95 <= law <= 1.05

    @pytest.mark.parametrize("n,h", [(2, 0), (4, 539), (6, 0), (8, 17279)])
    def test_search_matches_leading_peak_form(self, n, h):
        # bridge for the closed-form sup-norms used at expansion build time:
        # grid + golden search agrees with m_{y+h}/sqrt(c) to ~1e-9
        spec = block_spec(n)
        closed = peak(spec.y + h).m / math.sqrt(spec.c)
        for _s, _x, v in row_sup_norms(n, h, slots=(0, spec.c - 1)):
            assert v == pytest.approx(closed, rel=1e-9)


def _psi_grid(idx, xs):
    """Signed linear psi values, one row per index: the body of the
    earlier `row_values`, on basis.log_psi alone."""
    signs, logs = basis.log_psi(idx[:, None], np.asarray(xs, dtype=np.float64))
    with np.errstate(under="ignore"):
        vals = np.exp(logs, out=logs)
    vals *= signs
    return vals


def _combo_abs(signs_arr, idx, scale, x):
    """|combo(x)|: the body of the earlier `_combo_abs_at`."""
    psign, logs = basis.log_psi(idx, x)
    with np.errstate(under="ignore"):
        vals = np.exp(logs)
    return abs(float(np.sum(signs_arr * psign * vals))) * scale


def _scalar_golden_max(f, a, b, xtol=1e-10):
    """The earlier scalar golden-section search: one f(x) at a time."""
    a, b = (a, b) if a <= b else (b, a)
    h = b - a
    if h <= xtol:
        x = 0.5 * (a + b)
        return x, f(x)

    n = max(1, int(math.ceil(math.log(xtol / h) / math.log(INV_PHI))))
    c = a + INV_PHI_SQ * h
    d = a + INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n - 1):
        h *= INV_PHI
        if yc > yd:
            b = d
            d = c
            yd = yc
            c = a + INV_PHI_SQ * h
            yc = f(c)
        else:
            a = c
            c = d
            yc = yd
            d = a + INV_PHI * h
            yd = f(d)
    if yc > yd:
        return c, yc
    return d, yd


def full_row_scan_sup_norms(n, h, slots, neighbours=None):
    """The earlier `row_sup_norms`: a grid scan of every whole window,
    summing all c columns (or those within ``neighbours`` of the window's
    own), then golden-section refinement of the best grid point.

    Returns the grid maximum of each window and slot, the first grid point
    reaching it (both shape (c, len(slots))) and [(slot, x_star, value)].
    """
    spec = block_spec(n)
    srows = sign_rows(n, slots).astype(np.float64)
    idx = np.asarray(row_indices(spec, h), dtype=np.float64)
    scale = spec.c**-0.5
    tops = np.empty((spec.c, len(slots)))
    at = np.empty((spec.c, len(slots)))
    best_x = {s: 0.0 for s in slots}
    best_v = {s: -1.0 for s in slots}
    steps = int(round(WINDOW_HALFWIDTH / basis.GRID_STEP))
    offsets = np.arange(-steps, steps + 1, dtype=np.float64) * basis.GRID_STEP
    for k, pk in enumerate(idx):
        xs = math.sqrt(pk / 2.0) + offsets
        lo, hi = 0, spec.c
        if neighbours is not None:
            lo, hi = max(k - neighbours, 0), k + neighbours + 1
        combos = np.abs(srows[:, lo:hi] @ _psi_grid(idx[lo:hi], xs)) * scale
        arg = np.argmax(combos, axis=1)
        for si, s in enumerate(slots):
            v = float(combos[si, arg[si]])
            tops[k, si], at[k, si] = v, xs[arg[si]]
            if v > best_v[s]:
                best_v[s] = v
                best_x[s] = float(xs[arg[si]])
    out = []
    for si, s in enumerate(slots):
        x_star, v_star = _scalar_golden_max(
            lambda x, sa=srows[si]: _combo_abs(sa, idx, scale, x),
            best_x[s] - basis.GRID_STEP,
            best_x[s] + basis.GRID_STEP,
            xtol=1e-10,
        )
        if v_star < best_v[s]:
            x_star, v_star = best_x[s], best_v[s]
        out.append((s, x_star, v_star))
    return tops, at, out


def local_scan_sup_norms(n, h, slots):
    """The earlier three-column scan: whole windows, columns k-1..k+1 only.
    The reference for blocks too deep for the full-row scan."""
    return full_row_scan_sup_norms(n, h, slots, neighbours=1)


def assert_scan_matches(n, h, slots, reference=full_row_scan_sup_norms):
    """row_sup_norms, and each slot's grid maximum over the row's windows
    and the first grid point reaching it (the reference's first window
    with the largest value), equal the reference's bit for bit."""
    tops, at, out = reference(n, h, slots)
    spec = block_spec(n)
    idx = np.asarray(row_indices(spec, h), dtype=np.float64)
    srows = sign_rows(n, slots).astype(np.float64)
    best = np.argmax(tops, axis=0)
    cols = np.arange(len(srows))
    got_tops, got_at = blocks._window_maxima(srows, idx, basis.log_index_half(idx))
    assert np.array_equal(got_tops, tops[best, cols])
    assert np.array_equal(got_at, at[best, cols])
    assert row_sup_norms(n, h, slots) == out


def _edge_slots(c):
    return sorted({0, 1, c - 2, c - 1})


def _spy(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that records each call's args."""
    calls = []
    fn = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _golden_spy(monkeypatch, rig=None):
    """Replace blocks.golden_max with a wrapper that records each search's
    bracket and the probes its f is called with; ``rig(x, y)``, if given,
    replaces f's values."""
    calls = []

    def spy(f, a, b):
        probes = []
        calls.append(((a, b), probes))

        def g(x):
            probes.append(x)
            y = f(x)
            return y if rig is None else rig(x, y)

        return golden_max(g, a, b)

    monkeypatch.setattr(blocks, "golden_max", spy)
    return calls


def _row_grid_maxima(n, h, slots):
    """(idx, half, grid points of the slots' maxima) of row h of block n."""
    idx = np.asarray(row_indices(block_spec(n), h), dtype=np.float64)
    half = basis.log_index_half(idx)
    _tops, at = blocks._window_maxima(sign_rows(n, slots).astype(np.float64), idx, half)
    return idx, half, at.tolist()


def _window_scans(calls):
    """How many of the recorded log_psi_from_half calls scan a whole
    window's grid."""
    steps = int(round(WINDOW_HALFWIDTH / basis.GRID_STEP))
    return sum(1 for _k, _half, x in calls if np.shape(x)[-1:] == (2 * steps + 1,))


def dropped_column_ratio(n, h):
    """Largest sum of |psi| over columns two or more from a scan window,
    over any grid point of that window, relative to a lower bound on the
    sup-norm of every combo of the row (basis.log_psi only).

    Each psi_j rises up to its own peak and falls after it, so on window k
    it is largest at the window edge nearer that peak: columns j >= k + 2
    are bounded at the right edge, columns j <= k - 2 at the left one.  Any
    combo exceeds psi_0 - sum_{j >= 1} |psi_j| at the first column's centre.
    """
    spec = block_spec(n)
    idx = np.asarray(row_indices(spec, h), dtype=np.float64)
    steps = int(round(WINDOW_HALFWIDTH / basis.GRID_STEP))
    offsets = np.arange(-steps, steps + 1, dtype=np.float64) * basis.GRID_STEP
    centres = np.sqrt(idx / 2.0)
    cols = np.arange(spec.c)[:, None]
    worst = 0.0
    with np.errstate(under="ignore"):
        for w0 in range(0, spec.c, 256):
            win = np.arange(w0, min(w0 + 256, spec.c))[None, :]
            left = np.exp(basis.log_psi(idx[:, None], centres[win] + offsets[0])[1])
            right = np.exp(basis.log_psi(idx[:, None], centres[win] + offsets[-1])[1])
            dropped = np.where(cols <= win - 2, left, 0.0)
            dropped += np.where(cols >= win + 2, right, 0.0)
            worst = max(worst, float(dropped.sum(axis=0).max()))
        at_first = np.exp(basis.log_psi(idx, centres[0])[1])
    return worst / (at_first[0] - at_first[1:].sum())


class TestLocalScan:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_dropped_columns_below_half_ulp(self, n):
        # the premise of the three-column scan: the columns it leaves out
        # sum to less than 2^-58 of the row's sup-norm, and half an ulp of
        # the winning grid value is at least 2^-54 of it
        spec = block_spec(n)
        for h in (0, spec.r // 2, spec.r - 1):
            assert dropped_column_ratio(n, h) < 2.0**-58

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bits_match_full_row_scan(self, n):
        spec = block_spec(n)
        slots = (0, 1, spec.c - 2, spec.c - 1)
        for h in (0, spec.r // 2, spec.r - 1):
            assert_scan_matches(n, h, slots)

    def test_bits_match_full_row_scan_whole_row(self):
        for n, h in ((5, 1000), (2, 269), (4, 1079), (6, 4319)):
            assert_scan_matches(n, h, range(block_spec(n).c))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_slot_matches_full_row_scan(self, n):
        # up to 32 slots refined on one row
        spec = block_spec(n)
        for h in (0, spec.r // 2, spec.r - 1):
            assert_scan_matches(n, h, range(spec.c))

    def test_every_slot_of_a_block7_row_matches_local_scan(self):
        assert_scan_matches(7, 4321, range(64), local_scan_sup_norms)

    @pytest.mark.parametrize("n", range(9, 13))
    def test_deep_blocks_match_local_scan(self, n):
        spec = block_spec(n)
        slots = (0, 1, spec.c - 1)
        h = spec.r - 1
        assert_scan_matches(n, h, slots, local_scan_sup_norms)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_fallback_matches_full_row_scan(self, monkeypatch, n):
        # an infinite margin fails every later window's bound, and each is
        # then scanned like window 0
        monkeypatch.setattr(blocks, "_SKIP_MARGIN", math.inf)
        spec = block_spec(n)
        slots = _edge_slots(spec.c)
        for h in (0, spec.r // 2, spec.r - 1):
            assert_scan_matches(n, h, slots)
            calls = _spy(monkeypatch, basis, "log_psi_from_half")
            row_sup_norms(n, h, slots)
            assert _window_scans(calls) == spec.c

    @pytest.mark.parametrize("n", range(2, 13))
    def test_band_holds_every_maximum(self, monkeypatch, n):
        # the premise of the skip bound: on the first, middle and last rows
        # every later window's band and outside bound clears window 0's
        # maximum by the margin, so only window 0 is scanned
        spec = block_spec(n)
        for h in (0, spec.r // 2, spec.r - 1):
            calls = _spy(monkeypatch, basis, "log_psi_from_half")
            row_sup_norms(n, h, _edge_slots(spec.c))
            assert _window_scans(calls) == 1

    @pytest.mark.parametrize("n", range(2, 13))
    def test_skip_bound_holds(self, n):
        # every grid value of a later window stays within the margin of
        # that window's bound; slot 0, whose signs all agree with the
        # positive psi values, reaches the largest
        spec = block_spec(n)
        steps = int(round(WINDOW_HALFWIDTH / basis.GRID_STEP))
        offsets = np.arange(-steps, steps + 1, dtype=np.float64) * basis.GRID_STEP
        for h in (0, spec.r // 2, spec.r - 1):
            tops, _at, _out = local_scan_sup_norms(n, h, (0, spec.c - 1))
            idx = np.asarray(row_indices(spec, h), dtype=np.float64)
            bounds = blocks._later_window_bounds(idx, basis.log_index_half(idx), offsets)
            assert np.all(tops[1:].max(axis=1) <= blocks._SKIP_MARGIN * bounds)

    def test_no_slots(self):
        for n in (1, 2, 7):
            assert row_sup_norms(n, 0, []) == []

    def test_scan_evaluates_three_columns_per_window(self, monkeypatch):
        calls = _spy(monkeypatch, basis, "log_psi_from_half")
        rows = _spy(monkeypatch, blocks, "_combo_abs_at")
        golden = _golden_spy(monkeypatch)
        row_sup_norms(7, 4321, (0, 17, 40, 63))
        grid = [np.broadcast_shapes(np.shape(k), np.shape(x)) for k, _half, x in calls if np.ndim(x)]
        # window 0's columns 0 and 1 on its 4,001 grid points, then 7 bound
        # points for each of the 63 later windows: 8,443 values, not 190 x
        # 4,001
        assert grid == [(2, 4001), (63, 7)]
        # golden-section refinement: the 4 slots share one grid point, whose
        # bracket one column certifies, so one search of 36 evaluations on
        # that column alone, and no evaluation of the whole row
        (_bracket, probes), = golden
        assert len(probes) == 36
        assert rows == []

    def test_batched_combo_keeps_each_rows_bits(self):
        # _combo_abs_at of each sign row is the earlier one-point
        # evaluation: with the index halves shifted so that all 64 terms
        # are of one size, a sum in any other order moves last bits
        rng = np.random.default_rng(16)
        idx = (np.arange(64) % 2).astype(np.float64)
        half = rng.uniform(-2.0, 0.0, 64)
        srows = sign_rows(7, range(0, 64, 4)).astype(np.float64)
        xs = rng.uniform(0.1, 1.5, len(srows)).tolist()
        got = [blocks._combo_abs_at(srow, idx, half, 0.125, x) for srow, x in zip(srows, xs)]
        for si, x in enumerate(xs):
            psign, logs = basis.log_psi_from_half(idx, half, x)
            with np.errstate(under="ignore"):
                want = abs(float(np.sum(srows[si] * psign * np.exp(logs)))) * 0.125
            assert got[si].hex() == want.hex(), si

    def test_combo_rows_keep_each_points_bits(self):
        # one index at a time, so the value is exp of one log and a last
        # bit of ln x shows: each point has the bits of the one-point path
        # and of the float formula k * math.log(x) + half - x * x; numpy's
        # SIMD log (AVX-512) differs from math.log in the last bit at the
        # two hex points
        xs = [0.5, 3.2, 8.215, 1200.0, float.fromhex("0x1.d41161dfa8ebbp-1"),
              float.fromhex("0x1.1c566bc69fb6ep+3")]
        for k in (0, 1, 2, 7, 10**3, 3 * 10**6):
            idx = np.array([float(k)])
            half = basis.log_index_half(idx)
            with np.errstate(under="ignore"):
                for x in xs:
                    got = blocks._combo_abs_at(np.ones(1), idx, half, 0.125, x)
                    psign, logs = basis.log_psi_from_half(idx, half, x)
                    one = abs(float(np.sum(psign * np.exp(logs)))) * 0.125
                    formula = float(k) * math.log(x) + float(half[0]) - x * x
                    want = float(np.exp(np.array([formula]))[0]) * 0.125
                    assert got.hex() == one.hex() == want.hex(), (k, x)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1e-300, -0.5, -3.2, math.nan, -math.inf])
    def test_combo_rows_need_positive_points(self, bad):
        srow = sign_rows(3, [1]).astype(np.float64)[0]
        idx = np.arange(1.0, 5.0)
        with pytest.raises(DomainError):
            blocks._combo_abs_at(srow, idx, basis.log_index_half(idx), 0.5, bad)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_refinement_brackets_are_positive(self, n):
        # every bracket is a grid point +- GRID_STEP, within WINDOW_HALFWIDTH
        # of a peak sqrt(k/2), and the smallest k of block n is y_n: so
        # _combo_abs_at's x > 0 holds by construction
        assert math.sqrt(block_spec(n).y / 2.0) - WINDOW_HALFWIDTH - basis.GRID_STEP > 0.0

    def test_refinement_probes_stay_above_six(self, monkeypatch):
        # the first row of block 2 has the smallest peak, sqrt(67.5) ~ 8.22;
        # row 0's slots share one certified search, row 265's take one each
        for h, searches in ((0, 1), (265, 2)):
            golden = _golden_spy(monkeypatch)
            row_sup_norms(2, h, range(2))
            assert len(golden) == searches
            assert all(len(probes) == 36 for _bracket, probes in golden)
            assert min(a for (a, _b), _probes in golden) > 6.0
            assert min(min(probes) for _bracket, probes in golden) > 6.0

    def test_refinement_falls_back_per_slot(self, monkeypatch):
        # a search that ends below its grid value gives way to the grid
        # point: for every slot sharing a certified search, and for one
        # slot alone where the row is not certified
        slots = (0, 17, 40, 63)
        spec = block_spec(7)
        idx = np.asarray(row_indices(spec, 4321), dtype=np.float64)
        srows = sign_rows(7, slots).astype(np.float64)
        tops, at = blocks._window_maxima(srows, idx, basis.log_index_half(idx))
        refined = row_sup_norms(7, 4321, slots)
        _golden_spy(monkeypatch, rig=lambda _x, _y: 0.0)
        got = row_sup_norms(7, 4321, slots)
        assert got == [(s, float(x), float(v)) for s, x, v in zip(slots, at, tops)]
        assert all(v > top for (_s, _x, v), top in zip(refined, tops))
        monkeypatch.undo()

        refined = row_sup_norms(2, 265, (0, 1))
        combo_abs_at = blocks._combo_abs_at

        def below_on_slot_1(srow, *args):  # slot 1's sign row is [1, -1]
            return 0.0 if srow[1] < 0.0 else combo_abs_at(srow, *args)

        monkeypatch.setattr(blocks, "_combo_abs_at", below_on_slot_1)
        got = row_sup_norms(2, 265, (0, 1))
        spec = block_spec(2)
        idx = np.asarray(row_indices(spec, 265), dtype=np.float64)
        tops, at = blocks._window_maxima(sign_rows(2).astype(np.float64), idx, basis.log_index_half(idx))
        assert got == [refined[0], (1, float(at[1]), float(tops[1]))]
        assert refined[1][2] > tops[1]

    def test_index_half_computed_once_per_row(self, monkeypatch):
        calls = _spy(monkeypatch, basis, "log_factorial_array")
        row_sup_norms(7, 4321, (0, 17, 40, 63))
        assert [np.shape(ks) for ks, in calls] == [(64,)]

    @pytest.mark.parametrize("n", range(9, 13))
    def test_deep_blocks_obey_norm_law(self, n):
        spec = block_spec(n)
        h = spec.r - 1
        lo, hi = COMBO_NORM_WINDOW
        result = row_sup_norms(n, h, (0, spec.c - 1))
        assert [s for s, _x, _v in result] == [0, spec.c - 1]
        for _s, _x, v in result:
            assert lo <= v * v * spec.c * math.sqrt(2.0 * math.pi * (spec.y + h)) <= hi


class TestSharedSearch:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_certificate_holds_on_sampled_rows(self, n):
        # the first, middle and last rows: each grid maximum's bracket is
        # certified for the column of the first peak
        spec = block_spec(n)
        for h in (0, spec.r // 2, spec.r - 1):
            idx, half, xs = _row_grid_maxima(n, h, _edge_slots(spec.c))
            assert [blocks._single_column(idx, half, x) for x in xs] == [0] * len(xs)

    def test_certificate_fails_on_block2_tail_rows(self):
        # block 2's last rows have their two peaks closest: psi_1 comes
        # within 2^-55 of psi_0 on the bracket from row 263 on
        for h in range(255, 270):
            idx, half, xs = _row_grid_maxima(2, h, (0, 1))
            want = 0 if h < 263 else None
            assert [blocks._single_column(idx, half, x) for x in xs] == [want, want], h

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_certificate_fails_between_peaks(self, n):
        spec = block_spec(n)
        idx = np.asarray(row_indices(spec, spec.r // 2), dtype=np.float64)
        half = basis.log_index_half(idx)
        centres = np.sqrt(idx / 2.0)
        for k in range(min(spec.c - 1, 4)):
            mid = float(centres[k] + centres[k + 1]) / 2.0
            assert blocks._single_column(idx, half, mid) is None
            assert blocks._single_column(idx, half, float(centres[k])) == k

    @pytest.mark.parametrize("n", range(2, 13))
    def test_shared_values_are_every_slots_row_values(self, monkeypatch, n):
        # at every probe of a shared search, its value has the bits of the
        # whole-row evaluation of each slot sharing it (block 2's last
        # certified row is 262)
        spec = block_spec(n)
        slots = _edge_slots(spec.c)
        srows = sign_rows(n, slots).astype(np.float64)
        for h in (0, spec.r // 2, spec.r - 1 if n > 2 else 262):
            idx = np.asarray(row_indices(spec, h), dtype=np.float64)
            half = basis.log_index_half(idx)
            seen = []
            _golden_spy(monkeypatch, rig=lambda x, y: seen.append((x, y)) or y)
            row_sup_norms(n, h, slots)
            assert len(seen) == 36
            for x, y in seen:
                with np.errstate(under="ignore"):
                    rows = [blocks._combo_abs_at(srow, idx, half, spec.c**-0.5, x) for srow in srows]
                assert [v.hex() for v in rows] == [y.hex()] * len(slots), (h, x)

    def test_bits_match_full_row_scan_on_both_paths(self):
        # rows 255-262 take the shared search, rows 263-269 one each
        for h in range(255, 270):
            assert_scan_matches(2, h, (0, 1))

    @pytest.mark.parametrize("n", range(7, 13))
    def test_sampled_rows_match_local_scan(self, n):
        spec = block_spec(n)
        slots = (0, 1, spec.c // 2, spec.c - 1)
        rng = np.random.default_rng(n)
        for h in rng.integers(0, spec.r, 2).tolist():
            assert_scan_matches(n, h, slots, local_scan_sup_norms)

    def test_lone_exp_keeps_array_bits(self):
        # the shared search takes np.exp of one float at a time, and
        # _combo_abs_at of a whole row's array: the bits agree
        logs = np.random.default_rng(35).uniform(-740.0, 5.0, 100_000)
        with np.errstate(under="ignore"):
            arr = np.exp(logs).tolist()
            lone = [float(np.exp(v)) for v in logs.tolist()]
        assert lone == arr


class TestGoldenMax:
    # (f, bracket): widths from 5e-11 to 2.5, so step counts from 0 to 50;
    # a reversed bracket; a constant and a plateau, whose probes tie
    # (yc == yd) at every step or from the first
    CASES = [
        (lambda x: -((x - 0.3) ** 2), (0.0, 1.0)),
        (lambda x: math.exp(-2.0 * (x - 8.2) ** 2), (8.199, 8.201)),
        (math.sin, (3.0, 0.5)),
        (lambda x: -abs(x - 1e-7), (0.0, 3e-7)),
        (lambda x: x, (2.0, 2.0 + 5e-11)),
        (lambda x: 1.0, (-1.0, 1.0)),
        (lambda x: min(x, 0.25), (0.0, 1.0)),
    ]

    def test_each_search_matches_scalar_golden_max(self):
        counts = []
        for i, (f, (a, b)) in enumerate(self.CASES):
            probes, seen = [], []
            got = golden_max(lambda x, f=f: probes.append(x) or f(x), a, b)
            want = _scalar_golden_max(lambda x, f=f: seen.append(x) or f(x), a, b, XTOL)
            assert [v.hex() for v in got] == [v.hex() for v in want], i
            # the same probes in the same order
            assert probes == seen, i
            counts.append(len(seen))
        assert counts[4] == 1  # h <= xtol: the midpoint alone
        assert len(set(counts)) == 5

    def test_ties_keep_the_right_probe(self):
        # yc == yd moves the bracket right, so a constant ends on d
        x, y = golden_max(lambda _x: 1.0, -1.0, 1.0)
        assert y == 1.0 and 1.0 - x < 1e-9


class TestEnergyInvariance:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_row_energy_preserved(self, n):
        spec = block_spec(n)
        sm = sign_matrix(n).entries.astype(np.float64)
        edge = 1.5 * math.sqrt(block_spec(n + 1).y / 2.0)
        xs = np.linspace(-edge, edge, 21)
        for h in (0, spec.r // 2, spec.r - 1):
            v = row_values(spec, h, xs)
            c = (sm @ v) / math.sqrt(spec.c)
            lhs = c.T @ c
            rhs = v.T @ v
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_combo_values_linearly_independent_at_peaks(self, n):
        spec = block_spec(n)
        idx = row_indices(spec, 0)
        xs = np.array([peak(i).x_peak for i in idx])
        sm = sign_matrix(n).entries.astype(np.float64)
        v = row_values(spec, 0, xs)
        mat = (sm @ v) / math.sqrt(spec.c)  # combos at the c peak points
        assert np.linalg.matrix_rank(mat) == spec.c
        assert np.isfinite(np.linalg.cond(mat))


class TestSeparation:
    def test_minimum_large_enough(self):
        for n in range(2, 9):
            assert min_row_separation(n) >= 3.5

    def test_frozen_endpoints(self):
        # exact integer geometry makes these sharp
        assert min_row_separation(2) == pytest.approx(4.144889, abs=1e-6)
        assert min_row_separation(8) == pytest.approx(3.562817, abs=1e-6)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_corner_formula_matches_array_minimum(self, n):
        assert min_row_separation(n) == separation_array_min(n)

    def test_deepest_block_without_allocating(self, monkeypatch):
        # r * c is about 2.4e18 entries at block 28
        monkeypatch.setattr(np, "arange", _no_alloc)
        t0 = time.perf_counter()
        sep = min_row_separation(28)
        assert time.perf_counter() - t0 < 0.1
        assert math.isfinite(sep)
        assert abs(sep / SEPARATION_LIMIT - 1.0) < 1e-6

    def test_trend_to_limit(self):
        seps = [min_row_separation(n) for n in range(2, 9)]
        assert all(a > b for a, b in zip(seps, seps[1:]))
        assert abs(seps[-1] / SEPARATION_LIMIT - 1.0) < 0.01
