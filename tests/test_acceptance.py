"""Acceptance gate: every top-level check at its pinned tolerance.

One test per criterion (the weight-statistics criterion is split into its
three clauses so a failure pinpoints the clause).  Each test prints one
PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py`` to see
them all.

The mass-ratio clause (``test_c06b_weight_ratio_gate``) is checked
against a rigorous finite-n bracket rather than a fixed window around the
n -> infinity asymptote 4^(1-p): at p = 3 the block 4 -> 5 ratio provably
sits at least 10.166% from it, so a 10% window fails on a correct
construction.  See tests/test_analysis.py for the frozen measured
deviations.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from gkexpand.analysis import block_mass, block_mass_bounds, divergence_profile
from gkexpand.basis import bump_error, fit_h_envelope, peak
from gkexpand.blocks import (
    SEPARATION_LIMIT,
    block_spec,
    min_row_separation,
    row_indices,
    row_sup_norms,
    row_values,
    sign_matrix,
)
from gkexpand.cli import main
from gkexpand.expansion import build_bounded, build_raw
from gkexpand.probe import (
    PROFILES,
    TEMPLATES,
    build_certificate,
    offdiag_row_sums,
    verify_certificate,
)
from gkexpand.reconstruct import EVAL_SLACK, grid_report

from test_cli import TABLE_N4_CSV, _dir_bytes


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c01_raw_reconstruction(raw200):
    """Raw horizon-200 series matches the kernel to 1e-10 on [-3,3]^2."""
    t0 = time.monotonic()
    rep = grid_report(raw200, (-3.0, 3.0), (-3.0, 3.0), 0.25)
    elapsed = time.monotonic() - t0
    ok = rep.max_abs_error < 1e-10 and rep.bound_satisfied and elapsed < 10.0
    _report(
        "C1 raw reconstruction", ok,
        f"max_err={rep.max_abs_error:.3e} bound_ok={rep.bound_satisfied} t={elapsed:.2f}s",
    )
    assert rep.max_abs_error < 1e-10
    assert rep.bound_satisfied  # err <= tail bound + EVAL_SLACK pointwise
    assert elapsed < 10.0


def test_c02_energy_invariance():
    """Recombination keeps the row kernel sums invariant to 1e-12."""
    t0 = time.monotonic()
    worst = 0.0
    for n in range(1, 7):
        spec = block_spec(n)
        sm = sign_matrix(n).entries.astype(np.float64)
        rows = sorted(set(np.linspace(0, spec.r - 1, 10).astype(int).tolist()))
        edge = 1.5 * math.sqrt(block_spec(n + 1).y / 2.0)
        xs = np.linspace(-edge, edge, 21)
        for h in rows:
            v = row_values(spec, h, xs)
            c = (sm @ v) / math.sqrt(spec.c)
            dev = float(np.max(np.abs(c.T @ c - v.T @ v)))
            worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 60.0
    _report("C2 energy invariance", ok, f"worst_dev={worst:.3e} t={elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 60.0


def test_c03_golden_sign_table(tmp_path):
    """The 8x8 sign table reproduces exactly; S S^T = c I up to n = 10."""
    assert main(["signs", "--n", "4", "--out-dir", str(tmp_path)]) == 0
    got = (tmp_path / "signs_n4.csv").read_text()
    table_ok = got == TABLE_N4_CSV
    orth_ok = True
    for n in range(1, 11):
        s = sign_matrix(n).entries
        c = s.shape[0]
        if not np.array_equal(s @ s.T, c * np.eye(c, dtype=np.int64)):
            orth_ok = False
    _report("C3 golden sign table", table_ok and orth_ok,
            f"table_exact={table_ok} orthogonal_n<=10={orth_ok}")
    assert table_ok
    assert orth_ok


def test_c04_worked_indices():
    """Block 4 geometry and its first row match the worked example."""
    spec = block_spec(4)
    geom_ok = (spec.y, spec.r, spec.c) == (2835, 1080, 8)
    row = row_indices(spec, 0)
    row_ok = row == [2835, 3915, 4995, 6075, 7155, 8235, 9315, 10395]
    _report("C4 worked indices", geom_ok and row_ok, f"spec={spec} row0={row[:2]}...")
    assert geom_ok
    assert row_ok


def test_c05_sup_norm_laws():
    """m_k^2 sqrt(2 pi k) within 0.1%; combo law within 5% for n in [3,8]."""
    t0 = time.monotonic()
    ks = np.unique(np.geomspace(1e3, 1e6, 50).astype(np.int64))
    assert len(ks) == 50
    raw_laws = [
        math.exp(peak(int(k)).m_squared_log) * math.sqrt(2.0 * math.pi * k) for k in ks
    ]
    raw_ok = all(0.999 <= v <= 1.001 for v in raw_laws)

    combo_laws = []
    for n in range(3, 9):
        spec = block_spec(n)
        rows = sorted(set(np.linspace(0, spec.r - 1, 5).astype(int).tolist()))
        slots = list(range(4))
        for h in rows:
            for _s, _x, v in row_sup_norms(n, h, slots):
                combo_laws.append(v * v * spec.c * math.sqrt(2.0 * math.pi * (spec.y + h)))
    combo_ok = all(0.95 <= v <= 1.05 for v in combo_laws)
    elapsed = time.monotonic() - t0
    ok = raw_ok and combo_ok and elapsed < 300.0
    _report(
        "C5 sup-norm laws", ok,
        f"raw_span=[{min(raw_laws):.5f},{max(raw_laws):.5f}] "
        f"combo_span=[{min(combo_laws):.5f},{max(combo_laws):.5f}] "
        f"({len(combo_laws)} combos) t={elapsed:.1f}s",
    )
    assert raw_ok
    assert combo_ok
    assert elapsed < 300.0


def test_c06a_weight_masses():
    """Per-block l_1 masses sit in [7.2, 8.8] for blocks 4..8."""
    masses = {n: block_mass(n, 1.0) for n in range(4, 9)}
    ok = all(7.2 <= g <= 8.8 for g in masses.values())
    _report("C6a weight masses", ok,
            " ".join(f"G({n},1)={g:.3f}" for n, g in masses.items()))
    assert ok


def test_c06b_weight_ratio_gate():
    """Successive mass ratios G(n+1,p)/G(n,p), p in {1.5, 2, 3}, n = 4..7,
    inside the rigorous bracket [lo(n+1)/hi(n), hi(n+1)/lo(n)] from
    ``block_mass_bounds``, with their deviation from 4^(1-p) strictly
    decreasing in n.

    The bracket excludes any fixed window around the asymptote at small n:
    for (p=3, n=4) it is [0.0688541, 0.0689012], at least 10.166% above
    4^(1-p) = 0.0625.  Its relative width (6.8e-4 there, 1.2e-5 at n = 7)
    is under 1e-3, so one block mass off by that much leaves it.
    """
    margins, devs, outside = {}, {}, {}
    for p in (1.5, 2.0, 3.0):
        target = 4.0 ** (1.0 - p)
        bounds = {n: block_mass_bounds(n, p) for n in range(4, 9)}
        for n in range(4, 8):
            ratio = block_mass(n + 1, p) / block_mass(n, p)
            lo = bounds[n + 1][0] / bounds[n][1]
            hi = bounds[n + 1][1] / bounds[n][0]
            margins[(p, n)] = min(ratio - lo, hi - ratio) / ratio
            devs[(p, n)] = abs(ratio / target - 1.0)
            if not lo <= ratio <= hi:
                outside[(p, n)] = (ratio, lo, hi)
    not_decreasing = [
        (p, n) for (p, n) in devs if n > 4 and not devs[(p, n)] < devs[(p, n - 1)]
    ]
    ok = not outside and not not_decreasing
    worst = min(margins, key=margins.get)
    _report("C6b weight ratio gate", ok,
            f"{len(margins)} cells; worst cell p={worst[0]} n={worst[1]} "
            f"relative margin={margins[worst]:.2e}")
    assert not outside, f"(ratio, lo, hi) outside the bracket: {outside}"
    assert not not_decreasing, f"deviation from 4^(1-p) not decreasing at {not_decreasing}"


def test_c06c_divergence_slope():
    """Fitted log-law slope within 15% of 135/(sqrt(90 pi) ln 4)."""
    stats = divergence_profile(8)
    rel = abs(stats.fitted_slope / stats.model_D - 1.0)
    ok = rel <= 0.15
    _report("C6c divergence slope", ok,
            f"slope={stats.fitted_slope:.4f} D={stats.model_D:.4f} dev={rel:.2%}")
    assert ok


def test_c07_bounded_domain():
    """h_k sup-norms uniformly bounded with a decaying envelope; [0,3]^2
    reconstruction at horizon 300 within 1e-8."""
    env = fit_h_envelope(3.0, k_max=5000)
    env_ok = env.B > 0.0 and env.max_violation <= 0.0 and env.k0 > 2.0 * math.e * 9.0
    rep = grid_report(build_bounded(3.0, 300), (0.0, 3.0), (0.0, 3.0), 0.25)
    rec_ok = rep.max_abs_error < 1e-8
    _report(
        "C7 bounded domain", env_ok and rec_ok,
        f"sup={math.exp(env.sup_log_value):.4f}@k={env.sup_argmax} B={env.B:.2e} "
        f"violation={env.max_violation:.2e} max_err={rep.max_abs_error:.2e}",
    )
    assert env_ok
    assert rec_ok


def test_c08_peak_separation():
    """Row separations stay above 3.5 and approach 3.5576 within 1%."""
    seps = {n: min_row_separation(n) for n in range(2, 9)}
    above = all(v >= 3.5 for v in seps.values())
    trend = abs(seps[8] / SEPARATION_LIMIT - 1.0) < 0.01
    _report("C8 peak separation", above and trend,
            f"min={min(seps.values()):.4f} sep(8)={seps[8]:.4f} limit={SEPARATION_LIMIT:.4f}")
    assert above
    assert trend


def test_c09_probe_certificates():
    """All 27 (kernel, eps, n) probes satisfy both inequalities and the
    row-wise off-diagonal budget, in under 30 s each."""
    delta = 0.9
    worst_time = 0.0
    count = 0
    for kernel in ("gaussian", "laplace", "cauchy"):
        profile = PROFILES[kernel]
        for eps in (0.05, 0.1, 0.2):
            for n in (10, 100, 1000):
                t0 = time.monotonic()
                cert = build_certificate(profile, TEMPLATES["cos"], eps, n, delta=delta)
                assert 1.0 - eps < cert.quad_form < 1.0 + eps, (kernel, eps, n)
                assert cert.lin_form_sq > n * delta * delta, (kernel, eps, n)
                assert verify_certificate(cert, profile, TEMPLATES["cos"]).ok
                for _i, s, b in offdiag_row_sums(cert, profile):
                    assert s < b, (kernel, eps, n)
                elapsed = time.monotonic() - t0
                worst_time = max(worst_time, elapsed)
                assert elapsed < 30.0
                count += 1
    _report("C9 probe certificates", True,
            f"{count} certificates, worst build+verify {worst_time:.2f}s")


def test_c10_bump_trend():
    """Bump-model error strictly decreasing in k and below 1% at k = 1e6."""
    errs = [bump_error(k, 2.0) for k in (100, 1000, 10**4, 10**5)]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    final = bump_error(10**6, 2.0)
    ok = decreasing and final < 0.01
    _report("C10 bump trend", ok,
            "errors " + " > ".join(f"{e:.2e}" for e in errs) + f", e(1e6)={final:.2e}")
    assert decreasing
    assert final < 0.01


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--scheme", "raw", "--horizon", "60", "--range", "-1.5:1.5",
         "--step", "0.25"],
        ["norms", "--scheme", "combo", "--max-block", "3", "--rows", "2", "--slots", "2"],
        ["weights", "--p", "1", "--max-block", "4"],
        ["signs", "--n", "4"],
        ["probe", "--kernel", "gaussian", "--psi", "cos", "--n", "50"],
        ["bumpcheck", "--indices", "100,1000"],
    ],
    ids=["reconstruct", "norms", "weights", "signs", "probe", "bumpcheck"],
)
def test_c11_cli_determinism(tmp_path, argv):
    """Every command is byte-identical across reruns."""
    outs = []
    for i in range(3):
        d = tmp_path / f"run{i}"
        assert main(argv + ["--out-dir", str(d)]) == 0
        outs.append(_dir_bytes(d))
    ok = outs[0] == outs[1] == outs[2]
    _report(f"C11 determinism [{argv[0]}]", ok,
            f"{len(outs[0])} file(s), 3 reruns identical={ok}")
    assert ok
