"""Impossibility probes: decay radii, certificates, verification."""

import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from gkexpand import probe
from gkexpand.errors import ConstructionError, DomainError
from gkexpand.numerics import fsum_with_rest
from gkexpand.probe import (
    PROFILES,
    TEMPLATES,
    _PAIR_BUDGET,
    RadialProfile,
    _certify,
    _quad_form,
    _row_bounds,
    _tail_rows,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    decay_radius,
    implied_weight_bound,
    offdiag_row_sums,
    verify_certificate,
)


def _bisect_radius(profile, threshold):
    lo, hi = 0.0, 1.0
    while profile(hi) >= threshold:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if profile(mid) < threshold:
            hi = mid
        else:
            lo = mid
    return hi


class TestDecayRadius:
    def test_gaussian_closed_form(self):
        assert decay_radius(PROFILES["gaussian"], math.exp(-4.0)) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_laplace_closed_form(self):
        assert decay_radius(PROFILES["laplace"], math.exp(-3.0)) == pytest.approx(
            3.0, rel=1e-12
        )

    def test_cauchy_closed_form(self):
        assert decay_radius(PROFILES["cauchy"], 0.01) == pytest.approx(
            math.sqrt(99.0), rel=1e-12
        )

    def test_trivial_threshold_clamps_to_zero(self):
        for p in PROFILES.values():
            assert decay_radius(p, 1.0) == 0.0
            assert decay_radius(p, 1.5) == 0.0

    @pytest.mark.parametrize("name", sorted(PROFILES))
    @pytest.mark.parametrize("threshold", [0.5, 0.07, 1e-3, 1e-9])
    def test_against_bisection(self, name, threshold):
        profile = PROFILES[name]
        closed = decay_radius(profile, threshold)
        assert closed == pytest.approx(_bisect_radius(profile, threshold), abs=1e-9)
        # the radius really works: F stays below the threshold beyond it
        for u in (closed + 1e-9, closed * 1.5 + 1.0):
            assert profile(u) < threshold

    def test_profiles_normalised_and_decaying(self):
        for p in PROFILES.values():
            assert p(0.0) == 1.0
            vals = [p(u) for u in (0.5, 1.0, 2.0, 5.0, 10.0)]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert p(1e4) < 1e-4

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_declared_decrease_holds(self, name):
        # |f(u)| <= |f(v)| + ulp(f(v)) for v <= u: on sorted samples over the
        # whole range, through the support's edge, and at inf
        profile = PROFILES[name]
        assert profile.decreasing
        rng = np.random.default_rng(31)
        edge = profile.support
        us = np.concatenate([
            np.exp2(rng.uniform(-40.0, 10.0, 4000)),
            rng.uniform(0.0, 40.0, 4000),
            [0.0, edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf),
             1e300, math.inf],
        ])
        vals = [abs(profile(u)) for u in np.sort(us).tolist()]
        assert all(b <= a + math.ulp(a) for a, b in zip(vals, vals[1:]))


class TestBuildCertificate:
    @pytest.mark.parametrize("kernel", sorted(PROFILES))
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("n", [10, 100])
    def test_sandwich_inequalities(self, kernel, eps, n):
        cert = build_certificate(PROFILES[kernel], TEMPLATES["cos"], eps, n)
        assert 1.0 - eps < cert.quad_form < 1.0 + eps
        assert cert.lin_form_sq > n * 0.81

    def test_single_point(self):
        cert = build_certificate(PROFILES["gaussian"], TEMPLATES["cos"], 0.1, 1)
        assert cert.quad_form == 1.0
        assert 0.81 < cert.lin_form_sq <= 1.0

    def test_gaussian_100_sandwich(self):
        cert = build_certificate(PROFILES["gaussian"], TEMPLATES["cos"], 0.1, 100)
        assert 0.9 < cert.quad_form < 1.1
        assert cert.lin_form_sq > 81.0

    def test_row_bounds_strict(self):
        for kernel in sorted(PROFILES):
            cert = build_certificate(PROFILES[kernel], TEMPLATES["cos"], 0.1, 100)
            for _i, s, b in offdiag_row_sums(cert, PROFILES[kernel]):
                assert s < b

    def test_points_and_signs(self):
        cert = build_certificate(PROFILES["laplace"], TEMPLATES["cos"], 0.1, 50)
        assert all(b > a for a, b in zip(cert.points, cert.points[1:]))
        inv = 1.0 / math.sqrt(50.0)
        for a, y in zip(cert.coefficients, cert.points):
            assert abs(a) == inv
            assert math.copysign(1.0, a) == math.copysign(1.0, math.cos(y))

    def test_square_template(self):
        cert = build_certificate(PROFILES["laplace"], TEMPLATES["square"], 0.1, 100)
        res = verify_certificate(cert, PROFILES["laplace"], TEMPLATES["square"])
        assert res.ok
        assert cert.lin_form_sq == pytest.approx(100.0, rel=1e-12)

    def test_cauchy_large_n_feasible(self):
        # the doubling radii push points out to ~1e151; still finite
        cert = build_certificate(PROFILES["cauchy"], TEMPLATES["cos"], 0.05, 1000)
        assert math.isfinite(cert.points[-1])
        assert cert.points[-1] > 1e100

    def test_infeasible_size_raises(self):
        with pytest.raises(ConstructionError):
            build_certificate(PROFILES["cauchy"], TEMPLATES["cos"], 0.05, 1100)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            build_certificate(PROFILES["gaussian"], TEMPLATES["cos"], 1.5, 10)
        with pytest.raises(DomainError):
            build_certificate(PROFILES["gaussian"], TEMPLATES["cos"], 0.1, 0)
        with pytest.raises(DomainError):
            build_certificate(PROFILES["gaussian"], TEMPLATES["cos"], 0.1, 10, delta=1.0)


class TestVerify:
    def _cert(self, n=50):
        return build_certificate(PROFILES["gaussian"], TEMPLATES["cos"], 0.1, n)

    def test_fresh_certificate_verifies(self):
        cert = self._cert()
        assert verify_certificate(cert, PROFILES["gaussian"], TEMPLATES["cos"]).ok

    def test_verifier_recomputes_not_trusts(self):
        # stored scalar fields are garbage; the verifier must not care
        cert = dataclasses.replace(self._cert(), quad_form=999.0, lin_form_sq=-1.0)
        res = verify_certificate(cert, PROFILES["gaussian"], TEMPLATES["cos"])
        assert res.ok
        assert res.quad_form != 999.0

    def test_shrunk_gap_fails_quad_check(self):
        # two points one twentieth of a period apart: massive off-diagonal mass
        pts = (math.pi, math.pi + 0.05)
        inv = 1.0 / math.sqrt(2.0)
        coeffs = (-inv, -inv)
        cert = dataclasses.replace(
            self._cert(2), points=pts, coefficients=coeffs
        )
        res = verify_certificate(cert, PROFILES["gaussian"], TEMPLATES["cos"])
        assert not res.ok
        assert res.reason == "quad_form_out_of_range"

    def test_sabotaged_signs_fail_lin_check(self):
        # flipping every other coefficient against psi cancels the linear form
        base = self._cert()
        coeffs = tuple(
            -a if i % 2 else a for i, a in enumerate(base.coefficients)
        )
        cert = dataclasses.replace(base, coefficients=coeffs)
        res = verify_certificate(cert, PROFILES["gaussian"], TEMPLATES["cos"])
        assert not res.ok
        assert res.reason == "lin_form_too_small"

    def test_non_increasing_points_rejected(self):
        base = self._cert(3)
        pts = (base.points[0], base.points[0], base.points[2])
        cert = dataclasses.replace(base, points=pts)
        res = verify_certificate(cert, PROFILES["gaussian"], TEMPLATES["cos"])
        assert not res.ok
        assert res.reason == "points_not_increasing"

    def test_bad_magnitude_rejected(self):
        base = self._cert(4)
        coeffs = (0.9,) + base.coefficients[1:]
        cert = dataclasses.replace(base, coefficients=coeffs)
        res = verify_certificate(cert, PROFILES["gaussian"], TEMPLATES["cos"])
        assert not res.ok
        assert res.reason == "bad_coefficient_magnitude"


class TestWeightBound:
    def test_formula(self):
        cert = build_certificate(PROFILES["gaussian"], TEMPLATES["cos"], 0.1, 100)
        assert implied_weight_bound(cert) == pytest.approx(1.1 / 81.0, rel=1e-12)

    def test_decreases_with_n(self):
        bounds = [
            implied_weight_bound(
                build_certificate(PROFILES["gaussian"], TEMPLATES["cos"], 0.1, n)
            )
            for n in (1, 10, 100, 1000)
        ]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_single_point_vacuous(self):
        cert = build_certificate(PROFILES["gaussian"], TEMPLATES["cos"], 0.1, 1)
        assert implied_weight_bound(cert) > 1.0


class TestParameterRules:
    # one rule set: the builder raises it, the loader raises it for the file,
    # implied_weight_bound raises it, and the verifier fails on it before any
    # arithmetic (n = 0 raised ZeroDivisionError in verify_certificate, and
    # delta = 1e-200 in implied_weight_bound; epsilon = 5.0 verified)
    @pytest.mark.parametrize(
        "change, rule",
        [
            ({"n": 0, "points": (), "coefficients": ()}, "n=0; n must be >= 1"),
            ({"epsilon": 0.0}, "epsilon=0.0; it must lie in (0, 1)"),
            ({"epsilon": 1.0}, "epsilon=1.0; it must lie in (0, 1)"),
            ({"epsilon": 5.0}, "epsilon=5.0; it must lie in (0, 1)"),
            ({"epsilon": math.nan}, "epsilon=nan; it must lie in (0, 1)"),
            ({"delta": 0.0}, "delta=0.0; it must lie in (0, 1)"),
            ({"delta": 1.0}, "delta=1.0; it must lie in (0, 1)"),
            ({"delta": 1e-200},
             "delta=1e-200 is too small: its square underflows below the normal range"),
            ({"delta": math.nan}, "delta=nan; it must lie in (0, 1)"),
        ],
        ids=["n-0", "eps-0", "eps-1", "eps-5", "eps-nan", "delta-0", "delta-1", "delta-1e-200",
             "delta-nan"],
    )
    def test_one_rule_set(self, tmp_path, change, rule):
        cert = dataclasses.replace(_cached_cert("gaussian", "cos", 0.1, 5), **change)
        res = verify_certificate(cert, PROFILES["gaussian"], TEMPLATES["cos"])
        assert not res.ok and res.reason == "parameters_out_of_range"
        assert math.isnan(res.quad_form) and math.isnan(res.lin_form_sq)
        with pytest.raises(DomainError) as weight:
            implied_weight_bound(cert)
        with pytest.raises(DomainError) as built:
            build_certificate(
                PROFILES["gaussian"], TEMPLATES["cos"], cert.epsilon, cert.n, delta=cert.delta
            )
        path = tmp_path / "cert.json"
        certificate_to_json(cert, path)
        with pytest.raises(DomainError) as loaded:
            certificate_from_json(path)
        assert str(weight.value) == str(built.value) == rule
        assert str(loaded.value) == f"certificate {path}: {rule}"

    def test_n_must_be_an_integer(self, tmp_path):
        # build_certificate(..., 0.1, 2.5) ended in a TypeError from range();
        # the loader's own shape check names the same fault first
        rule = "n=2.5; n must be an integer"
        cert = dataclasses.replace(_cached_cert("gaussian", "cos", 0.1, 5), n=2.5)
        res = verify_certificate(cert, PROFILES["gaussian"], TEMPLATES["cos"])
        assert not res.ok and res.reason == "parameters_out_of_range"
        with pytest.raises(DomainError) as weight:
            implied_weight_bound(cert)
        with pytest.raises(DomainError) as built:
            build_certificate(PROFILES["gaussian"], TEMPLATES["cos"], 0.1, 2.5)
        path = tmp_path / "cert.json"
        certificate_to_json(cert, path)
        with pytest.raises(DomainError) as loaded:
            certificate_from_json(path)
        assert str(weight.value) == str(built.value) == rule
        assert str(loaded.value) == f"certificate {path} has {rule}"


class TestSerialisation:
    def test_round_trip_and_file_verification(self, tmp_path):
        cert = build_certificate(PROFILES["cauchy"], TEMPLATES["cos"], 0.05, 200)
        path = tmp_path / "cert.json"
        certificate_to_json(cert, path)
        back = certificate_from_json(path)
        assert back == cert  # full-precision floats survive the file
        res = verify_certificate(back, PROFILES[back.kernel], TEMPLATES[back.template])
        assert res.ok

    def test_frozen_bytes(self, tmp_path):
        # the schema version, then the fields in declaration order
        path = tmp_path / "cert.json"
        certificate_to_json(_cached_cert("gaussian", "cos", 0.1, 3), path)
        assert path.read_bytes() == (
            b'{\n "schema_version": 1,\n "kernel": "gaussian",\n "template": "cos",\n'
            b' "epsilon": 0.1,\n "delta": 0.9,\n "n": 3,\n "points": [\n'
            b'  3.141592653589793,\n  6.283185307179586,\n  9.42477796076938\n ],\n'
            b' "coefficients": [\n  -0.5773502691896258,\n  0.5773502691896258,\n'
            b'  -0.5773502691896258\n ],\n "quad_form": 0.9999310357517285,\n'
            b' "lin_form_sq": 3.0000000000000013\n}\n'
        )

    def test_rejects_unknown_schema(self, tmp_path):
        cert = build_certificate(PROFILES["gaussian"], TEMPLATES["cos"], 0.1, 5)
        path = tmp_path / "cert.json"
        certificate_to_json(cert, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            certificate_from_json(path)


def _full_quad_form(pts, coeffs, profile):
    """The full O(n^2) double loop the support window replaced, kept as the
    bit-for-bit reference."""
    terms = []
    for i in range(len(pts)):
        terms.append(coeffs[i] * coeffs[i])
        for j in range(i):
            terms.append(2.0 * coeffs[i] * coeffs[j] * profile(abs(pts[i] - pts[j])))
    return math.fsum(terms)


def _full_offdiag_row_sums(cert, profile):
    """The full O(n^2) row loop the support window replaced."""
    pts = cert.points
    return [
        (i, math.fsum(profile(abs(pts[i - 1] - yj)) for yj in pts[: i - 1]),
         (i - 1) * cert.epsilon / 2.0**i)
        for i in range(2, cert.n + 1)
    ]


@functools.cache
def _cached_cert(kernel, template, eps, n):
    return build_certificate(PROFILES[kernel], TEMPLATES[template], eps, n)


@functools.cache
def _cached_full(kernel, template, eps, n):
    cert = _cached_cert(kernel, template, eps, n)
    return _full_quad_form(cert.points, cert.coefficients, PROFILES[kernel])


def _counting(profile):
    """A copy of the profile whose f counts in ``calls[0]`` the elements it
    evaluates (a whole block per call for an elementwise profile, one per
    call otherwise) and in ``calls[1]`` the most that a single call evaluated."""
    calls = [0, 0]

    def f(u):
        size = np.size(u) if profile.elementwise else 1
        calls[0] += size
        calls[1] = max(calls[1], size)
        return profile.f(u)

    return dataclasses.replace(profile, f=f), calls


def _pairs_inside(pts, support):
    return sum(1 for i in range(len(pts)) for j in range(i) if abs(pts[i] - pts[j]) < support)


def _row_sum_calls(pts, support):
    """The f calls of the row sums, counted by a scalar loop: one per pair
    inside the support whose difference does not round to y_i, and one per
    row that holds a pair whose difference does."""
    calls = 0
    for i, yi in enumerate(pts):
        same = [yi - yj == yi for yj in pts[:i] if yi - yj < support]
        calls += same.count(False) + any(same)
    return calls


class TestSupportWindow:
    @pytest.mark.parametrize(
        "kernel, template, eps, n",
        [(k, "cos", eps, n) for k in sorted(PROFILES) for eps in (0.05, 0.1, 0.2)
         for n in (10, 100, 1000)]
        + [(k, "square", 0.1, n) for k in sorted(PROFILES) for n in (100, 1000)]
        # around the rows the quadratic form keeps, and the largest Cauchy size
        + [(k, t, 0.1, n) for k in sorted(PROFILES) for t in sorted(TEMPLATES)
           for n in (1, 2, 60, 500)]
        + [("cauchy", "cos", 0.1, 1020)],
    )
    def test_bits_match_full_loop(self, kernel, template, eps, n):
        cert = _cached_cert(kernel, template, eps, n)
        profile = PROFILES[kernel]
        expected = _cached_full(kernel, template, eps, n)
        assert cert.quad_form == expected
        assert _quad_form(cert.points, cert.coefficients, profile) == expected
        assert offdiag_row_sums(cert, profile) == _full_offdiag_row_sums(cert, profile)

    @pytest.mark.parametrize("kernel", sorted(PROFILES))
    def test_f_calls_are_the_pairs_inside_support(self, kernel):
        # bit equality alone cannot see a window that is too wide
        n = 1000
        cert = _cached_cert(kernel, "cos", 0.1, n)
        profile, calls = _counting(PROFILES[kernel])
        inside = _pairs_inside(cert.points, profile.support)
        # the quadratic form: the pairs inside the support of its kept
        # rows, and one f call per gap for the bound on the rest
        rows, _rest = _tail_rows(
            np.array(cert.points), np.array(cert.coefficients), PROFILES[kernel]
        )
        assert 1 < rows <= 64
        kept = _pairs_inside(cert.points[:rows], profile.support)
        _quad_form(cert.points, cert.coefficients, profile)
        assert calls[0] == kept + n - 1
        calls[0] = 0
        # the row sums: one f call per distinct difference of a row
        offdiag_row_sums(cert, profile)
        assert calls[0] == _row_sum_calls(cert.points, profile.support)
        if kernel == "cauchy":
            assert calls[0] < inside // 4
        else:  # no Gaussian or Laplace row collapses
            assert calls[0] == inside
        calls[0] = 0
        assert verify_certificate(cert, profile, TEMPLATES["cos"]).ok
        assert calls[0] == kept + n - 1
        # without the declared decrease, every pair inside the support
        full, calls = _counting(dataclasses.replace(PROFILES[kernel], decreasing=False))
        _quad_form(cert.points, cert.coefficients, full)
        assert calls[0] == inside
        calls[0] = 0
        assert verify_certificate(cert, full, TEMPLATES["cos"]).ok
        assert calls[0] == inside
        if kernel != "cauchy":  # every Cauchy pair is inside 2^512
            assert inside < 1000 * 999 // 2
        assert kept + n - 1 < inside

    def test_default_support_evaluates_every_pair(self):
        builtin = PROFILES["gaussian"]
        user = RadialProfile("user", builtin.f, builtin.closed_form_radius)
        assert user.support == math.inf
        cert = _cached_cert("gaussian", "cos", 0.1, 100)
        profile, calls = _counting(user)
        assert _quad_form(cert.points, cert.coefficients, profile) == cert.quad_form
        assert calls[0] == 100 * 99 // 2

    def test_default_support_elementwise_evaluates_every_pair(self):
        builtin = PROFILES["cauchy"]
        user = RadialProfile("user", builtin.f, builtin.closed_form_radius, elementwise=True)
        assert user.support == math.inf
        # Gaussian points: a Gaussian window would skip most of these pairs
        cert = _cached_cert("gaussian", "cos", 0.1, 100)
        profile, calls = _counting(user)
        expected = _full_quad_form(cert.points, cert.coefficients, user)
        assert _quad_form(cert.points, cert.coefficients, profile) == expected
        assert calls[0] == 100 * 99 // 2

    def test_no_f_call_exceeds_the_pair_budget(self):
        # the budget keeps every numpy temporary O(budget + n)
        n = 1000
        cert = _cached_cert("cauchy", "cos", 0.1, n)
        builtin = PROFILES["cauchy"]
        without = dataclasses.replace(builtin, decreasing=False)
        # the row sums evaluate each row's distinct differences, and the
        # quadratic form without the declared decrease every pair
        distinct = _row_sum_calls(cert.points, builtin.support)
        for counted, run, expected in (
            (builtin, offdiag_row_sums, distinct),
            (without, offdiag_row_sums, distinct),
            (without, lambda c, p: _quad_form(c.points, c.coefficients, p), n * (n - 1) // 2),
        ):
            profile, calls = _counting(counted)
            run(cert, profile)
            assert calls[0] == expected
            # ... and at this n the pairs span several blocks
            assert 0 < calls[1] <= _PAIR_BUDGET + n - 1 < calls[0]
        # the quadratic form with it: the kept rows' pairs and the n - 1 gaps, no call larger
        profile, calls = _counting(builtin)
        rows, _rest = _tail_rows(np.array(cert.points), np.array(cert.coefficients), builtin)
        _quad_form(cert.points, cert.coefficients, profile)
        assert calls[0] == rows * (rows - 1) // 2 + n - 1
        assert 0 < calls[1] <= _PAIR_BUDGET + n - 1

    def test_row_sums_take_the_magnitude_of_a_signed_profile(self):
        # a user profile with F(0) = 1 that takes negative values: the row
        # sums are sums of |F|, so |Q - 1| <= (2/n) * (sum of the row sums)
        user = RadialProfile("wave", lambda u: math.cos(u) / (1.0 + u * u),
                             PROFILES["cauchy"].closed_form_radius)
        cert = _cached_cert("cauchy", "cos", 0.1, 100)
        pts = cert.points
        values = [[user(pts[i - 1] - yj) for yj in pts[: i - 1]] for i in range(2, cert.n + 1)]
        assert any(v < 0.0 for row in values for v in row)
        rows = offdiag_row_sums(cert, user)
        assert [s for _i, s, _b in rows] == [math.fsum(map(abs, row)) for row in values]
        assert any(s != math.fsum(row) for (_i, s, _b), row in zip(rows, values))
        quad = _quad_form(pts, cert.coefficients, user)
        assert quad == _full_quad_form(pts, cert.coefficients, user)
        # on these lattice points cos(y_i - y_j) carries the sign of
        # c_i c_j, so the bound is met with equality, up to rounding
        assert abs(quad - 1.0) <= 2.0 / cert.n * math.fsum(s for _i, s, _b in rows) * (1 + 1e-12)

    @pytest.mark.parametrize("kernel", sorted(PROFILES))
    def test_support_is_tight(self, kernel):
        profile = PROFILES[kernel]
        s = profile.support
        assert profile(s) == profile(math.nextafter(s, math.inf)) == profile(1e300) == 0.0
        assert profile(math.nextafter(s, -math.inf)) > 0.0


def _collapsible(pts, support):
    """{row: m} by exact rational arithmetic: the rows whose window (the j
    with y_i - y_j < support) holds no negative point, and the m >= 1
    points 0 <= y_j below half the gap under y_i, where that half-gap is a
    double (it is 2^-1075 and no double for y_i <= 2^-1021)."""
    out = {}
    for i, yi in enumerate(pts):
        window = [yj for yj in pts[:i] if yi - yj < support]
        half = (Fraction(yi) - Fraction(math.nextafter(yi, -math.inf))) / 2
        if not window or window[0] < 0.0 or half < Fraction(2) ** -1074:
            continue
        m = sum(1 for yj in window if Fraction(yj) < half)
        if m:
            assert all(yi - yj == yi for yj in window[:m])
            out[i] = m
    return out


def _slow(elementwise=False, support=math.inf, big=None):
    """A user profile F(u) = 1 / (1 + u), which keeps u's every bit in
    sight; it is 0.0 from ``support`` on and ``big`` from 2^50 on, if given."""

    def f(u):
        v = np.where(np.asarray(u) < support, 1.0 / (1.0 + u), 0.0)
        if big is not None:
            v = np.where(np.asarray(u) < 2.0**50, v, big)
        return v if np.ndim(u) else float(v)

    name = "slow-array" if elementwise else "slow"
    return RadialProfile(name, f, PROFILES["cauchy"].closed_form_radius, support, elementwise)


_H = 256.0  # half the gap below 3 * 2^60 and below the doubles up to 2^62
_EDGE_POINTS = {
    # y_j at h, one ulp below and above, under y_i with an even and an odd
    # last bit: the tie y_i - h rounds to 3 * 2^60 from both
    "half-gap": (0.0, 1.0, 255.0, math.nextafter(_H, 0.0), _H, math.nextafter(_H, math.inf),
                 300.0, 3.0 * 2.0**60, 3.0 * 2.0**60 + 512.0, 2.0**62 - 512.0),
    # 2^70's gap below is 2^17, half its gap above: h = 2^16, not 2^17
    "power-of-two": (0.0, 2.0**15, math.nextafter(2.0**16, 0.0), 2.0**16,
                     math.nextafter(2.0**16, math.inf), 1.5 * 2.0**16, 2.0**17, 2.0**70, 2.0**71,
                     2.0**72 - 2.0**19),
    # a subnormal or barely normal y_i collapses nothing, not even 0.0
    "zero-and-subnormal": (0.0, 5e-324, 1e-310, 2.0**-1022, 2.0**-1021, 2.0**-1020, 1e-300, 1.0,
                           2.0**60, 2.0**61),
    # a row whose window holds a negative point keeps every term
    "negative": (-3.0, -5e-324, 0.0, 1.0, 2.0**60, 2.0**61, 2.0**62),
    # m far above 1: m v is no double, m vh and m vl are
    "many-small": tuple(float(k) for k in range(301)) + (3.0 * 2.0**60 + 512.0, 2.0**62 - 512.0,
                                                       2.0**80 * math.pi, 2.0**90 * math.e),
}


class TestCollapsedPrefixes:
    @pytest.mark.parametrize("profile", [PROFILES["cauchy"], _slow(), _slow(elementwise=True)],
                             ids=lambda p: p.name)
    @pytest.mark.parametrize("case", sorted(_EDGE_POINTS))
    def test_edge_cases_keep_every_bit(self, case, profile):
        pts = _EDGE_POINTS[case]
        cert = _certify(profile, TEMPLATES["cos"], 0.1, 0.9, len(pts), pts)
        rows, m, _v = probe._collapsed_prefixes(
            np.array(pts), probe._window_starts(pts, profile.support), profile
        )
        expected = _collapsible(pts, profile.support)
        assert dict(zip(rows.tolist(), m.tolist())) == expected
        assert bool(expected) == (case != "negative")
        got = [(i, s.hex(), b) for i, s, b in offdiag_row_sums(cert, profile)]
        assert got == [(i, s.hex(), b) for i, s, b in _full_offdiag_row_sums(cert, profile)]

    def test_a_negative_point_outside_the_window_does_not_stop_the_collapse(self):
        profile = _slow(support=2.0**40)
        pts = (-(2.0**39), 0.0, 2.0**-20, 2.0**39)  # 2^39 - (-2^39) is the support
        cert = _certify(profile, TEMPLATES["cos"], 0.1, 0.9, len(pts), pts)
        rows, m, _v = probe._collapsed_prefixes(
            np.array(pts), probe._window_starts(pts, profile.support), profile
        )
        assert dict(zip(rows.tolist(), m.tolist())) == _collapsible(pts, profile.support) == {3: 2}
        got = [s.hex() for _i, s, _b in offdiag_row_sums(cert, profile)]
        assert got == [s.hex() for _i, s, _b in _full_offdiag_row_sums(cert, profile)]

    @pytest.mark.parametrize("elementwise", [False, True], ids=["scalar", "elementwise"])
    @pytest.mark.parametrize("big", [math.inf, math.nan, 1e300, 1e-310, 0.0])
    def test_the_guard_steps_aside(self, big, elementwise):
        # the split of inf is NaN, m times 1e300 may overflow, and a
        # subnormal or zero v is no normal double: these rows keep every term
        profile = _slow(elementwise=elementwise, big=big)
        pts = (0.0, 1.0, 2.0, 2.0**60, 2.0**61, 3.0 * 2.0**61)
        cert = _certify(_slow(), TEMPLATES["cos"], 0.1, 0.9, len(pts), pts)
        rows, _m, _v = probe._collapsed_prefixes(
            np.array(pts), probe._window_starts(pts, profile.support), profile
        )
        # rows 1 and 2 collapse the point 0.0; the rows past 2^50 would
        # collapse 0.0, 1.0 and 2.0 but for their v
        assert rows.tolist() == [1, 2]
        assert _collapsible(pts, profile.support) == {1: 1, 2: 1, 3: 3, 4: 3, 5: 3}
        got = [s.hex() for _i, s, _b in offdiag_row_sums(cert, profile)]
        assert got == [s.hex() for _i, s, _b in _full_offdiag_row_sums(cert, profile)]
        assert got[-1] == math.fsum([big] * 5).hex()


def _exact_skipped(pts, coeffs, profile, rows):
    """The exact sum of |term| over rows >= ``rows``: the terms the full
    loop rounds, each fl(fl(2 c_i c_j) F), summed as Fractions."""
    return sum(
        abs(Fraction(2.0 * coeffs[i] * coeffs[j] * profile(pts[i] - pts[j])))
        for i in range(rows, len(pts))
        for j in range(i)
    )


def _spy_fsum_with_rest(monkeypatch):
    """Record what each of probe's fsum_with_rest calls returns, and how
    many terms each was given."""
    seen, sizes = [], []

    def spy(x, rest):
        sizes.append(x.size)
        seen.append(fsum_with_rest(x, rest))
        return seen[-1]

    monkeypatch.setattr(probe, "fsum_with_rest", spy)
    return seen, sizes


class TestTail:
    @pytest.mark.parametrize("kernel", sorted(PROFILES))
    @pytest.mark.parametrize("template", sorted(TEMPLATES))
    def test_perturbed_loaded_certificates(self, tmp_path, kernel, template):
        # the verifier accepts coefficients within 1e-15 of 1/sqrt(n): the
        # tail must keep fsum's bits on those too
        path = tmp_path / "cert.json"
        certificate_to_json(_cached_cert(kernel, template, 0.1, 500), path)
        cert = certificate_from_json(path)
        rng = np.random.default_rng(sorted(PROFILES).index(kernel) * 2 + len(template))
        coeffs = tuple(
            (np.array(cert.coefficients) + rng.uniform(-1e-15, 1e-15, cert.n)).tolist()
        )
        assert coeffs != cert.coefficients
        profile = PROFILES[kernel]
        expected = _full_quad_form(cert.points, coeffs, profile)
        assert _quad_form(cert.points, coeffs, profile) == expected
        res = verify_certificate(dataclasses.replace(cert, coefficients=coeffs),
                                 profile, TEMPLATES[template])
        assert res.ok
        assert res.quad_form == expected

    @pytest.mark.parametrize("kernel", sorted(PROFILES))
    @pytest.mark.parametrize("n", [100, 500])
    def test_bounds_cover_the_rows_they_stand_for(self, kernel, n):
        cert = _cached_cert(kernel, "cos", 0.1, n)
        profile = PROFILES[kernel]
        y = np.array(cert.points)
        bounds = _row_bounds(y, profile).tolist()
        # every row, not only the skipped ones: row i sums |F| to at most b[i-1]
        rows = offdiag_row_sums(cert, profile)
        assert all(s <= b for (_i, s, _budget), b in zip(rows, bounds))
        # rest bounds the exact sum of the skipped terms, and is small
        kept, rest = _tail_rows(y, np.array(cert.coefficients), profile)
        assert kept < n
        assert _exact_skipped(cert.points, cert.coefficients, profile, kept) <= Fraction(rest)
        assert 0.0 < rest <= 2.0**-64 * math.fsum(a * a for a in cert.coefficients)

    @pytest.mark.parametrize("kernel", sorted(PROFILES))
    def test_a_refused_tail_falls_back_to_every_row(self, monkeypatch, kernel):
        # a target of half the diagonal leaves out all but one row, with a
        # bound no rounding can be certified against
        n = 200
        cert = _cached_cert(kernel, "cos", 0.1, n)
        monkeypatch.setattr(probe, "_TAIL_FRACTION", 0.5)
        rows, rest = _tail_rows(
            np.array(cert.points), np.array(cert.coefficients), PROFILES[kernel]
        )
        assert rows == 1 and rest > 0.0
        seen, sizes = _spy_fsum_with_rest(monkeypatch)
        profile, calls = _counting(PROFILES[kernel])
        quad = _quad_form(cert.points, cert.coefficients, profile)
        assert seen == [None] and sizes == [n]  # the diagonal alone
        assert quad == _cached_full(kernel, "cos", 0.1, n)
        assert calls[0] == n - 1 + _pairs_inside(cert.points, profile.support)

    def test_a_near_tie_falls_back_to_every_row(self, monkeypatch):
        # the kept diagonal 1 + 2^-54 + 2^-54 is an exact tie, which rounds
        # to even, 1.0; the left-out pair terms, about 1e-68, tip the full
        # sum above it, to 1 + 2^-52.  No rest > 0 certifies a tie.
        pts = (0.0, 1e30, 2e30)
        coeffs = (1.0, 2.0**-27, 2.0**-27)
        profile = PROFILES["cauchy"]
        expected = _full_quad_form(pts, coeffs, profile)
        assert expected == 1.0 + 2.0**-52
        rows, rest = _tail_rows(np.array(pts), np.array(coeffs), profile)
        assert rows == 1 and 0.0 < rest < 2.0**-64
        seen, _sizes = _spy_fsum_with_rest(monkeypatch)
        assert _quad_form(pts, coeffs, profile) == expected
        assert seen == [None]

    def test_a_profile_without_the_declared_decrease_sums_every_row(self):
        # cos(u) / (1 + u^2) is not decreasing: no gap call, every pair
        user = RadialProfile("wave", lambda u: math.cos(u) / (1.0 + u * u),
                             PROFILES["cauchy"].closed_form_radius)
        assert not user.decreasing
        n = 200
        cert = _cached_cert("cauchy", "cos", 0.1, n)
        pts, coeffs = cert.points, cert.coefficients
        assert _tail_rows(np.array(pts), np.array(coeffs), user) == (n, 0.0)
        profile, calls = _counting(user)
        assert _quad_form(pts, coeffs, profile) == _full_quad_form(pts, coeffs, user)
        assert calls[0] == n * (n - 1) // 2

    @pytest.mark.parametrize("c", [1e-140, 1e140])
    def test_coefficients_out_of_range_sum_every_row(self, c):
        cert = _cached_cert("cauchy", "cos", 0.1, 60)
        coeffs = tuple(c * a for a in cert.coefficients)
        profile = PROFILES["cauchy"]
        assert _tail_rows(np.array(cert.points), np.array(coeffs), profile) == (60, 0.0)
        assert _quad_form(cert.points, coeffs, profile) == _full_quad_form(
            cert.points, coeffs, profile
        )

    @pytest.mark.parametrize("far", [0, 50], ids=["no-cut", "cut"])
    def test_kept_rows_past_the_pair_budget_stream_through_fsum(self, monkeypatch, far):
        # 1 / (1 + u) on unit steps bounds no row small: 200 kept rows hold
        # 19,900 pairs, past the budget.  With 50 points 2^100 apart after
        # them, the tail cuts those rows and keeps the same 200.
        profile = dataclasses.replace(_slow(), decreasing=True)
        pts = tuple(float(k) for k in range(200)) + tuple(2.0**100 * k for k in range(1, far + 1))
        n = len(pts)
        cert = _certify(_slow(), TEMPLATES["cos"], 0.1, 0.9, n, pts)
        rows, rest = _tail_rows(np.array(pts), np.array(cert.coefficients), profile)
        assert rows == 200 and (rest > 0.0) == bool(far)
        assert rows * (rows - 1) // 2 > _PAIR_BUDGET
        seen, _sizes = _spy_fsum_with_rest(monkeypatch)
        counted, calls = _counting(profile)
        quad = _quad_form(pts, cert.coefficients, counted)
        assert seen == []  # never the one-shot array
        assert quad == cert.quad_form == _full_quad_form(pts, cert.coefficients, profile)
        assert calls[0] == n - 1 + n * (n - 1) // 2  # the gaps, then every pair

    def test_the_one_shot_array_holds_the_diagonal_and_the_kept_pairs(self, monkeypatch):
        n = 1000
        cert = _cached_cert("cauchy", "cos", 0.1, n)
        profile = PROFILES["cauchy"]
        rows, _rest = _tail_rows(np.array(cert.points), np.array(cert.coefficients), profile)
        seen, sizes = _spy_fsum_with_rest(monkeypatch)
        assert _quad_form(cert.points, cert.coefficients, profile) == cert.quad_form
        assert seen == [cert.quad_form]
        assert sizes == [n + rows * (rows - 1) // 2] and sizes[0] <= _PAIR_BUDGET + n

    @pytest.mark.parametrize("elementwise", [False, True], ids=["scalar", "elementwise"])
    def test_infinite_pair_terms_fail_verification(self, elementwise):
        # F = inf from u = 2^50 on, on pairs whose coefficients differ in
        # sign: fsum raises on inf - inf, and the form is NaN
        profile = _slow(elementwise=elementwise, big=math.inf)
        pts = (0.0, 1.0, 2.0, 2.0**60, 2.0**61, 3.0 * 2.0**61)
        cert = _certify(profile, TEMPLATES["cos"], 0.1, 0.9, len(pts), pts)
        assert len(set(cert.coefficients)) == 2
        assert math.isnan(cert.quad_form)
        res = verify_certificate(cert, profile, TEMPLATES["cos"])
        assert not res.ok
        assert res.reason == "quad_form_out_of_range"
        assert math.isnan(res.quad_form)


class TestRowBudgets:
    def test_budgets_past_row_1023(self):
        # 2.0**i overflowed from i = 1024 on: the budget is an ldexp now,
        # the same bits up to row 1023, and 0.0 once it underflows
        # Gaussian points 100 pi apart: every F between two of them is 0.0,
        # so the certificate is valid at any size
        n = 1100
        pts = tuple(100.0 * math.pi * k for k in range(1, n + 1))
        cert = _certify(PROFILES["gaussian"], TEMPLATES["cos"], 0.1, 0.9, n, pts)
        assert verify_certificate(cert, PROFILES["gaussian"], TEMPLATES["cos"]).ok
        rows = offdiag_row_sums(cert, PROFILES["gaussian"])
        assert [i for i, _s, _b in rows] == list(range(2, n + 1))
        assert all(s == 0.0 for _i, s, _b in rows)
        for i, _s, b in rows[:1022]:
            assert b == (i - 1) * cert.epsilon / 2.0**i
        assert rows[-1][2] == 0.0  # so row_bounds fail, as s < b cannot hold


def _guarded_cauchy(u):
    """The Cauchy F before it served arrays too, kept as the reference."""
    uu = u * u
    return 1.0 / (1.0 + uu) if math.isfinite(uu) else 0.0


class TestCauchyFormula:
    def test_floats_and_arrays_match_the_guarded_formula(self):
        rng = np.random.default_rng(12)
        us = [
            0.0, 5e-324, 1e-160, 1.0, 2.0**26,
            *rng.uniform(0.0, 2.0**511, 500).tolist(),
            *np.exp2(rng.uniform(-60.0, 511.0, 500)).tolist(),
            math.nextafter(2.0**512, -math.inf), 2.0**512, 1e300, math.inf,
        ]
        f = PROFILES["cauchy"].f
        with np.errstate(over="ignore"):
            on_array = f(np.array(us)).tolist()
        on_floats = [f(u) for u in us]
        reference = [_guarded_cauchy(u) for u in us]
        assert [v.hex() for v in on_array] == [v.hex() for v in reference]
        assert [v.hex() for v in on_floats] == [v.hex() for v in reference]
        # the last finite square still leaves a subnormal above zero
        assert 0.0 < reference[-4] < sys.float_info.min
        assert reference[-3:] == [0.0, 0.0, 0.0]


class TestNonFinitePoints:
    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"]
    )
    def test_verifier_names_non_finite_points(self, bad):
        # b <= a is False for a NaN, so (0, 50, nan, 10) once counted as
        # increasing; an infinite point ended in a math domain error
        base = _cached_cert("gaussian", "cos", 0.1, 4)
        cert = dataclasses.replace(base, points=(0.0, 50.0, bad, 10.0))
        res = verify_certificate(cert, PROFILES["gaussian"], TEMPLATES["cos"])
        assert not res.ok
        assert res.reason == "points_not_finite"

    def test_nan_coefficient_fails_magnitude_check(self):
        base = _cached_cert("gaussian", "cos", 0.1, 4)
        cert = dataclasses.replace(base, coefficients=(math.nan,) + base.coefficients[1:])
        res = verify_certificate(cert, PROFILES["gaussian"], TEMPLATES["cos"])
        assert res.reason == "bad_coefficient_magnitude"

    @pytest.mark.parametrize(
        "points",
        [(0.0, math.inf, 2.0), (0.0, math.nan, 2.0), (0.0, 2.0, 1.0), (0.0, 1.0, 1.0), (0.0, 1.0)],
        ids=["inf", "nan", "decreasing", "tie", "too-few"],
    )
    def test_row_sums_reject_points_the_window_cannot_use(self, points):
        base = _cached_cert("laplace", "cos", 0.1, 3)
        cert = dataclasses.replace(base, points=points)
        with pytest.raises(DomainError):
            offdiag_row_sums(cert, PROFILES["laplace"])


class TestLoaderRules:
    @pytest.mark.parametrize(
        "field, value",
        [
            # the CLI tests cover epsilon 5.0, delta 0.0 and n 5.7
            ("epsilon", 0.0), ("epsilon", 1.0), ("epsilon", math.nan),
            ("delta", 1.0), ("delta", math.inf), ("delta", -0.5),
            ("n", 5.0), ("n", "5"), ("n", True), ("n", math.inf),
            ("quad_form", 10**400),  # an integer past the double range
        ],
    )
    def test_rejects_values_the_builder_cannot_produce(self, tmp_path, field, value):
        path = tmp_path / "cert.json"
        certificate_to_json(_cached_cert("gaussian", "cos", 0.1, 5), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            certificate_from_json(path)

    @pytest.mark.parametrize("field", ["kernel", "template"])
    @pytest.mark.parametrize("name", [["gaussian"], {"cos": 1}], ids=["list", "object"])
    def test_rejects_a_name_that_is_not_a_string(self, tmp_path, field, name):
        # an unhashable name raised TypeError in the table lookup
        path = tmp_path / "cert.json"
        certificate_to_json(_cached_cert("gaussian", "cos", 0.1, 5), path)
        doc = json.loads(path.read_text())
        doc[field] = name
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match=f"names unknown {field}"):
            certificate_from_json(path)

    @pytest.mark.parametrize("field", ["points", "coefficients"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_values(self, tmp_path, field, bad):
        path = tmp_path / "cert.json"
        certificate_to_json(_cached_cert("gaussian", "cos", 0.1, 5), path)
        doc = json.loads(path.read_text())
        doc[field][2] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match="non-finite"):
            certificate_from_json(path)
