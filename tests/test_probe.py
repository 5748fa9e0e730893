"""Impossibility probes: decay radii, certificates, verification."""

import dataclasses
import functools
import json
import math
import sys

import numpy as np
import pytest

from gkexpand.errors import ConstructionError, DomainError
from gkexpand.probe import (
    PROFILES,
    TEMPLATES,
    _PAIR_BUDGET,
    RadialProfile,
    _quad_form,
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


class TestSerialisation:
    def test_round_trip_and_file_verification(self, tmp_path):
        cert = build_certificate(PROFILES["cauchy"], TEMPLATES["cos"], 0.05, 200)
        path = tmp_path / "cert.json"
        certificate_to_json(cert, path)
        back = certificate_from_json(path)
        assert back == cert  # full-precision floats survive the file
        res = verify_certificate(back, PROFILES[back.kernel], TEMPLATES[back.template])
        assert res.ok

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


class TestSupportWindow:
    @pytest.mark.parametrize(
        "kernel, template, eps, n",
        [(k, "cos", eps, n) for k in sorted(PROFILES) for eps in (0.05, 0.1, 0.2)
         for n in (10, 100, 1000)]
        + [(k, "square", 0.1, n) for k in sorted(PROFILES) for n in (100, 1000)],
    )
    def test_bits_match_full_loop(self, kernel, template, eps, n):
        cert = _cached_cert(kernel, template, eps, n)
        profile = PROFILES[kernel]
        expected = _full_quad_form(cert.points, cert.coefficients, profile)
        assert cert.quad_form == expected
        assert _quad_form(cert.points, cert.coefficients, profile) == expected
        assert offdiag_row_sums(cert, profile) == _full_offdiag_row_sums(cert, profile)

    @pytest.mark.parametrize("kernel", sorted(PROFILES))
    def test_f_calls_are_the_pairs_inside_support(self, kernel):
        # bit equality alone cannot see a window that is too wide
        cert = _cached_cert(kernel, "cos", 0.1, 1000)
        profile, calls = _counting(PROFILES[kernel])
        inside = _pairs_inside(cert.points, profile.support)
        _quad_form(cert.points, cert.coefficients, profile)
        assert calls[0] == inside
        calls[0] = 0
        offdiag_row_sums(cert, profile)
        assert calls[0] == inside
        calls[0] = 0
        assert verify_certificate(cert, profile, TEMPLATES["cos"]).ok
        assert calls[0] == inside
        if kernel != "cauchy":  # every Cauchy pair is inside 2^512
            assert inside < 1000 * 999 // 2

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
        profile, calls = _counting(PROFILES["cauchy"])
        _quad_form(cert.points, cert.coefficients, profile)
        assert calls[0] == n * (n - 1) // 2
        # ... and at this n the pairs span several blocks
        assert 0 < calls[1] <= _PAIR_BUDGET + n - 1 < calls[0]

    @pytest.mark.parametrize("kernel", sorted(PROFILES))
    def test_support_is_tight(self, kernel):
        profile = PROFILES[kernel]
        s = profile.support
        assert profile(s) == profile(math.nextafter(s, math.inf)) == profile(1e300) == 0.0
        assert profile(math.nextafter(s, -math.inf)) > 0.0


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
