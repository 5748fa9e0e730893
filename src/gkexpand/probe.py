"""Executable impossibility probes for decaying radial kernels.

Given a radial profile F (with F(0) = 1, F -> 0) and a bounded periodic
function psi that stays away from zero on a point lattice, one can pick
points y_1 < y_2 < ... so far apart that the quadratic form
sum a_i a_j F(|y_i - y_j|) with a_i = +-1/sqrt(n) pins itself inside
(1 - eps, 1 + eps), while (sum a_i psi(y_i))^2 grows like n * delta^2.
Any expansion weight lambda attached to such a psi is then squeezed below
(1 + eps) / (n delta^2) -- the numerical shadow of the fact that no such
kernel admits a summable expansion with uniformly bounded basis functions.

The full quantifier chain of that impossibility statement is not finitely
executable; what this module certifies is the per-(F, psi, eps, n)
instance, from the stored points and coefficients alone.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConstructionError, DomainError

__all__ = [
    "RadialProfile",
    "PsiTemplate",
    "ProbeCertificate",
    "VerificationResult",
    "PROFILES",
    "TEMPLATES",
    "decay_radius",
    "build_certificate",
    "verify_certificate",
    "offdiag_row_sums",
    "implied_weight_bound",
    "certificate_to_json",
    "certificate_from_json",
]

_PI = math.pi

# Beyond this magnitude, stepping between multiples of pi stalls in double
# precision (k + 1 == k), so candidate scanning switches to ulp steps.
_LATTICE_LIMIT = 1e15


@dataclass(frozen=True, slots=True)
class RadialProfile:
    """A decaying radial kernel profile F with F(0) = 1.

    ``support`` is a declared fact: f(u) == 0.0 for every u >= support.
    The pair sums skip every pair at or beyond it.  The default, inf,
    claims only f(inf) == 0.0, the limit of any decaying profile, so every
    pair of finite points whose difference does not overflow is evaluated.

    ``elementwise`` is a declared fact too: f also accepts a float64 array
    and returns, element by element, the bits it returns on each float.
    The pair sums then call f once per block of pairs, with numpy's
    overflow warnings off; otherwise they call f once per pair, on floats.
    """

    name: str
    f: Callable[[float], float]
    closed_form_radius: Callable[[float], float]
    support: float = math.inf
    elementwise: bool = False

    def __call__(self, u: float) -> float:
        return self.f(u)


# Gaussian and Laplace stay scalar: np.exp differs from math.exp in the
# last bit on some arguments, which would move certificate bytes.
def _gauss(u: float) -> float:
    return math.exp(-u * u) if u * u < 745.0 else 0.0


def _laplace(u: float) -> float:
    return math.exp(-u) if u < 745.0 else 0.0


def _cauchy(u: float | np.ndarray) -> float | np.ndarray:
    # pure IEEE arithmetic, so floats and float64 arrays get the same bits;
    # once u * u overflows to inf, 1 / (1 + inf) is exactly 0.0
    return 1.0 / (1.0 + u * u)


PROFILES: dict[str, RadialProfile] = {
    # the float square of sqrt(745.0) is >= 745.0, _gauss's zero branch
    "gaussian": RadialProfile(
        "gaussian", _gauss, lambda t: math.sqrt(math.log(1.0 / t)), math.sqrt(745.0)
    ),
    "laplace": RadialProfile("laplace", _laplace, lambda t: math.log(1.0 / t), 745.0),
    # from 2^512 on, u * u overflows to inf and _cauchy returns 0.0
    "cauchy": RadialProfile(
        "cauchy", _cauchy, lambda t: math.sqrt(1.0 / t - 1.0), 2.0**512, elementwise=True
    ),
}


@dataclass(frozen=True, slots=True)
class PsiTemplate:
    """Bounded periodic candidate function with a lattice of peak points.

    ``value`` evaluates the template; ``lattice_pitch`` is the spacing of
    its peak lattice (used for candidate scanning).  Any user template with
    these two ingredients plugs into the builder.
    """

    name: str
    value: Callable[[float], float]
    lattice_pitch: float
    lattice_offset: float


def _square_wave(x: float) -> float:
    return 1.0 if math.fmod(x, 2.0 * _PI) < _PI else -1.0


TEMPLATES: dict[str, PsiTemplate] = {
    # peaks of |cos| sit on multiples of pi
    "cos": PsiTemplate("cos", math.cos, _PI, 0.0),
    # square wave of period 2 pi, sampled mid-plateau
    "square": PsiTemplate("square", _square_wave, _PI, _PI / 2.0),
}


def decay_radius(profile: RadialProfile, threshold: float) -> float:
    """Smallest radius beyond which F stays below the threshold.

    Closed forms for the built-ins; a threshold >= 1 is satisfied from 0 on
    (F(0) = 1 is the global maximum), so 0 is returned.
    """
    if not threshold > 0.0:
        raise DomainError("threshold must be positive")
    if threshold >= 1.0:
        return 0.0
    r = profile.closed_form_radius(threshold)
    if not math.isfinite(r):
        raise ConstructionError(
            f"decay radius for {profile.name} at threshold {threshold!r} "
            "is not representable in double precision"
        )
    return r


@dataclass(frozen=True)
class ProbeCertificate:
    """Points, coefficients and the two certified quantities."""

    kernel: str
    template: str
    epsilon: float
    delta: float
    n: int
    points: tuple[float, ...]
    coefficients: tuple[float, ...]
    quad_form: float
    lin_form_sq: float


def _next_candidate(template: PsiTemplate, t: float, delta: float) -> float:
    """First template point strictly beyond t with |psi| > delta.

    On the representable lattice range the scan walks the peak lattice;
    beyond it (points out at 1e15 and more, reachable only with the
    Cauchy profile's doubling radii) it walks ulps, where each step moves
    the argument by far more than one period.  Both regimes are
    deterministic; candidates are only emitted if they pass the strict
    |psi| > delta test under the same double evaluation the verifier uses.
    """
    if t < _LATTICE_LIMIT:
        k = math.ceil((t - template.lattice_offset) / template.lattice_pitch)
        while True:
            c = template.lattice_offset + k * template.lattice_pitch
            if c > t and abs(template.value(c)) > delta:
                return c
            k += 1
            if template.lattice_offset + k * template.lattice_pitch > _LATTICE_LIMIT:
                t = _LATTICE_LIMIT  # fall through to the ulp regime
                break
    c = t
    while True:
        c = math.nextafter(c, math.inf)
        if not math.isfinite(c):
            raise ConstructionError("candidate scan left the double range")
        if abs(template.value(c)) > delta:
            return c


def build_certificate(
    profile: RadialProfile,
    template: PsiTemplate,
    epsilon: float,
    n: int,
    delta: float = 0.9,
) -> ProbeCertificate:
    """Greedy constructive instance of the quadratic-form sandwich.

    y_1 is the first template point with |psi| > delta; each later point is
    the first template point beyond y_i + decay_radius(F, eps / 2^(i+1)).
    Coefficient signs follow sign(psi(y_i)).  Both certified quantities are
    computed by the exact pair sum over the pairs inside F's support.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    if n < 1:
        raise DomainError("n must be >= 1")
    pts: list[float] = []
    t = -math.inf
    for i in range(1, n + 1):
        if i == 1:
            t = 0.0
        else:
            gap_threshold = epsilon * 2.0 ** -i
            if gap_threshold == 0.0:
                raise ConstructionError(
                    f"threshold eps/2^{i} underflows; certificate of size {n} "
                    f"is infeasible at eps={epsilon}"
                )
            t = pts[-1] + decay_radius(profile, gap_threshold)
            if not math.isfinite(t):
                raise ConstructionError(
                    f"point {i} overflows double precision for {profile.name}"
                )
        pts.append(_next_candidate(template, t, delta))
    return _certify(profile, template, epsilon, delta, n, tuple(pts))


def _certify(
    profile: RadialProfile,
    template: PsiTemplate,
    epsilon: float,
    delta: float,
    n: int,
    pts: tuple[float, ...],
) -> ProbeCertificate:
    inv_sqrt_n = 1.0 / math.sqrt(n)
    psi_vals = [template.value(y) for y in pts]
    coeffs = tuple(math.copysign(inv_sqrt_n, v) for v in psi_vals)
    quad = _quad_form(pts, coeffs, profile)
    lin = math.fsum(a * v for a, v in zip(coeffs, psi_vals))
    return ProbeCertificate(
        kernel=profile.name,
        template=template.name,
        epsilon=epsilon,
        delta=delta,
        n=n,
        points=pts,
        coefficients=coeffs,
        quad_form=quad,
        lin_form_sq=lin * lin,
    )


# A pair block takes whole rows until it holds at least this many pairs, so
# it never holds more than _PAIR_BUDGET + n - 2 and every numpy temporary of
# a pair pass stays O(_PAIR_BUDGET + n) (one pass over the whole triangle
# raised a Cauchy op's peak memory by about 13% at n = 500).
_PAIR_BUDGET = 8192


def _pair_blocks(pts: tuple[float, ...], profile: RadialProfile):
    """Yield, for consecutive groups of whole rows, (lens, i, j, F): the
    pairs j < i inside F's support as flat index arrays i and j, row after
    row with j rising, F(y_i - y_j) beside them, and the number of pairs of
    each row of the group in ``lens``.

    The points must be finite and strictly increasing.  Then u = y_i - y_j
    is |y_i - y_j|, and since rounding is monotone it never shrinks as j
    falls or i grows: the pairs inside the support form a window [lo, i)
    whose start only moves up, and every F outside it is exactly 0.0.
    numpy's subtraction is correctly rounded, as Python's is, so each u
    has the bits of the scalar y_i - y_j.
    """
    y = np.array(pts)
    f = profile.f
    support = profile.support
    last = len(pts) - 1
    lo = 0
    rows: list[int] = []
    los: list[int] = []
    size = 0
    for i, yi in enumerate(pts):
        while lo < i and yi - pts[lo] >= support:
            lo += 1
        rows.append(i)
        los.append(lo)
        size += i - lo
        if size < _PAIR_BUDGET and i < last:
            continue
        lens = np.subtract(rows, los)
        ii = np.repeat(rows, lens)
        # row r's pairs start at offset starts[r] with j = los[r]
        starts = np.cumsum(lens) - lens
        jj = np.arange(size) + np.repeat(np.subtract(los, starts), lens)
        u = y[ii] - y[jj]
        if profile.elementwise:
            with np.errstate(over="ignore"):
                fu = f(u)
        else:
            fu = np.fromiter(map(f, u.tolist()), float, size)
        yield lens.tolist(), ii, jj, fu
        rows, los, size = [], [], 0


def _quad_form(
    pts: tuple[float, ...], coeffs: tuple[float, ...], profile: RadialProfile
) -> float:
    c = np.array(coeffs)
    c2 = 2.0 * c  # exact, so each term keeps the bits of 2 * ci * cj * F
    terms = [ci * ci for ci in coeffs]  # F(0) = 1
    for _lens, i, j, fu in _pair_blocks(pts, profile):
        terms.extend((c2[i] * c[j] * fu).tolist())
    # fsum is correctly rounded: neither the term order nor the exact
    # zeros left out can move a bit
    return math.fsum(terms)


def _points_fault(pts: tuple[float, ...]) -> str | None:
    """Why the pair sums' support window cannot run on these points, if it
    cannot: it needs them finite and strictly increasing."""
    if not all(math.isfinite(y) for y in pts):
        return "points_not_finite"
    if any(b <= a for a, b in zip(pts, pts[1:])):
        return "points_not_increasing"
    return None


@dataclass(frozen=True, slots=True)
class VerificationResult:
    ok: bool
    reason: str | None
    quad_form: float
    lin_form_sq: float

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(
    cert: ProbeCertificate,
    profile: RadialProfile,
    template: PsiTemplate,
) -> VerificationResult:
    """Recompute both certified quantities from the stored points and
    coefficients and check the strict inequalities.

    Nothing is trusted from the stored scalar fields; floating-point ties
    count as failure.
    """
    n = cert.n
    pts = cert.points
    coeffs = cert.coefficients
    if len(pts) != n or len(coeffs) != n:
        return VerificationResult(False, "size_mismatch", math.nan, math.nan)
    fault = _points_fault(pts)
    if fault:
        return VerificationResult(False, fault, math.nan, math.nan)
    inv_sqrt_n = 1.0 / math.sqrt(n)
    if not all(abs(abs(a) - inv_sqrt_n) <= 1e-15 for a in coeffs):
        return VerificationResult(False, "bad_coefficient_magnitude", math.nan, math.nan)
    quad = _quad_form(pts, coeffs, profile)
    lin = math.fsum(a * template.value(y) for a, y in zip(coeffs, pts))
    lin_sq = lin * lin
    if not (1.0 - cert.epsilon < quad < 1.0 + cert.epsilon):
        return VerificationResult(False, "quad_form_out_of_range", quad, lin_sq)
    if not lin_sq > n * cert.delta * cert.delta:
        return VerificationResult(False, "lin_form_too_small", quad, lin_sq)
    return VerificationResult(True, None, quad, lin_sq)


def offdiag_row_sums(
    cert: ProbeCertificate, profile: RadialProfile
) -> list[tuple[int, float, float]]:
    """Per-row off-diagonal mass against its geometric budget.

    Returns (i, sum_{j<i} |F(y_i - y_j)|, (i-1) eps / 2^i) for i = 2..n,
    1-based as in the gap schedule.  Raises DomainError unless the
    certificate holds n finite, strictly increasing points.
    """
    pts = cert.points
    if len(pts) != cert.n:
        raise DomainError(f"certificate holds {len(pts)} points for n={cert.n}")
    fault = _points_fault(pts)
    if fault:
        raise DomainError(f"certificate points fail the row sums: {fault}")
    sums = []
    for lens, _i, _j, fu in _pair_blocks(pts, profile):
        row = iter(fu.tolist())
        sums.extend(math.fsum(itertools.islice(row, k)) for k in lens)
    return [
        (i, s, (i - 1) * cert.epsilon / 2.0**i)
        for i, s in enumerate(sums, start=1)
        if i >= 2
    ]


def implied_weight_bound(cert: ProbeCertificate) -> float:
    """(1 + eps) / (n delta^2): the ceiling the certificate imposes on any
    expansion weight whose basis function matches the probe along these
    points.  Decreases to 0 as n grows."""
    return (1.0 + cert.epsilon) / (cert.n * cert.delta * cert.delta)


# ----------------------------------------------------------------------
# Serialisation


def certificate_to_json(cert: ProbeCertificate, path: str | Path) -> None:
    doc = {
        "schema_version": 1,
        "kernel": cert.kernel,
        "template": cert.template,
        "epsilon": cert.epsilon,
        "delta": cert.delta,
        "n": cert.n,
        "points": list(cert.points),
        "coefficients": list(cert.coefficients),
        "quad_form": cert.quad_form,
        "lin_form_sq": cert.lin_form_sq,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _is_json_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def certificate_from_json(path: str | Path) -> ProbeCertificate:
    """Load a stored certificate; a malformed file raises DomainError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON or text
        raise DomainError(f"certificate {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"certificate {path} must hold a JSON object")
    if doc.get("schema_version") != 1:
        raise DomainError(f"unsupported certificate schema {doc.get('schema_version')!r}")
    missing = [f.name for f in fields(ProbeCertificate) if f.name not in doc]
    if missing:
        raise DomainError(f"certificate {path} lacks {', '.join(missing)}")
    if doc["kernel"] not in PROFILES:
        raise DomainError(f"certificate {path} names unknown kernel {doc['kernel']!r}")
    if doc["template"] not in TEMPLATES:
        raise DomainError(f"certificate {path} names unknown template {doc['template']!r}")
    if not isinstance(doc["n"], int) or isinstance(doc["n"], bool):
        raise DomainError(f"certificate {path} has n={doc['n']!r}; n must be an integer")
    # float() would also take a string or a bool: "0.1" read as 0.1, true as
    # 1.0, and the string "123" as the points (1.0, 2.0, 3.0)
    for name in ("epsilon", "delta", "quad_form", "lin_form_sq"):
        if not _is_json_number(doc[name]):
            raise DomainError(
                f"certificate {path} holds a malformed value: "
                f"{name}={doc[name]!r} is not a JSON number"
            )
    for name in ("points", "coefficients"):
        if not isinstance(doc[name], list) or not all(map(_is_json_number, doc[name])):
            raise DomainError(
                f"certificate {path} holds a malformed value: "
                f"{name} is not an array of JSON numbers"
            )
    try:
        cert = ProbeCertificate(
            kernel=doc["kernel"],
            template=doc["template"],
            epsilon=float(doc["epsilon"]),
            delta=float(doc["delta"]),
            n=doc["n"],
            points=tuple(float(v) for v in doc["points"]),
            coefficients=tuple(float(v) for v in doc["coefficients"]),
            quad_form=float(doc["quad_form"]),
            lin_form_sq=float(doc["lin_form_sq"]),
        )
    except OverflowError as exc:  # an integer past the double range
        raise DomainError(f"certificate {path} holds a malformed value: {exc}") from exc
    # build_certificate's rules: a certificate outside them is vacuous, and
    # the pair sums' support window needs finite points
    if cert.n < 1:
        raise DomainError(f"certificate {path} has n={cert.n}; n must be >= 1")
    for name in ("epsilon", "delta"):
        if not 0.0 < getattr(cert, name) < 1.0:
            raise DomainError(f"certificate {path} has {name}={doc[name]!r}; it must lie in (0, 1)")
    for name in ("points", "coefficients"):
        if not all(math.isfinite(v) for v in getattr(cert, name)):
            raise DomainError(f"certificate {path} holds a non-finite value in {name}")
    return cert
