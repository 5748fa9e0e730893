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
from dataclasses import Field, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConstructionError, DomainError
from .numerics import fsum_segments, fsum_with_rest, half_gap

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

    ``decreasing`` is a declared fact as well: |f| does not increase on
    [0, inf], up to f's own last-bit rounding, that is
    |f(u)| <= |f(v)| + ulp(f(v)) for every 0 <= v <= u.  The quadratic form
    then bounds the rows it leaves out from one f call per gap between
    consecutive points (see ``_quad_form``); without it every row is summed.
    """

    name: str
    f: Callable[[float], float]
    closed_form_radius: Callable[[float], float]
    support: float = math.inf
    elementwise: bool = False
    decreasing: bool = False

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
        "gaussian", _gauss, lambda t: math.sqrt(math.log(1.0 / t)), math.sqrt(745.0),
        decreasing=True,
    ),
    "laplace": RadialProfile(
        "laplace", _laplace, lambda t: math.log(1.0 / t), 745.0, decreasing=True
    ),
    # from 2^512 on, u * u overflows to inf and _cauchy returns 0.0
    "cauchy": RadialProfile(
        "cauchy", _cauchy, lambda t: math.sqrt(1.0 / t - 1.0), 2.0**512, elementwise=True,
        decreasing=True,
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


def _parameter_fault(epsilon: float, delta: float, n: int) -> str | None:
    """Why a certificate with these parameters would be vacuous, if it
    would: the one rule set of the builder, the loader and the verifier."""
    if not 0.0 < epsilon < 1.0:
        return f"epsilon={epsilon!r}; it must lie in (0, 1)"
    if not 0.0 < delta < 1.0:
        return f"delta={delta!r}; it must lie in (0, 1)"
    if delta * delta < 2.0**-1022:  # so (1 + eps) / (n delta^2) stays below 2^1023
        return f"delta={delta!r} is too small: its square underflows below the normal range"
    if n < 1:
        return f"n={n!r}; n must be >= 1"
    return None


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
    fault = _parameter_fault(epsilon, delta, n)
    if fault:
        raise DomainError(fault)
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


# A pair block takes whole rows until it holds at least this many distinct
# pairs (the pairs a row sum collapses are not counted, see
# offdiag_row_sums), so it never holds more than _PAIR_BUDGET + n - 2 and
# every numpy temporary of a pair pass stays O(_PAIR_BUDGET + n) (one pass
# over the whole triangle raised a Cauchy op's peak memory by about 13% at
# n = 500).
_PAIR_BUDGET = 8192


def _values(profile: RadialProfile, u: np.ndarray) -> np.ndarray:
    """F at every element of u: one call on the array for an elementwise
    profile, else one call per float."""
    if profile.elementwise:
        with np.errstate(over="ignore"):
            return profile.f(u)
    return np.fromiter(map(profile.f, u.tolist()), float, u.size)


def _window_starts(pts: tuple[float, ...], support: float) -> np.ndarray:
    """lo[i]: the first j whose pair with i lies inside F's support.

    The points must be finite and strictly increasing.  Then u = y_i - y_j
    is |y_i - y_j|, and since rounding is monotone it never shrinks as j
    falls or i grows: the pairs inside the support form a window [lo, i)
    whose start only moves up, and every F outside it is exactly 0.0.
    """
    lo = 0
    starts = []
    for i, yi in enumerate(pts):
        while lo < i and yi - pts[lo] >= support:
            lo += 1
        starts.append(lo)
    return np.array(starts, dtype=np.int64)


def _pair_blocks(y: np.ndarray, starts: np.ndarray, profile: RadialProfile):
    """Yield, for consecutive groups of whole rows, (lens, i, j, F): the
    pairs starts[i] <= j < i as flat index arrays i and j, row after row
    with j rising, F(y_i - y_j) beside them, and the number of pairs of
    each row of the group in ``lens``.

    With ``_window_starts`` these are the pairs inside F's support.
    numpy's subtraction is correctly rounded, as Python's is, so each u has
    the bits of the scalar y_i - y_j.
    """
    lens_all = np.arange(y.size) - starts
    ends = np.cumsum(lens_all)
    first, done = 0, 0
    while first < y.size:
        # the group ends at the first row that brings it to the budget
        stop = min(int(np.searchsorted(ends, done + _PAIR_BUDGET)) + 1, y.size)
        lens = lens_all[first:stop]
        size = int(ends[stop - 1]) - done
        ii = np.repeat(np.arange(first, stop), lens)
        # row r's pairs start at offset offsets[r] with j = starts[r]
        offsets = np.cumsum(lens) - lens
        jj = np.arange(size) + np.repeat(starts[first:stop] - offsets, lens)
        yield lens, ii, jj, _values(profile, y[ii] - y[jj])
        first, done = stop, done + size


# Rows are left out once their bound is at most this fraction of sum c_i^2,
# far below half an ulp of a form near sum c_i^2, so the certified rounding
# of the kept rows almost always succeeds.
_TAIL_FRACTION = 2.0**-64

# Covers every rounding between the computed tail bound and the sum it
# bounds, for any n < 2^51 (see _tail_rows).
_TAIL_SLACK = 2.0


def _row_bounds(y: np.ndarray, profile: RadialProfile) -> np.ndarray:
    """b[i - 1] = i (|f(g_i)| + 2^-1074) for rows i = 1..n-1, with the gap
    g_i = fl(y_i - y_{i-1}): one f call per gap.

    For a ``decreasing`` profile on finite, strictly increasing points,
    every u_ij = fl(y_i - y_j), j < i, is at least g_i > 0, since rounding
    is monotone; so |F(u_ij)| <= |f(g_i)| (1 + 2^-52) + 2^-1074, and row i's
    i terms sum to at most b[i - 1] up to that factor.
    """
    gaps = np.abs(_values(profile, np.diff(y)))
    return np.arange(1, y.size) * (gaps + 2.0**-1074)


def _tail_rows(y: np.ndarray, c: np.ndarray, profile: RadialProfile) -> tuple[int, float]:
    """(R, rest): rows R..n-1 of the pair triangle (row i holds the pairs
    j < i, 0-based) may be left out of the quadratic form, and rest bounds
    the sum of their terms' magnitudes.  (n, 0.0) leaves nothing out.

    Only for a ``decreasing`` profile, on finite, strictly increasing
    points, with 2^-900 <= M = max c_i^2 <= 2^900.  With u = 2^-53,
    |fl(2 c_i c_j)| <= fl(2M) <= 2M (1 + u) by monotone rounding, so with
    ``_row_bounds`` the term fl(fl(2 c_i c_j) F(u_ij)) is at most
    2M (1 + 5u) (|f(g_i)| + 2^-1074) + 2^-1075, and rows R.. together at
    most 2M (1 + 5u) sum_{i>=R} i (|f(g_i)| + 2^-1074) + n^2 2^-1076.  The
    computed rest is _TAIL_SLACK (2 fl(M) T + n^2 2^-1074), with T the
    suffix sum of the computed row bounds; it falls short of the exact
    expression by a factor of at most 1 - (n + 8)u, which _TAIL_SLACK = 2
    makes up for any n < 2^51.  R is the smallest row whose rest is at
    most _TAIL_FRACTION sum c_i^2.  A NaN or infinite row bound only keeps
    its row: every candidate rest covers exactly the rows it leaves out.
    """
    n = y.size
    if not profile.decreasing or n < 2:
        return n, 0.0
    c_sq = c * c
    top = float(c_sq.max())
    if not 2.0**-900 <= top <= 2.0**900:
        return n, 0.0
    tails = np.cumsum(_row_bounds(y, profile)[::-1])[::-1]  # tails[k]: rows k+1..n-1
    rest = _TAIL_SLACK * (2.0 * top * tails + n * n * 2.0**-1074)
    fits = np.flatnonzero(rest <= _TAIL_FRACTION * float(c_sq.sum()))
    if not fits.size:
        return n, 0.0
    k = int(fits[0])
    return k + 1, float(rest[k])


def _quad_form(
    pts: tuple[float, ...], coeffs: tuple[float, ...], profile: RadialProfile
) -> float:
    """fsum of the terms c_i^2 and 2 c_i c_j F(y_i - y_j), j < i, over the
    pairs inside F's support: the bits of the full double loop.

    Rows past ``_tail_rows``' R are left out, their sum bounded by rest.
    If the kept rows hold at most ``_PAIR_BUDGET`` pairs, ``fsum_with_rest``
    certifies that the rounded sum of them and the diagonal is fsum's value
    over every term.  Otherwise, or if it cannot, math.fsum sums every row,
    one pair block at a time, and where fsum raises (inf - inf, overflow)
    the form is NaN.  A profile that is not ``decreasing`` keeps every row.
    """
    c = np.array(coeffs)
    c2 = 2.0 * c  # exact, so each term keeps the bits of 2 * ci * cj * F
    y = np.array(pts)

    def pair_terms(starts):
        for _lens, i, j, fu in _pair_blocks(y[: starts.size], starts, profile):
            yield c2[i] * c[j] * fu

    # fsum's correctly rounded value: neither the term order nor the exact
    # zeros left out can move a bit
    rows, rest = _tail_rows(y, c, profile)
    starts = _window_starts(pts[:rows], profile.support)
    if (np.arange(rows) - starts).sum() <= _PAIR_BUDGET:
        quad = fsum_with_rest(np.concatenate([c * c, *pair_terms(starts)]), rest)
        if quad is not None:
            return quad
    blocks = itertools.chain([c * c], pair_terms(_window_starts(pts, profile.support)))
    try:
        return math.fsum(itertools.chain.from_iterable(map(np.ndarray.tolist, blocks)))
    except (ValueError, OverflowError):
        return math.nan


def _points_fault(cert: ProbeCertificate) -> str | None:
    """Why the pair sums cannot run on this certificate, if they cannot:
    they need n coefficients and n finite, strictly increasing points."""
    pts = cert.points
    if len(pts) != cert.n or len(cert.coefficients) != cert.n:
        return "size_mismatch"
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
    count as failure.  Parameters outside the builder's rules fail as
    ``parameters_out_of_range`` before any arithmetic.
    """
    if _parameter_fault(cert.epsilon, cert.delta, cert.n):
        return VerificationResult(False, "parameters_out_of_range", math.nan, math.nan)
    fault = _points_fault(cert)
    if fault:
        return VerificationResult(False, fault, math.nan, math.nan)
    n = cert.n
    pts = cert.points
    coeffs = cert.coefficients
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


# Veltkamp's factor 2^27 + 1 splits a double into two halves of at most
# 26 and 27 significant bits
_SPLITTER = 134217729.0

# A collapsed prefix holds fewer pairs than this, so that m times either
# half of the split fits in 53 bits
_COLLAPSE_LIMIT = 2**26


def _collapsed_prefixes(
    y: np.ndarray, starts: np.ndarray, profile: RadialProfile
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, m, terms): the first m[r] pairs of row rows[r] all have
    u = y_i, and terms[r] holds two exact terms that sum to m[r] |F(y_i)|
    (see ``offdiag_row_sums``).  One f call per row that may collapse."""
    # half_gap does not fall as y > 0 grows, so unless the least point
    # >= 0 lies below the last point's half-gap, no row collapses
    z = np.searchsorted(y, 0.0)
    if z == y.size or y[z] >= half_gap(y[-1:])[0]:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 2))
    k = np.minimum(np.searchsorted(y, half_gap(y)), np.arange(y.size))
    m = k - starts
    rows = np.flatnonzero((m > 0) & (m < _COLLAPSE_LIMIT) & (y[starts] >= 0.0))
    v = np.abs(_values(profile, y[rows])) if rows.size else np.empty(0)
    keep = (v >= 2.0**-1022) & (v < 2.0**900)
    rows, m, v = rows[keep], m[rows[keep]], v[keep]
    p = v * _SPLITTER
    vh = p - (p - v)
    return rows, m, np.column_stack((m * vh, m * (v - vh)))


def offdiag_row_sums(
    cert: ProbeCertificate, profile: RadialProfile
) -> list[tuple[int, float, float]]:
    """Per-row off-diagonal mass against its geometric budget.

    Returns (i, sum_{j<i} |F(y_i - y_j)|, (i-1) eps / 2^i) for i = 2..n,
    1-based as in the gap schedule.  Raises DomainError where
    ``_points_fault`` finds a fault.

    Each row sum is fsum's correctly rounded value of the row's terms
    inside F's support (``fsum_segments``), so any exact terms with the
    same exact sum give it bit and sign for bit and sign.  A row's points
    far below y_i are summed that way, from one f call:

    - With h = ``half_gap(y_i)``, every 0 <= y_j < h has
      y_i - h < y_i - y_j <= y_i, strictly within h of y_i, so round to
      nearest gives fl(y_i - y_j) = y_i and the term is v = |F(y_i)|.  h is
      half the gap below y_i: 2^(e-54) for y_i = m 2^e, 1/2 <= m < 1, or
      2^(e-55) when y_i is a power of two, whose gap below is half the gap
      above.  y_j = h itself is a tie and keeps its own term.
    - When the window's first point is >= 0, these j are the window's
      first m pairs, found by one ``searchsorted`` per call.  Their m equal
      terms enter the row as m vh and m vl, with vh = p - (p - v),
      p = (2^27 + 1) v, and vl = v - vh: Veltkamp's split (Dekker, "A
      floating-point technique for extending the available precision",
      1971).  For a normal v < 2^900 no step of it overflows or underflows,
      so vh + vl = v exactly, vh has at most 26 significant bits, and vl at
      most 27, both multiples of v's last place.  With m < 2^26, m vh and
      m vl fit in 53 bits and are exact, and sum to m v exactly.

    A row whose v is not a normal double below 2^900 (inf, NaN, 0.0, a
    subnormal or a huge user value), whose window holds a negative point,
    or whose prefix holds 2^26 pairs or more, keeps every term.  A collapse
    needs y_i > 2^53 y_j, so built Gaussian and Laplace certificates, whose
    points lie between pi/2 and 4e5, never collapse a row.
    """
    fault = _points_fault(cert)
    if fault:
        raise DomainError(f"certificate fails the row sums: {fault}")
    y = np.array(cert.points)
    starts = _window_starts(cert.points, profile.support)
    rows, m, pair = _collapsed_prefixes(y, starts, profile)
    starts[rows] += m
    extra = np.zeros((cert.n, 2))
    extra[rows] = pair
    collapsed = np.zeros(cert.n, dtype=bool)
    collapsed[rows] = True
    sums = []
    first = 0
    for lens, _i, _j, fu in _pair_blocks(y, starts, profile):
        stop = first + lens.size
        terms = np.abs(fu)
        here = collapsed[first:stop]
        if here.any():
            # each collapsed row's two terms go at the end of its segment
            at = np.repeat(np.cumsum(lens)[here], 2)
            terms = np.insert(terms, at, extra[first:stop][here].ravel())
            lens = lens + 2 * here
        sums.extend(fsum_segments(terms, lens).tolist())
        first = stop
    return [
        (i, s, math.ldexp((i - 1) * cert.epsilon, -i))
        for i, s in enumerate(sums, start=1)
        if i >= 2
    ]


def implied_weight_bound(cert: ProbeCertificate) -> float:
    """(1 + eps) / (n delta^2): the ceiling the certificate imposes on any
    expansion weight whose basis function matches the probe along these
    points.  Decreases to 0 as n grows."""
    fault = _parameter_fault(cert.epsilon, cert.delta, cert.n)
    if fault:
        raise DomainError(fault)
    return (1.0 + cert.epsilon) / (cert.n * cert.delta * cert.delta)


# ----------------------------------------------------------------------
# Serialisation


def certificate_to_json(cert: ProbeCertificate, path: str | Path) -> None:
    """The schema version, then every field in declaration order, which
    ``certificate_from_json`` reads back (json writes a tuple as an array)."""
    doc = {"schema_version": 1, **{f.name: getattr(cert, f.name) for f in fields(cert)}}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _field_value(path: str | Path, field: Field, v: object):
    """v, a document's value for this field, checked against the field's
    declared type and converted, else DomainError.  json.loads makes exact
    builtin types, so ``type`` tells a bool from an int and float() never
    sees "0.1", true, or "123" (read as the points (1.0, 2.0, 3.0))."""
    name, kind = field.name, field.type
    if kind == "str":  # the kernel and the template
        if type(v) is not str or v not in {"kernel": PROFILES, "template": TEMPLATES}[name]:
            raise DomainError(f"certificate {path} names unknown {name} {v!r}")
        return v
    if kind == "int":
        if type(v) is not int:
            raise DomainError(f"certificate {path} has {name}={v!r}; {name} must be an integer")
        return v
    malformed = f"certificate {path} holds a malformed value: "
    try:
        if kind == "float":
            if type(v) not in (int, float):
                raise DomainError(f"{malformed}{name}={v!r} is not a JSON number")
            return float(v)
        if type(v) is not list or not all(type(x) in (int, float) for x in v):
            raise DomainError(f"{malformed}{name} is not an array of JSON numbers")
        values = tuple(map(float, v))
    except OverflowError as exc:  # an integer past the double range
        raise DomainError(f"{malformed}{exc}") from exc
    # the pair sums' support window needs finite points
    if not all(map(math.isfinite, values)):
        raise DomainError(f"certificate {path} holds a non-finite value in {name}")
    return values


def certificate_from_json(path: str | Path) -> ProbeCertificate:
    """Load a stored certificate; a malformed file, or one outside the
    builder's rules, raises DomainError."""
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
    cert = ProbeCertificate(
        **{f.name: _field_value(path, f, doc[f.name]) for f in fields(ProbeCertificate)}
    )
    fault = _parameter_fault(cert.epsilon, cert.delta, cert.n)
    if fault:
        raise DomainError(f"certificate {path}: {fault}")
    return cert
