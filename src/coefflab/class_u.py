"""Parameter region, coefficient map, catalog, and membership evidence for
the function class defined by the defect inequality |(z/f)^2 f'(z) - 1| < 1
on the unit disc.

Every member with second coefficient a2 admits a representation

    z / f(z) = 1 - a2 z - z w(z),

where w is analytic with w(0) = 0 and |w'| <= 1.  Writing
w(z) = c1 z + c2 z^2 + c3 z^3 + ... and inverting the series gives the
coefficient map used throughout:

    a3 = a2^2 + c1
    a4 = c2 + 2 a2 c1 + a2^3
    a5 = c3 + 2 a2 c2 + c1^2 + 3 a2^2 c1 + a2^4

_coefficient_routes is the one place this map is compared with the series
route, in one pass: it runs series._reciprocal, the forward recursion behind
series.series_reciprocal, on the tuple of z/f's coefficients, with no
TruncatedSeries built on the way in or out.  It is elementwise, so it takes
one point as complex scalars or many as arrays: u_coefficients reads its gaps
for one point, after checking the series finite, and the report's map oracle
for its 1000 points in one call.

The search region is the point set (a2, c1, c2, c3) with |a2| <= 2 and the
necessary conditions

    |c1| <= 1
    |c2| <= (1 - |c1|^2) / 2
    |c3| <= (1 - |c1|^2 - 4 |c2|^2 / (1 + |c1|)) / 3

intersected with the class coefficient caps |a3| <= 3, |a4| <= 4, |a5| <= 5
from the ledger.  The caps matter: without them the region admits windows no
class member can produce (for example a2 = 2, c1 = 1 gives |a3| = 5), and
suprema searched over it would drift above the published sharp values.
The region lives here alone, each bound written once: pull_back is its one
projection, within_caps its one cap check, region_violation its one predicate
in either a2 mode (_check_a2_mode refuses any other mode for every caller),
and _region_rows its one sampler, an array transform of uniforms into points.
One rejection loop feeds it, _sample_rows, and the package has one source of
uniforms, _uniforms of the streams (seed, k): SplitMix64 from a key hashed
from (seed, k) (_keys).  A campaign's restart k draws from stream (seed, k),
sample_point from stream (0, k) for a k its Generator draws, and the report's
oracles from streams of their own seeds.  _point and _rows convert between a
point and its complex row [a2, c1, c2, c3], the form the sampler and search
use.  These conditions are necessary, not sufficient, so the region relaxes
the true class: suprema over it are upper evidence, never membership proofs.

Membership evidence comes from membership_max_defect, which samples the
defect on circles in one array pass: three evaluator calls per check, on the
whole grid of samples and on its two shifts by the difference step.  Its
DefectReport carries the verdict, decided here and nowhere else.  So an
evaluator is elementwise on numpy complex arrays; the catalog's and the
non-member specimen's each have one form that serves scalars and arrays.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .bound_calculus import constant
from .functionals import CoefficientWindow, _integer
from .series import _reciprocal, _require_finite

#: Feasibility inequalities are checked with this additive slack.
FEASIBILITY_TOL = 1e-12

#: The two coefficient routes (polynomial map vs series inversion) must agree this well.
MAP_AGREEMENT_TOL = 1e-10

#: Radii of the a2 and c1 discs, from the ledger.
A2_RADIUS, _C1_RADIUS = constant("U.a2max").value, constant("U.c1max").value

#: The a2 modes of the search region: a2 free on its disc, or pinned to 0.
A2_MODES = ("free", "zero")

#: Class coefficient caps on |a3|, |a4|, |a5| from the ledger, with the feasibility slack.
_CAP3, _CAP4, _CAP5 = (constant(f"U.a{k}max").value + FEASIBILITY_TOL for k in (3, 4, 5))

#: Relative step used for central finite differences in the defect check.
FD_STEP_SCALE = 1e-6

#: Samples whose defect lies within ARGMAX_TIE_TOL * max(1, max_defect) of
#: the maximum tie for the argmax.  The central difference carries rounding
#: noise of about 1e-10 to 1e-9 relative (machine epsilon over FD_STEP_SCALE),
#: so on a circle where the defect is flat, such as |z|^2, a tighter
#: tolerance would let that noise pick the sample.
ARGMAX_TIE_TOL = 1e-8

#: Most samples (radii times samples per circle) one defect check may take.
MEMBERSHIP_SAMPLE_CAP = 1_000_000

#: Samples per circle of a defect check unless asked otherwise.
DEFAULT_SAMPLES = 256


class UnknownName(KeyError):
    """Name not present in the function catalog."""


class EvaluationFailure(ArithmeticError):
    """An evaluation failed or gave a non-finite value, e.g. f vanishing on the
    sampling grid, or a window whose determinant overflows."""


class CrossCheckFailed(ArithmeticError):
    """Two independent routes to the same number disagree beyond their tolerance."""


@dataclass(frozen=True)
class SchwarzParams:
    """Leading coefficients (c1, c2, c3) of the bounded-derivative map w; all finite."""

    c1: complex
    c2: complex
    c3: complex

    def __post_init__(self) -> None:
        c1, c2, c3 = complex(self.c1), complex(self.c2), complex(self.c3)
        if not (cmath.isfinite(c1) and cmath.isfinite(c2) and cmath.isfinite(c3)):
            raise ValueError(f"Schwarz coefficients must be finite, got {(c1, c2, c3)}")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c3", c3)


@dataclass(frozen=True)
class UParamPoint:
    """A point (a2, c1, c2, c3) of the parameter region; a2 finite and |a2| <= 2."""

    a2: complex
    schwarz: SchwarzParams

    def __post_init__(self) -> None:
        a2 = complex(self.a2)
        if not cmath.isfinite(a2):
            raise ValueError(f"a2 must be finite, got {a2}")
        if abs(a2) > A2_RADIUS + FEASIBILITY_TOL:
            raise ValueError(f"|a2| = {abs(a2):.17g} exceeds the radius {A2_RADIUS}")
        object.__setattr__(self, "a2", a2)


@dataclass(frozen=True)
class FeasibilityCheck:
    """Outcome of the three-inequality region test.

    ``margins`` holds (bound - |value|) per inequality, so a negative entry
    pinpoints the violated constraint.
    """

    feasible: bool
    margins: tuple[float, float, float]


def _c2_bound(c1_abs):
    """Bound on |c2| once |c1| is fixed, not clamped at zero; elementwise."""
    return 0.5 * (1.0 - c1_abs * c1_abs)


def _c3_bound(c1_abs, c2_abs):
    """Bound on |c3| once |c1| and |c2| are fixed, not clamped at zero; elementwise."""
    return (1.0 - c1_abs * c1_abs - 4.0 * c2_abs * c2_abs / (1.0 + c1_abs)) / 3.0


def schwarz_feasible(p: SchwarzParams) -> FeasibilityCheck:
    """Check the three region inequalities with additive slack FEASIBILITY_TOL.

    Margins are computed from the raw bound expressions, without the clamp
    that pull_back and the sampler apply to a radius, so an infeasible c1
    shows up as a negative first margin rather than a distorted later one.
    """
    c1a, c2a, c3a = abs(p.c1), abs(p.c2), abs(p.c3)
    margins = (_C1_RADIUS - c1a, _c2_bound(c1a) - c2a, _c3_bound(c1a, c2a) - c3a)
    return FeasibilityCheck(all(m >= -FEASIBILITY_TOL for m in margins), margins)


def pull_back(z: np.ndarray, m: np.ndarray) -> None:
    """Pull points into the region in place; elementwise.  z is entry-first:
    z[0], z[1], z[2], z[3] hold a2, c1, c2, c3 over any trailing shape, one
    point of shape (4,) or the search's proposals of shape (4, chains, moves);
    m holds their moduli, which must equal np.hypot(z.real, z.imag) bit for
    bit (the search passes the moduli it shares between a chain's proposals).

    The package's one projection, behind project_feasible and the search's
    pull-back of every proposal.  One pass: the radii in order (A2_RADIUS,
    the c1 radius, then the c2 and c3 bounds clamped at 0), in which a shrunk
    entry's bound stands in for its modulus, so once c1 reaches the unit
    circle the tail is exactly zero at every phase; then one multiply by the
    factor min(radius / modulus, 1), which is radius / modulus where the
    modulus exceeds the radius and exactly 1 elsewhere, 0 / 0 (a NaN, which
    fmin drops) and a quotient that overflows included: a no-op, bit for bit,
    when a2 = 0, though a zero part may change sign.  No slack: a rescaled
    entry may land an ulp above its bound, inside FEASIBILITY_TOL.  The caps
    are not projected onto; within_caps checks them.
    """
    radius = np.empty_like(m)
    radius[0], radius[1] = A2_RADIUS, _C1_RADIUS
    m1 = np.minimum(m[1], _C1_RADIUS)
    radius[2] = np.maximum(_c2_bound(m1), 0.0)
    m2 = np.minimum(m[2], radius[2])
    radius[3] = np.maximum(_c3_bound(m1, m2), 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(radius, m, out=radius)
    z *= np.fmin(radius, 1.0, out=radius)


def project_feasible(p: SchwarzParams) -> SchwarzParams:
    """Feasible input unchanged, anything else through pull_back with a2 = 0.

    The early return on schwarz_feasible makes the map idempotent even where
    a strict shrink lands an ulp above a bound.
    """
    if schwarz_feasible(p).feasible:
        return p
    z = np.array([0, p.c1, p.c2, p.c3], dtype=complex)
    pull_back(z, np.hypot(z.real, z.imag))
    return SchwarzParams(*z[1:])


def within_caps(a3, a4, a5):
    """Whether (a3, a4, a5) respects the class coefficient caps; elementwise.

    The one cap check, always on arrays of coefficient_quintet's values: the
    sampler's attempts, the search kernel's proposals, and region_violation's
    one-row array, so the verdict on a point that the search accepted at the
    slack edge is the search's own, bit for bit (scalar complex arithmetic
    may differ from numpy's in the last bits).
    """
    return (abs(a3) <= _CAP3) & (abs(a4) <= _CAP4) & (abs(a5) <= _CAP5)


def coefficient_quintet(
    a2: complex, c1: complex, c2: complex, c3: complex
) -> tuple[complex, complex, complex]:
    """The polynomial coefficient map (a3, a4, a5).

    Kept as the single source of these expressions: the search hot loop and
    u_coefficients both call it, so their arithmetic is identical.
    """
    a22 = a2 * a2
    a3 = a22 + c1
    a4 = c2 + 2.0 * a2 * c1 + a22 * a2
    a5 = c3 + 2.0 * a2 * c2 + c1 * c1 + 3.0 * a22 * c1 + a22 * a22
    return a3, a4, a5


def _region_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sampler attempts from uniforms of shape (..., 8), or (..., 6) with
    a2 = 0: region points as complex rows [a2, c1, c2, c3], and whether each
    respects the class coefficient caps.

    The discs are drawn in order, a2, c1, c2, c3, each area-uniform from two
    uniforms in turn, radius sqrt(u) then angle 2 pi u, on the radius the
    earlier entries leave open (the c2 and c3 bounds clamped at 0).
    """
    x = np.zeros(u.shape[:-1] + (4,), complex)
    first = 4 - u.shape[-1] // 2  # 1 when a2 = 0, whose parts stay +0.0
    scale = np.sqrt(u[..., 0::2])
    theta = 2.0 * math.pi * u[..., 1::2]
    cos, sin = np.cos(theta), np.sin(theta)

    def disc(k: int, radius) -> np.ndarray:
        # entry k on its disc; returns the entry's modulus
        r = radius * scale[..., k - first]
        x.real[..., k], x.imag[..., k] = r * cos[..., k - first], r * sin[..., k - first]
        return np.hypot(x.real[..., k], x.imag[..., k])

    if first == 0:
        disc(0, A2_RADIUS)
    m1 = disc(1, _C1_RADIUS)
    m2 = disc(2, np.maximum(_c2_bound(m1), 0.0))
    disc(3, np.maximum(_c3_bound(m1, m2), 0.0))
    return x, within_caps(*coefficient_quintet(x[..., 0], x[..., 1], x[..., 2], x[..., 3]))


def _check_a2_mode(a2_mode: str) -> None:
    """The one check that a2_mode names a mode of the region, else ValueError."""
    if a2_mode not in A2_MODES:
        raise ValueError(f"a2_mode must be one of {A2_MODES}, got {a2_mode!r}")


#: SplitMix64's increment, the odd integer nearest 2**64 / golden ratio
#: (Steele, Lea & Flood, OOPSLA 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser of a uint64 array, wrapping mod 2**64."""
    x = (x ^ x >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ x >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return x ^ x >> np.uint64(31)


def _keys(seed: int, ks: np.ndarray) -> np.ndarray:
    """The keys of the streams (seed, ks[i]), the package's one source of
    uniforms: stream (seed, k) is SplitMix64 from the key
    mix(mix(seed) + (k + 1) gamma), 0 <= seed, k < 2**64.  The seed is mixed
    first, so that (s, k + 1) and (s + gamma, k) do not share a key, as they
    would unmixed.  All in uint64 arrays, here and in _uniforms, whose
    wrap-around is the arithmetic mod 2**64 meant.
    """
    with np.errstate(over="ignore"):
        seed_key = _mix(np.array([seed], np.uint64))
        return _mix(seed_key + (ks.astype(np.uint64) + np.uint64(1)) * _GAMMA)


def _uniforms(keys: np.ndarray, first: int, width: int) -> np.ndarray:
    """Uniforms first + 1 .. first + width of the streams with these keys, of
    shape (len(keys), width); the n-th uniform (n = 1, 2, ...) of the stream
    with key K is (mix(K + n gamma) >> 11) * 2**-53.
    """
    with np.errstate(over="ignore"):
        x = keys[:, None] + np.arange(first + 1, first + width + 1, dtype=np.uint64) * _GAMMA
        return (_mix(x) >> np.uint64(11)).astype(float) * 2.0**-53


def _sample_rows(seed: int, ks: np.ndarray, a2_mode: str = "free") -> np.ndarray:
    """Region points as complex rows [a2, c1, c2, c3], of shape (len(ks), 4):
    row i is the first attempt of stream (seed, ks[i]) that respects the caps.
    Attempt r is the stream's uniforms r w + 1 .. (r + 1) w, two per disc (w
    = 8, or 6 in zero mode, which skips a2's), so a row depends only on
    (seed, ks[i]).  Round r takes attempt r of every row still missing its
    point, through one _region_rows call.
    """
    _check_a2_mode(a2_mode)
    width = 8 if a2_mode == "free" else 6
    keys = _keys(seed, ks)
    x = np.empty((len(ks), 4), complex)
    todo, first = np.arange(len(ks)), 0
    while len(todo):
        got, ok = _region_rows(_uniforms(keys[todo], first, width))
        x[todo[ok]] = got[ok]
        todo, first = todo[~ok], first + width
    return x


def _point(row: np.ndarray) -> UParamPoint:
    """A complex row [a2, c1, c2, c3] as a region point."""
    return UParamPoint(row[0], SchwarzParams(*row[1:]))


def _rows(points) -> np.ndarray:
    """Points as complex rows, the inverse of _point."""
    return np.array([(p.a2, p.schwarz.c1, p.schwarz.c2, p.schwarz.c3) for p in points], complex)


def sample_point(rng: np.random.Generator, a2_mode: str = "free") -> UParamPoint:
    """Draw a region point: a2 on its disc (skipped in zero mode), then c1,
    then c2 and c3 on the discs the earlier draws leave open, rejecting
    draws that break a class coefficient cap.

    rng draws one key k with one rng.integers call, and the point is
    _sample_rows' row for stream (0, k): the start of restart k of a
    campaign at seed 0.
    """
    return _point(_sample_rows(0, rng.integers(2**63, size=1), a2_mode)[0])


def region_violation(point: UParamPoint, a2_mode: str) -> str | None:
    """Why point lies outside the a2 mode's search region, None if inside:
    schwarz_feasible, in zero mode a2 == 0 exactly, and the caps.  An
    unknown a2_mode raises ValueError."""
    _check_a2_mode(a2_mode)
    p = point.schwarz
    if not schwarz_feasible(p).feasible:
        return f"violates the region inequalities: {p}"
    if a2_mode == "zero" and point.a2 != 0:
        return f"needs a2 = 0 in zero mode, got a2 = {point.a2}"
    z = _rows((point,)).T  # one point, entry-first as the search scores it
    if not within_caps(*coefficient_quintet(*z))[0]:
        return "violates a class coefficient cap"
    return None


def _coefficient_routes(a2: complex, c1: complex, c2: complex, c3: complex,
                        m: int) -> tuple[tuple, tuple, tuple]:
    """a1..am, m <= 5, two ways: the polynomial map's, the series reciprocal
    of z/f = 1 - a2 z - c1 z^2 - c2 z^3 - c3 z^4 cut to order m-1,
    f/z = a1 + a2 z + ...; and |map - series| at each ak.  Elementwise:
    a2..c3 may be complex scalars or arrays of one shape, and each entry from
    a2 on has their shape (a1 stays scalar).  Nothing is checked finite here;
    the callers check what they read.
    """
    series = _reciprocal((1 + 0j, -a2, -c1, -c2, -c3)[:m])
    direct = (1.0, a2, *coefficient_quintet(a2, c1, c2, c3))[:m]
    return direct, series, tuple(map(abs, map(operator.sub, direct, series)))


def u_coefficients(pt: UParamPoint, m: int = 5) -> CoefficientWindow:
    """Window (a1..am), 1 <= m <= 5, of a parameter point, which fixes a1..a5
    and nothing beyond (a6 needs c4): the polynomial map's values, which the
    series-inversion route (_coefficient_routes) cross-checks.  The routes
    must agree to MAP_AGREEMENT_TOL at each ak, else CrossCheckFailed names
    the first ak that disagrees (a NaN gap disagrees).  A series that
    overflows raises ValueError, and so does m that is not an integer in [1, 5].
    """
    m = _integer("m", m, 1, 6)
    p = pt.schwarz
    direct, series, gaps = _coefficient_routes(pt.a2, p.c1, p.c2, p.c3, m)
    _require_finite(series)
    if not all(map(MAP_AGREEMENT_TOL.__ge__, gaps)):
        k = next(k for k, gap in enumerate(gaps) if not gap <= MAP_AGREEMENT_TOL)
        raise CrossCheckFailed(
            f"coefficient routes disagree at a{k + 1}: {direct[k]} vs {series[k]}")
    return CoefficientWindow(direct)


# ---------------------------------------------------------------------------
# Catalog of reference functions
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_ALPHA = 1.0 / _SQRT2


def _f1(z: complex) -> complex:
    return z / (1.0 - 1j * z) ** 2


def _f2(z: complex) -> complex:
    return z / (1.0 - z * z)


def _f3(z: complex) -> complex:
    return z / (1.0 - 1j * z * z)


def _koebe(z: complex) -> complex:
    return z / (1.0 - z) ** 2


def _omega_slow_growth(z: complex) -> complex:
    # Antiderivative of (alpha + t) / (1 + alpha t) from 0 to z, alpha = 1/sqrt(2).
    # The principal log is safe: Re(1 + alpha z) > 0 whenever |z| < sqrt(2).
    return _SQRT2 * z - np.log(1.0 + _ALPHA * z)


def _f4(z: complex) -> complex:
    return z / (1.0 - z * _omega_slow_growth(z))


@dataclass(frozen=True)
class CatalogEntry:
    """A named reference function with its window and parameters."""

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    window: CoefficientWindow
    param: UParamPoint


def _entry(name, evaluator, window, a2, c) -> CatalogEntry:
    return CatalogEntry(
        name=name,
        evaluator=evaluator,
        window=CoefficientWindow(tuple(window)),
        param=UParamPoint(a2, SchwarzParams(*c)),
    )


# a5 of the slow-growth entry follows from its own expansion:
# c = (1/sqrt2, 1/4, -1/(6 sqrt2)) so a5 = c3 + c1^2 = 1/2 - 1/(6 sqrt2).
_F4_C3 = -1.0 / (6.0 * _SQRT2)
_F4_A5 = 0.5 + _F4_C3

_CATALOG: dict[str, CatalogEntry] = {
    e.name: e
    for e in (
        _entry("identity", lambda z: z, (1, 0, 0, 0, 0), 0, (0, 0, 0)),
        _entry("f1", _f1, (1, 2j, -3, -4j, 5), 2j, (1, 0, 0)),
        _entry("f2", _f2, (1, 0, 1, 0, 1), 0, (1, 0, 0)),
        _entry("f3", _f3, (1, 0, 1j, 0, -1), 0, (1j, 0, 0)),
        # the third region inequality holds with equality at f4's parameters
        _entry("f4", _f4, (1, 0, _ALPHA, 0.25, _F4_A5), 0, (_ALPHA, 0.25, _F4_C3)),
        _entry("koebe", _koebe, (1, 2, 3, 4, 5), 2, (-1, 0, 0)),
    )
}

CATALOG_NAMES: tuple[str, ...] = tuple(_CATALOG)


def catalog(name: str) -> CatalogEntry:
    """Look up a reference function by name; see CATALOG_NAMES."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownName(f"unknown catalog name {name!r}; known: {CATALOG_NAMES}") from None


def _non_member_specimen(z: complex) -> complex:
    # Deliberate non-member: z + 2 z^3 has z/f zeros at z = +-i/sqrt2, so the
    # defect blows up near radius 0.707 and the checker must flag it.
    return z + 2.0 * z * z * z


def named_evaluator(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Catalog evaluators plus the documented non-member specimen 'z+2z3'."""
    if name == "z+2z3":
        return _non_member_specimen
    return catalog(name).evaluator


@dataclass(frozen=True)
class DefectReport:
    """Largest sampled defect |(z/f)^2 f'(z) - 1|, the first sample, in grid
    order, that ties it to ARGMAX_TIE_TOL, and the verdict membership_max_defect
    reads from them, "evidence-member" or "non-member-witness"."""

    max_defect: float
    argmax: complex
    verdict: str


def membership_max_defect(
    evaluator: Callable[[np.ndarray], np.ndarray],
    radii: Iterable[float],
    samples_per_circle: int = DEFAULT_SAMPLES,
) -> DefectReport:
    """Sample the defect on circles of the given radii.

    The defect is taken on g = z/f through the identity
    (z/f)^2 f' - 1 = g - z g' - 1, with g' from a central difference of g at
    step FD_STEP_SCALE * r along the real direction (direction is irrelevant
    for an analytic g).  g stays finite where f has a pole, so the step may
    reach past one.  The verdict is the one rule of the package: a largest
    defect below 1 is "evidence-member", numerical membership evidence only;
    one at or above 1 is "non-member-witness", a concrete witness at argmax.
    The defect does not see a pole of f inside the circle (g = z/f has a
    zero there, not a singularity), so z/(1 - 2z) on the circle of radius 0.9
    reads a largest defect of about 6e-10 and "evidence-member".

    One array pass: the samples form a complex grid of shape
    (len(radii), samples_per_circle), one row per circle, and evaluator is
    called exactly three times, on the grid z and on z + h and z - h, so it
    must be elementwise on numpy complex arrays (as every catalog evaluator
    and the specimen are).  The grid takes numpy's cos and sin, as the
    sampler does; the arithmetic is numpy's, which may round the last bits
    differently from Python's complex scalars.

    The argmax is the first sample in grid order (radius order, then k)
    whose defect ties the maximum to ARGMAX_TIE_TOL, so it does not move
    with the rounding of a flat defect.

    Raises ValueError if a radius lies outside (0, 1) or is so small that its
    step underflows to 0, if samples_per_circle is not an integer >= 8 or if
    more than MEMBERSHIP_SAMPLE_CAP samples are asked for in total, and
    EvaluationFailure if the evaluator raises ZeroDivisionError,
    OverflowError or ValueError, or if the defect is non-finite at a sample
    (f vanishes there, or a pole sits on the grid), naming the first such
    sample in grid order.
    """
    radii = tuple(radii)
    if not radii:
        raise ValueError("need at least one radius")
    if any(not (0.0 < r < 1.0) for r in radii):
        raise ValueError(f"radii must lie strictly inside (0, 1), got {radii}")
    if any(not FD_STEP_SCALE * r > 0.0 for r in radii):
        raise ValueError(f"radii must be large enough that the difference step "
                         f"FD_STEP_SCALE * r is positive, got {radii}")
    samples_per_circle = _integer("samples_per_circle", samples_per_circle, 8)
    if len(radii) * samples_per_circle > MEMBERSHIP_SAMPLE_CAP:
        raise ValueError(
            f"{len(radii)} radii x {samples_per_circle} samples exceeds the cap of "
            f"{MEMBERSHIP_SAMPLE_CAP} samples"
        )

    rr = np.array(radii, float)[:, None]
    h = FD_STEP_SCALE * rr
    # one row per circle, each a multiple of one unit circle
    theta = 2.0 * math.pi * np.arange(samples_per_circle) / samples_per_circle
    z = np.empty((len(radii), samples_per_circle), complex)
    z.real, z.imag = rr * np.cos(theta), rr * np.sin(theta)
    with np.errstate(all="ignore"):
        try:
            d = z / evaluator(z)  # g, then the defect g - z g' - 1 in place
            w = z + h  # each shift built once, as numerator and argument
            dg = w / evaluator(w)
            np.subtract(z, h, out=w)  # z + h's buffer, reused for z - h
            dg -= w / evaluator(w)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise EvaluationFailure(
                f"evaluator failed on the circles of radii {radii}: {exc}") from exc
        dg *= z
        dg /= 2.0 * h  # z g'
        d -= dg
        d -= 1.0
        defects = np.abs(d).ravel()
    finite = np.isfinite(defects)
    if not finite.all():
        # f vanishes, or a pole or log branch point sits on the grid
        raise EvaluationFailure(f"non-finite defect at z = {complex(z.flat[np.argmin(finite)])}")
    best = float(defects.max())
    floor = best - ARGMAX_TIE_TOL * max(1.0, best)
    where = complex(z.flat[np.argmax(defects >= floor)])
    verdict = "evidence-member" if best < 1.0 else "non-member-witness"
    return DefectReport(max_defect=best, argmax=where, verdict=verdict)
