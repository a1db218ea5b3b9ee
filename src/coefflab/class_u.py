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
series.series_reciprocal, on the tuple of z/f's coefficients and checks the
result finite once, with no TruncatedSeries built on the way in or out;
u_coefficients and the report's map oracle both read its gaps.

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
One rejection loop feeds it, _sample_rows, from a uniform source
draw(todo, width): either one Generator for every row (_generator_draw, one
rng.random call per round), as sample_point and the report's map oracle draw,
or one stream per row, as a campaign draws its restarts from
search._restart_draw.  _point and _rows convert
between a point and its row of 8 floats [re a2, im a2, re c1, ..., im c3], the
form the sampler and search use.  These conditions are necessary, not
sufficient, so the region is a relaxation of the true class: suprema computed
over it are upper evidence, never membership proofs.
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


def pull_back(z: np.ndarray, m: np.ndarray | None = None) -> None:
    """Pull points into the region in place; elementwise.  z is entry-first:
    z[0], z[1], z[2], z[3] hold a2, c1, c2, c3 over any trailing shape, one
    point of shape (4,) or the search's proposals of shape (4, chains, moves).

    The package's one projection, behind project_feasible and the search's
    pull-back of every proposal.  One pass: the moduli of all four entries
    (m when given, which must equal np.hypot(z.real, z.imag) bit for bit:
    the search passes the moduli it shares between a chain's proposals),
    then the radii in order (A2_RADIUS, the c1 radius, then the c2 and c3
    bounds clamped at 0), in which a shrunk entry's bound stands in for its
    modulus, so once c1 reaches the unit circle the tail is exactly zero at
    every phase; then one multiply by the factor min(radius / modulus, 1),
    which is radius / modulus where the modulus exceeds the radius and
    exactly 1 elsewhere, 0 / 0 (a NaN, which fmin drops) and a quotient that
    overflows included: a no-op, bit for bit, when a2 = 0, though a zero part
    may change sign.  No slack: a rescaled entry may land an ulp above its
    bound, inside FEASIBILITY_TOL.  The caps are not projected onto;
    within_caps checks them.
    """
    if m is None:
        m = np.hypot(z.real, z.imag)
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
    pull_back(z)
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
    a2 = 0: region points as rows of 8 floats, and whether each respects the
    class coefficient caps.

    The discs are drawn in order, a2, c1, c2, c3, each area-uniform from two
    uniforms in turn, radius sqrt(u) then angle 2 pi u, on the radius the
    earlier entries leave open (the c2 and c3 bounds clamped at 0).
    """
    x = np.zeros(u.shape[:-1] + (8,))
    first = 4 - u.shape[-1] // 2  # 1 when a2 = 0, whose two floats stay +0.0
    scale = np.sqrt(u[..., 0::2])
    theta = 2.0 * math.pi * u[..., 1::2]
    cos, sin = np.cos(theta), np.sin(theta)

    def disc(k: int, radius) -> np.ndarray:
        # entry k on its disc; returns the entry's modulus
        r = radius * scale[..., k - first]
        x[..., 2 * k], x[..., 2 * k + 1] = r * cos[..., k - first], r * sin[..., k - first]
        return np.hypot(x[..., 2 * k], x[..., 2 * k + 1])

    if first == 0:
        disc(0, A2_RADIUS)
    m1 = disc(1, _C1_RADIUS)
    m2 = disc(2, np.maximum(_c2_bound(m1), 0.0))
    disc(3, np.maximum(_c3_bound(m1, m2), 0.0))
    z = x.view(complex)
    return x, within_caps(*coefficient_quintet(z[..., 0], z[..., 1], z[..., 2], z[..., 3]))


def _check_a2_mode(a2_mode: str) -> None:
    """The one check that a2_mode names a mode of the region, else ValueError."""
    if a2_mode not in A2_MODES:
        raise ValueError(f"a2_mode must be one of {A2_MODES}, got {a2_mode!r}")


def _sample_rows(draw, n: int, a2_mode: str = "free") -> np.ndarray:
    """n region points as rows of 8 floats [re a2, im a2, re c1, ..., im c3],
    from the uniform source draw.  Each round takes one attempt for every row
    still missing its point, through one _region_rows call: draw(todo, width)
    returns a (len(todo), width) array of uniforms for the rows todo, two per
    disc (a2's skipped in zero mode, width 6 instead of 8).  Rows whose
    attempt breaks a cap are drawn again in the next round.
    """
    _check_a2_mode(a2_mode)
    width = 8 if a2_mode == "free" else 6
    x = np.empty((n, 8))
    todo = np.arange(n)
    while len(todo):
        got, ok = _region_rows(draw(todo, width))
        x[todo[ok]] = got[ok]
        todo = todo[~ok]
    return x


def _generator_draw(rng: np.random.Generator):
    """rng as one uniform source for every row of _sample_rows: each round is
    one rng.random call, which consumes the stream exactly as one
    rng.random(width) call per attempt, in row order, would.  So n rows drawn
    from it are the points of n sample_point calls on rng, in another order,
    and rng is left where those calls leave it.
    """
    return lambda todo, width: rng.random((len(todo), width))


def _point(row: np.ndarray) -> UParamPoint:
    """A row of 8 floats as a region point."""
    a2, c1, c2, c3 = (complex(v) for v in row.view(complex))
    return UParamPoint(a2, SchwarzParams(c1, c2, c3))


def _rows(points) -> np.ndarray:
    """Points as rows of 8 floats, the inverse of _point."""
    return np.array([(p.a2, p.schwarz.c1, p.schwarz.c2, p.schwarz.c3) for p in points],
                    dtype=complex).view(float)


def sample_point(rng: np.random.Generator, a2_mode: str = "free") -> UParamPoint:
    """Draw a region point: a2 on its disc (skipped in zero mode), then c1,
    then c2 and c3 on the discs the earlier draws leave open.

    Draws violating a class coefficient cap are rejected and redrawn from the
    same stream, which keeps the construction deterministic per stream.  In
    zero mode the caps can never bind, so the first draw is returned.  The
    one-row call of _sample_rows with rng as its source (_generator_draw).
    """
    return _point(_sample_rows(_generator_draw(rng), 1, a2_mode)[0])


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
    z = _rows((point,)).view(complex).T  # one point, entry-first as the search scores it
    if not within_caps(*coefficient_quintet(*z))[0]:
        return "violates a class coefficient cap"
    return None


def _coefficient_routes(a2: complex, c1: complex, c2: complex, c3: complex,
                        m: int) -> tuple[tuple, tuple, tuple]:
    """a1..am two ways: the polynomial map's a1..a5 (the first m of them), the
    series reciprocal of z/f = 1 - a2 z - c1 z^2 - c2 z^3 - c3 z^4 (cut or
    zero-padded to order m-1), f/z = a1 + a2 z + ...; and |map - series| at
    each shared ak.  A series that overflows raises ValueError.
    """
    lead = (1 + 0j, -a2, -c1, -c2, -c3)
    series = _reciprocal(lead[:m] if m <= 5 else lead + (0j,) * (m - 5))
    _require_finite(series)
    direct = (1.0, a2, *coefficient_quintet(a2, c1, c2, c3))[:m]
    return direct, series, tuple(map(abs, map(operator.sub, direct, series)))


def u_coefficients(pt: UParamPoint, m: int = 5) -> CoefficientWindow:
    """Window (a1..am) for a parameter point.

    The polynomial map and the series-inversion route (_coefficient_routes)
    must agree to MAP_AGREEMENT_TOL on a1..a5, else CrossCheckFailed is
    raised, naming the first ak that disagrees (a NaN gap disagrees); for
    m <= 5 the polynomial values are returned, for larger m the series
    route's.  m that is not an integer >= 1 raises ValueError.
    """
    m = _integer("m", m, 1)
    p = pt.schwarz
    direct, series, gaps = _coefficient_routes(pt.a2, p.c1, p.c2, p.c3, m)
    if not all(map(MAP_AGREEMENT_TOL.__ge__, gaps)):
        k = next(k for k, gap in enumerate(gaps) if not gap <= MAP_AGREEMENT_TOL)
        raise CrossCheckFailed(
            f"coefficient routes disagree at a{k + 1}: {direct[k]} vs {series[k]}")
    return CoefficientWindow(direct if m <= 5 else series)


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
    return _SQRT2 * z - cmath.log(1.0 + _ALPHA * z)


def _f4(z: complex) -> complex:
    return z / (1.0 - z * _omega_slow_growth(z))


@dataclass(frozen=True)
class CatalogEntry:
    """A named reference function with its window and parameters."""

    name: str
    evaluator: Callable[[complex], complex]
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


def named_evaluator(name: str) -> Callable[[complex], complex]:
    """Catalog evaluators plus the documented non-member specimen 'z+2z3'."""
    if name == "z+2z3":
        return _non_member_specimen
    return catalog(name).evaluator


@dataclass(frozen=True)
class DefectReport:
    """Largest sampled defect |(z/f)^2 f'(z) - 1| and the first sample, in
    grid order, that ties it to ARGMAX_TIE_TOL."""

    max_defect: float
    argmax: complex


def membership_max_defect(
    evaluator: Callable[[complex], complex],
    radii: Iterable[float],
    samples_per_circle: int = DEFAULT_SAMPLES,
) -> DefectReport:
    """Sample the defect on circles of the given radii.

    The defect is taken on g = z/f through the identity
    (z/f)^2 f' - 1 = g - z g' - 1, with g' from a central difference of g at
    step FD_STEP_SCALE * r along the real direction (direction is irrelevant
    for an analytic g).  g stays finite where f has a pole, so the step may
    reach past one.  A value below 1 everywhere is numerical membership
    evidence only; a value above 1 at any sample is a concrete
    non-membership witness.

    The argmax is the first sample in grid order (radius order, then k)
    whose defect ties the maximum to ARGMAX_TIE_TOL, so it does not move
    with the rounding of a flat defect.

    Raises ValueError if a radius lies outside (0, 1) or is so small that its
    step underflows to 0, if samples_per_circle is not an integer >= 8 or if
    more than MEMBERSHIP_SAMPLE_CAP samples are asked for in total, and
    EvaluationFailure if f fails or vanishes at a sample or the defect is
    non-finite there.
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

    points: list[complex] = []
    defects: list[float] = []
    tau = 2.0 * math.pi
    # the unit circle at each angle, taken once and shared by every radius
    theta = [tau * k / samples_per_circle for k in range(samples_per_circle)]
    cos, sin = list(map(math.cos, theta)), list(map(math.sin, theta))
    for r in radii:
        h = FD_STEP_SCALE * r
        two_h = 2.0 * h
        for c, s in zip(cos, sin):
            z = complex(r * c, r * s)
            try:
                g = z / evaluator(z)
                gp = (z + h) / evaluator(z + h)
                gm = (z - h) / evaluator(z - h)
            except (ZeroDivisionError, OverflowError, ValueError) as exc:
                # f vanishes, or a pole or log branch point sits on the grid
                raise EvaluationFailure(f"evaluator failed near z = {z}: {exc}") from exc
            defect = abs(g - z * (gp - gm) / two_h - 1.0)
            if not math.isfinite(defect):
                raise EvaluationFailure(f"non-finite defect at z = {z}")
            points.append(z)
            defects.append(defect)
    best = max(defects)
    floor = best - ARGMAX_TIE_TOL * max(1.0, best)
    where = next(z for z, defect in zip(points, defects) if defect >= floor)
    return DefectReport(max_defect=best, argmax=where)
