"""Coefficient map, feasibility region, catalog, and the defect checker."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import coefflab.class_u as class_u
from coefflab.series import TruncatedSeries, series_reciprocal
from coefflab.class_u import (
    CATALOG_NAMES,
    CrossCheckFailed,
    EvaluationFailure,
    SchwarzParams,
    UnknownName,
    UParamPoint,
    _c2_bound,
    _c3_bound,
    catalog,
    coefficient_quintet,
    membership_max_defect,
    named_evaluator,
    project_feasible,
    pull_back,
    region_violation,
    sample_point,
    schwarz_feasible,
    u_coefficients,
)

SQRT2 = math.sqrt(2.0)
F1_POINT = UParamPoint(2j, SchwarzParams(1, 0, 0))


def _shrink(c, radius):
    """Radial shrink of complex c onto |c| <= radius; returns (c, |c| after)."""
    m = np.hypot(np.real(c), np.imag(c))
    s = np.divide(radius, m, out=np.ones(np.shape(m)), where=m > radius)
    return c * s, np.minimum(m, radius)


def sequential_pull_back(z):
    """pull_back's definition as four shrinks in turn, a2 then c1, c2, c3, each
    onto the bound the shrunk moduli before it leave: the oracle the one-pass
    pull_back is checked against bit for bit."""
    z[..., 0] = _shrink(z[..., 0], class_u.A2_RADIUS)[0]
    z[..., 1], m1 = _shrink(z[..., 1], class_u._C1_RADIUS)
    z[..., 2], m2 = _shrink(z[..., 2], np.maximum(_c2_bound(m1), 0.0))
    z[..., 3] = _shrink(z[..., 3], np.maximum(_c3_bound(m1, m2), 0.0))[0]


class TestFeasibility:
    def test_extreme_c1(self):
        chk = schwarz_feasible(SchwarzParams(1, 0, 0))
        assert chk.feasible
        assert chk.margins == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_origin(self):
        chk = schwarz_feasible(SchwarzParams(0, 0, 0))
        assert chk.feasible
        assert chk.margins == pytest.approx((1.0, 0.5, 1.0 / 3.0))

    def test_violating_c2(self):
        chk = schwarz_feasible(SchwarzParams(0.5, 0.5, 0))
        assert not chk.feasible
        assert chk.margins[1] == pytest.approx(-0.125)  # 0.375 - 0.5

    def test_phase_invariance(self):
        a = schwarz_feasible(SchwarzParams(0.4j, -0.3, 0.1))
        b = schwarz_feasible(SchwarzParams(0.4, 0.3j, -0.1j))
        assert a.margins == pytest.approx(b.margins)

    def test_limit_helpers(self):
        assert _c2_bound(0.0) == pytest.approx(0.5)
        assert _c2_bound(1.0) == 0.0
        assert _c3_bound(0.0, 0.0) == pytest.approx(1.0 / 3.0)
        # at (1/sqrt2, 1/4) the bound collapses to 1/(6 sqrt2): the slow-growth
        # catalog entry sits exactly on it
        assert _c3_bound(1.0 / SQRT2, 0.25) == pytest.approx(
            (1.0 - 0.5 - 0.25 / (1.0 + 1.0 / SQRT2)) / 3.0
        )
        assert _c3_bound(1.0 / SQRT2, 0.25) == pytest.approx(1.0 / (6.0 * SQRT2))

    def test_margins_are_the_bounds_unclamped(self):
        # past the unit circle the c2 bound goes negative; the margin keeps
        # it, while pull_back clamps the radius at zero
        chk = schwarz_feasible(SchwarzParams(1.5, 0, 0))
        assert not chk.feasible
        assert chk.margins == pytest.approx((-0.5, -0.625, -1.25 / 3.0))


class TestRegionViolation:
    def test_inside(self):
        assert region_violation(F1_POINT, "free") is None
        assert region_violation(catalog("f4").param, "zero") is None

    def test_inequalities(self):
        pt = UParamPoint(0, SchwarzParams(0.5, 0.5, 0))
        assert region_violation(pt, "free").startswith("violates the region inequalities")
        assert region_violation(pt, "zero").startswith("violates the region inequalities")

    def test_zero_mode_needs_a2_exactly_zero(self):
        assert region_violation(F1_POINT, "zero") == "needs a2 = 0 in zero mode, got a2 = 2j"
        near = UParamPoint(5e-13, SchwarzParams(0.3, 0.1, 0.05))
        assert region_violation(near, "free") is None
        assert region_violation(near, "zero").startswith("needs a2 = 0")

    @pytest.mark.parametrize("mode", ["pinned", "Free", None])
    def test_unknown_mode_rejected(self, mode):
        # refused with the sampler's message, not read as free
        with pytest.raises(ValueError, match="a2_mode must be one of"):
            region_violation(catalog("f1").param, mode)

    def test_caps(self):
        # a2 = 2, c1 = 1 meets every inequality but gives |a3| = 5 > 3
        pt = UParamPoint(2, SchwarzParams(1, 0, 0))
        assert schwarz_feasible(pt.schwarz).feasible
        assert region_violation(pt, "free") == "violates a class coefficient cap"


class TestProjection:
    def test_feasible_is_fixed_point(self):
        p = SchwarzParams(0.3, 0.2j, 0.05)
        assert project_feasible(p) == p

    def test_scales_c2(self):
        q = project_feasible(SchwarzParams(0.5, 0.5, 0))
        assert q.c1 == 0.5 and q.c2 == pytest.approx(0.375) and q.c3 == 0

    def test_shrunk_bound_stands_in_for_modulus(self):
        # c2 shrinks onto 0.375, which leaves c3 the radius 1/8 > 0.1; the
        # raw |c2| = 0.5 would leave it only 1/36
        q = project_feasible(SchwarzParams(0.5, 0.5, 0.1))
        assert q.c2 == 0.375 and q.c3 == 0.1

    @pytest.mark.parametrize("c1", [2, 1 + 1j, -3j], ids=["2", "1+1j", "-3j"])
    def test_collapses_tail_when_c1_hits_one(self, c1):
        # exactly zero at every phase of c1, not rounding remnants
        q = project_feasible(SchwarzParams(c1, 0.3 - 0.4j, 0.2))
        assert (q.c1, q.c2, q.c3) == (c1 / abs(c1), 0j, 0j)

    def test_preserves_phase(self):
        q = project_feasible(SchwarzParams(1 + 1j, 0.3 - 0.4j, 0))
        assert cmath.phase(q.c1) == pytest.approx(cmath.phase(1 + 1j))
        # |c1| = 1/sqrt2 leaves c2 the radius 1/4 < |c2| = 1/2
        q = project_feasible(SchwarzParams(0.5 + 0.5j, 0.3 - 0.4j, 0))
        assert abs(q.c2) == pytest.approx(0.25)
        assert cmath.phase(q.c2) == pytest.approx(cmath.phase(0.3 - 0.4j))

    def test_pull_back_clamps_a2_and_keeps_zero_a2(self):
        # free mode: |a2| > 2 is shrunk onto the radius; zero mode: a2 = 0
        # comes back bit for bit, infeasible tail or not
        z = np.array([[2.5j, 1.5, 0.5, 0.25], [0, 1.5, 0.5, 0.25], [0, 0.3, 0.2j, 0.05]])
        zero_a2 = z[1:, 0].tobytes()
        pull_back(z.T)
        assert z[0].tolist() == [2j, 1, 0, 0]
        assert z[1:, 0].tobytes() == zero_a2
        assert z[1].tolist() == [0, 1, 0, 0]
        assert z[2].tolist() == [0, 0.3, 0.2j, 0.05]


#: Rows [a2, c1, c2, c3] at pull_back's edges: signed zeros, points on the
#: circles and bounds, and tails that collapse to a zero radius.
EDGE_ROWS = [
    [0j, 0.3, 0.2j, 0.05],  # a2 = 0 exactly
    [0j, 1.5, 0.5, 0.25],  # |c1| > 1: the tail collapses
    [0j, 1j, 0.3 - 0.4j, 0.2],  # |c1| = 1 exactly: the tail collapses
    [0j, -1, -0.0, 0.1j],
    [2.5j, 1 + 1j, 1, 1],
    [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), -0j],
    [complex(-0.0, -1.0), complex(-0.5, 0.0), complex(0.0, -0.375), complex(-0.0, 0.1)],
    [2, 0.5, 0.375, 0.125],  # every entry on its bound
    [-2j, 1 / SQRT2, 0.25, -1.0 / (6.0 * SQRT2)],  # f4's tail, on its bounds
    [complex(SQRT2, SQRT2), complex(0.6, 0.8), 0, 0],  # on the circles by components
    [0j, 1j, 0j, -0j],  # zero radii with zero entries: 0 / 0
    [0j, 0.3, 0.2j, 5e-324],  # radius / modulus overflows
    # one ulp outside the a2 and c1 circles, and the c2 and c3 bounds
    [np.nextafter(2.0, 3.0), complex(0.0, np.nextafter(1.0, 2.0)), -0j, 0j],
    [2j, 0.5j, np.nextafter(0.375, 1.0), np.nextafter(0.125, 1.0)],
]
EDGE_ROWS_T = np.array(EDGE_ROWS, dtype=complex).T.copy()  # entry-first, one column a row


def masked_factor(m):
    """The radii for moduli m (entry-first) and the factor pull_back took
    through 0.21.0, radius / modulus where the modulus exceeds the radius and
    1 elsewhere by a masked divide: the reference its factor
    min(radius / modulus, 1) is checked against bit for bit."""
    radius = np.empty_like(m)
    radius[0], radius[1] = class_u.A2_RADIUS, class_u._C1_RADIUS
    m1 = np.minimum(m[1], class_u._C1_RADIUS)
    radius[2] = np.maximum(_c2_bound(m1), 0.0)
    m2 = np.minimum(m[2], radius[2])
    radius[3] = np.maximum(_c3_bound(m1, m2), 0.0)
    return radius, np.divide(radius, m, out=np.ones_like(m), where=m > radius)


class TestPullBackOracle:
    """The one-pass pull_back against sequential_pull_back, compared as bytes."""

    @staticmethod
    def assert_same(rows):
        # rows [a2, c1, c2, c3] go in entry-first: as a view of the rows, and
        # as the contiguous planes the search builds
        rows = np.asarray(rows, dtype=complex)
        want = rows.copy()
        sequential_pull_back(want)
        planes = np.moveaxis(rows, -1, 0).copy()
        pull_back(planes)
        pull_back(np.moveaxis(rows, -1, 0))
        assert rows.tobytes() == want.tobytes()
        assert planes.tobytes() == np.moveaxis(want, -1, 0).copy().tobytes()

    def test_random_rows_inside_and_outside(self):
        rng = np.random.default_rng(17)
        scale = rng.choice([0.01, 0.2, 0.5, 1.0, 3.0], size=(4000, 4))
        rows = scale * (rng.normal(size=(4000, 4)) + 1j * rng.normal(size=(4000, 4)))
        pulled = rows[:500].copy()
        sequential_pull_back(pulled)
        pts = [sample_point(rng, mode) for mode in ("free", "zero") for _ in range(500)]
        sampled = [[p.a2, p.schwarz.c1, p.schwarz.c2, p.schwarz.c3] for p in pts]
        self.assert_same(rows)
        self.assert_same(pulled)
        self.assert_same(sampled)
        self.assert_same(rows.reshape(500, 8, 4))  # planes of the search's (entry, chain, move)
        for row in rows[:50]:
            self.assert_same(row)  # one row, as project_feasible passes it

    def test_edge_rows(self):
        self.assert_same(EDGE_ROWS)
        for row in EDGE_ROWS:
            self.assert_same(row)


class TestPullBackFactor:
    """pull_back's factor min(radius / modulus, 1) against masked_factor,
    compared as bytes, on a (4, k) batch and on (4,) points, with the moduli
    passed in and without."""

    def test_edge_rows_reach_every_case_of_the_factor(self):
        m = np.hypot(EDGE_ROWS_T.real, EDGE_ROWS_T.imag)
        radius, _ = masked_factor(m)
        assert ((m == 0) & (radius == 0)).any()  # 0 / 0
        assert ((m > 0) & (radius == 0)).any()  # a zero radius under a non-zero entry
        assert ((m > 0) & (m == radius)).any()  # on the radius
        assert (m == np.nextafter(radius, np.inf)).any()  # one ulp above it
        with np.errstate(over="ignore"):
            assert np.isinf(radius[m > 0] / m[m > 0]).any()  # a quotient that overflows

    # the factor divides 0 by 0 and overflows on the edge rows; no warning may escape
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("moduli", [False, True], ids=["own-moduli", "given-moduli"])
    def test_equals_the_masked_divide(self, moduli):
        rng = np.random.default_rng(29)
        far = 4.0 * (rng.normal(size=(4, 400)) + 1j * rng.normal(size=(4, 400)))
        for batch in (EDGE_ROWS_T, far):
            for z in (batch.copy(), *batch.T.copy()):
                m = np.hypot(z.real, z.imag)
                want = z * masked_factor(m)[1]
                pull_back(z, m if moduli else None)
                assert z.tobytes() == want.tobytes()


_small = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(_small, _small, _small)
def test_projection_feasible_and_idempotent(c1, c2, c3):
    q = project_feasible(SchwarzParams(c1, c2, c3))
    assert schwarz_feasible(q).feasible
    assert project_feasible(q) == q


class TestCoefficientMap:
    def test_rotated_koebe_point(self):
        w = u_coefficients(F1_POINT, 5)
        assert w.a == pytest.approx((1, 2j, -3, -4j, 5))

    def test_origin_gives_identity(self):
        w = u_coefficients(UParamPoint(0, SchwarzParams(0, 0, 0)), 5)
        assert w.a == pytest.approx((1, 0, 0, 0, 0))

    def test_zero_a2_slow_growth_prefix(self):
        # a5 = c3 + c1^2 = 0 + 1/2
        pt = UParamPoint(0, SchwarzParams(1 / SQRT2, 0.25, 0))
        w = u_coefficients(pt, 5)
        assert w.a == pytest.approx((1, 0, 0.7071067811865476, 0.25, 0.5))

    def test_series_path_beyond_a5(self):
        # f1/z = 1/(1-iz)^2 has a_n = n i^(n-1)
        w = u_coefficients(F1_POINT, 8)
        assert w.a == pytest.approx((1, 2j, -3, -4j, 5, 6j, -7, -8j))

    @pytest.mark.parametrize("m", [True, 2.5, "5", 0])
    def test_window_length_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match="m must be"):
            u_coefficients(F1_POINT, m)

    def test_quintet_formulas(self):
        a3, a4, a5 = coefficient_quintet(2j, 1, 0, 0)
        assert (a3, a4, a5) == pytest.approx((-3, -4j, 5))

    def test_a2_radius_enforced(self):
        with pytest.raises(ValueError):
            UParamPoint(2.5, SchwarzParams(0, 0, 0))

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0, float("-inf"))],
                             ids=["nan", "inf", "-infj"])
    def test_non_finite_entries_rejected(self, bad):
        # project_feasible and u_coefficients would otherwise return
        # NaN or report a bad input as a disagreement of the two routes
        for c in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
            with pytest.raises(ValueError, match="finite"):
                SchwarzParams(*c)
        with pytest.raises(ValueError, match="finite"):
            UParamPoint(bad, SchwarzParams(0, 0, 0))

    def test_route_disagreement_raises(self, monkeypatch):
        # drift the series route of _coefficient_routes at a3: its gap shows
        # the drift, and u_coefficients refuses the point
        real = class_u._reciprocal

        def drifted(c):
            a = real(c)
            return a[:2] + (a[2] + 1e-6,) + a[3:]

        monkeypatch.setattr(class_u, "_reciprocal", drifted)
        direct, series, gaps = class_u._coefficient_routes(2j, 1, 0, 0, 5)
        assert direct == (1.0, 2j, -3, -4j, 5) and series[2] == -3 + 1e-6
        assert gaps[2] == pytest.approx(1e-6) and gaps[:2] + gaps[3:] == (0, 0, 0, 0)
        with pytest.raises(CrossCheckFailed, match="a3"):
            u_coefficients(F1_POINT, 5)

    def test_nan_gap_raises(self, monkeypatch):
        # a NaN a4 on the map's side gives a NaN gap, which is a disagreement
        # at a4 even though a1..a3 and a5 agree
        real = class_u.coefficient_quintet

        def poisoned(*args):
            a3, _, a5 = real(*args)
            return a3, complex("nan"), a5

        monkeypatch.setattr(class_u, "coefficient_quintet", poisoned)
        with pytest.raises(CrossCheckFailed, match="a4"):
            u_coefficients(F1_POINT, 5)

    @pytest.mark.parametrize("m", [5, 7])
    def test_overflowing_series_raises(self, m):
        # c1 = 1e200 inverts to a4 = c1^2 = inf: the one finiteness check of
        # the series refuses it with the series' own message
        pt = UParamPoint(0, SchwarzParams(1e200, 0, 0))
        with pytest.raises(ValueError, match=r"^series coefficients must be finite, got \(") as e:
            u_coefficients(pt, m)
        assert type(e.value) is ValueError

    def test_short_window_inverts_only_its_order(self):
        # at m = 3 the series stops at order 2, before the overflow at a4
        # above, so the same point gives a finite window
        assert u_coefficients(UParamPoint(0, SchwarzParams(1e200, 0, 0)), 3).a == (1, 0, 1e200)

    @pytest.mark.parametrize("m", [1, 3, 5, 8])
    def test_routes_share_the_first_five(self, m):
        direct, series, gaps = class_u._coefficient_routes(2j, 1, 0, 0, m)
        assert len(direct) == len(gaps) == min(m, 5) and len(series) == m
        assert max(gaps) <= 1e-15


def test_map_and_series_agree_on_sampled_points():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(300):
        pt = sample_point(rng, "free")
        w = u_coefficients(pt, 5)
        a3, a4, a5 = coefficient_quintet(pt.a2, pt.schwarz.c1, pt.schwarz.c2, pt.schwarz.c3)
        worst = max(worst, abs(w.a[2] - a3), abs(w.a[3] - a4), abs(w.a[4] - a5))
    assert worst <= 1e-10


class TestReferenceArithmetic:
    """The map and the defect check equal their definitions bit for bit (==, not approx)."""

    @staticmethod
    def points(count: int) -> list[UParamPoint]:
        rng = np.random.default_rng(20261019)
        return [sample_point(rng, mode) for mode in ("free", "zero") for _ in range(count)]

    def test_u_coefficients_is_the_polynomial_map(self):
        for pt in self.points(100):
            a2, (c1, c2, c3) = pt.a2, (pt.schwarz.c1, pt.schwarz.c2, pt.schwarz.c3)
            a22 = a2 * a2
            a = (1.0, a2, a22 + c1, c2 + 2.0 * a2 * c1 + a22 * a2,
                 c3 + 2.0 * a2 * c2 + c1 * c1 + 3.0 * a22 * c1 + a22 * a22)
            for m in (1, 3, 5):
                assert u_coefficients(pt, m).a == a[:m]

    def test_u_coefficients_beyond_a5_is_the_series(self):
        for pt in self.points(20):
            p = pt.schwarz
            lead = TruncatedSeries((1.0, -pt.a2, -p.c1, -p.c2, -p.c3, 0.0, 0.0))
            assert u_coefficients(pt, 7).a == series_reciprocal(lead).coeffs

    @pytest.mark.parametrize("name", ["f1", "f4", "koebe", "z+2z3"])
    def test_membership_is_the_per_radius_loop(self, name):
        f = named_evaluator(name)
        radii, samples = (0.3, 0.5, 0.7, 0.9, 0.999), 96
        points, defects = [], []
        for r in radii:
            h = class_u.FD_STEP_SCALE * r
            for k in range(samples):
                theta = 2.0 * math.pi * k / samples
                z = complex(r * math.cos(theta), r * math.sin(theta))
                g, gp, gm = z / f(z), (z + h) / f(z + h), (z - h) / f(z - h)
                points.append(z)
                defects.append(abs(g - z * (gp - gm) / (2.0 * h) - 1.0))
        best = max(defects)
        floor = best - class_u.ARGMAX_TIE_TOL * max(1.0, best)
        argmax = next(z for z, d in zip(points, defects) if d >= floor)
        rep = membership_max_defect(f, radii, samples)
        assert (rep.max_defect, rep.argmax) == (best, argmax)


class TestCatalog:
    def test_names(self):
        assert CATALOG_NAMES == ("identity", "f1", "f2", "f3", "f4", "koebe")

    def test_windows(self):
        assert catalog("identity").window.a == pytest.approx((1, 0, 0, 0, 0))
        assert catalog("f1").window.a == pytest.approx((1, 2j, -3, -4j, 5))
        assert catalog("f2").window.a == pytest.approx((1, 0, 1, 0, 1))
        assert catalog("f3").window.a == pytest.approx((1, 0, 1j, 0, -1))
        assert catalog("koebe").window.a == pytest.approx((1, 2, 3, 4, 5))

    def test_slow_growth_window(self):
        # a5 follows from its own expansion: c3 + c1^2 = 1/2 - 1/(6 sqrt2)
        w = catalog("f4").window
        assert w.coeff(2) == 0
        assert w.coeff(3) == pytest.approx(1 / SQRT2)
        assert w.coeff(4) == pytest.approx(0.25)
        assert w.coeff(5) == pytest.approx(0.5 - 1 / (6 * SQRT2))

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog("f9")
        with pytest.raises(UnknownName):
            named_evaluator("nope")

    def test_params_reproduce_windows(self):
        for name in CATALOG_NAMES:
            entry = catalog(name)
            w = u_coefficients(entry.param, 5)
            assert w.a == pytest.approx(entry.window.a), name

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_evaluator_matches_window_by_fft(self, name):
        # Taylor coefficients recovered from 256 equally spaced samples on
        # |z| = 0.25; geometric aliasing error is far below the 1e-9 contract.
        entry = catalog(name)
        k, r = 256, 0.25
        zs = r * np.exp(2j * np.pi * np.arange(k) / k)
        vals = np.array([entry.evaluator(complex(z)) for z in zs])
        hat = np.fft.fft(vals) / k
        for n in range(1, 6):
            an = hat[n] / r**n
            assert abs(an - entry.window.coeff(n)) <= 1e-9, (name, n)


def test_slow_growth_kernel_against_quadrature():
    # omega1(z) = sqrt2 z - log(1 + z/sqrt2) must equal the line integral of
    # (alpha + t)/(1 + alpha t), alpha = 1/sqrt2, from 0 to z.
    alpha = 1 / SQRT2
    omega1 = lambda z: SQRT2 * z - cmath.log(1 + z / SQRT2)
    rng = np.random.default_rng(424242)
    for _ in range(10):
        r = 0.9 * math.sqrt(rng.random())
        th = 2 * math.pi * rng.random()
        z = complex(r * math.cos(th), r * math.sin(th))
        integrand = lambda s: (alpha + s * z) / (1 + alpha * s * z) * z
        re, _ = quad(lambda s: integrand(s).real, 0, 1, epsabs=1e-12)
        im, _ = quad(lambda s: integrand(s).imag, 0, 1, epsabs=1e-12)
        assert abs(complex(re, im) - omega1(z)) <= 1e-8


class TestMembership:
    def test_rotated_koebe_defect_is_r_squared(self):
        rep = membership_max_defect(catalog("f1").evaluator, (0.99,), 256)
        assert rep.max_defect == pytest.approx(0.9801, abs=1e-5)
        assert rep.max_defect < 1

    def test_koebe_defect(self):
        rep = membership_max_defect(catalog("koebe").evaluator, (0.9,), 256)
        assert rep.max_defect == pytest.approx(0.81, abs=1e-5)

    @pytest.mark.parametrize("r", [0.9, 0.99, 1 - 1e-4, 1 - 1e-5, 1 - 1e-6])
    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "koebe"])
    def test_defect_is_r_squared_up_to_the_pole(self, name, r):
        # The exact defect of these four is |z|^2.  For f2 at r = 1-1e-5 and
        # 1-1e-6 and koebe at 1-1e-6 the step 1e-6 r reaches past the pole of
        # f at z = 1, where only the difference of z/f stays finite.
        rep = membership_max_defect(catalog(name).evaluator, (r,), 512)
        assert rep.max_defect == pytest.approx(r * r, rel=1e-8)
        assert rep.max_defect < 1

    def test_argmax_is_first_tie_in_grid_order(self):
        # f2's defect |z|^2 is flat on each circle, so rounding noise must not
        # pick the sample: the first sample of the outer circle wins
        rep = membership_max_defect(catalog("f2").evaluator, (0.9, 0.99))
        assert rep.argmax == 0.99 + 0j
        assert rep.max_defect == pytest.approx(0.9801, rel=1e-8)

    def test_specimen_flagged_with_witness(self):
        rep = membership_max_defect(named_evaluator("z+2z3"), (0.7,), 256)
        assert rep.max_defect > 1
        # z/f vanishes at +-i/sqrt2, so the blow-up sits on the imaginary axis
        assert abs(rep.argmax.real) < 0.05 and abs(abs(rep.argmax.imag) - 0.7) < 0.05

    def test_catalog_members_pass_both_radii(self):
        for name in CATALOG_NAMES:
            rep = membership_max_defect(catalog(name).evaluator, (0.9, 0.99), 64)
            assert rep.max_defect < 1, name

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            membership_max_defect(catalog("f1").evaluator, (), 64)
        with pytest.raises(ValueError):
            membership_max_defect(catalog("f1").evaluator, (1.0,), 64)
        with pytest.raises(ValueError):
            membership_max_defect(catalog("f1").evaluator, (0.5,), 4)
        # below about 4.9e-318 the step FD_STEP_SCALE * r underflows to 0
        with pytest.raises(ValueError, match="step"):
            membership_max_defect(catalog("f1").evaluator, (0.5, 1e-320), 64)
        rep = membership_max_defect(catalog("f1").evaluator, (1e-300,), 256)
        assert rep.max_defect < 1e-9

    @pytest.mark.parametrize("samples", [16.0, 8.5, "16", None])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(ValueError, match="integer"):
            membership_max_defect(catalog("f1").evaluator, (0.5,), samples)

    def test_integer_like_samples_run(self):
        rep = membership_max_defect(catalog("f1").evaluator, (0.5,), np.int64(16))
        assert rep == membership_max_defect(catalog("f1").evaluator, (0.5,), 16)

    def test_sample_cap(self, monkeypatch):
        monkeypatch.setattr(class_u, "MEMBERSHIP_SAMPLE_CAP", 32)
        membership_max_defect(catalog("f1").evaluator, (0.5, 0.6), 16)
        with pytest.raises(ValueError, match="cap"):
            membership_max_defect(catalog("f1").evaluator, (0.5, 0.6), 17)

    def test_non_finite_evaluator(self):
        with pytest.raises(EvaluationFailure):
            membership_max_defect(lambda z: complex("nan"), (0.5,), 16)

    def test_pole_inside_grid(self):
        # 1/(z - 0.5) style blow-up: f(0.5) = inf on the r=0.5 circle
        evil = lambda z: z / (z - 0.5)
        with pytest.raises(EvaluationFailure):
            membership_max_defect(evil, (0.5,), 16)
