"""Determinant evaluation: hand-computed oracles, then the dual-route check.

Every fixed value below was derived by independent hand or rational
arithmetic on the matrix definition, not read back from the implementation.
"""

import numpy as np
import pytest

from coefflab.functionals import (
    SUPPORTED_CLOSED_FORM_IDS,
    CoefficientWindow,
    DeterminantId,
    UnsupportedId,
    WindowTooShort,
    closed_form,
    closed_form_function,
    det_value,
)

F1 = CoefficientWindow((1, 2j, -3, -4j, 5))
KOEBE = CoefficientWindow((1, 2, 3, 4, 5))
IDENTITY = CoefficientWindow((1, 0, 0, 0, 0))


class TestWindow:
    def test_must_be_normalized(self):
        with pytest.raises(ValueError):
            CoefficientWindow((2, 1))

    @pytest.mark.parametrize(
        "entry", [float("nan"), float("inf"), complex(0, float("-inf")), complex(float("nan"), 1)]
    )
    def test_rejects_non_finite(self, entry):
        with pytest.raises(ValueError, match="finite"):
            CoefficientWindow((1, 2j, entry, 0, 0))

    def test_one_based_accessor(self):
        assert F1.coeff(1) == 1
        assert F1.coeff(4) == -4j
        assert F1.m == 5


class TestDeterminantId:
    def test_parse(self):
        assert DeterminantId.parse("T2,2") == DeterminantId("T", 2, 2)
        h23 = DeterminantId.parse("H2,3")
        assert (h23.kind, h23.q, h23.n) == ("H", 2, 3)
        assert str(DeterminantId.parse(" T3,1 ")) == "T3,1"

    @pytest.mark.parametrize("bad", ["X2,2", "T2", "T0,1", "T2,0", "22", "T-1,2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            DeterminantId.parse(bad)

    @pytest.mark.parametrize(("q", "n"), [(True, 2), (2, True), (np.True_, 1), (2.5, 1),
                                          (1, 2.0), ("2", 2), (0, 1), (2, 0), (-1, 2)])
    def test_constructor_rejects(self, q, n):
        # True used to build "TTrue,2" and evaluate as T1,2; 2.5 built an id
        # that det_value then failed on with TypeError
        with pytest.raises(ValueError, match="must be"):
            DeterminantId("T", q, n)

    def test_numpy_integers_are_plain_ints(self):
        det = DeterminantId("T", np.int64(3), np.uint8(2))
        assert det == DeterminantId("T", 3, 2)
        assert (type(det.q), type(det.n), str(det)) == (int, int, "T3,2")

    def test_min_window(self):
        assert DeterminantId("T", 3, 3).min_window == 5
        assert DeterminantId("T", 2, 2).min_window == 3
        assert DeterminantId("H", 2, 3).min_window == 5
        assert DeterminantId("H", 2, 2).min_window == 4


class TestToeplitzHandValues:
    def test_f1_q3_n1(self):
        # [[1,2i,-3],[2i,1,2i],[-3,2i,1]] expanded by cofactors:
        # 1*(1+4) - 2i*(2i+6i) - 3*(-4+3) = 5 + 16 + 3 = 24
        assert det_value(F1, DeterminantId("T", 3, 1)) == pytest.approx(24)

    def test_q1_is_the_entry(self):
        assert det_value(F1, DeterminantId("T", 1, 1)) == 1
        assert det_value(KOEBE, DeterminantId("T", 1, 3)) == 3

    def test_f1_q3_n3(self):
        assert det_value(F1, DeterminantId("T", 3, 3)) == pytest.approx(-208)

    def test_f1_q2_values(self):
        assert det_value(F1, DeterminantId("T", 2, 2)) == pytest.approx(-13)  # -4 - 9
        assert det_value(F1, DeterminantId("T", 2, 3)) == pytest.approx(25)   # 9 + 16

    def test_f1_q3_n2(self):
        # (a2-a4)(a2^2 - 2 a3^2 + a2 a4) = 6i * (-14) = -84i
        assert det_value(F1, DeterminantId("T", 3, 2)) == pytest.approx(-84j)

    def test_koebe_q4_n1_lu_path(self):
        # rational cofactor expansion of [[1,2,3,4],[2,1,2,3],[3,2,1,2],[4,3,2,1]]
        assert det_value(KOEBE, DeterminantId("T", 4, 1)) == pytest.approx(-20)


class TestHankelHandValues:
    def test_f1_q2_n2(self):
        assert det_value(F1, DeterminantId("H", 2, 2)) == pytest.approx(-1)  # (2i)(-4i) - 9

    def test_identity_q2_n2(self):
        assert det_value(IDENTITY, DeterminantId("H", 2, 2)) == 0

    def test_koebe_q2_n2(self):
        assert det_value(KOEBE, DeterminantId("H", 2, 2)) == pytest.approx(-1)  # 8 - 9

    def test_f1_q2_n3(self):
        assert det_value(F1, DeterminantId("H", 2, 3)) == pytest.approx(1)  # -15 + 16

    def test_koebe_q4_n2_is_singular(self):
        # Hankel matrix of the linear sequence a_k = k has rank 2
        long_koebe = CoefficientWindow(tuple(range(1, 9)))
        assert det_value(long_koebe, DeterminantId("H", 4, 2)) == pytest.approx(0, abs=1e-9)


class TestClosedFormTable:
    def test_the_id_is_its_own_key(self):
        assert not hasattr(DeterminantId("T", 2, 2), "key")

    def test_supported_ids_in_sorted_order(self):
        assert [str(d) for d in SUPPORTED_CLOSED_FORM_IDS] == [
            "H2,2", "H2,3", "T2,2", "T2,3", "T3,1", "T3,2", "T3,3"]

    @pytest.mark.parametrize("det", SUPPORTED_CLOSED_FORM_IDS, ids=str)
    def test_parsed_and_constructed_ids_find_the_same_form(self, det):
        # the table is keyed by the id itself, so equal ids are one key
        parsed = DeterminantId.parse(str(det))
        built = DeterminantId(det.kind, det.q, det.n)
        assert parsed == built and hash(parsed) == hash(built)
        assert closed_form_function(parsed) is closed_form_function(built)


class TestErrors:
    def test_window_too_short_toeplitz(self):
        with pytest.raises(WindowTooShort):
            det_value(CoefficientWindow((1, 2j, -3)), DeterminantId("T", 3, 3))

    def test_window_too_short_hankel(self):
        with pytest.raises(WindowTooShort):
            det_value(CoefficientWindow((1, 0, 0, 0)), DeterminantId("H", 2, 3))

    def test_closed_form_unsupported(self):
        with pytest.raises(UnsupportedId):
            closed_form(KOEBE, DeterminantId("T", 4, 1))
        with pytest.raises(UnsupportedId):
            closed_form_function(DeterminantId("H", 3, 1))

    def test_closed_form_window_too_short(self):
        with pytest.raises(WindowTooShort):
            closed_form(CoefficientWindow((1, 2j)), DeterminantId("T", 2, 2))


class TestClosedFormHandValues:
    def test_identity_t31(self):
        assert closed_form(IDENTITY, DeterminantId("T", 3, 1)) == 1

    def test_f1_all_supported(self):
        expected = {
            "T2,2": -13, "T2,3": 25, "T3,1": 24, "T3,2": -84j, "T3,3": -208,
            "H2,2": -1, "H2,3": 1,
        }
        for det in SUPPORTED_CLOSED_FORM_IDS:
            assert closed_form(F1, det) == pytest.approx(expected[str(det)])


def _random_window(rng) -> CoefficientWindow:
    coeffs = [1.0]
    for _ in range(4):
        r = 5.0 * np.sqrt(rng.random())
        th = 2.0 * np.pi * rng.random()
        coeffs.append(complex(r * np.cos(th), r * np.sin(th)))
    return CoefficientWindow(tuple(coeffs))


def test_closed_form_matches_determinant_on_1000_windows():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        w = _random_window(rng)
        for det in SUPPORTED_CLOSED_FORM_IDS:
            worst = max(worst, abs(closed_form(w, det) - det_value(w, det)))
    assert worst <= 1e-9, f"routes disagree by {worst}"


def test_scaled_window_recomputation():
    # no algebraic scaling law asserted; both routes are simply recomputed
    rng = np.random.default_rng(7)
    w = _random_window(rng)
    for lam in (0.5, 2.0, -1.0):
        scaled = CoefficientWindow((1.0, *(lam * c for c in w.a[1:])))
        for det in SUPPORTED_CLOSED_FORM_IDS:
            assert abs(closed_form(scaled, det) - det_value(scaled, det)) <= 1e-9


def test_det_value_dispatches_both_kinds():
    # Matrices built here from the module docstring's definitions, 1-based:
    # T entry (i, j) = a_{n+|i-j|}, H entry (i, j) = a_{n+i+j-2}.
    rng = np.random.default_rng(11)
    w = CoefficientWindow((1.0, *(complex(*rng.normal(size=2)) for _ in range(7))))
    a = (None,) + w.a
    for q in range(1, 5):
        for n in range(1, 3):
            t = [[a[n + abs(i - j)] for j in range(1, q + 1)] for i in range(1, q + 1)]
            h = [[a[n + i + j - 2] for j in range(1, q + 1)] for i in range(1, q + 1)]
            assert det_value(w, DeterminantId("T", q, n)) == pytest.approx(np.linalg.det(t))
            assert det_value(w, DeterminantId("H", q, n)) == pytest.approx(np.linalg.det(h))
