"""Determinant evaluation: hand-computed oracles, then the dual-route check.

Every fixed value below was derived by independent hand or rational
arithmetic on the matrix definition, not read back from the implementation.
"""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

import coefflab.functionals as functionals
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

    def test_must_hold_a1(self):
        with pytest.raises(ValueError, match="at least a1"):
            CoefficientWindow(())

    @pytest.mark.parametrize(
        "entry", [float("nan"), float("inf"), complex(0, float("-inf")), complex(float("nan"), 1)]
    )
    def test_rejects_non_finite(self, entry):
        with pytest.raises(ValueError, match="finite"):
            CoefficientWindow((1, 2j, entry, 0, 0))

    def test_window_holds_a1_to_am_in_order(self):
        assert F1.a[1 - 1] == 1
        assert F1.a[4 - 1] == -4j
        assert len(F1.a) == 5


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

    def test_constructor_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be"):
            DeterminantId("X", 1, 1)

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


def _disc_windows(seed: int, count: int, length: int) -> list[CoefficientWindow]:
    """count windows (1, a2, ..., a_length) with entries area-uniform on the radius-5 disc."""
    rng = np.random.default_rng(seed)
    r = 5.0 * np.sqrt(rng.random((count, length - 1)))
    th = 2.0 * np.pi * rng.random((count, length - 1))
    return [CoefficientWindow((1.0, *map(complex, row))) for row in r * np.exp(1j * th)]


#: The seven identities of the module docstring, in the table's operand order.
REFERENCE_FORMS = {
    "H2,2": lambda a2, a3, a4, a5: a2 * a4 - a3 * a3,
    "H2,3": lambda a2, a3, a4, a5: a3 * a5 - a4 * a4,
    "T2,2": lambda a2, a3, a4, a5: a2 * a2 - a3 * a3,
    "T2,3": lambda a2, a3, a4, a5: a3 * a3 - a4 * a4,
    "T3,1": lambda a2, a3, a4, a5: 1.0 - 2.0 * a2 * a2 + 2.0 * a2 * a2 * a3 - a3 * a3,
    "T3,2": lambda a2, a3, a4, a5: (a2 - a4) * (a2 * a2 - 2.0 * a3 * a3 + a2 * a4),
    "T3,3": lambda a2, a3, a4, a5: (a3 - a5) * (a3 * a3 - 2.0 * a4 * a4 + a3 * a5),
}


def reference_det(w: CoefficientWindow, det: DeterminantId) -> complex:
    """The docstring's matrix, a_k filled in as w.a[k - 1]: expanded along its
    first row for q <= 3, through numpy's LU for larger q."""
    q, n = det.q, det.n
    if det.kind == "T":
        m = [[w.a[n + abs(i - j) - 1] for j in range(q)] for i in range(q)]
    else:
        m = [[w.a[n + i + j - 1] for j in range(q)] for i in range(q)]
    if q > 3:
        return complex(np.linalg.det(np.array(m, dtype=complex)))
    if q == 1:
        return m[0][0]
    if q == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


SMALL_IDS = [DeterminantId(kind, q, n) for kind in "TH" for q in (1, 2, 3) for n in (1, 2, 3)]
LU_IDS = [DeterminantId(kind, q, n) for kind in "TH" for q in (4, 5) for n in (1, 2)]


class TestReferenceArithmetic:
    """Both routes equal their definitions bit for bit (==, not approx)."""

    WINDOWS = _disc_windows(20261019, 200, 7)

    @pytest.mark.parametrize("det", SUPPORTED_CLOSED_FORM_IDS, ids=str)
    def test_closed_form(self, det):
        ref = REFERENCE_FORMS[str(det)]
        for w in self.WINDOWS:
            assert closed_form(w, det) == ref(*w.a[1:5])

    @pytest.mark.parametrize("det", SUPPORTED_CLOSED_FORM_IDS, ids=str)
    def test_closed_form_pads_a_short_window_with_zeros(self, det):
        ref = REFERENCE_FORMS[str(det)]
        for w in self.WINDOWS[:20]:
            short = CoefficientWindow(w.a[:det.min_window])
            padded = short.a + (0j,) * (5 - len(short.a))
            assert closed_form(short, det) == ref(*padded[1:5])

    @pytest.mark.parametrize("det", SUPPORTED_CLOSED_FORM_IDS + tuple(SMALL_IDS), ids=str)
    def test_det_value(self, det):
        for w in self.WINDOWS:
            assert det_value(w, det) == reference_det(w, det)
            exact = CoefficientWindow(w.a[:det.min_window])
            assert det_value(exact, det) == reference_det(exact, det)

    @pytest.mark.parametrize("det", LU_IDS, ids=str)
    def test_det_value_lu_route(self, det):
        # the LU route's matrix is the same layout as the cofactor route's
        for w in _disc_windows(20261020, 50, 10):
            assert det_value(w, det) == reference_det(w, det)
            exact = CoefficientWindow(w.a[:det.min_window])
            assert det_value(exact, det) == reference_det(exact, det)


class TestNoWorkGrowsWithQ:
    """Nothing about an id is built in proportion to q before the window check."""

    SHORT = CoefficientWindow((1, 2, 3))

    @pytest.mark.parametrize("kind", "TH")
    def test_huge_id_fails_at_once(self, kind):
        tracemalloc.start()
        try:
            det = DeterminantId(kind, 10**6, 1)
            with pytest.raises(WindowTooShort):
                det_value(self.SHORT, det)
            with pytest.raises(UnsupportedId):
                closed_form(self.SHORT, det)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("kind", "TH")
    def test_large_q_builds_no_cell_table(self, kind):
        # a per-id table of q^2 cells would take megabytes here
        tracemalloc.start()
        try:
            with pytest.raises(WindowTooShort):
                det_value(self.SHORT, DeterminantId(kind, 1000, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("kind", "TH")
    def test_order_over_the_cap_is_a_value_error(self, kind):
        # at the cap the identity window's matrix is the identity; one order
        # more raises ValueError (exit 2), not WindowTooShort (exit 3)
        cap = functionals._DET_ORDER_CAP
        at, over = DeterminantId(kind, cap, 1), DeterminantId(kind, cap + 1, 1)
        if kind == "T":
            assert det_value(CoefficientWindow((1,) + (0,) * (cap - 1)), at) == 1
        with pytest.raises(ValueError, match=f"above the cap of {cap}") as e:
            det_value(CoefficientWindow((1,) * over.min_window), over)
        assert type(e.value) is ValueError

    @pytest.mark.parametrize("det", SUPPORTED_CLOSED_FORM_IDS, ids=str)
    def test_supported_ids_check_the_window(self, det):
        for route in (closed_form, det_value):
            if det.min_window > 3:
                with pytest.raises(WindowTooShort):
                    route(self.SHORT, det)
            with pytest.raises(WindowTooShort):
                route(CoefficientWindow((1,)), det)


class TestIdentity:
    """What an id resolves for the evaluators never shows in its identity."""

    @staticmethod
    def resolved(det: DeterminantId) -> DeterminantId:
        w = CoefficientWindow((1, 2j, -3, -4j, 5, 6, 7))
        det_value(w, det)
        try:
            closed_form(w, det)
        except UnsupportedId:
            pass
        return det

    @pytest.mark.parametrize("text", ["T2,2", "H2,3", "T3,1", "T4,1", "H3,1"])
    def test_repr_fields_and_asdict(self, text):
        fresh, used = DeterminantId.parse(text), self.resolved(DeterminantId.parse(text))
        assert repr(used) == repr(fresh) == (
            f"DeterminantId(kind={text[0]!r}, q={fresh.q}, n={fresh.n})")
        assert [f.name for f in dataclasses.fields(used)] == ["kind", "q", "n"]
        assert dataclasses.asdict(used) == {"kind": text[0], "q": fresh.q, "n": fresh.n}

    @pytest.mark.parametrize("det", SUPPORTED_CLOSED_FORM_IDS + (DeterminantId("T", 4, 1),),
                             ids=str)
    def test_equality_and_hash(self, det):
        self.resolved(det)
        parsed = DeterminantId.parse(str(det))
        built = DeterminantId(det.kind, np.int64(det.q), np.uint8(det.n))
        for other in (parsed, built):
            assert other == det and hash(other) == hash(det)
        assert {det: 1}[built] == 1
        assert DeterminantId(det.kind, det.q, det.n + 1) != det

    @pytest.mark.parametrize("det", SUPPORTED_CLOSED_FORM_IDS + (DeterminantId("H", 4, 1),),
                             ids=str)
    def test_replace_and_pickle(self, det):
        self.resolved(det)
        moved = dataclasses.replace(det, n=det.n + 1)
        assert (moved.kind, moved.q, moved.n) == (det.kind, det.q, det.n + 1)
        assert moved.min_window == det.min_window + 1
        back = pickle.loads(pickle.dumps(det))
        assert back == det and hash(back) == hash(det) and repr(back) == repr(det)
        w = CoefficientWindow((1, 2j, -3, -4j, 5, 6, 7))
        assert det_value(w, back) == det_value(w, det)

    @pytest.mark.parametrize("text", ["T4,1", "H3,1", "T2,1", "H1,1"])
    def test_unsupported_id_still_raises(self, text):
        det = self.resolved(DeterminantId.parse(text))
        with pytest.raises(UnsupportedId):
            closed_form(F1, det)
        with pytest.raises(UnsupportedId):
            closed_form_function(det)
