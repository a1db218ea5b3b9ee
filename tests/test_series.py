"""Series reciprocal against hand-computed values and a Cauchy-product oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coefflab.series import TruncatedSeries, ZeroConstantTerm, series_reciprocal


def series_mul(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to the smaller operand order: the oracle the
    reciprocal is checked against."""
    out = []
    for k in range(min(len(s.coeffs), len(t.coeffs))):
        acc = 0j
        for i in range(k + 1):
            acc += s.coeffs[i] * t.coeffs[k - i]
        out.append(acc)
    return TruncatedSeries(tuple(out))


def close(s: TruncatedSeries, expected, tol=1e-12) -> bool:
    return len(s.coeffs) == len(expected) and all(
        abs(a - b) <= tol for a, b in zip(s.coeffs, expected)
    )


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))],
                             ids=["nan", "inf", "-infj"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TruncatedSeries((1, bad, 2))

    def test_coerces_to_complex(self):
        s = TruncatedSeries((1, 2, 3))
        assert all(isinstance(c, complex) for c in s.coeffs)
        assert len(s.coeffs) == 3
        assert s[1] == 2 + 0j


class TestMul:
    def test_difference_of_squares(self):
        # (1+z)(1-z) = 1 - z^2
        s = TruncatedSeries((1, 1, 0))
        t = TruncatedSeries((1, -1, 0))
        assert close(series_mul(s, t), (1, 0, -1))

    def test_identity_factor(self):
        s = TruncatedSeries((1, 2, 3))
        assert close(series_mul(s, TruncatedSeries((1, 0, 0))), (1, 2, 3))

    def test_inverse_pair_from_rotated_koebe(self):
        # (1 - 2iz - z^2) is the reciprocal of 1 + 2iz - 3z^2 - 4iz^3 + 5z^4;
        # their product must collapse to the unit series.
        s = TruncatedSeries((1, -2j, -1, 0, 0))
        t = TruncatedSeries((1, 2j, -3, -4j, 5))
        assert close(series_mul(s, t), (1, 0, 0, 0, 0))

    def test_order_is_min_of_operands(self):
        s = TruncatedSeries((1, 1, 1, 1, 1, 1))
        t = TruncatedSeries((1, 1))
        assert len(series_mul(s, t).coeffs) == 2


class TestReciprocal:
    def test_geometric(self):
        s = TruncatedSeries((1, -1, 0, 0, 0))
        assert close(series_reciprocal(s), (1, 1, 1, 1, 1))

    def test_one(self):
        assert close(series_reciprocal(TruncatedSeries((1,))), (1,))

    def test_rotated_koebe_denominator(self):
        # 1/(1 - 2iz - z^2) through order 4
        s = TruncatedSeries((1, -2j, -1, 0, 0))
        assert close(series_reciprocal(s), (1, 2j, -3, -4j, 5))

    def test_plain_koebe_denominator(self):
        # 1/(1-z)^2 has coefficients n+1
        s = TruncatedSeries((1, -2, 1, 0, 0))
        assert close(series_reciprocal(s), (1, 2, 3, 4, 5))

    def test_nan_input_is_not_inverted(self):
        # no NaN coefficients come back from a NaN input
        with pytest.raises(ValueError, match="finite"):
            series_reciprocal(TruncatedSeries((1, float("nan"), 2)))

    def test_overflow_raises(self):
        # b_k grows like 1e300 ** k / 1e-11 ** (k + 1) and overflows at b_1
        with pytest.raises(ValueError, match="finite"):
            series_reciprocal(TruncatedSeries((1e-11, 1e300, 0)))

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            series_reciprocal(TruncatedSeries((0, 1, 1)))

    def test_near_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            series_reciprocal(TruncatedSeries((1e-13, 1, 1)))


# strategy: bounded complex coefficients, constant term kept invertible
_coef = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
_lead = _coef.filter(lambda c: abs(c) >= 0.5)
_series = st.tuples(
    _lead, st.lists(_coef, min_size=0, max_size=7)
).map(lambda p: TruncatedSeries((p[0], *p[1])))


@settings(max_examples=200, deadline=None)
@given(_series)
def test_reciprocal_round_trip(s):
    prod = series_mul(s, series_reciprocal(s))
    assert len(prod.coeffs) == len(s.coeffs)
    assert all(abs(c - e) <= 1e-10 for c, e in zip(prod.coeffs, (1, *[0] * (len(s.coeffs) - 1))))


def test_reciprocal_is_the_forward_recursion_bit_for_bit():
    # b0 = 1/c0, b_k = -(1/c0) * sum_{j=1..k} c_j b_{k-j}, summed in j order
    rng = np.random.default_rng(20261019)
    for _ in range(200):
        order = int(rng.integers(0, 9))
        c = [complex(1.0 + rng.random(), rng.random())]
        c += [complex(*rng.normal(size=2)) for _ in range(order)]
        inv = 1.0 / c[0]
        b = [inv]
        for k in range(1, order + 1):
            acc = 0j
            for j in range(1, k + 1):
                acc += c[j] * b[k - j]
            b.append(-inv * acc)
        assert series_reciprocal(TruncatedSeries(tuple(c))).coeffs == tuple(b)
