"""Exact symbolic proofs of the package's polynomial identities.

These run next to the numerical cross-checks (the acceptance criteria compare
closed forms with determinants and the coefficient map with series inversion
on sampled inputs); they do not replace them.  Each identity is rebuilt here
from its mathematical definition, with the float literals of the package
code turned into exact rationals by nsimplify.
"""

import pytest
import sympy

from coefflab.class_u import coefficient_quintet
from coefflab.functionals import SUPPORTED_CLOSED_FORM_IDS, closed_form_function

A2, A3, A4, A5 = sympy.symbols("a2:6")
#: a[k] is the Taylor coefficient a_k of a normalized function (a1 = 1).
A = {1: sympy.Integer(1), 2: A2, 3: A3, 4: A4, 5: A5}


def definition(kind: str, q: int, n: int) -> sympy.Expr:
    """det of the q x q matrix from the functionals docstring, 1-based (i, j):
    Toeplitz entry a_{n+|i-j|}, Hankel entry a_{n+i+j-2}."""
    def entry(i: int, j: int) -> sympy.Expr:
        return A[n + abs(i - j)] if kind == "T" else A[n + i + j - 2]

    return sympy.Matrix(q, q, lambda i, j: entry(i + 1, j + 1)).det()


@pytest.mark.parametrize("det", SUPPORTED_CLOSED_FORM_IDS, ids=str)
def test_closed_form_is_the_determinant(det):
    poly = sympy.nsimplify(closed_form_function(det)(A2, A3, A4, A5))
    assert sympy.expand(poly - definition(det.kind, det.q, det.n)) == 0


def test_coefficient_quintet_is_the_series_reciprocal():
    a2, c1, c2, c3, z = sympy.symbols("a2 c1 c2 c3 z")
    f_over_z = sympy.series(1 / (1 - a2 * z - c1 * z**2 - c2 * z**3 - c3 * z**4), z, 0, 5)
    expansion = sympy.expand(f_over_z.removeO())
    quintet = [sympy.nsimplify(a) for a in coefficient_quintet(a2, c1, c2, c3)]
    assert [expansion.coeff(z, k) for k in (0, 1)] == [1, a2]
    for k, ak in zip((2, 3, 4), quintet):
        assert sympy.expand(ak - expansion.coeff(z, k)) == 0
