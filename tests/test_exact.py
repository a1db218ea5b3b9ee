"""Exact symbolic proofs of the package's polynomial identities.

These run next to the numerical cross-checks (the acceptance criteria compare
closed forms with determinants and the coefficient map with series inversion
on sampled inputs); they do not replace them.  Each identity is rebuilt here
from its mathematical definition, with the float literals of the package
code turned into exact rationals by nsimplify.  The last test derives the
|H(2,3)| constant that thm1_v's note names.
"""

import pytest
import sympy

from coefflab.bound_calculus import LEDGER, theorem_chain
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


def test_thm1_v_note_names_the_triangle_bound_on_h23():
    # H(2,3) = a3 c3 + c1^3 - c2^2 - 2 a2 c1 c2 on the region.  With |a2| = 2,
    # |a3| at its cap 3, x = |c1| and c2, c3 on their discs' rims, the
    # triangle bound is h(x) = 3x - 2x^3 + (1 - x^2)^2 / 4, whose derivative
    # is x^3 - 6x^2 - x + 3, with one root in [0, 1], the maximum there
    x = sympy.symbols("x")
    h = 3 * x - 2 * x**3 + (1 - x**2) ** 2 / 4
    cubic = x**3 - 6 * x**2 - x + 3
    assert sympy.expand(sympy.diff(h, x) - cubic) == 0
    roots = [r for r in sympy.Poly(cubic, x).real_roots() if 0 <= r <= 1]
    assert len(roots) == 1
    root = roots[0]
    assert abs(float(root) - 0.66182349590335) <= 1e-14
    bound = float(h.subs(x, root).evalf(30))
    assert bound == 1.4846575137092331
    assert bound > max(h.subs(x, 0), h.subs(x, 1))
    # with it in place of the cited U.H23, thm1_v gives its statement; the
    # cited 1.4946575 differs from it in one digit
    values = {id_: c.value for id_, c in LEDGER.items()}
    cited = f"{values['U.H23']:.7f}"
    values["U.H23"] = bound
    chain = theorem_chain("thm1_v", values)
    assert (chain.stated_text, chain.match) == ("211.8771...", True)
    assert f"{chain.computed_value:.5f}" == "211.87726"
    assert (cited, f"{bound:.7f}") == ("1.4946575", "1.4846575")
    assert sum(a != b for a, b in zip(cited, f"{bound:.7f}")) == 1
    assert f"{bound:.7f}" in chain.note and "211.87726" in chain.note
    assert not theorem_chain("thm1_v").match
