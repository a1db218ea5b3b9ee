"""Reciprocal of a truncated complex power series.

A :class:`TruncatedSeries` stores Taylor coefficients ``c0..cN`` at a fixed
truncation order ``N``.  The one operation is :func:`series_reciprocal`,
which inverts a series at its own order.  Its forward recursion is the
private ``_reciprocal``, on a plain tuple of complex coefficients; class_u
calls it directly to turn the z/f polynomial of a parameter point into the
coefficients of f/z, without wrapping its own values in a series.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

#: Constant terms smaller than this are treated as non-invertible.
ZERO_TERM_THRESHOLD = 1e-12


class ZeroConstantTerm(ValueError):
    """Raised when inverting a series whose constant term is (near) zero."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients ``c0..cN`` of ``sum c_k z^k``, truncated at order ``N``.

    The tuple holds the ``N + 1`` entries, all finite; ``s[k]`` is ``c_k``.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(map(complex, self.coeffs))
        if not coeffs:
            raise ValueError("a truncated series needs at least its constant term")
        _require_finite(coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    def __getitem__(self, k: int) -> complex:
        return self.coeffs[k]


def _require_finite(coeffs: tuple) -> None:
    """ValueError unless every coefficient is finite: the one check of a series."""
    if not all(map(cmath.isfinite, coeffs)):
        raise ValueError(f"series coefficients must be finite, got {coeffs}")


def _reciprocal(c: tuple) -> tuple:
    """The coefficients of the inverse of the series with coefficients c, a
    non-empty tuple of complex numbers, at the same order.

    Uses the forward recursion ``b0 = 1/c0``,
    ``b_k = -(1/c0) * sum_{j=1..k} c_j b_{k-j}``.  A constant term below
    ZERO_TERM_THRESHOLD raises ZeroConstantTerm; the result is not checked
    for overflow, which its callers do with _require_finite.
    """
    c0 = c[0]
    if abs(c0) < ZERO_TERM_THRESHOLD:
        raise ZeroConstantTerm(
            f"constant term {c0!r} is below the invertibility threshold "
            f"{ZERO_TERM_THRESHOLD:g}"
        )
    inv = 1.0 / c0
    out = [inv]
    for k in range(1, len(c)):
        acc = 0j
        for j in range(1, k + 1):
            acc += c[j] * out[k - j]
        out.append(-inv * acc)
    return tuple(out)


def series_reciprocal(s: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse at the same order, by the forward recursion of
    _reciprocal.  An inversion that overflows raises ValueError, as a
    TruncatedSeries must be finite.
    """
    return TruncatedSeries(_reciprocal(s.coeffs))
