"""Truncated complex power-series arithmetic.

A :class:`TruncatedSeries` stores Taylor coefficients ``c0..cN`` at a fixed
truncation order ``N``.  Operations never extend an operand silently: the
result order is the minimum of the operand orders, so truncation depth stays
explicit at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Order used when callers have no specific truncation depth in mind.
DEFAULT_ORDER = 8

#: Constant terms smaller than this are treated as non-invertible.
ZERO_TERM_THRESHOLD = 1e-12


class ZeroConstantTerm(ValueError):
    """Raised when inverting a series whose constant term is (near) zero."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients ``c0..cN`` of ``sum c_k z^k``, truncated at order ``N``.

    The tuple always holds exactly ``order + 1`` entries.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least its constant term")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> complex:
        return self.coeffs[k]


def unit(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The multiplicative identity ``1 + 0z + ...`` at the given order."""
    return TruncatedSeries((1.0,) + (0.0,) * order)


def truncate(s: TruncatedSeries, order: int) -> TruncatedSeries:
    """Drop coefficients above ``order``.  Extending is an error."""
    if order > s.order:
        raise ValueError(f"cannot extend a series of order {s.order} to order {order}")
    return TruncatedSeries(s.coeffs[: order + 1])


def series_mul(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to the smaller operand order."""
    order = min(s.order, t.order)
    out = []
    for k in range(order + 1):
        acc = 0j
        for i in range(k + 1):
            acc += s.coeffs[i] * t.coeffs[k - i]
        out.append(acc)
    return TruncatedSeries(tuple(out))


def series_reciprocal(s: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse at the same order.

    Uses the forward recursion ``b0 = 1/c0``,
    ``b_k = -(1/c0) * sum_{j=1..k} c_j b_{k-j}``.
    """
    c0 = s.coeffs[0]
    if abs(c0) < ZERO_TERM_THRESHOLD:
        raise ZeroConstantTerm(
            f"constant term {c0!r} is below the invertibility threshold "
            f"{ZERO_TERM_THRESHOLD:g}"
        )
    inv = 1.0 / c0
    out = [inv]
    for k in range(1, s.order + 1):
        acc = 0j
        for j in range(1, k + 1):
            acc += s.coeffs[j] * out[k - j]
        out.append(-inv * acc)
    return TruncatedSeries(tuple(out))
