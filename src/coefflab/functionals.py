"""Symmetric Toeplitz and Hankel coefficient determinants.

For a normalized coefficient window ``(a1=1, a2, ..., am)`` the two families
are, with 1-based matrix indices,

    T(q, n): q x q symmetric Toeplitz matrix, entry (i, j) = a_{n+|i-j|}
    H(q, n): q x q Hankel matrix,             entry (i, j) = a_{n+i+j-2}

Seven low-order determinants additionally have explicit polynomial forms in
a2..a5, in a table keyed by their DeterminantId.  Keeping both routes alive
gives every caller a built-in cross-check:

    T(2,2) = a2^2 - a3^2
    T(2,3) = a3^2 - a4^2
    T(3,1) = 1 - 2 a2^2 + 2 a2^2 a3 - a3^2
    T(3,2) = (a2 - a4)(a2^2 - 2 a3^2 + a2 a4)
    T(3,3) = (a3 - a5)(a3^2 - 2 a4^2 + a3 a5)
    H(2,2) = a2 a4 - a3^2
    H(2,3) = a3 a5 - a4^2
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class WindowTooShort(ValueError):
    """Window has fewer coefficients than the requested determinant needs."""


class UnsupportedId(KeyError):
    """Determinant id outside the closed-form table."""


@dataclass(frozen=True)
class CoefficientWindow:
    """Leading Taylor coefficients ``a1..am`` of a normalized function.

    ``a[k - 1]`` is ``a_k``.  Normalization means ``a1 == 1`` exactly;
    construction enforces it and rejects non-finite entries.
    """

    a: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(map(complex, self.a))
        if not coeffs:
            raise ValueError("a window needs at least a1")
        if coeffs[0] != 1:
            raise ValueError(f"window must be normalized with a1 = 1, got a1 = {coeffs[0]}")
        if not all(map(cmath.isfinite, coeffs)):
            raise ValueError(f"window entries must be finite, got {coeffs}")
        object.__setattr__(self, "a", coeffs)


def _integer(name: str, value, least: int, below: float = math.inf) -> int:
    """value as a plain int (numpy integers too, bools not) in [least, below), else ValueError."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not least <= n < below:
        raise ValueError(f"{name} must be in [{least}, {below}), got {n}")
    return n


#: Largest order q that det_value lays out: q^2 entries, so an absurd q takes gigabytes.
_DET_ORDER_CAP = 100

_DET_ID_RE = re.compile(r"^([TH])(\d+),(\d+)$")


@dataclass(frozen=True)
class DeterminantId:
    """Names one determinant: kind 'T' (Toeplitz) or 'H' (Hankel), size q and
    offset n, integers >= 1 (stored as plain ints; anything else raises ValueError).

    min_window, the closed form and the matrix layout are resolved on first
    use and kept outside the fields: ==, hash, repr and pickle see only kind,
    q and n."""

    kind: str
    q: int
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("T", "H"):
            raise ValueError(f"kind must be 'T' or 'H', got {self.kind!r}")
        for name in ("q", "n"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))

    def __reduce__(self):
        # rebuilt from the fields alone, so nothing resolved is pickled
        return type(self), (self.kind, self.q, self.n)

    @cached_property
    def min_window(self) -> int:
        """Smallest window length m able to fill the matrix."""
        if self.kind == "T":
            return self.n + self.q - 1
        return self.n + 2 * (self.q - 1)

    @cached_property
    def _form(self) -> Callable[..., complex] | None:
        """The id's closed form, None outside _CLOSED_FORMS."""
        return _CLOSED_FORMS.get(self)

    @cached_property
    def _cells(self) -> operator.itemgetter:
        """The getter of the matrix entries from w.a by their 0-based indices,
        row by row (for q = 1 the one entry itself): the one statement of the
        Toeplitz and Hankel layouts."""
        toeplitz, q = self.kind == "T", range(self.q)
        return operator.itemgetter(
            *(self.n - 1 + (abs(i - j) if toeplitz else i + j) for i in q for j in q))

    def __str__(self) -> str:
        return f"{self.kind}{self.q},{self.n}"

    @classmethod
    def parse(cls, text: str) -> "DeterminantId":
        m = _DET_ID_RE.match(text.strip())
        if not m:
            raise ValueError(f"bad determinant id {text!r}, expected forms like T2,2 or H2,3")
        return cls(m.group(1), int(m.group(2)), int(m.group(3)))


# Explicit polynomial identities for the seven supported determinants, keyed
# by id in sorted order.  Arguments are a2..a5; a1 = 1 is baked into the
# T(3,1) constant term.
_CLOSED_FORMS: dict[DeterminantId, Callable[..., complex]] = {
    DeterminantId.parse(text): fn for text, fn in (
        ("H2,2", lambda a2, a3, a4, a5: a2 * a4 - a3 * a3),
        ("H2,3", lambda a2, a3, a4, a5: a3 * a5 - a4 * a4),
        ("T2,2", lambda a2, a3, a4, a5: a2 * a2 - a3 * a3),
        ("T2,3", lambda a2, a3, a4, a5: a3 * a3 - a4 * a4),
        ("T3,1", lambda a2, a3, a4, a5: 1.0 - 2.0 * a2 * a2 + 2.0 * a2 * a2 * a3 - a3 * a3),
        ("T3,2", lambda a2, a3, a4, a5: (a2 - a4) * (a2 * a2 - 2.0 * a3 * a3 + a2 * a4)),
        ("T3,3", lambda a2, a3, a4, a5: (a3 - a5) * (a3 * a3 - 2.0 * a4 * a4 + a3 * a5)),
    )
}

SUPPORTED_CLOSED_FORM_IDS: tuple[DeterminantId, ...] = tuple(_CLOSED_FORMS)


def _too_short(w: CoefficientWindow, det: DeterminantId) -> WindowTooShort:
    """The error for a window shorter than det.min_window; both routes compare
    len(w.a) with it inline and raise this."""
    return WindowTooShort(f"{det} needs a window of length >= {det.min_window}, got {len(w.a)}")


def _det_entries(e, q: int) -> complex:
    """Determinant of the q x q matrix with entries e, row by row (e itself at q = 1)."""
    if q == 2:
        return e[0] * e[3] - e[1] * e[2]
    if q == 3:  # first-row expansion
        return (
            e[0] * (e[4] * e[8] - e[5] * e[7])
            - e[1] * (e[3] * e[8] - e[5] * e[6])
            + e[2] * (e[3] * e[7] - e[4] * e[6])
        )
    if q == 1:
        return e
    return complex(np.linalg.det(np.array(e).reshape(q, q)))


def det_value(w: CoefficientWindow, det: DeterminantId) -> complex:
    """Determinant by direct evaluation of the matrix det._cells lays out.

    Cofactor expansion for q <= 3 keeps small cases exact and dependency-free;
    q >= 4 goes through LU with partial pivoting (numpy), and a q above
    _DET_ORDER_CAP raises ValueError once the window is long enough.
    """
    if len(w.a) < det.min_window:
        raise _too_short(w, det)
    if det.q > _DET_ORDER_CAP:
        raise ValueError(f"{det} has order {det.q}, above the cap of {_DET_ORDER_CAP}")
    return _det_entries(det._cells(w.a), det.q)


def closed_form_function(det: DeterminantId) -> Callable[..., complex]:
    """The polynomial identity for a supported id, as callable(a2, a3, a4, a5)."""
    fn = det._form
    if fn is None:
        raise UnsupportedId(f"no closed form for {det}")
    return fn


def closed_form(w: CoefficientWindow, det: DeterminantId) -> complex:
    """Evaluate the polynomial identity for one of the seven supported ids."""
    fn = det._form or closed_form_function(det)  # which raises UnsupportedId
    a = w.a
    if len(a) < det.min_window:
        raise _too_short(w, det)
    if len(a) < 5:
        a += (0j,) * (5 - len(a))
    return fn(a[1], a[2], a[3], a[4])
