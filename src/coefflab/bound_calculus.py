"""Constants ledger and reproduction of the published determinant bound chains.

Every numeric bound used anywhere in the package lives in one ledger, keyed
by a short id, with a one-line source note.  A bound chain recombines ledger
entries exactly the way the published derivation does and records the
published statement next to the recomputed value, so disagreements surface
as data instead of silently propagating.

Two chain shapes recur across the classes, so each has one builder over a
class prefix: the sum of squares |a_n|^2 + |a_{n+1}|^2 bounding |T(2,n)|, and
the product (|a_n| + |a_{n+2}|)(|a_n|^2 + |a_{n+1}|^2 + |H(2,n)|) bounding
|T(3,n)|.  A statement is kept only as its published text: an integer, a
fraction p/q, or a decimal whose trailing "..." marks it as truncated, which
then matches to TRUNCATED_TOL instead of EXACT_TOL.

Id scheme: prefix U / S names the function class (defect class / univalent),
and a trailing 0 restricts to a2 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping


class UnknownConstant(KeyError):
    """Id not present in the constants ledger."""


class UnknownTheorem(KeyError):
    """Id not present in the chain table."""


@dataclass(frozen=True)
class LedgerConstant:
    id: str
    value: float
    source: str


_ROWS: tuple[tuple[str, float, str], ...] = (
    ("U.a2max", 2.0, "coefficient bound |a_n| <= n on the defect class, n = 2"),
    ("U.a3max", 3.0, "coefficient bound |a_n| <= n on the defect class, n = 3"),
    ("U.a4max", 4.0, "coefficient bound |a_n| <= n on the defect class, n = 4"),
    ("U.a5max", 5.0, "coefficient bound |a_n| <= n on the defect class, n = 5"),
    ("U.c1max", 1.0, "first inequality of the parameter region, |c1| <= 1"),
    ("U.H22", 1.0, "sharp |H(2,2)| bound on the defect class"),
    ("U.H23", 1.4946575, "cited |H(2,3)| bound on the defect class (truncated decimal)"),
    ("U.H23_a2zero", 1.0, "sharp |H(2,3)| bound on the defect class restricted to a2 = 0"),
    ("U0.a3max", 1.0, "|a3| = |c1| <= 1 on the defect class with a2 = 0"),
    ("U0.a4max", 0.5, "|a4| = |c2| <= 1/2 on the defect class with a2 = 0"),
    ("U0.a5max", 1.0, "|a5| = |c3 + c1^2| <= 1 on the defect class with a2 = 0"),
    ("S.a2max", 2.0, "coefficient bound |a_n| <= n on the univalent class, n = 2"),
    ("S.a3max", 3.0, "coefficient bound |a_n| <= n on the univalent class, n = 3"),
    ("S.a4max", 4.0, "coefficient bound |a_n| <= n on the univalent class, n = 4"),
    ("S.a5max", 5.0, "coefficient bound |a_n| <= n on the univalent class, n = 5"),
    ("S.H22", 1.3614, "cited |H(2,2)| bound on the univalent class (truncated decimal)"),
    ("S.H23", 4.89869, "cited |H(2,3)| bound on the univalent class (truncated decimal)"),
    ("S0.a3max", 1.0, "cited |a3| bound on the univalent class with a2 = 0"),
    ("S0.a4max", 2.0 / 3.0, "cited |a4| bound on the univalent class with a2 = 0"),
    (
        "S0.a5max",
        0.75 + 1.0 / math.sqrt(7.0),
        "cited |a5| bound 3/4 + 1/sqrt(7) on the univalent class with a2 = 0",
    ),
    ("S0.H22", 1.0, "cited |H(2,2)| bound on the univalent class with a2 = 0"),
    ("S0.H23", 2.02757, "cited |H(2,3)| bound on the univalent class with a2 = 0 (truncated)"),
)

LEDGER: dict[str, LedgerConstant] = {
    id_: LedgerConstant(id_, value, source) for id_, value, source in _ROWS
}


def constant(id_: str) -> LedgerConstant:
    try:
        return LEDGER[id_]
    except KeyError:
        raise UnknownConstant(f"no ledger constant {id_!r}") from None


#: Exact statements (integers, rationals) must match to this tolerance.
EXACT_TOL = 1e-12

#: Statements printed as truncated decimals match to this tolerance.
TRUNCATED_TOL = 5e-4


@dataclass(frozen=True)
class BoundChain:
    """A recomputed bound next to its published statement.

    ``steps`` spells out the factors over ledger ids; ``computed_value`` is
    their arithmetic value; ``stated_value`` is the published number;
    ``delta`` is their distance, and ``match`` says it is within the
    statement's tolerance.  When the statement's determinant label differs
    from what its derivation actually bounds, ``note`` says so.
    """

    theorem_id: str
    function_class: str
    a2_zero: bool
    determinant: str
    steps: tuple[str, ...]
    computed_value: float
    stated_value: float
    stated_text: str
    truncated: bool
    match: bool
    delta: float
    note: str = ""


def _max_quadratic(a: float, b: float, c: float, lo: float, hi: float) -> float:
    """Exact maximum of a x^2 + b x + c on [lo, hi]."""
    candidates = [lo, hi]
    if a != 0.0:
        vertex = -b / (2 * a)
        if lo <= vertex <= hi:
            candidates.append(vertex)
    return max(a * x * x + b * x + c for x in candidates)


Getter = Callable[[str], float]


def _sum_of_squares(prefix: str, n: int) -> Callable[[Getter], tuple]:
    """|T(2,n)| = |a_n^2 - a_{n+1}^2| <= |a_n|^2 + |a_{n+1}|^2 over the class caps."""
    an, an1 = f"{prefix}.a{n}max", f"{prefix}.a{n + 1}max"
    steps = (
        f"|T(2,{n})| = |a{n}^2 - a{n + 1}^2| <= |a{n}|^2 + |a{n + 1}|^2",
        f"{an}^2 + {an1}^2",
    )
    return lambda c: (c(an) ** 2 + c(an1) ** 2, steps)


def _product(prefix: str, n: int, hankel: str) -> Callable[[Getter], tuple]:
    """|T(3,n)| <= (|a_n| + |a_{n+2}|)(|a_n|^2 + |a_{n+1}|^2 + |H(2,n)|) over the
    class caps and the ledger's Hankel bound `hankel`.
    """
    an, an1, an2 = (f"{prefix}.a{k}max" for k in (n, n + 1, n + 2))
    suffix = " with a2 = 0" if prefix.endswith("0") else ""
    steps = (
        f"|T(3,{n})| <= (|a{n}| + |a{n + 2}|) (|a{n}|^2 + |a{n + 1}|^2 + |H(2,{n})|){suffix}",
        f"({an} + {an2}) ({an}^2 + {an1}^2 + {hankel})",
    )
    return lambda c: ((c(an) + c(an2)) * (c(an) ** 2 + c(an1) ** 2 + c(hankel)), steps)


def _chain_thm1_iii(c: Getter):
    a2, a3, c1 = c("U.a2max"), c("U.a3max"), c("U.c1max")
    v = 1 + 2 * a2 * a2 + (a2 * a2 + c1) * a3
    return v, (
        "|T(3,1)| = |1 - 2 a2^2 + (a2^2 - c1)(a2^2 + c1)| "
        "<= 1 + 2 |a2|^2 + (|a2|^2 + |c1|) |a3|",
        "1 + 2 U.a2max^2 + (U.a2max^2 + U.c1max) U.a3max",
    )


def _chain_thm2_i(c: Getter):
    v = c("U0.a3max") ** 2
    return v, (
        "|T(2,2)| = |a3|^2 when a2 = 0",
        "U0.a3max^2",
    )


def _chain_thm2_ii(c: Getter):
    hi = c("U.c1max") ** 2
    one = type(hi)(1)  # a Fraction ledger keeps the chain exact
    v = _max_quadratic(one / 4, one / 2, one / 4, 0 * one, hi)
    return v, (
        "|T(2,3)| = |c1^2 - c2^2| <= x + ((1 - x)/2)^2 with x = |c1|^2",
        "max over x in [0, U.c1max^2] of x + (1 - x)^2 / 4, attained at x = 1",
    )


def _chain_thm2_iii(c: Getter):
    v = 1 + c("U0.a3max") ** 2
    return v, (
        "|T(3,1)| = |1 - a3^2| <= 1 + |a3|^2 when a2 = 0",
        "1 + U0.a3max^2",
    )


def _chain_thm2_iv(c: Getter):
    hi = c("U.c1max") ** 2
    one = type(hi)(1)  # a Fraction ledger keeps the chain exact
    v = _max_quadratic(-one, one, 0 * one, 0 * one, hi)
    return v, (
        "|T(3,2)| = 2 |c1|^2 |c2| <= 2 x (1 - x)/2 = x (1 - x) with x = |c1|^2",
        "max over x in [0, U.c1max^2] of x (1 - x), attained at x = 1/2",
    )


def _chain_thm4_i(c: Getter):
    v = c("S0.a4max") * (c("S0.a3max") ** 2 + c("S0.H22"))
    return v, (
        "|T(3,2)| <= |a4| (|a3|^2 + |H(2,2)|) when a2 = 0",
        "S0.a4max (S0.a3max^2 + S0.H22)",
    )


_LABEL_NOTE = (
    "statement is labeled T(2,3) but its derivation bounds T(3,3); "
    "encoded as T(3,3), following the derivation"
)

_THM1_V_NOTE = (
    "stated 211.8771... disagrees with this recomputation from the cited "
    "H(2,3) constant 1.4946575 (which gives 211.95726); the companion "
    "derivation line instead uses 1.4846575, which would give 211.87726"
)

_THM2_IV_NOTE = (
    "stated 3/16 = 0.1875 is below the maximum 1/4 of the derivation's own "
    "final expression x (1 - x); the catalog entry f4 attains |T(3,2)| = 1/4, "
    "so 0.25 is reported alongside the statement"
)

# theorem_id -> (class, a2_zero, determinant, stated_text, note, builder)
_CHAINS: dict[str, tuple] = {
    "thm1_i": ("U", False, "T2,2", "13", "", _sum_of_squares("U", 2)),
    "thm1_ii": ("U", False, "T2,3", "25", "", _sum_of_squares("U", 3)),
    "thm1_iii": ("U", False, "T3,1", "24", "", _chain_thm1_iii),
    "thm1_iv": ("U", False, "T3,2", "84", "", _product("U", 2, "U.H22")),
    "thm1_v": ("U", False, "T3,3", "211.8771...", _THM1_V_NOTE, _product("U", 3, "U.H23")),
    "thm2_i": ("U", True, "T2,2", "1", "", _chain_thm2_i),
    "thm2_ii": ("U", True, "T2,3", "1", "", _chain_thm2_ii),
    "thm2_iii": ("U", True, "T3,1", "2", "", _chain_thm2_iii),
    "thm2_iv": ("U", True, "T3,2", "3/16", _THM2_IV_NOTE, _chain_thm2_iv),
    "thm2_v": ("U", True, "T3,3", "9/2", "", _product("U0", 3, "U.H23_a2zero")),
    "thm3_i": ("S", False, "T3,2", "86.1684...", "", _product("S", 2, "S.H22")),
    "thm3_ii": ("S", False, "T3,3", "239.1895...", _LABEL_NOTE, _product("S", 3, "S.H23")),
    "thm4_i": ("S", True, "T3,2", "4/3", "", _chain_thm4_i),
    "thm4_ii": ("S", True, "T3,3", "7.3883...", _LABEL_NOTE, _product("S0", 3, "S0.H23")),
}

THEOREM_IDS: tuple[str, ...] = tuple(_CHAINS)


def theorem_chain(
    theorem_id: str, constants: Mapping[str, float] | None = None
) -> BoundChain:
    """Recompute one chain from ledger constants (or a substituted mapping).

    A missing constant raises UnknownConstant rather than degrading the
    value, so pruning the ledger can never silently change a chain.
    """
    try:
        klass, a2_zero, det, stated_text, note, builder = _CHAINS[theorem_id]
    except KeyError:
        raise UnknownTheorem(f"no chain {theorem_id!r}; known: {THEOREM_IDS}") from None

    values = {id_: c.value for id_, c in LEDGER.items()} if constants is None else constants

    def getter(id_: str) -> float:
        if id_ not in values:
            raise UnknownConstant(f"no ledger constant {id_!r} in the chain's constants")
        return values[id_]

    value, steps = builder(getter)
    truncated = stated_text.endswith("...")
    num, _, den = stated_text.removesuffix("...").partition("/")
    stated = float(num) / float(den) if den else float(num)
    tol = TRUNCATED_TOL if truncated else EXACT_TOL
    delta = abs(value - stated)
    return BoundChain(
        theorem_id=theorem_id,
        function_class=klass,
        a2_zero=a2_zero,
        determinant=det,
        steps=steps,
        computed_value=value,
        stated_value=stated,
        stated_text=stated_text,
        truncated=truncated,
        match=delta <= tol,
        delta=delta,
        note=note,
    )


@dataclass(frozen=True)
class VerificationReport:
    matches: tuple[BoundChain, ...]
    mismatches: tuple[BoundChain, ...]


def verify_stated_values() -> VerificationReport:
    """Recompute every chain and split by agreement with the statement."""
    chains = [theorem_chain(tid) for tid in THEOREM_IDS]
    matches = tuple(ch for ch in chains if ch.match)
    mismatches = tuple(ch for ch in chains if not ch.match)
    return VerificationReport(matches=matches, mismatches=mismatches)
