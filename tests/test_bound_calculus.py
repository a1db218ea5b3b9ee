"""Bound chains recomputed from ledger constants, frozen by hand arithmetic."""

import math
import re
from collections.abc import Mapping
from fractions import Fraction

import pytest

from coefflab.bound_calculus import (
    LEDGER,
    THEOREM_IDS,
    BoundChain,
    UnknownConstant,
    UnknownTheorem,
    constant,
    theorem_chain,
    verify_stated_values,
)

# theorem_id -> value recomputed by hand from the ledger rows
HAND_VALUES = {
    "thm1_i": 13.0,                     # 2^2 + 3^2
    "thm1_ii": 25.0,                    # 3^2 + 4^2
    "thm1_iii": 24.0,                   # 1 + 2*4 + (4+1)*3
    "thm1_iv": 84.0,                    # (2+4)(4+9+1)
    "thm1_v": 8.0 * 26.4946575,         # (3+5)(9+16+1.4946575) = 211.95726
    "thm2_i": 1.0,
    "thm2_ii": 1.0,                     # max of x + (1-x)^2/4 on [0,1], at x=1
    "thm2_iii": 2.0,
    "thm2_iv": 0.25,                    # max of x(1-x) on [0,1], at x=1/2
    "thm2_v": 4.5,                      # (1+1)(1+1/4+1)
    "thm3_i": 6.0 * 14.3614,            # (2+4)(4+9+1.3614) = 86.1684
    "thm3_ii": 8.0 * 29.89869,          # (3+5)(9+16+4.89869) = 239.18952
    "thm4_i": 4.0 / 3.0,                # (2/3)(1+1)
    "thm4_ii": (1.75 + 1.0 / math.sqrt(7.0)) * (1.0 + 4.0 / 9.0 + 2.02757),
}

# theorem_id -> (stated_text, stated_value, truncated) as published
STATEMENTS = {
    "thm1_i": ("13", 13.0, False),
    "thm1_ii": ("25", 25.0, False),
    "thm1_iii": ("24", 24.0, False),
    "thm1_iv": ("84", 84.0, False),
    "thm1_v": ("211.8771...", 211.8771, True),
    "thm2_i": ("1", 1.0, False),
    "thm2_ii": ("1", 1.0, False),
    "thm2_iii": ("2", 2.0, False),
    "thm2_iv": ("3/16", 0.1875, False),
    "thm2_v": ("9/2", 4.5, False),
    "thm3_i": ("86.1684...", 86.1684, True),
    "thm3_ii": ("239.1895...", 239.1895, True),
    "thm4_i": ("4/3", 4.0 / 3.0, False),
    "thm4_ii": ("7.3883...", 7.3883, True),
}

# statements the recomputation is expected to contradict
EXPECTED_MISMATCHES = {"thm1_v", "thm2_iv"}


class _RecordingLedger(Mapping):
    """The ledger's values, recording every id a chain reads."""

    def __init__(self):
        self.ids = set()

    def __getitem__(self, id_):
        self.ids.add(id_)
        return LEDGER[id_].value

    def __iter__(self):
        return iter(LEDGER)

    def __len__(self):
        return len(LEDGER)


class TestLedger:
    def test_spot_values(self):
        assert constant("U.a2max").value == 2.0
        assert constant("U.H23").value == 1.4946575
        assert constant("S0.a5max").value == pytest.approx(0.75 + 1.0 / math.sqrt(7.0))
        assert constant("U0.a4max").value == 0.5

    def test_every_row_has_a_source(self):
        assert all(c.source for c in LEDGER.values())

    def test_unknown_constant(self):
        with pytest.raises(UnknownConstant):
            constant("U.a9max")


class TestChains:
    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_value_frozen(self, tid):
        ch = theorem_chain(tid)
        assert ch.computed_value == pytest.approx(HAND_VALUES[tid], abs=1e-12)

    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_match_classification(self, tid):
        ch = theorem_chain(tid)
        assert ch.match == (tid not in EXPECTED_MISMATCHES)

    def test_mismatch_deltas(self):
        assert theorem_chain("thm1_v").delta == pytest.approx(0.08016, abs=1e-5)
        assert theorem_chain("thm2_iv").delta == pytest.approx(0.0625)

    def test_steps_spell_out_the_ledger_ids(self):
        # in every chain the ids the last step names are exactly the ids its
        # arithmetic reads
        for tid in THEOREM_IDS:
            ch = theorem_chain(tid)
            assert ch.steps and all(isinstance(s, str) for s in ch.steps), tid
            read = _RecordingLedger()
            assert theorem_chain(tid, constants=read) == ch, tid
            assert set(re.findall(r"\b[AUS]0?\.\w+", ch.steps[-1])) == read.ids, tid

    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_statement_pinned(self, tid):
        ch = theorem_chain(tid)
        assert (ch.stated_text, ch.stated_value, ch.truncated) == STATEMENTS[tid]

    def test_mismatches_carry_notes(self):
        assert theorem_chain("thm1_v").note
        assert theorem_chain("thm2_iv").note

    def test_label_notes_on_relabeled_statements(self):
        # the two statements whose derivation bounds a different determinant
        assert "T(3,3)" in theorem_chain("thm3_ii").note
        assert "T(3,3)" in theorem_chain("thm4_ii").note
        assert theorem_chain("thm3_ii").determinant == "T3,3"

    def test_unknown_theorem(self):
        with pytest.raises(UnknownTheorem):
            theorem_chain("thm9_i")

    def test_chain_is_frozen(self):
        ch = theorem_chain("thm1_i")
        assert isinstance(ch, BoundChain)
        with pytest.raises(AttributeError):
            ch.computed_value = 0.0


class TestSubstitutedConstants:
    def test_missing_constant_is_loud(self):
        with pytest.raises(UnknownConstant):
            theorem_chain("thm1_i", constants={"U.a2max": 2.0})  # no U.a3max

    def test_monotone_in_the_ledger(self):
        # scaling every constant up cannot shrink any chain, and strictly
        # grows all of them except thm2_iv (its inner maximum sits at an
        # interior vertex, so enlarging the interval changes nothing)
        scaled = {k: 1.01 * c.value for k, c in LEDGER.items()}
        for tid in THEOREM_IDS:
            base = theorem_chain(tid).computed_value
            up = theorem_chain(tid, constants=scaled).computed_value
            assert up >= base, tid
            if tid != "thm2_iv":
                assert up > base, tid

    def test_identity_substitution_reproduces(self):
        plain = {k: c.value for k, c in LEDGER.items()}
        for tid in THEOREM_IDS:
            assert theorem_chain(tid, constants=plain) == theorem_chain(tid)

    # the ledger's rational constants as Fractions: its integers and halves,
    # which floats hold exactly, and S0.a4max = 2/3, which no float holds
    RATIONAL = {**{k: Fraction(c.value) for k, c in LEDGER.items() if (2 * c.value).is_integer()},
                "S0.a4max": Fraction(2, 3)}

    @pytest.mark.parametrize("tid", ["thm1_i", "thm1_ii", "thm1_iii", "thm1_iv", "thm2_i",
                                     "thm2_ii", "thm2_iii", "thm2_v", "thm4_i"])
    def test_rational_chain_equals_its_statement_exactly(self, tid):
        # in floats thm4_i reads 1.3333333333333333, not 4/3
        chain = theorem_chain(tid, constants=self.RATIONAL)
        assert chain.computed_value == Fraction(chain.stated_text), tid

    @pytest.mark.parametrize("tid, exact", [("thm2_ii", Fraction(1)), ("thm2_iv", Fraction(1, 4)),
                                            ("thm1_iii", Fraction(24)), ("thm2_iii", Fraction(2))])
    def test_quadratic_chains_follow_the_ledger_type(self, tid, exact):
        # the chain's literals and the inner maximum's coefficients follow the
        # constants: Fractions in, a Fraction out; floats in, a float out
        # (thm2_iv's vertex is x = 1/2)
        value = theorem_chain(tid, constants=self.RATIONAL).computed_value
        assert isinstance(value, Fraction) and value == exact
        value = theorem_chain(tid).computed_value
        assert type(value) is float and value == exact

    def test_thm2_iv_is_a_quarter_exactly(self):
        value = theorem_chain("thm2_iv", constants=self.RATIONAL).computed_value
        assert value == Fraction(1, 4)
        assert value != Fraction(3, 16)  # the published statement


class TestVerification:
    def test_split(self):
        report = verify_stated_values()
        assert {c.theorem_id for c in report.mismatches} == EXPECTED_MISMATCHES
        assert len(report.matches) == len(THEOREM_IDS) - 2

    def test_truncated_statements_within_print_tolerance(self):
        for tid in ("thm3_i", "thm3_ii", "thm4_ii"):
            ch = theorem_chain(tid)
            assert ch.truncated
            assert ch.delta <= 5e-4, tid
