"""Tests for eta-quotient expansion, weights, and cusp orders."""

from fractions import Fraction

import pytest

from etaforms.errors import FractionalValuation, InvalidCusp, MixedWeight
from etaforms.eta import (
    EtaCombination,
    EtaQuotient,
    eta_unit,
    euler_product,
    format_eta_quotient,
    ligozat_order,
    parse_eta_quotient,
)
from etaforms.series import QSeries


def euler_oracle(prec: int) -> QSeries:
    """Direct truncated multiplication of (1-q)(1-q^2)...(1-q^(prec-1))."""
    out = QSeries.one(prec)
    for n in range(1, prec):
        out = out * QSeries.from_terms({0: 1, n: -1}, prec)
    return out


# the quotient part of the level-6 hauptmodul
PSI6_QUOT = EtaQuotient(6, {2: 8, 3: 4, 1: -4, 6: -8})


class TestEulerProduct:
    def test_head(self):
        e = euler_product(8)
        assert [e.coeff(n) for n in range(8)] == [1, -1, -1, 0, 0, 1, 0, 1]

    def test_constant_term(self):
        assert euler_product(1).coeff(0) == 1

    def test_coefficient_twelve(self):
        assert euler_product(13).coeff(12) == -1

    def test_matches_direct_product_oracle(self):
        assert euler_product(64).agrees_with(euler_oracle(64))


class TestEtaUnit:
    @pytest.mark.parametrize("delta", (1, 2, 3, 5, 18))
    def test_shallow_request_equals_direct_expansion(self, delta):
        eta_unit(delta, 300)
        for prec in (1, 7, 40, 299, 300):
            got = eta_unit(delta, prec)
            want = euler_product(-(-prec // delta)).dilated(delta).truncated(prec)
            assert (got.valuation, got.coeffs, got.prec) == \
                (want.valuation, want.coeffs, want.prec)


class TestExpandQuotient:
    def test_hauptmodul_quotient(self):
        off, unit = PSI6_QUOT.offset(), PSI6_QUOT.unit(8)
        assert off == -1
        assert unit.valuation == 0 and unit.coeff(0) == 1
        # quotient - 4 is q^-1 + 6q + 4q^2 - 3q^3 + ...
        s = PSI6_QUOT.series(5) - 4
        assert [s.coeff(n) for n in range(-1, 4)] == [1, 0, 6, 4, -3]

    def test_eta_itself(self):
        eq = EtaQuotient(1, {1: 1})
        off, unit = eq.offset(), eq.unit(16)
        assert off == Fraction(1, 24)
        assert unit.agrees_with(euler_product(16))

    def test_fractional_offset_of_misprinted_term(self):
        # eta(12) in a level-18 quotient leaves a -1/4 offset
        eq = EtaQuotient(18, {2: 9, 3: 8, 12: 1, 1: -6, 6: -6, 9: -2}, Fraction(1, 972))
        assert eq.offset() == Fraction(-1, 4)
        with pytest.raises(FractionalValuation):
            eq.series(8)

    def test_truncation_coherence(self):
        off_a, unit_a = PSI6_QUOT.offset(), PSI6_QUOT.unit(40)
        off_b, unit_b = PSI6_QUOT.offset(), PSI6_QUOT.unit(12)
        assert off_a == off_b
        assert unit_a.truncated(12).coeffs == unit_b.coeffs


class TestWeight:
    def test_weight_zero_quotient(self):
        assert PSI6_QUOT.weight() == 0

    def test_weight_two_form(self):
        eq = EtaQuotient(6, {1: 2, 6: 12, 2: -4, 3: -6})
        assert eq.weight() == 2

    def test_level10_weight_four_leading_term(self):
        eq = EtaQuotient(10, {2: 14, 5: 8, 1: -8, 10: -6})
        assert eq.weight() == 4

    def test_mixed_weight_rejected(self):
        comb = EtaCombination([
            EtaQuotient(6, {1: 2, 6: 12, 2: -4, 3: -6}),
            PSI6_QUOT,
        ])
        with pytest.raises(MixedWeight):
            comb.weight()


class TestLigozat:
    def test_hauptmodul_pole_at_infinity(self):
        assert ligozat_order(PSI6_QUOT, 6) == -1
        # the cusp order at c = N must equal the q-valuation offset
        assert ligozat_order(PSI6_QUOT, 6) == PSI6_QUOT.offset()

    def test_weight2_cusp_form_positive_away_from_infinity(self):
        g21 = EtaQuotient(6, {2: 6, 3: 8, 6: -10})
        for c in (1, 2, 3):
            assert ligozat_order(g21, c) > 0
        assert ligozat_order(g21, 6) == -1

    def test_discriminant_at_level_one(self):
        delta = EtaQuotient(1, {1: 24})
        assert ligozat_order(delta, 1) == 1

    def test_cusp_companion_orders(self):
        psi13 = EtaQuotient(6, {2: 5, 6: 1, 3: -5, 1: -1})
        assert [ligozat_order(psi13, c) for c in (1, 2, 3, 6)] == [0, 1, -1, 0]

    def test_invalid_cusp(self):
        with pytest.raises(InvalidCusp):
            ligozat_order(PSI6_QUOT, 4)

    def test_dilation_outside_level_rejected(self):
        bad = EtaQuotient(18, {12: 1, 1: -1})
        with pytest.raises(InvalidCusp):
            ligozat_order(bad, 18)


class TestCombinations:
    def test_level12_weight_form_leading_term(self):
        comb = EtaCombination([
            parse_eta_quotient("1/27 * eta(1)^10 * eta(4) * eta(6)^9 * eta(2)^-7 * eta(3)^-6 * eta(12)^-3", 12),
            parse_eta_quotient("11/72 * eta(1)^7 * eta(4)^4 * eta(6)^9 * eta(2)^-7 * eta(3)^-5 * eta(12)^-4", 12),
            parse_eta_quotient("-1/12 * eta(1)^4 * eta(4)^7 * eta(6)^9 * eta(2)^-7 * eta(3)^-4 * eta(12)^-5", 12),
            parse_eta_quotient("1/54 * eta(1) * eta(4)^10 * eta(6)^9 * eta(2)^-7 * eta(3)^-3 * eta(12)^-6", 12),
            parse_eta_quotient("-1/8 * eta(1)^9 * eta(4)^3 * eta(6)^2 * eta(2)^-6 * eta(3)^-3 * eta(12)^-1", 12),
        ])
        s = comb.series(10)
        assert s.valuation == 4 and s.coeff(4) == 1
        assert comb.weight() == 2

    def test_fractional_term_is_reported_with_its_term(self):
        comb = EtaCombination([
            EtaQuotient(18, {1: 8, 6: 2, 9: 4, 2: -4, 3: -4, 18: -2}, Fraction(25, 216)),
            EtaQuotient(18, {2: 9, 3: 8, 12: 1, 1: -6, 6: -6, 9: -2}, Fraction(1, 972)),
        ])
        with pytest.raises(FractionalValuation) as err:
            comb.series(8)
        assert "eta(12)" in str(err.value)


class TestParser:
    def test_round_trip(self):
        text = "eta(1)^-4 * eta(2)^8 * eta(3)^4 * eta(6)^-8"
        eq = parse_eta_quotient(text, 6)
        assert eq == PSI6_QUOT
        assert parse_eta_quotient(format_eta_quotient(eq), 6) == eq

    def test_scalar_prefix(self):
        eq = parse_eta_quotient("-11/144 * eta(1)^3 * eta(18)^-5", 18)
        assert eq.scalar == Fraction(-11, 144)
        assert dict(eq.factors) == {1: 3, 18: -5}

    def test_equality_and_hash_are_by_value(self):
        eq = EtaQuotient(6, {2: 8, 1: -4, 3: 4, 6: -8})
        assert eq == PSI6_QUOT and eq is not PSI6_QUOT
        assert hash(eq) == hash(PSI6_QUOT) == hash((6, ((1, -4), (2, 8), (3, 4), (6, -8)),
                                                     Fraction(1)))
        assert eq != EtaQuotient(6, eq.factors, Fraction(2))
        assert eq != EtaQuotient(12, eq.factors)
        assert eq != eq.factors and len({eq, PSI6_QUOT}) == 1
        with pytest.raises(AttributeError):
            eq.scalar = Fraction(2)
        assert eq.scalar == 1

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_eta_quotient("eta(x)^2", 6)
        with pytest.raises(ValueError):
            parse_eta_quotient("3/4", 6)
