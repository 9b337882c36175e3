"""Tests for eta-quotient expansion, weights, and cusp orders."""

import random
from fractions import Fraction

import pytest

import etaforms.eta
import etaforms.series
from etaforms.errors import FractionalValuation, IntegralityViolation, InvalidCusp, MixedWeight
from etaforms.eta import (
    EtaCombination,
    EtaQuotient,
    eisenstein_weight2,
    eta_unit,
    euler_product,
    format_eta_quotient,
    ligozat_order,
    parse_eta_quotient,
)
from etaforms.leveldata import (SUPPORTED_LEVELS, E2Combination, get_level,
                                uncorrected_weight_form)
from etaforms.series import QSeries


def euler_oracle(prec: int) -> QSeries:
    """Direct truncated multiplication of (1-q)(1-q^2)...(1-q^(prec-1))."""
    out = QSeries.one(prec)
    for n in range(1, prec):
        out = out * QSeries.from_terms({0: 1, n: -1}, prec)
    return out


# the quotient part of the level-6 hauptmodul
PSI6_QUOT = EtaQuotient(6, {2: 8, 3: 4, 1: -4, 6: -8})


def product_unit(eq: EtaQuotient, prec: int) -> QSeries:
    """The reference unit: powers of each eta_unit by series products, times
    one reciprocal of the denominator."""
    num = QSeries.one(prec)
    den = QSeries.one(prec)
    for delta, r in eq.factors:
        base = eta_unit(delta, prec)
        if r > 0:
            num = num * base ** r
        else:
            den = den * base ** -r
    return num * den.reciprocal()


def rational_terms(parts, prec: int) -> dict:
    """{exponent: Fraction} of the sum of the (scalar, series) parts below q^prec,
    each coefficient scaled and added on its own."""
    terms = {}
    for scalar, series in parts:
        for e, c in series.terms():
            if e < prec:
                terms[e] = terms.get(e, 0) + Fraction(scalar) * c
    return terms


def sum_reference(parts, prec: int) -> QSeries:
    """The sum of the (scalar, series) parts, added as Fractions, as the
    integer series it must come to."""
    terms = rational_terms(parts, prec)
    assert all(c.denominator == 1 for c in terms.values()), terms
    return QSeries.from_terms({e: int(c) for e, c in terms.items() if c}, prec)


def quotient_reference(eq: EtaQuotient, prec: int) -> QSeries:
    """The reference expansion of q^offset times the unit, without the scalar."""
    off = eq.integral_offset()
    if off >= prec:
        return QSeries.zero(prec)
    return product_unit(eq, prec - off).shifted(off)


def fixture_quotients():
    for n in SUPPORTED_LEVELS:
        data = get_level(n)
        yield f"{n}-haupt", data.hauptmodul_quotient
        for w, form in sorted(data.weight_forms.items()):
            if isinstance(form.combination, EtaCombination):
                for i, t in enumerate(form.combination.terms):
                    yield f"{n}-w{w}-{i}", t
        for p, aux in sorted(data.aux.items()):
            yield f"{n}-alt{p}", aux.alt
            yield f"{n}-cusp{p}", aux.cusp
    for n in (12, 18):
        for i, t in enumerate(uncorrected_weight_form(n).terms):
            yield f"{n}-uncorrected-{i}", t


def random_quotients(count: int, seed: int = 36):
    rng = random.Random(seed)
    divisors = [d for d in range(1, 37) if 36 % d == 0]
    for i in range(count):
        factors = {d: rng.randint(-9, 9) for d in rng.sample(divisors, rng.randint(1, 5))}
        if not any(factors.values()):
            factors[rng.choice(divisors)] = 1
        yield f"random-{i}", EtaQuotient(36, factors)


UNIT_PRECS = (1, 2, 7, 40, 120, 400)
QUOTIENTS = dict([*fixture_quotients(), *random_quotients(6)])


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


class TestUnitRecurrence:
    @pytest.mark.parametrize("name", sorted(QUOTIENTS))
    def test_equals_product_expansion(self, name):
        eq = QUOTIENTS[name]
        for prec in UNIT_PRECS:
            got, want = eq.unit(prec), product_unit(eq, prec)
            assert (got.valuation, got.coeffs, got.prec) == \
                (want.valuation, want.coeffs, want.prec), prec

    def test_no_series_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("unit made a kernel product")

        monkeypatch.setattr(etaforms.series, "_convolve", refuse)
        for eq in QUOTIENTS.values():
            eq.unit(120)
        get_level(10).weight_forms[4].combination.series(120)

    def test_inexact_division_is_refused(self, monkeypatch):
        # with sigma read as 1, 1, 0, 0, ..., 3 u_3 = 1 has no integer solution
        monkeypatch.setattr(etaforms.eta, "_divisor_sums", lambda n: [0, 1, 1] + [0] * n)
        with pytest.raises(IntegralityViolation):
            EtaQuotient(1, {1: 1}).unit(4)

    def test_divisor_sums(self):
        assert etaforms.eta._divisor_sums(13) == [0, 1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28]


class TestCombinationSums:
    # a term below q^0 (offset -1), one at q^2 and one at q^7, at or past the
    # shallower precisions, each twice with fractional scalars that sum to an integer
    COMB = EtaCombination([
        EtaQuotient(6, {2: 8, 3: 4, 1: -4, 6: -8}, Fraction(4, 3)),
        EtaQuotient(6, {1: 2, 6: 12, 2: -4, 3: -6}, Fraction(-5, 7)),
        EtaQuotient(6, {1: 24, 6: 24}, Fraction(2, 5)),
        EtaQuotient(6, {2: 8, 3: 4, 1: -4, 6: -8}, Fraction(-1, 3)),
        EtaQuotient(6, {1: 2, 6: 12, 2: -4, 3: -6}, Fraction(-9, 7)),
        EtaQuotient(6, {1: 24, 6: 24}, Fraction(-7, 5)),
    ])

    @pytest.mark.parametrize("prec", UNIT_PRECS[:-1] + (0, -3))
    def test_eta_combination_equals_series_sum(self, prec):
        got = self.COMB.series(prec)
        want = sum_reference([(t.scalar, quotient_reference(t, prec)) for t in self.COMB.terms],
                             prec)
        assert (got.valuation, got.coeffs, got.prec) == (want.valuation, want.coeffs, want.prec)

    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_fixture_weight_forms_equal_series_sum(self, n):
        for form in get_level(n).weight_forms.values():
            comb = form.combination
            for prec in UNIT_PRECS:
                got = comb.series(prec)
                if isinstance(comb, E2Combination):
                    parts = [(scale, eisenstein_weight2(t, prec)) for scale, t in comb.terms]
                else:
                    parts = [(t.scalar, quotient_reference(t, prec)) for t in comb.terms]
                want = sum_reference(parts, prec)
                assert (got.valuation, got.coeffs, got.prec) == \
                    (want.valuation, want.coeffs, want.prec), prec

    def test_e2_combination_with_fractions(self):
        # (1 - t) times each scale is an integer, and so is 24 times it
        comb = E2Combination(((Fraction(1, 6), 7), (Fraction(-3, 4), 5), (Fraction(5), 9)))
        for prec in (1, 2, 7, 40):
            got = comb.series(prec)
            want = sum_reference([(scale, eisenstein_weight2(t, prec)) for scale, t in comb.terms],
                                 prec)
            assert (got.valuation, got.coeffs, got.prec) == \
                (want.valuation, want.coeffs, want.prec)
        # here the constant terms sum to -1/6 + 3/2 - 40
        comb = E2Combination(((Fraction(1, 6), 2), (Fraction(-3, 4), 3), (Fraction(5), 9)))
        with pytest.raises(IntegralityViolation, match=r"q\^0 is -116/3, not an integer"):
            comb.series(7)

    @pytest.mark.parametrize("scalars", [
        (Fraction(1, 3),), (1, Fraction(1, 2)), (Fraction(3, 4), Fraction(-1, 4), Fraction(1, 5))])
    def test_non_integral_sum_is_refused_at_its_first_fraction(self, scalars):
        # COMB's quotients start at q^-1, q^2 and q^7
        comb = EtaCombination([EtaQuotient(6, t.factors, c)
                               for t, c in zip(self.COMB.terms, scalars)])
        terms = rational_terms([(t.scalar, quotient_reference(t, 9)) for t in comb.terms], 9)
        e, c = min((e, c) for e, c in terms.items() if c.denominator != 1)
        message = rf"the coefficient of q\^{e} is {c}, not an integer"
        with pytest.raises(IntegralityViolation, match=message) as err:
            comb.series(9)
        assert err.value.exit_code == 3
        if len(comb.terms) == 1:
            with pytest.raises(IntegralityViolation, match=message):
                comb.terms[0].series(9)


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

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_eta_quotient("eta(x)^2", 6)
        with pytest.raises(ValueError):
            parse_eta_quotient("3/4", 6)
