"""Tests for the exact Laurent-series kernel."""

import itertools
import random
import sys
import threading
from fractions import Fraction
from math import gcd

import pytest

from etaforms.errors import IntegralityViolation, PrecisionExceeded, ZeroLeadingTerm
from etaforms.leveldata import get_level
from etaforms.series import (QSeries, _bias, _convolve, _decode, _low_slots, _pack, _progression,
                             _slot_width, deepest)


def naive_product(a: QSeries, b: QSeries) -> QSeries:
    """Independent reference: literal double-loop Cauchy product."""
    prec = min(a.prec + b.valuation, b.prec + a.valuation)
    acc = {}
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            e = a.valuation + i + b.valuation + j
            if e < prec:
                acc[e] = acc.get(e, 0) + ca * cb
    acc = {e: c for e, c in acc.items() if c}
    if not acc:
        return QSeries.zero(prec)
    return QSeries.from_terms(acc, prec)


def random_series(rng, prec=64, val_range=(-4, 4), big=False):
    val = rng.randint(*val_range)
    n = prec - val
    coeffs = [rng.randint(-9, 9) for _ in range(n)]
    if big:
        k = rng.randrange(n)
        coeffs[k] = rng.randint(-10 ** 40, 10 ** 40)
    if coeffs:
        coeffs[0] = rng.choice([1, 2, -1, 3])
    return QSeries(val, coeffs, prec)


# the level-6 hauptmodul expansion through q^3, used as a worked fixture
PSI6_HEAD = QSeries.from_terms({-1: 1, 1: 6, 2: 4, 3: -3}, 4)


class TestCoeff:
    def test_known_coefficients(self):
        assert PSI6_HEAD.coeff(-1) == 1
        assert PSI6_HEAD.coeff(0) == 0
        assert PSI6_HEAD.coeff(2) == 4

    def test_gap_below_valuation_is_zero(self):
        assert PSI6_HEAD.coeff(-3) == 0

    def test_beyond_precision_raises(self):
        with pytest.raises(PrecisionExceeded):
            PSI6_HEAD.coeff(4)
        with pytest.raises(PrecisionExceeded):
            QSeries.zero(10).coeff(10)


class TestAddSub:
    def test_cancellation_updates_valuation(self):
        a = QSeries.monomial(1, -1, 8)
        b = QSeries.from_terms({-1: -1, 1: 1}, 8)
        s = a + b
        assert s.valuation == 1 and s.coeff(1) == 1

    def test_add_zero_is_identity(self):
        s = PSI6_HEAD
        assert (s + QSeries.zero(4)).coeffs == s.coeffs

    def test_scalar_mul(self):
        s = QSeries.monomial(2, 3, 10).scalar_mul(-3)
        assert s.coeff(3) == -6 and isinstance(s.coeff(3), int)
        assert QSeries.monomial(2, 3, 10).scalar_mul(0).is_zero()
        with pytest.raises(TypeError):
            QSeries.monomial(2, 3, 10).scalar_mul(Fraction(1, 2))

    def test_precision_is_min(self):
        a = QSeries.one(10)
        b = QSeries.one(7)
        assert (a + b).prec == 7
        assert (a - b).prec == 7

    @pytest.mark.parametrize("other", [Fraction(1, 2), 0.5, "1", None, [1]])
    def test_other_operand_types_are_refused(self, other):
        s = PSI6_HEAD
        assert s.__sub__(other) is NotImplemented
        with pytest.raises(TypeError):
            s - other
        with pytest.raises(TypeError):
            other - s

    def test_a_right_hand_type_handles_its_own_difference(self):
        class Other:
            def __rsub__(self, left):
                return "rsub"
        assert PSI6_HEAD - Other() == "rsub"
        with pytest.raises(TypeError):
            Other() - PSI6_HEAD

    def test_int_operands(self):
        s = PSI6_HEAD
        assert fields(s - 3) == (-1, (1, -3, 6, 4, -3), 4)
        assert fields(3 - s) == (-1, (-1, 3, -6, -4, 3), 4)
        assert fields(s - 0) == fields(s) and fields(0 - s) == fields(-s)
        assert fields(s - s) == fields(QSeries.zero(4)) and fields(s + True) == fields(s + 1)

    def test_scalar_is_unknown_below_q0(self):
        # a series known only below q^0 does not know its constant term
        s = QSeries(-1, (1,), 0)
        for t in (s + 5, 5 + s, s - 2):
            assert (t.valuation, t.coeffs, t.prec) == (-1, (1,), 0)
        with pytest.raises(TypeError):
            s + Fraction(1, 2)
        assert QSeries.zero(0) == 7 and QSeries.zero(-2) + 3 == 0
        assert QSeries.one(1) == 1 and not QSeries.one(1) == 2
        data = get_level(6)
        psi = data.hauptmodul_quotient.series(0) + data.hauptmodul_shift
        assert (psi.valuation, psi.coeffs, psi.prec) == (-1, (1,), 0)


def naive_combination(terms, prec=None) -> QSeries:
    """Independent reference: the sum exponent by exponent, to the least precision of
    ``prec`` and the series with a nonzero scalar."""
    used = [(c, s) for c, s in terms if c]
    prec = min([s.prec for _, s in used] + ([] if prec is None else [prec]))
    acc = {}
    for c, s in used:
        for e in range(s.valuation, prec):
            acc[e] = acc.get(e, 0) + c * s.coeff(e)
    return QSeries.from_terms({e: c for e, c in acc.items() if c}, prec)


def fields(s: QSeries) -> tuple:
    return s.valuation, s.coeffs, s.prec


class TestCombination:
    def test_matches_the_per_exponent_sum(self):
        rng = random.Random(30)
        for _ in range(300):
            terms = []
            for _ in range(rng.randint(1, 5)):
                prec = rng.randint(-3, 40)
                s = (QSeries.zero(prec) if rng.random() < 0.2
                     else random_series(rng, prec, val_range=(-6, min(prec - 1, 6)), big=rng.random() < 0.2))
                terms.append((rng.choice([0, 1, -1, rng.randint(-10 ** 20, 10 ** 20)]), s))
            prec = rng.choice([None, rng.randint(-4, 45)])
            if prec is None and not any(c for c, _ in terms):
                terms.append((1, random_series(rng, 30)))
            assert fields(QSeries.combination(terms, prec)) == fields(naive_combination(terms, prec))

    def test_zero_scalars_keep_the_precision(self):
        deep, shallow = QSeries.one(20), QSeries.from_terms({-2: 5, 3: 1}, 4)
        assert fields(QSeries.combination([(2, deep), (0, shallow)])) == (0, (2,), 20)
        assert fields(QSeries.combination([(0, shallow)], 9)) == (9, (), 9)
        assert fields(QSeries.combination([(1, shallow), (-1, shallow)], 30)) == (4, (), 4)

    def test_sum_and_difference_are_combinations(self):
        a, b = PSI6_HEAD, QSeries.from_terms({-3: 2, 0: -1, 5: 7}, 9)
        assert fields(a + b) == fields(QSeries.combination([(1, a), (1, b)]))
        assert fields(a - b) == fields(QSeries.combination([(1, a), (-1, b)]))
        assert fields(b - a) == fields(QSeries.combination([(-1, a), (1, b)]))

    def test_no_nonzero_scalar_and_no_precision_is_refused(self):
        for terms in ([], [(0, PSI6_HEAD)], iter([(0, QSeries.one(3)), (0, PSI6_HEAD)])):
            with pytest.raises(ValueError, match="needs a precision"):
                QSeries.combination(terms)

    def test_non_int_scalar_is_refused(self):
        with pytest.raises(TypeError):
            QSeries.combination([(Fraction(1, 2), PSI6_HEAD)])


class TestMul:
    def test_square_of_hauptmodul_head(self):
        sq = PSI6_HEAD * PSI6_HEAD
        oracle = naive_product(PSI6_HEAD, PSI6_HEAD)
        assert sq.agrees_with(oracle)
        assert sq.prec == 3
        assert [sq.coeff(n) for n in range(-2, 3)] == [1, 0, 12, 8, 30]

    def test_mul_one_is_identity(self):
        s = PSI6_HEAD
        assert (s * QSeries.one(20)).coeffs == s.coeffs

    def test_monomial_exponent_addition(self):
        p = QSeries.monomial(1, -2, 10) * QSeries.monomial(1, 3, 10)
        assert p.valuation == 1 and p.coeff(1) == 1

    def test_matches_naive_oracle_on_randoms(self):
        rng = random.Random(7)
        for _ in range(60):
            a = random_series(rng, prec=24, big=True)
            b = random_series(rng, prec=24, big=True)
            assert (a * b).agrees_with(naive_product(a, b))

    def test_kernel_bit_identical_to_schoolbook(self):
        rng = random.Random(11)
        for _ in range(40):
            a = random_series(rng, prec=20)
            b = random_series(rng, prec=20)
            fast = a * b
            slow = naive_product(a, b)
            assert fast.valuation == slow.valuation
            assert fast.prec == slow.prec
            assert fast.coeffs == slow.coeffs


def naive_convolve(a, b, out_len):
    """Reference for the kernel: every product, zero factors included."""
    out = [0] * max(out_len, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < out_len:
                out[i + j] += x * y
    return out


def progression_coeffs(rng, length, step, offset, big=False):
    out = [0] * length
    for i in range(offset, length, step):
        if rng.random() < 0.8:
            out[i] = rng.randint(-9, 9)
            if big and rng.random() < 0.3:
                out[i] = rng.randint(-10 ** 40, 10 ** 40)
    return tuple(out)


def progression_by_loop(c):
    """Reference for ``_progression``: one pass over every entry."""
    first = None
    step = 0
    for i, x in enumerate(c):
        if x:
            if first is None:
                first = i
            else:
                step = gcd(step, i - first)
                if step == 1:
                    break
    return first, step


class TestProgression:
    def test_matches_the_loop(self):
        rng = random.Random(41)
        for _ in range(2000):
            c = progression_coeffs(rng, rng.randint(0, 60), rng.choice([1, 2, 3, 5, 6]),
                                   rng.randint(0, 12), big=rng.random() < 0.3)
            assert _progression(c) == progression_by_loop(c), c
            assert _progression(list(c)) == progression_by_loop(c), c

    @pytest.mark.parametrize("c, want", [
        ((), (None, 0)),
        ((0, 0, 0), (None, 0)),
        ((0, 0, 7), (2, 0)),
        ((0, 10 ** 40, 0, 0, 0, 0, 0, -3), (1, 6)),
        ((0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3), (2, 1)),
        ((1, 0, 0, 0, 0, 0, 1, 0, 0, 1), (0, 3)),
    ])
    def test_edge_cases(self, c, want):
        assert _progression(c) == progression_by_loop(c) == want


class TestConvolveKernel:
    def test_matches_double_loop_on_progressions(self):
        rng = random.Random(23)
        for _ in range(400):
            a = progression_coeffs(rng, rng.randint(0, 40), rng.choice([1, 2, 3, 5]),
                                   rng.randint(0, 6), big=rng.random() < 0.3)
            b = progression_coeffs(rng, rng.randint(0, 40), rng.choice([1, 2, 3, 5]),
                                   rng.randint(0, 6), big=rng.random() < 0.3)
            out_len = rng.randint(-3, 85)
            assert _convolve(a, b, out_len) == naive_convolve(a, b, out_len)

    @pytest.mark.parametrize("a, b, out_len", [
        ((0, 0, 3), (0, 5), 6),                 # two monomials
        ((0, 0, 3), (0, 5), 3),                 # out_len == fa + fb
        ((0, 0, 3), (0, 5), 2),                 # out_len below fa + fb
        ((0, 0, 0), (1, 2, 3), 5),              # all-zero operand
        ((), (1, 2), 4),                        # empty operand
        ((1, 0, 2), (1, 2), 0),
        ((1, 0, 2), (1, 2), -4),
        ((0, 1, 0, 0, 0, 0, 2), (0, 0, 3, 0, 0, 0, 0, 0, 4), 20),   # steps 5 and 6
        ((-10 ** 40, 0, 3), (0, -2, 0, 10 ** 40), 7),
    ])
    def test_edge_cases(self, a, b, out_len):
        assert _convolve(a, b, out_len) == naive_convolve(a, b, out_len)

    @staticmethod
    def extremes(k):
        """Coefficients of exactly k bits at the edges: +-(2^k - 1), -2^k, +-2^(k-1)."""
        top = (1 << k) - 1
        return [top, -top, -(1 << k), 1 << (k - 1), -(1 << (k - 1))]

    def test_signed_coefficients_of_1_to_1100_bits(self):
        rng = random.Random(31)
        for k in (1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200, 511, 512, 513, 1023, 1024, 1100):
            for _ in range(3):
                a = tuple(rng.choice(self.extremes(k) + [0, rng.randint(-(1 << k), 1 << k)])
                          for _ in range(rng.randint(1, 24)))
                kb = rng.randint(1, 1100)
                b = tuple(rng.choice(self.extremes(kb) + [rng.randint(-(1 << kb), 1 << kb)])
                          for _ in range(rng.randint(1, 24)))
                out_len = rng.randint(1, len(a) + len(b))
                assert _convolve(a, b, out_len) == naive_convolve(a, b, out_len)

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 8, 9, 31, 32, 33])
    def test_one_signed_operands_reach_the_slot_bound(self, length):
        # every product in a slot has the same sign, so the middle slot sums
        # length * (2^ka - 1) * (2^kb - 1), as close to the bound as it gets;
        # eight consecutive kb put the bound at every offset within a byte
        for ka, kb in itertools.product((1, 64, 1100), (*range(1, 9), *range(1093, 1101))):
            top_a, top_b = (1 << ka) - 1, (1 << kb) - 1
            for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
                a = (sa * top_a,) * length
                b = (sb * top_b,) * length
                want = naive_convolve(a, b, 2 * length - 1)
                assert want[length - 1] == sa * sb * length * top_a * top_b
                assert _convolve(a, b, 2 * length - 1) == want
                a = (sa * (1 << ka),) * length      # -2^k has k + 1 bits
                assert _convolve(a, b, 2 * length - 1) == naive_convolve(a, b, 2 * length - 1)

    @pytest.mark.parametrize("step", [1, 2, 3, 5])
    def test_strides_and_short_outputs(self, step):
        rng = random.Random(step)
        for _ in range(40):
            a = list(progression_coeffs(rng, rng.randint(10, 60), step, rng.randint(0, 4)))
            b = list(progression_coeffs(rng, rng.randint(10, 60), step, rng.randint(0, 4)))
            for c in (a, b):
                for i, x in enumerate(c):
                    c[i] = x << rng.randint(0, 300)
            out_len = rng.randint(1, min(len(a), len(b)) - 1)
            assert _convolve(tuple(a), tuple(b), out_len) == naive_convolve(a, b, out_len)

    def test_packed_slots_round_trip_whatever_lies_above(self):
        # the format the kernel and the basis row recurrence share: the n low
        # slots read back exactly, for values at the edge of the width, with
        # any carry or borrow from the slots above them
        rng = random.Random(11)
        for _ in range(200):
            bits = rng.randint(1, 200)
            width = _slot_width(bits)
            n = rng.randint(1, 30)
            values = [rng.choice([-1, 1]) * rng.randrange(1 << bits) for _ in range(n)]
            packed = _pack(values, width)
            assert packed == sum(v << (8 * width * i) for i, v in enumerate(values))
            above = rng.randint(-(1 << 300), 1 << 300) << (8 * width * n)
            bias = _bias(n, width)
            raw = _low_slots(packed + above, n, width, bias)
            assert _decode(raw, n, width, bias) == values

    def test_product_types_match_the_schoolbook_product(self):
        rng = random.Random(9)
        for _ in range(60):
            a = random_series(rng, prec=24, big=True)
            b = random_series(rng, prec=24, big=rng.random() < 0.5)
            b = b.scalar_mul(rng.choice([1, 2, 6, -3]))
            fast, slow = a * b, naive_product(a, b)
            assert (fast.valuation, fast.coeffs, fast.prec) == (slow.valuation, slow.coeffs, slow.prec)
            assert [type(c) for c in fast.coeffs] == [type(c) for c in slow.coeffs]

    def test_level6_worst_case_shape(self):
        # psi^200 * psi at 733 terms: coefficients near 1000 bits against
        # about 400, the widest slots a congruence scan packs
        psi = get_level(6).hauptmodul_series(732)
        power = psi ** 200
        assert len(power.coeffs) == len(psi.coeffs) == 733
        got = power * psi
        n = got.prec - got.valuation
        assert n == 733
        assert got.coeffs == tuple(naive_convolve(power.coeffs, psi.coeffs, n))

    def test_level18_powers_match_dense_reference(self):
        # level 18's psi lives on exponents = 2 mod 3, so its powers do too
        psi = get_level(18).hauptmodul_series(240)
        power = psi
        for _ in range(4):
            dense = naive_product(power, psi)
            power = power * psi
            assert power.valuation == dense.valuation
            assert power.prec == dense.prec
            assert power.coeffs == dense.coeffs


def naive_reciprocal(s: QSeries) -> QSeries:
    """Reference inverse: each coefficient of 1/s from all the ones before it,
    as the Fraction (1 if n = 0 else 0) - sum of u_j out_(n-j), over u_0, which
    must be an integer."""
    u = s.coeffs
    out = []
    for n in range(s.prec - s.valuation):
        acc = sum(u[j] * out[n - j] for j in range(1, min(n, len(u) - 1) + 1) if u[j])
        c = Fraction((n == 0) - acc, u[0])
        assert c.denominator == 1, f"1/s has the coefficient {c}"
        out.append(c.numerator)
    return QSeries(-s.valuation, out, s.prec - 2 * s.valuation)


def random_unit(rng, length, lead, span=9):
    """A series of ``length`` known terms from a random valuation in -3..3, led by
    ``lead``, the rest in -span..span."""
    coeffs = [lead] + [rng.randint(-span, span) for _ in range(length - 1)]
    val = rng.randint(-3, 3)
    return QSeries(val, coeffs, val + length)


# 1/s is integral exactly for these leads; any other is refused
LEADS = [1, -1]
NON_UNIT_LEADS = [3, -3, 2, 10 ** 40]


class TestReciprocal:
    def test_matches_the_double_loop(self):
        rng = random.Random(14)
        for length in [1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 64, 100]:
            for lead in LEADS:
                s = random_unit(rng, length, lead)
                assert s.reciprocal().to_json() == naive_reciprocal(s).to_json(), (length, lead)
        # large coefficients make 1/s grow geometrically: the long inputs keep
        # the double loop quick
        for length in [255, 256, 257, 511, 733, 800]:
            for lead in (1, -1):
                s = random_unit(rng, length, lead, span=1)
                assert s.reciprocal().to_json() == naive_reciprocal(s).to_json(), (length, lead)

    def test_fractions_dilations_and_trailing_zeros(self):
        # a lead other than 1 or -1 would put fractions in 1/s, and is refused
        rng = random.Random(15)
        for _ in range(40):
            s = random_unit(rng, rng.randint(1, 60), rng.choice(LEADS + NON_UNIT_LEADS))
            s = s.dilated(rng.choice([1, 2, 3]))
            if rng.random() < 0.5:
                # zeros past the last stored coefficient, still known
                s = QSeries(s.valuation, s.coeffs, s.prec + rng.randint(1, 30))
            if s.coeffs[0] in NON_UNIT_LEADS:
                with pytest.raises(IntegralityViolation):
                    s.reciprocal()
                continue
            got = s.reciprocal()
            assert got.to_json() == naive_reciprocal(s).to_json()
            assert {int}.issuperset(map(type, got.coeffs))

    @pytest.mark.parametrize("lead", NON_UNIT_LEADS)
    def test_non_unit_lead_is_refused(self, lead):
        s = random_unit(random.Random(lead), 12, lead).shifted(2)
        for invert in (QSeries.reciprocal, lambda s: s ** -2, lambda s: QSeries.one(8) / s):
            with pytest.raises(IntegralityViolation, match=f"led by {lead}q") as err:
                invert(s)
            assert err.value.exit_code == 3

    def test_level18_unit_on_its_progression(self):
        # q * psi is a unit in q^3 with 733 known terms, the size a cold level-18 scan inverts
        psi = get_level(18).hauptmodul_series(732).shifted(1)
        assert psi.reciprocal().to_json() == naive_reciprocal(psi).to_json()

    def test_negative_powers_and_division(self):
        rng = random.Random(16)
        for _ in range(10):
            s = random_unit(rng, rng.randint(1, 40), rng.choice(LEADS), span=10 ** 40)
            t = random_unit(rng, rng.randint(1, 40), rng.choice(LEADS))
            inv = naive_reciprocal(s)
            assert (s ** -1).to_json() == inv.to_json()
            assert (s ** -2).to_json() == (inv * inv).to_json()
            assert (t / s).to_json() == (t * inv).to_json()

    def test_geometric_series(self):
        s = QSeries.from_terms({0: 1, 1: -1}, 8)
        r = s.reciprocal()
        assert all(r.coeff(n) == 1 for n in range(0, 7))

    def test_shifted_unit(self):
        s = QSeries.from_terms({2: 1, 3: 1}, 12)
        r = s.reciprocal()
        assert r.valuation == -2
        assert [r.coeff(n) for n in range(-2, 2)] == [1, -1, 1, -1]

    def test_defining_property_on_randoms(self):
        rng = random.Random(3)
        for _ in range(25):
            s = random_unit(rng, rng.randint(1, 36), rng.choice(LEADS), span=10 ** 40)
            p = s * s.reciprocal()
            assert p.coeff(0) == 1
            assert all(p.coeff(n) == 0 for n in range(p.valuation, p.prec) if n != 0)

    def test_zero_series_rejected(self):
        with pytest.raises(ZeroLeadingTerm):
            QSeries.zero(5).reciprocal()


class TestIntPow:
    def test_square_matches_convolution_oracle(self):
        # weight-2 level-6 form head: q^2 - 2q^3 + 3q^4 - q^6 + 7q^8 + O(q^9)
        f = QSeries.from_terms({2: 1, 3: -2, 4: 3, 6: -1, 8: 7}, 9)
        sq = f ** 2
        assert sq.agrees_with(naive_product(f, f))
        assert [sq.coeff(n) for n in range(4, 7)] == [1, -4, 10]

    def test_pow_zero_and_one(self):
        s = PSI6_HEAD
        assert (s ** 0) == 1
        assert (s ** 1).coeffs == s.coeffs

    def test_negative_power_of_zero_rejected(self):
        with pytest.raises(ZeroLeadingTerm):
            QSeries.zero(5) ** -1

    def test_negative_power_inverts(self):
        s = QSeries.from_terms({1: 1, 2: 5}, 20)
        p = (s ** -3) * (s ** 3)
        assert p == 1


class TestRingAxioms:
    def test_axioms_on_random_triples(self):
        rng = random.Random(2024)
        for _ in range(120):
            a = random_series(rng, prec=32, big=True)
            b = random_series(rng, prec=32, big=True)
            c = random_series(rng, prec=32, big=True)
            assert ((a + b) + c).agrees_with(a + (b + c))
            assert (a * b).agrees_with(b * a)
            assert (a * (b + c)).agrees_with(a * b + a * c)


class TestPrecisionSoundness:
    def test_monotone_refinement(self):
        # the same op chain at higher precision must reproduce every claimed
        # coefficient of the lower-precision run
        def chain(prec):
            a = QSeries.from_terms({-1: 1, 1: 6, 2: 4, 3: -3, 5: 2}, prec)
            b = QSeries.from_terms({2: 1, 3: -2, 4: 3}, prec)
            return (a * a - b) * a + b.reciprocal()

        lo = chain(16)
        hi = chain(40)
        assert hi.prec >= lo.prec
        for n in range(lo.valuation, lo.prec):
            assert lo.coeff(n) == hi.coeff(n)

    def test_truncation_coherence(self):
        s = PSI6_HEAD
        t = s.truncated(2)
        assert t.prec == 2
        assert all(t.coeff(n) == s.coeff(n) for n in range(-1, 2))


def normalize_coeff(value) -> int:
    """Reference for one coefficient read from JSON: the int an integer string
    spells; TypeError for any other type, ValueError for a string int does not read."""
    if type(value) is not str:
        raise TypeError(f"integer string expected, got {value!r}")
    return int(value)


class TestExactness:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            QSeries(0, [0.5], 4)
        with pytest.raises(TypeError):
            QSeries(0, [1, 2, 3.0], 4)

    def test_string_round_trip(self):
        s = QSeries(0, [10 ** 40, -3, -1], 3)
        again = QSeries.from_json(s.to_json())
        assert again.coeffs == s.coeffs
        assert again.valuation == s.valuation and again.prec == s.prec
        assert s.to_json()["coeffs"] == [str(10 ** 40), "-3", "-1"]
        with pytest.raises(ValueError):
            QSeries.from_json({**s.to_json(), "coeffs": ["25/216", "-3", "-1/2"]})

    def test_json_integers_parse_as_int(self):
        s = QSeries(0, [7, -7, 10 ** 40], 5)
        again = QSeries.from_json(s.to_json())
        assert again.coeffs == s.coeffs
        assert [type(c) for c in again.coeffs] == [int, int, int]
        for bad in ("2x", "1/0", "", "3/2", "1.5"):
            with pytest.raises(ValueError):
                QSeries.from_json({"valuation": 0, "prec": 2, "coeffs": ["1", bad]})
        for bad in (3, 2.5, True, None, [1]):       # JSON numbers and the rest
            with pytest.raises(TypeError):
                QSeries.from_json({"valuation": 0, "prec": 2, "coeffs": ["1", bad]})

    def test_coefficients_past_the_precision_bound_are_refused(self):
        with pytest.raises(ValueError, match="past the precision bound"):
            QSeries(-2, [1, 0, 3], 0)
        # trailing zeros are dropped first
        assert QSeries(-2, [1, 0, 3, 0, 0], 1).coeffs == (1, 0, 3)

    def test_int_normalization(self):
        s = QSeries(0, [True], 1)
        assert s.coeff(0) == 1 and type(s.coeff(0)) is int

    @pytest.mark.parametrize("entry, want", [(True, 1), (False, 0)])
    def test_non_int_entry_among_ints_is_normalized(self, entry, want):
        s = QSeries(0, [5, entry, 7, -1, 9], 5)
        assert s.coeffs == (5, want, 7, -1, 9)
        assert [type(c) for c in s.coeffs] == [int] * 5
        assert s.truncated(3).coeffs == (5, want, 7)
        mixed = QSeries(0, [5, True, 7, -1, False, 9], 6)
        assert [type(c) for c in mixed.coeffs] == [int] * 6

    @pytest.mark.parametrize("entry", [Fraction(4, 2), "3/2", Fraction(3, 2), "3", 2.0, None])
    def test_non_int_entry_among_ints_is_refused(self, entry):
        with pytest.raises(TypeError):
            QSeries(0, [5, entry, 7, -1, 9], 5)
        with pytest.raises(TypeError):
            QSeries.monomial(entry, 2, 5)

    @pytest.mark.parametrize("coeffs", ["123", {"1": 0}, ("1", "2"), None])
    def test_json_coefficients_must_be_a_list(self, coeffs):
        with pytest.raises(TypeError):
            QSeries.from_json({"valuation": -1, "prec": 3, "coeffs": coeffs})

    @pytest.mark.parametrize("coeffs", [
        [str(10 ** 60), "-7", "+3", " 12 ", "-0", "5"],         # large, signed, spaced
        ["0", "0", "1", "3", "-4", "2", "0", "0"],               # zero runs at both ends
        ["0", "0", "0"],
        [],
        [3, "-2", Fraction(8, 4), "1/3", True, "0"],            # ints and strs mixed: refused
        ["1_000", "7"],
    ])
    def test_json_parse_matches_normalize_coeff(self, coeffs):
        doc = {"valuation": -2, "prec": 20, "coeffs": coeffs}
        try:
            want = tuple(map(normalize_coeff, coeffs))
        except (TypeError, ValueError) as err:
            with pytest.raises(type(err)):
                QSeries.from_json(doc)
            return
        got = QSeries.from_json(doc)
        lead = next((i for i, c in enumerate(want) if c), len(want))
        tail = len(want) - next((i for i, c in enumerate(reversed(want)) if c), len(want))
        want = want[lead:tail]
        assert got.coeffs == want
        assert list(map(type, got.coeffs)) == list(map(type, want))
        assert got.valuation == (-2 + lead if want else 20)

    @pytest.mark.parametrize("coeffs", [["1", 2.5], [2.5], ["1", "2", 0.0]])
    def test_json_float_coefficient_is_a_type_error(self, coeffs):
        with pytest.raises(TypeError):
            QSeries.from_json({"valuation": 0, "prec": 5, "coeffs": coeffs})


class TestReindexing:
    def test_dilated(self):
        s = QSeries.from_terms({-1: 1, 1: 1}, 4)
        d = s.dilated(3)
        assert d.coeff(-3) == 1 and d.coeff(3) == 1
        assert d.coeff(1) == 0
        assert d.prec == 12

    def test_shifted(self):
        s = QSeries.one(5).shifted(-2)
        assert s.valuation == -2 and s.prec == 3

    def test_pretty(self):
        assert PSI6_HEAD.pretty() == "q^-1 + 6q + 4q^2 - 3q^3"
        assert QSeries.zero(5).pretty() == "0"
        assert QSeries.from_terms({0: -2, 1: 1}, 9).pretty() == "-2 + q"
        # repr shows the first six terms
        assert repr(QSeries(0, range(1, 9), 8)) == "QSeries(1 + 2q + 3q^2 + 4q^3 + 5q^4 + 6q^5 + O(q^8))"


class TestDeepest:
    @staticmethod
    def squares(prec):
        return QSeries(-2, [n * n for n in range(-2, prec)], prec)

    def test_serves_truncations_of_the_deepest(self):
        memo, computed = {}, []

        def compute(prec):
            computed.append(prec)
            return self.squares(prec)

        for prec in (10, 4, 30, 10, 2, 30):
            got = deepest(memo, "k", prec, compute)
            want = self.squares(prec)
            assert (got.valuation, got.coeffs, got.prec) == (want.valuation, want.coeffs, want.prec)
        assert computed == [10, 30]
        assert memo["k"].prec == 30

    def test_concurrent_requests_keep_the_deepest(self):
        memo, errors = {}, []
        precs = [random.Random(i).randint(1, 200) for i in range(64)]

        def worker(prec):
            try:
                got = deepest(memo, "k", prec, self.squares)
                assert got.coeffs == self.squares(prec).coeffs and got.prec == prec
            except Exception as err:            # noqa: BLE001 - reported below
                errors.append(err)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(p,)) for p in precs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert memo["k"].prec == max(precs)
