"""Tests for the exact Laurent-series kernel."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from etaforms.errors import PrecisionExceeded, ZeroLeadingTerm
from etaforms.series import QSeries, deepest, normalize_coeff


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


def random_series(rng, prec=64, val_range=(-4, 4), rational=False):
    val = rng.randint(*val_range)
    n = prec - val
    coeffs = [rng.randint(-9, 9) for _ in range(n)]
    if rational:
        k = rng.randrange(n)
        coeffs[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
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
        s = QSeries.monomial(2, 3, 10).scalar_mul(Fraction(1, 2))
        assert s.coeff(3) == 1 and isinstance(s.coeff(3), int)

    def test_precision_is_min(self):
        a = QSeries.one(10)
        b = QSeries.one(7)
        assert (a + b).prec == 7
        assert (a - b).prec == 7


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
            a = random_series(rng, prec=24, rational=True)
            b = random_series(rng, prec=24, rational=True)
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


class TestReciprocal:
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
            s = random_series(rng, prec=32, rational=True)
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
            a = random_series(rng, prec=32, rational=True)
            b = random_series(rng, prec=32, rational=True)
            c = random_series(rng, prec=32, rational=True)
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


class TestExactness:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            QSeries(0, [0.5], 4)
        with pytest.raises(TypeError):
            normalize_coeff(1.25)

    def test_string_round_trip(self):
        s = QSeries(0, [Fraction(25, 216), -3, Fraction(-1, 2)], 3)
        again = QSeries.from_json(s.to_json())
        assert again.coeffs == s.coeffs
        assert again.valuation == s.valuation and again.prec == s.prec
        assert s.to_json()["coeffs"] == ["25/216", "-3", "-1/2"]

    def test_int_normalization(self):
        s = QSeries(0, [Fraction(4, 2)], 1)
        assert s.coeff(0) == 2 and isinstance(s.coeff(0), int)


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
