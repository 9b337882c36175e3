"""Tests for the coefficient operators and the involution sum."""

import random

import pytest

from etaforms.errors import UnsupportedPair
from etaforms.eta import EtaQuotient
from etaforms.leveldata import get_level
from etaforms.operators import al_sum, theta, u_p, v_p
from etaforms.series import QSeries


def random_series(rng, prec=24):
    val = rng.randint(-3, 3)
    coeffs = [rng.randint(-6, 6) for _ in range(prec - val)]
    coeffs[0] = rng.choice([1, -1, 2])
    return QSeries(val, coeffs, prec)


class TestTheta:
    def test_termwise(self):
        s = QSeries.from_terms({-1: 1, 1: 6, 2: 4}, 3)
        t = theta(s)
        assert [t.coeff(n) for n in (-1, 0, 1, 2)] == [-1, 0, 6, 8]
        assert t.prec == s.prec

    def test_constant_annihilated(self):
        assert theta(QSeries.one(10)).is_zero()

    def test_hauptmodul_maps_to_cusp_element(self):
        psi = get_level(6).hauptmodul_series(32)
        direct = EtaQuotient(6, {2: 6, 3: 8, 6: -10}).series(32)
        assert theta(psi) == -direct

    def test_leibniz_rule(self):
        rng = random.Random(17)
        for _ in range(30):
            a, b = random_series(rng), random_series(rng)
            assert theta(a * b) == theta(a) * b + a * theta(b)


class TestUp:
    def test_even_coefficients_of_hauptmodul(self):
        psi = get_level(6).hauptmodul_series(12)
        u = u_p(psi, 2)
        assert u.valuation == 1 and u.coeff(1) == 4

    def test_index_map(self):
        s = QSeries.from_terms({-2: 1, 3: 1}, 8)
        u = u_p(s, 2)
        assert u.coeff(-1) == 1
        assert all(u.coeff(t) == 0 for t in range(0, u.prec))
        assert u.prec == 4

    def test_precision_floor(self):
        assert u_p(QSeries.one(11), 2).prec == 5

    def test_up_after_vp_is_identity(self):
        rng = random.Random(23)
        for p in (2, 3, 5):
            s = random_series(rng)
            assert u_p(v_p(s, p), p) == s

    def test_up_of_vp_multiplier(self):
        # u_p(s * v_p(t)) = u_p(s) * t
        rng = random.Random(29)
        for p in (2, 3):
            for _ in range(15):
                s, t = random_series(rng), random_series(rng)
                lhs = u_p(s * v_p(t, p), p)
                rhs = u_p(s, p) * t
                assert lhs == rhs


class TestVp:
    def test_dilation(self):
        s = QSeries.from_terms({-1: 1, 1: 1}, 4)
        d = v_p(s, 3)
        assert d.coeff(-3) == 1 and d.coeff(3) == 1 and d.prec == 12

    def test_constant_fixed(self):
        assert v_p(QSeries.one(6), 5) == 1


class TestAlSum:
    def test_constant_term_only(self):
        s = al_sum(6, 2, [1], sign=-1, prec=8)
        assert s == 1

    def test_level6_linear_term(self):
        s = al_sum(6, 2, [0, 1], sign=-1, prec=10)
        cusp = get_level(6).aux_cusp_series(2, 10)
        assert s == cusp.scalar_mul(-8)

    def test_level10_linear_term(self):
        s = al_sum(10, 2, [0, 1], sign=-1, prec=10)
        cusp = get_level(10).aux_cusp_series(2, 10)
        assert s == cusp.scalar_mul(-4)

    @pytest.mark.parametrize("n,p", [(6, 2), (6, 3), (10, 2)])
    def test_equals_a_term_by_term_sum(self, n, p):
        # reference: one running power of the companion, each term added to
        # the sum as it is reached
        cusp = get_level(n).aux_cusp_series(p, 30)
        lam = -get_level(n).aux[p].scale
        coeffs = [2, 0, -3, 0, 0, 1]
        ref, power = QSeries.zero(30), QSeries.one(30)
        for i, c in enumerate(coeffs):
            ref = ref + power.scalar_mul(c * lam ** i)
            power = power * cusp
        got = al_sum(n, p, iter(coeffs), sign=-1, prec=30)
        assert (got.valuation, got.coeffs, got.prec) == (ref.valuation, ref.coeffs, ref.prec)

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedPair):
            al_sum(12, 2, [1], sign=1, prec=8)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            al_sum(6, 2, [1], sign=0, prec=8)
