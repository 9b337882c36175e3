"""Tests for the coefficient operators."""

import random

from etaforms.eta import EtaQuotient
from etaforms.leveldata import get_level
from etaforms.operators import theta, u_p
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
            assert u_p(s.dilated(p), p) == s

    def test_up_of_vp_multiplier(self):
        # u_p(s * V_p(t)) = u_p(s) * t
        rng = random.Random(29)
        for p in (2, 3):
            for _ in range(15):
                s, t = random_series(rng), random_series(rng)
                lhs = u_p(s * t.dilated(p), p)
                rhs = u_p(s, p) * t
                assert lhs == rhs


class TestVp:
    # V_p: q -> q^p, the companion of u_p, is QSeries.dilated
    def test_dilation(self):
        s = QSeries.from_terms({-1: 1, 1: 1}, 4)
        d = s.dilated(3)
        assert d.coeff(-3) == 1 and d.coeff(3) == 1 and d.prec == 12

    def test_constant_fixed(self):
        assert QSeries.one(6).dilated(5) == 1
