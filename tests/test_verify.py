"""Tests for the verification checks on small windows."""

import json

import pytest

from etaforms.basis import BasisCache, _extend_powers, _Family, _peel
from etaforms.cli import main
from etaforms.errors import NoConsistentSign
from etaforms.leveldata import SUPPORTED_LEVELS, LevelData, get_level
from etaforms.series import QSeries
from etaforms.verify import (
    CheckReport,
    _shift_poly,
    admissible_residues,
    al_identity_check,
    congruence_bound,
    congruence_scan,
    duality_check,
    genfun_check,
    rows_to_csv,
    theta_check,
    up_lemma_check,
)


@pytest.fixture(scope="module")
def cache():
    return BasisCache()


class TestDuality:
    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_weight_zero_small_window(self, n, cache):
        report = duality_check(n, 0, m_max=8, n_max=8, cache=cache)
        assert report.passed and not report.counterexamples
        assert report.details["pairs"] > 0

    def test_level6_known_values(self, cache):
        # a_0(1,2) = 4 pairs with b_2(2,1) = -4; a_0(1,1) = 6 with b_2(1,1) = -6
        report = duality_check(6, 0, m_max=2, n_max=2, cache=cache)
        assert report.passed
        from etaforms.basis import a_coeff, b_coeff
        assert a_coeff(6, 0, 1, 2, cache=cache) == 4
        assert b_coeff(6, 2, 2, 1, cache=cache) == -4
        assert a_coeff(6, 0, 1, 1, cache=cache) == 6
        assert b_coeff(6, 2, 1, 1, cache=cache) == -6

    def test_negative_weight(self, cache):
        report = duality_check(6, -2, m_max=6, n_max=6, cache=cache)
        assert report.passed

    def test_vacuous_window_flagged(self, cache):
        report = duality_check(6, 8, m_max=-20, n_max=5, cache=cache)
        assert report.passed and report.details["vacuous"]


class TestGenfun:
    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_weight_zero(self, n, cache):
        report = genfun_check(n, 0, m_max=5, z_prec=32, cache=cache)
        assert report.passed, report.render_text()
        assert report.details["cells"] > 0

    def test_weight_two_negative_dual(self, cache):
        report = genfun_check(6, 2, m_max=5, z_prec=32, cache=cache)
        assert report.passed

    def test_level10_weight_four(self, cache):
        report = genfun_check(10, 4, m_max=5, z_prec=32, cache=cache)
        assert report.passed


class TestTheta:
    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_small_window(self, n, cache):
        report = theta_check(n, m_max=6, window=24, cache=cache)
        assert report.passed, report.render_text()


class TestUpLemma:
    def test_level12(self, cache):
        report = up_lemma_check(12, m_max=8, zero_window=24, cache=cache)
        assert report.passed, report.render_text()
        assert report.details["zero_cases"] == 4

    def test_level12_pulled_back_values(self, cache):
        # the index-lowering relation transports the level-6 values 6 and 4
        from etaforms.basis import a_coeff
        assert a_coeff(12, 0, 2, 2, cache=cache) == a_coeff(6, 0, 1, 1, cache=cache) == 6
        assert a_coeff(12, 0, 2, 4, cache=cache) == a_coeff(6, 0, 1, 2, cache=cache) == 4

    def test_level18(self, cache):
        report = up_lemma_check(18, m_max=9, zero_window=24, cache=cache)
        assert report.passed
        assert report.details["mapped_cases"] == 3

    def test_other_levels_rejected(self, cache):
        with pytest.raises(ValueError):
            up_lemma_check(6, m_max=4, cache=cache)


class TestAlIdentity:
    @pytest.mark.parametrize("n,p", [(6, 2), (6, 3), (10, 2)])
    def test_base_and_first_step(self, n, p, cache):
        report = al_identity_check(n, p, r_set=[1], a_max=1, window=40, cache=cache)
        assert report.passed, report.render_text()
        assert report.details["recorded_sign"] == -1

    def test_rejects_non_coprime_residue(self, cache):
        with pytest.raises(ValueError):
            al_identity_check(6, 2, r_set=[2], a_max=0, cache=cache)

    def test_shares_its_power_tables(self, monkeypatch):
        # rows are decomposed in alt by a polynomial shift and read one companion
        # table; a table per row and per sign costs 625 series products here,
        # and peeling against one alt table 226
        products = []
        mul = QSeries.__mul__

        def counting_mul(a, b):
            if isinstance(b, QSeries):
                products.append(1)
            return mul(a, b)

        monkeypatch.setattr(QSeries, "__mul__", counting_mul)
        report = al_identity_check(6, 3, [1, 5, 7], a_max=2, window=48, cache=BasisCache())
        assert report.passed
        assert len(products) < 226

    def test_refuses_a_bad_generator_before_any_row(self, monkeypatch):
        rows_read = []
        element, rows = _Family.element, _Family.rows
        monkeypatch.setattr(LevelData, "aux_alt_series",
                            lambda self, p, prec: QSeries(-1, [2, 0, 1], prec))
        monkeypatch.setattr(_Family, "element",
                            lambda fam, m: rows_read.append(m) or element(fam, m))
        monkeypatch.setattr(_Family, "rows",
                            lambda fam, ms, *rest: rows_read.extend(ms) or rows(fam, ms, *rest))
        with pytest.raises(ValueError, match="generator must have expansion"):
            al_identity_check(6, 2, r_set=[1], a_max=1, window=20, cache=BasisCache())
        assert rows_read == []

    @pytest.mark.parametrize("n, p, shift", [(6, 2, -5), (6, 3, -5), (10, 2, 1)])
    def test_shift_decomposition_matches_peeling(self, n, p, shift, cache):
        # the reference: peel each row against the powers of alt itself
        data = get_level(n)
        max_m = p ** 2 * 7
        fam = cache.family(n, 0, "M", min_index=max_m, min_prec=40)
        alt = data.aux_alt_series(p, 40 + max_m + 8)
        assert alt - data.hauptmodul_series(alt.prec) == shift
        powers = _extend_powers([QSeries.one(alt.prec + 1)], alt, max_m)
        for m in sorted({p ** a * r for r in (1, 5, 7) for a in range(3)}):
            element = fam.element(m)
            coeffs, residual = _peel(element.expansion, powers[:m + 1], 0)
            assert residual.is_zero()
            assert _shift_poly(element.haupt_poly, shift) == coeffs

    def test_refuses_an_alt_that_is_not_psi_plus_a_constant(self, monkeypatch, capsys):
        rows_read = []
        element, rows = _Family.element, _Family.rows
        haupt = LevelData.hauptmodul_series
        monkeypatch.setattr(LevelData, "aux_alt_series",
                            lambda self, p, prec: haupt(self, prec) + QSeries.monomial(1, 1, prec))
        monkeypatch.setattr(_Family, "element",
                            lambda fam, m: rows_read.append(m) or element(fam, m))
        monkeypatch.setattr(_Family, "rows",
                            lambda fam, ms, *rest: rows_read.extend(ms) or rows(fam, ms, *rest))
        with pytest.raises(NoConsistentSign, match="not psi"):
            al_identity_check(6, 2, r_set=[1], a_max=1, window=20, cache=BasisCache())
        assert rows_read == []
        assert main(["validate", "--level", "6"]) == 3
        assert "[FAIL] p=2 involution data shapes" in capsys.readouterr().out


class TestCongruenceBound:
    def test_level6_p2(self):
        assert congruence_bound(6, 2, 3, 1, 1) == (4, "strong a>b")
        assert congruence_bound(6, 2, 1, 2, 1) == (2, "strong b>a")
        assert congruence_bound(6, 2, 2, 2, 1) == (None, "diagonal")

    def test_level6_p3(self):
        assert congruence_bound(6, 3, 2, 0, 1) == (3, "strong a>b")
        assert congruence_bound(6, 3, 0, 1, 2) == (1, "strong b>a")

    def test_level18_side_condition(self):
        assert congruence_bound(18, 2, 3, 1, 3) == (4, "strong a>b")
        assert congruence_bound(18, 2, 3, 1, 1) == (2, "weak a>b")
        assert congruence_bound(18, 2, 1, 3, 1) == (None, "none")

    def test_level12_side_condition(self):
        assert congruence_bound(12, 3, 2, 1, 2) == (2, "strong a>b")
        assert congruence_bound(12, 3, 2, 1, 1) == (1, "weak a>b")
        assert congruence_bound(12, 3, 1, 2, 1) == (None, "none")

    def test_level10(self):
        assert congruence_bound(10, 2, 2, 0, 1) == (3, "strong a>b")
        assert congruence_bound(10, 5, 2, 1, 1) == (1, "strong a>b")
        assert congruence_bound(10, 5, 1, 2, 1) == (None, "none")

    def test_admissible_residues(self):
        assert admissible_residues(2) == [1, 3, 5]
        assert admissible_residues(3) == [1, 2, 4]
        assert admissible_residues(5) == [1, 2, 3]


class TestCongruenceScan:
    def test_small_scan_level6(self, cache):
        rows, report = congruence_scan(6, 2, a_max=2, b_max=2, r_set=[1, 3],
                                       s_set=[1, 3], n_cap=40, cache=cache)
        assert report.passed
        assert report.details["failures"] == 0
        assert any(r.status == "no claim" for r in rows)       # diagonal rows
        assert all(r.m <= 40 and r.n <= 40 for r in rows)

    def test_individual_valuation_bounds(self, cache):
        def vp(x, p):
            v = 0
            while x and x % p == 0:
                x //= p
                v += 1
            return v
        from etaforms.basis import a_coeff
        a24 = a_coeff(6, 0, 2, 4, cache=cache)
        assert a24 == 0 or vp(a24, 2) >= 2
        a82 = a_coeff(6, 0, 8, 2, cache=cache)
        assert a82 == 0 or vp(a82, 2) >= 4
        a255 = a_coeff(10, 0, 25, 5, cache=cache)
        assert a255 == 0 or vp(a255, 5) >= 1

    def test_rows_serialize(self, cache):
        rows, report = congruence_scan(6, 2, a_max=1, b_max=1, r_set=[1],
                                       s_set=[1], n_cap=20, cache=cache)
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("N,p,a,b,r,s,m,n,coeff")
        assert len(lines) == len(rows) + 1
        parsed = json.loads(json.dumps([r.to_json() for r in rows]))
        assert parsed[0]["N"] == 6

    def test_bad_residue_rejected(self, cache):
        with pytest.raises(ValueError):
            congruence_scan(6, 2, 1, 1, r_set=[2], s_set=[1], n_cap=20, cache=cache)


def test_report_defaults_are_not_shared():
    a = CheckReport("a", {}, True, "w")
    b = CheckReport("b", {}, True, "w")
    a.counterexamples.append((1, 2))
    a.details["pairs"] = 3
    assert b.counterexamples == [] and b.details == {}
    assert a.precision == b.precision == 0


def test_report_round_trip(cache):
    report = duality_check(6, 0, m_max=3, n_max=3, cache=cache)
    blob = json.dumps(report.to_json())
    again = json.loads(blob)
    assert again["check"] == "duality" and again["passed"] is True
    assert isinstance(CheckReport(**{
        "name": again["check"], "params": again["params"], "passed": again["passed"],
        "window": again["window"],
    }), CheckReport)
