"""Tests for the verification checks on small windows."""

import json
import operator
import re
import sys
import threading

import pytest

from etaforms import verify
from etaforms.basis import BasisCache, BasisElement, _Family
from etaforms.cli import main
from etaforms.errors import (InsufficientPrecision, IntegralityViolation, NoConsistentSign,
                             PrecisionExceeded)
from etaforms.leveldata import SUPPORTED_LEVELS, AuxData, LevelData, get_level
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

from test_basis import decompose_in_hauptmodul     # the peeling oracle


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


def naive_duality_check(n, k, m_max, n_max, cache):
    """The reference: every pair read by integer_coeff, and the constant term of
    f * g summed over the whole window of m + n + 1 products."""
    data = get_level(n)
    m_lo, n_lo = -data.n0(k), -data.n1(2 - k)
    gs = cache.rows(n, 2 - k, "S", range(n_lo, n_max + 1), m_max + 5)
    bad = []
    pairs = 0
    for f in cache.rows(n, k, "M", range(m_lo, m_max + 1), n_max + 5):
        for g in gs:
            m, nn = f.index, g.index
            a = f.integer_coeff(nn)
            b = g.integer_coeff(m)
            pairs += 1
            if a != -b:
                bad.append((m, nn, a, -b))
            fe, ge = f.expansion, g.expansion
            t_hi = -ge.valuation
            if fe.prec <= t_hi or ge.prec <= -fe.valuation:
                raise InsufficientPrecision("product constant term not determined",
                                            needed=max(t_hi + 1, -fe.valuation + 1))
            w = max(t_hi + 1 - fe.valuation, 0)
            fc, gc = fe.coeffs[:w], ge.coeffs[:w]
            const = sum(map(operator.mul, fc[w - len(gc):], reversed(gc)))
            if const != a + b or const != 0:
                bad.append((m, nn, "pairing constant", const, a + b))
    return CheckReport(
        name="duality",
        params={"level": n, "weight": k, "m_max": m_max, "n_max": n_max},
        passed=not bad,
        window=f"m in [{m_lo},{m_max}], n in [{n_lo},{n_max}]",
        counterexamples=bad,
        precision=n_max + 1,
        details={"pairs": pairs, "vacuous": False},
    )


def tamper(fam, m, exponent, value=None, prec=None):
    """Replace row m of ``fam`` by a copy with the coefficient of q^exponent set
    to ``value`` (default: one more), or cut to O(q^prec)."""
    row = fam.elements[m]
    e = row.expansion
    if prec is not None:
        expansion = e.truncated(prec)
    else:
        terms = dict(e.terms())
        terms[exponent] = terms.get(exponent, 0) + 1 if value is None else value
        expansion = QSeries.from_terms(terms, e.prec)
    fam.elements[m] = BasisElement(level=row.level, weight=row.weight, index=m, space=row.space,
                                   expansion=expansion, haupt_poly=row.haupt_poly)


class TestDualityOverlap:
    """The check sums each constant term over the two rows' support overlap;
    the reference sums the whole window.  Reports must agree byte for byte."""

    @pytest.mark.parametrize("k", [-4, -2, 0, 2, 4, 6])
    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_matches_reference(self, n, k, cache):
        data = get_level(n)
        for dm, dn in ((6, 9), (9, 4)):
            m_max, n_max = dm - data.n0(k), dn - data.n1(2 - k)
            expected = naive_duality_check(n, k, m_max, n_max, cache)
            report = duality_check(n, k, m_max, n_max, cache=cache)
            assert report.passed and report.to_json() == expected.to_json()

    # level 6, weight 0: f_m = q^-m + O(q), g_n = q^-n + O(1), the gaps q^(1-m)..q^0
    # and q^(1-n)..q^-1; (side, row, exponent, value) with value None for one more.
    # g_n is a multiple of theta(f_n), so it vanishes at q^0 and f's q^0 pairs with nothing;
    # and no pair reads past q^9 in f or q^6 in g
    @pytest.mark.parametrize("side, row, exponent, value, passes", [
        ("f", 3, -3, 2, False), ("g", 4, -4, -1, False),               # the pivot changed
        ("f", 3, -3, 0, False), ("g", 4, -4, 0, False),                # the pivot gone
        ("f", 3, -1, None, False), ("g", 4, -2, None, False),          # in the gap
        ("f", 2, 0, None, True),
        ("f", 2, 5, None, False), ("g", 3, 2, None, False),            # in the tail
        ("f", 2, 20, None, True),
        ("f", 2, -4, 1, False), ("g", 3, -5, 1, False),                # below the pole
    ], ids=["f-pivot", "g-pivot", "f-no-pivot", "g-no-pivot", "f-gap", "g-gap", "f-gap-unpaired",
            "f-tail", "g-tail", "f-tail-unread", "f-below", "g-below"])
    def test_tampered_row_matches_reference(self, side, row, exponent, value, passes):
        cache = BasisCache()
        duality_check(6, 0, 6, 9, cache=cache)
        tamper(cache._families[(6, 0, "M") if side == "f" else (6, 2, "S")], row, exponent, value)
        expected = naive_duality_check(6, 0, 6, 9, cache)
        report = duality_check(6, 0, 6, 9, cache=cache)
        assert report.to_json() == expected.to_json()
        assert report.passed == passes

    @pytest.mark.parametrize("side, row, exponent, value, prec, error", [
        ("f", 3, None, None, 5, PrecisionExceeded),
        ("g", 4, None, None, 2, PrecisionExceeded),
        ("g", 3, -30, 1, None, InsufficientPrecision),
    ], ids=["f-short", "g-short", "g-below-past-f"])
    def test_unreadable_row_raises_as_the_reference(self, side, row, exponent, value, prec,
                                                    error):
        outcomes = []
        for check in (naive_duality_check, duality_check):
            cache = BasisCache()
            duality_check(6, 0, 6, 9, cache=cache)
            key = (6, 0, "M") if side == "f" else (6, 2, "S")
            tamper(cache._families[key], row, exponent, value, prec)
            # serve every row as stored: cache.rows would evaluate a row shorter
            # than it is asked for again, and so repair the shortened one
            cache.rows = lambda n, k, space, ms, prec: [cache._families[n, k, space].elements[m]
                                                         for m in ms]
            with pytest.raises(error) as caught:
                check(6, 0, 6, 9, cache=cache)
            outcomes.append((type(caught.value), str(caught.value),
                             getattr(caught.value, "needed", None)))
        assert outcomes[0] == outcomes[1]


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

    def test_tampered_row_fails(self):
        cache = BasisCache()
        assert genfun_check(6, 0, m_max=5, z_prec=32, cache=cache).passed
        tamper(cache._families[6, 0, "M"], 2, 3)
        report = genfun_check(6, 0, m_max=5, z_prec=32, cache=cache)
        assert not report.passed and report.counterexamples
        assert "\n  counterexample: " in report.render_text()


class TestTheta:
    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_small_window(self, n, cache):
        report = theta_check(n, m_max=6, window=24, cache=cache)
        assert report.passed, report.render_text()

    def test_planted_defect_fails(self, monkeypatch, capsys):
        # theta(f_m) gains q^5, so each m disagrees with -m g_m there by one
        plain = verify.theta
        monkeypatch.setattr(verify, "theta", lambda s: plain(s) + QSeries.monomial(1, 5, s.prec))
        report = theta_check(6, 2, cache=BasisCache())
        assert not report.passed
        assert [(m, t, got - want) for m, t, want, got in report.counterexamples] == [
            (1, 5, 1), (2, 5, 1)]
        assert main(["verify", "theta", "--level", "6", "--mmax", "2", "--no-cache-dir"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("theta: FAIL\n") and out.count("  counterexample: (") == 2


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

    def test_window_below_p_asks_for_no_level6_row(self, cache):
        # the level-6 request is the empty range
        report = up_lemma_check(18, m_max=2, zero_window=24, cache=cache)
        assert report.passed
        assert report.details == {"mapped_cases": 0, "zero_cases": 2}

    def test_other_levels_rejected(self, cache):
        with pytest.raises(ValueError):
            up_lemma_check(6, m_max=4, cache=cache)

    def test_report_independent_of_cache_history(self, monkeypatch):
        # a wrong image coefficient planted just past every image a cold cache
        # gives is read only once the cache is deeper, unless the window is fixed
        import etaforms.verify as verify
        real_u_p = verify.u_p
        cold_precs = []

        def recording(s, p):
            image = real_u_p(s, p)
            cold_precs.append(image.prec)
            return image

        monkeypatch.setattr(verify, "u_p", recording)
        up_lemma_check(12, m_max=8, zero_window=24, cache=BasisCache())
        planted = max(cold_precs)

        def wrong(s, p):
            image = real_u_p(s, p)
            return image + QSeries.monomial(1, planted, image.prec) if image.prec > planted else image

        monkeypatch.setattr(verify, "u_p", wrong)
        cache = BasisCache()
        cold = up_lemma_check(12, m_max=8, zero_window=24, cache=cache).to_json()
        cache.rows(12, 0, "M", range(1, 9), 4 * planted)
        cache.rows(6, 0, "M", range(1, 5), 2 * planted)
        deep = up_lemma_check(12, m_max=8, zero_window=24, cache=cache).to_json()
        assert cold == deep and cold["passed"]

        # the last exponent of the window is still compared, in both kinds of case
        monkeypatch.setattr(verify, "u_p", lambda s, p: real_u_p(s, p) + QSeries.monomial(1, 23, 24))
        report = up_lemma_check(12, m_max=8, zero_window=24, cache=cache)
        assert [(m, t) for m, t, _, _ in report.counterexamples] == [(m, 23) for m in range(1, 9)]


    def test_zero_case_counterexample_is_its_first_term(self, monkeypatch):
        # U_2 f_m vanishes for odd m; planted terms make the images of f_1 and f_5 nonzero,
        # and each is reported as (m, exponent, 0 expected, coefficient found) at its first term
        import etaforms.verify as verify
        real_u_p = verify.u_p
        planted = {1: {3: 5}, 5: {-2: -7, 4: 9}}

        def wrong(s, p):
            image = real_u_p(s, p)
            for e, c in planted.get(-s.valuation, {}).items():
                image = image + QSeries.monomial(c, e, image.prec)
            return image

        monkeypatch.setattr(verify, "u_p", wrong)
        report = up_lemma_check(12, m_max=8, zero_window=24, cache=BasisCache())
        assert report.counterexamples == [(1, 3, 0, 5), (5, -2, 0, -7)]
        assert not report.passed and report.details == {"mapped_cases": 4, "zero_cases": 4}


class TestAlIdentity:
    @pytest.mark.parametrize("n,p", [(6, 2), (6, 3), (10, 2)])
    def test_base_and_first_step(self, n, p, cache):
        report = al_identity_check(n, p, r_set=[1], a_max=1, window=40, cache=cache)
        assert report.passed, report.render_text()
        assert report.details["recorded_sign"] == -1

    def test_rejects_non_coprime_residue(self, cache):
        with pytest.raises(ValueError):
            al_identity_check(6, 2, r_set=[2], a_max=0, cache=cache)

    def test_rejects_negative_residue(self, cache):
        with pytest.raises(ValueError, match="^residue -1 is not positive$"):
            al_identity_check(6, 2, r_set=[-1], a_max=1, cache=cache)

    @pytest.mark.parametrize("a_max", [38, 10 ** 20])
    def test_refuses_an_index_past_maxsize(self, a_max):
        # 3^38 * 7 > 2^63 - 1 >= 3^37 * 7; 3^(10^20) is never built
        cache = BasisCache()
        with pytest.raises(ValueError, match=r"^a_max \(--amax\) .* past the largest index"):
            al_identity_check(6, 3, r_set=[1, 5, 7], a_max=a_max, cache=cache)
        assert not cache._families              # refused before any row

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

    @pytest.mark.parametrize("flip, bump, message", [
        (-1, 0, "recorded sign +1 fails while -1 works; fixture is stale"),
        (1, 1, "no sign satisfies the identity for level 6, p=2")], ids=["sign", "scale"])
    def test_stale_fixture_is_an_integrity_error(self, monkeypatch, capsys, flip, bump,
                                                 message):
        # the level-6 p = 2 record with its sign flipped or its scale one larger
        data = get_level(6)
        aux = data.aux[2]
        stale = LevelData(data.N, data.hauptmodul_quotient, data.hauptmodul_shift,
                          data.weight_forms, data.cusp_poly,
                          {**data.aux, 2: AuxData(aux.p, aux.scale + bump, aux.sign * flip,
                                                  aux.pole_cusp, aux.alt, aux.cusp)})
        monkeypatch.setattr(verify, "get_level", lambda n: stale if n == 6 else get_level(n))
        with pytest.raises(NoConsistentSign, match=f"^{re.escape(message)}$"):
            al_identity_check(6, 2, r_set=[1], a_max=1, window=40, cache=BasisCache())
        assert main(["verify", "al", "--level", "6", "--p", "2", "--no-cache-dir"]) == 3
        assert capsys.readouterr() == ("", f"data integrity error: {message}\n")

    @pytest.mark.parametrize("n, p, shift", [(6, 2, -5), (6, 3, -5), (10, 2, 1)])
    def test_shift_decomposition_matches_peeling(self, n, p, shift, cache):
        # the reference: peel each row against the powers of alt itself
        data = get_level(n)
        max_m = p ** 2 * 7
        fam = cache.family(n, 0, "M", min_index=max_m, min_prec=40)
        alt = data.aux_alt_series(p, 40 + max_m + 8)
        assert alt - data.hauptmodul_series(alt.prec) == shift
        for m in sorted({p ** a * r for r in (1, 5, 7) for a in range(3)}):
            element = fam.element(m)
            coeffs, residual = decompose_in_hauptmodul(element.expansion, alt)
            assert residual.is_zero()
            assert _shift_poly(element.haupt_poly, shift) == list(coeffs)

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
        for p in (0, 1, -2):
            with pytest.raises(ValueError, match="need p >= 2"):
                admissible_residues(p)


class TestCongruenceScan:
    def test_small_scan_level6(self, cache):
        rows, report = congruence_scan(6, 2, a_max=2, b_max=2, r_set=[1, 3],
                                       s_set=[1, 3], n_cap=40, cache=cache)
        assert report.passed
        assert report.details["failures"] == 0
        assert any(r.status == "no claim" for r in rows)       # diagonal rows
        assert all(r.m <= 40 and r.n <= 40 for r in rows)

    def test_bound_above_every_valuation_fails(self, monkeypatch, capsys):
        # claimed bound 40: every nonzero coefficient falls short of it
        monkeypatch.setattr(verify, "congruence_bound", lambda n, p, a, b, r: (40, "planted"))
        rows, report = congruence_scan(6, 2, 1, 1, n_cap=20, cache=BasisCache())
        short = [row for row in rows if row.coeff]
        assert len(short) > 20 and {row.status for row in short} == {"fail"}
        assert {row.status for row in rows if not row.coeff} <= {"pass"}
        assert not report.passed
        assert report.details["failures"] == len(report.counterexamples) == len(short)
        assert report.render_text().endswith(f"\n  ... {len(short) - 20} more")
        argv = ["scan", "--level", "6", "--p", "2", "--amax", "1", "--bmax", "1", "--ncap", "20"]
        assert main([*argv, "--no-cache-dir"]) == 1
        assert capsys.readouterr().out.startswith("congruence-scan: FAIL\n")

    @pytest.mark.parametrize("huge", ["a_max", "b_max"])
    def test_exponents_past_the_cap_add_no_rows(self, huge, cache):
        # 2^4 <= 20 < 2^5: a_max or b_max 4 is the largest that reaches an index
        def scan(exponent):
            rows, report = congruence_scan(6, 2, **{"a_max": 1, "b_max": 1, huge: exponent},
                                           n_cap=20, cache=cache)
            assert report.params[huge] == exponent
            return [row.csv_row() for row in rows]
        assert scan(10 ** 20) == scan(4) != scan(3)

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

    @pytest.mark.parametrize("sets", [{"r_set": [-1], "s_set": [1]},
                                      {"r_set": [1], "s_set": [-1]}], ids=["r", "s"])
    def test_negative_residue_rejected(self, cache, sets):
        with pytest.raises(ValueError, match="^residue -1 is not positive$"):
            congruence_scan(6, 2, 1, 1, n_cap=10, cache=cache, **sets)

    @pytest.mark.parametrize("n, p", [(6, 3), (6, 2), (10, 5), (10, 2), (12, 3), (12, 2),
                                      (18, 3), (18, 2)])
    def test_rows_equal_the_direct_reference(self, n, p):
        # the reference reads every a(m, n) from row m at q^n; the scan reads a(m, n)
        # for n > m, n one of its pole orders, from row n as m a(n, m) / n
        cache = BasisCache()
        default = admissible_residues(p)
        for s_set in (default, admissible_residues(p, 5)[2:]):
            rows, report = congruence_scan(n, p, 3, 3, s_set=s_set, n_cap=120, cache=cache)
            assert report.passed
            ms = sorted({p ** a * r for a in range(4) for r in default if p ** a * r <= 120})
            direct = dict(zip(ms, BasisCache().rows(n, 0, "M", ms, 121)))
            want = [(a, b, r, s, p ** a * r, p ** b * s,
                     direct[p ** a * r].integer_coeff(p ** b * s))
                    for a in range(4) for r in default if p ** a * r <= 120
                    for b in range(4) for s in sorted(s_set) if p ** b * s <= 120]
            assert [(x.a, x.b, x.r, x.s, x.m, x.n, x.coeff) for x in rows] == want, s_set

    def test_rows_are_asked_for_only_through_their_deepest_read(self):
        cache = BasisCache()
        congruence_scan(18, 3, 4, 4, cache=cache)
        rows = cache._families[(18, 0, "M")].elements
        # with the default sets every read of row m lies at or below q^m
        assert {m: e.expansion.prec for m, e in rows.items()} == {m: m + 1 for m in rows}
        assert max(rows) == 324

    def test_shallow_side_read_that_does_not_divide_raises(self):
        cache = BasisCache()
        congruence_scan(6, 2, 1, 1, r_set=[1], s_set=[1], n_cap=20, cache=cache)
        # a(1, 2) is read as a(2, 1) / 2, and an odd a(2, 1) breaks 2 a(1, 2) = a(2, 1)
        tamper(cache._families[(6, 0, "M")], 2, 1, 1)
        with pytest.raises(IntegralityViolation, match="2 does not divide 1 a"):
            congruence_scan(6, 2, 1, 1, r_set=[1], s_set=[1], n_cap=20, cache=cache)


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


def test_threads_sharing_a_cache_get_single_thread_reports():
    # every row build takes the cache's lock, so checks that share a cache
    # report what each reports alone; theta is left out, as its count depends
    # on the cache's history
    checks = [lambda c: duality_check(6, 0, 12, 24, cache=c),
              lambda c: duality_check(10, 2, 12, 24, cache=c),
              lambda c: genfun_check(6, 0, 8, cache=c)]
    alone = [check(BasisCache()).to_json() for check in checks]

    def worker(shared, first, got, errors):
        try:
            for i in range(first, first + len(checks)):
                got.append((i % len(checks), checks[i % len(checks)](shared).to_json()))
        except Exception as err:            # noqa: BLE001 - reported below
            errors.append(err)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            shared, got, errors = BasisCache(), [], []
            threads = [threading.Thread(target=worker, args=(shared, t, got, errors))
                       for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert len(got) == 6 * len(checks)
            assert all(report == alone[i] for i, report in got)
    finally:
        sys.setswitchinterval(old)
