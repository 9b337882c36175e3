"""Tests for canonical basis construction."""

import json
import os
import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from etaforms import basis, series
from etaforms.basis import (
    CACHE_FORMAT_VERSION,
    BasisCache,
    _extend_powers,
    _first_series,
    _peel,
    a_coeff,
    b_coeff,
    decompose_in_hauptmodul,
    f_basis,
    first_element,
    g_basis,
)
from etaforms.errors import IndexBelowRange, InsufficientPrecision, PrecisionExceeded
from etaforms.eta import EtaQuotient
from etaforms.leveldata import SUPPORTED_LEVELS, LevelData, WeightForm, get_level
from etaforms.series import QSeries
from etaforms.verify import congruence_scan, theta_check


@pytest.fixture()
def cache():
    return BasisCache()


def ladder(n, k, space, m_top, prec):
    """Reference construction of the elements up to pole order m_top.

    Each element is psi times the previous one, minus lower elements to
    restore the gap; the hauptmodul polynomial is carried along.  Returns
    {m: (expansion, haupt_poly)}, each expansion known past O(q^prec).
    """
    data = get_level(n)
    gap = data.n0(k) if space == "M" else data.n1(k)
    depth = m_top + gap
    # psi * f_(m-1) is known to min(psi.prec - (m-1), f_(m-1).prec - 1)
    psi = data.hauptmodul_series(prec + depth + m_top + 8)
    first = first_element(n, k, space, prec=prec + depth + 8, cache=BasisCache())
    out = {-gap: (first.expansion, first.haupt_poly)}
    for m in range(-gap + 1, m_top + 1):
        series, prev_poly = out[m - 1]
        series = psi * series
        poly = (0,) + prev_poly
        for t in range(1 - m, gap + 1):
            c = series.coeff(t)
            if c:
                lower, lower_poly = out[-t]
                series = series - lower.scalar_mul(c)
                poly = tuple(a - c * b for a, b in zip_longest(poly, lower_poly, fillvalue=0))
        out[m] = (series, poly)
    return out


def reference_peel(series, powers, offset):
    """One QSeries subtraction per nonzero multiplier, top power first."""
    coeffs = [0] * len(powers)
    for i in range(len(powers) - 1, -1, -1):
        c = series.coeff(-(offset + i))
        if c:
            coeffs[i] = c
            series = series - powers[i].scalar_mul(c)
    return coeffs, series


class TestFirstElement:
    def test_level6_weight2(self, cache):
        e = first_element(6, 2, "M", cache=cache)
        assert e.index == -2
        assert [e.coeff(n) for n in range(2, 9)] == [1, -2, 3, 0, -1, 0, 7]

    def test_level6_weight0_is_one(self, cache):
        e = first_element(6, 0, "M", cache=cache)
        assert e.expansion == 1
        assert e.haupt_poly == (1,)

    def test_level6_weight2_s_space(self, cache):
        e = first_element(6, 2, "S", cache=cache)
        assert e.index == 1
        assert e.expansion.valuation == -1 and e.coeff(-1) == 1
        assert e.haupt_poly == (-60, -23, 2, 1)

    def test_level10_weight_decomposition(self, cache):
        # k = 6 uses both weight forms; leading exponent is -n0(6) = -8
        e = first_element(10, 6, "M", cache=cache)
        assert e.index == -8 and e.expansion.valuation == 8

    def test_level10_negative_weight(self, cache):
        e = first_element(10, -2, "M", cache=cache)
        assert e.index == 4 and e.expansion.valuation == -4

    def test_element_is_immutable(self, cache):
        e = first_element(6, 2, "M", cache=cache)
        with pytest.raises(AttributeError):
            e.index = 5
        with pytest.raises(AttributeError):
            e.expansion = QSeries.one(4)
        assert e.index == -2

    def test_odd_weight_rejected(self, cache):
        with pytest.raises(ValueError):
            first_element(6, 3, "M", cache=cache)


class TestLadder:
    def test_f01_is_hauptmodul(self, cache):
        e = f_basis(6, 0, 1, cache=cache)
        assert [e.coeff(n) for n in range(-1, 4)] == [1, 0, 6, 4, -3]
        assert e.haupt_poly == (0, 1)

    def test_f02_strips_constant(self, cache):
        # psi^2 = q^-2 + 12 + 8q + 30q^2 + ..., so f_{0,2} = psi^2 - 12
        psi = get_level(6).hauptmodul_series(40)
        sq = psi * psi
        e = f_basis(6, 0, 2, cache=cache)
        assert e.haupt_poly == (-12, 0, 1)
        assert [e.coeff(n) for n in (-2, -1, 0, 1, 2)] == [1, 0, 0, 8, 30]
        assert e.coeff(1) == sq.coeff(1) and e.coeff(2) == sq.coeff(2)

    def test_g21_matches_eta_quotient(self, cache):
        e = g_basis(6, 2, 1, cache=cache)
        assert [e.coeff(n) for n in (-1, 0, 1, 2, 3)] == [1, 0, -6, -8, 9]
        direct = EtaQuotient(6, {2: 6, 3: 8, 6: -10}).series(32)
        assert e.expansion.truncated(32).agrees_with(direct)

    def test_triangularity_window(self, cache):
        for n in SUPPORTED_LEVELS:
            data = get_level(n)
            for k in (-2, 0, 2, 4):
                for space, gap in (("M", data.n0(k)), ("S", data.n1(k))):
                    for m in range(-gap, -gap + 6):
                        e = cache.element(n, k, space, m, prec=gap + 12)
                        assert e.expansion.coeff(-m) == 1
                        for t in range(-m + 1, gap + 1):
                            assert e.expansion.coeff(t) == 0, (n, k, space, m, t)

    def test_index_below_range(self, cache):
        with pytest.raises(IndexBelowRange):
            f_basis(6, 2, -3, cache=cache)
        with pytest.raises(IndexBelowRange):
            g_basis(6, 2, 0, cache=cache)

    def test_integrality_small_window(self, cache):
        for n in SUPPORTED_LEVELS:
            for k in (-2, 0, 2):
                for m in range(-get_level(n).n0(k), -get_level(n).n0(k) + 5):
                    e = cache.element(n, k, "M", m, prec=20)
                    for t in range(e.expansion.valuation, 20):
                        e.integer_coeff(t)

    def test_coefficients_via_accessors(self, cache):
        assert a_coeff(6, 0, 1, 2, cache=cache) == 4
        assert a_coeff(12, 0, 1, 5, cache=cache) == 0
        assert b_coeff(6, 2, 1, 1, cache=cache) == -6

    def test_auto_precision_raise(self, cache):
        # a modest first request must not pin later deep coefficient reads
        assert a_coeff(6, 0, 1, 2, cache=cache) == 4
        value = a_coeff(6, 0, 1, 150, cache=cache)
        assert isinstance(value, int)

    def test_s_space_no_constant_terms_weight2(self, cache):
        # every weight-2 S-space element has zero constant term
        for n in SUPPORTED_LEVELS:
            for m in range(1, 31):
                assert b_coeff(n, 2, m, 0, cache=cache) == 0


class TestUniqueness:
    def test_ladder_equals_direct_elimination(self, cache):
        for n in SUPPORTED_LEVELS:
            for k, space in ((0, "M"), (2, "M"), (2, "S"), (-2, "M")):
                data = get_level(n)
                gap = data.n0(k) if space == "M" else data.n1(k)
                m = -gap + 5
                elem = cache.element(n, k, space, m, prec=40)
                series, poly = ladder(n, k, space, m, 40)[m]
                assert series.prec >= 40
                assert elem.expansion.agrees_with(series)
                assert elem.haupt_poly == poly


class TestDecompose:
    def test_constant(self):
        psi = get_level(6).hauptmodul_series(24)
        coeffs, residual = decompose_in_hauptmodul(QSeries.one(24), psi)
        assert coeffs == (1,)
        assert residual.is_zero()

    def test_f02(self, cache):
        psi = get_level(6).hauptmodul_series(40)
        e = f_basis(6, 0, 2, prec=30, cache=cache)
        coeffs, residual = decompose_in_hauptmodul(e.expansion, psi)
        assert coeffs == (-12, 0, 1)
        assert residual.is_zero()

    def test_cusp_values_recovered(self, cache):
        # (weight-2 S element of pole order 1) / (weight-2 first element) is
        # the cusp polynomial in the weight-0 generator.  Decomposing against
        # the bare quotient recovers the roots 0, 1, 9; against the
        # normalized hauptmodul, the shifted roots -4, -3, 5.
        g21 = g_basis(6, 2, 1, prec=40, cache=cache)
        f2m2 = f_basis(6, 2, -2, prec=44, cache=cache)
        ratio = g21.expansion * f2m2.expansion.reciprocal()
        quotient = get_level(6).hauptmodul_quotient.series(40)
        coeffs, residual = decompose_in_hauptmodul(ratio, quotient)
        assert coeffs == (0, 9, -10, 1)
        assert residual.is_zero()
        psi = get_level(6).hauptmodul_series(40)
        coeffs_n, residual_n = decompose_in_hauptmodul(ratio, psi)
        assert coeffs_n == (-60, -23, 2, 1)
        assert residual_n.is_zero()

    def test_insufficient_precision(self):
        psi = get_level(6).hauptmodul_series(6)
        deep_pole = QSeries.monomial(1, -30, 6)
        with pytest.raises(InsufficientPrecision):
            decompose_in_hauptmodul(deep_pole, psi, min_window=4)


class TestPeel:
    @pytest.mark.parametrize("n, k, space", [(6, 0, "M"), (6, 2, "S"), (18, 0, "M"), (18, 2, "M")])
    def test_fused_peel_matches_reference(self, n, k, space):
        fam = BasisCache().family(n, k, space, min_index=24, min_prec=40)
        i_max = fam.top - fam.m0
        fam.element(fam.top)            # the walk extends the baby table through i_max
        powers = fam.baby
        assert len(powers) == i_max + 1
        for i in range(i_max + 1):
            got = _peel(powers[i], powers[:i], fam.m0)
            want = reference_peel(powers[i], powers[:i], fam.m0)
            assert got[0] == want[0]
            assert [type(c) for c in got[0]] == [type(c) for c in want[0]]
            assert got[1].valuation == want[1].valuation
            assert got[1].coeffs == want[1].coeffs
            assert got[1].prec == want[1].prec

    def test_fused_peel_matches_reference_on_rationals(self):
        psi = get_level(6).hauptmodul_series(30)
        powers = [QSeries.one(31)]
        for _ in range(5):
            powers.append(powers[-1] * psi)
        series = QSeries(-5, [Fraction(3, 2), 0, 4, Fraction(-1, 3), 0, 2, 7], 12)
        got = _peel(series, powers, 0)
        want = reference_peel(series, powers, 0)
        assert got[0] == want[0]
        assert (got[1].valuation, got[1].coeffs, got[1].prec) == \
            (want[1].valuation, want[1].coeffs, want[1].prec)

    def test_pole_at_precision_raises(self):
        psi = get_level(6).hauptmodul_series(4)
        powers = [QSeries.one(5)]
        for _ in range(8):
            powers.append(powers[-1] * psi)
        for peel in (_peel, reference_peel):
            with pytest.raises(PrecisionExceeded):
                peel(QSeries.monomial(1, -8, 2), powers, 0)


class TestCachePersistence:
    def test_round_trip_bit_identical(self, tmp_path, cache):
        disk = BasisCache(directory=str(tmp_path))
        e1 = disk.element(6, 0, "M", 4, prec=32)
        disk.element(6, 2, "S", 3, prec=32)
        files = disk.save()
        assert files

        reloaded = BasisCache(directory=str(tmp_path))
        e2 = reloaded.element(6, 0, "M", 4, prec=32)
        assert e2.expansion.coeffs == e1.expansion.coeffs
        assert e2.expansion.valuation == e1.expansion.valuation
        assert e2.haupt_poly == e1.haupt_poly
        assert all(isinstance(c, int) for c in e2.haupt_poly)

    def test_cached_agrees_with_fresh_at_lower_precision(self, tmp_path):
        disk = BasisCache(directory=str(tmp_path))
        deep = disk.element(6, 0, "M", 3, prec=80)
        fresh = BasisCache().element(6, 0, "M", 3, prec=24)
        for n in range(fresh.expansion.valuation, 24):
            assert deep.coeff(n) == fresh.coeff(n)

    def test_loaded_family_serves_missing_indices(self, tmp_path):
        # a deep element is cached sparsely (no intermediate entries); a
        # reload must still serve the indices that were never stored, on the
        # family path that the checks use as well as through the cache
        disk = BasisCache(directory=str(tmp_path))
        disk.element(6, 0, "M", 70, prec=80)
        disk.save()
        reloaded = BasisCache(directory=str(tmp_path))
        got = reloaded.family(6, 0, "M", min_index=70, min_prec=80).element(5)
        want = BasisCache().family(6, 0, "M", min_index=70, min_prec=80).element(5)
        assert got.expansion.valuation == want.expansion.valuation
        assert got.expansion.coeffs == want.expansion.coeffs
        assert got.expansion.prec == want.expansion.prec
        assert got.haupt_poly == want.haupt_poly
        deep = reloaded.element(6, 0, "M", 70, prec=80)
        assert deep.expansion.coeff(-70) == 1
        shallow = reloaded.element(6, 0, "M", 1, prec=40)
        assert [shallow.coeff(t) for t in (-1, 1, 2)] == [1, 6, 4]

    def test_warm_hit_saves_nothing(self, tmp_path):
        disk = BasisCache(directory=str(tmp_path))
        disk.element(6, 0, "M", 4, prec=32)
        assert disk.save() == [str(tmp_path / "basis_N6_k0_M.json")]
        assert disk.save() == []
        reloaded = BasisCache(directory=str(tmp_path))
        reloaded.element(6, 0, "M", 4, prec=32)
        assert reloaded.save() == []
        reloaded.element(6, 0, "M", 3, prec=32)
        assert reloaded.save() == [str(tmp_path / "basis_N6_k0_M.json")]

    def test_interrupted_save_keeps_previous_file(self, tmp_path, monkeypatch):
        disk = BasisCache(directory=str(tmp_path))
        disk.element(6, 0, "M", 4, prec=32)
        disk.save()
        before = (tmp_path / "basis_N6_k0_M.json").read_bytes()
        disk.element(6, 0, "M", 3, prec=32)

        def dump_then_fail(doc, fh, **kwargs):
            fh.write('{"elements":')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError):
            disk.save()
        assert (tmp_path / "basis_N6_k0_M.json").read_bytes() == before
        assert os.listdir(tmp_path) == ["basis_N6_k0_M.json"]

    def test_unreadable_file_is_a_miss(self, tmp_path, capsys):
        disk = BasisCache(directory=str(tmp_path))
        want = disk.element(6, 0, "M", 4, prec=32)
        [path] = disk.save()
        with open(path, "r+b") as fh:
            fh.truncate(200)
        reloaded = BasisCache(directory=str(tmp_path))
        got = reloaded.element(6, 0, "M", 4, prec=32)
        assert got.expansion.coeffs == want.expansion.coeffs
        assert got.haupt_poly == want.haupt_poly
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable cache file" in err
        assert reloaded.save() == [path]
        with open(path) as fh:
            assert json.load(fh)["elements"]["4"]["poly"] == [str(c) for c in want.haupt_poly]

    @pytest.mark.parametrize("doc", [
        '[]',
        pytest.param(f'{{"format_version": {CACHE_FORMAT_VERSION}}}', id="version-only"),
        pytest.param(f'{{"format_version": {CACHE_FORMAT_VERSION}, "reach": 36, '
                     '"elements": {"4": {"coeffs": ["x"], "poly": []}}}', id="bad-coefficient"),
        pytest.param(f'{{"format_version": {CACHE_FORMAT_VERSION}, "reach": 36, '
                     '"elements": {"4": {"valuation": -4, "prec": 40, "coeffs": "1000000000", '
                     '"poly": []}}}', id="coeffs-as-string"),
        pytest.param(f'{{"format_version": {CACHE_FORMAT_VERSION}, "reach": "36", '
                     '"elements": {}}', id="reach-not-an-int")])
    def test_schema_errors_are_misses(self, tmp_path, capsys, doc):
        (tmp_path / "basis_N6_k0_M.json").write_text(doc)
        got = BasisCache(directory=str(tmp_path)).element(6, 0, "M", 4, prec=32)
        want = BasisCache().element(6, 0, "M", 4, prec=32)
        assert got.expansion.coeffs == want.expansion.coeffs
        assert "unreadable cache file" in capsys.readouterr().err

    def test_rational_coefficient_round_trips_and_malformed_ones_miss(self, tmp_path, capsys):
        disk = BasisCache(directory=str(tmp_path))
        want = disk.element(6, 0, "M", 4, prec=32)
        [path] = disk.save()
        with open(path) as fh:
            doc = json.load(fh)
        for coeff, served in (("3/2", True), ("3/x", False), ("1/0", False)):
            doc["elements"]["4"]["coeffs"][1] = coeff
            with open(path, "w") as fh:
                json.dump(doc, fh)
            got = BasisCache(directory=str(tmp_path)).element(6, 0, "M", 4, prec=32)
            err = capsys.readouterr().err
            if served:
                assert got.expansion.coeffs[1] == Fraction(3, 2)
                assert [type(c) for c in got.expansion.coeffs[2:]] == \
                    [type(c) for c in want.expansion.coeffs[2:]]
                assert got.haupt_poly == want.haupt_poly and err == ""
            else:
                assert got.expansion.coeffs == want.expansion.coeffs
                assert err.count("\n") == 1 and "unreadable cache file" in err

    def test_older_format_is_a_silent_miss_and_rewritten(self, tmp_path, capsys):
        disk = BasisCache(directory=str(tmp_path))
        want = disk.element(6, 0, "M", 4, prec=32)
        [path] = disk.save()
        with open(path) as fh:
            doc = json.load(fh)
        # the envelope of format 1, with a coefficient that must not be served
        reach = doc.pop("reach")
        doc.update(format_version=1, prec=reach - 4, max_index=4)
        doc["elements"]["4"]["coeffs"][0] = "7"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        reloaded = BasisCache(directory=str(tmp_path))
        got = reloaded.element(6, 0, "M", 4, prec=32)
        assert got.expansion.coeffs == want.expansion.coeffs
        assert capsys.readouterr().err == ""
        assert reloaded.save() == [path]
        with open(path) as fh:
            assert json.load(fh)["format_version"] == CACHE_FORMAT_VERSION

    def test_save_is_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            c = BasisCache(directory=str(d))
            c.element(6, 0, "M", 3, prec=24)
            c.save()
        f1 = (d1 / "basis_N6_k0_M.json").read_bytes()
        f2 = (d2 / "basis_N6_k0_M.json").read_bytes()
        assert f1 == f2


class TestPowerTable:
    def test_dropped_once_every_index_above_the_first_is_built(self):
        # the theta check reads indices 1..20 of the weight-0 family, never 0
        cache = BasisCache()
        theta_check(10, m_max=20, window=40, cache=cache)
        fam = cache._families[(10, 0, "M")]
        assert len(fam.elements) == 20 and 0 not in fam.elements
        dropped = ([[1]], [], None)
        assert (fam.cols, fam.baby, fam.giant) == dropped
        first = fam.element(0)
        assert (fam.cols, fam.baby, fam.giant) == dropped
        want = BasisCache().family(10, 0, "M", min_index=fam.top,
                                   min_prec=fam.reach - fam.top).element(0)
        assert first.expansion.coeffs == want.expansion.coeffs
        assert first.expansion.prec == want.expansion.prec


def eliminated_polys(n, k, space, degree):
    """P_(m0+i) for i <= degree by the reference: peel first * psi^i against the lower powers."""
    data = get_level(n)
    gap = data.n0(k) if space == "M" else data.n1(k)
    # first * psi^i is known to O(q^(gap + degree + 1 - i)), past the gap
    first = _first_series(data, k, space, gap + degree + 1)
    powers = _extend_powers([first], data.hauptmodul_series(degree + 1), degree)
    return [[-c for c in _peel(powers[i], powers[:i], -gap)[0]] + [1]
            for i in range(degree + 1)]


def element_fields(e):
    return (e.level, e.weight, e.index, e.space, e.haupt_poly,
            e.expansion.valuation, e.expansion.coeffs, e.expansion.prec)


class TestRecurrence:
    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_polynomials_match_elimination(self, n):
        psi = get_level(n).hauptmodul_series(40)
        for k in range(-4, 7, 2):
            for space in ("M", "S"):
                fam = basis._Family(get_level(n), k, space, 40)
                got = [fam._poly(d, psi) for d in (40,) + tuple(range(40))]
                want = eliminated_polys(n, k, space, 40)
                assert got == want[40:] + want[:40], (k, space)
                assert [list(map(type, p)) for p in got] == \
                    [list(map(type, p)) for p in want[40:] + want[:40]]

    @pytest.mark.parametrize("n, k, space", [(6, 0, "M"), (10, 2, "S"), (12, -2, "M"),
                                             (18, 0, "M"), (18, 4, "S")])
    def test_rows_equal_walked_elements(self, n, k, space):
        data = get_level(n)
        m0 = -(data.n0(k) if space == "M" else data.n1(k))
        ms = [m0 + d for d in (47, 0, 9, 30, 1, 16)]
        planned = BasisCache().family(n, k, space, min_index=m0 + 47, min_prec=30)
        got = planned.rows(ms)
        assert planned.giant is not None        # the Horner path ran
        got += planned.rows([m0 + 40, m0 + 9])
        walked = BasisCache().family(n, k, space, min_index=m0 + 47, min_prec=30)
        for e in got:
            assert element_fields(e) == element_fields(walked.element(e.index))

    @pytest.mark.parametrize("k, space", [(0, "M"), (2, "S"), (4, "M")])
    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_contiguous_walk_makes_one_product_per_degree(self, monkeypatch, n, k, space):
        data = get_level(n)
        m0 = -(data.n0(k) if space == "M" else data.n1(k))
        fam = BasisCache().family(n, k, space, min_index=m0 + 30, min_prec=20)
        fam.element(m0)
        fam.element(m0 + 1)     # expands first, psi and g, once for the whole walk
        products = []
        mul = QSeries.__mul__
        monkeypatch.setattr(QSeries, "__mul__",
                            lambda a, b: products.append(1) or mul(a, b))
        for m in range(m0 + 2, m0 + 31):
            fam.element(m)
        assert len(products) <= 29

    def test_sparse_scan_makes_under_half_the_products(self, monkeypatch):
        # coefficient products, counted from the operand lengths as the
        # benchmark counts them; a fresh process running this scan with a table
        # of first * psi^i for every i up to 324 made 88,766,292
        counted = []
        convolve = series._convolve

        def counting(a, b, out_len):
            counted.append(sum(max(0, min(len(b), out_len - i))
                               for i in range(min(len(a), out_len))))
            return convolve(a, b, out_len)

        monkeypatch.setattr(series, "_convolve", counting)
        rows, report = congruence_scan(18, 3, 4, 4, cache=BasisCache())
        assert report.passed and len(rows) == 225
        assert 2 * sum(counted) < 88_766_292


class TestFirstSeriesSizing:
    @pytest.mark.parametrize("space", ["M", "S"])
    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_known_to_exactly_the_requested_precision(self, n, space):
        data = get_level(n)
        for k in range(-4, 13, 2):
            for prec in (1, 40, 97):        # 1 lies at or below every positive gap
                assert _first_series(data, k, space, prec).prec == prec

    @pytest.mark.parametrize("n, k, space, prec, want", [
        (18, 6, "M", 121, [(2, 109)]),
        (10, 6, "M", 100, [(4, 98), (2, 94)]),
        (6, -4, "S", 100, [(2, 109)]),
        (12, 4, "S", 100, [(2, 101)]),
    ])
    def test_weight_forms_expanded_only_as_deep_as_needed(self, monkeypatch, n, k, space,
                                                           prec, want):
        # input of valuation v is needed to O(q^(prec - gap + v)); guessed pads
        # asked (18, 2) for O(q^179)
        requests = []
        expand = LevelData.weight_form_series
        monkeypatch.setattr(LevelData, "weight_form_series",
                            lambda self, w, p: requests.append((w, p)) or expand(self, w, p))
        _first_series(get_level(n), k, space, prec)
        assert requests == want

    @pytest.mark.parametrize("n", [6, 10, 18])
    def test_overstated_vanishing_fails_loudly(self, n):
        data = get_level(n)
        form = data.weight_forms[2]
        forms = {**data.weight_forms, 2: WeightForm(form.weight, form.vanishing + 1, form.combination)}
        wrong = LevelData(data.N, data.hauptmodul_quotient, data.hauptmodul_shift, forms,
                          data.cusp_poly, data.aux)
        for k in (-2, 2, 6):
            for space in ("M", "S"):
                fam = basis._Family(wrong, k, space, 40)
                with pytest.raises((InsufficientPrecision, RuntimeError)):
                    for m in range(fam.m0, fam.m0 + 4):
                        fam.element(m)


class TestReach:
    def test_index_and_precision_trade_one_for_one(self):
        cache = BasisCache()
        fam = cache.family(6, 2, "S", min_index=30, min_prec=65)
        assert cache.family(6, 2, "S", min_index=60, min_prec=35) is fam
        assert fam.top == 60

    def test_walking_up_one_index_at_a_time_rebuilds_logarithmically(self, monkeypatch):
        built = []

        class Counting(basis._Family):
            def __init__(self, data, *args):
                built.append(data.N)
                super().__init__(data, *args)

        monkeypatch.setattr(basis, "_Family", Counting)
        cache = BasisCache()
        for n in SUPPORTED_LEVELS:
            for m in range(1, 31):
                b_coeff(n, 2, m, 0, cache=cache)
        assert all(built.count(n) <= 6 for n in SUPPORTED_LEVELS), built

    @pytest.mark.parametrize("n, k, space", [(6, 0, "M"), (6, 2, "S"), (18, 0, "M"), (18, 2, "S")])
    def test_fresh_element_precision(self, n, k, space):
        index, prec = 12, 20
        fam = BasisCache().family(n, k, space, min_index=index, min_prec=prec)
        for m in sorted({fam.m0, fam.m0 + 1, index // 2, index}):
            assert fam.element(m).expansion.prec == prec + index + 8 - m


class TestDeepElements:
    def test_deep_element_gap_and_integrality(self, cache):
        e = cache.element(6, 0, "M", 70, prec=80)
        assert e.expansion.coeff(-70) == 1
        assert all(e.expansion.coeff(t) == 0 for t in range(-69, 1))
        e.integer_coeff(79)

    def test_deep_equals_shallow_route(self):
        # a deep element by power elimination equals the step-by-step ladder
        elem = BasisCache().element(6, 0, "M", 70, prec=40)
        series, poly = ladder(6, 0, "M", 70, 40)[70]
        assert series.prec >= 40
        assert elem.expansion.agrees_with(series)
        assert elem.haupt_poly == poly


def test_concurrent_reads_and_builds():
    # distinct families may build in parallel; completed elements are shared
    import threading

    shared = BasisCache()
    results = {}
    errors = []

    def worker(ident, n, k, space, m):
        try:
            elem = shared.element(n, k, space, m, prec=40)
            results[ident] = (elem.expansion.valuation, elem.expansion.coeffs)
        except Exception as err:            # noqa: BLE001 - smoke test
            errors.append(err)

    jobs = [(i, n, k, space, m)
            for i, (n, k, space, m) in enumerate(
                (n, k, space, m)
                for n in (6, 10) for k in (0, 2) for space in ("M", "S")
                for m in (3, 5))]
    threads = [threading.Thread(target=worker, args=job) for job in jobs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    fresh = BasisCache()
    for ident, (n, k, space, m) in [(j[0], j[1:]) for j in jobs]:
        expect = fresh.element(n, k, space, m, prec=40)
        val, coeffs = results[ident]
        assert val == expect.expansion.valuation
        assert coeffs[:30] == expect.expansion.coeffs[:30]


def test_random_window_spot_checks(cache):
    rng = random.Random(5)
    for _ in range(10):
        n = rng.choice(SUPPORTED_LEVELS)
        k = rng.choice((-2, 0, 2, 4))
        data = get_level(n)
        m = rng.randint(-data.n0(k), -data.n0(k) + 8)
        e = cache.element(n, k, "M", m, prec=30)
        # expansion and polynomial representation agree
        psi = data.hauptmodul_series(48 + len(e.haupt_poly))
        first = cache.element(n, k, "M", -data.n0(k), prec=48).expansion
        rebuilt = QSeries.zero(48)
        power = QSeries.one(48)
        for c in e.haupt_poly:
            if c:
                rebuilt = rebuilt + (first * power).scalar_mul(c)
            power = power * psi
        assert rebuilt.agrees_with(e.expansion)
