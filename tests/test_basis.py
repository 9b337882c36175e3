"""Tests for canonical basis construction."""

import json
import operator
import os
import random
from fractions import Fraction
from itertools import islice, zip_longest

import pytest

from etaforms import basis, series
from etaforms.basis import (
    CACHE_FORMAT_VERSION,
    BasisCache,
    _extend_powers,
    _first_series,
    a_coeff,
    b_coeff,
    f_basis,
    first_element,
    g_basis,
)
from etaforms.errors import (IndexBelowRange, InsufficientPrecision, IntegralityViolation,
                             PrecisionExceeded)
from etaforms.eta import EtaQuotient
from etaforms.leveldata import SUPPORTED_LEVELS, LevelData, WeightForm, get_level
from etaforms.series import QSeries, _progression
from etaforms.verify import _shift_poly, congruence_scan, theta_check
from test_series import naive_convolve      # the kernel's reference


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


def decompose_in_hauptmodul(series, psi, min_window=1):
    """Write a weight-0 object as a polynomial in a q^-1 + ... generator.

    Peels the pole top-down, one subtraction per nonzero multiplier; returns
    (ascending coefficients, residual).  The residual of a genuine weight-0
    form with poles only at infinity is O(q).  ``min_window`` is the number
    of residual coefficients that must remain verifiable; otherwise
    InsufficientPrecision is raised.
    """
    if psi.valuation != -1 or psi.coeff(-1) != 1:
        raise ValueError("generator must have expansion q^-1 + ...")
    depth = max(0, -series.valuation)
    reachable = min(series.prec, psi.prec - max(depth - 1, 0))
    if reachable < min_window:
        raise InsufficientPrecision(
            f"residual would be known only to O(q^{reachable})",
            needed=min_window + max(depth - 1, 0) + 1)
    powers = _extend_powers([QSeries.one(psi.prec + 1)], psi, depth)
    coeffs, residual = reference_peel(series, powers, 0)
    return tuple(coeffs), residual


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
    def test_pole_at_precision_raises(self):
        psi = get_level(6).hauptmodul_series(4)
        powers = [QSeries.one(5)]
        for _ in range(8):
            powers.append(powers[-1] * psi)
        with pytest.raises(PrecisionExceeded):
            reference_peel(QSeries.monomial(1, -8, 2), powers, 0)


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

    def test_a_deepened_row_is_written_back(self, tmp_path, monkeypatch):
        disk = BasisCache(directory=str(tmp_path))
        disk.rows(18, 0, "M", [90, 10], [5, 120])
        [path] = disk.save()
        reloaded = BasisCache(directory=str(tmp_path))
        [deep] = reloaded.rows(18, 0, "M", [90], 40)
        assert deep.expansion.prec == 40
        assert reloaded.save() == [path]

        def refuse(fam, d, b, prec):
            raise AssertionError(f"row {fam.m0 + d} evaluated again")

        monkeypatch.setattr(basis._Family, "_evaluate", refuse)
        again = BasisCache(directory=str(tmp_path))
        [served] = again.rows(18, 0, "M", [90], 40)
        assert served.expansion.prec == 40 and served.expansion.coeffs == deep.expansion.coeffs
        assert again.save() == []

    def test_interrupted_save_keeps_previous_file(self, tmp_path, monkeypatch):
        disk = BasisCache(directory=str(tmp_path))
        disk.element(6, 0, "M", 4, prec=32)
        disk.save()
        before = (tmp_path / "basis_N6_k0_M.json").read_bytes()
        disk.element(6, 0, "M", 3, prec=32)

        real_open = open

        def open_then_fail(path, mode="r"):
            # the file's write puts out the first bytes of the document, then fails
            fh = real_open(path, mode)

            def write(text):
                type(fh).write(fh, text[:11])
                raise OSError("disk full")

            fh.write = write
            return fh

        monkeypatch.setattr(basis, "open", open_then_fail, raising=False)
        with pytest.raises(OSError, match="disk full"):
            disk.save()
        assert (tmp_path / "basis_N6_k0_M.json").read_bytes() == before
        assert os.listdir(tmp_path) == ["basis_N6_k0_M.json"]

    def test_saved_bytes_are_one_compact_sorted_dump(self, tmp_path):
        disk = BasisCache(directory=str(tmp_path))
        disk.element(6, 2, "S", 5, prec=40)
        [path] = disk.save()
        with open(path) as fh:
            doc = json.load(fh)
        with open(path, "rb") as fh:
            assert fh.read() == json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

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

    @pytest.mark.parametrize("field", ["coeffs", "poly"])
    def test_non_integer_coefficients_are_misses(self, tmp_path, capsys, field):
        # a rational, a JSON number or a malformed string is one warning and a recomputed row
        disk = BasisCache(directory=str(tmp_path))
        want = disk.element(6, 0, "M", 4, prec=32)
        [path] = disk.save()
        with open(path) as fh:
            doc = json.load(fh)
        for coeff in ("3/2", "-4/2", 7, 2.0, "3/x", "1/0"):
            doc["elements"]["4"][field][1] = coeff
            with open(path, "w") as fh:
                json.dump(doc, fh)
            got = BasisCache(directory=str(tmp_path)).element(6, 0, "M", 4, prec=32)
            err = capsys.readouterr().err
            assert got.expansion.to_json() == want.expansion.to_json(), coeff
            assert got.haupt_poly == want.haupt_poly
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
        dropped = ([[1]], [], None, [])
        assert (fam.polys.values, fam.baby, fam.giant, fam.table.values) == dropped
        first = fam.element(0)
        assert (fam.polys.values, fam.baby, fam.giant, fam.table.values) == dropped
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
    return [[-c for c in reference_peel(powers[i], powers[:i], -gap)[0]] + [1]
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
                fam = read_family(get_level(n), k, space, 40)
                got = [fam._poly(d) for d in (40,) + tuple(range(40))]
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
        want = {e.index: e for e in walked.rows(range(m0, m0 + 48))}
        assert walked.giant is None             # a contiguous range is the walk
        for e in got:
            assert element_fields(e) == element_fields(want[e.index])

    @pytest.mark.parametrize("k, space", [(0, "M"), (2, "S"), (4, "M")])
    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_contiguous_walk_makes_one_product_per_degree(self, monkeypatch, n, k, space):
        data = get_level(n)
        m0 = -(data.n0(k) if space == "M" else data.n1(k))
        fam = BasisCache().family(n, k, space, min_index=m0 + 30, min_prec=20)
        fam.element(m0)
        fam.element(m0 + 1)     # expands first, psi and g, once for the whole walk
        steps = count_steps(monkeypatch)
        products = []
        mul = QSeries.__mul__
        monkeypatch.setattr(QSeries, "__mul__",
                            lambda a, b: products.append(1) or mul(a, b))
        for m in range(m0 + 2, m0 + 31):
            fam.element(m)
        assert steps == list(range(m0 + 2, m0 + 31))
        assert products == []

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


def read_family(data, k, space, reach):
    """A family at ``reach`` with its inputs read, so that _poly may be asked directly."""
    fam = basis._Family(data, k, space, reach)
    fam._inputs()
    return fam


def triangle_polys(fam, degree):
    """P_(m0+d) for d <= degree by the full triangle: every x^t coefficient of
    every P, the zeros off the stride included, each sum over the c_j on
    psi's progression, read from the family's own psi and g."""
    c = [fam._psi.coeff(j) for j in range(degree)]
    first, step = _progression(c)
    first, step = first or 0, step or 1
    c = c[first::step]
    cols = [[1]]
    for i in range(degree):
        cols.append([1])
        for t in range(i, -1, -1):
            low = cols[t - 1][-1] if t else fam._dual.coeff(fam.m0 + i)
            rest = islice(reversed(cols[t]), first, None, step)
            cols[t].append(low - sum(map(operator.mul, c, rest)))
    return [[cols[t][d - t] for t in range(d + 1)] for d in range(degree + 1)]


def column_polys(fam, degree):
    """P_(m0+d) for d <= degree by the column recurrence on psi's progression:
    cols[t] holds the x^t coefficients of P_(m0+t), P_(m0+t+s), ..., each one
    dot product over the c_j with s dividing j + 1, read from the family's own
    psi and g."""
    s = fam.stride
    c = [fam._psi.coeff(j) for j in range(s - 1, degree, s)]
    cols = [[1]]
    for i in range(degree):
        # degree i + 1, top coefficient first so cols[t - 1][-1] is still degree i's
        g = fam._dual.coeff(fam.m0 + i)
        cols.append([1])
        for t in range(i + 1 - s, -1, -s):
            low = cols[t - 1][-1] if t else g
            cols[t].append(low - sum(map(operator.mul, c, reversed(cols[t]))))
    polys = []
    for d in range(degree + 1):
        poly = [0] * (d + 1)
        poly[d % s::s] = [cols[t][(d - t) // s] for t in range(d % s, d + 1, s)]
        polys.append(poly)
    return polys


def shifted_level(n, shift):
    """Level n described by psi + shift, with the cusp polynomial rewritten in it:
    the same spaces and elements, by other polynomials."""
    data = get_level(n)
    return LevelData(data.N, data.hauptmodul_quotient, data.hauptmodul_shift + shift,
                     data.weight_forms, tuple(_shift_poly(data.cusp_poly, shift)), data.aux)


class TestPolyTable:
    DEGREE = 120

    @pytest.mark.parametrize("space", ["M", "S"])
    @pytest.mark.parametrize("n, step", [(12, 2), (18, 3)])
    def test_strided_table_equals_the_triangle(self, n, step, space):
        for k in range(-4, 7, 2):
            fam = read_family(get_level(n), k, space, self.DEGREE + 8)
            # the top degree first, then each lower one from the finished table
            got = [fam._poly(d) for d in (self.DEGREE,) + tuple(range(self.DEGREE))]
            want = triangle_polys(fam, self.DEGREE)
            assert fam.stride == step, k
            assert got == want[-1:] + want[:-1], (k, space)
            assert [list(map(type, p)) for p in got] == \
                [list(map(type, p)) for p in want[-1:] + want[:-1]]

    @pytest.mark.parametrize("space", ["M", "S"])
    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_packed_table_equals_the_columns(self, n, space):
        for k in range(-4, 7, 2):
            fam = read_family(get_level(n), k, space, 68)
            got = [fam._poly(d) for d in (60,) + tuple(range(60))]
            want = column_polys(fam, 60)
            assert got == want[-1:] + want[:-1], (k, space)
            assert [list(map(type, p)) for p in got] == \
                [list(map(type, p)) for p in want[-1:] + want[:-1]]

    @pytest.mark.parametrize("n", [18, 6])
    def test_packed_table_equals_the_columns_at_a_scan_depth(self, n):
        # the cold level-18 scan reads P_324; level 6 is the widest table
        fam = read_family(get_level(n), 0, "M", 332)
        assert [fam._poly(d) for d in range(325)] == column_polys(fam, 324)

    def test_level18_stores_a_third_of_the_triangle(self):
        fam = read_family(get_level(18), 0, "M", 330)
        fam._poly(323)
        triangle = 324 * 325 // 2
        assert len(fam.polys.packed) == 324
        stored = sum(map(len, fam.polys.values))
        # column t keeps the degrees t, t + 3, ... through 323
        assert stored == sum((323 - t) // 3 + 1 for t in range(324))
        assert abs(3 * stored - triangle) < 3 * 324

    def test_every_supported_family_has_integral_inputs(self):
        # first, psi and g hold only ints, or _inputs raises IntegralityViolation
        for n in SUPPORTED_LEVELS:
            for k in range(-4, 7, 2):
                for space in ("M", "S"):
                    read_family(get_level(n), k, space, 400)

    @pytest.mark.parametrize("k, space", [(0, "M"), (2, "S"), (-2, "M")])
    def test_shifted_psi_is_served_at_step_one(self, k, space):
        # psi + 1 has c_0 = 1, off the step-3 progression of level 18
        shifted = read_family(shifted_level(18, 1), k, space, 40)
        assert shifted.stride == 1
        assert [shifted._poly(d) for d in range(16)] == triangle_polys(shifted, 15)
        assert [shifted._poly(d) for d in range(41)] == column_polys(shifted, 40)
        got = shifted.rows(range(shifted.m0, shifted.m0 + 16))
        plain = read_family(get_level(18), k, space, 40)
        assert plain.stride == 3
        want = plain.rows(range(plain.m0, plain.m0 + 16))
        for a, b in zip(got, want):
            assert (a.expansion.valuation, a.expansion.coeffs, a.expansion.prec) == \
                (b.expansion.valuation, b.expansion.coeffs, b.expansion.prec)

    @pytest.mark.parametrize("n", [18, 6])
    def test_fractional_input_is_refused(self, n):
        # psi + 1/2, with the cusp polynomial rewritten in it, describes the same
        # spaces by polynomials that are not integral: psi itself is refused
        for k, space in ((0, "M"), (2, "S"), (-2, "M")):
            for build in (lambda fam: fam.rows(range(fam.m0, fam.m0 + 12)),
                          lambda fam: fam._inputs()):
                fam = basis._Family(shifted_level(n, Fraction(1, 2)), k, space, 40)
                with pytest.raises(IntegralityViolation, match=r"q\^0 is -?\d+/2, not an integer"):
                    build(fam)

    def test_slots_widen_as_the_table_grows(self, monkeypatch):
        widened = record_widenings(monkeypatch)
        fam = read_family(get_level(6), 0, "M", self.DEGREE + 8)
        polys = fam.polys
        got = [fam._poly(d) for d in range(self.DEGREE + 1)]
        assert len(widened[polys]) >= 3, widened[polys]
        assert got == column_polys(fam, self.DEGREE)

    @pytest.mark.parametrize("recurrence", ["poly", "rows"])
    def test_g_off_the_progression_raises(self, monkeypatch, recurrence):
        # at (18, 0, M) g is -theta(psi); g_0 sits at degree 1, off the
        # multiples of 3 where g may be nonzero
        theta = basis.theta
        monkeypatch.setattr(basis, "theta", lambda s: theta(s) + QSeries.monomial(1, 0, s.prec))
        fam = basis._Family(get_level(18), 0, "M", 40)
        with pytest.raises(IntegralityViolation, match="g_0 leaves the step-3 progression"):
            # scattered rows go to Horner and the P table, a contiguous run to the row recurrence
            fam.rows([5, 30]) if recurrence == "poly" else fam.rows(range(0, 6))
        assert fam.polys.values == [[1]] and fam.table.packed == []


def peeled_rows(n, k, space, reach, top):
    """Rows m0..m0+top of a family at ``reach`` by the reference: first * psi^d,
    with the lower powers peeled off its pole, is the element; {m: fields}."""
    data = get_level(n)
    gap = data.n0(k) if space == "M" else data.n1(k)
    first = _first_series(data, k, space, reach + 8 + gap)
    powers = _extend_powers([first], data.hauptmodul_series(reach + 7), top)
    out = {}
    for d in range(top + 1):
        coeffs, row = reference_peel(powers[d], powers[:d], -gap)
        poly = [-c for c in coeffs[:d]] + [1]
        if space == "S":
            poly = series._convolve(data.cusp_poly, poly, len(data.cusp_poly) + d)
        m = d - gap
        out[m] = (n, k, m, space, tuple(poly), row.valuation, row.coeffs, row.prec)
    return out


def count_steps(monkeypatch):
    """The index of each row the recurrence computes: each step is one packed
    product, the last row times psi."""
    steps = []
    step = basis._Family._step
    monkeypatch.setattr(basis._Family, "_step",
                        lambda fam: steps.append(fam.m0 + len(fam.table.packed)) or step(fam))
    return steps


def record_widenings(monkeypatch):
    """{table: [its width after each widening]}, for every packed table that widens."""
    widened = {}
    fit = basis._Packed.fit

    def recording(table, bits):
        width = table.width
        fit(table, bits)
        if table.width != width:
            widened.setdefault(table, []).append(table.width)
    monkeypatch.setattr(basis._Packed, "fit", recording)
    return widened


class TestPackedTable:
    def test_rows_read_back_through_each_widening(self):
        # rows whose largest slot sits at the bound fit was asked for, pushed
        # as sums that carry junk above their slots, with the slot count
        # changing as the P table's does, or appended from their values;
        # each widening repacks every row
        rng = random.Random(21)
        table = basis._Packed()
        rows = []
        widths = []
        for bits in (3, 7, 12, 20, 21, 33, 50, 51, 80, 130):
            for _ in range(3):
                slots = rng.randint(1, 9)
                values = [rng.randrange(-(1 << bits) + 1, 1 << bits) for _ in range(slots)]
                values[rng.randrange(slots)] = rng.choice([-1, 1]) * ((1 << bits) - 1)
                width = table.width
                if rng.random() < 0.25:
                    table.append(values)
                else:
                    table.fit(bits)
                    junk = rng.randint(-(1 << 200), 1 << 200) << (8 * table.width * slots)
                    assert table.push(series._pack(values, table.width) + junk, slots) == values
                assert 8 * table.width >= bits + 2
                if table.width != width:
                    # a widening adds a quarter, and at least two bytes
                    need = series._slot_width(bits)
                    assert table.width == need + max(need // 4, 2)
                    widths.append(table.width)
                rows.append(values)
                assert table.values == rows
                assert table.maxima == [max(map(abs, v)) for v in rows]
                assert table.packed == [series._pack(v, table.width) for v in rows]
        assert len(widths) >= 3, widths

    def test_a_widening_builds_one_bias_per_row_length(self, monkeypatch):
        lengths = []
        bias = series._bias

        def counting(n, width):
            lengths.append(n)
            return bias(n, width)
        monkeypatch.setattr(series, "_bias", counting)
        monkeypatch.setattr(basis, "_bias", counting)
        rows = [[i, -i, 3 * i, 0, 1] for i in range(1, 9)] + [[5, -7, 2]] * 3
        table = basis._Packed()
        for values in rows:
            table.append(values)
        lengths.clear()
        table.fit(100)
        assert sorted(lengths) == [3, 5]        # eleven rows of two lengths
        assert table.packed == [series._pack(v, table.width) for v in rows]

    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_cusp_factor_product_is_the_full_product(self, n):
        cusp = get_level(n).cusp_poly
        rng = random.Random(n)
        for length in (1, 2, 3, 8, 41):
            poly = [rng.choice([0, rng.randint(-10 ** 30, 10 ** 30)]) for _ in range(length)]
            assert basis._cusp_times(cusp, poly) == \
                naive_convolve(cusp, poly, len(cusp) + length - 1)


class TestRowRecurrence:
    TOP = 24

    @pytest.mark.parametrize("space", ["M", "S"])
    @pytest.mark.parametrize("n", [6, 10, 12, 18])
    def test_recurrence_horner_and_reference_agree(self, n, space):
        data = get_level(n)
        for k in range(-4, 7, 2):
            m0 = -(data.n0(k) if space == "M" else data.n1(k))
            top = m0 + self.TOP
            # one request from m0, then one index at a time
            whole = BasisCache().family(n, k, space, min_index=top, min_prec=16)
            got = {e.index: element_fields(e) for e in whole.rows(range(m0, top + 1))}
            single = BasisCache().family(n, k, space, min_index=top, min_prec=16)
            for m in range(m0, top + 1):
                assert element_fields(single.element(m)) == got[m], (k, m)
            assert got == peeled_rows(n, k, space, whole.reach, self.TOP), k
            # scattered rows go to Horner
            horner = BasisCache().family(n, k, space, min_index=top, min_prec=16)
            ms = [top, top - 5, m0 + 3]
            for e in horner.rows(ms):
                assert element_fields(e) == got[e.index], (k, e.index)
            assert horner.giant is not None and horner.table.packed == []

    @pytest.mark.parametrize("n, k, space", [(6, 0, "M"), (12, 2, "S"), (18, -2, "M")])
    def test_continues_after_the_tables_are_dropped(self, monkeypatch, n, k, space):
        cache = BasisCache()
        m0 = -(get_level(n).n0(k) if space == "M" else get_level(n).n1(k))
        fam = cache.family(n, k, space, min_index=m0 + 10, min_prec=30)
        fam.rows(range(m0, m0 + 11))
        assert fam.table.packed == []           # every index through top is built
        assert cache.family(n, k, space, min_index=m0 + 20, min_prec=20) is fam
        steps = count_steps(monkeypatch)
        got = fam.rows(range(m0 + 15, m0 + 21))
        # the stored rows are packed again, not computed
        assert steps == list(range(m0 + 11, m0 + 21))
        want = peeled_rows(n, k, space, fam.reach, 20)
        for e in got + [fam.element(m) for m in range(m0, m0 + 11)]:
            assert element_fields(e) == want[e.index]

    @pytest.mark.parametrize("n, k, space", [(6, 0, "M"), (12, 2, "S"), (18, -2, "M")])
    def test_inputs_are_read_once_across_a_table_drop(self, monkeypatch, n, k, space):
        data = get_level(n)
        m0 = -(data.n0(k) if space == "M" else data.n1(k))
        dual = "S" if space == "M" else "M"
        cache = BasisCache()
        fam = cache.family(n, k, space, min_index=m0 + 10, min_prec=30)
        # expanded deeper beforehand, so that every read below is served, not computed
        data.hauptmodul_series(fam.reach + 50)
        for weight, sp in ((k, space), (2 - k, dual)):
            _first_series(data, weight, sp, fam.reach + 50)
        reads = []
        haupt, first = LevelData.hauptmodul_series, basis._first_series
        monkeypatch.setattr(LevelData, "hauptmodul_series",
                            lambda self, prec: reads.append("psi") or haupt(self, prec))
        monkeypatch.setattr(basis, "_first_series", lambda data, weight, sp, prec:
                            reads.append((weight, sp)) or first(data, weight, sp, prec))
        fam.rows(range(m0, m0 + 11))
        assert fam.table.packed == []           # every index through top is built
        assert cache.family(n, k, space, min_index=m0 + 20, min_prec=20) is fam
        fam.rows(range(m0 + 15, m0 + 21))
        # g at weight 0 in M is -theta(psi), from the same psi
        g = [] if (k, space) == (0, "M") else [(2 - k, dual)]
        assert reads == ["psi", (k, space)] + g

    def test_continues_a_family_loaded_with_gaps(self, monkeypatch, tmp_path):
        disk = BasisCache(directory=str(tmp_path))
        fam = disk.family(10, 2, "S", min_index=40, min_prec=30)
        m0 = fam.m0
        fam.rows(list(range(m0, m0 + 8)) + [m0 + 12, m0 + 13, m0 + 30])
        disk.save()
        loaded = BasisCache(directory=str(tmp_path)).family(10, 2, "S", min_index=40,
                                                            min_prec=30)
        assert sorted(loaded.elements) == sorted(fam.elements) and loaded.reach == fam.reach
        steps = count_steps(monkeypatch)
        got = loaded.rows(range(m0, m0 + 21))
        # rows m0..m0+7 and the stored m0+12, m0+13 are packed from disk
        assert steps == [m0 + d for d in (8, 9, 10, 11, 14, 15, 16, 17, 18, 19, 20)]
        want = peeled_rows(10, 2, "S", fam.reach, 20)
        assert [element_fields(e) for e in got] == [want[m] for m in range(m0, m0 + 21)]

    @pytest.mark.parametrize("k, space", [(0, "M"), (2, "S")])
    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_tails_survive_a_widening_a_table_drop_and_a_reload(self, monkeypatch, tmp_path,
                                                                n, k, space):
        widened = record_widenings(monkeypatch)
        disk = BasisCache(directory=str(tmp_path))
        m0 = -(get_level(n).n0(k) if space == "M" else get_level(n).n1(k))
        fam = disk.family(n, k, space, min_index=m0 + 20, min_prec=36)
        table = fam.table
        got = fam.rows(range(m0, m0 + 21))
        assert len(widened[table]) >= 2 and fam.table.packed == []     # widened, then dropped
        assert disk.family(n, k, space, min_index=m0 + 36, min_prec=20) is fam
        got += fam.rows(range(m0 + 21, m0 + 29))
        assert len(fam.table.packed) == 29
        disk.save()
        loaded = BasisCache(directory=str(tmp_path)).family(n, k, space, min_index=m0 + 36,
                                                            min_prec=20)
        assert loaded.reach == fam.reach
        steps = count_steps(monkeypatch)
        got += loaded.rows(range(m0, m0 + 37))
        # rows m0..m0+28 are packed from disk, each head checked, and the rest computed
        assert steps == list(range(m0 + 29, m0 + 37))
        want = peeled_rows(n, k, space, fam.reach, 36)
        assert len(got) == 21 + 8 + 37
        assert [element_fields(e) for e in got] == [want[e.index] for e in got]

    def test_slots_widen_as_the_rows_grow(self, monkeypatch):
        widened = record_widenings(monkeypatch)
        fam = BasisCache().family(6, 0, "M", min_index=120, min_prec=100)
        assert fam.reach >= 200
        table = fam.table
        got = fam.rows(range(0, 121))
        assert len(widened[table]) >= 3, widened[table]
        horner = BasisCache().family(6, 0, "M", min_index=120, min_prec=100)
        for e in horner.rows([120, 97, 61, 2]):
            assert element_fields(e) == element_fields(got[e.index])
        assert horner.table.packed == []


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
        # asked (18, 2) for O(q^179).  A fresh copy of the level holds no
        # expansion, so the first element is computed here, not served
        data = get_level(n)
        fresh = LevelData(data.N, data.hauptmodul_quotient, data.hauptmodul_shift,
                          data.weight_forms, data.cusp_poly, data.aux)
        requests = []
        expand = LevelData.weight_form_series
        monkeypatch.setattr(LevelData, "weight_form_series",
                            lambda self, w, p: requests.append((w, p)) or expand(self, w, p))
        _first_series(fresh, k, space, prec)
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
                with pytest.raises((InsufficientPrecision, IntegralityViolation)):
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


class TestAskedPrecision:
    def test_horner_rows_are_known_to_the_precision_asked_for(self):
        cache = BasisCache()
        got = cache.rows(6, 0, "M", [40, 7, 23], [12, 30, 24])
        fam = cache._families[(6, 0, "M")]
        assert fam.giant is not None            # scattered rows are Horner's
        assert [e.expansion.prec for e in got] == [12, 30, 24]
        # one precision per index, or none: a list of another length is refused
        with pytest.raises(ValueError):
            cache.rows(6, 0, "M", [1, 2, 3], [10])
        with pytest.raises(ValueError):
            fam.rows([7, 23], [30])
        want = BasisCache().family(6, 0, "M", min_index=40, min_prec=30)
        for e in got:
            assert e.expansion.agrees_with(want.element(e.index).expansion)
            assert e.haupt_poly == want.element(e.index).haupt_poly

    @pytest.mark.parametrize("n, k, space", [(6, 12, "M"), (10, 8, "S"), (18, 6, "M")])
    def test_a_row_asked_for_below_its_gap_is_known_just_past_it(self, n, k, space):
        # a row's pivot and gap are read up to q^gap, so it is known to O(q^(gap + 1)) at least
        gap = basis._gap(get_level(n), k, space)
        cache = BasisCache()
        got = cache.rows(n, k, space, [40, 7, 23], [3, gap, 30])
        assert cache._families[(n, k, space)].giant is not None     # Horner rows
        assert [e.expansion.prec for e in got] == [gap + 1, gap + 1, 30]

    def test_a_row_shallower_than_asked_is_evaluated_again(self):
        cache = BasisCache()
        shallow, _ = cache.rows(18, 0, "M", [90, 10], [5, 120])
        assert shallow.expansion.prec == 5
        # the family, sized for row 10 at O(q^120), serves the deeper request: a new row
        fam = cache._families[(18, 0, "M")]
        [deep] = cache.rows(18, 0, "M", [90], 40)
        assert cache._families[(18, 0, "M")] is fam
        assert deep.expansion.prec == 40 and deep.expansion.agrees_with(shallow.expansion)
        assert cache.rows(18, 0, "M", [90], 20)[0] is deep
        # with no precision, a row is asked for to the family's
        whole = fam.element(90)
        assert whole.expansion.prec == fam.reach + 8 - 90 > 40
        assert whole.expansion.agrees_with(deep.expansion) and fam.rows([90])[0] is whole

    def test_recurrence_rows_keep_the_family_precision(self):
        cache = BasisCache()
        got = cache.rows(10, 2, "S", range(1, 11), 20)
        fam = cache._families[(10, 2, "S")]
        assert fam.giant is None
        assert [e.expansion.prec for e in got] == [fam.reach + 8 - m for m in range(1, 11)]


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


def test_integer_coeff_reads_as_coeff_does():
    e = basis.BasisElement(6, 0, 1, "M", QSeries(-1, (1, 0, 6, 10 ** 40), 5), (0, 1))
    for n in range(-4, 5):
        assert e.integer_coeff(n) == e.coeff(n) and type(e.integer_coeff(n)) is int
    with pytest.raises(PrecisionExceeded):
        e.integer_coeff(5)


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
