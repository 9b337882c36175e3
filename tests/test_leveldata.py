"""Tests for the per-level constant registry."""

from functools import partial

import pytest

from etaforms.basis import (BasisCache, _cusp_factor, _expand_cusp_factor, _expand_first,
                            _first_series)
from etaforms.errors import FractionalValuation, UnsupportedLevel
from etaforms.eta import ligozat_order
from etaforms.leveldata import (
    SUPPORTED_LEVELS,
    LevelData,
    get_level,
    uncorrected_weight_form,
)
from etaforms.validate import validate_level
from etaforms.verify import duality_check, theta_check


class TestGetLevel:
    def test_level6_hauptmodul_expansion(self):
        s = get_level(6).hauptmodul_series(8)
        assert [s.coeff(n) for n in range(-1, 4)] == [1, 0, 6, 4, -3]

    def test_level12_hauptmodul_expansion(self):
        s = get_level(12).hauptmodul_series(8)
        assert [s.coeff(n) for n in range(-1, 7)] == [1, 0, 2, 0, 1, 0, 0, 0]

    def test_level18_hauptmodul_expansion(self):
        s = get_level(18).hauptmodul_series(8)
        assert s.coeff(-1) == 1 and s.coeff(0) == 0
        assert s.coeff(2) == 1 and s.coeff(5) == 1

    def test_level10_hauptmodul_expansion(self):
        s = get_level(10).hauptmodul_series(8)
        assert s.coeff(-1) == 1 and s.coeff(0) == 0 and s.coeff(1) == 1

    def test_unsupported_level(self):
        with pytest.raises(UnsupportedLevel):
            get_level(7)

    def test_weight_form_leading_terms(self):
        assert get_level(6).weight_form_series(2, 12).valuation == 2
        assert get_level(12).weight_form_series(2, 12).valuation == 4
        assert get_level(18).weight_form_series(2, 12).valuation == 6
        assert get_level(10).weight_form_series(2, 12).valuation == 2
        assert get_level(10).weight_form_series(4, 12).valuation == 6

    def test_multi_term_forms_integral_despite_rational_scalars(self):
        # cancellation between the fractional scalars leaves integers
        for n, w in ((12, 2), (18, 2), (10, 4)):
            s = get_level(n).weight_form_series(w, 128)
            assert all(isinstance(c, int) for c in s.coeffs)


class TestCuspPolynomials:
    def test_level6_roots(self):
        # (x+4)(x+3)(x-5) expanded: the bare-quotient values 0, 1, 9 pushed
        # through the -4 normalization
        assert get_level(6).cusp_poly == (-60, -23, 2, 1)

    def test_level18_polynomial(self):
        assert get_level(18).cusp_poly == (0, -8, 0, 0, -7, 0, 0, 1)

    def test_level10_polynomial(self):
        # (x+2)(x+1)(x-3) expanded
        assert get_level(10).cusp_poly == (-6, -7, 0, 1)

    def test_level12_polynomial(self):
        assert get_level(12).cusp_poly == (0, 9, 0, -10, 0, 1)

    def test_degree_matches_cusp_count(self):
        expected_cusps = {6: 4, 10: 4, 12: 6, 18: 8}
        for n in SUPPORTED_LEVELS:
            data = get_level(n)
            assert data.cusp_count() == expected_cusps[n]
            assert len(data.cusp_poly) - 1 == data.cusp_count() - 1


class TestGapFormulas:
    def test_n0(self):
        assert [get_level(6).n0(k) for k in (-4, -2, 0, 2, 4, 6)] == [-4, -2, 0, 2, 4, 6]
        assert [get_level(12).n0(k) for k in (-2, 0, 2, 4)] == [-4, 0, 4, 8]
        assert [get_level(18).n0(k) for k in (-2, 0, 2, 4)] == [-6, 0, 6, 12]
        assert [get_level(10).n0(k) for k in (-4, -2, 0, 2, 4, 6)] == [-6, -4, 0, 2, 6, 8]

    def test_n1_of_weight_two_is_minus_one(self):
        for n in SUPPORTED_LEVELS:
            assert get_level(n).n1(2) == -1

    def test_odd_weight_rejected(self):
        with pytest.raises(ValueError):
            get_level(6).n0(3)


class TestAuxData:
    def test_level6_alt_generator(self):
        data = get_level(6)
        alt = data.aux_alt_series(2, 8)
        assert alt.valuation == -1 and alt.coeff(-1) == 1
        assert alt.coeff(0) == -5
        assert data.aux[2].alt == data.aux[3].alt

    def test_cusp_companion_valuations(self):
        assert get_level(6).aux_cusp_series(2, 8).valuation == 0
        assert get_level(6).aux_cusp_series(3, 8).valuation == 0
        assert get_level(10).aux_cusp_series(2, 8).valuation == 1

    def test_pole_cusp_orders(self):
        for n, p in ((6, 2), (6, 3), (10, 2)):
            aux = get_level(n).aux[p]
            assert ligozat_order(aux.cusp, aux.pole_cusp) == -1

    def test_scales(self):
        assert get_level(6).aux[2].scale == 8
        # 9, not 3: the exact involution identity forces the square
        assert get_level(6).aux[3].scale == 9
        assert get_level(10).aux[2].scale == 4


class TestValidation:
    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_all_levels_validate(self, n):
        report = validate_level(n, 64)
        assert report.ok, report.render_text()

    def test_uncorrected_level18_fails(self):
        comb = uncorrected_weight_form(18)
        with pytest.raises(FractionalValuation):
            comb.series(10)

    def test_uncorrected_level12_fails(self):
        comb = uncorrected_weight_form(12)
        with pytest.raises(FractionalValuation):
            comb.series(10)

    def test_validate_reports_uncorrected_variant_as_failure(self):
        from etaforms.leveldata import WeightForm

        good = get_level(18)
        broken = LevelData(good.N, good.hauptmodul_quotient, good.hauptmodul_shift,
                           {2: WeightForm(2, 6, uncorrected_weight_form(18))},
                           good.cusp_poly, good.aux)
        report = validate_level(18, 32, data=broken)
        assert not report.ok
        failing = [c for c in report.checks if not c.passed]
        assert any("FractionalValuation" in c.detail for c in failing)

    def test_report_serializes(self):
        report = validate_level(6, 32)
        data = report.to_json()
        assert data["ok"] is True
        assert any("hauptmodul" in c["name"] for c in data["checks"])
        assert "pass" in report.render_text()


def expansion_kinds(data):
    """(kind, cached request, direct expansion) for every expansion kind of a level."""
    yield ("haupt", data.hauptmodul_series,
           lambda p: data.hauptmodul_quotient.series(p) + data.hauptmodul_shift)
    for w, form in sorted(data.weight_forms.items()):
        yield ("wform", w), partial(data.weight_form_series, w), form.combination.series
    for p, aux in sorted(data.aux.items()):
        yield ("alt", p), partial(data.aux_alt_series, p), aux.alt.series
        yield ("cusp", p), partial(data.aux_cusp_series, p), aux.cusp.series
    yield "cuspfactor", partial(_cusp_factor, data), partial(_expand_cusp_factor, data)
    for k, space in ((0, "M"), (2, "S"), (-2, "M"), (4, "S")):
        yield (("first", k, space), partial(_first_series, data, k, space),
               partial(_expand_first, data, k, space))


class TestExpansionCache:
    def test_one_series_per_kind_after_checks(self):
        cache = BasisCache()
        duality_check(6, 0, 12, cache=cache)
        theta_check(6, 12, cache=cache)
        data = get_level(6)
        kinds = {kind for kind, _, _ in expansion_kinds(data)}
        assert "haupt" in data._expansions
        # first elements are kept per (weight, space), whichever weights ran
        assert {kind for kind in data._expansions if kind[0] != "first"} <= kinds

    @pytest.mark.parametrize("n", SUPPORTED_LEVELS)
    def test_shallow_request_equals_direct_expansion(self, n):
        # a fresh instance, so the deep request below is the one that is kept
        d = get_level(n)
        data = LevelData(d.N, d.hauptmodul_quotient, d.hauptmodul_shift, d.weight_forms,
                         d.cusp_poly, d.aux)
        assert data._expansions == {}
        for kind, cached, direct in expansion_kinds(data):
            deep = cached(90)
            for prec in (2, 3, 17, 64, 90):
                got, want = cached(prec), direct(prec)
                assert (got.valuation, got.coeffs, got.prec) == \
                    (want.valuation, want.coeffs, want.prec), (kind, prec)
            assert data._expansions[kind] is deep
        assert len(data._expansions) == len(list(expansion_kinds(data)))
