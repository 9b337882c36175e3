"""Acceptance suite: every criterion at its full stated window.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output).  All assertions are exact; the only tolerances are the
stated runtime budgets.
"""

import random
import time
from fractions import Fraction

import pytest

from etaforms.basis import BasisCache
from etaforms.errors import FractionalValuation
from etaforms.eta import EtaQuotient, euler_product
from etaforms.leveldata import SUPPORTED_LEVELS, get_level, uncorrected_weight_form
from etaforms.series import QSeries
from etaforms.verify import (
    al_identity_check,
    congruence_scan,
    duality_check,
    genfun_check,
    theta_check,
    up_lemma_check,
)

WEIGHTS = (-4, -2, 0, 2, 4, 6)
M_MAX = 30
N_MAX = 60

_status: dict[int, bool] = {}


@pytest.fixture(scope="module")
def cache():
    return BasisCache()


def _record(criterion: int, started: float, detail: str = "") -> None:
    _status[criterion] = True
    elapsed = time.time() - started
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: PASS in {elapsed:.2f}s{suffix}")


def test_criterion_01_fixture_fidelity(cache):
    started = time.time()

    psi6 = get_level(6).hauptmodul_series(4)
    assert [psi6.coeff(n) for n in range(-1, 4)] == [1, 0, 6, 4, -3]

    psi12 = get_level(12).hauptmodul_series(7)
    assert [psi12.coeff(n) for n in range(-1, 7)] == [1, 0, 2, 0, 1, 0, 0, 0]

    f6 = get_level(6).weight_form_series(2, 9)
    assert [f6.coeff(n) for n in range(2, 9)] == [1, -2, 3, 0, -1, 0, 7]

    f12 = get_level(12).weight_form_series(2, 5)
    assert f12.valuation == 4 and f12.coeff(4) == 1

    f10w4 = get_level(10).weight_form_series(4, 7)
    assert f10w4.valuation == 6 and f10w4.coeff(6) == 1

    # the weight-2 level-10 slot: the printed leading exponent 3 contradicts
    # the element's own index (pole order -2 means vanishing order 2); the
    # resolved form is q^2 + 3q^4 - 4q^5 + ... with integer coefficients
    f10w2 = get_level(10).weight_form_series(2, 7)
    assert f10w2.valuation == 2 and f10w2.coeff(2) == 1
    assert [f10w2.coeff(n) for n in range(2, 7)] == [1, 0, 3, -4, 4]

    f18 = get_level(18).weight_form_series(2, 7)
    assert f18.valuation == 6 and f18.coeff(6) == 1

    elapsed = time.time() - started
    assert elapsed < 1.0, f"fixture fidelity took {elapsed:.2f}s, budget 1s"
    _record(1, started)


def test_criterion_02_integrality(cache):
    started = time.time()
    checked = 0
    for n in SUPPORTED_LEVELS:
        data = get_level(n)
        for k in WEIGHTS:
            for space, gap_fn in (("M", data.n0), ("S", data.n1)):
                m0 = -gap_fn(k)
                if m0 > M_MAX:
                    continue
                fam = cache.family(n, k, space, min_index=M_MAX, min_prec=N_MAX + 5)
                for m in range(m0, M_MAX + 1):
                    elem = fam.element(m)
                    for t in range(elem.expansion.valuation, N_MAX + 1):
                        elem.integer_coeff(t)
                        checked += 1
                    if space == "M":
                        assert all(isinstance(c, int) for c in elem.haupt_poly), (n, k, m)
    elapsed = time.time() - started
    assert elapsed < 60.0, f"integrality window took {elapsed:.2f}s, budget 60s"
    _record(2, started, f"{checked} coefficients")


def test_criterion_03_duality(cache):
    started = time.time()
    pairs = 0
    for n in SUPPORTED_LEVELS:
        for k in WEIGHTS:
            report = duality_check(n, k, m_max=M_MAX, n_max=N_MAX, cache=cache)
            assert report.passed, report.render_text()
            assert not report.counterexamples
            pairs += report.details.get("pairs", 0)
    _record(3, started, f"{pairs} coefficient pairs with pairing constant terms")


def test_criterion_04_generating_function(cache):
    started = time.time()
    cells = 0
    for n in SUPPORTED_LEVELS:
        for k in (-2, 0, 2, 4):
            report = genfun_check(n, k, m_max=8, z_prec=32, cache=cache)
            assert report.passed, report.render_text()
            cells += report.details["cells"]
    _record(4, started, f"{cells} bidegree cells")


def test_criterion_05_theta_relation(cache):
    started = time.time()
    for n in SUPPORTED_LEVELS:
        report = theta_check(n, m_max=20, window=40, cache=cache)
        assert report.passed, report.render_text()
    ladder = cache.element(6, 2, "S", 1, prec=48).expansion
    direct = EtaQuotient(6, {2: 6, 3: 8, 6: -10}).series(48)
    for t in range(-1, 48):
        assert ladder.coeff(t) == direct.coeff(t)
    _record(5, started)


def test_criterion_06_index_lowering(cache):
    started = time.time()
    for n in (12, 18):
        report = up_lemma_check(n, m_max=24, zero_window=40, cache=cache)
        assert report.passed, report.render_text()
        assert report.details["zero_cases"] > 0
    _record(6, started)


def test_criterion_07_congruence_scans():
    started = time.time()
    scan_cache = BasisCache()          # cold by construction
    total_rows = 0
    # larger index sets first so each level's family is built once
    for n, p in ((6, 3), (6, 2), (10, 5), (10, 2), (12, 3), (12, 2), (18, 3), (18, 2)):
        rows, report = congruence_scan(n, p, a_max=4, b_max=4, n_cap=400, cache=scan_cache)
        assert report.passed, report.render_text()
        assert report.details["failures"] == 0
        assert rows, f"({n},{p}) produced no rows"
        total_rows += len(rows)
    elapsed = time.time() - started
    assert elapsed < 600.0, f"scans took {elapsed:.2f}s, budget 600s"
    _record(7, started, f"{total_rows} valuation rows over eight (level, p) pairs")


def test_criterion_08_involution_identities(cache):
    started = time.time()
    for n, p in ((6, 2), (6, 3), (10, 2)):
        report = al_identity_check(n, p, r_set=[1, 5, 7], a_max=2, window=48, cache=cache)
        assert report.passed, report.render_text()
        assert report.details["recorded_sign"] in (1, -1)
        # divisibility corollary re-derived from the verified identity shape
        bound = report.details["corollary_divisibility_exponent"]
        assert bound >= 1
        for row in report.details["rows"]:
            if row["a"] == 0 and row["min_image_valuation"] is not None:
                assert row["min_image_valuation"] >= bound, row
    _record(8, started)


def test_criterion_09_kernel_soundness():
    started = time.time()
    rng = random.Random(20260808)

    def random_series():
        val = rng.randint(-6, 6)
        coeffs = [rng.randint(-20, 20) for _ in range(64 - val)]
        k = rng.randrange(len(coeffs))
        coeffs[k] = rng.randint(-10 ** 40, 10 ** 40)
        return QSeries(val, coeffs, 64)

    for _ in range(1000):
        a, b, c = random_series(), random_series(), random_series()
        assert ((a + b) + c).agrees_with(a + (b + c))
        assert (a * b).agrees_with(b * a)
        assert (a * (b + c)).agrees_with(a * b + a * c)
    # coefficients are integers: a Fraction is refused, integral or not
    for bad in (Fraction(1, 2), Fraction(4, 2)):
        with pytest.raises(TypeError):
            QSeries(0, [1, bad], 64)

    direct = QSeries.one(64)
    for n in range(1, 64):
        direct = direct * QSeries.from_terms({0: 1, n: -1}, 64)
    assert euler_product(64).coeffs == direct.coeffs
    assert euler_product(64).valuation == direct.valuation
    _record(9, started)


def test_criterion_10_typo_robustness():
    started = time.time()
    # the rejected transcription fails identically on every attempt
    for _ in range(2):
        with pytest.raises(FractionalValuation) as err:
            uncorrected_weight_form(18).series(8)
        assert "eta(12)" in str(err.value)
        assert err.value.offset == Fraction(-1, 4)
    with pytest.raises(FractionalValuation):
        uncorrected_weight_form(12).series(8)
    # and the corrected level-18 data passed every earlier criterion
    for criterion in (1, 2, 3, 4, 5, 6, 7):
        assert _status.get(criterion), f"criterion {criterion} did not pass before 10"
    _record(10, started)
