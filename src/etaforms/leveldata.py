"""Per-level constants: hauptmoduls, weight forms, cusp polynomials, involution data.

Constants are embedded as parsed fixture text under ``fixtures/`` rather than
as code literals, so each one can be eyeballed and diffed in its own grammar.
The fixtures for levels 12 and 18 each carry one corrected eta exponent; the
rejected variants live in ``*_uncorrected.txt`` and stay loadable so the
failure they cause is reproducible.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from math import gcd

from .errors import EtaformsError, InsufficientPrecision, UnsupportedLevel
from .eta import (
    EtaCombination,
    EtaQuotient,
    eisenstein_weight2,
    ligozat_order,
    parse_eta_quotient,
)
from .series import QSeries, deepest

SUPPORTED_LEVELS = (6, 10, 12, 18)


class E2Combination:
    """Rational combination of weight-2 Eisenstein differences e2(t).

    Used where no eta quotient with trivial character exists (the level-10
    weight-2 slot).
    """

    __slots__ = ("terms",)

    terms: tuple[tuple[Fraction, int], ...]    # (scale factor, t)

    def __init__(self, terms):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("E2Combination is immutable")

    def weight(self) -> Fraction:
        return Fraction(2)

    def series(self, prec: int) -> QSeries:
        total = QSeries.zero(prec)
        for scale, t in self.terms:
            total = total + eisenstein_weight2(t, prec).scalar_mul(scale)
        return total


class WeightForm:
    __slots__ = ("weight", "vanishing", "combination")

    weight: int
    vanishing: int                      # order of vanishing at infinity
    combination: EtaCombination | E2Combination

    def __init__(self, weight, vanishing, combination):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "vanishing", vanishing)
        object.__setattr__(self, "combination", combination)

    def __setattr__(self, name, value):
        raise AttributeError("WeightForm is immutable")


class AuxData:
    """Involution machinery for one prime dividing the level."""

    __slots__ = ("p", "scale", "sign", "pole_cusp", "alt", "cusp")

    p: int
    scale: int                          # magnitude of the involution rescaling
    sign: int                           # recorded sign making the identity exact
    pole_cusp: int                      # cusp denominator where `cusp` has its pole
    alt: EtaQuotient                    # alternative weight-0 generator, q^-1 + O(1)
    cusp: EtaQuotient                   # companion with the pole at `pole_cusp`

    def __init__(self, p, scale, sign, pole_cusp, alt, cusp):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "pole_cusp", pole_cusp)
        object.__setattr__(self, "alt", alt)
        object.__setattr__(self, "cusp", cusp)

    def __setattr__(self, name, value):
        raise AttributeError("AuxData is immutable")


class LevelData:
    __slots__ = ("N", "hauptmodul_quotient", "hauptmodul_shift", "weight_forms", "cusp_poly",
                 "aux", "_expansions")

    N: int
    hauptmodul_quotient: EtaQuotient
    hauptmodul_shift: Fraction
    weight_forms: dict[int, WeightForm]
    cusp_poly: tuple[int, ...]          # ascending integer coefficients
    aux: dict[int, AuxData]
    # deepest expansion of each kind, per instance so overridden variants never mix
    _expansions: dict

    def __init__(self, N, hauptmodul_quotient, hauptmodul_shift, weight_forms, cusp_poly,
                 aux=None):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "hauptmodul_quotient", hauptmodul_quotient)
        object.__setattr__(self, "hauptmodul_shift", hauptmodul_shift)
        object.__setattr__(self, "weight_forms", weight_forms)
        object.__setattr__(self, "cusp_poly", cusp_poly)
        object.__setattr__(self, "aux", {} if aux is None else aux)
        object.__setattr__(self, "_expansions", {})

    def __setattr__(self, name, value):
        raise AttributeError("LevelData is immutable")

    # -- deduced structure -------------------------------------------------

    def cusp_count(self) -> int:
        """Number of cusps of the genus-zero group, via the divisor formula."""
        n = self.N
        return sum(_phi(gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0)

    def weight_exponents(self, k: int) -> dict[int, int]:
        """Weight w -> exponent of the weight-w form in the weight-k first element:
        the weight-4 form k // 4 times and the weight-2 form for k mod 4 when the
        level has a weight-4 form, else the weight-2 form k / 2 times."""
        if k % 2:
            raise ValueError(f"weight must be even, got {k}")
        return {4: k // 4, 2: k % 4 // 2} if 4 in self.weight_forms else {2: k // 2}

    def n0(self, k: int) -> int:
        """Maximal vanishing order at infinity in weight k (poles only at infinity)."""
        return sum(e * self.weight_forms[w].vanishing for w, e in self.weight_exponents(k).items())

    def n1(self, k: int) -> int:
        """Maximal vanishing order for forms also vanishing at the other cusps."""
        return self.n0(k) - (len(self.cusp_poly) - 1)

    # -- expansions (the deepest of each kind, truncated) -------------------

    def hauptmodul_series(self, prec: int) -> QSeries:
        return deepest(self._expansions, "haupt", prec,
                       lambda p: self.hauptmodul_quotient.series(p) + self.hauptmodul_shift)

    def weight_form_series(self, weight: int, prec: int) -> QSeries:
        return deepest(self._expansions, ("wform", weight), prec,
                       self.weight_forms[weight].combination.series)

    def aux_alt_series(self, p: int, prec: int) -> QSeries:
        return deepest(self._expansions, ("alt", p), prec, self.aux[p].alt.series)

    def aux_cusp_series(self, p: int, prec: int) -> QSeries:
        return deepest(self._expansions, ("cusp", p), prec, self.aux[p].cusp.series)


def _phi(n: int) -> int:
    out = n
    d = 2
    while d * d <= n:
        if n % d == 0:
            out -= out // d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out -= out // n
    return out


# ----------------------------------------------------------------------
# fixture parsing

def _fixture_text(name: str) -> str:
    with open(os.path.join(os.path.dirname(__file__), "fixtures", name), encoding="utf-8") as fh:
        return fh.read()


def _parse_fixture(text: str) -> dict:
    """Parse one fixture document into its raw pieces."""
    level = None
    hauptmodul = None
    shift = Fraction(0)
    weight_forms: list[dict] = []
    cusp_poly = None
    aux_blocks: list[dict] = []
    current: dict | None = None

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "level":
            level = int(rest)
        elif head == "hauptmodul":
            quot_text, _, shift_text = rest.partition("|")
            hauptmodul = quot_text.strip()
            kv = shift_text.strip().split()
            if kv:
                if kv[0] != "shift" or len(kv) != 2:
                    raise ValueError(f"bad hauptmodul shift clause: {shift_text!r}")
                shift = Fraction(kv[1])
            current = None
        elif head == "weightform":
            opts = dict(kv.split("=") for kv in rest.split())
            current = {"kind": "weightform", "weight": int(opts["weight"]),
                       "vanishing": int(opts["vanishing"]), "terms": []}
            weight_forms.append(current)
        elif head == "term":
            if current is None or current["kind"] != "weightform":
                raise ValueError("term line outside a weightform block")
            current["terms"].append(rest)
        elif head == "cusppoly":
            cusp_poly = tuple(int(c) for c in rest.split())
            current = None
        elif head == "aux":
            opts = dict(kv.split("=") for kv in rest.split())
            current = {"kind": "aux", "p": int(opts["p"]), "scale": int(opts["scale"]),
                       "sign": int(opts["sign"]), "polecusp": int(opts["polecusp"])}
            aux_blocks.append(current)
        elif head in ("alt", "cusp"):
            if current is None or current["kind"] != "aux":
                raise ValueError(f"{head} line outside an aux block")
            current[head] = rest
        else:
            raise ValueError(f"unrecognized fixture line: {line!r}")

    if level is None:
        raise ValueError("fixture has no level line")
    return {
        "level": level,
        "hauptmodul": hauptmodul,
        "shift": shift,
        "weight_forms": weight_forms,
        "cusp_poly": cusp_poly,
        "aux": aux_blocks,
    }


def _parse_weight_form_terms(term_texts: list[str], n: int) -> EtaCombination | E2Combination:
    if any("e2(" in t for t in term_texts):
        parsed = []
        for text in term_texts:
            scale = Fraction(1)
            t_val = None
            for part in (p.strip() for p in text.split("*")):
                if part.startswith("e2(") and part.endswith(")"):
                    t_val = int(part[3:-1])
                else:
                    scale *= Fraction(part)
            if t_val is None:
                raise ValueError(f"mixed eta/e2 weight form term: {text!r}")
            parsed.append((scale, t_val))
        return E2Combination(tuple(parsed))
    return EtaCombination([parse_eta_quotient(t, n) for t in term_texts])


def _build_level(name: str) -> LevelData:
    raw = _parse_fixture(_fixture_text(name))
    n = raw["level"]
    forms = {}
    for block in raw["weight_forms"]:
        comb = _parse_weight_form_terms(block["terms"], n)
        forms[block["weight"]] = WeightForm(block["weight"], block["vanishing"], comb)
    aux = {}
    for block in raw["aux"]:
        aux[block["p"]] = AuxData(
            p=block["p"],
            scale=block["scale"],
            sign=block["sign"],
            pole_cusp=block["polecusp"],
            alt=parse_eta_quotient(block["alt"], n),
            cusp=parse_eta_quotient(block["cusp"], n),
        )
    return LevelData(
        N=n,
        hauptmodul_quotient=parse_eta_quotient(raw["hauptmodul"], n),
        hauptmodul_shift=raw["shift"],
        weight_forms=forms,
        cusp_poly=raw["cusp_poly"],
        aux=aux,
    )


_levels: dict[int, LevelData] = {}
_levels_lock = threading.Lock()


def get_level(n: int) -> LevelData:
    if n not in SUPPORTED_LEVELS:
        raise UnsupportedLevel(n)
    with _levels_lock:
        if n not in _levels:
            _levels[n] = _build_level(f"level{n:02d}.txt")
        return _levels[n]


def uncorrected_weight_form(n: int) -> EtaCombination:
    """The rejected transcription of the level-12 or level-18 weight form."""
    if n not in (12, 18):
        raise UnsupportedLevel(n)
    raw = _parse_fixture(_fixture_text(f"level{n}_uncorrected.txt"))
    block = raw["weight_forms"][0]
    return EtaCombination([parse_eta_quotient(t, n) for t in block["terms"]])


# ----------------------------------------------------------------------
# validation

class ValidationCheck:
    __slots__ = ("name", "passed", "detail")

    name: str
    passed: bool
    detail: str

    def __init__(self, name, passed, detail):
        self.name = name
        self.passed = passed
        self.detail = detail


class ValidationReport:
    __slots__ = ("level", "prec", "checks")

    level: int
    prec: int
    checks: list[ValidationCheck]

    def __init__(self, level, prec, checks):
        self.level = level
        self.prec = prec
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "prec": self.prec,
            "ok": self.ok,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks],
        }

    def render_text(self) -> str:
        lines = [f"level {self.level} validation at O(q^{self.prec})"]
        for c in self.checks:
            lines.append(f"  [{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        lines.append(f"overall: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def validate_level(n: int, prec: int = 64, data: LevelData | None = None) -> ValidationReport:
    """Run the per-level structural checks; failures are reported, not raised.

    ``data`` overrides the registry entry, which lets rejected fixture
    variants be validated to demonstrate how they fail.  A precision that
    does not reach every weight form's leading term raises
    InsufficientPrecision before any check runs.
    """
    if data is None:
        data = get_level(n)
    needed = max(form.vanishing for form in data.weight_forms.values()) + 1
    if prec < needed:
        raise InsufficientPrecision(
            f"level {data.N} validation reads the weight forms' leading terms, up to "
            f"q^{needed - 1}, which O(q^{prec}) does not reach", needed=needed)
    checks: list[ValidationCheck] = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except EtaformsError as err:
            ok, detail = False, f"{type(err).__name__}: {err}"
        checks.append(ValidationCheck(name, ok, detail))

    def check_hauptmodul():
        s = data.hauptmodul_series(prec)
        ok = (s.valuation == -1 and s.coeff(-1) == 1 and s.coeff(0) == 0
              and all(isinstance(c, int) for c in s.coeffs))
        return ok, f"expansion {s.pretty(max_terms=4)} + ..."
    run("hauptmodul is q^-1 + O(q) with integer coefficients", check_hauptmodul)

    for w, form in sorted(data.weight_forms.items()):
        def check_form(w=w, form=form):
            s = data.weight_form_series(w, prec)
            ok = (s.valuation == form.vanishing and s.coeff(form.vanishing) == 1
                  and all(isinstance(c, int) for c in s.coeffs)
                  and form.combination.weight() == w)
            return ok, f"leading term q^{s.valuation}, integral through q^{prec - 1}"
        run(f"weight-{w} form is q^{form.vanishing} + O(q^{form.vanishing + 1}), integral", check_form)

        if isinstance(form.combination, EtaCombination):
            def check_orders(form=form):
                for t in form.combination.terms:
                    if ligozat_order(t, data.N) != t.offset():
                        return False, f"cusp order at infinity disagrees with offset for {t}"
                return True, "cusp order at infinity equals q-offset for every term"
            run(f"weight-{w} form: cusp-order formula matches offsets", check_orders)

    def check_haupt_order():
        got = ligozat_order(data.hauptmodul_quotient, data.N)
        return got == -1, f"order at infinity {got}"
    run("hauptmodul quotient has a simple pole at infinity", check_haupt_order)

    def check_cusp_poly():
        deg = len(data.cusp_poly) - 1
        want = data.cusp_count() - 1
        return deg == want, f"degree {deg}, cusp count {data.cusp_count()}"
    run("cusp polynomial degree is cusp count minus one", check_cusp_poly)

    def check_n1():
        return data.n1(2) == -1, f"n1(2) = {data.n1(2)}"
    run("weight-2 gap index n1(2) is -1", check_n1)

    for p, aux in sorted(data.aux.items()):
        def check_aux(p=p, aux=aux):
            alt = data.aux_alt_series(p, prec)
            cusp = data.aux_cusp_series(p, prec)
            ok = (alt.valuation == -1 and alt.coeff(-1) == 1
                  and all(isinstance(c, int) for c in alt.coeffs)
                  # the involution check decomposes in alt as psi shifted by a constant
                  and not any(e for e, _ in (alt - data.hauptmodul_series(prec)).terms())
                  and all(isinstance(c, int) for c in cusp.coeffs)
                  and ligozat_order(aux.alt, data.N) == aux.alt.offset() == -1
                  and cusp.valuation == ligozat_order(aux.cusp, data.N) == aux.cusp.offset()
                  and ligozat_order(aux.cusp, aux.pole_cusp) == -1)
            return ok, (f"alt = {alt.pretty(max_terms=3)} + ..., companion valuation "
                        f"{cusp.valuation}, pole at cusp 1/{aux.pole_cusp}")
        run(f"p={p} involution data shapes", check_aux)

    return ValidationReport(level=n, prec=prec, checks=checks)
