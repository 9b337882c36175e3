"""Structural checks on one level's fixture constants.

Each check compares a fixture constant with what the level's structure
forces: the hauptmodul's pole, each weight form's leading term and
integrality, the cusp orders of every eta quotient, the cusp polynomial's
degree and the shapes of the involution data.  A failed check is reported,
not raised, so a rejected fixture variant can be validated to show how it
fails.  Integrality needs no check of its own: an expansion that is not
integral raises IntegralityViolation, which fails the check that asked for it.
"""

from __future__ import annotations

from .errors import EtaformsError, InsufficientPrecision
from .eta import EtaCombination, ligozat_order
from .leveldata import LevelData, get_level
from .series import Record


class ValidationCheck(Record):
    __slots__ = ("name", "passed", "detail")

    name: str
    passed: bool
    detail: str


class ValidationReport(Record):
    __slots__ = ("level", "prec", "checks")

    level: int
    prec: int
    checks: list[ValidationCheck]

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
        ok = s.valuation == -1 and s.coeff(-1) == 1 and s.coeff(0) == 0
        return ok, f"expansion {s.pretty(max_terms=4)} + ..."
    run("hauptmodul is q^-1 + O(q) with integer coefficients", check_hauptmodul)

    for w, form in sorted(data.weight_forms.items()):
        def check_form(w=w, form=form):
            s = data.weight_form_series(w, prec)
            ok = (s.valuation == form.vanishing and s.coeff(form.vanishing) == 1
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
                  # the involution check decomposes in alt as psi shifted by a constant
                  and not any(e for e, _ in (alt - data.hauptmodul_series(prec)).terms())
                  and ligozat_order(aux.alt, data.N) == aux.alt.offset() == -1
                  and cusp.valuation == ligozat_order(aux.cusp, data.N) == aux.cusp.offset()
                  and ligozat_order(aux.cusp, aux.pole_cusp) == -1)
            return ok, (f"alt = {alt.pretty(max_terms=3)} + ..., companion valuation "
                        f"{cusp.valuation}, pole at cusp 1/{aux.pole_cusp}")
        run(f"p={p} involution data shapes", check_aux)

    return ValidationReport(level=n, prec=prec, checks=checks)
