"""Per-level constants: hauptmoduls, weight forms, cusp polynomials, involution data.

Constants are embedded as fixture text under ``fixtures/`` rather than as
code literals, so each one can be eyeballed and diffed in its own grammar,
and ``_parse_fixture`` reads each in one pass, straight into its records.
The fixtures for levels 12 and 18 each carry one corrected eta exponent; the
rejected variants live in ``*_uncorrected.txt`` and stay loadable so the
failure they cause is reproducible.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from math import gcd, prod

from .errors import UnsupportedLevel
from .eta import (
    EtaCombination,
    EtaQuotient,
    _rational_sum,
    eisenstein_weight2,
    parse_eta_quotient,
)
from .series import QSeries, Record, deepest

SUPPORTED_LEVELS = (6, 10, 12, 18)


class E2Combination(Record):
    """Rational combination of weight-2 Eisenstein differences e2(t).

    Used where no eta quotient with trivial character exists (the level-10
    weight-2 slot).
    """

    __slots__ = ("terms",)

    terms: tuple[tuple[Fraction, int], ...]    # (scale factor, t)

    def weight(self) -> Fraction:
        return Fraction(2)

    def series(self, prec: int) -> QSeries:
        return _rational_sum([(scale, 0, eisenstein_weight2(t, prec).coeffs)
                              for scale, t in self.terms], prec)


class WeightForm(Record):
    __slots__ = ("weight", "vanishing", "combination")

    weight: int
    vanishing: int                      # order of vanishing at infinity
    combination: EtaCombination | E2Combination


class AuxData(Record):
    """Involution machinery for one prime dividing the level."""

    __slots__ = ("p", "scale", "sign", "pole_cusp", "alt", "cusp")

    p: int
    scale: int                          # magnitude of the involution rescaling
    sign: int                           # recorded sign making the identity exact
    pole_cusp: int                      # cusp denominator where `cusp` has its pole
    alt: EtaQuotient                    # alternative weight-0 generator, q^-1 + O(1)
    cusp: EtaQuotient                   # companion with the pole at `pole_cusp`


class LevelData(Record):
    __slots__ = ("N", "hauptmodul_quotient", "hauptmodul_shift", "weight_forms", "cusp_poly",
                 "aux", "_expansions")

    N: int
    hauptmodul_quotient: EtaQuotient
    hauptmodul_shift: int
    weight_forms: dict[int, WeightForm]
    cusp_poly: tuple[int, ...]          # ascending integer coefficients
    aux: dict[int, AuxData]
    # deepest expansion of each kind, per instance so overridden variants never mix
    _expansions: dict

    def __init__(self, *fields, **named):
        super().__init__(*fields, **named, _expansions={})

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
        # the shift is one more part of the sum: one that is not an integer is refused
        return deepest(self._expansions, "haupt", prec, lambda p: _rational_sum(
            [*self.hauptmodul_quotient.parts(p), (self.hauptmodul_shift, 0, (1,))], p))

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
    """The fields of ``LevelData`` in one fixture document, each built as its
    line is read.  The level line comes first.  A ``weightform`` line opens a
    block that collects the ``term`` lines after it, an ``aux`` line one that
    collects its ``alt`` and ``cusp`` lines; the next line of another kind, or
    the end of the text, completes the block's record."""
    fields = {"N": None, "hauptmodul_shift": 0, "weight_forms": {}, "aux": {}}
    block = {}                  # the open block's record fields so far; {} when none is open

    def complete():
        if "combination" in block:
            # parsed together: one e2 term makes every term of the form an e2 term
            block["combination"] = _parse_weight_form_terms(block["combination"], fields["N"])
            fields["weight_forms"][block["weight"]] = WeightForm(**block)
        elif block:
            fields["aux"][block["p"]] = AuxData(**block)

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head not in ("term", "alt", "cusp"):     # a line of another kind completes a block
            complete()
            block = {}
        if head == "term":
            if "combination" not in block:
                raise ValueError("term line outside a weightform block")
            block["combination"].append(rest)
        elif head in ("alt", "cusp"):
            if "p" not in block:
                raise ValueError(f"{head} line outside an aux block")
            block[head] = parse_eta_quotient(rest, fields["N"])
        elif head == "level":
            fields["N"] = int(rest)
        elif fields["N"] is None:
            raise ValueError("fixture has no level line")
        elif head == "hauptmodul":
            quot_text, _, shift_text = rest.partition("|")
            fields["hauptmodul_quotient"] = parse_eta_quotient(quot_text.strip(), fields["N"])
            kv = shift_text.split()
            if kv:
                if kv[0] != "shift" or len(kv) != 2:
                    raise ValueError(f"bad hauptmodul shift clause: {shift_text!r}")
                shift = Fraction(kv[1])
                # an int, as psi's coefficients are; psi refuses one that is not
                fields["hauptmodul_shift"] = shift.numerator if shift.denominator == 1 else shift
        elif head == "cusppoly":
            fields["cusp_poly"] = tuple(int(c) for c in rest.split())
        elif head in ("weightform", "aux"):
            opts = {k: int(v) for k, v in (kv.split("=") for kv in rest.split())}
            block = ({"weight": opts["weight"], "vanishing": opts["vanishing"], "combination": []}
                     if head == "weightform" else
                     {"p": opts["p"], "scale": opts["scale"], "sign": opts["sign"],
                      "pole_cusp": opts["polecusp"]})
        else:
            raise ValueError(f"unrecognized fixture line: {line!r}")
    complete()
    if fields["N"] is None:
        raise ValueError("fixture has no level line")
    return fields


def _parse_weight_form_terms(term_texts: list[str], n: int) -> EtaCombination | E2Combination:
    if any("e2(" in t for t in term_texts):
        parsed = []
        for text in term_texts:
            parts = [p.strip() for p in text.split("*")]
            e2 = [p for p in parts if p.startswith("e2(") and p.endswith(")")]
            if len(e2) != 1 or any(p.startswith("eta(") for p in parts):
                problem = "more than one e2 factor in" if e2[1:] else "mixed eta/e2"
                raise ValueError(f"{problem} weight form term: {text!r}")
            scale = prod([Fraction(p) for p in parts if p not in e2], start=Fraction(1))
            parsed.append((scale, int(e2[0][3:-1])))
        return E2Combination(tuple(parsed))
    return EtaCombination([parse_eta_quotient(t, n) for t in term_texts])


_levels: dict[int, LevelData] = {}
_levels_lock = threading.Lock()


def get_level(n: int) -> LevelData:
    if n not in SUPPORTED_LEVELS:
        raise UnsupportedLevel(n)
    with _levels_lock:
        if n not in _levels:
            _levels[n] = LevelData(**_parse_fixture(_fixture_text(f"level{n:02d}.txt")))
        return _levels[n]


def uncorrected_weight_form(n: int) -> EtaCombination:
    """The rejected transcription of the level-12 or level-18 weight form."""
    if n not in (12, 18):
        raise UnsupportedLevel(n)
    [form] = _parse_fixture(_fixture_text(f"level{n}_uncorrected.txt"))["weight_forms"].values()
    return form.combination
