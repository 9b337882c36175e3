"""Dedekind eta quotients: expansion, weights, and cusp orders.

An eta quotient is a formal product of factors ``eta(d*z)^r`` with a rational
scalar in front.  Expansion separates the exact fractional q-offset
(sum of r*d/24) from a valuation-zero unit series, so quotients whose offset
is not an integer can still be inspected and reported instead of crashing.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import FractionalValuation, InvalidCusp, MixedWeight
from .series import QSeries, deepest


def euler_product(prec: int) -> QSeries:
    """The product over n >= 1 of (1 - q^n), truncated at ``prec``.

    Emitted directly from the pentagonal-number expansion: coefficients are
    +-1 at the generalized pentagonal indices k(3k-1)/2 and zero elsewhere.
    """
    if prec < 1:
        raise ValueError("precision must be at least 1")
    terms = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 < prec:
        sign = -1 if k % 2 else 1
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < prec:
                terms[e] = sign
        k += 1
    return QSeries.from_terms(terms, prec)


def eisenstein_weight2(t: int, prec: int) -> QSeries:
    """The weight-2 holomorphic Eisenstein difference at scale t.

    With sigma(n) the sum of divisors, this is
    (1 - t) - 24*sum((sigma(n) - t*sigma(n/t)) q^n), the classical weight-2
    combination that is modular on the group of level t.
    """
    if t < 2:
        raise ValueError("scale must be at least 2")
    if prec < 1:
        raise ValueError("precision must be at least 1")
    sigma = [0] * max(prec, 1)
    for d in range(1, prec):
        for m in range(d, prec, d):
            sigma[m] += d
    terms = {0: 1 - t}
    for n in range(1, prec):
        c = -24 * sigma[n]
        if n % t == 0:
            c += 24 * t * sigma[n // t]
        terms[n] = c
    return QSeries.from_terms(terms, prec)


_units: dict[int, QSeries] = {}


def eta_unit(delta: int, prec: int) -> QSeries:
    """The unit part of eta(delta*z): euler_product with q -> q^delta."""
    if delta < 1:
        raise ValueError("eta dilation must be >= 1")
    if prec < 1:
        raise ValueError("precision must be at least 1")
    return deepest(_units, delta, prec, lambda p: euler_product(-(-p // delta)).dilated(delta))


class EtaQuotient:
    """scalar * product of eta(delta*z)^r, attached to a level N.

    ``factors`` maps delta -> nonzero integer exponent.  Deltas are not
    required to divide the level here; :func:`ligozat_order` enforces that
    where the cusp formula needs it.  Immutable; equal quotients hash alike.
    """

    __slots__ = ("level", "factors", "scalar")

    level: int
    factors: tuple[tuple[int, int], ...]
    scalar: Fraction

    def __init__(self, level: int, factors, scalar=Fraction(1)):
        if isinstance(factors, dict):
            items = factors.items()
        else:
            items = factors
        merged: dict[int, int] = {}
        for delta, r in items:
            if delta < 1:
                raise ValueError(f"eta dilation must be >= 1, got {delta}")
            merged[delta] = merged.get(delta, 0) + r
        cleaned = tuple(sorted((d, r) for d, r in merged.items() if r))
        if not cleaned:
            raise ValueError("eta quotient needs at least one factor")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "factors", cleaned)
        object.__setattr__(self, "scalar", Fraction(scalar))

    def __setattr__(self, name, value):
        raise AttributeError("EtaQuotient is immutable")

    def _key(self) -> tuple:
        return (self.level, self.factors, self.scalar)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def weight(self) -> Fraction:
        return Fraction(sum(r for _, r in self.factors), 2)

    def offset(self) -> Fraction:
        """Exact q-exponent of the leading term: sum of r*delta/24."""
        return Fraction(sum(r * d for d, r in self.factors), 24)

    def unit(self, prec: int) -> QSeries:
        """Valuation-zero series u with quotient = scalar * q^offset * u."""
        num = QSeries.one(prec)
        den = QSeries.one(prec)
        for delta, r in self.factors:
            base = eta_unit(delta, prec)
            if r > 0:
                num = num * (base ** r if r > 1 else base)
            else:
                den = den * (base ** (-r) if r < -1 else base)
        return num * den.reciprocal()

    def series(self, prec: int) -> QSeries:
        """Absolute expansion known through q^(prec-1).

        Raises FractionalValuation when the offset is not an integer.
        """
        off = self.offset()
        if off.denominator != 1:
            raise FractionalValuation(format_eta_quotient(self), off)
        off = int(off)
        rel = prec - off
        if rel < 1:
            return QSeries.zero(prec)
        return self.unit(rel).shifted(off).scalar_mul(self.scalar)

    def __str__(self) -> str:
        return format_eta_quotient(self)


class EtaCombination:
    """A rational linear combination of eta quotients (scalars live on terms)."""

    __slots__ = ("terms",)

    terms: tuple[EtaQuotient, ...]

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("eta combination needs at least one term")
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("EtaCombination is immutable")

    def weight(self) -> Fraction:
        weights = {t.weight() for t in self.terms}
        if len(weights) > 1:
            raise MixedWeight(f"terms carry weights {sorted(weights)}")
        return weights.pop()

    def series(self, prec: int) -> QSeries:
        total = QSeries.zero(prec)
        for t in self.terms:
            total = total + t.series(prec)
        return total


def ligozat_order(eq: EtaQuotient, c: int) -> Fraction:
    """Order of vanishing of the quotient at any cusp a/c of the level's group.

    Exact value of (N / (24 gcd(c^2, N))) * sum over delta of
    gcd(c, delta)^2 * r_delta / delta.
    """
    n = eq.level
    if c < 1 or n % c:
        raise InvalidCusp(f"cusp denominator {c} does not divide level {n}")
    for delta, _ in eq.factors:
        if n % delta:
            raise InvalidCusp(f"eta({delta}) does not divide level {n}; cusp order undefined")
    total = Fraction(0)
    for delta, r in eq.factors:
        g = gcd(c, delta)
        total += Fraction(g * g * r, delta)
    return Fraction(n, 24 * gcd(c * c, n)) * total


# ----------------------------------------------------------------------
# text form: "25/216 * eta(1)^8 * eta(6)^2 * eta(2)^-4"

_FACTOR_RE = re.compile(r"^eta\((\d+)\)(?:\^(-?\d+))?$")


def parse_eta_quotient(text: str, level: int) -> EtaQuotient:
    scalar = Fraction(1)
    factors: dict[int, int] = {}
    saw_factor = False
    for raw in text.split("*"):
        part = raw.strip()
        if not part:
            raise ValueError(f"empty factor in eta quotient text: {text!r}")
        m = _FACTOR_RE.match(part)
        if m:
            delta = int(m.group(1))
            r = int(m.group(2)) if m.group(2) else 1
            factors[delta] = factors.get(delta, 0) + r
            saw_factor = True
        else:
            scalar *= Fraction(part)
    if not saw_factor:
        raise ValueError(f"no eta factors in {text!r}")
    return EtaQuotient(level=level, factors=factors, scalar=scalar)


def format_eta_quotient(eq: EtaQuotient) -> str:
    parts = []
    if eq.scalar != 1:
        parts.append(str(eq.scalar))
    for delta, r in eq.factors:
        parts.append(f"eta({delta})" if r == 1 else f"eta({delta})^{r}")
    return " * ".join(parts)
