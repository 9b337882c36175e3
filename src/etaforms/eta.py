"""Dedekind eta quotients: expansion, weights, and cusp orders.

An eta quotient is a formal product of factors ``eta(d*z)^r`` with a rational
scalar in front.  Expansion separates the exact fractional q-offset
(sum of r*d/24) from a valuation-zero unit series, so quotients whose offset
is not an integer can still be inspected and reported instead of crashing.

The unit is expanded from its logarithmic derivative, with no series product
or reciprocal.  Since q d/dq log prod_n (1 - q^(d n)) = -d sum_k sigma(k) q^(d k),
the identity behind eta's relation to E2 (Apostol, *Modular Functions and
Dirichlet Series in Number Theory*, ch. 3), the unit u of prod eta(d*z)^r_d
satisfies j u_j = sum_(i=1..j) L_i u_(j-i) with
L_k = -sum_(d | k) r_d d sigma(k/d): the log-derivative method for products and
powers of power series (Knuth, TAOCP vol. 2, section 4.7).  Every step is an
exact integer division.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, lcm

from .errors import FractionalValuation, IntegralityViolation, InvalidCusp, MixedWeight
from .series import QSeries, Record


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
    sigma = _divisor_sums(prec)
    terms = {0: 1 - t}
    for n in range(1, prec):
        c = -24 * sigma[n]
        if n % t == 0:
            c += 24 * t * sigma[n // t]
        terms[n] = c
    return QSeries.from_terms(terms, prec)


def _divisor_sums(n: int) -> list[int]:
    """sigma(k), the sum of the divisors of k, at every index 0 < k < n, and 0
    at index 0: a sieve that adds each d to its multiples, one slice at a time."""
    sigma = [0] * max(n, 1)
    for d in range(1, n):
        sigma[d::d] = [s + d for s in sigma[d::d]]
    return sigma


def _rational_sum(parts, prec: int) -> QSeries:
    """The sum of scalar * q^offset * (coeffs[0] + coeffs[1] q + ...) over the
    ``(scalar, offset, coeffs)`` parts, known to O(q^prec).

    Each part's integer coefficients reach at most q^(prec - 1).  They are
    scaled by the part's scalar times L, the lcm of the scalars' denominators,
    and added as integers; the sum is divided by L once, and a coefficient
    that L does not divide raises IntegralityViolation.
    """
    den = lcm(*[s.denominator for s, _, _ in parts])
    lo = min([prec] + [off for _, off, _ in parts])
    out = [0] * (prec - lo)
    for s, off, coeffs in parts:
        k = s.numerator * (den // s.denominator)
        i = off - lo
        out[i:i + len(coeffs)] = [x + k * c for x, c in zip(out[i:], coeffs)]
    if den != 1:
        bad = next((i for i, x in enumerate(out) if x % den), None)
        if bad is not None:
            raise IntegralityViolation(f"the coefficient of q^{lo + bad} is "
                                       f"{Fraction(out[bad], den)}, not an integer")
        out = [x // den for x in out]
    return QSeries(lo, out, prec)


def eta_unit(delta: int, prec: int) -> QSeries:
    """The unit part of eta(delta*z): euler_product with q -> q^delta."""
    if delta < 1:
        raise ValueError("eta dilation must be >= 1")
    if prec < 1:
        raise ValueError("precision must be at least 1")
    return euler_product(-(-prec // delta)).dilated(delta).truncated(prec)


class EtaQuotient(Record):
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
        super().__init__(level, cleaned, Fraction(scalar))

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
        """Valuation-zero series u with quotient = scalar * q^offset * u, to O(q^prec).

        u is a series in Q = q^g, g the gcd of the dilations.  Over the factors
        eta(g e z)^r, Q d/dQ log u = sum_k L_k Q^k with
        L_k = -sum_(e | k) r e sigma(k/e), eta's E2 identity (Apostol, ch. 3), so
        its Q^j coefficient follows from j u_j = sum_(i=1..j) L_i u_(j-i), the
        log-derivative method (Knuth, TAOCP vol. 2, section 4.7).  Each sum is
        one C-level ``sum(map(...))``, and the division by j is exact: a
        remainder raises IntegralityViolation, so u is exact or refused.
        """
        if prec < 1:
            raise ValueError("precision must be at least 1")
        step = gcd(*[delta for delta, _ in self.factors])
        n = -(-prec // step)
        sigma = _divisor_sums(n)
        log_der = [0] * n
        for delta, r in self.factors:
            e = delta // step
            log_der[e::e] = [x - r * e * s for x, s in zip(log_der[e::e], sigma[1:])]
        # L_(n-1), ..., L_1, so that the tail from L_j down pairs with u_0, u_1, ...
        falling = log_der[:0:-1]
        u = [1]
        for j in range(1, n):
            total = sum(map(operator.mul, falling[n - 1 - j:], u))
            u_j, rem = divmod(total, j)
            if rem:
                raise IntegralityViolation(
                    f"{format_eta_quotient(self)}: the unit's recurrence gives {j} u_{j} = "
                    f"{total}, not a multiple of {j}")
            u.append(u_j)
        return QSeries(0, u, n).dilated(step).truncated(prec)

    def integral_offset(self) -> int:
        """The offset as an int; FractionalValuation when it is not an integer."""
        off = self.offset()
        if off.denominator != 1:
            raise FractionalValuation(format_eta_quotient(self), off)
        return int(off)

    def parts(self, prec: int) -> list:
        """The quotient to O(q^prec) as ``_rational_sum`` parts: (scalar, offset,
        the unit's coefficients), or none when the offset is at or past prec.

        Raises FractionalValuation when the offset is not an integer.
        """
        off = self.integral_offset()
        return [(self.scalar, off, self.unit(prec - off).coeffs)] if off < prec else []

    def series(self, prec: int) -> QSeries:
        """Absolute expansion known through q^(prec-1); IntegralityViolation
        when the scalar leaves a coefficient that is not an integer."""
        return _rational_sum(self.parts(prec), prec)

    def __str__(self) -> str:
        return format_eta_quotient(self)


class EtaCombination(Record):
    """A rational linear combination of eta quotients (scalars live on terms)."""

    __slots__ = ("terms",)

    terms: tuple[EtaQuotient, ...]

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("eta combination needs at least one term")
        super().__init__(terms)

    def weight(self) -> Fraction:
        weights = {t.weight() for t in self.terms}
        if len(weights) > 1:
            raise MixedWeight(f"terms carry weights {sorted(weights)}")
        return weights.pop()

    def series(self, prec: int) -> QSeries:
        """The sum of the terms' expansions, known through q^(prec-1): each unit
        is expanded only as far as its offset leaves below q^prec.

        Raises FractionalValuation for the first term whose offset is not an integer.
        """
        return _rational_sum([part for t in self.terms for part in t.parts(prec)], prec)


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
