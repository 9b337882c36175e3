"""Exact truncated Laurent series in q over the rationals.

A :class:`QSeries` stores coefficients for exponents ``valuation`` through
``prec - 1``; exponents at or beyond ``prec`` are *unknown*, not zero.  All
coefficients are exact: Python ints, or ``fractions.Fraction`` when a
denominator survives.  No floating point is accepted anywhere.

Series are immutable and all operations are pure, so values may be shared
freely between threads.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Union

from .errors import PrecisionExceeded, ZeroLeadingTerm

Coeff = Union[int, Fraction]

#: Default number of known terms beyond the valuation for expansions that do
#: not receive an explicit precision.
DEFAULT_PREC = 256


def normalize_coeff(value) -> Coeff:
    """Coerce an exact number to the canonical int-or-Fraction form."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):        # bool and int subclasses
        return int(value)
    if isinstance(value, str):
        # the inverse of str(): a plain integer parses as int, anything else as Fraction
        try:
            return int(value)
        except ValueError:
            return normalize_coeff(Fraction(value))
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}: {value!r}")


class QSeries:
    """A Laurent series truncated at an explicit precision bound."""

    __slots__ = ("valuation", "coeffs", "prec")

    def __init__(self, valuation: int, coeffs: Iterable[Coeff], prec: int):
        coeffs = [normalize_coeff(c) for c in coeffs]
        # Canonical form: strip leading and trailing zeros; a series that is
        # zero to precision is stored as (valuation=prec, coeffs=()).
        lead = 0
        while lead < len(coeffs) and not coeffs[lead]:
            lead += 1
        tail = len(coeffs)
        while tail > lead and not coeffs[tail - 1]:
            tail -= 1
        valuation += lead
        coeffs = coeffs[lead:tail]
        if valuation + len(coeffs) > prec:
            raise ValueError("coefficients extend past the precision bound")
        if not coeffs:
            valuation = prec
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(prec: int) -> "QSeries":
        return QSeries(prec, (), prec)

    @staticmethod
    def one(prec: int) -> "QSeries":
        return QSeries(0, (1,), prec)

    @staticmethod
    def monomial(coefficient, exponent: int, prec: int) -> "QSeries":
        return QSeries(exponent, (coefficient,), prec)

    @staticmethod
    def from_terms(terms: dict, prec: int) -> "QSeries":
        """Build a series from an {exponent: coefficient} mapping."""
        if not terms:
            return QSeries.zero(prec)
        lo = min(terms)
        hi = max(terms)
        if hi >= prec:
            raise ValueError(f"term q^{hi} at or beyond precision O(q^{prec})")
        dense = [0] * (hi - lo + 1)
        for e, c in terms.items():
            dense[e - lo] = c
        return QSeries(lo, dense, prec)

    # ------------------------------------------------------------------
    # inspection

    def coeff(self, n: int) -> Coeff:
        """Coefficient of q^n; zero in gaps, error at or beyond ``prec``."""
        if n >= self.prec:
            raise PrecisionExceeded(n, self.prec)
        i = n - self.valuation
        if i < 0 or i >= len(self.coeffs):
            return 0
        return self.coeffs[i]

    def is_zero(self) -> bool:
        """True when every known coefficient vanishes."""
        return not self.coeffs

    def terms(self) -> Iterator[tuple[int, Coeff]]:
        """Iterate (exponent, coefficient) over nonzero stored terms."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.valuation + i, c

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # ------------------------------------------------------------------
    # comparison: equality is agreement on the overlap of precisions

    def agrees_with(self, other: "QSeries") -> bool:
        cut = min(self.prec, other.prec)
        lo = min(self.valuation, other.valuation)
        for n in range(lo, cut):
            if self.coeff(n) != other.coeff(n):
                return False
        return True

    def _lift(self, scalar) -> "QSeries":
        """The constant ``scalar`` at this series' precision: zero when q^0 is unknown."""
        if scalar and self.prec > 0:
            return QSeries(0, (scalar,), self.prec)
        return QSeries.zero(self.prec)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._lift(other)
        if isinstance(other, QSeries):
            return self.agrees_with(other)
        return NotImplemented

    __hash__ = None

    # ------------------------------------------------------------------
    # ring operations

    def __neg__(self) -> "QSeries":
        return QSeries(self.valuation, [-c for c in self.coeffs], self.prec)

    def __add__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            other = self._lift(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        prec = min(self.prec, other.prec)
        if self.is_zero() and other.is_zero():
            return QSeries.zero(prec)
        lo = min(self.valuation, other.valuation)
        out = [0] * (prec - lo)
        for i, c in enumerate(self.coeffs):
            e = self.valuation + i
            if e < prec:
                out[e - lo] = c
        for i, c in enumerate(other.coeffs):
            e = other.valuation + i
            if e < prec:
                out[e - lo] += c
        return QSeries(lo, out, prec)

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        if not isinstance(other, (int, Fraction, QSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def scalar_mul(self, scalar) -> "QSeries":
        scalar = normalize_coeff(scalar)
        if not scalar:
            return QSeries.zero(self.prec)
        if scalar == 1:
            return self
        return QSeries(self.valuation, [scalar * c for c in self.coeffs], self.prec)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        prec = min(self.prec + other.valuation, other.prec + self.valuation)
        if self.is_zero() or other.is_zero():
            return QSeries.zero(prec)
        val = self.valuation + other.valuation
        out = _convolve(self.coeffs, other.coeffs, prec - val)
        return QSeries(val, out, prec)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QSeries":
        if not isinstance(exponent, int):
            raise TypeError("series powers must have integer exponents")
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        if exponent == 0:
            # s**0 is exactly 1 whatever s is; keep at least the constant term.
            return QSeries.one(max(self.prec - self.valuation, 1))
        result = None
        base = self
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __truediv__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(Fraction(1, 1) / other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self * other.reciprocal()

    def reciprocal(self) -> "QSeries":
        """Multiplicative inverse, valid up to the propagated precision."""
        if self.is_zero():
            raise ZeroLeadingTerm("cannot invert a series that is zero to precision")
        lead = self.coeffs[0]
        n_terms = self.prec - self.valuation
        inv_lead = normalize_coeff(Fraction(1, 1) / lead)
        out = [0] * n_terms
        out[0] = inv_lead
        u = self.coeffs
        for n in range(1, n_terms):
            acc = 0
            top = min(n, len(u) - 1)
            for j in range(1, top + 1):
                c = u[j]
                if c:
                    acc += c * out[n - j]
            if acc:
                out[n] = normalize_coeff(-inv_lead * acc) if inv_lead != 1 else -acc
        return QSeries(-self.valuation, out, self.prec - 2 * self.valuation)

    # ------------------------------------------------------------------
    # reindexing

    def shifted(self, e: int) -> "QSeries":
        """Multiply by the monomial q^e."""
        return QSeries(self.valuation + e, self.coeffs, self.prec + e)

    def dilated(self, d: int) -> "QSeries":
        """Substitute q -> q^d for a positive integer d."""
        if d < 1:
            raise ValueError("dilation factor must be >= 1")
        if d == 1:
            return self
        out = [0] * (d * (len(self.coeffs) - 1) + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            out[d * i] = c
        return QSeries(d * self.valuation, out, d * self.prec)

    def truncated(self, prec: int) -> "QSeries":
        """Forget coefficients at exponents >= prec."""
        if prec >= self.prec:
            return self
        kept = [c for i, c in enumerate(self.coeffs) if self.valuation + i < prec]
        return QSeries(min(self.valuation, prec), kept, prec)

    def termwise(self, fn) -> "QSeries":
        """Map (exponent, coefficient) -> coefficient over known terms."""
        return QSeries(self.valuation, [fn(self.valuation + i, c) for i, c in enumerate(self.coeffs)], self.prec)

    # ------------------------------------------------------------------
    # serialization and display

    def to_json(self) -> dict:
        return {
            "valuation": self.valuation,
            "prec": self.prec,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @staticmethod
    def from_json(data: dict) -> "QSeries":
        return QSeries(data["valuation"], data["coeffs"], data["prec"])

    def pretty(self, max_terms: int | None = None) -> str:
        """Human form like ``q^-1 + 6q + 4q^2 - 3q^3``."""
        parts = []
        for e, c in self.terms():
            if max_terms is not None and len(parts) >= max_terms:
                break
            parts.append((e, c))
        if not parts:
            return "0"
        out = []
        for i, (e, c) in enumerate(parts):
            sign = "-" if (c < 0) else "+"
            mag = -c if c < 0 else c
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if i == 0:
                out.append(body if sign == "+" else f"-{body}")
            else:
                out.append(f" {sign} {body}")
        return "".join(out)

    def __repr__(self) -> str:
        return f"QSeries({self.pretty(max_terms=6)} + O(q^{self.prec}))"


_deepest_lock = threading.Lock()


def deepest(memo: dict, key, prec: int, compute) -> QSeries:
    """``compute(prec)``, served from the deepest series ``memo`` holds for ``key``.

    Exact coefficients do not depend on the precision they were computed at,
    so the stored series, truncated, answers every shallower request.
    ``compute`` runs outside the lock, so it may call ``deepest`` itself.
    """
    with _deepest_lock:
        have = memo.get(key)
    if have is None or have.prec < prec:
        have = compute(prec)
        with _deepest_lock:
            if key not in memo or memo[key].prec < have.prec:
                memo[key] = have
    return have.truncated(prec)


def _progression(c) -> tuple[int | None, int]:
    """(index of the first nonzero entry, gcd of the gaps between nonzero entries).

    The first index is None for an all-zero ``c`` and the step is 0 when ``c``
    has at most one nonzero entry.  The scan stops once the step is 1, so a
    dense operand costs O(1).
    """
    first = None
    step = 0
    for i, x in enumerate(c):
        if x:
            if first is None:
                first = i
            else:
                step = gcd(step, i - first)
                if step == 1:
                    break
    return first, step


def _convolve(a, b, out_len):
    """Truncated schoolbook Cauchy product of two coefficient tuples.

    Levels 12 and 18 carry arithmetic-progression supports: every nonzero
    entry of an operand sits at its first nonzero index plus a multiple of its
    step.  The product of two such operands is supported on the progression
    with the gcd d of the two steps, so the loop runs on the slices ``a[fa::d]``
    and ``b[fb::d]`` and scatters into ``out[fa+fb::d]``; only products with a
    zero factor are skipped.  The outer loop runs over the operand with fewer
    nonzero entries.  Grouping of the exact additions does not affect results.
    """
    out = [0] * max(out_len, 0)
    fa, sa = _progression(a)
    fb, sb = _progression(b)
    if fa is None or fb is None or fa + fb >= out_len:
        return out
    d = gcd(sa, sb) or 1        # two monomials: any step will do
    a = a[fa::d]
    b = b[fb::d]
    n = -(-(out_len - fa - fb) // d)
    if sum(1 for c in b if c) < sum(1 for c in a if c):
        a, b = b, a
    sub = [0] * n
    len_b = len(b)
    for i, ai in enumerate(a):
        if i >= n:
            break
        if not ai:
            continue
        top = n - i
        bs = b if top >= len_b else b[:top]
        j = i + len(bs)
        sub[i:j] = [x + ai * y for x, y in zip(sub[i:j], bs)]
    out[fa + fb::d] = sub
    return out
