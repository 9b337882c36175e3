"""Exact truncated Laurent series in q over the rationals.

A :class:`QSeries` stores coefficients for exponents ``valuation`` through
``prec - 1``; exponents at or beyond ``prec`` are *unknown*, not zero.  All
coefficients are exact: Python ints, or ``fractions.Fraction`` when a
denominator survives.  No floating point is accepted anywhere.  The
constructor normalizes only when some coefficient is not a plain int.

Every series product goes through one kernel, :func:`_convolve`: it clears
denominators, packs each operand into one big integer by Kronecker
substitution and multiplies once with CPython's big-integer product, so the
result is exact and equals the schoolbook Cauchy product coefficient for
coefficient.

Series are immutable and all operations are pure, so values may be shared
freely between threads.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, lcm

from .errors import PrecisionExceeded, ZeroLeadingTerm

Coeff = (int, Fraction)


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


def parse_coeffs(values) -> list:
    """``normalize_coeff`` of each value, as one ``int`` pass when every value
    is a string that ``int`` reads, as a cache file's integers are."""
    if {str}.issuperset(map(type, values)):
        try:
            return list(map(int, values))
        except ValueError:
            pass
    return list(map(normalize_coeff, values))


class QSeries:
    """A Laurent series truncated at an explicit precision bound."""

    __slots__ = ("valuation", "coeffs", "prec")

    def __init__(self, valuation: int, coeffs: Iterable[Coeff], prec: int):
        coeffs = tuple(coeffs)
        # one type scan: kernel output and truncations hold plain ints already
        if not {int}.issuperset(map(type, coeffs)):
            coeffs = tuple(map(normalize_coeff, coeffs))
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
        object.__setattr__(self, "coeffs", coeffs)
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
        lo = min(self.valuation, other.valuation)      # <= prec: a zero series sits at its prec
        out = [0] * (prec - lo)
        for s in (self, other):
            kept = s.coeffs[:max(prec - s.valuation, 0)]
            i = s.valuation - lo
            out[i:i + len(kept)] = [x + c for x, c in zip(out[i:], kept)]
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
        """Multiplicative inverse, valid up to the propagated precision.

        Newton iteration (Brent and Kung, J. ACM 25 (1978)): when y holds the
        first k terms of 1/u, u y - 1 vanishes below q^k, and y - y (u y - 1)
        holds the first 2k.  Each step makes two kernel products, u y to 2k
        terms and y times its terms from q^k on.
        """
        if self.is_zero():
            raise ZeroLeadingTerm("cannot invert a series that is zero to precision")
        n_terms = self.prec - self.valuation
        u = self.coeffs
        out = [normalize_coeff(Fraction(1, 1) / u[0])]
        while len(out) < n_terms:
            k = len(out)
            top = min(2 * k, n_terms)
            err = _convolve(u[:top], out, top)[k:]
            out += [-c for c in _convolve(out, err, top - k)]
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
        out = [0] * (d * len(self.coeffs))
        out[::d] = self.coeffs
        return QSeries(d * self.valuation, out, d * self.prec)

    def truncated(self, prec: int) -> "QSeries":
        """Forget coefficients at exponents >= prec."""
        if prec >= self.prec:
            return self
        return QSeries(min(self.valuation, prec), self.coeffs[:max(prec - self.valuation, 0)], prec)

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
        coeffs = data["coeffs"]
        if type(coeffs) is not list:
            raise TypeError("coefficients must be a list")
        return QSeries(data["valuation"], parse_coeffs(coeffs), data["prec"])

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
    has at most one nonzero entry.  The step divides the gap between the first
    two nonzero entries: it is the largest divisor s of that gap for which
    every slice ``c[first + r::s]``, 0 < r < s, is all zero.  Only the entries
    up to the second nonzero one are visited one by one; the slices are
    scanned at C speed, and a dense operand costs O(1).
    """
    n = len(c)
    first = 0
    while first < n and not c[first]:
        first += 1
    second = first + 1
    while second < n and not c[second]:
        second += 1
    if second >= n:
        return (first if first < n else None), 0
    gap = second - first
    for s in range(gap, 1, -1):
        if not gap % s:
            r = 1
            while r < s and not any(c[first + r::s]):
                r += 1
            if r == s:
                return first, s
    return first, 1


def _integral(c) -> tuple:
    """(the integers c * L, L) for L the lcm of c's denominators; (c, 1) when c holds no Fraction."""
    if Fraction not in set(map(type, c)):
        return c, 1
    den = lcm(*[x.denominator for x in c])
    return [x.numerator * (den // x.denominator) for x in c], den


def _slot_width(bits: int) -> int:
    """Bytes per Kronecker slot for values below 2^bits in magnitude: 8 W >= bits + 2."""
    return (bits + 9) // 8


def _bias(n: int, width: int) -> int:
    """half = 2^(8 width - 1) in each of n slots of ``width`` bytes."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * n, "little")


def _pack(c, width: int) -> int:
    """The integer sum of c[i] * 2^(8 width i), for integers |c[i]| below half.

    Each entry is written in two's complement into its own little-endian
    slot; flipping the top bit of every slot biases it by half, so every slot
    is nonnegative, and the bias is subtracted as one constant.
    """
    bias = _bias(len(c), width)
    return (int.from_bytes(b"".join([x.to_bytes(width, "little", signed=True) for x in c]),
                           "little") ^ bias) - bias


def _low_slots(x: int, n: int, width: int) -> int:
    """The n lowest slots of packed ``x``, each biased by half: when each of
    those slot values is below half in magnitude, slot i of the result is
    its value plus half, whatever the higher slots hold."""
    return (x + _bias(n, width)) & ((1 << (8 * width * n)) - 1)


def _decode(raw: int, n: int, width: int) -> list:
    """The n slot values of ``raw``, a ``_low_slots`` result: the bias flipped
    off as one constant, each slot read in two's complement."""
    data = (raw ^ _bias(n, width)).to_bytes(n * width, "little")
    read = int.from_bytes
    return [read(data[i:i + width], "little", signed=True) for i in range(0, n * width, width)]


def _convolve(a, b, out_len):
    """Truncated Cauchy product of two coefficient sequences, by exact Kronecker substitution.

    Levels 12 and 18 carry arithmetic-progression supports: every nonzero
    entry of an operand sits at its first nonzero index plus a multiple of its
    step.  The product of two such operands is supported on the progression
    with the gcd d of the two steps, so the kernel multiplies the slices
    ``a[fa::d]`` and ``b[fb::d]``, each cut to the n slots the output keeps,
    and scatters into ``out[fa+fb::d]``.

    Denominators are cleared first: each operand is scaled by the lcm of its
    own, and each output coefficient is divided once by the product of the two.
    The integer slices are then multiplied by Kronecker substitution (Harvey,
    J. Symb. Comput. 44 (2009), arXiv:0712.4046), in the one packed format
    that ``_pack``, ``_low_slots`` and ``_decode`` share with the basis row
    recurrence: each slice is packed into one big integer, one little-endian
    slot of W bytes per coefficient, biased by half = 2^(8W-1) so that every
    slot is nonnegative, and the bias is subtracted as one packed constant.
    An output coefficient is a sum of at most min(len a, len b) products, so
    its magnitude is below 2^(bits(max|a|) + bits(max|b|) + bits(min(len a,
    len b))), and W is sized so that this stays below half with a bit to
    spare: one CPython big-integer product then holds every coefficient in
    its own slot.  The bias is added back over the n slots kept, the slots
    past them are masked off, and each slot is read with ``int.from_bytes``.
    Unpacking is linear; it never uses ``%``, shifts or ``str``.
    """
    out = [0] * max(out_len, 0)
    fa, sa = _progression(a)
    fb, sb = _progression(b)
    if fa is None or fb is None or fa + fb >= out_len:
        return out
    d = gcd(sa, sb) or 1        # two monomials: any step will do
    n = -(-(out_len - fa - fb) // d)
    square = a is b
    a, da = _integral(a[fa::d][:n])
    b, db = (a, da) if square else _integral(b[fb::d][:n])
    # an output coefficient is below 2^(bits(max|a|) + bits(max|b|) + bits(min(len a, len b)))
    width = _slot_width(max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                        + min(len(a), len(b)).bit_length())
    pa = _pack(a, width)
    prod = pa * (pa if square else _pack(b, width))
    sub = _decode(_low_slots(prod, n, width), n, width)
    if da * db != 1:
        sub = [normalize_coeff(Fraction(c, da * db)) for c in sub]
    out[fa + fb::d] = sub
    return out
