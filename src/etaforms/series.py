"""Exact truncated Laurent series in q over the integers.

A :class:`QSeries` stores coefficients for exponents ``valuation`` through
``prec - 1``; exponents at or beyond ``prec`` are *unknown*, not zero.  Every
coefficient is a Python int: the constructor maps ``operator.index`` over
them only when some coefficient is not a plain int, so a bool becomes an int
and a Fraction, float or str raises TypeError.

Every integer linear combination of series is made by one routine,
:meth:`QSeries.combination`: sums and differences, the blocks of a Horner
evaluation, the columns and sides of the checked identities.  It and the
rational sums of ``eta._rational_sum`` share one loop, :func:`_scaled_sum`,
one slice multiply-add per term.  A rational sum is summed as integers
scaled by the lcm of its denominators and divided once; a remainder raises
IntegralityViolation.

Every series product goes through one kernel, :func:`_convolve`: it packs
each operand into one big integer by Kronecker substitution and multiplies
once with CPython's big-integer product, so the result is exact and equals
the schoolbook Cauchy product coefficient for coefficient.

Series are immutable and all operations are pure, so values may be shared
freely between threads.
"""

from __future__ import annotations

import operator
import threading
from math import gcd

from .errors import IntegralityViolation, PrecisionExceeded, ZeroLeadingTerm


def parse_coeffs(values) -> list:
    """The ints spelled by ``values``, the integer strings of a cache file:
    TypeError for an entry that is not a string, ValueError for one that does
    not spell an integer."""
    if not {str}.issuperset(map(type, values)):
        raise TypeError("coefficients must be integer strings")
    return list(map(int, values))


class Record:
    """An immutable value with one field per name in its class's ``__slots__``.

    ``__init__`` fills the fields in order from positional or keyword
    arguments and, like a hand-written constructor, raises TypeError for a
    missing, extra, repeated or unknown one.  A field cannot be assigned or
    deleted afterwards.  A subclass that checks or defaults its arguments
    keeps a short ``__init__`` that calls this one.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        try:
            args += tuple(map(kwargs.pop, names[len(args):]))
        except KeyError as err:
            raise TypeError(f"{type(self).__name__} is missing field {err}") from None
        if kwargs:
            name = next(iter(kwargs))
            problem = "got multiple values for" if name in names else "has no"
            raise TypeError(f"{type(self).__name__} {problem} field {name!r}")
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields "
                            f"but {len(args)} were given")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class QSeries(Record):
    """A Laurent series truncated at an explicit precision bound."""

    __slots__ = ("valuation", "coeffs", "prec")

    def __init__(self, valuation: int, coeffs: Iterable[int], prec: int):
        coeffs = tuple(coeffs)
        # one type scan: kernel output and truncations hold plain ints already
        if not {int}.issuperset(map(type, coeffs)):
            coeffs = tuple(map(operator.index, coeffs))
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
        # written directly, not through Record.__init__: series are built
        # often enough that the generic constructor's cost would show
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "prec", prec)

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

    @staticmethod
    def combination(terms, prec: int | None = None) -> "QSeries":
        """The sum of c * s over the ``(c, s)`` pairs of ``terms``, each c an int.

        It is known to the least of ``prec`` and the precisions of the s whose
        c is nonzero, so a term with c = 0 neither contributes nor lowers the
        precision.  ValueError when no c is nonzero and ``prec`` is None.
        """
        used = [(c, s) for c, s in terms if c]
        precs = [s.prec for _, s in used] + ([] if prec is None else [prec])
        if not precs:
            raise ValueError("a combination with no nonzero scalar needs a precision")
        prec = min(precs)
        lo = min([prec] + [s.valuation for _, s in used])
        return QSeries(lo, _scaled_sum([(c, s.valuation, s.coeffs) for c, s in used], lo, prec), prec)

    # ------------------------------------------------------------------
    # inspection

    def coeff(self, n: int) -> int:
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

    def terms(self) -> Iterator[tuple[int, int]]:
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

    def _operand(self, other) -> "QSeries | None":
        """``other`` as a series: an int is the constant at this series'
        precision, zero when q^0 is unknown; None for any other type."""
        if isinstance(other, int):
            return QSeries(0, (other,), self.prec) if self.prec > 0 else QSeries.zero(self.prec)
        return other if isinstance(other, QSeries) else None

    def __eq__(self, other) -> bool:
        other = self._operand(other)
        return NotImplemented if other is None else self.agrees_with(other)

    __hash__ = None

    # ------------------------------------------------------------------
    # ring operations

    def __neg__(self) -> "QSeries":
        return QSeries(self.valuation, [-c for c in self.coeffs], self.prec)

    def __add__(self, other) -> "QSeries":
        other = self._operand(other)
        return NotImplemented if other is None else QSeries.combination([(1, self), (1, other)])

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        other = self._operand(other)
        return NotImplemented if other is None else QSeries.combination([(1, self), (-1, other)])

    def __rsub__(self, other) -> "QSeries":
        other = self._operand(other)
        return NotImplemented if other is None else QSeries.combination([(-1, self), (1, other)])

    def scalar_mul(self, scalar: int) -> "QSeries":
        if not scalar:
            return QSeries.zero(self.prec)
        if scalar == 1:
            return self
        return QSeries(self.valuation, [scalar * c for c in self.coeffs], self.prec)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, int):
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
        if not isinstance(other, QSeries):
            return NotImplemented
        return self * other.reciprocal()

    def reciprocal(self) -> "QSeries":
        """Multiplicative inverse, valid up to the propagated precision.

        Newton iteration (Brent and Kung, J. ACM 25 (1978)): when y holds the
        first k terms of 1/u, u y - 1 vanishes below q^k, and y - y (u y - 1)
        holds the first 2k.  Each step makes two kernel products, u y to 2k
        terms and y times its terms from q^k on.  The inverse is integral
        exactly when the leading coefficient is 1 or -1, its own inverse;
        any other raises IntegralityViolation.
        """
        if self.is_zero():
            raise ZeroLeadingTerm("cannot invert a series that is zero to precision")
        n_terms = self.prec - self.valuation
        u = self.coeffs
        if u[0] not in (1, -1):
            raise IntegralityViolation(f"cannot invert a series led by {u[0]}q^{self.valuation} "
                                       f"over the integers: the leading coefficient is not 1 or -1")
        out = [u[0]]
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


def _scaled_sum(parts, lo: int, prec: int) -> list:
    """The coefficients of q^lo through q^(prec - 1) in the sum of
    c * q^offset * (coeffs[0] + coeffs[1] q + ...) over the ``(c, offset, coeffs)``
    parts, every offset at least ``lo``: one slice multiply-add per part, its
    terms at or past q^prec dropped."""
    out = [0] * (prec - lo)
    for c, off, coeffs in parts:
        i = off - lo
        j = min(i + len(coeffs), len(out))
        out[i:j] = [x + c * y for x, y in zip(out[i:j], coeffs)]
    return out


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


def _slot_width(bits: int) -> int:
    """Bytes per Kronecker slot for values below 2^bits in magnitude: 8 W >= bits + 2."""
    return (bits + 9) // 8


def _bias(n: int, width: int) -> int:
    """half = 2^(8 width - 1) in each of n slots of ``width`` bytes."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * n, "little")


def _pack(c, width: int, bias: int | None = None) -> int:
    """The integer sum of c[i] * 2^(8 width i), for integers |c[i]| below half.

    Each entry is written in two's complement into its own little-endian
    slot; flipping the top bit of every slot biases it by half, so every slot
    is nonnegative, and the bias, ``_bias(len(c), width)`` unless a caller
    that packs many rows of one length passes it, is subtracted as one constant.
    """
    if bias is None:
        bias = _bias(len(c), width)
    return (int.from_bytes(b"".join([x.to_bytes(width, "little", signed=True) for x in c]),
                           "little") ^ bias) - bias


def _low_slots(x: int, n: int, width: int, bias: int) -> int:
    """The n lowest slots of packed ``x``, each biased by half: when each of
    those slot values is below half in magnitude, slot i of the result is
    its value plus half, whatever the higher slots hold.  ``bias`` is
    ``_bias(n, width)``, which a caller that reads many rows builds once."""
    return (x + bias) & ((1 << (8 * width * n)) - 1)


def _decode(raw: int, n: int, width: int, bias: int) -> list:
    """The n slot values of ``raw``, a ``_low_slots`` result: ``bias``, as
    there, flipped off as one constant, each slot read in two's complement."""
    data = (raw ^ bias).to_bytes(n * width, "little")
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

    The slices are multiplied by Kronecker substitution (Harvey, J. Symb.
    Comput. 44 (2009), arXiv:0712.4046), in the one packed format that
    ``_pack``, ``_low_slots`` and ``_decode`` share with the basis row
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
    a = a[fa::d][:n]
    b = a if square else b[fb::d][:n]
    # an output coefficient is below 2^(bits(max|a|) + bits(max|b|) + bits(min(len a, len b)))
    width = _slot_width(max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                        + min(len(a), len(b)).bit_length())
    pa = _pack(a, width)
    prod = pa * (pa if square else _pack(b, width))
    bias = _bias(n, width)
    out[fa + fb::d] = _decode(_low_slots(prod, n, width, bias), n, width, bias)
    return out
