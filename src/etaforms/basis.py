"""Canonical bases for the two pole-at-infinity spaces of each level.

For even weight k, the space with poles only at infinity has a unique basis
element of pole order m for every m >= -n0(k): its expansion is q^-m followed
by a gap through q^n0, and it factors as (first element) * P(hauptmodul) with
an integer polynomial P.  The subspace vanishing at the other cusps has the
same structure with n1 in place of n0 and the cusp polynomial folded into the
first element.

Every element comes from the paper's generating function, sum of f_m(tau)
z^m = first(tau) g(z) / (psi(z) - psi(tau)), with g the first element of
weight 2-k in the other space.  Its z^m coefficient gives two recurrences:
one on the polynomials P, and one on the rows themselves,
f_(m+1) = psi f_m - sum over j >= 0 of c_j f_(m-j) + g_m first, where
psi = q^-1 + sum of c_j q^j.  Psi, first and g are all a family reads, once
and as deep as its reach needs.  They hold only integers, as every series
does (an input that is not integral is refused where it is expanded), so
every row and every P does too.  Both recurrences run on Kronecker-packed
integers, one _Packed table each.  The row table holds each row's tail only,
the coefficients past its known head of q^-m and the gap's zeros, so a step
multiplies and decodes no head slot.  A caller names all the rows it needs
in one request, and the planner serves it whichever way
makes fewer series products.  A run of consecutive indices continues the
row recurrence from the first row not yet built, one product per new row
(see _Family._recur).  Scattered rows, as a congruence scan reads, are
evaluated as first * P(psi) by baby-step/giant-step (Paterson-Stockmeyer):
Horner in psi^B over blocks that combine the baby powers first * psi^b,
b < B.  Each result is checked to be q^-m with zeros through the gap, which
makes it the unique canonical element.  One routine, _extend_powers, grows
every power table, and one, _substitute, evaluates every polynomial at a
series.

Elements are memoized per (level, weight, space) family, and one number, the
family's reach, sizes it: each factor psi = q^-1 + ... costs one known term,
so element m can be known to O(q^(reach + 8 - m)).  Index and precision
trade one for one, so index I at precision P needs reach P + max(I, m0),
where m0 = -n0(k) or -n1(k) is the first element's pole order.  A family that
falls short is rebuilt from scratch at the larger of that need and the reach
that doubles the deepest index it served at P; rebuilt values extend
previously served ones exactly.  A request names a precision per row: Horner
evaluates a row only that far and stores it so, and a stored row shallower
than a later request is evaluated again; a row from the recurrence has the
family's precision.  A family restored from disk holds the saved elements
and computes any other index itself.
"""

from __future__ import annotations

import contextlib
import fnmatch
import functools
import json
import operator
import os
import sys
import threading
from math import gcd

from .errors import IndexBelowRange, InsufficientPrecision, IntegralityViolation
from .leveldata import LevelData, get_level
from .operators import theta
from .series import (QSeries, Record, _bias, _decode, _low_slots, _pack, _progression, _slot_width,
                     deepest, parse_coeffs)

M_SPACE = "M"
S_SPACE = "S"

CACHE_FORMAT_VERSION = 2


class BasisElement(Record):
    __slots__ = ("level", "weight", "index", "space", "expansion", "haupt_poly")

    level: int
    weight: int
    index: int                  # pole order m at infinity
    space: str                  # "M" or "S"
    expansion: QSeries
    haupt_poly: tuple           # P, ascending; element = first M-space element * P(psi)

    def coeff(self, n: int) -> int:
        return self.expansion.coeff(n)

    integer_coeff = coeff       # every coefficient is an int; the name is kept for callers


def _gap(data: LevelData, k: int, space: str) -> int:
    """Each element of the space is q^-m plus terms beyond q^gap: n0(k) for M, n1(k) for S."""
    return data.n0(k) if space == M_SPACE else data.n1(k)


class _Packed:
    """Integer rows, each one Kronecker-packed integer in the kernel's format
    (see ``_convolve``) with slots of ``width`` bytes: ``packed`` holds the
    rows, ``values`` each row's slot values, decoded once, and ``maxima``
    their largest magnitudes, from which a caller bounds the next row.  A
    row is what follows a head of slots its caller knows and keeps no
    copy of: the basis rows' tails past q^-m and the gap, and the whole of
    each P, a table whose head is 0.  ``bias`` is ``_bias(slots, width)``
    for the slot count of the last ``push``, built again only when that
    count or the width changes."""

    __slots__ = ("packed", "values", "maxima", "width", "slots", "bias")

    def __init__(self):
        self.packed: list[int] = []
        self.values: list[list] = []
        self.maxima: list[int] = []
        self.width = 0
        self.slots = 0
        self.bias = 0

    def fit(self, bits: int) -> None:
        """Widen the slots to hold values below 2^bits, repacking every row from its values.

        The maxima grow from row to row, so a widening adds a quarter, and at
        least two bytes, for the rows to come; rows of one length share one bias.
        """
        width = _slot_width(bits)
        if width > self.width:
            width += max(width // 4, 2)
            biases = {n: _bias(n, width) for n in set(map(len, self.values))}
            self.packed = [_pack(values, width, biases[len(values)]) for values in self.values]
            self.width = width
            self.slots = 0                  # the held bias is for the old width

    def append(self, values: list) -> None:
        """Pack one more row from its values."""
        top = max(map(abs, values), default=0)
        self.fit(top.bit_length())
        self.packed.append(_pack(values, self.width))
        self.values.append(values)
        self.maxima.append(top)

    def push(self, acc: int, slots: int) -> list:
        """Keep the low ``slots`` slots of ``acc``, a sum of packed rows whose
        slots each hold their value, as one more row; return its values."""
        if slots != self.slots:
            self.slots, self.bias = slots, _bias(slots, self.width)
        raw = _low_slots(acc, slots, self.width, self.bias)
        self.packed.append(raw - self.bias)
        values = _decode(raw, slots, self.width, self.bias)
        self.values.append(values)
        self.maxima.append(max(map(abs, values), default=0))
        return values


class _Family:
    """All computed elements of one (level, weight, space) at one reach.

    Element m is first * P_m(psi), known to O(q^(reach + 8 - m)), so a row
    of the family's precision holds reach + 8 coefficients, from q^-m on; a
    Horner row asked for to O(q^prec) holds only those below q^prec.
    ``stride`` is the step s that psi and first share (3 at level 18, 2 at
    level 12, else 1): psi is q^-1 and row m is q^-m times a series in q^s,
    and the x^t coefficient of P_(m0+d) vanishes unless s divides d - t, so
    the P table (``polys``, see ``_poly``) keeps only the others.

    A request for rows up to degree D is served one of two ways, whichever
    ``_plan`` counts fewer series products for.  The row recurrence
    continues from the contiguous end, the first degree neither packed nor
    stored, with one product per new row: ``table`` holds rows 0, 1, ...,
    ``stride`` coefficients apart, each as its tail, the slots past its
    d // stride + 1 head slots (q^-m, then zeros through q^gap), packed
    with a slot width that obeys an exact bound from the maxima of the
    decoded tails.  After a table drop or a cache load the stored rows are
    packed again, with no product, each head checked first.
    Horner evaluates each named row alone: ``baby`` holds first * psi^b,
    and ``giant`` the last psi^B it used.  ``elements`` receives only the
    rows a request named, so a cache file holds what callers asked for.
    The first row built reads the inputs, once, by ``_inputs``.  ``top`` is
    the highest index a request asked for; once every index from m0+1 to
    ``top`` is built, the tables are dropped and the inputs kept.
    """

    def __init__(self, data: LevelData, k: int, space: str, reach: int):
        self.data = data
        self.k = k
        self.space = space
        self.gap = _gap(data, k, space)
        self.m0 = -self.gap
        self.reach = reach
        self.top = self.m0
        self.elements: dict[int, BasisElement] = {}
        self.dirty = True                   # differs from its cache file, or has none
        self._psi: QSeries | None = None    # with the other inputs, set by _inputs
        self._drop_tables()

    def _drop_tables(self) -> None:
        """Free the tables that grow with the rows: P, rows, babies, giant, packed psi."""
        self.polys = _Packed()          # P_m0 = 1, ... on psi's progression
        self.polys.append([1])
        self.baby: list[QSeries] = []
        self.giant: QSeries | None = None
        self.table = _Packed()          # tails of rows m0, m0 + 1, ... on psi's progression
        self._psi_packed = (0, 0, 0)    # (width, psi packed in slots of that width + bias, bias)

    def element(self, m: int) -> BasisElement:
        return self.rows([m])[0]

    def rows(self, ms, precs=None) -> list[BasisElement]:
        """Elements ``ms``, the missing ones built as ``_plan`` chooses.

        ``precs``, one precision per index, asks for row m only to O(q^prec),
        by default the family's O(q^(reach + 8 - m)): Horner evaluates it that
        far, and a stored row shallower than that is evaluated again.  The
        recurrence always gives a row the family's precision.
        """
        if min(ms, default=self.m0) < self.m0:
            raise IndexBelowRange(
                f"index {min(ms)} below minimal pole order {self.m0} for "
                f"(level {self.data.N}, weight {self.k}, space {self.space})")
        asked: dict[int, int] = {}
        if precs is None:
            precs = [self.reach + 8 - m for m in ms]
        for m, prec in zip(ms, precs, strict=True):
            asked[m] = max(asked.get(m, prec), prec)
        degrees = sorted(m - self.m0 for m, prec in asked.items()
                         if m not in self.elements or self.elements[m].expansion.prec < prec)
        if degrees:
            if self._psi is None:
                self._inputs()
            b = self._plan(degrees)
            if b is None:
                self._recur(degrees)
            else:
                # first * psi^b is known to min(first.prec - b, psi.prec - m0 + 1 - b),
                # and element m = m0 + b is asked for to at most O(q^(reach + 8 - m))
                if not self.baby:
                    self.baby.append(self._first)
                _extend_powers(self.baby, self._psi, b - 1)
                for d in degrees:
                    self._evaluate(d, b, asked[self.m0 + d])
            if all(i in self.elements for i in range(self.m0 + 1, self.top + 1)):
                # element m0 is first, so a later request for it costs no product
                self._drop_tables()
        return [self.elements[m] for m in ms]

    def _inputs(self) -> None:
        """Read psi, first and g, the first element of weight 2-k in the other
        space, as deep as any row the reach allows, check them and derive what
        the recurrences use.  IntegralityViolation refuses a first element
        without a unit pivot and a g off the progression of psi and first."""
        data, k = self.data, self.k
        psi = self._psi = data.hauptmodul_series(self.reach + 7)
        first = self._first = _first_series(data, k, self.space, self.reach + 8 - self.m0)
        if (k, self.space) == (0, M_SPACE):
            g = -theta(psi)             # the theta relation at m = 1: no weight form needed
        else:
            # P_(m0+d), d <= reach, reads g to q^(m0 + d - 1); the dual family shares it
            dual = M_SPACE if self.space == S_SPACE else S_SPACE
            g = _first_series(data, 2 - k, dual, self.reach + max(self.m0, 8 + _gap(data, 2 - k, dual)))
        self._dual = g
        self._check(self.m0, [first.coeff(self.gap)])
        s = self.stride = gcd(_progression(psi.coeffs)[1], _progression(first.coeffs)[1]) or 1
        # g_(m0+n) joins degree n + 1, so it vanishes unless s divides n + 1, as c_n does
        off = [i for i, c in enumerate(g.coeffs, g.valuation) if c and (i + 1 - self.m0) % s]
        if off:
            raise IntegralityViolation(f"g_{off[0]} leaves the step-{s} progression of psi and first")
        self.slots = -(-(self.reach + 8) // s)     # per packed row
        # psi.coeffs[0] is q^-1's, so c_j sits at j + 1: nonzero only if s divides j + 1
        self._c = psi.coeffs[s::s]
        self._sizes = list(map(abs, self._c))      # their magnitudes
        self._psi_top = max(map(abs, psi.coeffs))

    def _plan(self, degrees: list[int]) -> int | None:
        """None for the recurrence, else the baby count B for Horner: whichever
        makes fewer series products.  The recurrence makes one per row from the
        contiguous end through the top degree; Horner one per new baby, d // B
        steps per row and a binary powering for a new giant.  Ties go to the
        recurrence, then to the larger B."""
        top = degrees[-1]
        have = len(self.baby)
        held = self.giant and -self.giant.valuation

        def cost(b):
            steps = sum(d // b for d in degrees)
            giant = steps and b != held and b.bit_length() + bin(b).count("1") - 2
            return max(b - have, 0) + steps + giant

        new_rows = top + 1 - self._contiguous_end()
        # Horner makes no product only when its babies reach past the top degree
        if new_rows <= (have <= top):
            return None
        b = min(range(max(have, top, 1), 0, -1), key=cost)
        return None if new_rows <= cost(b) else b

    def _stored(self, d: int) -> QSeries | None:
        """The stored row of degree d, if it has the family's precision and pole order
        (its coefficients are ints, as every QSeries' are)."""
        m = self.m0 + d
        e = self.elements.get(m)
        if e and e.expansion.prec == self.reach + 8 - m and e.expansion.valuation == -m:
            return e.expansion
        return None

    def _contiguous_end(self) -> int:
        """The first degree past row 0 (first itself) that is neither packed nor stored."""
        end = max(len(self.table.packed), 1)
        while self._stored(end):
            end += 1
        return end

    def _recur(self, degrees: list[int]) -> None:
        """Rows through the top degree by the generating function's recurrence.

        The coefficient of z^m in sum of f_m z^m * (psi(z) - psi(tau)) =
        first(tau) g(z), with psi = q^-1 + sum of c_j q^j, gives
        f_(m+1) = psi f_m - sum over j >= 0 of c_j f_(m-j) + g_m first, and
        first is row 0, so g_m folds into the term j = m - m0.  psi f_m is
        known to O(q^(reach + 7 - m)), row m+1's precision, and every other
        term deeper.  A row already stored is packed, not computed, once its
        head is checked.
        """
        table, s = self.table, self.stride
        if not table.packed:
            table.append(self._first.coeffs[s::s])
        for d in degrees:
            if d < len(table.packed):
                self._store(d, self._row(d, table.values[d]))
        named = set(degrees)
        for d in range(len(table.packed), degrees[-1] + 1):
            stored = self._stored(d)
            if stored:
                # no product reads a head, so a stored row's is checked before its tail is used
                self._check(self.m0 + d, stored.coeffs[:d + 1])
                table.append(stored.coeffs[(d // s + 1) * s::s])
                continue
            tail = self._step()
            if d in named:
                self._store(d, self._row(d, tail))

    def _step(self) -> list:
        """Pack the tail of the row after the last packed one; return its slot values.

        Row n is X^0 + X^h tail_n, X one slot and h = n // s + 1; row n + 1
        has H = h + 1 head slots when s divides n + 1, else h.  Each
        tail_(n-j) a c_j meets, and tail_0 in the fold term j = n, starts at
        row n + 1's slot H, so tail_(n+1) = psi tail_n X^(h-H) + psi's slots
        from H on - sum of c_j tail_(n-j) - fold tail_0: one product, psi cut
        to tail_n's length, and one C-level pass with psi's progression and
        magnitudes from ``_inputs``.  The head terms leave row n + 1's head
        1, 0, ..., 0 but for the q^gap slot when H = h + 1: tail_n's first
        slot plus g_m, checked, and shed by the product term.  The slot width
        W satisfies 8 W >= bits(S max|tail_n| max|psi| + max|psi| + sum of
        |c_j| max|tail_(n-j)| + |fold| max|tail_0|) + 2, S the slots of a row,
        so every kept slot holds its coefficient; the table widens by
        ``_Packed.fit`` when that bound outgrows it.  The kept slots are
        read once with the bias the table holds, and stay packed.
        """
        table = self.table
        n = len(table.packed) - 1
        m = self.m0 + n
        s = self.stride
        psi = self._psi
        # psi * row n is known to row n+1's precision; every other term is known deeper
        assert min(self.reach + 8 - m + psi.valuation, psi.prec - m) == self.reach + 7 - m
        g = self._dual.coeff(m)
        fold = psi.coeff(n) - g
        h, grown = n // s + 1, (n + 1) % s == 0
        edge = grown and g + sum(table.values[n][:1])       # row n+1's q^gap slot
        if edge:
            self._check(m + 1, [1] + [0] * (h - 1) + [edge], s)
        # c_j for j = s-1, 2s-1, ... < n meets the rows n+1-s, n+1-2s, ... down to row 1
        lower = slice(n + 1 - s, 0, -s) if n >= s else slice(0)
        table.fit((self.slots * table.maxima[n] * self._psi_top + self._psi_top
                   + sum(map(operator.mul, self._sizes, table.maxima[lower]))
                   + abs(fold) * table.maxima[0]).bit_length())
        w = table.width
        if self._psi_packed[0] != w:
            coeffs = psi.coeffs[::s]
            bias = _bias(len(coeffs), w)
            self._psi_packed = (w, _pack(coeffs, w, bias) + bias, bias)
        _, raw, bias = self._psi_packed
        cut, high = (1 << 8 * w * (self.slots - h)) - 1, 8 * w * (h + grown)
        acc = table.packed[n] * ((raw & cut) - (bias & cut))
        if grown:
            acc = (acc + g) >> 8 * w
        acc += (raw >> high) - (bias >> high) - fold * table.packed[0] - sum(
            map(operator.mul, self._c, table.packed[lower]))
        return table.push(acc, self.slots - h - grown)

    def _evaluate(self, d: int, b: int, prec: int) -> None:
        """Element m0 + d to O(q^prec) as first * P(psi), by Horner in psi^b over blocks of b babies."""
        m = self.m0 + d
        poly = self._poly(d)
        g = d // b
        series = _substitute(poly[g * b:], self.baby, prec + g * b)
        if g and (self.giant is None or -self.giant.valuation != b):
            self.giant = self._psi ** b
        for g in range(g - 1, -1, -1):
            block = _substitute(poly[g * b:(g + 1) * b], self.baby, prec + g * b)
            series = series * self.giant + block
        assert series.prec == prec
        self._check(m, [series.coeff(t) for t in range(-m, self.gap + 1)])
        self._store(d, series)

    def _check(self, m: int, head: list, step: int = 1) -> None:
        """Row m's coefficients of q^-m, q^(step-m), ... through q^gap must be
        1, then zeros: that makes it the unique canonical element, and P is checked."""
        for i, c in enumerate(head[1:], 1):
            if c:
                raise IntegralityViolation(
                    f"P_{m}(psi) left q^{i * step - m} uncancelled for "
                    f"(level {self.data.N}, weight {self.k}, space {self.space})")
        if head[0] != 1:
            raise IntegralityViolation(f"unit pivot failed at index {m}")

    def _row(self, d: int, tail: list) -> QSeries:
        """Row d, m = m0 + d, from its tail's slot values: q^-m, zeros through
        q^gap, then the tail, every stride-th coefficient."""
        s, start = self.stride, (d // self.stride + 1) * self.stride
        coeffs = [0] * (start + len(tail) * s)
        coeffs[0] = 1
        coeffs[start::s] = tail
        return QSeries(-self.m0 - d, coeffs, self.reach + 8 - self.m0 - d)

    def _store(self, d: int, series: QSeries) -> None:
        m = self.m0 + d
        poly = self._poly(d)
        if self.space == S_SPACE:
            poly = _cusp_times(self.data.cusp_poly, poly)
        self.elements[m] = BasisElement(self.data.N, self.k, m, self.space, series, tuple(poly))
        self.dirty = True

    def _poly(self, d: int) -> list:
        """P_(m0+d), ascending, from the paper's generating function.

        H(z) = sum of P_n z^n satisfies H(z) (psi(z) - x) = g(z), where g is
        the first element of weight 2-k in the other space and leads with
        z^(m0-1).  With psi = q^-1 + sum of c_j q^j, the coefficient of z^n
        gives P_(n+1) = x P_n - sum over j >= 0 of c_j P_(n-j) + g_n, so every
        P is an integer polynomial.  With s the stride, c_j = 0 unless s
        divides j + 1 and g_(m0+n) = 0 unless s divides n + 1, so the x^t
        coefficient of P_(m0+d) vanishes unless s divides d - t.  The table
        keeps each P on that progression as one packed integer, slot u
        holding x^(d mod s + u s): P_(n-j) has the slots of P_(n+1), and
        x P_n is P_n moved up one slot when s divides n + 1, else P_n itself,
        so each nonzero c_j costs one C-level multiply-add.  The slot width
        obeys a bound from the decoded maxima, as in ``_step``.
        """
        s, polys = self.stride, self.polys
        if len(polys.packed) <= d:
            for n in range(len(polys.packed) - 1, d):
                # c_j P_(n-j) for j = s-1, 2s-1, ... <= n: the rows n+1-s, n+1-2s, ... down to 0
                lower = slice(n + 1 - s, None, -s) if n + 1 >= s else slice(0)
                g = self._dual.coeff(self.m0 + n)
                polys.fit((polys.maxima[n] + abs(g)
                           + sum(map(operator.mul, self._sizes, polys.maxima[lower]))).bit_length())
                acc = polys.packed[n] << 8 * polys.width if (n + 1) % s == 0 else polys.packed[n]
                polys.push(acc + g - sum(map(operator.mul, self._c, polys.packed[lower])),
                           (n + 1) // s + 1)
        poly = [0] * (d + 1)
        poly[d % s::s] = polys.values[d]
        return poly


def _cusp_times(cusp, poly: list) -> list:
    """The product cusp * poly, ascending, with every term kept: one slice
    multiply-add per nonzero coefficient of ``cusp``, which is short."""
    out = [0] * (len(cusp) + len(poly) - 1)
    for i, c in enumerate(cusp):
        if c:
            out[i:i + len(poly)] = [x + c * y for x, y in zip(out[i:], poly)]
    return out


def _first_series(data: LevelData, k: int, space: str, prec: int) -> QSeries:
    """First (maximal-vanishing) element of the space, known to O(q^prec).

    Served from the level's deepest expansion, so the families that read it,
    the space's own and the dual one's generating function, expand it once.
    """
    return deepest(data._expansions, ("first", k, space), prec,
                   lambda p: _expand_first(data, k, space, p))


def _expand_first(data: LevelData, k: int, space: str, prec: int) -> QSeries:
    """The first element expanded to O(q^prec).

    A product is known to each factor's precision plus the other factors'
    valuation, so each input of valuation v (the fixture's vanishing order, or
    -1 for psi) is expanded to O(q^(prec - gap + v)), and past its leading term.
    """
    shift = max(prec - _gap(data, k, space), 1)
    factors = [data.weight_form_series(w, shift + data.weight_forms[w].vanishing) ** e
               for w, e in data.weight_exponents(k).items() if e]
    if space == S_SPACE:
        factors.append(_cusp_factor(data, shift + 1 - len(data.cusp_poly)))
    out = functools.reduce(operator.mul, factors) if factors else QSeries.one(prec)
    if out.prec < prec:
        raise InsufficientPrecision(
            f"first element of (level {data.N}, weight {k}, {space}) reached only "
            f"O(q^{out.prec})", needed=prec)
    return out.truncated(prec)


def _cusp_factor(data: LevelData, prec: int) -> QSeries:
    """The cusp polynomial evaluated at psi, known to O(q^prec).

    Served from the level's deepest expansion, so the S-space families of a
    level share one.
    """
    return deepest(data._expansions, "cuspfactor", prec, lambda p: _expand_cusp_factor(data, p))


def _expand_cusp_factor(data: LevelData, prec: int) -> QSeries:
    """cusp_poly(psi) to O(q^prec): psi^i is known to psi's precision less i - 1."""
    top = len(data.cusp_poly) - 1
    psi = data.hauptmodul_series(prec + top - 1)
    powers = _extend_powers([QSeries.one(psi.prec + 1)], psi, top)
    return _substitute(data.cusp_poly, powers, psi.prec)


def _extend_powers(powers: list[QSeries], x: QSeries, top: int) -> list[QSeries]:
    """Append powers[-1] * x to ``powers`` until it reaches index ``top``; return it."""
    while len(powers) <= top:
        powers.append(powers[-1] * x)
    return powers


def _substitute(coeffs, powers: list[QSeries], prec: int) -> QSeries:
    """Sum of coeffs[i] * powers[i], known to O(q^prec) or the least precision used.

    The scaled powers accumulate in one list.
    """
    used = [(c, p) for c, p in zip(coeffs, powers) if c]
    prec = min([prec] + [p.prec for _, p in used])
    val = min([prec] + [p.valuation for _, p in used])
    acc = [0] * (prec - val)
    for c, p in used:
        lo = p.valuation - val
        hi = min(lo + len(p.coeffs), prec - val)
        acc[lo:hi] = [x + c * y for x, y in zip(acc[lo:hi], p.coeffs)]
    return QSeries(val, acc, prec)


class BasisCache:
    """Memoized families with optional JSON persistence.

    ``rows`` and ``element`` build rows under the cache's lock, and the
    checks and the construction API read rows through them only, so threads
    may share a cache; a family taken from ``family`` is not locked, and
    completed elements are immutable.  A family that falls short of a
    request's reach is rebuilt at the larger of the reach needed and the one
    that doubles the deepest index it served at the requested precision, so
    walking up one index at a time costs O(log m) rebuilds.  A rebuilt
    family reproduces all previously served coefficients.
    """

    def __init__(self, directory: str | None = None):
        self.directory = directory
        self._families: dict[tuple, _Family] = {}
        self._lock = threading.RLock()

    # -- family management --------------------------------------------------

    def family(self, n: int, k: int, space: str, *, min_index: int = 0,
               min_prec: int = 64) -> _Family:
        data = get_level(n)
        key = (n, k, space)
        gap = _gap(data, k, space)
        # element m0 must be known past its gap for its pivot to be read
        min_prec = max(min_prec, gap + 1)
        need = min_prec + max(min_index, -gap)
        with self._lock:
            fam = self._families.get(key)
            if fam is None and self.directory:
                fam = self._load(data, k, space)
            if fam is None or fam.reach < need:
                doubled = need if fam is None else 2 * fam.reach - min_prec
                fam = _Family(data, k, space, max(need, doubled))
            self._families[key] = fam
            fam.top = max(fam.top, min_index)
            return fam

    def element(self, n: int, k: int, space: str, m: int, prec: int | None = None) -> BasisElement:
        if prec is None:
            prec = max(64, _gap(get_level(n), k, space) + 17)
        return self.rows(n, k, space, [m], prec)[0]

    def rows(self, n: int, k: int, space: str, ms, prec) -> list[BasisElement]:
        """The elements of indices ``ms``, in order, each known to O(q^prec) at
        least, past its gap: ``prec`` is one precision for every index or a
        sequence of one per index (ValueError for another length).  The
        family is sized for the deepest of them; an empty ``ms`` touches no
        family."""
        if not ms:
            return []
        gap = _gap(get_level(n), k, space)
        precs = [max(p, gap + 1) for p in ([prec] * len(ms) if isinstance(prec, int) else prec)]
        top = max(ms)
        need = max(p + max(m, -gap) for m, p in zip(ms, precs, strict=True))
        with self._lock:
            fam = self.family(n, k, space, min_index=top, min_prec=need - max(top, -gap))
            return fam.rows(ms, precs)

    # -- persistence ---------------------------------------------------------

    def _path(self, n: int, k: int, space: str) -> str:
        return os.path.join(self.directory, f"basis_N{n}_k{k}_{space}.json")

    def files(self) -> list[str]:
        """Paths of the family files in the directory, sorted; other entries,
        a directory named like a family file too, are not the cache's."""
        pattern = os.path.basename(self._path("*", "*", "*"))
        names = fnmatch.filter(os.listdir(self.directory), pattern)
        paths = [os.path.join(self.directory, f) for f in sorted(names)]
        return [path for path in paths if os.path.isfile(path)]

    def save(self) -> list[str]:
        """Write each family that has no file or gained or deepened rows; return the paths.
        One that cannot be written does not stop the others: the first error
        is raised once every other family is written."""
        if not self.directory:
            raise ValueError("cache has no directory configured")
        os.makedirs(self.directory, exist_ok=True)
        written = []
        error = None
        with self._lock:
            for (n, k, space), fam in sorted(self._families.items()):
                if not fam.dirty:
                    continue
                doc = {
                    "format_version": CACHE_FORMAT_VERSION,
                    "level": n,
                    "weight": k,
                    "space": space,
                    "reach": fam.reach,
                    "elements": {
                        str(m): {**e.expansion.to_json(), "poly": [str(c) for c in e.haupt_poly]}
                        for m, e in sorted(fam.elements.items())
                    },
                }
                path = self._path(n, k, space)
                try:
                    _write_atomically(path, doc)
                except OSError as err:
                    error = error or err
                    continue
                fam.dirty = False
                written.append(path)
        if error:
            raise error
        return written

    def _load(self, data: LevelData, k: int, space: str) -> _Family | None:
        """The family saved at its path; None when absent, stale or unreadable."""
        path = self._path(data.N, k, space)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if doc.get("format_version") != CACHE_FORMAT_VERSION:
                return None
            named = (doc["level"], doc["weight"], doc["space"])
            if named != (data.N, k, space):
                raise ValueError(f"contents name family {named}")
            fam = _Family(data, k, space, operator.index(doc["reach"]))
            for m_text, e in doc["elements"].items():
                m = int(m_text)
                fam.elements[m] = BasisElement(data.N, k, m, space, QSeries.from_json(e),
                                               tuple(parse_coeffs(e["poly"])))
        except (OSError, ValueError, ZeroDivisionError, KeyError, TypeError, AttributeError) as err:
            # a file that cannot be read or parsed, or breaks the schema,
            # costs a recomputation, and the next save replaces it if it can
            print(f"warning: ignoring unreadable cache file {path} "
                  f"({type(err).__name__}: {err})", file=sys.stderr)
            return None
        fam.dirty = False
        return fam


def _write_atomically(path: str, doc: dict) -> None:
    """Replace ``path`` by ``doc`` as JSON; a reader sees the old file or the new one."""
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))  # C encoder, unlike dump
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


_default_cache = BasisCache()


def default_cache() -> BasisCache:
    return _default_cache


# ----------------------------------------------------------------------
# public construction API

def first_element(n: int, k: int, space: str = M_SPACE, prec: int | None = None,
                  cache: BasisCache | None = None) -> BasisElement:
    m0 = -_gap(get_level(n), k, space)
    return (cache or _default_cache).element(n, k, space, m0, prec)


def f_basis(n: int, k: int, m: int, prec: int | None = None,
            cache: BasisCache | None = None) -> BasisElement:
    return (cache or _default_cache).element(n, k, M_SPACE, m, prec)


def g_basis(n: int, k: int, m: int, prec: int | None = None,
            cache: BasisCache | None = None) -> BasisElement:
    return (cache or _default_cache).element(n, k, S_SPACE, m, prec)


def a_coeff(n: int, k: int, m: int, a_n: int, cache: BasisCache | None = None) -> int:
    """Integer coefficient of q^a_n in the M-space element of pole order m."""
    elem = (cache or _default_cache).element(n, k, M_SPACE, m, prec=a_n + 1)
    return elem.coeff(a_n)


def b_coeff(n: int, k: int, m: int, a_n: int, cache: BasisCache | None = None) -> int:
    """Integer coefficient of q^a_n in the S-space element of pole order m."""
    elem = (cache or _default_cache).element(n, k, S_SPACE, m, prec=a_n + 1)
    return elem.coeff(a_n)

