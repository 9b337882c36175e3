"""Canonical bases for the two pole-at-infinity spaces of each level.

For even weight k, the space with poles only at infinity has a unique basis
element of pole order m for every m >= -n0(k): its expansion is q^-m followed
by a gap through q^n0, and it factors as (first element) * P(hauptmodul) with
an integer polynomial P.  The subspace vanishing at the other cusps has the
same structure with n1 in place of n0 and the cusp polynomial folded into the
first element.

Every element is built one way.  P comes from the paper's generating
function, sum of f_m(tau) z^m = first(tau) g(z) / (psi(z) - psi(tau)), with
g the first element of weight 2-k in the other space: one expansion of g,
then a recurrence on coefficients.  first * P(psi) is evaluated by
baby-step/giant-step (Paterson-Stockmeyer): Horner in psi^B over blocks
that combine the baby powers first * psi^b, b < B.  A walk through
consecutive indices extends the baby table one power per index; a set of
scattered rows, as a congruence scan reads, gets the B that costs the
fewest series products.  Each result is checked to be q^-m with zeros
through the gap, which makes it the unique canonical element.  One routine,
_extend_powers, grows every power table, and one, _substitute, evaluates
every polynomial at a series.

Elements are memoized per (level, weight, space) family, and one number, the
family's reach, sizes it: each factor psi = q^-1 + ... costs one known term,
so element m is known to O(q^(reach + 8 - m)).  Index and precision trade
one for one, so index I at precision P needs reach P + max(I, m0), where m0
= -n0(k) or -n1(k) is the first element's pole order.  A family that falls
short is rebuilt from scratch at the larger of that need and the reach that
doubles the deepest index it served at P; rebuilt values extend previously
served ones exactly.  A family restored from disk holds the saved elements
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
from itertools import islice

from .errors import IndexBelowRange, InsufficientPrecision, IntegralityViolation, PrecisionExceeded
from .leveldata import LevelData, get_level
from .series import QSeries, _convolve, _progression, normalize_coeff, parse_coeffs

M_SPACE = "M"
S_SPACE = "S"

CACHE_FORMAT_VERSION = 2


class BasisElement:
    __slots__ = ("level", "weight", "index", "space", "expansion", "haupt_poly")

    level: int
    weight: int
    index: int                  # pole order m at infinity
    space: str                  # "M" or "S"
    expansion: QSeries
    haupt_poly: tuple           # P, ascending; element = first M-space element * P(psi)

    def __init__(self, level, weight, index, space, expansion, haupt_poly):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "expansion", expansion)
        object.__setattr__(self, "haupt_poly", haupt_poly)

    def __setattr__(self, name, value):
        raise AttributeError("BasisElement is immutable")

    def coeff(self, n: int):
        return self.expansion.coeff(n)

    def integer_coeff(self, n: int) -> int:
        c = self.expansion.coeff(n)
        if not isinstance(c, int):
            raise IntegralityViolation(
                f"coefficient of q^{n} in ({self.level},{self.weight},{self.space},{self.index}) "
                f"is {c}, not an integer")
        return c


def _gap(data: LevelData, k: int, space: str) -> int:
    """Each element of the space is q^-m plus terms beyond q^gap: n0(k) for M, n1(k) for S."""
    return data.n0(k) if space == M_SPACE else data.n1(k)


class _Family:
    """All computed elements of one (level, weight, space) at one reach.

    Element m is first * P_m(psi), known to O(q^(reach + 8 - m)).  ``cols[t]``
    holds the x^t coefficients of P_(m0+t), P_(m0+t+1), ...; ``baby`` holds
    first * psi^b, and ``giant`` the last psi^B a Horner evaluation used.
    ``top`` is the highest index a request asked for; once every index from
    m0+1 to ``top`` is built, the tables are dropped.
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
        self.saved: int | None = None        # element count of its cache file, if any
        self._drop_tables()

    def _drop_tables(self) -> None:
        self.cols: list[list] = [[1]]
        self.baby: list[QSeries] = []
        self.giant: QSeries | None = None
        self._psi: QSeries | None = None
        self._dual: QSeries | None = None

    def element(self, m: int) -> BasisElement:
        """Element m; the baby table grows through its degree, so a walk uses no giant."""
        return self.elements.get(m) or self.rows([m], m - self.m0 + 1)[0]

    def rows(self, ms, babies: int | None = None) -> list[BasisElement]:
        """Elements ``ms``, the missing ones evaluated with ``babies`` baby powers
        or else the planned count."""
        if min(ms) < self.m0:
            raise IndexBelowRange(
                f"index {min(ms)} below minimal pole order {self.m0} for "
                f"(level {self.data.N}, weight {self.k}, space {self.space})")
        degrees = sorted({m - self.m0 for m in ms if m not in self.elements})
        if degrees:
            b = babies or self._plan(degrees)
            if not self.baby:
                self.baby.append(_first_series(self.data, self.k, self.space,
                                               self.reach + 8 - self.m0))
            # first * psi^b is known to min(first.prec - b, psi.prec - m0 + 1 - b),
            # and element m = m0 + b must reach O(q^(reach + 8 - m))
            psi = self._psi = self._psi or self.data.hauptmodul_series(self.reach + 7)
            _extend_powers(self.baby, psi, b - 1)
            for d in degrees:
                self._evaluate(d, b, psi)
            if all(i in self.elements for i in range(self.m0 + 1, self.top + 1)):
                # element m0 is baby[0], so a later request for it costs one
                # first-element expansion
                self._drop_tables()
        return [self.elements[m] for m in ms]

    def _plan(self, degrees: list[int]) -> int:
        """The baby count B that makes the fewest series products: one per new
        baby, d // B Horner steps per row, and a binary powering for a new
        giant.  Ties go to the larger B."""
        have = len(self.baby)
        held = self.giant and -self.giant.valuation

        def cost(b):
            steps = sum(d // b for d in degrees)
            giant = steps and b != held and b.bit_length() + bin(b).count("1") - 2
            return max(b - have, 0) + steps + giant

        return min(range(max(have, degrees[-1] + 1), 0, -1), key=cost)

    def _evaluate(self, d: int, b: int, psi: QSeries) -> None:
        """Element m0 + d as first * P(psi), by Horner in psi^b over blocks of b babies."""
        m = self.m0 + d
        poly = self._poly(d, psi)
        prec = self.reach + 8 - m
        g = d // b
        series = _substitute(poly[g * b:], self.baby, prec + g * b)
        if g and (self.giant is None or -self.giant.valuation != b):
            self.giant = psi ** b
        for g in range(g - 1, -1, -1):
            block = _substitute(poly[g * b:(g + 1) * b], self.baby, prec + g * b)
            series = series * self.giant + block
        assert series.prec == prec
        # q^-m with zeros through the gap is the unique element: P is checked
        for t in range(-m + 1, self.gap + 1):
            if series.coeff(t):
                raise RuntimeError(
                    f"P_{m}(psi) left q^{t} uncancelled for "
                    f"(level {self.data.N}, weight {self.k}, space {self.space})")
        if series.coeff(-m) != 1:
            raise RuntimeError(f"unit pivot failed at index {m}")
        if self.space == S_SPACE:
            poly = _convolve(self.data.cusp_poly, poly, len(self.data.cusp_poly) + len(poly) - 1)
        self.elements[m] = BasisElement(
            level=self.data.N, weight=self.k, index=m, space=self.space,
            expansion=series, haupt_poly=tuple(poly))

    def _poly(self, d: int, psi: QSeries) -> list:
        """P_(m0+d), ascending, from the paper's generating function.

        H(z) = sum of P_n z^n satisfies H(z) (psi(z) - x) = g(z), where g is
        the first element of weight 2-k in the other space and leads with
        z^(m0-1).  With psi = q^-1 + sum of c_j q^j, the coefficient of z^n
        gives P_(n+1) = x P_n - sum over j >= 0 of c_j P_(n-j) + g_n.
        """
        cols = self.cols
        if len(cols) <= d:
            if self._dual is None or self._dual.prec < self.m0 + d:
                # once, as deep as the family's top asks
                need = max(self.top, self.m0 + d)
                if (self.k, self.space) == (0, M_SPACE):
                    # theta relation at m = 1: g is -theta(psi), no weight form needed
                    g = self.data.hauptmodul_series(need).termwise(lambda e, c: -e * c)
                else:
                    dual = M_SPACE if self.space == S_SPACE else S_SPACE
                    g = _first_series(self.data, 2 - self.k, dual, need)
                self._dual = g
            c = [psi.coeff(j) for j in range(d)]
            first, step = _progression(c)       # c_j = 0 off first + step * i
            first, step = first or 0, step or 1
            c = c[first::step]
            for i in range(len(cols) - 1, d):
                # degree i + 1, top coefficient first so cols[t - 1][-1] is still degree i's
                cols.append([1])
                for t in range(i, -1, -1):
                    low = cols[t - 1][-1] if t else self._dual.coeff(self.m0 + i)
                    rest = islice(reversed(cols[t]), first, None, step)
                    cols[t].append(normalize_coeff(low - sum(map(operator.mul, c, rest))))
        return [cols[t][d - t] for t in range(d + 1)]


def _first_series(data: LevelData, k: int, space: str, prec: int) -> QSeries:
    """First (maximal-vanishing) element of the space, known to O(q^prec).

    A product is known to each factor's precision plus the other factors'
    valuation, so each input of valuation v (the fixture's vanishing order, or
    -1 for psi) is expanded to O(q^(prec - gap + v)), and past its leading term.
    """
    shift = max(prec - _gap(data, k, space), 1)
    exponents = {4: k // 4, 2: k % 4 // 2} if 4 in data.weight_forms else {2: k // 2}
    factors = [data.weight_form_series(w, shift + data.weight_forms[w].vanishing) ** e
               for w, e in exponents.items() if e]
    if space == S_SPACE:
        psi = data.hauptmodul_series(shift - 1)
        powers = _extend_powers([QSeries.one(psi.prec + 1)], psi, len(data.cusp_poly) - 1)
        factors.append(_substitute(data.cusp_poly, powers, psi.prec))
    out = functools.reduce(operator.mul, factors) if factors else QSeries.one(prec)
    if out.prec < prec:
        raise InsufficientPrecision(
            f"first element of (level {data.N}, weight {k}, {space}) reached only "
            f"O(q^{out.prec})", needed=prec)
    return out.truncated(prec)


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

    Writes are serialized; completed elements are immutable and safe to read
    concurrently.  A family that falls short of a request's reach is rebuilt
    at the larger of the reach needed and the one that doubles the deepest
    index it served at the requested precision, so walking up one index at a
    time costs O(log m) rebuilds.  A rebuilt family reproduces all previously
    served coefficients.
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
        with self._lock:
            return self.family(n, k, space, min_index=m, min_prec=prec).rows([m])[0]

    def clear(self) -> None:
        with self._lock:
            self._families.clear()

    # -- persistence ---------------------------------------------------------

    def _path(self, n: int, k: int, space: str) -> str:
        return os.path.join(self.directory, f"basis_N{n}_k{k}_{space}.json")

    def files(self) -> list[str]:
        """Paths of the family files in the directory, sorted; other files are not the cache's."""
        pattern = os.path.basename(self._path("*", "*", "*"))
        names = fnmatch.filter(os.listdir(self.directory), pattern)
        return [os.path.join(self.directory, f) for f in sorted(names)]

    def save(self) -> list[str]:
        """Write each family that has no file or gained elements; return the paths."""
        if not self.directory:
            raise ValueError("cache has no directory configured")
        os.makedirs(self.directory, exist_ok=True)
        written = []
        with self._lock:
            for (n, k, space), fam in sorted(self._families.items()):
                if fam.saved == len(fam.elements):
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
                _write_atomically(path, doc)
                fam.saved = len(fam.elements)
                written.append(path)
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
            fam = _Family(data, k, space, operator.index(doc["reach"]))
            for m_text, e in doc["elements"].items():
                m = int(m_text)
                fam.elements[m] = BasisElement(
                    level=data.N, weight=k, index=m, space=space,
                    expansion=QSeries.from_json(e),
                    haupt_poly=tuple(parse_coeffs(e["poly"])))
        except (OSError, ValueError, ZeroDivisionError, KeyError, TypeError, AttributeError) as err:
            # a file that cannot be read or parsed, or breaks the schema,
            # costs a recomputation, and the next save replaces it if it can
            print(f"warning: ignoring unreadable cache file {path} "
                  f"({type(err).__name__}: {err})", file=sys.stderr)
            return None
        fam.saved = len(fam.elements)
        return fam


def _write_atomically(path: str, doc: dict) -> None:
    """Replace ``path`` by ``doc`` as JSON; a reader sees the old file or the new one."""
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
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
    return elem.integer_coeff(a_n)


def b_coeff(n: int, k: int, m: int, a_n: int, cache: BasisCache | None = None) -> int:
    """Integer coefficient of q^a_n in the S-space element of pole order m."""
    elem = (cache or _default_cache).element(n, k, S_SPACE, m, prec=a_n + 1)
    return elem.integer_coeff(a_n)


def decompose_in_hauptmodul(series: QSeries, psi: QSeries,
                            min_window: int = 1) -> tuple[tuple, QSeries]:
    """Write a weight-0 object as a polynomial in a q^-1 + ... generator.

    Peels the pole top-down; returns (ascending coefficients, residual).  The
    residual of a genuine weight-0 form with poles only at infinity is O(q).
    ``min_window`` is the number of residual coefficients that must remain
    verifiable; otherwise InsufficientPrecision is raised.
    """
    if psi.valuation != -1 or psi.coeff(-1) != 1:
        raise ValueError("generator must have expansion q^-1 + ...")
    depth = max(0, -series.valuation)
    reachable = min(series.prec, psi.prec - max(depth - 1, 0))
    if reachable < min_window:
        raise InsufficientPrecision(
            f"residual would be known only to O(q^{reachable})",
            needed=min_window + max(depth - 1, 0) + 1)
    powers = _extend_powers([QSeries.one(psi.prec + 1)], psi, depth)
    coeffs, residual = _peel(series, powers, 0)
    return tuple(coeffs), residual


def _peel(series: QSeries, powers: list[QSeries], offset: int) -> tuple[list, QSeries]:
    """Clear q^-(offset+i) from ``series`` with c * powers[i], top power first.

    powers[i] must lead with q^-(offset+i) at coefficient 1.  Returns the
    multipliers c by i and the residual, known to the least precision among
    ``series`` and the powers used.  The subtractions accumulate in one list.
    """
    coeffs = [0] * len(powers)
    val, acc, prec = series.valuation, list(series.coeffs), series.prec
    for i in range(len(powers) - 1, -1, -1):
        e = -(offset + i)
        if e >= prec:
            raise PrecisionExceeded(e, prec)
        c = acc[e - val] if 0 <= e - val < len(acc) else 0
        if c:
            c = coeffs[i] = normalize_coeff(c)
            p = powers[i]
            prec = min(prec, p.prec)
            lo = p.valuation - val
            hi = min(lo + len(p.coeffs), prec - val)
            acc.extend([0] * (hi - len(acc)))
            del acc[prec - val:]
            acc[lo:hi] = [x - c * y for x, y in zip(acc[lo:hi], p.coeffs)]
    return coeffs, QSeries(val, acc, prec)
