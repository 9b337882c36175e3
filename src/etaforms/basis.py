"""Canonical bases for the two pole-at-infinity spaces of each level.

For even weight k, the space with poles only at infinity has a unique basis
element of pole order m for every m >= -n0(k): its expansion is q^-m followed
by a gap through q^n0, and it factors as (first element) * P(hauptmodul) with
an integer polynomial P.  The subspace vanishing at the other cusps has the
same structure with n1 in place of n0 and the cusp polynomial folded into the
first element.

Every element is built one way, by power elimination: take (first element) *
psi^i for the element's degree i and clear its coefficients from q^(1-m)
through the gap against the lower powers, recording P along the way.  The
power table is built on first use.

Elements are memoized per (level, weight, space) family; a family is rebuilt
from scratch whenever a request exceeds its precision or index envelope, and
rebuilt values extend previously served ones exactly.  A family restored from
disk holds the saved elements and computes any other index itself.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexBelowRange, InsufficientPrecision, IntegralityViolation
from .leveldata import LevelData, get_level
from .series import QSeries, normalize_coeff

M_SPACE = "M"
S_SPACE = "S"

CACHE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class BasisElement:
    level: int
    weight: int
    index: int                  # pole order m at infinity
    space: str                  # "M" or "S"
    expansion: QSeries
    haupt_poly: tuple           # P, ascending; element = first M-space element * P(psi)

    def coeff(self, n: int):
        return self.expansion.coeff(n)

    def integer_coeff(self, n: int) -> int:
        c = self.expansion.coeff(n)
        if not isinstance(c, int):
            raise IntegralityViolation(
                f"coefficient of q^{n} in ({self.level},{self.weight},{self.space},{self.index}) "
                f"is {c}, not an integer")
        return c


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_normal(p) -> tuple:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


class _Family:
    """All computed elements of one (level, weight, space) at one envelope."""

    def __init__(self, data: LevelData, k: int, space: str, prec: int, max_index: int):
        if k % 2:
            raise ValueError(f"weight must be even, got {k}")
        self.data = data
        self.k = k
        self.space = space
        self.gap = data.n0(k) if space == M_SPACE else data.n1(k)
        self.m0 = -self.gap
        self.prec = prec
        self.max_index = max(max_index, self.m0)
        self.elements: dict[int, BasisElement] = {}
        self._powers: list[QSeries] = []     # first * psi^i, by i
        self.saved: int | None = None        # element count of its cache file, if any

    def element(self, m: int) -> BasisElement:
        if m < self.m0:
            raise IndexBelowRange(
                f"index {m} below minimal pole order {self.m0} for "
                f"(level {self.data.N}, weight {self.k}, space {self.space})")
        got = self.elements.get(m)
        if got is None:
            got = self.elements[m] = self._eliminate(m)
            if all(i in self.elements for i in range(self.m0 + 1, self.max_index + 1)):
                # every index above m0 is built; element m0 is powers[0], so
                # a later request for it costs one first-element expansion
                self._powers = []
        return got

    def _eliminate(self, m: int) -> BasisElement:
        """Clear the principal part of first * psi^(m-m0) against lower powers."""
        i_top = m - self.m0
        powers = self._power_table(i_top)
        peeled, series = _peel(powers[i_top], powers[:i_top], self.m0)
        poly = [-c for c in peeled] + [1]
        for t in range(-m + 1, self.gap + 1):
            if series.coeff(t):
                raise RuntimeError(
                    f"power elimination left q^{t} uncancelled at index {m} for "
                    f"(level {self.data.N}, weight {self.k}, space {self.space})")
        if self.space == S_SPACE:
            poly = _poly_mul(self.data.cusp_poly, poly)
        element = BasisElement(
            level=self.data.N, weight=self.k, index=m, space=self.space,
            expansion=series, haupt_poly=_poly_normal(poly))
        if series.coeff(-m) != 1:
            raise RuntimeError(f"unit pivot failed at index {m}")
        return element

    def _power_table(self, i_top: int) -> list[QSeries]:
        powers = self._powers
        if len(powers) <= i_top:
            depth = self.max_index - self.m0
            # each hauptmodul multiplication yields prec = psi.prec - (pole
            # order of the partner), so psi must cover the deepest pole reached
            reach = max(depth, self.max_index - 1, 0)
            pad = 8
            psi = self.data.hauptmodul_series(self.prec + reach + pad)
            if not powers:
                powers.append(_first_series(self.data, self.k, self.space,
                                            self.prec + depth + pad))
            while len(powers) <= i_top:
                powers.append(powers[-1] * psi)
        return powers


def _first_series(data: LevelData, k: int, space: str, prec: int) -> QSeries:
    """First (maximal-vanishing) element of the space as a series."""
    if 4 in data.weight_forms:
        k_part = k % 4
        ell = (k - k_part) // 4
        w4 = data.weight_forms[4].vanishing
        w2 = data.weight_forms[2].vanishing
        pad = (abs(ell) + 1) * w4 + w2 + 8
        out = _int_power(lambda p: data.weight_form_series(4, p), ell, w4, prec + pad)
        if k_part:
            out = out * _int_power(lambda p: data.weight_form_series(2, p), 1, w2, prec + pad)
    else:
        w2 = data.weight_forms[2].vanishing
        e = k // 2
        pad = (abs(e) + 1) * w2 + 8
        out = _int_power(lambda p: data.weight_form_series(2, p), e, w2, prec + pad)
    if space == S_SPACE:
        depth = len(data.cusp_poly)
        # the product with the cusp polynomial loses the deeper of the two
        # pole depths, so size the hauptmodul for the worst case
        psi = data.hauptmodul_series(prec + depth + max(0, -out.valuation) + 8)
        out = out * _polyval(data.cusp_poly, psi)
    if out.prec < prec:
        raise InsufficientPrecision(
            f"first element of (level {data.N}, weight {k}, {space}) reached only "
            f"O(q^{out.prec})", needed=prec)
    return out.truncated(prec)


def _int_power(series_fn, e: int, vanishing: int, prec: int) -> QSeries:
    if e == 0:
        return QSeries.one(prec)
    base_prec = prec + (abs(e) + 1) * vanishing + 2
    return series_fn(base_prec) ** e


def _polyval(coeffs, x: QSeries) -> QSeries:
    out = QSeries.zero(x.prec - x.valuation * (len(coeffs) - 1))
    for c in reversed(coeffs):
        out = out * x + c
    return out


class BasisCache:
    """Memoized families with optional JSON persistence.

    Writes are serialized; completed elements are immutable and safe to read
    concurrently.  Families grow geometrically in index and exactly in
    precision, and a regrown family reproduces all previously served
    coefficients.
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
        with self._lock:
            fam = self._families.get(key)
            if fam is None and self.directory:
                fam = self._load(data, k, space)
                if fam is not None:
                    self._families[key] = fam
            if fam is None or fam.prec < min_prec or fam.max_index < min_index:
                grown_index = min_index if fam is None else max(min_index, 2 * fam.max_index)
                grown_prec = min_prec if fam is None else max(min_prec, fam.prec)
                fam = _Family(data, k, space, grown_prec, grown_index)
                self._families[key] = fam
            return fam

    def element(self, n: int, k: int, space: str, m: int, prec: int | None = None) -> BasisElement:
        data = get_level(n)
        gap = data.n0(k) if space == M_SPACE else data.n1(k)
        if prec is None:
            prec = max(64, gap + 17)
        with self._lock:
            fam = self.family(n, k, space, min_index=m, min_prec=prec)
            elem = fam.element(m)
            if elem.expansion.prec < prec:
                # regrow precision and rebuild
                fam = self.family(n, k, space, min_index=m, min_prec=prec + (m - fam.m0))
                elem = fam.element(m)
            return elem

    def clear(self) -> None:
        with self._lock:
            self._families.clear()

    # -- persistence ---------------------------------------------------------

    def _path(self, n: int, k: int, space: str) -> str:
        return os.path.join(self.directory, f"basis_N{n}_k{k}_{space}.json")

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
                    "prec": fam.prec,
                    "max_index": fam.max_index,
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
            fam = _Family(data, k, space, doc["prec"], doc["max_index"])
            for m_text, e in doc["elements"].items():
                m = int(m_text)
                fam.elements[m] = BasisElement(
                    level=data.N, weight=k, index=m, space=space,
                    expansion=QSeries.from_json(e),
                    haupt_poly=tuple(normalize_coeff(Fraction(c)) for c in e["poly"]))
        except (ValueError, KeyError, TypeError, AttributeError) as err:
            # a parse or schema error costs a recomputation, and the next
            # save replaces the file
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
    data = get_level(n)
    m0 = -(data.n0(k) if space == M_SPACE else data.n1(k))
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
    powers = [QSeries.one(psi.prec - psi.valuation)]
    for _ in range(depth):
        powers.append(powers[-1] * psi)
    coeffs, residual = _peel(series, powers, 0)
    return tuple(coeffs), residual


def _peel(series: QSeries, powers: list[QSeries], offset: int) -> tuple[list, QSeries]:
    """Clear q^-(offset+i) from ``series`` with c * powers[i], top power first.

    powers[i] must lead with q^-(offset+i) at coefficient 1.  Returns the
    multipliers c by i and the residual.
    """
    coeffs = [0] * len(powers)
    for i in range(len(powers) - 1, -1, -1):
        c = series.coeff(-(offset + i))
        if c:
            coeffs[i] = c
            series = series - powers[i].scalar_mul(c)
    return coeffs, series
