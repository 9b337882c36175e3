"""Executable checks for the structural identities and congruences.

Every check returns a :class:`CheckReport` stating the verified window and
any counterexamples.  A window that cannot be covered at the working
precision raises InsufficientPrecision instead of failing, so precision
shortfalls are never mistaken for falsified identities.
"""

from __future__ import annotations

import csv
import io
import operator
import sys
from itertools import compress, count, islice
from math import gcd

from .basis import BasisCache, _extend_powers, _substitute, default_cache
from .errors import InsufficientPrecision, IntegralityViolation, NoConsistentSign, UnsupportedPair
from .leveldata import get_level
from .operators import theta, u_p
from .series import QSeries, Record


class CheckReport(Record):
    __slots__ = ("name", "params", "passed", "window", "counterexamples", "precision", "details")

    name: str
    params: dict
    passed: bool
    window: str
    counterexamples: list
    precision: int
    details: dict

    def __init__(self, name, params, passed, window, counterexamples=None, precision=0,
                 details=None):
        super().__init__(name, params, passed, window,
                         [] if counterexamples is None else counterexamples, precision,
                         {} if details is None else details)

    @classmethod
    def vacuous(cls, name: str, params: dict) -> "CheckReport":
        """The report of a check whose window holds nothing to check: it passes."""
        return cls(name, params, True, "empty", details={"vacuous": True})

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "params": self.params,
            "passed": self.passed,
            "window": self.window,
            "counterexamples": [list(map(str, c)) for c in self.counterexamples],
            "precision": self.precision,
            "details": self.details,
        }

    def render_text(self) -> str:
        lines = [f"{self.name}: {'pass' if self.passed else 'FAIL'}"]
        lines.append(f"  window: {self.window}")
        lines.append(f"  precision: O(q^{self.precision})")
        for key, value in sorted(self.details.items()):
            lines.append(f"  {key}: {value}")
        for c in self.counterexamples[:20]:
            lines.append(f"  counterexample: {c}")
        if len(self.counterexamples) > 20:
            lines.append(f"  ... {len(self.counterexamples) - 20} more")
        return "\n".join(lines)


class ValuationRow(Record):
    CSV_HEADER = ("N", "p", "a", "b", "r", "s", "m", "n", "coeff", "valuation", "bound", "status")
    __slots__ = CSV_HEADER      # one field per column

    N: int
    p: int
    a: int
    b: int
    r: int
    s: int
    m: int
    n: int
    coeff: int
    valuation: int | None        # None encodes infinite (zero coefficient)
    bound: int | None            # None when the theorems claim nothing
    status: str                  # "pass" | "fail" | "no claim"

    def csv_row(self) -> tuple:
        return (self.N, self.p, self.a, self.b, self.r, self.s, self.m, self.n,
                str(self.coeff),
                "inf" if self.valuation is None else self.valuation,
                "" if self.bound is None else self.bound,
                self.status)

    def to_json(self) -> dict:
        return {
            "N": self.N, "p": self.p, "a": self.a, "b": self.b, "r": self.r, "s": self.s,
            "m": self.m, "n": self.n, "coeff": str(self.coeff),
            "valuation": self.valuation, "bound": self.bound, "status": self.status,
        }


def rows_to_csv(rows: list[ValuationRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ValuationRow.CSV_HEADER)
    for row in rows:
        writer.writerow(row.csv_row())
    return out.getvalue()


# ----------------------------------------------------------------------
# duality

def duality_check(n: int, k: int, m_max: int, n_max: int | None = None,
                  cache: BasisCache | None = None) -> CheckReport:
    """Coefficient symmetry between weights k and 2-k, plus the pairing
    mechanism: the constant term of (pole element) * (dual cusp element)
    equals the coefficient sum and vanishes.  Each constant term is summed
    exactly over the two rows' support overlap, read from their coefficients."""
    cache = cache or default_cache()
    data = get_level(n)
    if n_max is None:
        n_max = m_max
    m_lo = -data.n0(k)
    n_lo = -data.n1(2 - k)
    params = {"level": n, "weight": k, "m_max": m_max, "n_max": n_max}
    if m_max < m_lo or n_max < n_lo:
        return CheckReport.vacuous("duality", params)
    pad = 4
    gs = [(g, *_support(g, m_max))
          for g in cache.rows(n, 2 - k, "S", range(n_lo, n_max + 1), m_max + 1 + pad)]
    fs = cache.rows(n, k, "M", range(m_lo, m_max + 1), n_max + 1 + pad)
    bad = []
    for f in fs:
        F, f_lo, f_u, f_ok = _support(f, n_max)
        m = f.index
        for g, G, g_lo, g_u, g_ok in gs:
            nn = g.index
            s = -f_lo - g_lo
            # a = f's coefficient of q^nn and b = g's of q^m: F[s] and G[s] for rows that start
            # at q^-index; every other row reads them by coeff, which checks the precision
            a, b = (F[s], G[s]) if f_ok and g_ok else _checked_pair(f, g)
            if a != -b:
                bad.append((m, nn, a, -b))
            # the constant term of f * g is the sum of F[i] G[s - i], and the rows vanish off
            # F[0], F[f_u:], G[0] and G[g_u:]: only i = 0, i = s and f_u <= i <= s - g_u remain
            const = F[0] * G[s] + F[s] * G[0]
            if f_u <= s - g_u:
                const += sum(map(operator.mul, F[f_u:s - g_u + 1], reversed(G[g_u:s - f_u + 1])))
            if const != a + b or const != 0:
                bad.append((m, nn, "pairing constant", const, a + b))
    return CheckReport(
        name="duality",
        params=params,
        passed=not bad,
        window=f"m in [{m_lo},{m_max}], n in [{n_lo},{n_max}]",
        counterexamples=bad,
        precision=n_max + 1,
        details={"pairs": len(fs) * len(gs), "vacuous": False},
    )


def _support(row, reach: int) -> tuple:
    """(F, lo, u, ok): the row's coefficients as the pairing reads them, scanned once.

    F[i] is the coefficient of q^(lo + i) for every exponent below the row's
    precision, lo the lower of -index and the valuation.  The row vanishes off
    F[0] and F[u:], u the index of the first nonzero coefficient after F[0],
    read from the coefficients.  ok: the row starts at q^-index and is known
    through q^reach.
    """
    e = row.expansion
    lo = min(-row.index, e.valuation)
    F = (0,) * (e.valuation - lo) + e.coeffs + (0,) * (e.prec - e.valuation - len(e.coeffs))
    u = next(compress(count(1), islice(F, 1, None)), len(F))
    ok = lo == -row.index and e.prec > reach
    return F, lo, u, ok


def _checked_pair(f, g) -> tuple:
    """f's coefficient of q^(g's index) and g's of q^(f's index), each by coeff,
    after which the exponents that the constant term of f * g reads must be known."""
    a = f.coeff(g.index)
    b = g.coeff(f.index)
    fe, ge = f.expansion, g.expansion
    if fe.prec <= -ge.valuation or ge.prec <= -fe.valuation:
        raise InsufficientPrecision("product constant term not determined",
                                    needed=max(1 - ge.valuation, 1 - fe.valuation))
    return a, b


# ----------------------------------------------------------------------
# generating function

def genfun_check(n: int, k: int, m_max: int, z_prec: int = 32,
                 cache: BasisCache | None = None) -> CheckReport:
    """Two-variable identity: (psi(z) - psi(tau)) * sum of elements(tau) q_z^m
    equals (first element)(tau) * (dual cusp element)(z), column by column in
    the z-degree, each column an exact series in q_tau."""
    cache = cache or default_cache()
    data = get_level(n)
    n0 = data.n0(k)
    params = {"level": n, "weight": k, "m_max": m_max, "z_prec": z_prec}
    if m_max < -n0:
        return CheckReport.vacuous("genfun", params)
    if m_max + n0 + 1 > sys.maxsize:
        raise ValueError(f"m_max (--mmax) {m_max} is too large: its columns need a z-precision "
                         f"past the largest index {sys.maxsize}")
    if z_prec < m_max + n0 + 1:
        raise InsufficientPrecision(
            f"z-precision {z_prec} cannot complete columns through {m_max - 1}",
            needed=m_max + n0 + 1)
    min_tau_window = 8
    tau_prec = max(32, m_max + n0 + min_tau_window + 8)
    f_tau = {e.index: e.expansion for e in cache.rows(n, k, "M", range(-n0, m_max + 1), tau_prec)}
    psi_tau = data.hauptmodul_series(tau_prec)
    psi_z = data.hauptmodul_series(z_prec)
    [g_z] = cache.rows(n, 2 - k, "S", [n0 + 1], z_prec)
    first_tau = f_tau[-n0]

    cells = 0
    bad = []
    min_overlap = None
    for i in range(-n0 - 1, m_max):
        lhs = QSeries.zero(tau_prec)
        for e, c in psi_z.terms():
            m = i - e
            if -n0 <= m <= m_max:
                lhs = lhs + f_tau[m].scalar_mul(c)
        if -n0 <= i <= m_max:
            lhs = lhs - psi_tau * f_tau[i]
        rhs = first_tau.scalar_mul(g_z.coeff(i))
        overlap_hi = min(lhs.prec, rhs.prec)
        starts = [s.valuation for s in (lhs, rhs) if not s.is_zero()]
        overlap_lo = min(starts) if starts else min(0, overlap_hi)
        width = overlap_hi - overlap_lo
        min_overlap = width if min_overlap is None else min(min_overlap, width)
        if width < min_tau_window:
            raise InsufficientPrecision(
                f"column {i} verified on only {width} coefficients",
                needed=tau_prec + (min_tau_window - width))
        for j in range(overlap_lo, overlap_hi):
            cells += 1
            if lhs.coeff(j) != rhs.coeff(j):
                bad.append((i, j, rhs.coeff(j), lhs.coeff(j)))
    return CheckReport(
        name="genfun",
        params={**params, "tau_prec": tau_prec},
        passed=not bad,
        window=f"z-degrees [{-n0 - 1},{m_max - 1}], {cells} bidegree cells",
        counterexamples=bad,
        precision=tau_prec,
        details={"cells": cells, "min_column_overlap": min_overlap},
    )


# ----------------------------------------------------------------------
# theta relation

def theta_check(n: int, m_max: int, window: int = 40,
                cache: BasisCache | None = None) -> CheckReport:
    """theta(weight-0 element of pole order m) = -m * (weight-2 cusp element)."""
    cache = cache or default_cache()
    params = {"level": n, "m_max": m_max}
    if m_max < 1:
        return CheckReport.vacuous("theta", params)
    ms = range(1, m_max + 1)
    fs = cache.rows(n, 0, "M", ms, window + m_max + 4)
    gs = cache.rows(n, 2, "S", ms, window + m_max + 4)
    bad = []
    checked = 0
    for m, f, g in zip(ms, fs, gs):
        lhs = theta(f.expansion)
        rhs = g.expansion.scalar_mul(-m)
        hi = min(lhs.prec, rhs.prec)
        if hi < window:
            raise InsufficientPrecision(f"overlap {hi} below window {window}", needed=window + m_max)
        for t in range(-m, hi):
            checked += 1
            if lhs.coeff(t) != rhs.coeff(t):
                bad.append((m, t, rhs.coeff(t), lhs.coeff(t)))
    return CheckReport(
        name="theta",
        params=params,
        passed=not bad,
        window=f"m in [1,{m_max}], coefficients through q^{window - 1} at least",
        counterexamples=bad,
        precision=window,
        details={"coefficients_checked": checked},
    )


# ----------------------------------------------------------------------
# index-lowering between levels 12/18 and 6

def up_lemma_check(n: int, m_max: int, zero_window: int = 40,
                   cache: BasisCache | None = None) -> CheckReport:
    """u_p maps the level-12 (p=2) or level-18 (p=3) weight-0 basis onto the
    level-6 one: index p*m' goes to index m', others to zero."""
    if n not in (12, 18):
        raise ValueError("index-lowering is available for levels 12 and 18 only")
    if zero_window < 1:
        raise ValueError(f"zero window must be at least 1, not {zero_window}")
    p = 2 if n == 12 else 3
    params = {"level": n, "p": p, "m_max": m_max, "zero_window": zero_window}
    if m_max < 1:
        return CheckReport.vacuous("uplemma", params)
    cache = cache or default_cache()
    prec_n = p * (zero_window + m_max + 2)
    targets = cache.rows(6, 0, "M", range(1, m_max // p + 1), zero_window + m_max + 2)
    bad = []
    zero_cases = 0
    mapped_cases = 0
    for m, element in enumerate(cache.rows(n, 0, "M", range(1, m_max + 1), prec_n), 1):
        image = u_p(element.expansion, p)
        if image.prec < zero_window:
            raise InsufficientPrecision(f"image precision {image.prec} below {zero_window}",
                                        needed=p * zero_window + m)
        # below q^zero_window only, so the report does not follow how deep the cache is
        if m % p == 0:
            mapped_cases += 1
            target = targets[m // p - 1].expansion
            for t in range(-m // p, zero_window):
                if image.coeff(t) != target.coeff(t):
                    bad.append((m, t, target.coeff(t), image.coeff(t)))
        else:
            zero_cases += 1
            bad += [(m, e, 0, c) for e, c in islice(image.truncated(zero_window).terms(), 1)]
    return CheckReport(
        name="uplemma",
        params=params,
        passed=not bad,
        window=f"m in [1,{m_max}]; vanishing checked to {zero_window} terms",
        counterexamples=bad,
        precision=zero_window,
        details={"mapped_cases": mapped_cases, "zero_cases": zero_cases},
    )


# ----------------------------------------------------------------------
# involution identity

def al_identity_check(n: int, p: int, r_set, a_max: int, window: int = 64,
                      cache: BasisCache | None = None) -> CheckReport:
    """The rescaling identity behind the congruences.

    For m = p^a r with r positive and coprime to p, the object p*u_p(element m) minus
    (for a >= 1) p*(element m/p) equals eps * sum of c_i (sign*scale)^i
    (cusp companion)^i at every nonzero exponent, where c_i is the
    decomposition of element m in the alternative generator and eps is -1
    for a = 0 and p-1 otherwise.  The q^0 slot absorbs the constant from the
    involution's holomorphic pieces and is reported, not matched.

    The alternative generator must be psi + c, checked before any row is read;
    element m is P(psi), so its decomposition is P(y - c), integer work only.

    The same sign must work for every row; it is recorded in the fixtures.
    As a corollary the positive coefficients of u_p(element r) are divisible
    by scale/p, which is re-checked explicitly on the computed rows.
    """
    cache = cache or default_cache()
    data = get_level(n)
    if p not in data.aux:
        raise UnsupportedPair(f"no involution data for level {n}, p={p}")
    aux = data.aux[p]
    r_set = _residues(p, r_set)
    params = {"level": n, "p": p, "r_set": r_set, "a_max": a_max}
    if a_max < 0 or not r_set:
        return CheckReport.vacuous("al-identity", params)
    # p >= 2, so p^a_max is past sys.maxsize once a_max reaches its bit length
    max_m = p ** min(a_max, sys.maxsize.bit_length()) * max(r_set)
    if max_m > sys.maxsize:
        raise ValueError(f"a_max (--amax) {a_max} with residue (--rset) {max(r_set)} is too large: "
                         f"{p}^{a_max} * {max(r_set)} is past the largest index {sys.maxsize}")
    rows = []
    sign_works = {1: True, -1: True}
    prec = p * (window + 2)
    alt = data.aux_alt_series(p, prec + max_m + 8)
    if alt.valuation != -1 or alt.coeff(-1) != 1:
        raise ValueError("generator must have expansion q^-1 + ...")
    offset = alt - data.hauptmodul_series(alt.prec)
    if any(e for e, _ in offset.terms()):
        raise NoConsistentSign(f"alternative generator for p={p} is not psi + constant")
    alt_shift = offset.coeff(0)
    ms = sorted({p ** a * r for r in r_set for a in range(a_max + 1)})
    elements = dict(zip(ms, cache.rows(n, 0, "M", ms, prec + 4)))
    # row m has degree m in alt, and its left side is known to O(q^(f_m.prec // p))
    deepest = max(e.expansion.prec for e in elements.values()) // p
    cusp_powers = _extend_powers([QSeries.one(deepest)], data.aux_cusp_series(p, deepest), max_m)
    corollary_bound = _valuation(aux.scale, p) - 1
    corollary_ok = True
    for r in r_set:
        for a in range(0, a_max + 1):
            m = p ** a * r
            element = elements[m]
            coeffs = _shift_poly(element.haupt_poly, alt_shift)
            eps = (p - 1) if a else -1
            image = u_p(element.expansion, p)
            lhs = image.scalar_mul(p)
            if a:
                lhs = lhs - elements[m // p].expansion.scalar_mul(p)
            row = {"r": r, "a": a, "m": m, "degree": len(coeffs) - 1}
            for sign in (1, -1):
                lam = sign * aux.scale
                rhs = _substitute([eps * c * lam ** i for i, c in enumerate(coeffs)],
                                  cusp_powers, lhs.prec)
                diff = lhs - rhs
                off = [(e, c) for e, c in diff.terms() if e != 0]
                if off:
                    sign_works[sign] = False
                else:
                    row[f"constant_slot_sign_{sign:+d}"] = diff.coeff(0) if diff.prec > 0 else 0
            if a == 0:
                # divisibility corollary on the computed image
                worst = None
                for e, c in image.terms():
                    if e >= 1:
                        v = _valuation(c, p)
                        worst = v if worst is None else min(worst, v)
                row["min_image_valuation"] = worst
                if worst is not None and worst < corollary_bound:
                    corollary_ok = False
            rows.append(row)
    chosen = [s for s in (1, -1) if sign_works[s]]
    if not chosen:
        raise NoConsistentSign(f"no sign satisfies the identity for level {n}, p={p}")
    if aux.sign not in chosen:
        raise NoConsistentSign(
            f"recorded sign {aux.sign:+d} fails while {chosen[0]:+d} works; fixture is stale")
    passed = corollary_ok
    return CheckReport(
        name="al-identity",
        params=params,
        passed=passed,
        window=f"{len(rows)} rows, series window {window}",
        counterexamples=[] if corollary_ok else [("corollary", corollary_bound)],
        precision=window,
        details={
            "recorded_sign": aux.sign,
            "scale": aux.scale,
            "corollary_divisibility_exponent": corollary_bound,
            "rows": rows,
        },
    )


def _shift_poly(coeffs, c) -> list:
    """Ascending coefficients of P(y - c), for P in ascending ``coeffs`` (Horner)."""
    out = []
    for a in reversed(coeffs):
        out = [x - c * y for x, y in zip([0] + out, out + [0])]
        out[0] += a
    return out


def _valuation(value: int, p: int) -> int:
    if value == 0:
        raise ValueError("valuation of zero is infinite")
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


# ----------------------------------------------------------------------
# congruence scan

def congruence_bound(n: int, p: int, a: int, b: int, r: int) -> tuple[int | None, str]:
    """Claimed lower bound for the p-adic valuation of the (p^a r, p^b s)
    coefficient, and the case label.  None means no claim."""
    if a == b:
        return None, "diagonal"
    side = "a>b" if a > b else "b>a"
    strong2 = (a - b + 2, f"strong {side}") if a > b else (2, f"strong {side}")
    strong1 = (a - b + 1, f"strong {side}") if a > b else (1, f"strong {side}")
    if (n, p) == (6, 2) or (n, p) == (12, 2):
        return strong2
    if (n, p) == (18, 2):
        if r % 3 == 0:
            return strong2
        return (a - b, f"weak {side}") if a > b else (None, "none")
    if (n, p) == (6, 3) or (n, p) == (18, 3):
        return strong1
    if (n, p) == (12, 3):
        if r % 2 == 0:
            return strong1
        return (a - b, f"weak {side}") if a > b else (None, "none")
    if (n, p) == (10, 2):
        return strong1
    if (n, p) == (10, 5):
        return (a - b, f"strong {side}") if a > b else (None, "none")
    raise ValueError(f"no congruence data for level {n}, p = {p}")


def _residues(p: int, values) -> list[int]:
    """The distinct residues in ``values``, sorted.  The congruences take
    m = p^a r and n = p^b s with r and s positive and coprime to p, so any
    other residue raises ValueError."""
    out = sorted(set(values))
    for r in out:
        if r < 1:
            raise ValueError(f"residue {r} is not positive")
        if gcd(r, p) != 1:
            raise ValueError(f"residue {r} is not coprime to {p}")
    return out


def admissible_residues(p: int, count: int = 3) -> list[int]:
    if p < 2:
        raise ValueError(f"admissible residues need p >= 2, not p = {p}")
    out = []
    r = 1
    while len(out) < count:
        if r % p:
            out.append(r)
        r += 1
    return out


def congruence_scan(n: int, p: int, a_max: int, b_max: int, r_set=None, s_set=None,
                    n_cap: int = 400, cache: BasisCache | None = None
                    ) -> tuple[list[ValuationRow], CheckReport]:
    cache = cache or default_cache()
    congruence_bound(n, p, 1, 0, 1)     # refuses a pair with no congruence data before any row
    r_set = _residues(p, admissible_residues(p) if r_set is None else r_set)
    s_set = _residues(p, admissible_residues(p) if s_set is None else s_set)
    params = {"level": n, "p": p, "a_max": a_max, "b_max": b_max,
              "r_set": r_set, "s_set": s_set, "n_cap": n_cap}
    # p >= 2, so an exponent from n_cap's bit length on puts every index past the cap
    a_range = range(min(a_max + 1, n_cap.bit_length()))
    b_range = range(min(b_max + 1, n_cap.bit_length()))
    m_values = sorted({p ** a * r for a in a_range for r in r_set if p ** a * r <= n_cap})
    n_values = [(b, s, p ** b * s) for b in b_range for s in s_set if p ** b * s <= n_cap]
    if not m_values or not n_values:
        return [], CheckReport.vacuous("congruence-scan", params)
    # a(m, n) for n > m, n a pole order the scan builds anyway, is read from row n at
    # q^m as m a(n, m) / n: n a(m, n) = m a(n, m) follows from a(m, n) = -b(n, m) and
    # theta f_n = -n g_n.  So each row is asked for only through its deepest read.
    poles = set(m_values)
    source = {(m, nn): (nn, m) if 0 < m < nn and nn in poles else (m, nn)
              for m in m_values for _, _, nn in n_values}
    depth: dict[int, int] = {}
    for row, t in source.values():
        depth[row] = max(depth.get(row, t), t)
    elements = dict(zip(depth, cache.rows(n, 0, "M", list(depth), [t + 1 for t in depth.values()])))
    rows = []
    failures = 0
    zero_rows = 0
    sharpness: dict[str, int | None] = {}
    for a in a_range:
        for r in r_set:
            m = p ** a * r
            if m > n_cap:
                continue
            for b, s, nn in n_values:
                row, t = source[m, nn]
                coeff = elements[row].coeff(t)
                if row != m:
                    if m * coeff % nn:
                        raise IntegralityViolation(
                            f"{nn} does not divide {m} a({nn},{m}) = {m * coeff} at level {n}, "
                            f"so n a(m, n) = m a(n, m) fails")
                    coeff = m * coeff // nn
                bound, case = congruence_bound(n, p, a, b, r)
                if coeff == 0:
                    val = None
                    zero_rows += 1
                    status = "no claim" if bound is None else "pass"
                else:
                    val = _valuation(coeff, p)
                    if bound is None:
                        status = "no claim"
                    elif val >= bound:
                        status = "pass"
                    else:
                        status = "fail"
                        failures += 1
                    if bound is not None and val is not None:
                        slack = val - bound
                        prev = sharpness.get(case)
                        sharpness[case] = slack if prev is None else min(prev, slack)
                rows.append(ValuationRow(N=n, p=p, a=a, b=b, r=r, s=s, m=m, n=nn,
                                         coeff=coeff, valuation=val, bound=bound,
                                         status=status))
    report = CheckReport(
        name="congruence-scan",
        params=params,
        passed=failures == 0,
        window=f"{len(rows)} rows, indices capped at {n_cap}",
        counterexamples=[r.csv_row() for r in rows if r.status == "fail"],
        precision=n_cap + 1,
        details={
            "rows": len(rows),
            "failures": failures,
            "zero_coefficient_rows": zero_rows,
            "min_slack_by_case": sharpness,
        },
    )
    return rows, report
