"""Coefficient operators on q-expansions and the involution sum.

theta multiplies the n-th coefficient by n.  The index operators act by
u_p: sum a(n) q^n -> sum a(pn) q^n and v_p: q -> q^p.  u_p keeps only
floor(prec/p) known terms, the sound bound; verifiers size their windows
accordingly.
"""

from __future__ import annotations

from .basis import _extend_powers, _substitute
from .errors import UnsupportedPair
from .leveldata import get_level
from .series import QSeries


def theta(s: QSeries) -> QSeries:
    """q d/dq: multiply the coefficient of q^n by n.  Precision preserved."""
    return s.termwise(lambda n, c: n * c)


def u_p(s: QSeries, p: int) -> QSeries:
    """Keep exponents divisible by p and divide them by p."""
    if p < 2:
        raise ValueError("index operator needs p >= 2")
    new_prec = s.prec // p
    terms = {}
    for e, c in s.terms():
        if e % p == 0 and e // p < new_prec:
            terms[e // p] = c
    return QSeries.from_terms(terms, new_prec) if terms else QSeries.zero(new_prec)


def v_p(s: QSeries, p: int) -> QSeries:
    """Substitute q -> q^p; precision scales to p*prec."""
    if p < 2:
        raise ValueError("index operator needs p >= 2")
    return s.dilated(p)


def al_sum(n: int, p: int, coeffs, sign: int, prec: int = 64) -> QSeries:
    """Sum of c_i * (sign*scale)^i * (cusp companion)^i for the (n, p) pair.

    ``scale`` is the stored involution rescaling magnitude (8, 3, 4 for the
    pairs (6,2), (6,3), (10,2)); ``sign`` in {+1, -1} is chosen by the
    identity check and recorded in the fixtures.  The companion's powers
    through the top degree form one table, and the rescaled coefficients are
    substituted into it at O(q^prec).
    """
    data = get_level(n)
    if p not in data.aux:
        raise UnsupportedPair(f"no involution data for level {n}, p = {p}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    lam = sign * data.aux[p].scale
    scaled = [c * lam ** i for i, c in enumerate(coeffs)]
    powers = _extend_powers([QSeries.one(prec)], data.aux_cusp_series(p, prec), len(scaled) - 1)
    return _substitute(scaled, powers, prec)
