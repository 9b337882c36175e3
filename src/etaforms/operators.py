"""Coefficient operators on q-expansions.

theta multiplies the n-th coefficient by n.  The index operator u_p acts by
sum a(n) q^n -> sum a(pn) q^n and keeps only floor(prec/p) known terms, the
sound bound; verifiers size their windows accordingly.  Its companion
q -> q^p is ``QSeries.dilated``.
"""

from __future__ import annotations

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
