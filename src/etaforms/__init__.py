"""Exact q-series toolkit for canonical bases of weakly holomorphic modular
forms of levels 6, 10, 12 and 18, with verification of their coefficient
duality, operator identities and p-adic congruences.

The public names load their submodule on first access (PEP 562), so
``import etaforms`` compiles none of them and a caller pays only for the
submodules it uses.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "BasisCache": "basis",
    "BasisElement": "basis",
    "a_coeff": "basis",
    "b_coeff": "basis",
    "f_basis": "basis",
    "first_element": "basis",
    "g_basis": "basis",
    "EtaCombination": "eta",
    "EtaQuotient": "eta",
    "euler_product": "eta",
    "ligozat_order": "eta",
    "parse_eta_quotient": "eta",
    "get_level": "leveldata",
    "theta": "operators",
    "u_p": "operators",
    "QSeries": "series",
    "validate_level": "validate",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # any other name raises, so ``from etaforms import verify`` imports the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
