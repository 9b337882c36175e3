"""Exact q-series toolkit for canonical bases of weakly holomorphic modular
forms of levels 6, 10, 12 and 18, with verification of their coefficient
duality, operator identities and p-adic congruences."""

__version__ = "0.1.0"

from .basis import (                                    # noqa: F401
    BasisCache,
    BasisElement,
    a_coeff,
    b_coeff,
    f_basis,
    first_element,
    g_basis,
)
from .eta import (                                      # noqa: F401
    EtaCombination,
    EtaQuotient,
    euler_product,
    ligozat_order,
    parse_eta_quotient,
)
from .leveldata import get_level, validate_level        # noqa: F401
from .operators import theta, u_p                        # noqa: F401
from .series import QSeries                             # noqa: F401
