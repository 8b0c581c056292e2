"""projcad: cylindrical algebraic decomposition over exact integer arithmetic.

Builds sign-invariant (optionally order-invariant) cylindrical algebraic
decompositions of R^n from sets of integer polynomials, using either the
Collins projection operator or the smaller McCallum operator with
nullification handling.  Sample points are exact: rationals or real
algebraic numbers carried as a defining polynomial plus an isolating
interval.

Each library module declares its public names in its own __all__; the
package re-exports exactly those lists.
"""

from . import polyring, subresultants, projection, algnum, lifting, cadcore
from .polyring import *
from .subresultants import *
from .projection import *
from .algnum import *
from .lifting import *
from .cadcore import *

__version__ = "0.1.0"

__all__ = [name for mod in (polyring, subresultants, projection, algnum,
                            lifting, cadcore) for name in mod.__all__]
