"""projcad: cylindrical algebraic decomposition over exact integer arithmetic.

Builds sign-invariant (optionally order-invariant) cylindrical algebraic
decompositions of R^n from sets of integer polynomials, using either the
Collins projection operator or the smaller McCallum operator with
nullification handling.  Sample points are exact: rationals or real
algebraic numbers carried as a defining polynomial plus an isolating
interval.
"""

from .polyring import (
    InexactDivisionError,
    MultiPoly,
    VarOrder,
    content,
    content_primitive_part,
    divides,
    exact_div,
    finest_squarefree_basis,
    poly_gcd,
    prem,
    primitive_part,
    pquo,
    pseudo_division,
    squarefree_decomposition,
    squarefree_part,
)
from .subresultants import (
    discriminant,
    psc_chain,
    psd_chain,
    resultant,
)
from .projection import (
    ProjectionLevels,
    cad_projection,
    proj_collins,
    proj_mccallum,
    reducta_chain,
    truncated_coefficients,
)
from .algnum import (
    IsolatingInterval,
    RationalCoordinate,
    RootOfCoordinate,
    SamplePoint,
    SeparabilityError,
    fiber_gcd,
    fiber_reduce,
    isolate_real_roots,
    refine,
    roots_over_cell,
    sign_at,
)
from .lifting import (
    CAD,
    Bound,
    Cell,
    NotWellOrientedError,
    RootRef,
    Stack,
    cad_lifting,
    generate_stack,
    is_nullified,
    minimal_delineating_polynomial,
)
from .cadcore import (
    CylindricityReport,
    IntegrityError,
    SignInvarianceReport,
    cad_full,
    check_cylindricity,
    locate_point,
    verify_sign_invariance,
)

__version__ = "0.1.0"

__all__ = [
    "Bound",
    "CAD",
    "Cell",
    "CylindricityReport",
    "InexactDivisionError",
    "IntegrityError",
    "IsolatingInterval",
    "MultiPoly",
    "NotWellOrientedError",
    "ProjectionLevels",
    "RationalCoordinate",
    "RootOfCoordinate",
    "RootRef",
    "SamplePoint",
    "SeparabilityError",
    "SignInvarianceReport",
    "Stack",
    "VarOrder",
    "cad_full",
    "cad_lifting",
    "cad_projection",
    "check_cylindricity",
    "content",
    "content_primitive_part",
    "discriminant",
    "divides",
    "exact_div",
    "fiber_gcd",
    "fiber_reduce",
    "finest_squarefree_basis",
    "generate_stack",
    "is_nullified",
    "isolate_real_roots",
    "locate_point",
    "minimal_delineating_polynomial",
    "poly_gcd",
    "prem",
    "primitive_part",
    "proj_collins",
    "proj_mccallum",
    "psc_chain",
    "psd_chain",
    "pseudo_division",
    "pquo",
    "reducta_chain",
    "refine",
    "resultant",
    "roots_over_cell",
    "sign_at",
    "squarefree_decomposition",
    "squarefree_part",
    "truncated_coefficients",
    "verify_sign_invariance",
]
