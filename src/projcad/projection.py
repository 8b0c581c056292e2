"""Projection phase of CAD construction.

Two projection operators over a squarefree basis at one level, plus the
top-down sweep that turns an input set into per-level bases.  Collins's
operator is PROJ1 ∪ PROJ2: per element, coefficients and psc chains of
each reductum against its derivative; per pair of distinct elements, psc
chains of each reductum of one against each reductum of the other.
McCallum's collects coefficients, discriminants and pairwise resultants;
it is smaller but needs the nullification handling done at lifting time.

Coefficient scans are truncated: walking from the leading coefficient
down, the first nonzero constant coefficient ends the scan, because
nothing below it can ever become the leading coefficient on any region.
The reducta chains are cut by the same rule (a reductum with constant
leading coefficient never drops degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable

from .polyring import (
    MultiPoly,
    VarOrder,
    content_primitive_part,
    finest_squarefree_basis,
)
from .subresultants import discriminant, psc_chain, psd_chain, resultant

__all__ = [
    "ProjectionLevels",
    "cad_projection",
    "proj_collins",
    "proj_mccallum",
    "reducta_chain",
    "truncated_coefficients",
]


def truncated_coefficients(f: MultiPoly, var: str) -> list:
    """Nonzero coefficients of f in var, leading first, cut at the first
    constant one (which is itself dropped: constants never vanish)."""
    out = []
    for _, c in f.coeff_terms(var):
        if c.is_constant():
            break
        out.append(c)
    return out


def reducta_chain(f: MultiPoly, var: str) -> list:
    """f, red(f), red^2(f), ... while of positive degree in var.

    Stops after the first element whose leading coefficient is constant:
    its degree cannot drop, so deeper reducta are never the effective
    polynomial on any region.  f must not involve variables above var.
    """
    if f.level() > f.order.level(var):
        raise ValueError("polynomial involves variables above %r" % var)
    out = []
    g = f
    while not g.is_zero() and g.degree(var) > 0:
        out.append(g)
        if g.lc(var).is_constant():
            break
        g = g.reductum()
    return out


def _prep(basis):
    # the sorted basis and its common main variable (None when empty)
    B = sorted(set(basis))
    if not B:
        return B, None
    order = B[0].order
    for f in B:
        if f.order != order:
            raise ValueError("mixed variable orders in basis")
        if f.is_constant():
            raise ValueError("constant polynomial in basis")
    var = order.name(B[0].level())
    for f in B:
        if f.mvar() != var:
            raise ValueError("basis element with main variable %r, expected %r"
                             % (f.mvar(), var))
    if order.level(var) < 2:
        raise ValueError("cannot project below the lowest level")
    return B, var


def proj_mccallum(basis: Iterable[MultiPoly]) -> set:
    """Coefficients, discriminants and pairwise resultants of a level
    basis, nonconstant ones only.  Expects a finest squarefree basis."""
    B, var = _prep(basis)
    out = set()
    for f in B:
        out.update(truncated_coefficients(f, var))
        if f.degree(var) >= 2:
            out.add(discriminant(f, var))
    for i, f in enumerate(B):
        for g in B[i + 1:]:
            out.add(resultant(f, g, var))
    return {p for p in out if not p.is_constant()}


def proj_collins(basis: Iterable[MultiPoly]) -> set:
    """Collins's PROJ1 ∪ PROJ2, nonconstant elements only: per element f,
    its coefficients and the psd chain of each reductum; per pair f < g
    of distinct elements, the psc chains of each reductum of f against
    each reductum of g.  Expects a finest squarefree basis."""
    B, var = _prep(basis)
    reds = [reducta_chain(f, var) for f in B]
    out = set()
    for f, rf in zip(B, reds):
        out.update(truncated_coefficients(f, var))
        for g in rf:
            out.update(psd_chain(g, var))
    for rf, rg in combinations(reds, 2):
        for g, h in product(rf, rg):
            out.update(psc_chain(g, h, var))
    return {p for p in out if not p.is_constant()}


_OPERATORS = {"mccallum": proj_mccallum, "collins": proj_collins}


@dataclass(frozen=True)
class ProjectionLevels:
    """Per-level squarefree bases produced by the projection sweep.

    by_level[k] holds the level-(k+1) basis: primitive, squarefree,
    pairwise coprime polynomials whose main variable is variable k+1.
    """

    order: VarOrder
    method: str
    by_level: tuple

    @property
    def n(self) -> int:
        return self.order.n

    def level(self, ell: int) -> tuple:
        if not 1 <= ell <= self.n:
            raise IndexError("level out of range")
        return self.by_level[ell - 1]


def cad_projection(F: Iterable[MultiPoly], order: VarOrder,
                   method: str = "mccallum") -> ProjectionLevels:
    """Run the full projection sweep on input set F.

    Each input is split into integer-content-free primitive parts filed
    under the level of their true main variable; each level is reduced
    to a finest squarefree basis just before it is projected, and the
    operator's output is split and filed the same way.  Levels are
    processed top down, so every contribution to a level arrives before
    that level's basis is formed.
    """
    op = _OPERATORS.get(method)
    if op is None:
        raise ValueError("unknown projection method %r" % (method,))
    polys = list(F)
    if not polys:
        raise ValueError("empty input set")
    n = order.n
    buckets = [set() for _ in range(n + 1)]

    def file_poly(p):
        # split off content recursively; constants vanish here
        while not p.is_constant():
            cont, prim = content_primitive_part(p)
            buckets[prim.level()].add(prim.sign_normalized())
            p = cont

    for f in polys:
        if f.order != order:
            raise ValueError("input polynomial over a different variable order")
        if f.is_constant():
            raise ValueError("constant (or zero) input polynomial")
        file_poly(f)

    by_level = [()] * n
    for ell in range(n, 1, -1):
        if not buckets[ell]:
            continue
        basis = finest_squarefree_basis(sorted(buckets[ell]))
        by_level[ell - 1] = tuple(basis)
        for p in sorted(op(basis)):
            file_poly(p)
    if buckets[1]:
        by_level[0] = tuple(finest_squarefree_basis(sorted(buckets[1])))
    return ProjectionLevels(order=order, method=method, by_level=tuple(by_level))
