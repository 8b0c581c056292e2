"""Shared helpers for the test suite: deterministic random polynomials,
reference division on MultiPoly, the PRS route for every gcd, the
gcd-first sign route, the exact route over algebraic fibers, the sorted
route for stack roots at query fibers and a base stack isolated afresh
on every descent."""

from __future__ import annotations

import random
import sys

from projcad import algnum, cadcore, polyring
from projcad.polyring import (
    InexactDivisionError,
    MultiPoly,
    VarOrder,
    _nint_div,
)


def random_poly(
    rng: random.Random,
    order: VarOrder,
    vars_used: tuple[str, ...] | None = None,
    max_deg: int = 3,
    max_coeff: int = 5,
    n_terms: int = 4,
    nonzero: bool = False,
) -> MultiPoly:
    """Random sparse polynomial with small integer coefficients."""
    names = vars_used if vars_used is not None else order.names
    p = MultiPoly.zero(order)
    for _ in range(rng.randint(1, n_terms)):
        c = rng.randint(-max_coeff, max_coeff)
        term = MultiPoly.const(order, c)
        for nm in names:
            term = term * MultiPoly.var(order, nm) ** rng.randint(0, max_deg)
        p = p + term
    if nonzero and p.is_zero():
        p = p + rng.randint(1, max_coeff)
    return p


def random_nonconstant(rng, order, **kw) -> MultiPoly:
    while True:
        p = random_poly(rng, order, **kw)
        if not p.is_constant():
            return p


def reference_exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f/g by long division on MultiPoly arithmetic (the
    route the node-level kernel replaced); raises InexactDivisionError
    if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return f
    if g.is_constant():
        c = g.const_value()
        if c in (1, -1):
            return f if c == 1 else -f
        return MultiPoly(f.order, _nint_div(f.node, c)) if c > 0 else -MultiPoly(
            f.order, _nint_div(f.node, -c)
        )
    lf, lg = f.level(), g.level()
    if lf < lg:
        raise InexactDivisionError(f"{g} does not divide {f}")
    if lf > lg:
        # divide every coefficient of f (in its main variable) by g
        lvl, terms = f.node
        out = {}
        for e, c in terms:
            out[e] = reference_exact_div(MultiPoly(f.order, c), g).node
        return MultiPoly(f.order, polyring._nmake(lvl, out))
    # same level: univariate long division with recursive coefficient division
    var = f.mvar()
    rem = f
    quo = MultiPoly.zero(f.order)
    dg = g.degree()
    lcg = g.lc()
    xv = MultiPoly.var(f.order, var)
    while not rem.is_zero() and rem.level() == lf and rem.degree() >= dg:
        t = reference_exact_div(rem.lc(var), lcg)
        shift = t * xv ** (rem.degree(var) - dg)
        quo = quo + shift
        rem = rem - shift * g
    if not rem.is_zero():
        raise InexactDivisionError(f"{g} does not divide {f}")
    return quo


def reference_pseudo_division(
    f: MultiPoly, g: MultiPoly, var: str
) -> tuple[MultiPoly, MultiPoly]:
    """Pseudo quotient and remainder of f by g in var on MultiPoly
    arithmetic (the route the node-level kernel replaced), in any
    variable: lc(g)^(deg f - deg g + 1) * f == quo*g + rem."""
    if g.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    df, dg = f.degree(var), g.degree(var)
    if f.is_zero() or df < dg:
        return MultiPoly.zero(f.order), f
    lcg = g.lc(var)
    xv = MultiPoly.var(f.order, var)
    quo = MultiPoly.zero(f.order)
    rem = f
    steps = df - dg + 1
    while not rem.is_zero() and (dr := rem.degree(var)) >= dg:
        t = rem.lc(var) * xv ** (dr - dg)
        quo = quo * lcg + t
        rem = rem * lcg - t * g
        steps -= 1
    if steps > 0:
        m = lcg**steps
        quo = quo * m
        rem = rem * m
    return quo, rem


def force_prs_gcds(monkeypatch):
    """Switch off every modular shortcut in polyring.

    poly_gcd then runs the primitive PRS on every pair that shares its
    main variable, and finest_squarefree_basis and
    squarefree_decomposition no longer prove coprimality from images:
    each pair their shortcut would have settled goes to poly_gcd.
    """
    monkeypatch.setattr(polyring, "_fp_coprime", lambda a, b: False)


def force_gcd_first_signs(monkeypatch):
    """Make sign_at run its fiber-gcd zero test before any box evaluation.

    sign_at's box filter is answered "undecided", so every value at an
    algebraic coordinate goes through the gcd test and then the
    refinement loop.  The loop asks the same helper, and keeps its
    answers: only the filter's own call is overridden.
    """
    box_sign = algnum._box_sign

    def undecided_in_sign_at(r, s):
        if sys._getframe(1).f_code is algnum.sign_at.__code__:
            return None
        return box_sign(r, s)

    monkeypatch.setattr(algnum, "_box_sign", undecided_in_sign_at)


def force_exact_fiber_decisions(monkeypatch):
    """Make every decision on an interval image answer "undecided".

    Descartes nodes, split points and bisection signs then all take the
    exact symbolic step, as they did before interval images existed.
    That holds for the point enclosures of dense images over point-valued
    fibers too, which otherwise decide everything.  The enclosures are
    still taken, because the root bound is read from them.
    """
    monkeypatch.setattr(algnum, "_enclosure_variations",
                        lambda enc, a, b: None)
    monkeypatch.setattr(algnum, "_enclosure_sign", lambda enc, x: None)


def force_sorted_stack_roots(monkeypatch):
    """Make the certified route for a stack's roots at a query fiber
    answer "undecided" everywhere.

    Every stack that locate_point and the sign-invariance oracle descend
    through then takes roots_over_cell, which builds the separable basis
    at the fiber and sorts its roots, with no resultant certificate and
    no reading of the CAD's section order.
    """
    monkeypatch.setattr(cadcore, "_certified_roots",
                        lambda cad, refs, fiber: None)


def uncached_base_stack(monkeypatch):
    """Make every descent isolate the base stack again.

    locate_point and the sign-invariance oracle then take the stack over
    prefix () from a fresh isolation at each call, as they did before
    the CAD kept it, instead of from copies of the kept roots.
    """
    monkeypatch.setattr(cadcore, "_stack_roots",
                        cadcore._isolated_stack_roots)
