"""Shared helpers for the test suite: deterministic random polynomials,
the gcd-first sign route, the exact route over algebraic fibers, the
sorted route for stack roots at query fibers and a base stack isolated
afresh on every descent."""

from __future__ import annotations

import random
import sys

from projcad import algnum, cadcore
from projcad.polyring import MultiPoly, VarOrder


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
