"""Shared helpers for the test suite: deterministic random polynomials,
node arithmetic on distributed monomials, reference division,
substitution and interval evaluation on MultiPoly and Fractions, the
division-based Yun loop, the determinant route to resultants and psc
chains, the primitive PRS gcd and the PRS route for every gcd, the
gcd-first and the sequential-substitution sign routes, the exact route
over algebraic fibers, the symbolic Descartes transform on MultiPoly,
the isolated fiber basis by per-pair certificates and Descartes on point
enclosures, the sorted route for stack roots at query fibers, a base
stack isolated afresh on every descent, sample points with private
copies of their roots, the flat-scan reading of a CAD's stacks, a
builder of CADs from hand-made cells, the fiber squarefree part,
bisection, split points, root comparison and gap samples on Fraction
boxes, a root placed against a rational by bisection and by a Fraction
sign, the oracle's probes drawn and signed on Fractions, and the Collins
operator over one pool of all reducta."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

from projcad import algnum, cadcore, polyring
from projcad.lifting import CAD, Cell, Stack
from projcad.polyring import (
    InexactDivisionError,
    MultiPoly,
    VarOrder,
    _imul,
    _nint_div,
    exact_div,
)
from projcad.projection import _prep, reducta_chain, truncated_coefficients
from projcad.subresultants import _check_pair, psc_chain, psd_chain


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


def distributed_node(terms: dict):
    """The canonical node of {exponent vector: int}, the vectors of one
    length with the smallest variable first, built from the definition
    of the canonical form alone: the terms are grouped by their exponent
    of the highest variable they involve, and no polyring kernel runs."""
    terms = {v: c for v, c in terms.items() if c}
    top = max((i + 1 for v in terms for i, e in enumerate(v) if e),
              default=0)
    if not top:
        return sum(terms.values())
    groups: dict = {}
    for v, c in terms.items():
        groups.setdefault(v[top - 1], {})[v[:top - 1] + (0,) + v[top:]] = c
    return (top, tuple((e, distributed_node(groups[e]))
                       for e in sorted(groups, reverse=True)))


def distributed_sum(polys) -> dict:
    """The sum of distributed polynomials {exponent vector: int}."""
    out: dict = {}
    for p in polys:
        for v, c in p.items():
            out[v] = out.get(v, 0) + c
    return out


def distributed_mul(a: dict, b: dict) -> dict:
    """The product of two distributed polynomials, monomial by monomial."""
    out: dict = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            v = tuple(x + y for x, y in zip(va, vb))
            out[v] = out.get(v, 0) + ca * cb
    return out


def is_canonical(node) -> bool:
    """Whether a node is canonical: an int, or (level, terms) with terms a
    nonempty tuple of (exponent, node) pairs, exponents strictly
    descending and the top one >= 1 (so no lone term of exponent 0), no
    zero coefficient, and every coefficient canonical and of strictly
    lower level."""
    if isinstance(node, int):
        return True
    lvl, terms = node
    if not (isinstance(terms, tuple) and terms and terms[0][0] >= 1):
        return False
    exps = [e for e, _ in terms]
    return (exps == sorted(set(exps), reverse=True) and exps[-1] >= 0
            and all(c != 0 and is_canonical(c)
                    and (isinstance(c, int) or c[0] < lvl)
                    for _, c in terms))


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


def reference_derivative(f: MultiPoly, var: str) -> MultiPoly:
    """Derivative of f in var as a sum of MultiPoly products and powers
    over f's coefficients in var (the route the node recursion replaced
    for variables other than the main one)."""
    xv = MultiPoly.var(f.order, var)
    acc = MultiPoly.zero(f.order)
    for e, c in f.coeff_terms(var):
        if e >= 1:
            acc = acc + c * e * xv ** (e - 1)
    return acc


def reference_squarefree_decomposition(f: MultiPoly) -> list:
    """Yun decomposition of f's primitive part by poly_gcd and exact
    division (the loop the gcd-with-cofactors route replaced)."""
    p = polyring.primitive_part(f).sign_normalized()
    var = p.mvar()
    dp = p.derivative(var)
    if dp.level() < p.level() or polyring._nodes_coprime(p.node, dp.node):
        return [(p, 1)]
    g = polyring.poly_gcd(p, dp)
    if g.is_constant():
        return [(p, 1)]
    out = []
    c = exact_div(p, g)
    d = exact_div(dp, g) - c.derivative(var)
    i = 1
    while c.degree(var) > 0:
        s = polyring.poly_gcd(c, d)
        if not s.is_constant():
            out.append((s.sign_normalized(), i))
        c = exact_div(c, s)
        d = exact_div(d, s) - c.derivative(var)
        i += 1
    return out


def _reference_content(f: MultiPoly) -> MultiPoly:
    """Content of a nonzero f in its main variable, by reference_poly_gcd
    of its coefficients."""
    if f.is_constant():
        return MultiPoly.const(f.order, abs(f.const_value()))
    cont = MultiPoly.zero(f.order)
    for _, c in f.coeff_terms():
        cont = reference_poly_gcd(cont, c)
    return cont


def reference_poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Sign-normalized gcd by the primitive PRS, the reference for
    poly_gcd's subresultant route: split off the contents, then divide
    primitive parts until a remainder is 0 or free of the main variable,
    taking the primitive part of every remainder.  No certificate."""
    if f.is_zero():
        return g.sign_normalized()
    if g.is_zero():
        return f.sign_normalized()
    if f.level() < g.level():
        f, g = g, f
    if f.level() == 0:
        return MultiPoly.const(f.order, math.gcd(f.const_value(),
                                                 g.const_value()))
    if f.level() > g.level():
        return reference_poly_gcd(_reference_content(f), g)
    var = f.mvar()
    cf, cg = _reference_content(f), _reference_content(g)
    c = reference_poly_gcd(cf, cg)
    pf, pg = exact_div(f, cf), exact_div(g, cg)
    if pf.degree(var) < pg.degree(var):
        pf, pg = pg, pf
    while True:
        r = polyring.prem(pf, pg, var)
        if r.is_zero():
            break
        if r.level() < f.level():
            return c
        pf, pg = pg, exact_div(r, _reference_content(r))
    return (c * pg.sign_normalized()).sign_normalized()


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


def pooled_proj_collins(basis) -> set:
    """The Collins operator over one pool of all reducta of a basis: every
    two distinct reducta are paired, also two of the same element, so the
    set holds PROJ1 and PROJ2 and psc chains no theorem asks for."""
    B, var = _prep(basis)
    out = set()
    red = set()
    for f in B:
        out.update(truncated_coefficients(f, var))
        red.update(reducta_chain(f, var))
    reds = sorted(red)
    for g in reds:
        out.update(psd_chain(g, var))
    for i, g in enumerate(reds):
        for h in reds[i + 1:]:
            out.update(psc_chain(g, h, var))
    return {p for p in out if not p.is_constant()}


def sylvester_matrix(f: MultiPoly, g: MultiPoly, var: str) -> list[list[MultiPoly]]:
    """The (n+m) x (n+m) Sylvester matrix of f and g in `var`."""
    _check_pair(f, g, var)
    return _psc_matrix(f, g, var, 0)


def _psc_matrix(f, g, var, j) -> list[list[MultiPoly]]:
    n, m = f.degree(var), g.degree(var)
    fc = {e: c for e, c in f.coeff_terms(var)}
    gc = {e: c for e, c in g.coeff_terms(var)}
    zero = MultiPoly.zero(f.order)
    cols = list(range(n + m - j - 1, j - 1, -1))
    rows: list[list[MultiPoly]] = []
    for k in range(m - j - 1, -1, -1):  # v^k * f
        rows.append([fc.get(c - k, zero) for c in cols])
    for k in range(n - j - 1, -1, -1):  # v^k * g
        rows.append([gc.get(c - k, zero) for c in cols])
    return rows


def _det_bareiss(mat: list[list[MultiPoly]], order: VarOrder) -> MultiPoly:
    """Fraction-free determinant; entries are polynomials, divisions exact."""
    n = len(mat)
    if n == 0:
        return MultiPoly.one(order)
    m = [row[:] for row in mat]
    sign = 1
    prev = MultiPoly.one(order)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next(
                (r for r in range(k + 1, n) if not m[r][k].is_zero()), None
            )
            if pivot is None:
                return MultiPoly.zero(order)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for jj in range(k + 1, n):
                m[i][jj] = exact_div(
                    m[i][jj] * m[k][k] - m[i][k] * m[k][jj], prev
                )
            m[i][k] = MultiPoly.zero(order)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def sylvester_resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Resultant as the Sylvester determinant (the reference for the
    subresultant PRS)."""
    n, m = _check_pair(f, g, var)
    if m == 0:
        return g**n
    if n == 0:
        return f**m
    return _det_bareiss(_psc_matrix(f, g, var, 0), f.order)


def psc_chain_minors(f: MultiPoly, g: MultiPoly, var: str) -> list[MultiPoly]:
    """psc_0..psc_min(n,m) via determinant minors (the reference for the
    subresultant PRS)."""
    n, m = _check_pair(f, g, var)
    return [_det_bareiss(_psc_matrix(f, g, var, j), f.order)
            for j in range(min(n, m) + 1)]


def force_prs_gcds(monkeypatch):
    """Switch off the coprimality certificate and the heuristic gcd.

    The heuristic gcd accepts a result only through the certificate's
    coprimality test, so it never accepts one.  poly_gcd then reads its
    gcd off the subresultant PRS for every pair that shares its main
    variable, finest_squarefree_basis and squarefree_decomposition send
    each pair the certificate would have settled to the PRS and divide
    by the gcd exactly, and algnum sends each pair of dense fiber images
    to the fiber gcd, unless one image is linear: that pair is decided
    by one exact Horner sign, not by the certificate.  So is a
    squarefree test on a linear or quadratic image, whose derivative's
    image is constant or linear: a quadratic is signed at its
    derivative's root.
    """
    monkeypatch.setattr(polyring, "_coprime_at", lambda vf, vg, xi, r: False)


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
    That holds for the dense images over rational fibers too, which
    otherwise decide everything on integers: _isolate is handed no
    image for a non-linear one, so its roots take the interval route,
    over the rational boxes, whose decisions are forced like every
    other enclosure's.  A linear image still gives its exact root.  The
    enclosures and images are still taken, because the root bound is
    read from them.
    """
    monkeypatch.setattr(algnum, "_enclosure_variations",
                        lambda enc, a, b, q: None)
    monkeypatch.setattr(algnum, "_enclosure_sign", lambda enc, u, v: None)
    isolate = algnum._isolate

    def without_image(f, var, img, s):
        return isolate(f, var, img if img and len(img) == 2 else None, s)

    monkeypatch.setattr(algnum, "_isolate", without_image)


def reference_isolated_basis(polys, var: str, s) -> dict:
    """_isolated_basis at a fiber where every polynomial has a dense
    image, by the route the integer Descartes loop replaced: the
    separable basis with each pair tested by the certificate on its own
    images (_images_coprime), and sent to the exact fiber gcd when that
    proves nothing; each element isolated by _descartes deciding on the
    point enclosure of its image, from the bound _root_bound_of takes
    there, a linear image giving its exact root.  Maps each element,
    sorted, to (roots in increasing order, root bound)."""
    work = []
    for p in polys:
        img = algnum._fiber_image(p, var, s)
        r = algnum._truncated(p, len(img) - 1)
        if r.degree(var) < 1:
            continue
        if not polyring._images_coprime(
                img, [i * c for i, c in enumerate(img)][1:]):
            h = algnum._reduced_gcd(r, r.derivative(var), var, s)
            if h.degree(var) > 0:
                r = algnum._fiber_quo(r, h, var)
                img = algnum._fiber_image(r, var, s)
        work.append((r, img))
    basis: dict = {}
    for f, img_f in work:
        merged: dict = {}
        for g, img_g in basis.items():
            if f.degree(var) < 1 or polyring._images_coprime(img_f, img_g):
                merged[g] = img_g
                continue
            h = algnum._reduced_gcd(f, g, var, s)
            if h.degree(var) < 1:
                merged[g] = img_g
                continue
            for piece in (h, algnum._fiber_quo(g, h, var)):
                if piece.degree(var) >= 1:
                    merged[piece] = algnum._fiber_image(piece, var, s)
            f = algnum._fiber_quo(f, h, var)
            img_f = algnum._fiber_image(f, var, s)
        if f.degree(var) >= 1:
            merged[f] = img_f
        basis = merged
    out = {}
    for f in sorted(basis):
        img = basis[f]
        enc = algnum._point_enclosure(
            img if f.lead_base_coeff() > 0 else [-c for c in img])
        bound = algnum._root_bound_of(f, var, s, enc)
        if len(img) == 2:
            out[f] = [algnum.RationalCoordinate(Fraction(-img[0], img[1]))], \
                bound
            continue
        g = algnum._strip(f)
        boxes: list = []
        algnum._descartes(
            lambda a, b, q: algnum._enclosure_variations(enc, a, b, q),
            lambda u, v: algnum._enclosure_sign(enc, u, v) != 0,
            g.degree(var), -bound, bound, 1, boxes)
        out[f] = [algnum.RootOfCoordinate(g, (Fraction(a, q), Fraction(b, q)),
                                          s.coords, enc)
                  for a, b, q in boxes], bound
    return out


def shifted_to_unit(f: MultiPoly, var: str, a: Fraction, b: Fraction):
    """Integer polynomial equal to f(a + (b-a)v) up to a positive factor:
    roots of f in (a,b) become roots in (0,1)."""
    # a = pa/q and b - a = pw/q, q the least common denominator
    a, w = Fraction(a), Fraction(b) - Fraction(a)
    q = math.lcm(a.denominator, w.denominator)
    pa = a.numerator * (q // a.denominator)
    pw = w.numerator * (q // w.denominator)
    xv = MultiPoly.var(f.order, var)
    d = f.degree(var)
    acc = MultiPoly.zero(f.order)
    for e, c in f.coeff_terms(var):
        acc = acc + c * (pa + pw * xv) ** e * q ** (d - e)
    return acc


def variations_poly(h: MultiPoly, var: str):
    """g(v) = (v+1)^d h(1/(v+1)): sign variations of g's coefficients
    bound the number of roots of h in (0,1), exactly when 0 or 1."""
    xv = MultiPoly.var(h.order, var)
    d = h.degree(var)
    acc = MultiPoly.zero(h.order)
    for e, c in h.coeff_terms(var):
        acc = acc + c * (xv + 1) ** (d - e)
    return acc


def reference_variations(f: MultiPoly, var: str, s, a, b) -> int:
    """Descartes sign variations of f on (a, b) at the fiber s, with the
    transform built on MultiPoly arithmetic and each coefficient signed
    by sign_at (the route the coefficient-list transform replaced)."""
    signs = []
    for _, c in variations_poly(shifted_to_unit(f, var, a, b),
                                var).coeff_terms(var):
        sc = algnum.sign_at(c, s)
        if sc:
            signs.append(sc)
    return algnum._changes(signs)


def force_sorted_stack_roots(monkeypatch):
    """Make the section-order reading of a stack's roots at a query
    fiber answer "no" everywhere.

    Every stack that locate_point and the sign-invariance oracle descend
    through then sorts the roots of its separable basis at the fiber,
    with no reading of the CAD's section order.
    """
    monkeypatch.setattr(cadcore, "_section_order",
                        lambda refs, isolated: None)


def uncached_base_stack(monkeypatch):
    """Make every descent isolate the base stack again.

    locate_point and the sign-invariance oracle then take the stack over
    prefix () from a fresh isolation at each call instead of from the
    roots lifting isolated, read off the CAD's stack tree.
    """
    monkeypatch.setattr(cadcore, "_stack_roots",
                        cadcore._isolated_stack_roots)


def _copy_coord(coord, prefix):
    if isinstance(coord, algnum.RationalCoordinate):
        return coord
    twin = algnum.RootOfCoordinate(coord.defining, coord.box(), prefix,
                                   coord.enclosure)
    twin._iso = coord._iso
    return twin


def copying_extend(s, coord):
    """s extended by coord, with a fresh copy of every root all the way
    down, each over the copies below it: no working box is shared
    between sample points.  The reference for SamplePoint.extend, which
    shares the roots."""
    out: list = []
    for c in s.coords + (coord,):
        out.append(_copy_coord(c, tuple(out)))
    return algnum.SamplePoint(out)


def private_copies(monkeypatch):
    """Make SamplePoint.extend copy every coordinate (copying_extend), so
    that one sample point's bisections leave every other's boxes as they
    were."""
    monkeypatch.setattr(algnum.SamplePoint, "extend", copying_extend)


def flat_stack_maps(cells) -> tuple:
    """(sections, by_index) read off a flat cell list by scanning it:
    index prefix -> number of sections of the stack over it, and
    index -> cell (the first cell carrying it).  The reference for
    the lengths of CAD.section_polys and for CAD.cell_at, which read
    the stack tree."""
    by_index: dict = {}
    for c in cells:
        by_index.setdefault(c.index, c)
    sections: dict = {}
    for c in cells:
        for j, entry in enumerate(c.index):
            prefix = c.index[:j]
            sections[prefix] = max(sections.get(prefix, 0), entry // 2)
    return sections, by_index


def check_stack_refs(cad) -> int:
    """Assert what the RootRefs of every stack of a CAD claim, and
    return the number of refs checked: one ref per section; each
    polynomial's ordinals run 1..m bottom to top; a ref's polynomial
    vanishes at its section's sample and at neither neighbouring
    sector's sample; section_polys reads the refs' polynomials."""
    checked = 0
    for prefix, stack in cad.stacks.items():
        cells, roots = stack.cells, stack.roots
        assert [c.index for c in cells] == [
            prefix + (k,) for k in range(1, 2 * len(roots) + 2)], prefix
        seen: dict = {}
        for j, ref in enumerate(roots):
            seen[ref.poly] = seen.get(ref.poly, 0) + 1
            assert ref.ordinal == seen[ref.poly], (prefix, j)
            below, section, above = cells[2 * j:2 * j + 3]
            assert algnum.sign_at(ref.poly, section.sample) == 0
            assert algnum.sign_at(ref.poly, below.sample) != 0
            assert algnum.sign_at(ref.poly, above.sample) != 0
            checked += 1
        assert cad.section_polys(prefix) == tuple(r.poly for r in roots)
    return checked


def cad_from_cells(order: VarOrder, cells, roots: dict,
                   method: str = "mccallum", final_oi: bool = False):
    """A CAD over hand-made top-level cells, with the stack tree they
    imply: the cell over each index prefix is cut from the first
    top-level cell under it (its index and sample point truncated),
    each stack lists the cells over its prefix in index order, and
    roots maps every prefix to its stack's RootRefs."""
    members: dict = {}
    for c in cells:
        for k in range(1, len(c.index) + 1):
            sub = c.index[:k]
            cell = c if k == len(c.index) else Cell(sub, c.sample.prefix(k))
            members.setdefault(sub[:-1], {}).setdefault(sub[-1], cell)
    stacks = {}
    for prefix, over in members.items():
        base = (members[prefix[:-1]][prefix[-1]] if prefix
                else Cell((), algnum.SamplePoint(())))
        stacks[prefix] = Stack(base, tuple(over[k] for k in sorted(over)),
                               roots[prefix])
    return CAD(order, method, final_oi, tuple(cells), stacks=stacks)


def reference_subs_rational_cleared(f: MultiPoly, var: str, value) -> MultiPoly:
    """den(value)^deg * f(var=value) on MultiPoly arithmetic, in any
    variable (the route the node substitution replaced)."""
    value = Fraction(value)
    u, v = value.numerator, value.denominator
    terms = f.coeff_terms(var)
    d = terms[0][0] if terms else 0
    acc = MultiPoly.zero(f.order)
    for e, c in terms:
        acc = acc + c * (u**e) * (v ** (d - e))
    return acc


def _iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _ipow(x, k: int):
    # k >= 1
    acc = x
    for _ in range(k - 1):
        acc = _imul(acc, x)
    return acc


def reference_box_eval(f: MultiPoly, boxes):
    """Interval evaluation of f over rational boxes keyed by level, on
    Fractions (the evaluator the integer kernel replaced)."""
    if f.is_constant():
        v = Fraction(f.const_value())
        return (v, v)
    x = boxes[f.level()]
    var = f.mvar()
    acc = None
    prev_e = None
    for e, c in f.coeff_terms(var):
        cv = reference_box_eval(c, boxes)
        if acc is None:
            acc = cv
        else:
            acc = _iadd(_imul(acc, _ipow(x, prev_e - e)), cv)
        prev_e = e
    if prev_e:
        acc = _imul(acc, _ipow(x, prev_e))
    return acc


def reference_coeff_enclosure(terms, boxes) -> tuple:
    """Enclosure of the coefficients (e, c) in `terms` over rational
    boxes keyed by level, scaled to integers by the lcm of the
    denominators (the route the integer kernel replaced)."""
    d = terms[0][0]
    lo = [Fraction(0)] * (d + 1)
    hi = [Fraction(0)] * (d + 1)
    for e, c in terms:
        lo[e], hi[e] = reference_box_eval(c, boxes)
    den = math.lcm(*(v.denominator for v in lo + hi))
    lo = [v.numerator * (den // v.denominator) for v in lo]
    hi = [v.numerator * (den // v.denominator) for v in hi]
    mid = [l + h for l, h in zip(lo, hi)]
    rad = [h - l for l, h in zip(lo, hi)]
    g = math.gcd(*mid, *rad) or 1
    return tuple(v // g for v in mid), tuple(v // g for v in rad)


def _reference_box_sign(r: MultiPoly, s) -> int | None:
    boxes = {}
    for v in r.variables():
        lvl = r.order.level(v)
        boxes[lvl] = s.coords[lvl - 1].box()
    lo, hi = reference_box_eval(r, boxes)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return None


def _reference_sign_at(q: MultiPoly, s) -> int:
    # one variable at a time on MultiPoly arithmetic, boxes on
    # Fractions; every call below goes through the patched module names
    if q.is_constant():
        return algnum._sgn(q.const_value())
    k = len(s)
    order = q.order
    for name in q.variables():
        if order.level(name) > k:
            raise ValueError("variable %r is not fixed by the sample point"
                             % (name,))
    r = q
    for name in sorted(r.variables(), key=order.level):
        v = s.coords[order.level(name) - 1].point_value()
        if v is not None:
            r = reference_subs_rational_cleared(r, name, v)
            if r.is_constant():
                return algnum._sgn(r.const_value())
    sg = algnum._box_sign(r, s)
    if sg is not None:
        return sg
    j = r.level()
    coord = s.coords[j - 1]
    if coord.prefix != s.coords[:j - 1]:
        raise ValueError("the root %r lies over a fiber other than the "
                         "point's lower coordinates" % (coord,))
    if j == q.level() and algnum._strip(q) == coord.defining:
        # sign_at's zero rule: q is an integer times its top root's
        # defining polynomial
        return 0
    var = r.mvar()
    pref = s.prefix(j - 1)
    g = algnum.fiber_gcd(r, coord.defining, var, pref)
    if g.degree(var) >= 1:
        lo, hi = coord.box()
        slo = algnum.sign_at(reference_subs_rational_cleared(g, var, lo),
                             pref)
        shi = algnum.sign_at(reference_subs_rational_cleared(g, var, hi),
                             pref)
        if slo * shi < 0:
            return 0
    return algnum._interval_sign(r, s)


def fraction_probe_signs(monkeypatch):
    """Make the sign-invariance oracle sign a point whose coordinates are
    all rational by MultiPoly.evaluate on Fractions, as it did before its
    probes went through sign_at.  A point with a root among its
    coordinates still goes to sign_at."""
    sign_at = cadcore.sign_at

    def evaluate_when_rational(p, s):
        if not all(isinstance(c, algnum.RationalCoordinate)
                   for c in s.coords):
            return sign_at(p, s)
        env = {p.order.name(i): c.value for i, c in enumerate(s.coords, 1)}
        return algnum._sgn(p.evaluate(env))

    monkeypatch.setattr(cadcore, "sign_at", evaluate_when_rational)


def reference_random_in_gap(coords, i, rng) -> Fraction:
    """The oracle's random rational in the gap i of the ordered root
    coordinates, on Fractions, as it was drawn before the probes were
    worked out on the integer ends of the gaps."""
    if 0 < i < len(coords):
        b1, q1, a2, q2 = algnum._separated_ends(coords[i - 1], coords[i])
        lo, hi = Fraction(b1, q1), Fraction(a2, q2)
    else:
        lo = coords[i - 1].box()[1] if i > 0 else None
        hi = coords[i].box()[0] if i < len(coords) else None
    if lo is None and hi is None:
        return Fraction(rng.randint(-2048, 2048), 256)
    if lo is None or hi is None:
        t = Fraction(rng.randint(1, 256), 256)
        d = t * Fraction(2) ** rng.randint(-8, 4)
        return hi - d if lo is None else lo + d
    t = Fraction(rng.randint(1, 255), 256)
    return lo + t * (hi - lo)


def sequential_substitution_signs(monkeypatch):
    """Make sign_at substitute point values one variable at a time on
    MultiPoly arithmetic and take box signs on Fractions, as it did
    before the one-pass node substitution and the integer kernel."""
    monkeypatch.setattr(algnum, "sign_at", _reference_sign_at)
    monkeypatch.setattr(algnum, "_box_sign", _reference_box_sign)


def fiber_squarefree_part(f: MultiPoly, var: str, s) -> MultiPoly:
    """Squarefree part of f over the fiber, via the pseudo-quotient by
    gcd(f, f'); exact up to a fiber-nonzero constant factor."""
    f = algnum.fiber_reduce(f, var, s)
    if f.is_zero():
        raise ValueError("polynomial vanishes identically over the fiber")
    if f.degree(var) == 0:
        return algnum._strip(f)
    g = algnum.fiber_gcd(f, f.derivative(var), var, s)
    if g.degree(var) == 0:
        return algnum._strip(f)
    return algnum._fiber_quo(f, g, var)


# ---------------------------------------------------------------------------
# the Fraction box arithmetic that the integer triples (a, b, q) replaced


class FractionBox:
    """A twin of a coordinate whose working box is a pair of Fractions.

    The reference bisection narrows lo and hi on Fractions and signs the
    coordinate's defining polynomial exactly, by sign_at after
    substituting the point; the coordinate itself is never changed.
    """

    def __init__(self, coord):
        self.coord = coord
        self.lo, self.hi = coord.box()
        self.sign_lo = None

    def defining_sign(self, x: Fraction) -> int:
        f = self.coord.defining
        return algnum.sign_at(reference_subs_rational_cleared(f, f.mvar(), x),
                              algnum.SamplePoint(self.coord.prefix))


def reference_bisect_once(r: FractionBox):
    """One bisection step on Fractions; collapses on an exact hit."""
    if r.lo == r.hi:
        return
    mid = (r.lo + r.hi) / 2
    sm = r.defining_sign(mid)
    if sm == 0:
        r.lo = r.hi = mid
        r.sign_lo = 0
        return
    if r.sign_lo is None:
        r.sign_lo = r.defining_sign(r.lo)
    if r.sign_lo * sm < 0:
        r.hi = mid
    else:
        r.lo = mid
        r.sign_lo = sm


def _reference_bisect_all(boxes) -> bool:
    progressed = False
    for r in boxes:
        if r.lo != r.hi:
            reference_bisect_once(r)
            progressed = True
    return progressed


def reference_split_point(nonzero, degree: int, a: Fraction,
                          b: Fraction) -> Fraction:
    """The split-point search on Fractions: the first candidate
    a + (b - a) num/2^t in the middle half of (a, b) where nonzero(m)
    holds."""
    w = b - a
    tried = 0
    t = 1
    while True:
        den = 1 << t
        for num in range(1, den, 2):
            if 4 * num < den or 4 * num > 3 * den:
                continue
            m = a + w * Fraction(num, den)
            if nonzero(m):
                return m
            tried += 1
            if tried > degree:
                raise ArithmeticError(
                    "no split point in (%s, %s): the polynomial vanishes "
                    "on the fiber" % (a, b))
        t += 1


def reference_compare_coords(r1: FractionBox, r2: FractionBox) -> int:
    """Root comparison on Fraction boxes, bisecting both within the
    separation budget of the two coordinates."""
    for _ in algnum._separation_budget(r1.coord, r2.coord):
        points = r1.lo == r1.hi and r2.lo == r2.hi
        if r1.hi <= r2.lo:
            if r1.hi == r2.lo and points:
                raise algnum.SeparabilityError("separability violated")
            return -1
        if r2.hi <= r1.lo:
            if r2.hi == r1.lo and points:
                raise algnum.SeparabilityError("separability violated")
            return 1
        _reference_bisect_all((r1, r2))
    raise algnum.SeparabilityError("separability violated")


def bisecting_cmp_root_to_rational(coord, x: Fraction) -> int:
    """-1/0/+1 for coord < x / coord == x / coord > x, by the route one
    sign replaced: the closed-box tests and a zero test at x, then, for
    an x inside the box that is not the root, the root-against-root
    comparison with x as a rational coordinate, which bisects the root's
    working box in place, within the separation budget, until it leaves
    x."""
    a, b, q = algnum._int_box(coord)
    u, v = x.numerator, x.denominator
    if u * q < a * v:
        return 1
    if u * q > b * v:
        return -1
    if a == b or algnum._defining_sign(coord, u, v) == 0:
        return 0
    return algnum._compare_coords(coord, algnum.RationalCoordinate(x))


def bisecting_point_location(monkeypatch):
    """Make locate_point place each root against the point's coordinate
    by bisection (bisecting_cmp_root_to_rational) instead of by one
    sign."""
    monkeypatch.setattr(cadcore, "_cmp_root_to_rational",
                        bisecting_cmp_root_to_rational)


def fraction_root_side(coord, x: Fraction) -> int:
    """+1/0/-1 as a coordinate lies above, at or below x, a rational in
    its closed box: for a root, from the signs of its defining polynomial
    at x and at the box's low end, evaluated on Fractions; every
    coordinate below the root must be rational."""
    if isinstance(coord, algnum.RationalCoordinate):
        return (coord.value > x) - (coord.value < x)
    f = coord.defining
    env = {f.order.name(i + 1): c.point_value()
           for i, c in enumerate(coord.prefix)}
    sx, slo = (f.evaluate({**env, f.mvar(): t}) for t in (x, coord.box()[0]))
    if sx == 0:
        return 0
    return 1 if (sx > 0) == (slo > 0) else -1


def reference_gap_sample(r1: FractionBox, r2: FractionBox) -> Fraction:
    """The sector sample between two ordered roots on Fraction boxes:
    bisect until the facing ends are apart, then take the simplest
    rational between them."""
    for _ in algnum._separation_budget(r1.coord, r2.coord):
        if r1.hi < r2.lo:
            return reference_simplest_in_open(r1.hi, r2.lo)
        if not _reference_bisect_all((r1, r2)):
            break
    raise algnum.SeparabilityError("separability violated")


def reference_simplest_in_open(a: Fraction, b: Fraction) -> Fraction:
    """Rational with the smallest denominator in (a, b), by the
    continued-fraction descent on Fractions."""
    if a < 0 < b:
        return Fraction(0)
    if a >= 0:
        return _reference_simplest_pos(Fraction(a), Fraction(b))
    return -_reference_simplest_pos(Fraction(-b), Fraction(-a))


def _reference_simplest_pos(a: Fraction, b: Fraction) -> Fraction:
    fa = math.floor(a)
    if a == fa:
        if b > fa + 1:
            return Fraction(fa + 1)
        t = math.floor(1 / (b - fa)) + 1
        return fa + Fraction(1, t)
    if fa + 1 < b:
        return Fraction(fa + 1)
    ya, yb = a - fa, b - fa
    return fa + 1 / _reference_simplest_pos(1 / yb, 1 / ya)
