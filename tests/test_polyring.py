"""Tests for the exact polynomial ring layer."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcad import polyring
from projcad.polyring import (
    InexactDivisionError,
    MultiPoly,
    VarOrder,
    _monomials,
    _nadd,
    _nmul,
    _npoint_subs,
    _npow,
    content,
    content_primitive_part,
    exact_div,
    finest_squarefree_basis,
    poly_gcd,
    pquo,
    prem,
    primitive_part,
    pseudo_division,
    squarefree_decomposition,
)

from helpers import (
    distributed_mul,
    distributed_node,
    distributed_sum,
    force_prs_gcds,
    is_canonical,
    random_nonconstant,
    random_poly,
    reference_derivative,
    reference_exact_div,
    reference_pseudo_division,
    reference_squarefree_decomposition,
    reference_subs_rational_cleared,
)

O1 = VarOrder(["x"])
O2 = VarOrder(["x", "y"])
O3 = VarOrder(["x", "y", "z"])


def xy(order=O2):
    return MultiPoly.var(order, "x"), MultiPoly.var(order, "y")


def test_var_order_validation():
    with pytest.raises(ValueError):
        VarOrder([])
    with pytest.raises(ValueError):
        VarOrder(["x", "x"])
    with pytest.raises(ValueError):
        VarOrder(["x", "2bad"])
    o = VarOrder(["x", "y"])
    assert o.level("x") == 1 and o.level("y") == 2
    assert o.name(2) == "y"
    with pytest.raises(KeyError):
        o.level("w")


def test_canonical_form_and_equality():
    x, y = xy()
    assert x + y - x == y
    assert (x + 1) * (x - 1) == x**2 - 1
    assert (x - x).is_zero()
    assert MultiPoly.const(O2, 0).is_zero()
    # a polynomial that collapses to a lower level keeps canonical shape
    p = y * x - y * x + x
    assert p == x and p.mvar() == "x"
    assert hash(x + y) == hash(y + x)


def test_structural_accessors():
    x, y = xy()
    f = y**2 + x**2 - 1
    assert f.mvar() == "y"
    assert f.degree() == 2
    assert f.degree("x") == 2
    assert f.lc() == MultiPoly.one(O2)
    assert f.coefficient("y", 0) == x**2 - 1
    assert f.lead_base_coeff() == 1
    assert (-f).lead_base_coeff() == -1
    assert f.total_degree() == 2
    assert (y * x**3).total_degree() == 4
    assert f.variables() == ("x", "y")


def test_lc_matches_coeff_terms():
    # in the main variable lc reads the leading term; every other case
    # goes through coeff_terms
    rng = random.Random(3131)
    polys = [MultiPoly.zero(O3), MultiPoly.const(O3, -7)]
    polys += [random_poly(rng, O3, vars_used=names, max_deg=3)
              for names in (("x",), ("x", "y"), ("x", "y", "z"), ("y", "z"))
              for _ in range(40)]
    seen = set()
    for f in polys:
        for var in (None,) + O3.names:
            terms = f.coeff_terms(var)
            want = terms[0][1] if terms else MultiPoly.zero(O3)
            assert f.lc(var) == want
            if f.is_constant():
                seen.add("constant")
            elif var is None or var == f.mvar():
                seen.add("main")
            elif O3.level(var) < f.level():
                seen.add("lower")
    assert seen == {"constant", "main", "lower"}


def test_npow_squares_only_while_bits_remain(monkeypatch):
    # k.bit_length() - 1 squarings and popcount(k) products, counted at
    # recursion depth 0; no square is left unused
    x, y = xy()
    a = (y - x + 2).node
    powers = [1]
    for _ in range(40):
        powers.append(_nmul(powers[-1], a))
    real, depth, calls = polyring._nmul, [0], [0]

    def counting_nmul(u, v):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real(u, v)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(polyring, "_nmul", counting_nmul)
    for k in range(41):
        calls[0] = 0
        assert _npow(a, k) == powers[k]
        want = k.bit_length() - 1 + bin(k).count("1") if k else 0
        assert calls[0] == want, k


def test_reductum():
    x, y = xy()
    f = 3 * x**2 + 2 * x + 1
    assert f.reductum() == 2 * x + 1
    g = y**2 + x**2 - 1
    assert g.reductum() == x**2 - 1
    h = x**3 + 1
    assert h.reductum() == MultiPoly.one(O2)


def test_derivative():
    x, y = xy()
    f = y**2 * x + 3 * y - x
    assert f.derivative("y") == 2 * y * x + 3
    assert f.derivative("x") == y**2 - 1
    assert f.derivative() == f.derivative("y")
    assert MultiPoly.const(O2, 5).derivative("x").is_zero()
    # seeded random polynomials in x, y, z and in subsets of them, against
    # the sum-of-products route: in the main variable, a lower one and one
    # the polynomial does not involve
    rng = random.Random(60606)
    seen = set()
    for vars_used in (("x", "y", "z"), ("x", "y"), ("x", "z"), ("y",)):
        for _ in range(60):
            f = random_poly(rng, O3, vars_used=vars_used, max_deg=3)
            for var in O3.names:
                if var not in f.variables():
                    seen.add("absent")
                else:
                    seen.add("main" if var == f.mvar() else "lower")
                assert f.derivative(var) == reference_derivative(f, var)
    assert seen == {"main", "lower", "absent"}


def test_ring_laws_random():
    rng = random.Random(20240811)
    for _ in range(300):
        a = random_poly(rng, O3, max_deg=2, n_terms=3)
        b = random_poly(rng, O3, max_deg=2, n_terms=3)
        c = random_poly(rng, O3, max_deg=2, n_terms=3)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a - a == MultiPoly.zero(O3)
        assert a * MultiPoly.one(O3) == a


# distributed polynomials in x, y, z involving variables up to a drawn
# level: sparse exponents up to 80 and coefficients up to 2^100
_EXPONENT = st.one_of(st.integers(0, 3), st.integers(0, 80))
_COEFF = st.one_of(st.integers(-3, 3), st.integers(-2**100, 2**100))


@st.composite
def _distributed(draw):
    level = draw(st.integers(1, 3))
    vectors = st.tuples(*[_EXPONENT] * level, *[st.just(0)] * (3 - level))
    return draw(st.dictionaries(vectors, _COEFF, max_size=5))


def _negated(p: dict) -> dict:
    return {v: -c for v, c in p.items()}


@settings(max_examples=200, deadline=None)
@given(st.lists(_distributed(), min_size=3, max_size=5),
       st.integers(-2**100, 2**100))
def test_node_kernels_match_distributed_reference(polys, k):
    a, b, c = polys[:3]
    A, B, C = (distributed_node(p) for p in (a, b, c))
    nodes = [distributed_node(p) for p in polys] + [k]
    every = distributed_sum(polys + [{(0, 0, 0): k}])
    ab = distributed_mul(a, b)
    checks = [
        (_nmul(A, B), ab),
        (_nmul(A, k), distributed_mul(a, {(0, 0, 0): k})),
        (_nadd(A, B), distributed_sum([a, b])),
        (reduce(_nadd, nodes), every),
        # sums and products that cancel to c (of any level, a constant
        # or 0), to k and to 0
        (_nadd(A, distributed_node(distributed_sum([_negated(a), c]))), c),
        (_nadd(_nmul(A, B), distributed_node(
            distributed_sum([_negated(ab), {(0, 0, 0): k}]))), {(0, 0, 0): k}),
        (reduce(_nadd, nodes + [distributed_node(_negated(every))]), {}),
        (reduce(_nadd, [_nmul(A, B), distributed_node(_negated(ab)), C]),
         c),
        # (a + c)(a - c): the cross terms cancel inside the product
        (_nmul(distributed_node(distributed_sum([a, c])),
               distributed_node(distributed_sum([a, _negated(c)]))),
         distributed_sum([distributed_mul(a, a),
                          _negated(distributed_mul(c, c))])),
    ]
    for got, want in checks:
        assert is_canonical(got)
        assert got == distributed_node(want)


def test_monomials_come_in_display_order():
    # the depth-first walk of a canonical node yields the monomials by
    # descending exponent of the highest variable first, with no sort
    order = VarOrder(["w", "x", "y", "z"])
    rng = random.Random(40404)
    for _ in range(1000):
        p = random_poly(rng, order, max_deg=4, n_terms=8)
        monos = _monomials(p)
        assert monos == sorted(monos, key=lambda t: t[0][::-1],
                               reverse=True)


def _walk_degree(node, level):
    if isinstance(node, int) or node[0] < level:
        return 0
    if node[0] == level:
        return node[1][0][0]
    return max(_walk_degree(c, level) for _, c in node[1])


def _walk_levels(node, out):
    if not isinstance(node, int):
        out.add(node[0])
        for _, c in node[1]:
            _walk_levels(c, out)
    return out


def _walk_bits(node):
    if isinstance(node, int):
        return abs(node).bit_length()
    return max(_walk_bits(c) for _, c in node[1])


def test_cached_shape_matches_fresh_walks():
    # degree, variables and height_bits read a shape kept on the
    # polynomial; on the first call, and on a repeat call made after
    # every other polynomial has filled its own and the kernels that
    # read the shape have run, they equal fresh walks
    order = VarOrder(["w", "x", "y", "z"])
    rng = random.Random(90210)
    point = [Fraction(-3, 2), Fraction(2), Fraction(5, 7), Fraction(-1)]
    cases = []
    for _ in range(1000):
        names = tuple(nm for nm in order.names if rng.random() < 0.7)
        p = random_poly(rng, order, vars_used=names, max_deg=4,
                        max_coeff=rng.choice((9, 2**70)), n_terms=5)
        want = ([_walk_degree(p.node, lvl) for lvl in range(1, 5)],
                tuple(order.name(lvl) for lvl
                      in sorted(_walk_levels(p.node, set()))),
                _walk_bits(p.node))
        cases.append((p, want))
    for rep in range(2):
        for p, want in cases:
            got = ([p.degree(v) for v in order.names], p.variables(),
                   p.height_bits())
            assert got == want, (p, rep)
            assert p.degree() == (want[0][p.level() - 1] if p.level()
                                  else 0)
            assert p._shape() == polyring._ndegrees(p.node)
        for p, _ in cases:
            p.cleared_coeffs(order.name(max(p.level(), 1)), point)
            _npoint_subs(p.node, point, p._shape())
    assert len({want[1] for _, want in cases}) >= 12


def test_exact_division():
    x, y = xy()
    f = (x + y) * (x - y) * (2 * x + 3)
    assert exact_div(f, x + y) == (x - y) * (2 * x + 3)
    assert exact_div(f, f) == MultiPoly.one(O2)
    with pytest.raises(InexactDivisionError):
        exact_div(x**2 + 1, x + 1)
    with pytest.raises(ZeroDivisionError):
        exact_div(x, MultiPoly.zero(O2))
    rng = random.Random(7)
    for _ in range(200):
        a = random_poly(rng, O2, max_deg=2, n_terms=3)
        b = random_poly(rng, O2, max_deg=2, n_terms=3)
        if b.is_zero():
            continue
        assert exact_div(a * b, b) == a


def test_pseudo_division_identity():
    rng = random.Random(99)
    for _ in range(200):
        f = random_poly(rng, O2, max_deg=4, n_terms=4)
        g = random_poly(rng, O2, max_deg=3, n_terms=3)
        if g.is_zero() or g.degree("y") == 0:
            continue
        q, r = pseudo_division(f, g, "y")
        d = max(f.degree("y") - g.degree("y") + 1, 0)
        assert g.lc("y") ** d * f == q * g + r
        assert r.degree("y") < g.degree("y") or r.is_zero()


def _division_outcome(fn, *args):
    """fn(*args), or InexactDivisionError when fn raises it."""
    try:
        return fn(*args)
    except InexactDivisionError:
        return InexactDivisionError


@pytest.mark.parametrize("names", [("x",), ("x", "y"), ("x", "y", "z")])
def test_division_kernels_match_reference(names):
    rng = random.Random(2013 + len(names))
    var = names[-1]
    counts = {"exact": 0, "inexact": 0, "zero_rem": 0, "short": 0,
              "sparse_exact": 0, "sparse_inexact": 0, "monic": 0}
    for _ in range(120):
        g = random_nonconstant(rng, O3, vars_used=names, max_deg=2,
                               n_terms=3)
        if g.mvar() != var:
            continue
        a = random_nonconstant(rng, O3, vars_used=names, max_deg=2,
                               n_terms=3)
        lower = random_poly(rng, O3, vars_used=names[:-1], max_deg=2,
                            n_terms=3)
        fs = [
            random_poly(rng, O3, vars_used=names, max_deg=4, n_terms=4),
            lower,  # f below g's level, or a constant
            MultiPoly.const(O3, rng.randint(-5, 5)),
            a * g,  # zero remainder, exact quotient a
            a * g + lower,
        ]
        for f in fs:
            q, r = pseudo_division(f, g, var)
            assert (q, r) == reference_pseudo_division(f, g, var)
            assert prem(f, g, var) == r and pquo(f, g, var) == q
            counts["zero_rem"] += r.is_zero() and not f.is_zero()
            counts["short"] += f.degree(var) < g.degree(var)
            got = _division_outcome(exact_div, f, g)
            assert got == _division_outcome(reference_exact_div, f, g)
            counts["inexact" if got is InexactDivisionError else "exact"] += 1
        assert exact_div(a * g, g) == a
        # the same dividends over g with its leading coefficient set to 1
        gm = g + (1 - g.lc(var)) * MultiPoly.var(O3, var) ** g.degree(var)
        for f in fs + [a * gm]:
            q, r = pseudo_division(f, gm, var)
            assert (q, r) == reference_pseudo_division(f, gm, var)
            assert prem(f, gm, var) == r
        counts["monic"] += 1
        # divisors below f's level and integer divisors
        if not lower.is_zero():
            assert exact_div(a * lower, lower) == a
            assert (_division_outcome(exact_div, a, lower)
                    == _division_outcome(reference_exact_div, a, lower))
        k = rng.choice([-6, -2, -1, 1, 3])
        c = MultiPoly.const(O3, k)
        assert exact_div(a * k, c) == a
        assert (_division_outcome(exact_div, a, c)
                == _division_outcome(reference_exact_div, a, c))
        # sparse level-1 divisors of degree up to 60 with large
        # coefficients: pseudo-division of level-1 dividends of degree
        # up to 80, and exact division, which runs on lists of ints, of
        # those and of a multiple in every variable of names
        gx = random_nonconstant(rng, O3, vars_used=("x",), max_deg=60,
                                max_coeff=2**70, n_terms=3)
        ax = random_poly(rng, O3, vars_used=("x",), max_deg=20,
                         max_coeff=2**40, n_terms=3)
        fx = random_poly(rng, O3, vars_used=("x",), max_deg=80,
                         max_coeff=2**70, n_terms=4)
        for f in (fx, ax * gx, ax * gx + fx):
            q, r = pseudo_division(f, gx, "x")
            assert (q, r) == reference_pseudo_division(f, gx, "x")
            assert prem(f, gx, "x") == r
            got = _division_outcome(exact_div, f, gx)
            assert got == _division_outcome(reference_exact_div, f, gx)
            counts["sparse_inexact" if got is InexactDivisionError
                   else "sparse_exact"] += 1
        assert (_division_outcome(exact_div, a * gx + lower, gx)
                == _division_outcome(reference_exact_div, a * gx + lower, gx))
        assert exact_div(a * gx, gx) == a
    assert min(counts.values()) >= 10, counts
    assert counts["monic"] >= 100, counts


def test_pseudo_division_outside_main_variable_raises():
    x, y = xy()
    # var is not g's main variable, or f involves a higher variable
    for f, g, var in [(y**2 + x, x + 1, "y"), (x * y + 1, x - 2, "x"),
                      (x**2, MultiPoly.const(O2, 3), "x")]:
        for fn in (pseudo_division, prem, pquo):
            with pytest.raises(ValueError):
                fn(f, g, var)
    with pytest.raises(ZeroDivisionError):
        prem(x, MultiPoly.zero(O2), "x")


def test_gcd_frozen_and_properties():
    x, y = xy()
    assert poly_gcd((x - 1) ** 2 * (x + 2), (x - 1) * (x + 3)) == x - 1
    assert poly_gcd(x - 1, x + 1).is_constant()
    with pytest.raises(ValueError):
        poly_gcd(MultiPoly.zero(O2), MultiPoly.zero(O2))
    rng = random.Random(4242)
    for _ in range(150):
        a = random_poly(rng, O2, max_deg=2, n_terms=2)
        b = random_poly(rng, O2, max_deg=2, n_terms=2)
        m = random_poly(rng, O2, max_deg=2, n_terms=2)
        if a.is_zero() and b.is_zero():
            continue
        g = poly_gcd(a * m, b * m) if not (a * m).is_zero() or not (b * m).is_zero() else None
        if g is None:
            continue
        if (a * m).is_zero() and (b * m).is_zero():
            continue
        # gcd divides both and is divisible by any common factor
        if not (a * m).is_zero():
            assert exact_div(a * m, g) is not None
        if not (b * m).is_zero():
            assert exact_div(b * m, g) is not None
        if not m.is_zero() and not a.is_zero() and not b.is_zero():
            assert exact_div(g, poly_gcd(m, g)) is not None
        assert g.is_zero() or g.lead_base_coeff() > 0


def prs_gcd(f, g):
    """poly_gcd with the coprimality certificate switched off."""
    with pytest.MonkeyPatch.context() as mp:
        force_prs_gcds(mp)
        return poly_gcd(f, g)


def test_gcd_certificate_edge_cases():
    x, y = xy()
    k = polyring._cert_point(1)  # the value the certificate gives x
    m = 10**6
    cases = [
        # lc_y vanishes at the fixed point, on one side or on both; the
        # side that keeps it bounds the roots, however large the other
        # image's coefficients
        ((x - k) * y + 1, y + 2, True),
        ((x - k) * y**2 + y + m, y + 2, True),
        (((x - k) * y + 1) * (y + 2), y + 2, False),
        ((x - k) * y + 1, (x - k) * y + x, False),
        (((x - k) * y + 1) * (y + x), ((x - k) * y + 1) * (y - x), False),
        # unlucky point: coprime, equal images
        (y + x, y + k, False),
        (y**2 + x, y**2 + k, False),
        # integer and polynomial content on one or both sides; a content
        # whose image outgrows xi leaves the pair to the PRS
        (6 * (y + x), 4 * (y - x), True),
        (6 * x * (y + 1), 4 * x**2 * (y - 1), True),
        (3 * (x + 1) * (y**2 - x), (x + 1) * (y + 2), True),
        ((x**5 + 1) * (y + 1), (x**5 + 1) * (y - 1), False),
        (10 * (y + x) * (y - 1), 4 * (y + x) * (y + 2), False),
        # a planted factor with a root near R = 2 + max|c| // |lc|:
        # H(xi) = xi - m is still at least xi - R
        ((y - m) * (y + 1), (y - m) * (y - 2), False),
        ((y + m) * (y - 1), (y + m) * (y + 3), False),
        (y - m, y - m - 1, True),
        ((y**2 + m) * (y + x), (y**2 + m) * (y - x), False),
        # mixed levels never reach the certificate
        ((x + 1) * (y**2 + x), (x + 1) * (x - 3), None),
        (2 * y * x + 4 * x, 6 * x**2, None),
    ]
    for f, g, proven in cases:
        assert poly_gcd(f, g) == prs_gcd(f, g) == prs_gcd(g, f)
        with pytest.MonkeyPatch.context() as mp:
            force_prs_gcds(mp)
            want = finest_squarefree_basis([f, g])
        assert finest_squarefree_basis([f, g]) == want
        if proven is not None:
            assert polyring._nodes_coprime(f.node, g.node) is proven
            assert polyring._nodes_coprime(g.node, f.node) is proven
    assert poly_gcd((x - k) * y + 1, y + 2) == MultiPoly.one(O2)
    assert poly_gcd(6 * x * (y + 1), 4 * x**2 * (y - 1)) == 2 * x
    assert poly_gcd((x - k) * y + 1, (x - k) * y + x) == MultiPoly.one(O2)
    assert poly_gcd(10 * (y + x) * (y - 1), 4 * (y + x) * (y + 2)) == 2 * (y + x)
    assert poly_gcd((x**5 + 1) * (y + 1), (x**5 + 1) * (y - 1)) == x**5 + 1
    # dense images: the radius comes from the side whose lc is nonzero
    assert polyring._images_coprime([2, 1], [m, 1, 0])
    assert not polyring._images_coprime([2, 1], [2, 1, 0])
    assert not polyring._images_coprime([1, 0], [0, 0])


def _planted(rng, order, names, bits):
    """A random polynomial of positive degree in the main variable of
    names, with coefficients of up to `bits` bits."""
    top = names[-1]
    while True:
        p = random_poly(rng, order, vars_used=names, max_deg=2, n_terms=3,
                        max_coeff=(1 << bits) - 1)
        if p.degree(top) > 0:
            return p


@pytest.mark.parametrize("names", [("x",), ("x", "y"), ("x", "y", "z")])
def test_certificate_soundness_and_yield(names):
    rng = random.Random(8191 + len(names))
    proven = coprime = 0
    for trial in range(100):
        bits = 4 if trial % 2 else 60
        a, b, h = (_planted(rng, O3, names, bits) for _ in range(3))
        # a planted factor of positive degree is never reported coprime
        assert not polyring._nodes_coprime((a * h).node, (b * h).node)
        assert not polyring._nodes_coprime((a * h).node, h.node)
        img_h = polyring._ncert_image(h.node)
        img_ah = polyring._ncert_image((a * h).node)
        assert not polyring._images_coprime(img_ah, img_h)
        g = prs_gcd(a, b)
        if g.level() < a.level():
            coprime += 1
            proven += polyring._nodes_coprime(a.node, b.node)
            assert poly_gcd(a, b) == g
    # almost every coprime pair is proven without a PRS
    assert coprime >= 50
    assert proven >= 0.95 * coprime


@pytest.mark.parametrize("names", [("x",), ("x", "y"), ("x", "y", "z")])
def test_gcd_random_differential(names):
    # gcd(a*m, b*m) == m * gcd(a, b) when gcd(a, b) is an integer
    rng = random.Random(1302 + len(names))
    checked = 0
    for _ in range(100):
        a, b, m = (random_nonconstant(rng, O3, vars_used=names, max_deg=2,
                                      n_terms=3) for _ in range(3))
        c = prs_gcd(a, b)
        if not c.is_constant():
            continue
        g = poly_gcd(a * m, b * m)
        assert g == (m * c).sign_normalized()
        assert g == prs_gcd(a * m, b * m)
        checked += 1
    assert checked >= 25


def _from_dense(coeffs):
    """The polynomial in x with dense coefficients, lowest degree
    first."""
    x = MultiPoly.var(O1, "x")
    p = MultiPoly.zero(O1)
    for c in reversed(coeffs):
        p = p * x + c
    return p


def _univariate(min_degree):
    """Dense coefficients, lowest degree first, of a polynomial of degree
    min_degree to 8 with coefficients up to 2^64 in absolute value."""
    coeff = st.integers(-(1 << 64), 1 << 64)
    return st.builds(lambda low, top: low + [top],
                     st.lists(coeff, min_size=min_degree, max_size=8),
                     coeff.filter(bool))


@settings(max_examples=150, deadline=None)
@given(_univariate(0), _univariate(0), _univariate(1), st.integers(1, 2),
       st.integers(1, 2))
def test_gcd_cofactors_match_prs(a, b, m, i, j):
    # a common factor m planted in both, and repeated once i or j is 2
    a, b, m = map(_from_dense, (a, b, m))
    f, g = a * m**i, b * m**j
    h, fq, gq = polyring._gcd_cofactors(f, g)
    assert h * fq == f and h * gq == g
    assert h == prs_gcd(f, g) == poly_gcd(f, g)
    exact_div(h, m)  # raises unless m divides h
    with pytest.MonkeyPatch.context() as mp:
        force_prs_gcds(mp)
        want = reference_squarefree_decomposition(f)
    assert squarefree_decomposition(f) == want


@pytest.mark.parametrize("names, max_deg", [(("x",), 3), (("x", "y"), 2),
                                            (("x", "y", "z"), 1)])
def test_squarefree_decomposition_matches_division_yun(names, max_deg):
    # planted repeated factors at levels 1, 2 and 3, against the
    # division-based Yun loop, also with every gcd on the PRS; the degrees
    # are kept low where the multivariate PRS would take seconds
    rng = random.Random(2718 + len(names))
    inputs = []
    for _ in range(30):
        a, b, c = (random_nonconstant(rng, O3, vars_used=names,
                                      max_deg=max_deg, n_terms=2)
                   for _ in range(3))
        inputs.append(a * b**2 * c**3)
    if names == ("x", "y"):
        # p and p' coprime, with lc(p) zero at x = _cert_point(1) = 1710,
        # where the certificate cannot prove them coprime, so the pair
        # goes to _gcd_cofactors; also squared
        assert polyring._cert_point(1) == 1710
        x, y = MultiPoly.var(O3, "x"), MultiPoly.var(O3, "y")
        p = (x - 1710) * y**2 + y + 1
        inputs += [p, (x - 1710) * y**3 + 3 * y + x, p**2 * (y - x)]
    repeated = 0
    for f in inputs:
        parts = squarefree_decomposition(f)
        assert parts == reference_squarefree_decomposition(f)
        with pytest.MonkeyPatch.context() as mp:
            force_prs_gcds(mp)
            assert reference_squarefree_decomposition(f) == parts
            assert squarefree_decomposition(f) == parts
        repeated += any(k > 1 for _, k in parts)
    assert repeated >= 20


def test_heuristic_gcd_refused_point_falls_back_to_prs():
    # A and B are coprime, but A(2^60) and B(2^60) share a prime factor
    # above 2^60, so the heuristic refuses its point; the doubled point
    # would prove the gcd x + 1, but it is not tried, and the pair takes
    # poly_gcd and exact division instead, with the same result
    A = [3501512, -9088383, 15789165]
    B = [65809609, 56776649, 21600657]
    F = [3501512, -5586871, 6700782, 15789165]
    G = [65809609, 122586258, 78377306, 21600657]
    f, g = _from_dense(F), _from_dense(G)
    x = MultiPoly.var(O1, "x")
    assert f == (x + 1) * _from_dense(A) and g == (x + 1) * _from_dense(B)
    assert prs_gcd(_from_dense(A), _from_dense(B)) == MultiPoly.one(O1)
    shift = (2 * max(map(abs, F + G)) + 2).bit_length() + 32
    assert shift == 60
    radius = max(polyring._cert_radius(F), polyring._cert_radius(G))
    va = polyring._value_at_pow2(A, shift)
    vb = polyring._value_at_pow2(B, shift)
    assert math.gcd(va, vb) > 1 << shift
    assert polyring._heuristic_gcd_at(F, G, shift, radius) is None
    assert polyring._heuristic_gcd_at(F, G, 2 * shift, radius) == ([1, 1],
                                                                   A, B)
    assert polyring._nheuristic_gcd(f.node, g.node) is None
    gcds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyring, "poly_gcd",
                   lambda *args: gcds.append(args) or poly_gcd(*args))
        h, fq, gq = polyring._gcd_cofactors(f, g)
    assert gcds[0] == (f, g)
    assert (h, fq, gq) == (x + 1, _from_dense(A), _from_dense(B))
    assert h == prs_gcd(f, g)


def test_content_primitive_part():
    x, y = xy()
    c, pp = content_primitive_part(6 * x**2 + 4 * x)
    assert c == MultiPoly.const(O2, 2)
    assert pp == 3 * x**2 + 2 * x
    assert c * pp == 6 * x**2 + 4 * x
    # multivariate: content in the main variable is a polynomial
    f = (2 * x) * (y**2 + y)
    c2, pp2 = content_primitive_part(f)
    assert c2 * pp2 == f
    assert c2 == 2 * x
    with pytest.raises(ValueError):
        content(MultiPoly.zero(O2))
    rng = random.Random(11)
    for _ in range(150):
        f = random_poly(rng, O2, max_deg=3, n_terms=3)
        if f.is_zero():
            continue
        c3, pp3 = content_primitive_part(f)
        assert c3 * pp3 == f
        if not pp3.is_constant():
            assert content(pp3).const_value() == 1


def test_squarefree_decomposition_reconstructs():
    x, y = xy()
    rng = random.Random(31337)
    for _ in range(80):
        a = random_nonconstant(rng, O2, max_deg=2, n_terms=2)
        b = random_nonconstant(rng, O2, max_deg=1, n_terms=2)
        f = a * b**2
        parts = squarefree_decomposition(f)
        rebuilt = MultiPoly.one(O2)
        for s, m in parts:
            rebuilt = rebuilt * s**m
        # equal up to integer constant
        q = exact_div(primitive_part(f).sign_normalized(), rebuilt.sign_normalized())
        assert q.is_constant()


def test_finest_squarefree_basis_frozen():
    x, y = xy()
    basis = finest_squarefree_basis([x**2 - 1, x**2 + 3 * x + 2])
    assert basis == sorted([x - 1, x + 1, x + 2])
    basis2 = finest_squarefree_basis([(x - 1) ** 2, x + 2])
    assert basis2 == sorted([x - 1, x + 2])
    with pytest.raises(ValueError):
        finest_squarefree_basis([MultiPoly.const(O2, 2)])


def test_finest_squarefree_basis_order_and_pair_count(monkeypatch):
    x, y = xy()
    polys = [x**2 - 1, x + 3, x**2 + 5 * x + 6, x - 1]
    # the splits come after several coprime pairs; no pair of
    # nonconstant polynomials is split twice
    pairs = []
    real_split = polyring._gcd_cofactors

    def counting_split(f, g):
        if not (f.is_constant() or g.is_constant()):
            pairs.append(frozenset((f, g)))
        return real_split(f, g)

    monkeypatch.setattr(polyring, "_gcd_cofactors", counting_split)
    assert finest_squarefree_basis(polys) == sorted([x - 1, x + 1, x + 2, x + 3])
    assert pairs and len(pairs) == len(set(pairs))
    monkeypatch.undo()
    rng = random.Random(97)
    for _ in range(20):
        polys = [random_nonconstant(rng, O2, max_deg=2, n_terms=2)
                 for _ in range(4)]
        polys.append(polys[0] * polys[1])
        basis = finest_squarefree_basis(polys)
        for _ in range(3):
            rng.shuffle(polys)
            assert finest_squarefree_basis(polys) == basis


def test_finest_squarefree_basis_properties():
    rng = random.Random(808)
    for _ in range(60):
        polys = [
            random_nonconstant(rng, O2, max_deg=2, n_terms=2) for _ in range(3)
        ]
        basis = finest_squarefree_basis(polys)
        for i, b in enumerate(basis):
            assert poly_gcd(b, b.derivative()).is_constant()
            assert b.lead_base_coeff() > 0
            for b2 in basis[i + 1 :]:
                assert poly_gcd(b, b2).is_constant()
        # reconstruction: every input is a constant times a product of powers
        for p in polys:
            rem = primitive_part(p)
            for b in basis:
                while True:
                    try:
                        cand = exact_div(rem, b)
                    except InexactDivisionError:
                        break
                    rem = cand
            assert rem.is_constant()


@pytest.mark.parametrize("names", [("x",), ("x", "y"), ("x", "y", "z")])
def test_basis_shortcuts_match_prs_route(monkeypatch, names):
    rng = random.Random(1993 + len(names))
    calls = []
    real_gcd = polyring.poly_gcd

    def counting_gcd(f, g):
        calls.append(1)
        return real_gcd(f, g)

    monkeypatch.setattr(polyring, "poly_gcd", counting_gcd)
    fast_calls = prs_calls = 0
    for _ in range(20):
        polys = [random_nonconstant(rng, O3, vars_used=names, max_deg=2,
                                    n_terms=3) for _ in range(3)]
        polys += [polys[0] * polys[1], polys[2] ** 2 * polys[0]]
        del calls[:]
        basis = finest_squarefree_basis(polys)
        parts = [squarefree_decomposition(p) for p in polys]
        fast_calls += len(calls)
        with monkeypatch.context() as m:
            force_prs_gcds(m)
            del calls[:]
            assert finest_squarefree_basis(polys) == basis
            assert [squarefree_decomposition(p) for p in polys] == parts
            prs_calls += len(calls)
    # the shortcuts settle pairs without a gcd
    assert fast_calls < prs_calls


def test_basis_elements_are_primitive():
    # the image shortcut in finest_squarefree_basis reads a proof of
    # deg_x gcd == 0 as gcd == 1, which needs every element primitive
    rng = random.Random(4099)
    for _ in range(40):
        polys = [random_nonconstant(rng, O3, max_deg=2, n_terms=3)
                 for _ in range(3)]
        polys.append(2 * polys[0] * polys[1])
        for b in finest_squarefree_basis(polys):
            assert content(b) == MultiPoly.one(O3)


def test_evaluate_and_substitute():
    x, y = xy()
    f = y**2 + x**2 - 1
    assert f.evaluate({"x": Fraction(1, 2), "y": Fraction(1, 2)}) == Fraction(-1, 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_subs_rational_cleared_matches_reference(seed):
    # the node substitution with one value set against the MultiPoly
    # loop, in the main variable, in each lower one and above the
    # polynomial, at negative, zero and non-integer values; the two are
    # equal, not just proportional
    rng = random.Random(seed)
    values = [Fraction(-3), Fraction(0), Fraction(2), Fraction(-7, 4),
              Fraction(5, 6), Fraction(-1, 9)]
    seen = set()
    for _ in range(60):
        f = random_poly(rng, O3, max_deg=3, max_coeff=9, n_terms=5)
        for var in O3.names:
            v = rng.choice(values)
            point = [None] * O3.n
            point[O3.level(var) - 1] = v
            got = MultiPoly(O3, _npoint_subs(f.node, point))
            assert got == reference_subs_rational_cleared(f, var, v)
            if not f.is_constant():
                seen.add(("main" if var == f.mvar() else
                          "lower" if O3.level(var) < f.level() else "above",
                          v < 0, v.denominator > 1))
    assert {("main", True, True), ("lower", True, True),
            ("main", False, True), ("lower", False, False)} <= seen
    assert any(case[0] == "above" for case in seen)


def test_cleared_coeffs_share_one_scale():
    rng = random.Random(13)
    z = MultiPoly.var(O3, "z")
    for _ in range(200):
        f = random_poly(rng, O3, max_deg=4, max_coeff=9, n_terms=5)
        f = f + random_poly(rng, O3, vars_used=("x", "y"), max_deg=2) * z
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                for _ in range(2)]
        den = 1
        for name, v in zip(("x", "y"), vals):
            den *= v.denominator ** f.degree(name)
        env = dict(zip(("x", "y"), vals))
        want = [f.coefficient("z", e).evaluate(env) * den
                for e in range(f.degree("z") + 1)]
        assert f.cleared_coeffs("z", vals) == want
    x, y = xy()
    # a polynomial below var is its own constant coefficient
    assert (x**2 - 1).cleared_coeffs("y", [Fraction(1, 2)]) == [-3]
    assert MultiPoly.zero(O2).cleared_coeffs("y", [Fraction(1, 2)]) == [0]
    with pytest.raises(ValueError):
        (y - x).cleared_coeffs("x", [])


def test_rendering_round_trip_shape():
    x, y = xy()
    z3 = MultiPoly.var(O3, "z")
    x3 = MultiPoly.var(O3, "x")
    y3 = MultiPoly.var(O3, "y")
    assert str(z3 * y3 - x3**2) == "z*y - x^2"
    assert str(y**2 + x**2 - 1) == "y^2 + x^2 - 1"
    assert str(MultiPoly.zero(O2)) == "0"
    assert str(-x + 1) == "-x + 1"
    assert str(2 * x * y) == "2*y*x"


def test_mixed_orders_rejected():
    x2 = MultiPoly.var(O2, "x")
    x3 = MultiPoly.var(O3, "x")
    with pytest.raises(ValueError):
        _ = x2 + x3
