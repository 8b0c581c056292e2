"""Tests for the exact polynomial ring layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from projcad import polyring
from projcad.polyring import (
    InexactDivisionError,
    MultiPoly,
    VarOrder,
    _npoint_subs,
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
    squarefree_part,
)

from helpers import (
    force_prs_gcds,
    random_nonconstant,
    random_poly,
    reference_exact_div,
    reference_pseudo_division,
    reference_subs_rational_cleared,
)

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
    counts = {"exact": 0, "inexact": 0, "zero_rem": 0, "short": 0}
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
    assert min(counts.values()) >= 10, counts


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


def test_squarefree_part():
    x, y = xy()
    assert squarefree_part((x - 1) ** 2 * (x + 2)) == (x - 1) * (x + 2)
    assert squarefree_part(x**2 - 1) == x**2 - 1
    with pytest.raises(ValueError):
        squarefree_part(MultiPoly.const(O2, 3))
    rng = random.Random(5150)
    for _ in range(100):
        f = random_nonconstant(rng, O2, max_deg=2, n_terms=2)
        s = squarefree_part(f * f)
        # squarefree: gcd with derivative is constant
        assert poly_gcd(s, s.derivative()).is_constant()
        # same zero set: s divides f*f and f*f divides a power of s
        assert exact_div(f * f, poly_gcd(f * f, s)) is not None


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
    # the only split comes after several coprime pairs; no pair of
    # nonconstant polynomials is gcd'd twice
    pairs = []
    real_gcd = polyring.poly_gcd

    def counting_gcd(f, g):
        if not (f.is_constant() or g.is_constant()):
            pairs.append(frozenset((f, g)))
        return real_gcd(f, g)

    monkeypatch.setattr(polyring, "poly_gcd", counting_gcd)
    assert finest_squarefree_basis(polys) == sorted([x - 1, x + 1, x + 2, x + 3])
    assert len(pairs) == len(set(pairs))
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
