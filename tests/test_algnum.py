"""Tests for exact root isolation, algebraic sample points, and signs."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcad import algnum
from projcad.algnum import (
    IsolatingInterval,
    RationalCoordinate,
    RootOfCoordinate,
    SamplePoint,
    SeparabilityError,
    _fiber_image,
    _image_split,
    _image_variations,
    _nonroot_split,
    _shifted_to_unit,
    _sign_variations,
    _simplest_in_open,
    _variations_poly,
    fiber_degree,
    fiber_gcd,
    fiber_reduce,
    fiber_squarefree_part,
    isolate_real_roots,
    refine,
    roots_over_cell,
    sign_at,
)
from projcad.polyring import MultiPoly, VarOrder, poly_gcd

from helpers import random_nonconstant, random_poly

O1 = VarOrder(["x"])
O2 = VarOrder(["x", "y"])
O3 = VarOrder(["x", "y", "z"])

X = MultiPoly.var(O1, "x")
X2, Y2 = MultiPoly.var(O2, "x"), MultiPoly.var(O2, "y")

F = Fraction


def _sqrt2_coord(order=O1):
    x = MultiPoly.var(order, "x")
    return RootOfCoordinate(x**2 - 2, IsolatingInterval(1, 2))


# ---------------------------------------------------------------------------
# isolation of univariate real roots


def test_isolate_sqrt2():
    ivs = isolate_real_roots(X**2 - 2)
    assert len(ivs) == 2
    # root bound 1 + 2/1 = 3 frames the initial search
    assert (ivs[0].lo, ivs[0].hi) == (F(-3), F(0))
    assert (ivs[1].lo, ivs[1].hi) == (F(0), F(3))
    f = X**2 - 2
    for iv in ivs:
        # endpoints are never roots, and the single interior root shows
        # up as a sign change
        lo = f.evaluate({"x": iv.lo})
        hi = f.evaluate({"x": iv.hi})
        assert lo != 0 and hi != 0 and (lo < 0) != (hi < 0)


def test_isolate_cubic():
    f = X**3 - X
    ivs = isolate_real_roots(f)
    assert len(ivs) == 3
    for iv, root in zip(ivs, (F(-1), F(0), F(1))):
        assert iv.lo < root < iv.hi
        assert f.evaluate({"x": iv.lo}) != 0
        assert f.evaluate({"x": iv.hi}) != 0
    # strictly ordered and disjoint
    assert ivs[0].hi <= ivs[1].lo and ivs[1].hi <= ivs[2].lo


def test_isolate_no_real_roots():
    assert isolate_real_roots(X**2 + 1) == []
    assert isolate_real_roots(MultiPoly.const(O1, 5)) == []


def test_isolate_errors():
    with pytest.raises(ValueError):
        isolate_real_roots(MultiPoly.zero(O1))
    with pytest.raises(ValueError):
        isolate_real_roots(X2 * Y2)
    with pytest.raises(ValueError):
        isolate_real_roots((X - 1) ** 2)


def test_isolate_random_against_sampling():
    # independent check: every isolating interval shows a sign change,
    # and dense rational sampling of the gaps finds no further changes
    rng = random.Random(90125)
    checked = 0
    while checked < 60:
        f = random_poly(rng, O1, max_deg=5, max_coeff=8, n_terms=5)
        if f.is_constant() or f.is_zero():
            continue
        if not poly_gcd(f, f.derivative("x")).is_constant():
            continue
        ivs = isolate_real_roots(f)
        for iv in ivs:
            lo = f.evaluate({"x": iv.lo})
            hi = f.evaluate({"x": iv.hi})
            assert lo != 0 and hi != 0 and (lo < 0) != (hi < 0)
        coeffs = [c.const_value() for _, c in f.coeff_terms("x")]
        bound = 1 + max(F(abs(c), abs(coeffs[0])) for c in coeffs)
        cuts = [-bound]
        for iv in ivs:
            cuts.extend([iv.lo, iv.hi])
        cuts.append(bound)
        # between consecutive intervals the sign must be locked
        for gap_lo, gap_hi in zip(cuts[::2], cuts[1::2]):
            signs = set()
            for _ in range(64):
                t = F(rng.randint(0, 2**20), 2**20)
                pt = gap_lo + t * (gap_hi - gap_lo)
                v = f.evaluate({"x": pt})
                if v != 0:
                    signs.add(v > 0)
            assert len(signs) <= 1
        checked += 1


# ---------------------------------------------------------------------------
# refinement


def test_refine_sqrt2():
    c = _sqrt2_coord()
    refine(c, F(1, 1024))
    assert c.interval.width() <= F(1, 1024)
    # still brackets the root
    assert c.interval.lo ** 2 < 2 < c.interval.hi ** 2


def test_refine_rational_passthrough():
    c = RationalCoordinate(F(3, 7))
    assert refine(c, F(1, 10**9)) is c


def test_refine_monotone():
    a, b = _sqrt2_coord(), _sqrt2_coord()
    refine(a, F(1, 8))
    refine(a, F(1, 64))
    refine(b, F(1, 64))
    # bisection is deterministic, so staged refinement lands on the
    # same interval as going straight to the target width
    assert (a.interval.lo, a.interval.hi) == (b.interval.lo, b.interval.hi)


def test_refine_collapses_on_exact_hit():
    # 0 is a root of x^3 - x and the midpoint of (-1/2, 1/2)
    c = RootOfCoordinate(X**3 - X, IsolatingInterval(F(-1, 2), F(1, 2)))
    refine(c, F(1, 10**6))
    assert c.point_value() == 0


# ---------------------------------------------------------------------------
# signs at sample points


def test_sign_at_frozen():
    s = SamplePoint((_sqrt2_coord(),))
    assert sign_at(X**2 - 2, s) == 0
    assert sign_at(5 * (X**2 - 2), s) == 0
    assert sign_at(X**3, s) == 1
    assert sign_at(X - 2, s) == -1
    assert sign_at(MultiPoly.const(O1, -7), SamplePoint(())) == -1
    assert sign_at(MultiPoly.zero(O1), s) == 0


def test_sign_at_unfixed_variable():
    s = SamplePoint((_sqrt2_coord(),))
    with pytest.raises(ValueError):
        sign_at(Y2 - 1, s)


def test_sign_at_rational_point():
    s = SamplePoint((RationalCoordinate(F(1, 2)), RationalCoordinate(F(-3))))
    assert sign_at(Y2 + X2, s) == -1
    assert sign_at(2 * Y2 + 6, s) == 0
    assert sign_at(X2**2, s) == 1


def test_sign_at_reducible_defining():
    # the defining polynomial is a product; the zero test must pick out
    # which factor the isolated root belongs to
    d = (X**2 - 2) * (X**2 - 3)
    c = RootOfCoordinate(d, IsolatingInterval(F(27, 20), F(29, 20)))
    s = SamplePoint((c,))
    assert sign_at(X**2 - 2, s) == 0
    assert sign_at(X**2 - 3, s) == -1
    assert sign_at(X**2 - 1, s) == 1


def test_sign_consistency_under_refinement():
    rng = random.Random(5150)
    for _ in range(40):
        c = _sqrt2_coord()
        s = SamplePoint((c,))
        p = random_poly(rng, O1, max_deg=4, max_coeff=6)
        if p.is_zero():
            continue
        before = sign_at(p, s)
        refine(c, F(1, 2**24))
        assert sign_at(p, s) == before


# ---------------------------------------------------------------------------
# fiber-local tools


def test_fiber_reduce_and_degree():
    s0 = SamplePoint((RationalCoordinate(F(0)),))
    f = X2 * Y2**2 + Y2 + 1
    r = fiber_reduce(f, "y", s0)
    assert r == Y2 + 1
    assert fiber_degree(f, "y", s0) == 1
    assert fiber_degree(X2 * Y2, "y", s0) == -1


def test_fiber_gcd_over_algebraic_fiber():
    s = SamplePoint((_sqrt2_coord(O2),))
    # y - x and y^2 - 2 share the root y = sqrt(2) exactly over this fiber
    g = fiber_gcd(Y2**2 - 2, Y2 - X2, "y", s)
    assert g.degree("y") == 1
    s1 = SamplePoint((RationalCoordinate(F(1)),))
    assert fiber_gcd(Y2**2 - 2, Y2 - X2, "y", s1).degree("y") == 0


def test_fiber_squarefree_part():
    s1 = SamplePoint((RationalCoordinate(F(1)),))
    f = (Y2 - 1) ** 2 * (Y2 + 2)
    g = fiber_squarefree_part(f, "y", s1)
    assert g.assoc_normalized() == ((Y2 - 1) * (Y2 + 2)).assoc_normalized()


# ---------------------------------------------------------------------------
# roots over a cell


def _rational_fiber(x):
    return SamplePoint((RationalCoordinate(F(x)),))


def test_roots_over_cell_circle_mid():
    circle = Y2**2 + X2**2 - 1
    sections, samples = roots_over_cell([circle], _rational_fiber(0))
    assert [c.point_value() for c in sections] == [F(-1), F(1)]
    assert samples == [F(-2), F(0), F(2)]


def test_roots_over_cell_circle_tangent():
    # over x = -1 the circle degenerates to y^2: one double root at 0,
    # flattened internally to a simple one
    circle = Y2**2 + X2**2 - 1
    sections, samples = roots_over_cell([circle], _rational_fiber(-1))
    assert len(sections) == 1
    assert isinstance(sections[0], RationalCoordinate)
    assert sections[0].value == 0
    assert samples == [F(-1), F(1)]


def test_roots_over_cell_circle_outside():
    circle = Y2**2 + X2**2 - 1
    sections, samples = roots_over_cell([circle], _rational_fiber(2))
    assert sections == []
    assert samples == [F(0)]


def test_roots_over_cell_no_polynomials():
    assert roots_over_cell([], _rational_fiber(0)) == ([], [F(0)])


def test_roots_over_cell_merges_two_polys():
    sections, samples = roots_over_cell(
        [Y2 - X2, Y2**2 - 2], _rational_fiber(F(1, 2)))
    # -sqrt2 < 1/2 < sqrt2
    assert len(sections) == 3
    assert sections[1].point_value() == F(1, 2)
    assert len(samples) == 4
    for c in sections:
        refine(c, F(1, 64))
    for left, right in zip(sections, sections[1:]):
        assert left.box()[1] <= right.box()[0]
    # samples interleave the sections strictly
    for i, c in enumerate(sections):
        assert samples[i] < c.box()[0] or samples[i] <= c.box()[0]
        assert samples[i] < samples[i + 1]


def test_roots_over_cell_flattens_repeated_roots():
    f = (Y2**2 - 2) ** 2
    sections, _ = roots_over_cell([f], _rational_fiber(0))
    assert len(sections) == 2
    for c in sections:
        assert sign_at(Y2**2 - 2, _rational_fiber(0).extend(c)) == 0


def test_roots_over_cell_separability_violation():
    with pytest.raises(SeparabilityError):
        roots_over_cell([Y2 - X2, Y2**2 - X2**2], _rational_fiber(1))


def test_roots_over_cell_errors():
    with pytest.raises(ValueError):
        roots_over_cell([X2 * Y2], _rational_fiber(0))
    with pytest.raises(ValueError):
        roots_over_cell([X2**2 - 2], _rational_fiber(0))


def test_roots_over_cell_algebraic_fiber():
    # fiber at sqrt(2); sections of y^2 - x are +-2^(1/4)
    s1 = SamplePoint((_sqrt2_coord(O2),))
    sections, samples = roots_over_cell([Y2**2 - X2], s1)
    assert len(sections) == 2
    assert samples[1] == 0
    beta = sections[1]
    s2 = s1.extend(beta)
    y4 = MultiPoly.var(O2, "y") ** 4
    assert sign_at(y4 - X2**2, s2) == 0
    assert sign_at(y4 - 2, s2) == 0
    assert sign_at(Y2 - 1, s2) == 1
    assert sign_at(y4 - X2**2 - 1, s2) == -1
    assert sign_at(y4 - X2**2 + 1, s2) == 1


def test_extend_does_not_share_interval_state():
    s1 = SamplePoint((_sqrt2_coord(O2),))
    sections, _ = roots_over_cell([Y2**2 - X2], s1)
    s2 = s1.extend(sections[0])
    refine(s2.coords[0], F(1, 2**16))
    # the original fiber coordinate is untouched
    assert s1.coords[0].interval.width() > F(1, 2**16)


def test_dense_route_carries_image():
    s = _rational_fiber(F(1, 3))
    sections, _ = roots_over_cell([Y2**2 - X2 - 1], s)
    assert len(sections) == 2
    for c in sections:
        assert c.image == tuple(_fiber_image(c.defining, "y", s))
        assert s.extend(c).coords[-1].image == c.image
    # the image is a positive multiple of the defining polynomial
    c = sections[1]
    assert c.image == (-4, 0, 3)


def test_split_search_is_bounded():
    # y*x vanishes identically over x = 0: no candidate can be a
    # non-root, and the search must say so instead of looping
    with pytest.raises(ArithmeticError, match=r"\(0, 1\)"):
        _nonroot_split(X2 * Y2, "y", _rational_fiber(0), F(0), F(1))
    with pytest.raises(ArithmeticError, match="vanishes"):
        _image_split([0, 0, 0], F(-2), F(2))
    # a nonzero image finds a split among its first deg + 1 candidates
    # even when the early ones are roots: (y - 1/2)(y - 1/4) on (0, 1)
    assert _image_split([1, -6, 8], F(0), F(1)) == F(3, 4)


def _random_fiber(rng, n):
    vals = []
    for _ in range(n):
        if rng.random() < 0.3:
            vals.append(F(rng.choice([0, 1, -1])))
        else:
            vals.append(F(rng.randint(-9, 9), rng.randint(1, 4)))
    return SamplePoint(tuple(RationalCoordinate(v) for v in vals))


def _roots_outcome(polys, s):
    try:
        sections, samples = roots_over_cell(polys, s)
    except (ValueError, ArithmeticError) as e:
        return ("error", type(e), str(e))
    return (tuple((type(c), c.box()) for c in sections), tuple(samples))


def test_dense_route_matches_symbolic(monkeypatch):
    # the same polynomials over the same rational fibers, once through
    # the dense route and once through the symbolic one
    rng = random.Random(4711)
    same = linear = 0
    for trial in range(160):
        order = O2 if trial % 2 == 0 else O3
        var = order.names[-1]
        polys = []
        for _ in range(rng.randint(1, 3)):
            p = random_nonconstant(rng, order, max_deg=2, max_coeff=4,
                                   n_terms=4)
            if p.mvar() == var:
                polys.append(p)
        if not polys:
            continue
        s = _random_fiber(rng, order.n - 1)
        dense = _roots_outcome(polys, s)
        with monkeypatch.context() as m:
            m.setattr(algnum, "_fiber_image", lambda p, var, s: None)
            symbolic = _roots_outcome(polys, s)
        if dense[0] != "error" and any(
                t is RationalCoordinate for t, _ in dense[0]):
            # only the dense route turns a linear polynomial into its
            # exact root; the symbolic route isolates the same roots, but
            # comparing them refines its boxes differently
            assert len(dense[0]) == len(symbolic[0])
            for (_, (lo, hi)), (_, (slo, shi)) in zip(dense[0],
                                                      symbolic[0]):
                assert max(lo, slo) <= min(hi, shi)
            linear += 1
            continue
        assert dense == symbolic
        same += 1
    assert same >= 80 and linear >= 10


def test_dense_variations_match_symbolic():
    rng = random.Random(2718)
    checked = 0
    while checked < 150:
        order = O2 if checked % 2 == 0 else O3
        var = order.names[-1]
        p = random_nonconstant(rng, order, max_deg=3, max_coeff=6,
                               n_terms=5)
        if p.mvar() != var:
            continue
        s = _random_fiber(rng, order.n - 1)
        f = fiber_reduce(p, var, s)
        if f.degree(var) < 1:
            continue
        img = _fiber_image(f, var, s)
        a = F(rng.randint(-40, 40), rng.randint(1, 8))
        b = a + F(rng.randint(1, 40), rng.randint(1, 8))
        want = _sign_variations(
            _variations_poly(_shifted_to_unit(f, var, a, b), var), var, s)
        assert _image_variations(img, a, b) == want
        checked += 1


# ---------------------------------------------------------------------------
# simplest rational in a gap


def test_simplest_in_open_frozen():
    assert _simplest_in_open(F(1, 3), F(1, 2)) == F(2, 5)
    assert _simplest_in_open(F(-1), F(1)) == 0
    assert _simplest_in_open(F(0), F(2)) == 1
    assert _simplest_in_open(F(5), F(6)) == F(11, 2)
    assert _simplest_in_open(F(-1, 2), F(-1, 3)) == F(-2, 5)


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
)
def test_simplest_in_open_is_minimal(a, b):
    if a == b:
        return
    a, b = min(a, b), max(a, b)
    r = _simplest_in_open(a, b)
    assert a < r < b
    # brute-force: nothing with a smaller denominator fits in the gap
    for q in range(1, r.denominator):
        p = int(a * q) - 1
        while F(p, q) <= a:
            p += 1
        assert F(p, q) >= b
