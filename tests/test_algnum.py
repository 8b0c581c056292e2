"""Tests for exact root isolation, algebraic sample points, and signs."""

from __future__ import annotations

import math
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
    _bisect_once,
    _box_enclosure,
    _coeff_enclosure,
    _compare_coords,
    _enclosure_sign,
    _enclosure_variations,
    _fiber_image,
    _gap_sample,
    _int_box,
    _interval_sign,
    _nonroot_split,
    _point_enclosure,
    _root_bound,
    _sign_variations,
    _simplest_in_open,
    _split_point,
    _strip,
    fiber_gcd,
    fiber_reduce,
    isolate_real_roots,
    refine,
    roots_over_cell,
    sign_at,
)
from projcad.cadcore import cad_full, locate_point, verify_sign_invariance
from projcad.cli import render_output
from projcad.polyring import MultiPoly, VarOrder, poly_gcd

from helpers import (
    FractionBox,
    copying_extend,
    fiber_squarefree_part,
    force_exact_fiber_decisions,
    force_gcd_first_signs,
    random_nonconstant,
    random_poly,
    reference_box_eval,
    reference_bisect_once,
    reference_coeff_enclosure,
    reference_compare_coords,
    reference_gap_sample,
    reference_simplest_in_open,
    reference_split_point,
    reference_subs_rational_cleared,
    reference_variations,
    sequential_substitution_signs,
)

O1 = VarOrder(["x"])
O2 = VarOrder(["x", "y"])
O3 = VarOrder(["x", "y", "z"])

X = MultiPoly.var(O1, "x")
X2, Y2 = MultiPoly.var(O2, "x"), MultiPoly.var(O2, "y")

F = Fraction


def _num_den(x: Fraction) -> tuple:
    return x.numerator, x.denominator


def _int_ends(a: Fraction, b: Fraction) -> tuple:
    # the interval (a, b) as integers (a q, b q, q)
    q = math.lcm(a.denominator, b.denominator)
    return a.numerator * (q // a.denominator), b.numerator * (
        q // b.denominator), q


def _sqrt2_coord(order=O1):
    x = MultiPoly.var(order, "x")
    return RootOfCoordinate(x**2 - 2, IsolatingInterval(1, 2))


# ---------------------------------------------------------------------------
# isolation of univariate real roots


def test_isolate_sqrt2():
    ivs = isolate_real_roots(X**2 - 2)
    assert len(ivs) == 2
    # the root bound, the least power of two B with |-2| <= (B - 1) * 1,
    # is 4 and frames the initial search
    assert (ivs[0].lo, ivs[0].hi) == (F(-4), F(0))
    assert (ivs[1].lo, ivs[1].hi) == (F(0), F(4))
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


def test_refine_rejects_nonpositive_width():
    # an irrational root's interval never reaches width 0
    for width in (0, F(-1, 8)):
        with pytest.raises(ValueError, match="positive"):
            refine(_sqrt2_coord(), width)
        with pytest.raises(ValueError, match="positive"):
            refine(RationalCoordinate(F(1, 3)), width)


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


def test_sign_at_decided_by_boxes_skips_gcd(monkeypatch):
    calls = []
    gcd = algnum.fiber_gcd

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(algnum, "fiber_gcd", counting_gcd)
    c = _sqrt2_coord()
    s = SamplePoint((c,))
    assert sign_at(X**3, s) == 1
    assert sign_at(X - 3, s) == -1
    assert sign_at(2 * X**2 + X, s) == 1
    assert calls == [] and c.box() == (1, 2)
    # the box of x^2 - 3 excludes 0, the box of x^2 - 2 does not: only
    # the zero goes through the gcd with the reducible defining polynomial
    d = (X**2 - 2) * (X**2 - 3)
    c = RootOfCoordinate(d, IsolatingInterval(F(27, 20), F(29, 20)))
    s = SamplePoint((c,))
    assert sign_at(X**2 - 3, s) == -1
    assert calls == []
    assert sign_at(X**2 - 2, s) == 0
    assert len(calls) == 1
    assert c.box() == (F(27, 20), F(29, 20))


def _copy_point(s):
    return copying_extend(s.prefix(len(s) - 1), s.coords[-1])


def _irrational_roots(polys, s):
    try:
        sections, _, _ = roots_over_cell(polys, s)
    except ValueError:
        return []
    return [c for c in sections if c.point_value() is None]


def test_filtered_sign_matches_gcd_first(monkeypatch):
    # signs at irrational points of levels 1 and 2, once through the box
    # filter and once with the gcd zero test first, each on its own copy
    # of the point; planted zeros are multiples of a defining polynomial
    rng = random.Random(8086)
    points = []
    while len(points) < 16:
        f = random_nonconstant(rng, O2, vars_used=("x",), max_deg=4,
                               max_coeff=5, n_terms=4)
        for alpha in _irrational_roots([f], SamplePoint(()))[:2]:
            s1 = SamplePoint((alpha,))
            points.append(s1)
            g = random_poly(rng, O2, max_deg=2, max_coeff=4, n_terms=4)
            if g.level() == 2:
                for beta in _irrational_roots([g], s1)[:2]:
                    points.append(s1.extend(beta))
    cases = []
    for s in points:
        vars_used = ("x",) if len(s) == 1 else None
        for _ in range(6):
            q = random_poly(rng, O2, vars_used=vars_used, max_deg=3,
                            max_coeff=4, n_terms=4)
            cases.append((q, s, None))
        for c in s.coords:
            h = random_nonconstant(rng, O2, vars_used=vars_used, max_deg=1,
                                   max_coeff=3, n_terms=2)
            cases.append((h * c.defining, s, 0))
    filtered = [sign_at(q, _copy_point(s)) for q, s, _ in cases]
    with monkeypatch.context() as m:
        force_gcd_first_signs(m)
        gcd_first = [sign_at(q, _copy_point(s)) for q, s, _ in cases]
    assert filtered == gcd_first
    for (_, _, planted), sg in zip(cases, filtered):
        if planted is not None:
            assert sg == planted
    assert sum(1 for q, s, _ in cases if len(s) == 2) >= 40
    assert {-1, 0, 1} <= set(filtered)


def _random_box(rng, kind):
    def rat():
        return F(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 8, 12)))

    if kind == "point":
        v = rat()
        return v, v
    if kind == "zero-end":
        v = abs(rat()) or F(1, 3)
        return (F(0), v) if rng.random() < 0.5 else (-v, F(0))
    if kind == "straddle":
        return -(abs(rat()) or F(1, 2)), abs(rat()) or F(5, 4)
    if kind == "negative":
        a, b = sorted((-(abs(rat()) or F(1, 7)), -(abs(rat()) or F(2))))
        return a, b
    a, b = sorted((rat(), rat()))
    return a, b


_BOX_KINDS = ("point", "zero-end", "straddle", "negative", "any")
X3, Y3, Z3 = (MultiPoly.var(O3, v) for v in "xyz")


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_box_enclosures_match_fraction_reference(nvars):
    # the integer kernel divided by its scale is the Fraction evaluator's
    # enclosure exactly, and the coefficient enclosure equals the lcm
    # route tuple for tuple
    rng = random.Random(4242 + nvars)
    names = O3.names[:nvars]
    kinds_seen = set()
    for _ in range(150):
        f = random_poly(rng, O3, vars_used=names, max_deg=4, max_coeff=9,
                        n_terms=5)
        kinds = [rng.choice(_BOX_KINDS) for _ in names]
        kinds_seen.update(kinds)
        boxes = {lvl: _random_box(rng, k)
                 for lvl, k in enumerate(kinds, start=1)}
        coords = [RootOfCoordinate(X3, IsolatingInterval(*boxes[lvl]))
                  for lvl in range(1, nvars + 1)]
        lo, hi, k = _box_enclosure(f.node, coords)
        assert k > 0
        assert (F(lo, k), F(hi, k)) == reference_box_eval(f, boxes)
        if f.level() >= 2:
            assert _coeff_enclosure(f.node, coords) == (
                reference_coeff_enclosure(f.coeff_terms(f.mvar()), boxes))
    assert kinds_seen == set(_BOX_KINDS)


def _mixed_point(rng, algebraic):
    # a sample point with a random rational where algebraic[l - 1] is
    # False and a random irrational root over the point below elsewhere
    s = SamplePoint(())
    for lvl, alg in enumerate(algebraic, start=1):
        if not alg:
            s = s.extend(RationalCoordinate(
                F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))))
            continue
        while True:
            f = random_nonconstant(rng, O3, vars_used=O3.names[:lvl],
                                   max_deg=3, max_coeff=5, n_terms=4)
            if f.level() != lvl:
                continue
            roots = _irrational_roots([f], s)
            if roots:
                s = s.extend(rng.choice(roots))
                break
    return s


def test_sign_at_matches_sequential_substitution(monkeypatch):
    # one-pass substitution and integer boxes against the old route:
    # variable by variable on MultiPoly, boxes on Fractions, each on its
    # own copy of the point; signs and fiber gcd counts must agree
    rng = random.Random(2718)
    cases = []
    patterns = [tuple(bool(b >> i & 1) for i in range(n))
                for n in (1, 2, 3) for b in range(2**n)]
    for pattern in patterns * 2:
        s = _mixed_point(rng, pattern)
        names = O3.names[:len(pattern)]
        for _ in range(5):
            q = random_poly(rng, O3, vars_used=names, max_deg=3,
                            max_coeff=6, n_terms=4)
            cases.append((q, s, None))
        for c in s.coords:
            if isinstance(c, RootOfCoordinate):
                h = random_nonconstant(rng, O3, vars_used=names, max_deg=1,
                                       max_coeff=3, n_terms=2)
                cases.append((h * c.defining, s, 0))
    gcd = algnum.fiber_gcd

    def run():
        calls = []

        def counting_gcd(*args):
            calls.append(args)
            return gcd(*args)

        with monkeypatch.context() as m:
            m.setattr(algnum, "fiber_gcd", counting_gcd)
            signs = [algnum.sign_at(q, _copy_point(s)) for q, s, _ in cases]
        return signs, len(calls)

    signs, gcds = run()
    with monkeypatch.context() as m:
        sequential_substitution_signs(m)
        ref_signs, ref_gcds = run()
    assert signs == ref_signs
    assert gcds == ref_gcds > 0
    for (_, _, planted), sg in zip(cases, signs):
        if planted is not None:
            assert sg == planted
    assert {-1, 0, 1} <= set(signs)


# ---------------------------------------------------------------------------
# fiber-local tools


def test_fiber_reduce_and_degree():
    s0 = SamplePoint((RationalCoordinate(F(0)),))
    f = X2 * Y2**2 + Y2 + 1
    r = fiber_reduce(f, "y", s0)
    assert r == Y2 + 1


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
    sections, samples, owners = roots_over_cell([circle], _rational_fiber(0))
    assert [c.point_value() for c in sections] == [F(-1), F(1)]
    assert samples == [F(-2), F(0), F(2)]
    assert owners == [circle, circle]


def test_roots_over_cell_circle_tangent():
    # over x = -1 the circle degenerates to y^2: one double root at 0,
    # flattened internally to a simple one
    circle = Y2**2 + X2**2 - 1
    sections, samples, _ = roots_over_cell([circle], _rational_fiber(-1))
    assert len(sections) == 1
    assert isinstance(sections[0], RationalCoordinate)
    assert sections[0].value == 0
    assert samples == [F(-1), F(1)]


def test_roots_over_cell_circle_outside():
    circle = Y2**2 + X2**2 - 1
    sections, samples, _ = roots_over_cell([circle], _rational_fiber(2))
    assert sections == []
    assert samples == [F(0)]


def test_roots_over_cell_no_polynomials():
    assert roots_over_cell([], _rational_fiber(0)) == ([], [F(0)], [])


def test_roots_over_cell_merges_two_polys():
    sections, samples, _ = roots_over_cell(
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
    sections, _, _ = roots_over_cell([f], _rational_fiber(0))
    assert len(sections) == 2
    for c in sections:
        assert sign_at(Y2**2 - 2, _rational_fiber(0).extend(c)) == 0


def test_roots_over_cell_separability_violation():
    # y - x and y^2 - x^2 share the root y = 1 over x = 1: the quadric
    # is split along the common factor instead of being rejected
    sections, samples, owners = roots_over_cell(
        [Y2 - X2, Y2**2 - X2**2], _rational_fiber(1))
    assert [c.point_value() for c in sections] == [F(-1), F(1)]
    assert owners == [Y2 + X2, Y2 - X2]
    assert samples == [F(-2), F(0), F(2)]


def test_roots_over_cell_errors():
    with pytest.raises(ValueError):
        roots_over_cell([X2 * Y2], _rational_fiber(0))
    with pytest.raises(ValueError):
        roots_over_cell([X2**2 - 2], _rational_fiber(0))


def test_roots_over_cell_algebraic_fiber():
    # fiber at sqrt(2); sections of y^2 - x are +-2^(1/4)
    s1 = SamplePoint((_sqrt2_coord(O2),))
    sections, samples, _ = roots_over_cell([Y2**2 - X2], s1)
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


def test_refinement_and_queries_leave_the_output_alone():
    # every sample point shares its roots with the cells below it, and
    # narrowing their working boxes, by refine, by point location and by
    # an oracle sweep, moves nothing the output prints
    polys = [X3**2 + Y3**2 + Z3**2 - 1, X3 + Y3 + Z3]
    cad = cad_full(polys, O3)
    formats = ("json", "text", "piecewise")
    want = [render_output(cad, f) for f in formats]
    for stack in cad.stacks.values():
        # roots compare by identity
        below = stack.base.sample.coords
        assert all(c.sample.coords[:-1] == below for c in stack.cells)
    roots = list({id(c): c for cell in cad.cells for c in cell.sample.coords
                  if isinstance(c, RootOfCoordinate)}.values())
    # isolation and bisection make power-of-two denominators only
    assert all(_is_power_of_two(c.interval.q) for c in roots)
    for c in roots:
        refine(c, F(1, 2**20))
    assert all(c.box() != c.isolated for c in roots)
    assert all(_is_power_of_two(c.interval.q) for c in roots)
    rng = random.Random(3)
    for _ in range(24):
        locate_point(tuple(F(rng.randint(-12, 12), 8) for _ in "xyz"), cad)
    assert verify_sign_invariance(cad, polys, samples_per_cell=2).ok
    assert [render_output(cad, f) for f in formats] == want


def test_dense_route_carries_image():
    s = _rational_fiber(F(1, 3))
    sections, _, _ = roots_over_cell([Y2**2 - X2 - 1], s)
    assert len(sections) == 2
    for c in sections:
        img = tuple(_fiber_image(c.defining, "y", s))
        assert c.enclosure == (img, (0, 0, 0))
        assert s.extend(c).coords[-1].enclosure == c.enclosure
    # the image is a positive multiple of the defining polynomial
    c = sections[1]
    assert c.enclosure == ((-4, 0, 3), (0, 0, 0))


def _fraction_image(p, var, values):
    # the reference: coefficients evaluated on Fractions, then cleared by
    # the lcm of their denominators and divided by the gcd
    terms = p.coeff_terms(var)
    vs = [F(0)] * (terms[0][0] + 1 if terms else 0)
    for e, c in terms:
        vs[e] = c.evaluate(values)
    while vs and vs[-1] == 0:
        vs.pop()
    den = math.lcm(*(v.denominator for v in vs)) if vs else 1
    img = [v.numerator * (den // v.denominator) for v in vs]
    g = math.gcd(*img)
    return [c // g for c in img] if g > 1 else img


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.sampled_from(["plain", "vanishing-lead", "all-zero", "untouched"]))
def test_fiber_image_matches_fraction_reference(seed, case):
    rng = random.Random(seed)
    var = rng.choice(["y", "z"])
    lvl = O3.level(var)
    vals = [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(lvl - 1)]
    lower = O3.names[:lvl - 1]
    # a lower variable minus its value: zero on the fiber
    zero = MultiPoly.const(O3, vals[-1].denominator) * MultiPoly.var(
        O3, lower[-1]) - vals[-1].numerator
    used = lower[1:] if case == "untouched" else lower
    p = MultiPoly.zero(O3)
    for e in range(rng.randint(0, 4), -1, -1):
        c = random_poly(rng, O3, vars_used=used, max_deg=3, max_coeff=9,
                        n_terms=3)
        if case == "vanishing-lead" and e >= 1 and rng.random() < 0.7:
            c = c * zero
        p = p + c * MultiPoly.var(O3, var)**e
    if case == "all-zero":
        p = p * zero
    coords = [RationalCoordinate(v) for v in vals]
    if case == "untouched":
        # the level p does not involve sits at an irrational coordinate
        coords[0] = _sqrt2_coord(O3)
    want = _fraction_image(p, var, {
        nm: v for nm, v in zip(lower, vals) if nm in used})
    assert _fiber_image(p, var, SamplePoint(coords)) == want
    if case == "all-zero":
        assert want == []


def test_split_search_is_bounded():
    # y*x vanishes identically over x = 0: no candidate can be a
    # non-root, and the search must say so instead of looping
    with pytest.raises(ArithmeticError, match=r"\(0, 1\)"):
        _nonroot_split(X2 * Y2, "y", _rational_fiber(0), 0, 1, 1)
    # the same when every candidate is signed on a point enclosure,
    # with no exact step: here the zero polynomial's
    s0 = _rational_fiber(0)
    with pytest.raises(ArithmeticError, match="vanishes"):
        _nonroot_split(X2 * Y2**2, "y", s0, -2, 2, 1,
                       _point_enclosure([0, 0, 0]))
    # a nonzero image finds a split among its first deg + 1 candidates
    # even when the early ones are roots: (y - 1/2)(y - 1/4) on (0, 1)
    f = 8 * Y2**2 - 6 * Y2 + 1
    assert _nonroot_split(f, "y", s0, 0, 1, 1,
                          _point_enclosure([1, -6, 8])) == (3, 4)


def test_root_bound_is_bounded():
    # the leading coefficient x vanishes over x = 0 and no coordinate
    # there can be refined: the bound search must say so, not loop
    f = X2 * Y2**2 + Y2 + 1
    with pytest.raises(ArithmeticError, match="exact zero reached"):
        _root_bound(f, "y", _rational_fiber(0))
    # over x = 1 it is the least power of two B with |c_i| <= (B - 1) |lc|,
    # and the enclosure of the coefficients 1, 1, 1 is a point there
    assert _root_bound(f, "y", _rational_fiber(1)) == (
        2, ((1, 1, 1), (0, 0, 0)))
    # over x = sqrt(2) the leading coefficient x^2 - 2 vanishes, but the
    # box of x can be bisected forever: the search must give up
    s = SamplePoint((_sqrt2_coord(O2),))
    with pytest.raises(ArithmeticError, match="not decided after 512"):
        _root_bound((X2**2 - 2) * Y2**2 + Y2 + 1, "y", s)


def test_root_bound_does_not_depend_on_the_boxes(monkeypatch):
    # over x = sqrt(2) the bound is the same whatever the box of x.  For
    # y^2 + 1 - x^2, |c_0| = (2 - 1) |lc| exactly, so no enclosure decides
    # B = 2 and sign_at does; the others need B - 1 >= sqrt(2)
    calls = []
    sign = algnum.sign_at

    def counting(q, s):
        calls.append(q)
        return sign(q, s)

    for g, want in ((Y2**2 + 1 - X2**2, 2), (Y2**2 - X2, 4),
                    (Y2**2 + X2 * Y2 - 1, 4), (4 * Y2**3 - X2 * Y2, 2)):
        for width in (1, F(1, 8), F(1, 2**40)):
            s = SamplePoint((refine(_sqrt2_coord(O2), width),))
            with monkeypatch.context() as m:
                m.setattr(algnum, "sign_at", counting)
                assert _root_bound(g, "y", s)[0] == want
    assert len(calls) >= 3


def test_interval_sign_is_bounded():
    # x^2 - 2 is 0 at sqrt(2), so no box ever excludes 0; the refinement
    # loop behind sign_at must give up instead of bisecting forever
    s = SamplePoint((_sqrt2_coord(),))
    with pytest.raises(ArithmeticError, match="not decided after 512"):
        _interval_sign(X**2 - 2, s)
    assert s.coords[0].interval.width() == F(1, 2**512)


def test_interval_route_carries_enclosure(monkeypatch):
    # over x = sqrt(2) the roots of y^2 - x take the interval route; every
    # Descartes node is decided on the interval image, and each root
    # keeps the enclosure, shared by every sample point extended by it
    def no_exact_variations(*args):
        raise AssertionError("exact Descartes node")

    monkeypatch.setattr(algnum, "_sign_variations", no_exact_variations)
    s = SamplePoint((_sqrt2_coord(O2),))
    sections, _, _ = roots_over_cell([Y2**2 - X2], s)
    assert len(sections) == 2
    for c in sections:
        mid, rad = c.enclosure
        assert len(mid) == len(rad) == 3 and rad[0] > 0
        assert s.extend(c).coords[-1] is c
        # the enclosure signs the defining polynomial at the ends of the
        # isolating interval
        for x in c.isolated:
            assert _enclosure_sign(c.enclosure, *_num_den(x)) == sign_at(
                reference_subs_rational_cleared(c.defining, "y", x), s)


def test_interval_images_match_exact():
    # polynomials of levels 2 and 3 over irrational fibers: every variation
    # count and Horner sign the enclosure decides is the exact one, and
    # a point enclosure (a rational fiber) decides every one.  The exact
    # node's count, decided or not, is the MultiPoly route's
    rng = random.Random(1729)
    fibers = []
    while len(fibers) < 12:
        f = random_nonconstant(rng, O3, vars_used=("x",), max_deg=4,
                               max_coeff=5, n_terms=4)
        for alpha in _irrational_roots([f], SamplePoint(()))[:1]:
            s1 = SamplePoint((alpha,))
            fibers.append(s1)
            g = random_poly(rng, O3, vars_used=("x", "y"), max_deg=2,
                            max_coeff=4, n_terms=4)
            if g.level() == 2:
                fibers.extend(s1.extend(beta)
                              for beta in _irrational_roots([g], s1)[:1])
    fibers += [_random_fiber(rng, n) for n in (1, 2) for _ in range(6)]
    counts = {"nodes": 0, "signs": 0, "algebraic": 0, "undecided": 0}
    for s in fibers:
        var = O3.name(len(s) + 1)
        used = O3.names[:len(s) + 1]
        for _ in range(5):
            p = random_nonconstant(rng, O3, vars_used=used, max_deg=3,
                                   max_coeff=5, n_terms=5)
            if p.mvar() != var:
                continue
            f = _strip(fiber_reduce(p, var, s))
            if f.degree(var) < 1:
                continue
            B, enc = _root_bound(f, var, s)
            img = _fiber_image(f, var, s)
            for _ in range(3):
                a = B * F(rng.randint(-16, 15), 16)
                b = a + B * F(rng.randint(1, 8), 16)
                v = _enclosure_variations(enc, *_int_ends(a, b))
                if img is not None:
                    assert v is not None
                want = reference_variations(f, var, s, a, b)
                assert _sign_variations(f, var, s, *_int_ends(a, b)) == want
                if v is None:
                    counts["undecided"] += 1
                    continue
                assert v == want
                counts["nodes"] += 1
                counts["algebraic"] += img is None
            for x in [a, b] + [F(rng.randint(-40, 40), rng.randint(1, 9))
                               for _ in range(3)]:
                sg = _enclosure_sign(enc, *_num_den(x))
                if img is not None:
                    assert sg is not None
                if sg is None:
                    counts["undecided"] += 1
                    continue
                assert sg == sign_at(
                    reference_subs_rational_cleared(f, var, x), s)
                counts["signs"] += 1
                counts["algebraic"] += img is None
    assert counts["nodes"] >= 150 and counts["signs"] >= 300
    assert counts["algebraic"] >= 150 and counts["undecided"] >= 20


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
        sections, samples, _ = roots_over_cell(polys, s)
    except (ValueError, ArithmeticError) as e:
        return ("error", type(e), str(e))
    return (tuple((type(c), c.box()) for c in sections), tuple(samples))


def test_dense_route_matches_symbolic(monkeypatch):
    # the same polynomials over the same rational fibers, once through
    # the dense image and once through the symbolic route: without an
    # image, and with every decision on an enclosure (point enclosures
    # over rational fibers included) left to the exact step
    rng = random.Random(4711)
    same = linear = 0
    for trial in range(240):
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
            force_exact_fiber_decisions(m)
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
        want = reference_variations(f, var, s, a, b)
        assert _enclosure_variations(_point_enclosure(img),
                                     *_int_ends(a, b)) == want
        checked += 1


# ---------------------------------------------------------------------------
# simplest rational in a gap


def test_simplest_in_open_frozen():
    assert _simplest_in_open(1, 3, 1, 2) == F(2, 5)
    assert _simplest_in_open(-1, 1, 1, 1) == 0
    assert _simplest_in_open(0, 1, 2, 1) == 1
    assert _simplest_in_open(5, 1, 6, 1) == F(11, 2)
    assert _simplest_in_open(-1, 2, -1, 3) == F(-2, 5)
    # the ends need not be in lowest terms
    assert _simplest_in_open(2, 6, 4, 8) == F(2, 5)


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
)
def test_simplest_in_open_is_minimal(a, b):
    if a == b:
        return
    a, b = min(a, b), max(a, b)
    r = _simplest_in_open(*_num_den(a), *_num_den(b))
    assert a < r < b
    # brute-force: nothing with a smaller denominator fits in the gap
    for q in range(1, r.denominator):
        p = int(a * q) - 1
        while F(p, q) <= a:
            p += 1
        assert F(p, q) >= b


# ---------------------------------------------------------------------------
# integer boxes against the Fraction reference

_BOX_SHAPES = ("dyadic", "non-dyadic", "negative", "collapsed")
_SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13)


def _coord_maker(rng, shape, k):
    """A function making fresh copies of one coordinate whose box has the
    given shape: around sqrt(k) (-sqrt(k) for "negative") with dyadic or
    other ends, around a dyadic rational that bisection hits, or a point.
    Half of the roots carry the point enclosure of their defining
    polynomial, the others are signed by sign_at alone."""
    if shape == "collapsed":
        r = F(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 8)))
        if rng.random() < 0.3:
            return lambda: RationalCoordinate(r)
        f, lo, hi = r.denominator * X - r.numerator, r, r
    elif shape == "dyadic" and rng.random() < 0.3:
        j = rng.randint(1, 5)
        r = F(2 * rng.randint(-20, 20) + 1, 2**j)
        e = rng.randint(0, j - 1)
        lo = F(math.floor(r * 2**e), 2**e)
        f, hi = r.denominator * X - r.numerator, lo + F(1, 2**e)
    else:
        others = (3, 5, 6, 7, 10, 12, 20)
        if shape == "dyadic" or (shape == "negative" and rng.random() < 0.5):
            d1 = d2 = 2**rng.randint(0, 6)
        else:
            d1, d2 = rng.choice(others), rng.choice(others)
        f = X**2 - k
        lo = F(math.isqrt(k * d1 * d1), d1)
        hi = F(math.isqrt(k * d2 * d2) + 1, d2)
        if shape == "negative":
            lo, hi = -hi, -lo
    enc = None
    if rng.random() < 0.5:
        enc = _point_enclosure(_fiber_image(f, "x", SamplePoint(())))
    return lambda: RootOfCoordinate(f, IsolatingInterval(lo, hi), (), enc)


def _is_power_of_two(q: int) -> bool:
    return q & (q - 1) == 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_BOX_SHAPES), st.sampled_from(_BOX_SHAPES),
       st.integers(min_value=0, max_value=2**32))
def test_integer_boxes_match_fraction_reference(shape1, shape2, seed):
    # bisection, split points, root comparison and gap samples on the
    # integer triples against the same steps on Fraction boxes
    rng = random.Random(seed)
    k1, k2 = rng.sample(_SQUAREFREE, 2)
    make1 = _coord_maker(rng, shape1, k1)
    make2 = _coord_maker(rng, shape2, k2)

    c = make1()
    ref = FractionBox(c)
    for _ in range(rng.randint(1, 12)):
        if isinstance(c, RootOfCoordinate):
            _bisect_once(c)
            reference_bisect_once(ref)
        assert c.box() == (ref.lo, ref.hi)
        if shape1 == "dyadic":
            assert _is_power_of_two(_int_box(c)[2])

    lo, hi = make1().box()
    if lo < hi:
        a, b, q = _int_box(make1())
        cands = []
        skip = rng.randint(0, 3)
        want = reference_split_point(
            lambda m: cands.append(m) or len(cands) > skip, 99, lo, hi)
        banned = set(cands[:skip])
        u, v = _split_point(lambda u, v: F(u, v) not in banned, skip,
                            a, b, q)
        assert F(u, v) == want and v % q == 0
        assert _is_power_of_two(v // q)
        if skip:
            with pytest.raises(ArithmeticError) as got:
                _split_point(lambda u, v: F(u, v) not in banned, skip - 1,
                             a, b, q)
            with pytest.raises(ArithmeticError) as ref_err:
                reference_split_point(lambda m: m not in banned, skip - 1,
                                      lo, hi)
            assert str(got.value) == str(ref_err.value)

    c1, c2 = make1(), make2()
    r1, r2 = FractionBox(make1()), FractionBox(make2())
    try:
        want = reference_compare_coords(r1, r2)
    except SeparabilityError:
        with pytest.raises(SeparabilityError):
            _compare_coords(c1, c2)
        return
    assert _compare_coords(c1, c2) == want
    assert (c1.box(), c2.box()) == ((r1.lo, r1.hi), (r2.lo, r2.hi))
    if want > 0:
        c1, c2, r1, r2 = c2, c1, r2, r1
    assert _gap_sample(c1, c2) == reference_gap_sample(r1, r2)
    assert (c1.box(), c2.box()) == ((r1.lo, r1.hi), (r2.lo, r2.hi))
    # the gap between the facing ends, in lowest terms and scaled up
    b1, a2 = c1.box()[1], c2.box()[0]
    t = rng.randint(1, 9)
    assert _simplest_in_open(b1.numerator * t, b1.denominator * t,
                             a2.numerator, a2.denominator) == (
        reference_simplest_in_open(b1, a2))
