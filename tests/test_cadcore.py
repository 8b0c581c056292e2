"""Tests for full-pipeline composition and the verification oracles."""

from __future__ import annotations

import copy
import math
import random
import time
from fractions import Fraction

import pytest

from projcad import algnum, cadcore
from projcad.algnum import _cmp_root_to_rational, refine
from projcad.cadcore import (
    IntegrityError,
    cad_full,
    check_cylindricity,
    locate_point,
    verify_sign_invariance,
)
from projcad.lifting import CAD, Cell, NotWellOrientedError, RootRef
from projcad.polyring import MultiPoly, VarOrder
from projcad.algnum import (RationalCoordinate, RootOfCoordinate,
                            SamplePoint, sign_at)
from projcad.cli import _EXAMPLES, RunConfig, parse_input

from helpers import (
    bisecting_point_location,
    cad_from_cells,
    check_stack_refs,
    flat_stack_maps,
    force_sorted_stack_roots,
    fraction_probe_signs,
    random_poly,
    reference_random_in_gap,
    uncached_base_stack,
)
from test_cli import GOLDEN_EXTRA, GOLDEN_JSON, _random_problem

O1 = VarOrder(["x"])
O2 = VarOrder(["x", "y"])
O3 = VarOrder(["x", "y", "z"])

F = Fraction
X1 = MultiPoly.var(O1, "x")
X2, Y2 = (MultiPoly.var(O2, v) for v in "xy")
X3, Y3, Z3 = (MultiPoly.var(O3, v) for v in "xyz")
CIRCLE = Y2**2 + X2**2 - 1


def test_cad_full_circle():
    cad = cad_full([CIRCLE], O2)
    assert len(cad.cells) == 13
    assert cad.method == "mccallum" and cad.final_oi is False


def test_cad_full_final_oi():
    cad = cad_full([Z3 * Y3 - X3**2], O3, final_oi=True)
    assert len(cad.cells) == 23


def test_locate_point_frozen():
    cad = cad_full([CIRCLE], O2)
    assert locate_point((0, 0), cad).index == (3, 3)
    assert locate_point((-2, 5), cad).index == (1, 1)
    assert locate_point((1, 0), cad).index == (4, 2)
    # just above the upper arc: 7/8 > sqrt(3)/2
    assert locate_point((F(1, 2), F(7, 8)), cad).index == (3, 5)


def test_locate_point_round_trip():
    for cad in (cad_full([CIRCLE], O2),
                cad_full([Z3 * Y3 - X3**2], O3)):
        hit = 0
        for c in cad.cells:
            pv = [co.point_value() for co in c.sample.coords]
            if any(v is None for v in pv):
                continue
            hit += 1
            assert locate_point(pv, cad).index == c.index
        assert hit > 0


def test_locate_point_wrong_arity():
    cad = cad_full([CIRCLE], O2)
    with pytest.raises(ValueError):
        locate_point((0,), cad)


def test_locate_point_near_algebraic_section():
    # roots of y^2 - 2 never collapse to rationals; a rational poke
    # inside the isolating box must land index-adjacent to the section
    cad = cad_full([Y2**2 - 2], O2)
    section = next(c for c in cad.cells if c.index == (1, 4))
    coord = section.sample.coords[1]
    assert coord.point_value() is None
    refine(coord, F(1, 4096))
    approx = (coord.box()[0] + coord.box()[1]) / 2
    found = locate_point((0, approx), cad)
    assert found.index[0] == 1
    assert abs(found.index[1] - 4) <= 1


def _sqrt2():
    return RootOfCoordinate(X1**2 - 2, (1, 2))


def test_cmp_root_to_rational_is_bounded(monkeypatch):
    # a rational at an end of a proper isolating interval is not the
    # root, which lies inside: it is decided from the box as it stands
    root = _sqrt2()
    assert _cmp_root_to_rational(root, F(1)) == 1
    assert _cmp_root_to_rational(root, F(2)) == -1
    assert root.box() == (1, 2)
    # a rational within 2^-600 of sqrt(2) is decided by the signs of the
    # defining polynomial at it and at the box's low end, with no
    # bisection
    signs, bisections = [], []
    defining_sign = algnum._defining_sign
    k = 600
    below = F(math.isqrt(2 * 4**k), 2**k)
    with monkeypatch.context() as m:
        m.setattr(algnum, "_defining_sign", lambda c, u, v: (
            signs.append((u, v)) or defining_sign(c, u, v)))
        m.setattr(algnum, "_bisect_once", bisections.append)
        for x, want in ((below, 1), (below + F(1, 2**k), -1)):
            signs.clear()
            root = _sqrt2()
            assert _cmp_root_to_rational(root, x) == want
            assert len(signs) <= 2 and root.box() == (1, 2)
    assert bisections == []
    # exact ties: a rational coordinate, a root found at a point inside
    # its box, and a root whose box has collapsed
    assert _cmp_root_to_rational(RationalCoordinate(F(2)), F(2)) == 0
    two = RootOfCoordinate(X1**2 - 4, (1, 3))
    assert _cmp_root_to_rational(two, F(2)) == 0
    assert two.box() == (1, 3)
    refine(two, 1)
    assert two.box() == (2, 2)
    assert _cmp_root_to_rational(two, F(2)) == 0


def _points_on_sections(cad, pt):
    # pt with one coordinate moved onto each rational root of the stack
    # over pt's cell below it
    cell = locate_point(pt, cad)
    out = []
    for j in range(cad.order.n):
        for c in cadcore._stack_roots(cad, cell.index[:j], pt[:j]):
            if c.point_value() is not None:
                out.append(pt[:j] + (c.point_value(),) + pt[j + 1:])
    return out


def _location_problems():
    runs = [(GOLDEN_EXTRA[nm][0], RunConfig()) if nm in GOLDEN_EXTRA
            else _EXAMPLES[nm][:2] for nm in sorted(GOLDEN_JSON)]
    runs += [(_random_problem(seed), RunConfig(method=method))
             for seed in range(40) if seed != 17
             for method in ("mccallum", "collins")]
    return runs


def test_locate_point_matches_bisecting_route(monkeypatch):
    # locate_point places roots against rationals by one sign; placing
    # them by bisection finds the same cells, on the golden problems and
    # on seeds 0-39 without 17 under both operators, at every all-rational
    # sample, at seeded random points and at points moved onto sections.
    # No comparison with a rational bisects or opens a separation budget
    rng = random.Random(25)
    inside = []
    cmp_root_to_rational = cadcore._cmp_root_to_rational

    def watched(coord, x):
        inside.append(True)
        try:
            return cmp_root_to_rational(coord, x)
        finally:
            inside.pop()

    def forbidden(fn):
        def check(*args):
            assert not inside, fn.__name__
            return fn(*args)
        return check

    on_sections = located = 0
    for text, cfg in _location_problems():
        order, polys = parse_input(text)
        cad = cad_full(polys, order, cfg.method, final_oi=cfg.final_oi)
        n = order.n
        pts = [tuple(co.point_value() for co in c.sample.coords)
               for c in cad.cells]
        pts = [pt for pt in pts if None not in pt]
        drawn = [tuple(F(rng.randint(-4 * q, 4 * q), q)
                       for q in (rng.randint(1, 8) for _ in range(n)))
                 for _ in range(12)]
        pts += drawn
        for pt in drawn:
            pts += _points_on_sections(cad, pt)
        with monkeypatch.context() as m:
            m.setattr(cadcore, "_cmp_root_to_rational", watched)
            for name in ("_bisect_once", "_separation_budget"):
                m.setattr(algnum, name, forbidden(getattr(algnum, name)))
            got = [locate_point(pt, cad).index for pt in pts]
        twin = copy.deepcopy(cad)
        with monkeypatch.context() as m:
            bisecting_point_location(m)
            want = [locate_point(pt, twin).index for pt in pts]
        assert got == want, text
        located += len(got)
        on_sections += sum(1 for idx in got if any(e % 2 == 0 for e in idx))
    assert located > 8000 and on_sections > 5000


def test_separate_gap_is_bounded():
    # two coordinate objects for the same irrational root never separate
    t0 = time.perf_counter()
    with pytest.raises(IntegrityError, match="do not separate"):
        cadcore._separate_gap([_sqrt2(), _sqrt2()], 1)
    assert time.perf_counter() - t0 < 1
    # distinct roots do, and the gap lies between their boxes
    lo, hi = cadcore._separate_gap(
        [RootOfCoordinate(X1**2 - 2, (0, 3)),
         RootOfCoordinate(X1**2 - 3, (0, 3))], 1)
    assert lo[1] > 0 and hi[1] > 0
    assert F(141, 100) < F(*lo) < F(*hi) < F(174, 100)


def test_random_in_gap_matches_fraction_reference():
    # every gap of every stack met while probing the full-dimensional
    # cells: the probe worked out on integer ends is the rational the
    # Fraction route draws, from the same draws of the generator
    problems = [([CIRCLE], O2), ([X1**2 + 1], O1), ([X1**2 - 2], O1)]
    problems += [parse_input(_random_problem(seed))[::-1]
                 for seed in (0, 3, 8)]
    kinds = set()
    for polys, order in problems:
        cad = cad_full(polys, order)
        for cell in cad.cells:
            if cell.dimension() != order.n:
                continue
            vals = []
            for j, entry in enumerate(cell.index):
                coords = cadcore._stack_roots(cad, cell.index[:j], vals)
                i = (entry - 1) // 2
                kinds.add((i > 0, i < len(coords)))
                for seed in range(3):
                    r1, r2 = random.Random(seed), random.Random(seed)
                    got = cadcore._random_in_gap(coords, i, r1)
                    assert got == reference_random_in_gap(coords, i, r2)
                    assert r1.getstate() == r2.getstate()
                vals.append(got)
    assert kinds == {(False, False), (False, True), (True, False),
                     (True, True)}


def test_sign_invariance_circle():
    cad = cad_full([CIRCLE], O2)
    rep = verify_sign_invariance(cad, [CIRCLE])
    assert rep.ok and bool(rep)
    assert rep.cells_checked == 13
    # 5 full-dimensional cells x 16 points
    assert rep.points_checked == 80


def test_sign_invariance_signs_only_probed_cells(monkeypatch):
    polys = [CIRCLE, Y2 - X2]
    cad = cad_full(polys, O2)
    # probes are signed by sign_at too; count the signs at the cells'
    # own samples, which are the reference signs
    owner = {id(c.sample): c for c in cad.cells}
    calls = []

    def counting_sign_at(p, s):
        if id(s) in owner:
            calls.append(owner[id(s)])
        return sign_at(p, s)

    monkeypatch.setattr(cadcore, "sign_at", counting_sign_at)
    rep = verify_sign_invariance(cad, polys, samples_per_cell=2)
    assert rep.ok
    full = sum(1 for c in cad.cells if c.dimension() == 2)
    assert 0 < full < len(cad.cells)
    assert len(calls) == full * len(polys)
    assert all(c.dimension() == 2 for c in calls)


def test_sign_invariance_matches_fraction_probes(monkeypatch):
    # the oracle draws its probes on integers and signs them by sign_at;
    # drawing and evaluating them on Fractions gives the same reports,
    # counterexamples included, on
    # seeds 0-39 without 17 under both operators, for the inputs alone
    # and with x - 1 and x^2 - 3 planted (156 runs)
    reports = []
    for seed in range(40):
        if seed == 17:
            continue
        order, polys = parse_input(_random_problem(seed))
        x = MultiPoly.var(order, "x")
        for method in ("mccallum", "collins"):
            cad = cad_full(polys, order, method)
            for checked in (polys, polys + [x - 1, x**2 - 3]):
                got = verify_sign_invariance(cad, checked, 2, seed)
                with monkeypatch.context() as m:
                    fraction_probe_signs(m)
                    m.setattr(cadcore, "_random_in_gap",
                              reference_random_in_gap)
                    want = verify_sign_invariance(cad, checked, 2, seed)
                assert got == want, (seed, method)
                reports.append(got)
    assert len(reports) == 156
    failed = [r for r in reports if not r.ok]
    assert len(failed) == 78
    assert all(len(r.counterexample[1]) == 3 for r in failed)


def test_sign_invariance_catches_missing_polynomial():
    cad = cad_full([X1], O1)
    rep = verify_sign_invariance(cad, [X1 - 1])
    assert not rep.ok
    idx, point, poly = rep.counterexample
    assert idx == (3,)
    assert poly == X1 - 1
    assert point[0] > 0


def test_sign_invariance_probes_near_outermost_root():
    # 2x - 1 and 2x + 1 change sign within 1 of the root x = 0, in the
    # unbounded cells above and below it; probes must reach that close
    cad = cad_full([X1], O1)
    for poly, cell, side in ((2 * X1 - 1, (3,), 1), (2 * X1 + 1, (1,), -1)):
        rep = verify_sign_invariance(cad, [poly], samples_per_cell=64)
        assert not rep.ok
        idx, point, got = rep.counterexample
        assert idx == cell and got == poly
        assert 0 < side * point[0] <= F(1, 2)


def test_sign_invariance_vacuous():
    cad = cad_full([CIRCLE], O2)
    assert verify_sign_invariance(cad, []).ok


@pytest.mark.parametrize("count", [0, -1])
def test_sign_invariance_refuses_no_probes(count):
    # a sweep with no probe would report ok having checked nothing
    cad = cad_full([X2 * Y2 - 1], O2)
    with pytest.raises(ValueError, match="at least 1"):
        verify_sign_invariance(cad, [X2 * Y2 - 1], samples_per_cell=count)


def test_cylindricity_circle():
    cad = cad_full([CIRCLE], O2)
    rep = check_cylindricity(cad)
    assert rep.ok
    assert rep.prefix_counts == (5, 13)


def test_cylindricity_univariate():
    cad = cad_full([X1], O1)
    assert len(cad.cells) == 3
    rep = check_cylindricity(cad)
    assert rep.ok and rep.prefix_counts == (3,)


def _dummy_cell(idx):
    return Cell(idx, SamplePoint(
        tuple(RationalCoordinate(F(0)) for _ in idx)))


def test_stack_maps():
    cad = cad_full([CIRCLE], O2)
    # over the sector x in (-1, 1) the circle cuts the line twice
    assert cad.section_polys((3,)) == (CIRCLE, CIRCLE)
    assert cad.section_polys((1,)) == ()
    assert len(cad.section_polys(())) == 2
    assert cad.cell_at((3, 3)).index == (3, 3)
    assert cad.cell_at((3, 7)) is None
    # a CAD assembled by hand from the same cells answers the same way
    roots = {prefix: stack.roots for prefix, stack in cad.stacks.items()}
    again = cad_from_cells(cad.order, cad.cells, roots, cad.method,
                           cad.final_oi)
    assert again.section_polys((3,)) == cad.section_polys((3,))
    for pt in ((0, 0), (-2, 5), (1, 0), (F(1, 2), F(7, 8))):
        assert locate_point(pt, again).index == locate_point(pt, cad).index


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_stack_refs_pin_their_sections(name):
    # every stack of the golden CADs: one RootRef per section, each
    # polynomial's ordinals 1..m bottom to top, zero at the section and
    # nonzero at both neighbouring sectors, and section_polys reads them
    text, cfg = (GOLDEN_EXTRA[name][0], RunConfig()) if name in GOLDEN_EXTRA \
        else _EXAMPLES[name][:2]
    order, polys = parse_input(text)
    cad = cad_full(polys, order, cfg.method, final_oi=cfg.final_oi)
    assert check_stack_refs(cad) > 0


def _crossing_cad():
    # hand-built: over the single sector x in R the stack claims y - x
    # below y + x - 2, which holds at the sample x = 0 but not at x = 1,
    # where both vanish at y = 1
    return _two_section_cad(Y2 - X2, Y2 + X2 - 2)


def _two_section_cad(below, above):
    # hand-built: over the single sector x in R the stack claims one root
    # of `below` under one root of `above`
    fiber = SamplePoint((RationalCoordinate(F(0)),
                         RationalCoordinate(F(0))))
    cells = tuple(Cell((1, k), fiber) for k in range(1, 6))
    roots = {(): (), (1,): (RootRef(below, 1), RootRef(above, 1))}
    return cad_from_cells(O2, cells, roots)


def test_broken_stack_raises_integrity_error(monkeypatch):
    cad = _crossing_cad()
    assert cad.section_polys((1,)) == (Y2 - X2, Y2 + X2 - 2)
    assert locate_point((0, 1), cad).index == (1, 3)
    with pytest.raises(IntegrityError, match="2 sections but 1 roots"):
        locate_point((1, 5), cad)
    # the oracle's descent goes through the same check
    monkeypatch.setattr(cadcore, "_random_in_gap",
                        lambda coords, i, rng: F(1))
    with pytest.raises(IntegrityError, match="2 sections but 1 roots"):
        cadcore._random_interior_point(cad, cad.cells[2], random.Random(0))


def test_section_vanishing_at_query_fiber_raises_integrity_error():
    # (x - 1)*y vanishes identically over x = 1: the fiber basis sets it
    # aside, and the stack's count of roots there falls short
    cad = _two_section_cad((X2 - 1) * Y2, Y2 - 1)
    assert locate_point((0, 5), cad).index == (1, 5)
    with pytest.raises(IntegrityError, match="2 sections but 1 roots"):
        locate_point((1, 5), cad)


def test_out_of_order_stack_raises_integrity_error():
    # the lines y = 1 and y = -1 never meet, so the resultant certificate
    # holds and the roots come in the order the CAD lists them: a point
    # between them reads above the first and below the second
    cad = _two_section_cad(Y2 - 1, Y2 + 1)
    with pytest.raises(IntegrityError, match="out of order"):
        locate_point((0, 0), cad)
    assert locate_point((0, 5), cad).index == (1, 5)
    # the oracle's descent finds no gap between the two roots either
    with pytest.raises(IntegrityError, match="do not separate"):
        cadcore._random_interior_point(cad, cad.cells[2], random.Random(0))


def test_stack_root_counts_are_checked_per_section_polynomial():
    # one root listed for two sections, and two roots for one section:
    # neither stack is read in the CAD's order, and the sorted route
    # reports the mismatch
    for below, above, roots in ((Y2 + 2, Y2 + 2, 1),
                                (Y2**2 - 1, Y2 + 2, 3)):
        cad = _two_section_cad(below, above)
        with pytest.raises(IntegrityError,
                           match="2 sections but %d roots" % roots):
            locate_point((0, 0), cad)


def _recording_section_order(monkeypatch):
    # whether each stack a descent reads took the sorted path
    section_order = cadcore._section_order
    took_sorted = []

    def recording(refs, isolated):
        coords = section_order(refs, isolated)
        took_sorted.append(coords is None)
        return coords

    monkeypatch.setattr(cadcore, "_section_order", recording)
    return took_sorted


def test_zero_certificate_falls_back_to_sorted_roots(monkeypatch):
    # the upper section polynomial keeps one simple real root, y = 1, but
    # at x = 0, on the zero set of its discriminant, the complex roots
    # +-i become double: f is not squarefree there, the separable basis
    # flattens it, and that stack's roots come sorted.  At x = 1 f is
    # squarefree and coprime to y + 2, and the roots come in the CAD's
    # section order
    f = (Y2 - 1) * ((Y2**2 + 1)**2 + X2**2)
    cad = _two_section_cad(Y2 + 2, f)
    took_sorted = _recording_section_order(monkeypatch)
    assert locate_point((0, 0), cad).index == (1, 3)
    assert locate_point((0, 1), cad).index == (1, 4)
    assert locate_point((1, 1), cad).index == (1, 4)
    assert locate_point((-1, 3), cad).index == (1, 5)
    assert took_sorted == [True, True, False, False]


def test_long_coefficients_split_at_zero():
    # the roots +-sqrt(2)/(10^160 - 1) are isolated on either side of the
    # split point 0: the oracle bisects them about 530 times before their
    # boxes come apart, and 0, an end of both boxes, is decided as it is
    order, polys = parse_input("vars: x\n(" + "9" * 160 + "*x)^2 - 2\n")
    cad = cad_full(polys, order)
    assert len(cad.cells) == 5
    rep = verify_sign_invariance(cad, polys, samples_per_cell=4, seed=0)
    assert rep.ok and rep.points_checked == 12
    for k, entry in ((-20, 1), (-14, 3), (-13, 3), (0, 3), (13, 3), (15, 5)):
        assert locate_point((F(k, 10**161),), cad).index == (entry,)


def _query_points(rng, count, radius):
    # rational points in [-6, 6]^3; every fourth lies exactly on the
    # sphere of the given radius (rational stereographic parametrisation)
    pts = []
    for i in range(count):
        if i % 4 == 3:
            u = F(rng.randint(-12, 12), rng.randint(1, 6))
            v = F(rng.randint(-12, 12), rng.randint(1, 6))
            d = 1 + u * u + v * v
            pts.append((2 * radius * u / d, 2 * radius * v / d,
                        radius * (u * u + v * v - 1) / d))
        else:
            pts.append(tuple(F(rng.randint(-6 * q, 6 * q), q)
                             for q in (rng.randint(1, 16) for _ in "xyz")))
    return pts


def _descents(cad, polys, pts):
    # located indices and one oracle sweep, on a fresh copy of the CAD
    # (the oracle refines sample intervals in place)
    cad = copy.deepcopy(cad)
    located = [locate_point(pt, cad).index for pt in pts]
    rep = verify_sign_invariance(cad, polys, samples_per_cell=1, seed=7)
    return located, rep.ok, rep.points_checked


# the three CADs the bench builds, with the radius of their sphere
_BENCH_CADS = pytest.mark.parametrize("polys, method, radius", [
    ([X3**2 + Y3**2 + Z3**2 - 4, X3 * Y3 + Z3**2 - 1], "mccallum", 2),
    ([X3**2 + Y3**2 + Z3**2 - 1, X3 + Y3 + Z3], "mccallum", 1),
    ([X3**2 + Y3**2 + Z3**2 - 1, X3 + Y3 + Z3], "collins", 1),
], ids=["sphere-saddle", "sphere-plane", "sphere-plane-collins"])


@_BENCH_CADS
def test_certified_stack_roots_match_sorted_route(monkeypatch, polys,
                                                  method, radius):
    cad = cad_full(polys, O3, method)
    pts = _query_points(random.Random(radius), 48, radius)
    with monkeypatch.context() as m:
        took_sorted = _recording_section_order(m)
        got = _descents(cad, polys, pts)
        force_sorted_stack_roots(m)
        want = _descents(cad, polys, pts)
    assert got == want
    assert got[1] and got[2] > 0
    assert 2 * sum(took_sorted) < len(took_sorted)


def test_sphere_saddle_query_stacks_take_section_order(monkeypatch):
    polys = [X3**2 + Y3**2 + Z3**2 - 4, X3 * Y3 + Z3**2 - 1]
    cad = cad_full(polys, O3)
    took_sorted = _recording_section_order(monkeypatch)
    _descents(cad, polys, _query_points(random.Random(2), 48, 2))
    assert took_sorted and not any(took_sorted)


@pytest.mark.parametrize("seed", [0, 5, 6, 9, 11, 12])
def test_certified_stack_roots_match_sorted_route_random(monkeypatch, seed):
    rng = random.Random(seed)
    for method in ("mccallum", "collins"):
        order, polys = parse_input(_random_problem(seed))
        cad = cad_full(polys, order, method)
        # every all-rational sample point hits its own cell exactly
        pts = [tuple(co.point_value() for co in c.sample.coords)
               for c in cad.cells]
        pts = [pt for pt in pts if None not in pt]
        pts += [tuple(F(rng.randint(-4 * q, 4 * q), q)
                      for q in (rng.randint(1, 8) for _ in "xyz"))
                for _ in range(24)]
        got = _descents(cad, polys, pts)
        with monkeypatch.context() as m:
            force_sorted_stack_roots(m)
            want = _descents(cad, polys, pts)
        assert got == want
        assert got[1]


def test_base_stack_is_read_off_the_tree(monkeypatch):
    cad = cad_full([X2**2 + Y2**2 - 2], O2)
    isolated = cadcore._isolated_stack_roots
    calls = []

    def counting(cad, prefix, vals):
        calls.append(prefix)
        return isolated(cad, prefix, vals)

    monkeypatch.setattr(cadcore, "_isolated_stack_roots", counting)
    own = [c.sample.coords[0] for c in cad.stacks[()].cells[1::2]]
    roots = cadcore._stack_roots(cad, (), [])
    assert len(roots) == 2 and all(c.point_value() is None for c in roots)
    # the base stack's roots are the section cells' own objects, and the
    # cells above share them
    assert all(a is b for a, b in zip(roots, own))
    assert all(c.sample.coords[0] is own[(c.index[0] - 2) // 2]
               for c in cad.cells if c.index[0] % 2 == 0)
    boxes = [c.box() for c in own]
    for pt in ((0, 0), (2, 1), (F(-7, 5), F(1, 3)), (F(-141, 100), 0)):
        locate_point(pt, cad)
    # locating places each root against a rational by one sign and
    # leaves every working box as it was
    assert [c.box() for c in own] == boxes
    assert verify_sign_invariance(cad, [X2**2 + Y2**2 - 2]).ok
    assert calls and () not in calls
    # the oracle's gap separation may narrow the shared working boxes,
    # never the isolating intervals
    assert all(i[0] <= c.box()[0] <= c.box()[1] <= i[1]
               for c, i in zip(own, [(-4, 0), (0, 4)]))
    assert [c.isolated for c in own] == [(-4, 0), (0, 4)]
    # a deep copy owns its tree: bisecting one copy's base sections
    # leaves the other's roots as they were
    twin = copy.deepcopy(cad)
    boxes = [c.box() for c in cadcore._stack_roots(cad, (), [])]
    for c in twin.stacks[()].cells[1::2]:
        refine(c.sample.coords[0], F(1, 2**30))
    assert [c.box() for c in cadcore._stack_roots(cad, (), [])] == boxes
    assert [c.box() for c in cadcore._stack_roots(twin, (), [])] != boxes


def test_locate_point_without_stacks_raises_integrity_error():
    # a CAD built without its stack tree has no base stack to descend
    cell = Cell((1,), SamplePoint((RationalCoordinate(F(0)),)))
    cad = CAD(VarOrder(["x"]), "mccallum", False, (cell,))
    with pytest.raises(IntegrityError, match="no base stack"):
        locate_point((0,), cad)


def _tree_leaves(cad, prefix=()):
    out = []
    for c in cad.stacks[prefix].cells:
        out.extend(_tree_leaves(cad, c.index) if c.index in cad.stacks
                   else [c])
    return out


def _check_tree_against_flat_scan(cad):
    # every prefix and index the cells carry, and a few they do not,
    # read the same off the tree as off a scan of the flat cell list,
    # and the refs of every stack pin its sections
    sections, by_index = flat_stack_maps(cad.cells)
    check_stack_refs(cad)
    assert tuple(_tree_leaves(cad)) == cad.cells
    assert all(len(c.index) == cad.order.n for c in cad.cells)
    prefixes = {c.index[:j] for c in cad.cells
                for j in range(cad.order.n + 1)}
    probes = set(prefixes)
    for idx in prefixes:
        if idx:
            probes.update({idx[:-1] + (idx[-1] + 2,), idx[:-1] + (0,),
                           idx + (1,)})
    for pre in probes:
        assert len(cad.section_polys(pre)) == sections.get(pre, 0)
        assert cad.section_polys(list(pre)) == cad.section_polys(pre)
        assert cad.cell_at(pre) is by_index.get(pre)
        assert cad.cell_at(list(pre)) is by_index.get(pre)
    return len(probes)


@_BENCH_CADS
def test_stack_tree_matches_flat_scan(polys, method, radius):
    cad = cad_full(polys, O3, method)
    assert _check_tree_against_flat_scan(cad) > len(cad.cells)


def test_stack_tree_matches_flat_scan_random():
    for seed in range(40):
        if seed == 17:
            continue
        order, polys = parse_input(_random_problem(seed))
        for method in ("mccallum", "collins"):
            cad = cad_full(polys, order, method)
            assert _check_tree_against_flat_scan(cad) > len(cad.cells)


@_BENCH_CADS
def test_cached_base_stack_matches_fresh_isolation(monkeypatch, polys,
                                                   method, radius):
    cad = cad_full(polys, O3, method)
    pts = _query_points(random.Random(radius + 10), 48, radius)
    got = _descents(cad, polys, pts)
    with monkeypatch.context() as m:
        uncached_base_stack(m)
        want = _descents(cad, polys, pts)
    assert got == want
    assert got[1] and got[2] > 0


@pytest.mark.parametrize("seed", [0, 6, 11])
def test_cached_base_stack_matches_fresh_isolation_random(monkeypatch, seed):
    rng = random.Random(seed)
    for method in ("mccallum", "collins"):
        order, polys = parse_input(_random_problem(seed))
        cad = cad_full(polys, order, method)
        pts = [tuple(F(rng.randint(-4 * q, 4 * q), q)
                     for q in (rng.randint(1, 8) for _ in "xyz"))
               for _ in range(24)]
        got = _descents(cad, polys, pts)
        with monkeypatch.context() as m:
            uncached_base_stack(m)
            want = _descents(cad, polys, pts)
        assert got == want
        assert got[1]


def test_cylindricity_rejects_duplicates():
    bad = CAD(O1, "mccallum", False,
              (_dummy_cell((1,)), _dummy_cell((1,))))
    rep = check_cylindricity(bad)
    assert not rep.ok
    assert any("duplicate" in p for p in rep.problems)


def test_cylindricity_rejects_even_stack():
    bad = CAD(O1, "mccallum", False,
              (_dummy_cell((1,)), _dummy_cell((2,))))
    rep = check_cylindricity(bad)
    assert not rep.ok
    assert any("even length" in p for p in rep.problems)


def test_random_cads_pass_oracles():
    rng = random.Random(31337)
    done = 0
    while done < 8:
        fs = []
        for _ in range(rng.randint(1, 2)):
            f = random_poly(rng, O2, max_deg=2, max_coeff=3,
                            n_terms=3, nonzero=True)
            if not f.is_constant():
                fs.append(f)
        if not fs:
            continue
        method = "mccallum" if done % 2 == 0 else "collins"
        cad = cad_full(fs, O2, method)
        assert check_cylindricity(cad).ok
        rep = verify_sign_invariance(cad, fs, samples_per_cell=4,
                                     seed=done)
        assert rep.ok, rep.counterexample
        for c in cad.cells:
            pv = [co.point_value() for co in c.sample.coords]
            if all(v is not None for v in pv):
                assert locate_point(pv, cad).index == c.index
        done += 1
