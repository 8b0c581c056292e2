"""Tests for full-pipeline composition and the verification oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from projcad.algnum import refine
from projcad.cadcore import (
    IntegrityError,
    cad_full,
    check_cylindricity,
    locate_point,
    verify_sign_invariance,
)
from projcad.lifting import CAD, Cell, NotWellOrientedError
from projcad.polyring import MultiPoly, VarOrder
from projcad.algnum import RationalCoordinate, SamplePoint

from helpers import random_poly

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


def test_sign_invariance_circle():
    cad = cad_full([CIRCLE], O2)
    rep = verify_sign_invariance(cad, [CIRCLE])
    assert rep.ok and bool(rep)
    assert rep.cells_checked == 13
    # 5 full-dimensional cells x 16 points
    assert rep.points_checked == 80


def test_sign_invariance_catches_missing_polynomial():
    cad = cad_full([X1], O1)
    rep = verify_sign_invariance(cad, [X1 - 1])
    assert not rep.ok
    idx, point, poly = rep.counterexample
    assert idx == (3,)
    assert poly == X1 - 1
    assert point[0] > 0


def test_sign_invariance_vacuous():
    cad = cad_full([CIRCLE], O2)
    assert verify_sign_invariance(cad, []).ok


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
        tuple(RationalCoordinate(F(0)) for _ in idx)), ())


def test_stack_maps():
    cad = cad_full([CIRCLE], O2)
    # over the sector x in (-1, 1) the circle cuts the line twice
    assert cad.section_polys((3,)) == (CIRCLE, CIRCLE)
    assert cad.section_polys((1,)) == ()
    assert len(cad.section_polys(())) == 2
    assert cad.cell_at((3, 3)).index == (3, 3)
    assert cad.cell_at((3, 7)) is None
    # a CAD assembled by hand from the same cells answers the same way
    again = CAD(cad.order, cad.method, cad.final_oi, cad.cells)
    assert again.section_polys((3,)) == cad.section_polys((3,))
    for pt in ((0, 0), (-2, 5), (1, 0), (F(1, 2), F(7, 8))):
        assert locate_point(pt, again).index == locate_point(pt, cad).index


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
