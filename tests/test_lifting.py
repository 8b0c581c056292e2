"""Tests for stack construction, nullification handling, and lifting."""

from __future__ import annotations

from fractions import Fraction

import pytest

from projcad import algnum, lifting
from projcad.algnum import (
    RationalCoordinate,
    RootOfCoordinate,
    SamplePoint,
    fiber_gcd,
    roots_over_cell,
    sign_at,
)
from projcad.lifting import (
    Cell,
    NotWellOrientedError,
    RootRef,
    cad_lifting,
    generate_stack,
    is_nullified,
    minimal_delineating_polynomial,
)
from projcad.polyring import MultiPoly, VarOrder
from projcad.projection import cad_projection

O2 = VarOrder(["x", "y"])
O3 = VarOrder(["x", "y", "z"])
O4 = VarOrder(["x", "y", "z", "w"])

F = Fraction

X2, Y2 = (MultiPoly.var(O2, v) for v in "xy")
X3, Y3, Z3 = (MultiPoly.var(O3, v) for v in "xyz")
X4, Y4, Z4, W4 = (MultiPoly.var(O4, v) for v in "xyzw")

CIRCLE = Y2**2 + X2**2 - 1


def _fiber(*vals):
    return SamplePoint(tuple(RationalCoordinate(F(v)) for v in vals))


def _root_cell():
    return Cell((), SamplePoint(()))


# ---------------------------------------------------------------------------
# the separable basis behind a stack (roots_over_cell's owners)


def test_make_separable_squarefree():
    sections, _, owners = roots_over_cell([Y2**2], _fiber(0))
    assert [c.point_value() for c in sections] == [0]
    assert owners == [Y2]


def test_make_separable_shared_root():
    # both vanish exactly at y = 0 over x = 0
    sections, _, owners = roots_over_cell([Y2**2 - X2, Y2 - X2], _fiber(0))
    assert len(sections) == 1
    g = owners[0]
    assert g.degree("y") == 1
    assert sign_at(g, _fiber(0, 0)) == 0


def test_make_separable_already_separable():
    _, _, owners = roots_over_cell([Y2 - 1, Y2 + 1], _fiber(0))
    assert owners == [Y2 + 1, Y2 - 1]


def test_make_separable_drops_fiber_constants():
    assert roots_over_cell([X2 * Y2 + 1], _fiber(0)) == ([], [F(0)], [])


def test_make_separable_splits_partial_overlap():
    # y(y-1) and y(y+1) share only the root y = 0
    f = Y2 * (Y2 - 1)
    g = Y2 * (Y2 + 1)
    sections, _, owners = roots_over_cell([f, g], _fiber(5))
    assert [c.point_value() for c in sections] == [-1, 0, 1]
    # three pairwise-coprime pieces, each owning one of the roots
    assert len(set(owners)) == 3
    for p in owners:
        for q in owners:
            if p is not q:
                assert fiber_gcd(p, q, "y", _fiber(5)).degree("y") == 0
    for c, p in zip(sections, owners):
        assert sign_at(p, _fiber(5, c.point_value())) == 0


def test_make_separable_sets_nullified_aside():
    # x*y vanishes identically over x = 0: the circle's stack there is
    # the one it has without x*y
    assert roots_over_cell([X2 * Y2], _fiber(0)) == ([], [F(0)], [])
    got = roots_over_cell([CIRCLE, X2 * Y2], _fiber(0))
    want = roots_over_cell([CIRCLE], _fiber(0))
    assert [c.isolated for c in got[0]] == [c.isolated for c in want[0]]
    assert [c.point_value() for c in got[0]] == [-1, 1]
    assert got[1:] == want[1:]


# ---------------------------------------------------------------------------
# stacks


def test_generate_stack_circle_sector():
    base = Cell((3,), _fiber(0))
    stack = generate_stack(base, [CIRCLE])
    assert len(stack.cells) == 5
    assert [c.index for c in stack.cells] == [
        (3, 1), (3, 2), (3, 3), (3, 4), (3, 5)]
    # sections pin y to the circle's roots, sectors sit strictly between
    assert stack.roots == (RootRef(CIRCLE, 1), RootRef(CIRCLE, 2))
    for c in stack.cells:
        assert len(c.sample) == 2
        if c.index[-1] % 2 == 0:
            assert sign_at(CIRCLE, c.sample) == 0
        else:
            assert sign_at(CIRCLE, c.sample) != 0


def test_generate_stack_circle_tangent_fiber():
    base = Cell((2,), _fiber(-1))
    stack = generate_stack(base, [CIRCLE])
    assert len(stack.cells) == 3
    mid = stack.cells[1]
    assert mid.index == (2, 2)
    assert mid.sample.coords[1].point_value() == 0
    # the circle degenerates to y^2 here; the stored section polynomial
    # is the fiber-local squarefree representative
    ref, = stack.roots
    assert ref.ordinal == 1
    assert sign_at(ref.poly, mid.sample) == 0


def test_generate_stack_split_pieces_own_their_sections():
    # over x = 0 both polynomials vanish at y = 1; the stack's sections
    # belong to the split pieces, which stay polynomials in x and y, and
    # each piece counts its own roots
    f = (Y2 - X2 - 1) * (Y2**2 - 2)
    g = (Y2 - X2 - 1) * (Y2 + 3)
    base = Cell((3,), _fiber(0))
    stack = generate_stack(base, [f, g])
    h, q = Y2 - X2 - 1, Y2**2 - 2
    assert stack.roots == (RootRef(Y2 + 3, 1), RootRef(q, 1),
                           RootRef(h, 1), RootRef(q, 2))
    for ref, c in zip(stack.roots, stack.cells[1::2]):
        assert sign_at(ref.poly, c.sample) == 0


def test_generate_stack_no_polynomials():
    stack = generate_stack(_root_cell(), [])
    assert len(stack.cells) == 1
    c = stack.cells[0]
    assert c.index == (1,)
    assert stack.roots == ()
    assert c.sample.coords[0].point_value() == 0


def test_generate_stack_root_refs_count_per_polynomial():
    base = _root_cell()
    stack = generate_stack(base, [X3**2 - 2])
    assert stack.roots == (RootRef(X3**2 - 2, 1), RootRef(X3**2 - 2, 2))
    assert len(stack.cells) == 5


# ---------------------------------------------------------------------------
# nullification and delineating polynomials


def test_is_nullified_frozen():
    assert is_nullified(Z3 * Y3 - X3**2, _fiber(0, 0))
    assert is_nullified(Z3 * Y3 - X3, _fiber(0, 0))
    assert not is_nullified(Z3 * Y3 - X3**2, _fiber(0, 1))
    assert not is_nullified(Z3 * Y3 - X3**2, _fiber(1, 0))


def test_minimal_delineating_frozen():
    s = _fiber(0, 0)
    assert minimal_delineating_polynomial(Z3 * Y3 - X3**2, s) == Z3
    assert minimal_delineating_polynomial(Z3 * Y3 - X3, s) is None
    assert minimal_delineating_polynomial(Z3**2 * Y3 - X3**2, s) == Z3
    # the partial in x, y*z + 1, is the nonzero constant 1 over (0, 0)
    assert minimal_delineating_polynomial(X3 * Y3 * Z3 + X3 + Y3**2, s) is None


def test_minimal_delineating_requires_nullified():
    with pytest.raises(ValueError):
        minimal_delineating_polynomial(Z3 * Y3 - X3**2, _fiber(0, 1))


def test_minimal_delineating_algebraic_point():
    # nullified exactly at (sqrt(2), 0); the replacement must vanish
    # only at z = 0 over that fiber
    p = Y3 * Z3**2 + (X3**2 - 2) * Z3
    sqrt2 = RootOfCoordinate(X3**2 - 2, (1, 2))
    s = SamplePoint((sqrt2, RationalCoordinate(F(0))))
    assert is_nullified(p, s)
    d = minimal_delineating_polynomial(p, s)
    assert d is not None and d.degree("z") == 1
    assert sign_at(d, s.extend(RationalCoordinate(F(0)))) == 0
    assert sign_at(d, s.extend(RationalCoordinate(F(1)))) != 0
    # the partial in x, 2*x*y*z + 2*x, is the nonzero constant 2*sqrt(2)
    # once y = 0 is substituted: no replacement is needed
    q = (X3**2 - 2) * Y3 * Z3 + X3**2 - 2 + Y3**2
    assert is_nullified(q, s)
    assert minimal_delineating_polynomial(q, s) is None


def test_minimal_delineating_flattens_a_squared_factor():
    # over x = 0 the gcd of the surviving partials, (y - 1)^2 (y + 2) up
    # to a constant, is flattened to its squarefree part
    assert minimal_delineating_polynomial(
        X2 * (Y2 - 1)**2 * (Y2 + 2), _fiber(0)) == Y2**2 + Y2 - 2
    # over x = sqrt(2) the square of y - x is flattened at an algebraic
    # point: the replacement has degree 1 in y and one root there, the
    # root of y - x, which owns the one section both give
    s = SamplePoint((RootOfCoordinate(X2**2 - 2, (1, 2)),))
    d = minimal_delineating_polynomial((X2**2 - 2) * (Y2 - X2)**2, s)
    assert d is not None and d.degree("y") == 1
    sections, _, owners = roots_over_cell([d, Y2 - X2], s)
    assert len(sections) == 1 and owners == [Y2 - X2]


# ---------------------------------------------------------------------------
# full lifting


def test_lifting_circle_both_methods():
    for method in ("mccallum", "collins"):
        cad = cad_lifting(cad_projection([CIRCLE], O2, method))
        assert len(cad.cells) == 13
        assert cad.warnings == ()
        by_base = {}
        for c in cad.cells:
            by_base.setdefault(c.index[0], []).append(c.index[1])
        assert {k: len(v) for k, v in by_base.items()} == {
            1: 1, 2: 3, 3: 5, 4: 3, 5: 1}
        for v in by_base.values():
            assert v == list(range(1, len(v) + 1))


def test_lifting_final_oi_split():
    P = cad_projection([Z3 * Y3 - X3**2], O3, "mccallum")
    cad21 = cad_lifting(P)
    assert len(cad21.cells) == 21
    assert cad21.delineations == ()
    cad23 = cad_lifting(P, final_oi=True)
    assert len(cad23.cells) == 23
    assert len(cad23.delineations) == 1
    idx, p, d = cad23.delineations[0]
    assert idx == (2, 2)
    assert p == Z3 * Y3 - X3**2
    assert d == Z3
    # the repair is local: the projection levels are untouched
    assert cad23.levels.level(3) == (Z3 * Y3 - X3**2,)
    assert Z3 not in cad23.levels.level(3)


def test_lifting_four_variable_delineation():
    f = W4**2 + Z4 * Y4 - X4**2
    cad = cad_lifting(cad_projection([f], O4, "mccallum"))
    assert len(cad.cells) == 73
    assert cad.warnings == ()
    assert [(idx, d) for idx, _, d in cad.delineations] == [((2, 2), Z4)]


def test_lifting_warning_on_positive_dimensional_nullification():
    f = Y4 * W4 + X4
    P = cad_projection([f], O4, "mccallum")
    cad = cad_lifting(P, final_oi=True)
    assert [(idx, str(p)) for idx, p in cad.warnings] == [
        ((2, 2, 1), "w*y + x")]
    # the final lift is exempt unless order-invariance was requested
    assert cad_lifting(P).warnings == ()
    with pytest.raises(NotWellOrientedError):
        cad_lifting(P, final_oi=True, strict=True)


def test_lifting_memo_is_bound_for_the_run_only(monkeypatch):
    # within a run every pseudo-remainder is taken with the memo bound,
    # each pair once; the memo is unbound when the run returns or raises
    calls = []
    prem = algnum.prem

    def recording(f, g, var):
        calls.append((f, g, algnum._run_memo.get() is not None))
        return prem(f, g, var)

    monkeypatch.setattr(algnum, "prem", recording)
    sphere_saddle = [X3**2 + Y3**2 + Z3**2 - 4, X3 * Y3 + Z3**2 - 1]
    cad = cad_lifting(cad_projection(sphere_saddle, O3, "mccallum"))
    assert len(cad.cells) == 575
    assert algnum._run_memo.get() is None
    assert len(calls) > 20 and all(bound for _, _, bound in calls)
    assert len({(f, g) for f, g, _ in calls}) == len(calls)
    # a strict run that stops at a nullified polynomial mid-lift
    bound_at_stacks = []
    stack = lifting.generate_stack

    def watching(cell, polys):
        bound_at_stacks.append(algnum._run_memo.get() is not None)
        return stack(cell, polys)

    monkeypatch.setattr(lifting, "generate_stack", watching)
    P = cad_projection([Y4 * W4 + X4], O4, "mccallum")
    with pytest.raises(NotWellOrientedError):
        cad_lifting(P, final_oi=True, strict=True)
    assert len(bound_at_stacks) > 1 and all(bound_at_stacks)
    assert algnum._run_memo.get() is None
    # outside a run every call divides afresh; within a scope, once
    del calls[:]
    s = _fiber(1)
    f, g = Y2**3 - X2 * Y2 + 2, Y2**2 + X2
    want = fiber_gcd(f, g, "y", s)
    n = len(calls)
    assert n > 0
    assert fiber_gcd(f, g, "y", s) == want and len(calls) == 2 * n
    assert not any(bound for _, _, bound in calls)
    with algnum._memo_scope():
        assert fiber_gcd(f, g, "y", s) == want
        assert fiber_gcd(f, g, "y", s) == want
    assert len(calls) == 3 * n
    assert algnum._run_memo.get() is None


def test_lifting_collins_never_warns():
    f = Y4 * W4 + X4
    cad = cad_lifting(cad_projection([f], O4, "collins"), final_oi=True)
    assert cad.warnings == ()
    assert cad.delineations == ()


def test_lifting_univariate():
    O1 = VarOrder(["x"])
    x = MultiPoly.var(O1, "x")
    cad = cad_lifting(cad_projection([x], O1, "mccallum"))
    assert [c.index for c in cad.cells] == [(1,), (2,), (3,)]
    assert cad.cells[1].sample.coords[0].point_value() == 0


def test_cell_dimension_counts_odd_entries():
    assert Cell((1, 2, 3), SamplePoint(())).dimension() == 2
    assert Cell((2, 2), SamplePoint(())).dimension() == 0
    assert Cell((), SamplePoint(())).dimension() == 0


def test_lifting_cells_sorted_and_cylindrical():
    f = W4**2 + Z4 * Y4 - X4**2
    cad = cad_lifting(cad_projection([f], O4, "mccallum"))
    idxs = [c.index for c in cad.cells]
    assert idxs == sorted(idxs)
    assert len(set(idxs)) == len(idxs)
    # every stack over a shared prefix is a contiguous run 1..2k+1
    for depth in range(1, 4):
        groups = {}
        for idx in set(i[:depth + 1] for i in idxs):
            groups.setdefault(idx[:depth], set()).add(idx[depth])
        for members in groups.values():
            assert members == set(range(1, len(members) + 1))
            assert len(members) % 2 == 1


def test_lifting_samples_satisfy_pinned_bounds():
    # each coordinate of a top-level sample lies on the root pinning its
    # section, or off the roots of both sections next to its sector
    cad = cad_lifting(cad_projection([CIRCLE], O2, "mccallum"))
    for c in cad.cells:
        for j, k in enumerate(c.index):
            roots = cad.stacks[c.index[:j]].roots
            at = c.sample.prefix(j + 1)
            if k % 2 == 0:
                assert sign_at(roots[k // 2 - 1].poly, at) == 0
            else:
                for ref in roots[max(k // 2 - 1, 0):k // 2 + 1]:
                    assert sign_at(ref.poly, at) != 0
