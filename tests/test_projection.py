"""Tests for the projection operators and the level sweep."""

from __future__ import annotations

import hashlib
import random

import pytest

from projcad.cli import parse_input
from projcad.polyring import (
    MultiPoly,
    VarOrder,
    content,
    content_primitive_part,
    divides,
    exact_div,
    poly_gcd,
)
from projcad.projection import (
    ProjectionLevels,
    cad_projection,
    proj_collins,
    proj_mccallum,
    reducta_chain,
    truncated_coefficients,
)

from helpers import force_prs_gcds

O2 = VarOrder(["x", "y"])
O3 = VarOrder(["x", "y", "z"])
O4 = VarOrder(["x", "y", "z", "w"])


def _vars(order):
    return [MultiPoly.var(order, v) for v in order.names]


def test_truncated_coefficients():
    x, y = _vars(O2)
    # constant leading coefficient ends the scan before anything is emitted
    assert truncated_coefficients(y**2 + x**2 - 1, "y") == []
    # all coefficients nonconstant: full scan
    x3, y3, z3 = _vars(O3)
    assert truncated_coefficients(z3 * y3 - x3**2, "z") == [y3, -(x3**2)]
    # scan stops at the first constant met on the way down
    f = x * y**2 + 3 * y + 5
    assert truncated_coefficients(f, "y") == [x]
    # zero coefficients are simply absent, not scan stoppers
    assert truncated_coefficients(x * y**3 + x**2, "y") == [x, x**2]


def test_reducta_chain():
    x, y = _vars(O2)
    # constant leading coefficient: chain is just the polynomial itself
    f = y**3 + y**2 + y
    assert reducta_chain(f, "y") == [f]
    g = x * y**2 + y + 1
    assert reducta_chain(g, "y") == [g, y + 1]
    # reductum dropping to level 1 ends the chain
    h = x * y**2 + x**2
    assert reducta_chain(h, "y") == [h]
    # a polynomial below var has no reducta; one above var is refused
    assert reducta_chain(x**2 + 1, "y") == []
    with pytest.raises(ValueError):
        reducta_chain(g, "x")


def test_proj_mccallum_frozen():
    x, y = _vars(O2)
    circle = y**2 + x**2 - 1
    assert proj_mccallum([circle]) == {-4 * x**2 + 4}
    out = proj_mccallum([y - x, y + x])
    assert {p.assoc_normalized() for p in out} == {x}
    assert proj_mccallum([y**2 + 1]) == set()


def test_proj_collins_frozen():
    x, y = _vars(O2)
    circle = y**2 + x**2 - 1
    assert proj_collins([circle]) == {4 * x**2 - 4}
    # truncation: the constant leading coefficient of y+x ends the
    # coefficient scan, and psd(y+x) = {1} is dropped as constant
    assert proj_collins([y + x]) == set()


def test_proj_errors():
    x, y = _vars(O2)
    with pytest.raises(ValueError):
        proj_mccallum([x**2 - 1])  # lowest level: nothing to project
    with pytest.raises(ValueError):
        proj_mccallum([y + 1, x + 1])  # mixed main variables
    with pytest.raises(ValueError):
        proj_collins([MultiPoly.const(O2, 3)])


def _random_level2_basis(rng):
    from projcad.polyring import finest_squarefree_basis

    from helpers import random_poly

    polys = []
    for _ in range(rng.randint(1, 3)):
        f = random_poly(rng, O2, ["x", "y"], max_deg=3, max_coeff=4,
                        n_terms=4, nonzero=True)
        if f.is_constant():
            continue
        _, prim = content_primitive_part(f)
        if prim.mvar() == "y":
            polys.append(prim.sign_normalized())
    if not polys:
        return None
    basis = finest_squarefree_basis(polys)
    return [b for b in basis if b.mvar() == "y"] or None


def test_mccallum_within_collins_up_to_lc_factors():
    rng = random.Random(2024)
    done = 0
    while done < 100:
        B = _random_level2_basis(rng)
        if not B:
            continue
        done += 1
        P = proj_mccallum(B)
        PROJ = proj_collins(B)
        norm = {q.assoc_normalized() for q in PROJ}
        for p in P:
            hit = p.assoc_normalized() in norm or any(
                (f.lc("y") * p).assoc_normalized() in norm for f in B
            )
            assert hit, "McCallum element %s missing from Collins set" % p


def test_cad_projection_circle():
    x, y = _vars(O2)
    circle = y**2 + x**2 - 1
    for method in ("mccallum", "collins"):
        levels = cad_projection([circle], O2, method)
        assert levels.n == 2
        assert levels.level(2) == (circle,)
        assert levels.level(1) == (x**2 - 1,)


def test_cad_projection_surface():
    x, y, z = _vars(O3)
    f = z * y - x**2
    levels = cad_projection([f], O3, "mccallum")
    assert levels.level(3) == (f,)
    assert levels.level(2) == (y,)
    assert levels.level(1) == (x,)


def test_cad_projection_four_vars():
    x, y, z, w = _vars(O4)
    p = w**2 + z * y - x**2
    levels = cad_projection([p], O4, "mccallum")
    assert levels.level(4) == (p,)
    assert levels.level(3) == (z * y - x**2,)
    assert levels.level(2) == (y,)
    assert levels.level(1) == (x,)


def test_cad_projection_errors():
    x, y = _vars(O2)
    with pytest.raises(ValueError):
        cad_projection([], O2)
    with pytest.raises(ValueError):
        cad_projection([MultiPoly.const(O2, 5)], O2)
    with pytest.raises(ValueError):
        cad_projection([y + x], O2, method="hong")
    f = MultiPoly.var(O3, "y") + MultiPoly.var(O3, "x")
    with pytest.raises(ValueError):
        cad_projection([f], O2)


def test_cad_projection_deterministic():
    x, y = _vars(O2)
    f, g = y**2 + x**2 - 1, x * y - 1
    a = cad_projection([f, g], O2)
    b = cad_projection([g, f], O2)
    c = cad_projection([g, -f, f], O2)  # duplicates and signs collapse
    assert a == b == c


def _check_levels_invariants(levels: ProjectionLevels):
    order = levels.order
    for ell in range(1, levels.n + 1):
        group = levels.level(ell)
        for p in group:
            assert p.mvar() == order.name(ell)
            assert p == p.assoc_normalized()
            assert poly_gcd(p, p.derivative(order.name(ell))).is_constant()
        for i, p in enumerate(group):
            for q in group[i + 1:]:
                assert poly_gcd(p, q).is_constant()


def _check_inputs_recoverable(levels: ProjectionLevels, inputs):
    basis = [p for lvl in levels.by_level for p in lvl]
    for f in inputs:
        r = f
        for b in basis:
            while not r.is_constant() and divides(b, r):
                r = exact_div(r, b)
        assert r.is_constant(), "input %s not a product of basis elements" % f


def test_cad_projection_random_invariants():
    from helpers import random_poly

    rng = random.Random(99)
    done = 0
    while done < 40:
        fs = []
        for _ in range(rng.randint(1, 3)):
            f = random_poly(rng, O2, ["x", "y"], max_deg=3, max_coeff=3,
                            n_terms=4, nonzero=True)
            if not f.is_constant():
                fs.append(f)
        if not fs:
            continue
        done += 1
        method = rng.choice(["mccallum", "collins"])
        levels = cad_projection(fs, O2, method)
        _check_levels_invariants(levels)
        _check_inputs_recoverable(levels, fs)


def test_mccallum_level1_roots_within_collins():
    # real roots of the smaller operator's level-1 set never escape the
    # larger one's; a shared real root of two integer polynomials is a
    # root of their gcd, so subset holds iff the root counts agree
    from projcad.algnum import isolate_real_roots

    from helpers import random_poly

    rng = random.Random(777)
    done = 0
    while done < 60:
        order = O2 if done % 2 == 0 else O3
        fs = []
        for _ in range(rng.randint(1, 2)):
            f = random_poly(rng, order, max_deg=2, max_coeff=3,
                            n_terms=3, nonzero=True)
            if not f.is_constant():
                fs.append(f)
        if not fs:
            continue
        done += 1
        m1 = cad_projection(fs, order, "mccallum").level(1)
        c1 = cad_projection(fs, order, "collins").level(1)
        prod_m = MultiPoly.one(order)
        for p in m1:
            prod_m = prod_m * p
        prod_c = MultiPoly.one(order)
        for p in c1:
            prod_c = prod_c * p
        if prod_m.is_constant():
            continue
        g = poly_gcd(prod_m, prod_c)
        roots_m = isolate_real_roots(prod_m)
        roots_g = [] if g.is_constant() else isolate_real_roots(g)
        assert len(roots_m) == len(roots_g)


# The four dense quadric triples of the benchmark's project workload,
# with the digest of every basis and the basis sizes per level of their
# McCallum and Collins projections.
QUADRIC_TRIPLES = [
    "-3 +5*z -4*y -1*y^2 -4*x +3*x*y +3*x^2\n"
    "3 +2*z -2*z^2 -4*y*z +3*y^2 -5*x^2\n"
    "2*z +2*y +5*y*z -5*y^2 +3*x -1*x*y\n",
    "-2*z +5*y -4*y*z +1*y^2 -5*x*z -5*x*y\n"
    "-5 +4*z -5*y*z +2*x^2\n"
    "-2*z +2*z^2 -5*y*z +4*y^2 -2*x\n",
    "3*z +3*y^2 +4*x*y\n"
    "-2 +1*y^2 -2*x -2*x*y +3*x^2 -1*z^2\n"
    "-5 +2*z +4*z^2 -4*y*z -3*y^2 -1*x -4*x*y +1*x^2\n",
    "4*y*z +2*y^2 +4*x -2*x^2\n"
    "-1 -1*z +5*z^2 +3*y +4*y^2 +2*x +5*x*z -5*x*y\n"
    "3*y^2 -2*z^2\n",
]
QUADRIC_PINNED = ("d4f7f6c9b9e497d8",
                  [[17, 6, 3], [36, 6, 3], [22, 7, 3], [40, 7, 3],
                   [16, 5, 3], [42, 6, 3], [17, 6, 3], [33, 6, 3]])


def _quadric_projections():
    """(digest, basis sizes, every basis element) of the eight
    projections of the quadric triples."""
    digest = hashlib.sha256()
    sizes, elements = [], []
    for text in QUADRIC_TRIPLES:
        order, polys = parse_input("vars: x, y, z\n" + text)
        for method in ("mccallum", "collins"):
            P = cad_projection(polys, order, method)
            sizes.append([len(b) for b in P.by_level])
            for lvl, basis in enumerate(P.by_level, 1):
                for p in basis:
                    digest.update(("%s %d %s\n" % (method, lvl, p)).encode())
                    elements.append(p)
    return digest.hexdigest()[:16], sizes, elements


def test_quadric_projections_match_prs_route(monkeypatch):
    digest, sizes, elements = _quadric_projections()
    assert (digest, sizes) == QUADRIC_PINNED
    # every basis element is primitive, as the image shortcut needs
    for p in elements:
        assert content(p).is_constant()
        assert content(p).const_value() == 1
    force_prs_gcds(monkeypatch)
    assert _quadric_projections()[:2] == QUADRIC_PINNED
