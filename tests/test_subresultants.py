"""Tests for resultants, discriminants and psc chains: the subresultant
PRS against the determinant route in helpers."""

from __future__ import annotations

import random

import pytest

from projcad.polyring import MultiPoly, VarOrder
from projcad.subresultants import discriminant, psc_chain, psd_chain, resultant

from helpers import psc_chain_minors, sylvester_matrix, sylvester_resultant

O2 = VarOrder(["x", "y"])
X, Y = MultiPoly.var(O2, "x"), MultiPoly.var(O2, "y")


def _rand_poly(rng, maxdeg):
    while True:
        p = MultiPoly.zero(O2)
        for e in range(rng.randint(0, maxdeg) + 1):
            if rng.random() < 0.75:
                p = p + rng.randint(-4, 4) * X ** rng.randint(0, 2) * Y**e
        if not p.is_zero():
            return p


def test_sylvester_matrix_shape():
    f = Y**2 + X**2 - 1
    g = 2 * Y
    m = sylvester_matrix(f, g, "y")
    assert len(m) == 3 and all(len(r) == 3 for r in m)
    # rows: f, y*g, g on columns y^2, y^1, y^0
    assert [str(e) for e in m[0]] == ["1", "0", "x^2 - 1"]
    assert [str(e) for e in m[1]] == ["2", "0", "0"]
    assert [str(e) for e in m[2]] == ["0", "2", "0"]


def test_resultant_frozen_values():
    # frozen from the 2x2 Sylvester determinant [[1,-1],[1,1]]
    assert sylvester_resultant(X - 1, X + 1, "x") == MultiPoly.const(O2, 2)
    assert resultant(X - 1, X + 1, "x") == MultiPoly.const(O2, 2)
    # frozen from the 3x3 determinant with polynomial entries
    f = Y**2 + X**2 - 1
    assert sylvester_resultant(f, Y, "y") == X**2 - 1
    assert resultant(f, Y, "y") == X**2 - 1
    # degree-0 second argument: res(f, c) = c^deg(f)
    assert resultant(f, MultiPoly.const(O2, 3), "y") == MultiPoly.const(O2, 9)
    with pytest.raises(ValueError):
        resultant(MultiPoly.const(O2, 1), MultiPoly.const(O2, 2), "y")
    with pytest.raises(ValueError):
        resultant(MultiPoly.zero(O2), Y, "y")


def test_psc_chain_frozen_values():
    f = Y**2 + X**2 - 1
    chain = psc_chain(f, f.derivative("y"), "y")
    assert [str(c) for c in chain] == ["4*x^2 - 4", "2"]
    assert chain == psc_chain_minors(f, f.derivative("y"), "y")
    # psd of a degree-1 polynomial is psc_0(f, 1) = 1
    assert [str(c) for c in psd_chain(Y + X, "y")] == ["1"]


def test_psc_chain_equal_degrees_and_swap():
    f = Y**2 + 1
    g = Y**2 - X
    a = psc_chain(f, g, "y")
    b = psc_chain_minors(f, g, "y")
    assert a == b
    assert str(a[-1]) == "1"  # empty minor convention
    # swapping arguments flips psc_j by (-1)^((n-j)(m-j))
    c = psc_chain(g, f, "y")
    for j, (u, v) in enumerate(zip(a, c)):
        sign = -1 if ((2 - j) * (2 - j)) % 2 else 1
        assert u == sign * v


def test_discriminant_frozen_values():
    f = Y**2 + X**2 - 1
    assert str(discriminant(f, "y")) == "-4*x^2 + 4"
    assert discriminant(X**2 - 2, "x") == MultiPoly.const(O2, 8)
    with pytest.raises(ValueError):
        discriminant(Y + X, "y")


def test_discriminant_lc_identity_random():
    rng = random.Random(60622)
    done = 0
    while done < 120:
        f = _rand_poly(rng, 4)
        if f.degree("y") < 2:
            continue
        done += 1
        lhs = f.lc("y") * discriminant(f, "y")
        rhs = psc_chain(f, f.derivative("y"), "y")[0]
        assert lhs == rhs or lhs == -rhs


def test_resultant_multiplicativity_random():
    rng = random.Random(777)
    done = 0
    while done < 120:
        f, g, h = _rand_poly(rng, 3), _rand_poly(rng, 2), _rand_poly(rng, 2)
        if f.degree("y") == 0:
            continue
        done += 1
        assert resultant(f, g * h, "y") == resultant(f, g, "y") * resultant(
            f, h, "y"
        )


def test_resultant_antisymmetry_random():
    rng = random.Random(13)
    done = 0
    while done < 120:
        f, g = _rand_poly(rng, 3), _rand_poly(rng, 3)
        n, m = f.degree("y"), g.degree("y")
        if n == 0 and m == 0:
            continue
        done += 1
        sign = -1 if (n * m) % 2 else 1
        assert resultant(f, g, "y") == sign * resultant(g, f, "y")


def test_prs_matches_minors_random():
    rng = random.Random(424242)
    done = 0
    while done < 200:
        f, g = _rand_poly(rng, 5), _rand_poly(rng, 5)
        if f.degree("y") == 0 and g.degree("y") == 0:
            continue
        done += 1
        assert psc_chain(f, g, "y") == psc_chain_minors(f, g, "y")


def test_prs_matches_minors_defective():
    cases = [
        (Y**6 + X, Y**4),
        (Y**5 + Y, Y**3),
        (Y**7 - X * Y, Y**3 + X),
        (Y**4 + Y**2 + X, Y**2),
        (Y**5, Y**2 + 1),
        (Y**3, Y**3 + X),
    ]
    for f, g in cases:
        assert psc_chain(f, g, "y") == psc_chain_minors(f, g, "y")
