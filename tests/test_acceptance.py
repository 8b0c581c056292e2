"""Acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL
line directly to the terminal (bypassing capture) so the gate is
readable from any pytest run.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

sys.path.insert(0, "tests")

from helpers import psc_chain_minors, random_poly, sylvester_resultant
from projcad.algnum import RationalCoordinate, SamplePoint
from projcad.cadcore import (cad_full, check_cylindricity, locate_point,
                             verify_sign_invariance)
from projcad.cli import RunConfig, render_output, run_compute
from projcad.lifting import minimal_delineating_polynomial
from projcad.polyring import MultiPoly, VarOrder
from projcad.subresultants import discriminant, psc_chain, resultant

O2 = VarOrder(("x", "y"))
O3 = VarOrder(("x", "y", "z"))
O4 = VarOrder(("x", "y", "z", "w"))


def _v(order, nm):
    return MultiPoly.var(order, nm)


_PROBLEMS = {
    "circle": ([_v(O2, "x") ** 2 + _v(O2, "y") ** 2 - 1], O2,
               "mccallum", False),
    "circle-collins": ([_v(O2, "x") ** 2 + _v(O2, "y") ** 2 - 1], O2,
                       "collins", False),
    "saddle": ([_v(O3, "z") * _v(O3, "y") - _v(O3, "x") ** 2], O3,
               "mccallum", False),
    "saddle-oi": ([_v(O3, "z") * _v(O3, "y") - _v(O3, "x") ** 2], O3,
                  "mccallum", True),
    "quadric4": ([_v(O4, "z") * _v(O4, "y") - _v(O4, "x") ** 2
                  + _v(O4, "w") ** 2], O4, "mccallum", False),
    "warn4": ([_v(O4, "y") * _v(O4, "w") + _v(O4, "x")], O4,
              "mccallum", True),
}

_cache = {}


def _built(name):
    """Build (and memoize) a named problem; returns (cad, polys, secs)."""
    if name not in _cache:
        polys, order, method, final_oi = _PROBLEMS[name]
        t0 = time.monotonic()
        cad = cad_full(polys, order, method, final_oi=final_oi)
        _cache[name] = (cad, polys, time.monotonic() - t0)
    return _cache[name]


def _line(capfd, n, label, ok):
    with capfd.disabled():
        sys.stdout.write("criterion %d (%s): %s\n"
                         % (n, label, "PASS" if ok else "FAIL"))
        sys.stdout.flush()


@contextmanager
def _criterion(capfd, n, label):
    try:
        yield
    except BaseException:
        _line(capfd, n, label, False)
        raise
    _line(capfd, n, label, True)


def _stack_profile(cad, prefix=()):
    d = len(prefix)
    entries = sorted({c.index[d] for c in cad.cells
                      if c.index[:d] == prefix})
    return [sum(1 for c in cad.cells if c.index[:d + 1] == prefix + (e,))
            for e in entries]


def test_criterion_1_circle(capfd):
    with _criterion(capfd, 1, "circle: 13 cells, branches 1/3/5/3/1, <1s"):
        cad, _, secs = _built("circle")
        assert len(cad.cells) == 13
        assert _stack_profile(cad) == [1, 3, 5, 3, 1]
        tree = render_output(cad, "piecewise").splitlines()
        tops = [i for i, l in enumerate(tree) if not l.startswith(" ")]
        kids = [(tops + [len(tree)])[k + 1] - t - 1
                for k, t in enumerate(tops)]
        assert kids == [1, 3, 5, 3, 1]
        assert secs < 1.0


def test_criterion_2_order_invariance_split(capfd):
    with _criterion(capfd, 2, "final lift adds 2 cells over the origin, <5s"):
        cad21, _, s21 = _built("saddle")
        cad23, _, s23 = _built("saddle-oi")
        assert len(cad21.cells) == 21 and not cad21.final_oi
        assert len(cad23.cells) == 23 and cad23.final_oi
        # the extra cells sit over the base point x=0, y=0
        assert _stack_profile(cad21, (2, 2)) == [1]
        assert _stack_profile(cad23, (2, 2)) == [1, 1, 1]
        base = next(c for c in cad23.cells if c.index[:2] == (2, 2))
        assert [co.point_value() for co in base.sample.coords[:2]] == [0, 0]
        assert s21 < 5.0 and s23 < 5.0


def test_criterion_3_four_variable_delineation(capfd):
    with _criterion(capfd, 3, "4-var quadric: 73 cells, no warning, z over "
                       "the origin fiber, <30s"):
        cad, _, secs = _built("quadric4")
        assert len(cad.cells) == 73
        assert cad.warnings == ()
        assert [(idx, str(d)) for idx, _, d in cad.delineations] \
            == [((2, 2), "z")]
        base = next(c for c in cad.cells if c.index[:2] == (2, 2))
        assert [co.point_value() for co in base.sample.coords[:2]] == [0, 0]
        assert secs < 30.0


def test_criterion_4_minimal_delineating_values(capfd):
    with _criterion(capfd, 4, "minimal delineating polynomial unit values"):
        origin = SamplePoint((RationalCoordinate(Fraction(0)),
                              RationalCoordinate(Fraction(0))))
        saddle = _v(O3, "z") * _v(O3, "y") - _v(O3, "x") ** 2
        plane = _v(O3, "z") * _v(O3, "y") - _v(O3, "x")
        assert minimal_delineating_polynomial(saddle, origin) == _v(O3, "z")
        assert minimal_delineating_polynomial(plane, origin) is None


def test_criterion_5_warning_and_strict_exit(capfd):
    with _criterion(capfd, 5, "nullification warning over x=0,y=0,z free; "
                       "strict exits 2; <1s"):
        cad, _, secs = _built("warn4")
        assert len(cad.warnings) == 1
        (idx, p), = cad.warnings
        assert idx == (2, 2, 1)
        cell = next(c for c in cad.cells if c.index[:3] == idx)
        assert [co.point_value() for co in cell.sample.coords[:2]] == [0, 0]
        # z is free over that point: its stack is one sector, no roots
        stack = cad.stacks[idx[:2]]
        assert len(stack.cells) == 1 and stack.roots == ()
        _, err, code = run_compute(
            RunConfig(final_oi=True, strict=True),
            "vars: x, y, z, w\ny*w + x\n")
        assert code == 2 and "not well-oriented" in err
        assert secs < 1.0


def test_criterion_6_operator_identities(capfd):
    with _criterion(capfd, 6, "resultant/discriminant identities, 500 randoms, "
                       "dual routes"):
        rng = random.Random(600613)
        orders = [VarOrder(("x",)), O2, O3]
        for i in range(500):
            order = orders[rng.randrange(3)]
            var = order.names[-1]
            while True:
                f = random_poly(rng, order, max_deg=4, max_coeff=4,
                                n_terms=3)
                if f.degree(var) >= 1:
                    break
            g = random_poly(rng, order, max_deg=4, max_coeff=4,
                            n_terms=3, nonzero=True)
            h = random_poly(rng, order, max_deg=2, max_coeff=3,
                            n_terms=2, nonzero=True)
            assert psc_chain(f, g, var)[0] == sylvester_resultant(f, g, var)
            d = f.degree(var)
            if d >= 2:
                lhs = f.lc(var) * discriminant(f, var)
                rhs = sylvester_resultant(f, f.derivative(var), var)
                assert lhs == (-rhs if (d * (d - 1) // 2) % 2 else rhs)
            assert resultant(f, g * h, var) \
                == resultant(f, g, var) * resultant(f, h, var)
            assert psc_chain(f, g, var) == psc_chain_minors(f, g, var)


def test_criterion_7_structural_properties(capfd):
    with _criterion(capfd, 7, "cylindricity, stack parity, unique indices, "
                       "locate round trips"):
        for name in _PROBLEMS:
            cad, _, _ = _built(name)
            rep = check_cylindricity(cad)
            assert rep.ok, (name, rep.problems)
            indices = [c.index for c in cad.cells]
            assert len(set(indices)) == len(indices)
            for prefix, stack in cad.stacks.items():
                # sectors and sections alternate: one more sector than
                # the roots that cut the stack
                assert [c.index for c in stack.cells] == [
                    prefix + (k,) for k in range(1, 2 * len(stack.roots) + 2)]
            for c in cad.cells:
                vals = [co.point_value() for co in c.sample.coords]
                if None in vals:
                    continue
                assert locate_point(tuple(vals), cad).index == c.index


def test_criterion_8_sign_invariance_oracle(capfd):
    with _criterion(capfd, 8, "sign invariance: named examples + 50 random "
                       "bivariate inputs, 16 points/cell"):
        for name in ("circle", "saddle", "saddle-oi", "quadric4"):
            cad, polys, _ = _built(name)
            rep = verify_sign_invariance(cad, polys, samples_per_cell=16,
                                         seed=8)
            assert rep.ok, (name, rep.counterexample)
        rng = random.Random(800813)
        done = 0
        while done < 50:
            polys = []
            while len(polys) < rng.randint(1, 2):
                p = random_poly(rng, O2, max_deg=3, max_coeff=4, n_terms=3)
                if not p.is_constant():
                    polys.append(p)
            cad = cad_full(polys, O2)
            rep = verify_sign_invariance(cad, polys, samples_per_cell=16,
                                         seed=done)
            assert rep.ok, ([str(p) for p in polys], rep.counterexample)
            done += 1


def test_criterion_9_method_agreement_on_circle(capfd):
    with _criterion(capfd, 9, "Collins and McCallum both give 13 circle cells"):
        mcc, _, _ = _built("circle")
        col, _, _ = _built("circle-collins")
        assert len(mcc.cells) == len(col.cells) == 13
        assert [c.index for c in mcc.cells] == [c.index for c in col.cells]
