"""Full-pipeline composition and verification oracles.

cad_full chains projection and lifting.  The rest of this module checks
finished decompositions from the outside: locate_point descends the
stack tree to find the cell containing a rational point with exact
comparisons only, verify_sign_invariance confirms that every input
polynomial keeps one sign per cell by sampling random rational points
inside full-dimensional cells and signing each by sign_at, the one
exact sign at a point, and check_cylindricity validates the index
structure (stacks are contiguous odd-length runs over a shared prefix).

Both descents take a stack's roots at a rational fiber from algnum's
separable basis there (_isolated_basis), built on the stack's distinct
section polynomials, with each basis element isolated once.  The basis
is squarefree and pairwise coprime at the fiber, which is what
delineability asks of a stack (McCallum 1988); algnum proves it, with
the integer image certificate and the exact fiber gcd as fallback.
When every section polynomial is a basis element unchanged, so reduced,
squarefree and coprime to the others there, and has as many roots as
it owns sections, its roots fill its sections in turn, in the order the
CAD lists them.  Any other stack's roots come sorted.  The base stack's
fiber is empty, so its roots are those lifting isolated there: every
descent reads them off the section cells of the CAD's stack tree, the
cells' own objects, whose working boxes its comparisons narrow.
algnum makes every root comparison, with a rational
(_cmp_root_to_rational) or with another root (_compare_coords,
_separated_ends); this module refines no box itself.

locate_point requires its comparisons against a stack's roots to read
below, then at most one equal, then above; a stack out of order, a
stack whose roots at a rational fiber do not match its section count,
and a point no cell contains raise IntegrityError, because a partition
of R^n must contain every point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional

from .algnum import (
    RationalCoordinate,
    SamplePoint,
    SeparabilityError,
    _cmp_root_to_rational,
    _compare_coords,
    _isolated_basis,
    _separated_ends,
    sign_at,
)
from .lifting import CAD, Cell, cad_lifting
from .polyring import VarOrder
from .projection import cad_projection

__all__ = [
    "CylindricityReport",
    "IntegrityError",
    "SignInvarianceReport",
    "cad_full",
    "check_cylindricity",
    "locate_point",
    "verify_sign_invariance",
]


class IntegrityError(RuntimeError):
    """The decomposition violated one of its own structural guarantees."""


def cad_full(polys, order: VarOrder, method: str = "mccallum",
             final_oi: bool = False, strict: bool = False) -> CAD:
    """Decompose R^n so that every input polynomial is sign-invariant
    on every cell."""
    return cad_lifting(cad_projection(polys, order, method),
                       final_oi=final_oi, strict=strict)


# ---------------------------------------------------------------------------
# point location


def _stack_roots(cad: CAD, prefix: tuple, vals) -> list:
    """Roots of the stack over an index prefix at the rational fiber
    `vals`, one per section of that stack.

    The stack's distinct section polynomials go through algnum's
    separable basis at the fiber, and each basis element is isolated
    once.  When every section polynomial is a basis element unchanged,
    with as many roots as it owns sections, the roots come in the CAD's
    section order (see _section_order); otherwise they come sorted.

    The base stack (prefix ()) sits over the empty fiber, where lifting
    isolated its roots from the same basis: they are its section cells'
    own coordinates.
    """
    if prefix:
        return _isolated_stack_roots(cad, prefix, vals)
    base = cad.stacks.get(())
    if base is None:
        raise IntegrityError("the decomposition keeps no base stack")
    return [c.sample.coords[0] for c in base.cells[1::2]]


def _section_order(refs: tuple, isolated: dict) -> Optional[list]:
    """The roots of the separable basis `isolated` (element -> (roots,
    bound)) in the section order refs, one section polynomial per
    section; None unless the basis is exactly the section polynomials
    and each has one root per section it owns."""
    if isolated.keys() != set(refs):
        return None
    roots = {}
    for f, (coords, _) in isolated.items():
        if len(coords) != refs.count(f):
            return None
        roots[f] = iter(coords)
    return [next(roots[f]) for f in refs]


def _isolated_stack_roots(cad: CAD, prefix: tuple, vals) -> list:
    refs = cad.section_polys(prefix)
    if not refs:
        return []
    fiber = SamplePoint(tuple(RationalCoordinate(v) for v in vals))
    var = cad.order.name(len(vals) + 1)
    try:
        isolated = _isolated_basis(sorted(set(refs)), var, fiber)
        coords = _section_order(refs, isolated)
        if coords is not None:
            return coords
        coords = sorted((c for roots, _ in isolated.values() for c in roots),
                        key=cmp_to_key(_compare_coords))
    except ValueError as e:
        raise IntegrityError("stack over %s broke down at %s: %s"
                             % (prefix, list(vals), e))
    if len(coords) != len(refs):
        raise IntegrityError(
            "stack over %s has %d sections but %d roots at %s"
            % (prefix, len(refs), len(coords), list(vals)))
    return coords


def locate_point(pt, cad: CAD) -> Cell:
    """The unique cell of the decomposition containing a rational point."""
    n = cad.order.n
    vals = [Fraction(v) for v in pt]
    if len(vals) != n:
        raise ValueError("expected %d coordinates, got %d" % (n, len(vals)))
    prefix: tuple = ()
    for j in range(n):
        coords = _stack_roots(cad, prefix, vals[:j])
        cmps = [_cmp_root_to_rational(c, vals[j]) for c in coords]
        hits = cmps.count(0)
        if hits > 1 or cmps != sorted(cmps):
            raise IntegrityError(
                "roots of the stack over %s are out of order at %s"
                % (prefix, vals[:j + 1]))
        prefix += (2 * cmps.count(-1) + 1 + hits,)
    cell = cad.cell_at(prefix)
    if cell is None:
        raise IntegrityError("no cell carries index %s" % (prefix,))
    return cell


# ---------------------------------------------------------------------------
# sign-invariance oracle


@dataclass(frozen=True)
class SignInvarianceReport:
    ok: bool
    cells_checked: int
    points_checked: int
    counterexample: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def _separate_gap(coords, i):
    """Exclusive rational bracket for the gap below/between/above the
    ordered root coordinates; None means unbounded on that side."""
    if 0 < i < len(coords):
        try:
            b1, q1, a2, q2 = _separated_ends(coords[i - 1], coords[i])
            return Fraction(b1, q1), Fraction(a2, q2)
        except SeparabilityError:
            raise IntegrityError("roots %r and %r of a stack do not separate"
                                 % (coords[i - 1], coords[i]))
    lo = coords[i - 1].box()[1] if i > 0 else None
    hi = coords[i].box()[0] if i < len(coords) else None
    return lo, hi


def _random_in_gap(coords, i, rng) -> Fraction:
    lo, hi = _separate_gap(coords, i)
    if lo is None and hi is None:
        return Fraction(rng.randint(-2048, 2048), 256)
    if lo is None or hi is None:
        # beyond the outermost root, at a distance spread over a log
        # scale from 2^-16 to 16, so sign changes close to the root's box
        # are probed as well as far ones
        t = Fraction(rng.randint(1, 256), 256)
        d = t * Fraction(2) ** rng.randint(-8, 4)
        return hi - d if lo is None else lo + d
    t = Fraction(rng.randint(1, 255), 256)
    return lo + t * (hi - lo)


def _random_interior_point(cad: CAD, cell: Cell, rng) -> list:
    vals: list = []
    for j, entry in enumerate(cell.index):
        coords = _stack_roots(cad, cell.index[:j], vals)
        vals.append(_random_in_gap(coords, (entry - 1) // 2, rng))
    return vals


def verify_sign_invariance(cad: CAD, polys, samples_per_cell: int = 16,
                           seed: int = 0) -> SignInvarianceReport:
    """Check that every polynomial holds one sign per cell.

    Every full-dimensional cell is probed at random rational interior
    points, found by re-descending the stacks.  Each probe is a sample
    point of RationalCoordinates, signed by sign_at like the cell's own
    sample, and the two signs are compared.  Stops at the first
    counterexample, whose witness is the probe's Fractions in level
    order.
    """
    polys = sorted(set(polys))
    rng = random.Random(seed)
    points = 0
    for cell in cad.cells:
        if cell.dimension() != cad.order.n:
            continue
        reference = [sign_at(p, cell.sample) for p in polys]
        for _ in range(samples_per_cell):
            vals = _random_interior_point(cad, cell, rng)
            probe = SamplePoint(tuple(RationalCoordinate(v) for v in vals))
            points += 1
            for p, want in zip(polys, reference):
                if sign_at(p, probe) != want:
                    return SignInvarianceReport(
                        False, len(cad.cells), points,
                        (cell.index, tuple(vals), p))
    return SignInvarianceReport(True, len(cad.cells), points)


# ---------------------------------------------------------------------------
# cylindricity oracle


@dataclass(frozen=True)
class CylindricityReport:
    ok: bool
    prefix_counts: tuple
    problems: tuple = ()

    def __bool__(self):
        return self.ok


def check_cylindricity(cad: CAD) -> CylindricityReport:
    """Validate the index structure: unique sorted indices of full
    length, and over every prefix a contiguous odd run 1..2k+1."""
    problems = []
    idxs = [c.index for c in cad.cells]
    n = cad.order.n
    if len(set(idxs)) != len(idxs):
        problems.append("duplicate cell indices")
    if idxs != sorted(idxs):
        problems.append("cells not sorted by index")
    if any(len(i) != n for i in idxs):
        problems.append("cell index of wrong length")
    counts = []
    for depth in range(1, n + 1):
        groups: dict = {}
        for idx in set(i[:depth] for i in idxs):
            groups.setdefault(idx[:-1], set()).add(idx[-1])
        counts.append(len(set(i[:depth] for i in idxs)))
        for pre, members in sorted(groups.items()):
            if members != set(range(1, len(members) + 1)):
                problems.append(
                    "stack over %s is not contiguous: %s"
                    % (pre, sorted(members)))
            elif len(members) % 2 == 0:
                problems.append(
                    "stack over %s has even length %d" % (pre, len(members)))
    return CylindricityReport(not problems, tuple(counts), tuple(problems))
