"""Full-pipeline composition and verification oracles.

cad_full chains projection and lifting.  The rest of this module checks
finished decompositions from the outside: locate_point descends the
stacks to find the cell containing a rational point with exact
comparisons only, verify_sign_invariance confirms that every input
polynomial keeps one sign per cell by sampling random rational points
inside full-dimensional cells, and check_cylindricity validates the
index structure (stacks are contiguous odd-length runs over a shared
prefix).  Failures of locate_point raise IntegrityError because a
partition of R^n must contain every point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algnum import (
    RationalCoordinate,
    SamplePoint,
    SeparabilityError,
    _bisect_once,
    _defining_sign,
    roots_over_cell,
    sign_at,
)
from .lifting import CAD, Cell, NotWellOrientedError, cad_lifting
from .polyring import MultiPoly, VarOrder
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


def _cmp_root_to_rational(coord, q: Fraction) -> int:
    """-1/0/+1 for root < q / root == q / root > q, exact."""
    if isinstance(coord, RationalCoordinate):
        v = coord.value
        return (v > q) - (v < q)
    iv = coord.interval
    if iv.lo <= q <= iv.hi and _defining_sign(coord, q) == 0:
        return 0
    while iv.lo <= q <= iv.hi:
        _bisect_once(coord)
    return 1 if q < iv.lo else -1


def locate_point(pt, cad: CAD) -> Cell:
    """The unique cell of the decomposition containing a rational point."""
    n = cad.order.n
    vals = [Fraction(v) for v in pt]
    if len(vals) != n:
        raise ValueError("expected %d coordinates, got %d" % (n, len(vals)))
    prefix: tuple = ()
    for j in range(n):
        fiber = SamplePoint(
            tuple(RationalCoordinate(v) for v in vals[:j]))
        refs = cad.section_polys(prefix)
        if refs:
            try:
                coords, _ = roots_over_cell(refs, fiber)
            except (SeparabilityError, ValueError) as e:
                raise IntegrityError(
                    "stack over %s broke down at %s: %s"
                    % (prefix, vals[:j], e))
            if len(coords) != len(refs):
                raise IntegrityError(
                    "stack over %s has %d sections but %d roots at %s"
                    % (prefix, len(refs), len(coords), vals[:j]))
        else:
            coords = []
        pinned = None
        below = 0
        for i, c in enumerate(coords):
            cmp = _cmp_root_to_rational(c, vals[j])
            if cmp == 0:
                pinned = i
                break
            if cmp < 0:
                below += 1
        prefix += (2 * (pinned + 1),) if pinned is not None \
            else (2 * below + 1,)
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
    lo = None
    hi = None
    if i > 0:
        c = coords[i - 1]
        while i < len(coords) and c.box()[1] >= coords[i].box()[0] \
                and not (c.point_value() is not None
                         and coords[i].point_value() is not None):
            for cc in (c, coords[i]):
                if cc.point_value() is None:
                    _bisect_once(cc)
        lo = c.box()[1]
    if i < len(coords):
        hi = coords[i].box()[0]
    return lo, hi


def _random_in_gap(coords, i, rng) -> Fraction:
    lo, hi = _separate_gap(coords, i)
    if lo is None and hi is None:
        return Fraction(rng.randint(-2048, 2048), 256)
    if lo is None:
        return hi - 1 - Fraction(rng.randint(0, 1024), 256)
    if hi is None:
        return lo + 1 + Fraction(rng.randint(0, 1024), 256)
    t = Fraction(rng.randint(1, 255), 256)
    return lo + t * (hi - lo)


def _random_interior_point(cad: CAD, cell: Cell, rng):
    vals: list = []
    names = [cad.order.name(i) for i in range(1, cad.order.n + 1)]
    for j, entry in enumerate(cell.index):
        fiber = SamplePoint(tuple(RationalCoordinate(v) for v in vals))
        refs = cad.section_polys(cell.index[:j])
        coords = roots_over_cell(refs, fiber)[0] if refs else []
        vals.append(_random_in_gap(coords, (entry - 1) // 2, rng))
    return dict(zip(names, vals))


def verify_sign_invariance(cad: CAD, polys, samples_per_cell: int = 16,
                           seed: int = 0) -> SignInvarianceReport:
    """Check that every polynomial holds one sign per cell.

    The sign vector at each cell's sample point is the reference; every
    full-dimensional cell is additionally probed at random rational
    interior points, found by re-descending the stacks, and compared
    exactly.  Stops at the first counterexample.
    """
    polys = sorted(set(polys))
    rng = random.Random(seed)
    points = 0
    for cell in cad.cells:
        reference = [sign_at(p, cell.sample) for p in polys]
        if cell.dimension() != cad.order.n:
            continue
        for _ in range(samples_per_cell):
            env = _random_interior_point(cad, cell, rng)
            points += 1
            for p, want in zip(polys, reference):
                v = p.evaluate(env)
                got = (v > 0) - (v < 0)
                if got != want:
                    witness = tuple(env[k] for k in sorted(
                        env, key=lambda nm: cad.order.level(nm)))
                    return SignInvarianceReport(
                        False, len(cad.cells), points,
                        (cell.index, witness, p))
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
