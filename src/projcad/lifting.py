"""Stack construction over cells and the full lifting phase.

Lifting walks the variable order from the bottom: the real line is cut
at the roots of the level-1 polynomials, then every cell of R^(i-1) is
extended to a stack of cells in R^i by isolating the roots of the
level-i polynomials over the cell's sample point.  Sections (graphs of
root functions) alternate with the sectors between them, so a stack
always has odd length, and a cell's index records its position in each
stack on the way up: even entries pin a coordinate to a root, odd
entries leave it ranging in a band.

A polynomial that vanishes identically over a base cell contributes no
sections there and is set aside.  With the smaller projection operator
this is also a correctness concern anywhere below the final lift (or
during it, when an order-invariant result was requested): over a
single point the vanished polynomial is replaced by a minimal
delineating polynomial added to that one stack's input; over anything
bigger a warning is recorded, or in strict mode the computation stops.
The larger operator's theory needs none of this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Optional

from .algnum import (
    RationalCoordinate,
    SamplePoint,
    _strip,
    fiber_gcd,
    fiber_reduce,
    fiber_squarefree_part,
    roots_over_cell,
    sign_at,
)
from .polyring import MultiPoly, VarOrder, poly_gcd, pquo, squarefree_part
from .projection import ProjectionLevels

__all__ = [
    "Bound",
    "CAD",
    "Cell",
    "NotWellOrientedError",
    "RootRef",
    "Stack",
    "cad_lifting",
    "generate_stack",
    "is_nullified",
    "make_separable_over_cell",
    "minimal_delineating_polynomial",
]


class NotWellOrientedError(RuntimeError):
    """A polynomial vanished identically over a positive-dimensional cell
    and the caller asked for a hard failure instead of a warning."""


@dataclass(frozen=True)
class RootRef:
    """The ordinal-th real root (1-based, increasing) of a polynomial
    over the base cell a bound belongs to."""

    poly: MultiPoly
    ordinal: int

    def __str__(self):
        return "root %d of %s" % (self.ordinal, self.poly)


@dataclass(frozen=True)
class Bound:
    """Constraint on one coordinate of a cell.

    kind "eq" pins the coordinate to `lo` (a rational or a RootRef);
    kind "range" keeps it strictly between `lo` and `hi`, where either
    side may be None for an unbounded band.
    """

    kind: str
    lo: object = None
    hi: object = None


@dataclass(frozen=True)
class Cell:
    """One cell of a decomposition of R^k."""

    index: tuple
    sample: SamplePoint
    bounds: tuple

    def dimension(self) -> int:
        return sum(1 for k in self.index if k % 2 == 1)

    def level(self) -> int:
        return len(self.index)

    def __repr__(self):
        return "Cell(%s)" % (",".join(str(k) for k in self.index),)


@dataclass(frozen=True)
class Stack:
    base: Cell
    cells: tuple


# ---------------------------------------------------------------------------
# separability over one cell


def _fiber_quo(f: MultiPoly, g: MultiPoly, var: str, s: SamplePoint):
    # exact over the fiber: the pseudo-remainder vanishes there, and the
    # pseudo-quotient differs from the true quotient by a nonzero constant
    q = fiber_reduce(pquo(f, g, var), var, s)
    return _strip(q)


def make_separable_over_cell(polys, s: SamplePoint):
    """Replace a set of polynomials by one with the same zero set over
    the fiber at s whose elements are squarefree and pairwise coprime
    there.

    Polynomials degenerating to a nonzero constant over the fiber are
    dropped; one vanishing identically is a contract violation (callers
    must filter those out first).
    """
    ps = sorted(set(polys))
    if not ps:
        return []
    order = ps[0].order
    lvl = len(s) + 1
    var = order.name(lvl)
    work = []
    for p in ps:
        if p.order != order:
            raise ValueError("mixed variable orders")
        if p.level() != lvl:
            raise ValueError(
                "expected main variable %r, got %r" % (var, p.mvar()))
        r = fiber_reduce(p, var, s)
        if r.is_zero():
            raise ValueError(
                "polynomial vanishes identically over the cell: %s" % (p,))
        if r.degree(var) < 1:
            continue
        if fiber_gcd(r, r.derivative(var), var, s).degree(var) != 0:
            r = fiber_squarefree_part(r, var, s)
        work.append(r)
    basis: list = []
    for f in work:
        merged = []
        for g in basis:
            if f.degree(var) < 1:
                merged.append(g)
                continue
            h = fiber_gcd(f, g, var, s)
            if h.degree(var) < 1:
                merged.append(g)
                continue
            # split off the common part; both quotients stay coprime to
            # it because everything here is squarefree over the fiber
            merged.append(h)
            gq = _fiber_quo(g, h, var, s)
            if gq.degree(var) >= 1:
                merged.append(gq)
            f = _fiber_quo(f, h, var, s)
        if f.degree(var) >= 1:
            merged.append(f)
        basis = merged
    return sorted(set(basis))


# ---------------------------------------------------------------------------
# stacks


def generate_stack(cell: Cell, polys) -> Stack:
    """Decompose the line over `cell` at the roots of `polys`.

    Returns the odd-length stack of sector/section cells, each indexed
    by its 1-based position and carrying an extended sample point.
    """
    s = cell.sample
    sep = make_separable_over_cell(polys, s)
    sections, samples = roots_over_cell(sep, s)
    refs = []
    seen: dict = {}
    for c in sections:
        # pairwise separability makes the owning polynomial unique, and
        # keeping it (rather than the root's numeric value) lets the
        # section be re-evaluated anywhere over the base cell
        owner = next(p for p in sep if sign_at(p, s.extend(c)) == 0)
        seen[owner] = seen.get(owner, 0) + 1
        refs.append(RootRef(owner, seen[owner]))
    cells = []
    k = len(sections)
    for j in range(k + 1):
        lo = refs[j - 1] if j > 0 else None
        hi = refs[j] if j < k else None
        cells.append(Cell(
            cell.index + (2 * j + 1,),
            s.extend(RationalCoordinate(samples[j])),
            cell.bounds + (Bound("range", lo, hi),),
        ))
        if j < k:
            cells.append(Cell(
                cell.index + (2 * j + 2,),
                s.extend(sections[j]),
                cell.bounds + (Bound("eq", refs[j]),),
            ))
    return Stack(cell, tuple(cells))


# ---------------------------------------------------------------------------
# nullification


def is_nullified(p: MultiPoly, cell) -> bool:
    """True iff p vanishes identically over the cell, i.e. every
    coefficient in its main variable is zero at the sample point."""
    s = cell.sample if isinstance(cell, Cell) else cell
    if p.is_zero():
        return True
    if p.is_constant():
        return False
    for _, c in p.coeff_terms(p.mvar()):
        if sign_at(c, s) != 0:
            return False
    return True


def _vanishes_in_var(q: MultiPoly, var: str, s: SamplePoint) -> bool:
    # zero as a univariate polynomial in var over the fiber
    if q.degree(var) == 0:
        return sign_at(q, s) == 0
    return all(sign_at(c, s) == 0 for _, c in q.coeff_terms(var))


def minimal_delineating_polynomial(p: MultiPoly, s) -> Optional[MultiPoly]:
    """Replacement for a polynomial nullified at a single point.

    Takes the least m for which some order-m partial derivative of p
    survives at the point as a univariate polynomial in p's main
    variable, and returns the squarefree part of the gcd of all the
    surviving order-m partials there; None when that gcd is constant,
    meaning no replacement is needed at all.
    """
    if isinstance(s, Cell):
        s = s.sample
    if not is_nullified(p, s):
        raise ValueError("polynomial is not nullified at the sample point")
    var = p.mvar()
    names = [n for n in p.order.names if p.order.level(n) <= p.level()]
    live: list = []
    for m in range(1, p.total_degree() + 1):
        for combo in combinations_with_replacement(names, m):
            q = p
            for v in combo:
                q = q.derivative(v)
            if q.is_zero() or _vanishes_in_var(q, var, s):
                continue
            live.append(q)
        if live:
            break
    if not live:
        return None
    if any(q.degree(var) == 0 for q in live):
        # a surviving derivative free of the main variable makes the
        # gcd constant
        return None
    if all(isinstance(c, RationalCoordinate) for c in s.coords):
        univs = []
        for q in live:
            for j, c in enumerate(s.coords):
                q = q.subs_rational_cleared(p.order.name(j + 1), c.value)
            univs.append(q)
        g = univs[0]
        for q in univs[1:]:
            g = poly_gcd(g, q)
            if g.is_constant():
                return None
        return squarefree_part(g)
    g = live[0]
    for q in live[1:]:
        g = fiber_gcd(g, q, var, s)
        if g.degree(var) == 0:
            return None
    if fiber_gcd(g, g.derivative(var), var, s).degree(var) != 0:
        g = fiber_squarefree_part(g, var, s)
    return g


# ---------------------------------------------------------------------------
# the full lifting phase


@dataclass(frozen=True)
class CAD:
    """Finished decomposition: cells sorted by index, plus the records
    of every nullification event met along the way.

    The stack tree is kept as two maps built once, on first use, from
    the cells: index prefix -> section polynomials of the stack over it,
    and index -> cell.
    """

    order: VarOrder
    method: str
    final_oi: bool
    cells: tuple
    warnings: tuple = ()
    delineations: tuple = ()
    levels: Optional[ProjectionLevels] = None

    @cached_property
    def _by_index(self) -> dict:
        out: dict = {}
        for c in self.cells:
            out.setdefault(c.index, c)
        return out

    @cached_property
    def _sections(self) -> dict:
        owner: dict = {}
        for c in self.cells:
            for j, entry in enumerate(c.index):
                if entry % 2 == 0:
                    owner.setdefault((c.index[:j], entry),
                                     c.bounds[j].lo.poly)
        out: dict = {}
        for prefix, _ in owner:
            if prefix in out:
                continue
            polys = []
            while (prefix, 2 * len(polys) + 2) in owner:
                polys.append(owner[prefix, 2 * len(polys) + 2])
            out[prefix] = tuple(polys)
        return out

    def section_polys(self, prefix) -> tuple:
        """Section polynomials of the stack over an index prefix, in
        ascending root order (one entry per section, repeats allowed)."""
        return self._sections.get(tuple(prefix), ())

    def cell_at(self, index) -> Optional[Cell]:
        """The cell carrying this index, or None."""
        return self._by_index.get(tuple(index))


def cad_lifting(P: ProjectionLevels, method: Optional[str] = None,
                final_oi: bool = False, strict: bool = False) -> CAD:
    """Build the cell decomposition of R^n from projection levels.

    Any polynomial vanishing identically over a base cell is excluded
    from that cell's stack.  On the mccallum path below the final lift
    (or everywhere, with final_oi) such a cell additionally triggers
    the delineating-polynomial repair when zero-dimensional, and a
    not-well-oriented warning (or, with strict, an abort) otherwise.
    """
    if method is None:
        method = P.method
    if method != P.method:
        raise ValueError(
            "projection was computed with method %r" % (P.method,))
    root = Cell((), SamplePoint(()), ())
    current = list(generate_stack(root, P.level(1)).cells)
    warnings: list = []
    delineations: list = []
    for i in range(2, P.n + 1):
        level_polys = P.level(i)
        check_null = method == "mccallum" and (i < P.n or final_oi)
        nxt: list = []
        for cell in current:
            q = []
            for p in level_polys:
                if not is_nullified(p, cell):
                    q.append(p)
                    continue
                if not check_null:
                    continue
                if cell.dimension() == 0:
                    d = minimal_delineating_polynomial(p, cell.sample)
                    if d is not None:
                        q.append(d)
                        delineations.append((cell.index, p, d))
                else:
                    if strict:
                        raise NotWellOrientedError("input not well-oriented")
                    warnings.append((cell.index, p))
            nxt.extend(generate_stack(cell, q).cells)
        current = nxt
    current.sort(key=lambda c: c.index)
    return CAD(P.order, method, final_oi, tuple(current),
               tuple(warnings), tuple(delineations), P)
