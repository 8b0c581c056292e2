"""Stack construction over cells and the full lifting phase.

Lifting walks the variable order from the bottom: the real line is cut
at the roots of the level-1 polynomials, then every cell of R^(i-1) is
extended to a stack of cells in R^i by isolating the roots of the
level-i polynomials over the cell's sample point.  Sections (graphs of
root functions) alternate with the sectors between them, so a stack
always has odd length, and a cell's index records its position in each
stack on the way up: even entries pin a coordinate to a root, odd
entries leave it ranging in a band.  A stack comes from one call of
roots_over_cell.  A cell is its index and its sample point; the stack
holds what cuts it, one RootRef per section, bottom to top: the basis
polynomial owning the section's root and that root's rank among the
polynomial's roots.  Every stack is kept in the finished CAD, keyed by
its base cell's index: that tree is what queries descend, and the
cells of the top level, met in index order, are its leaves.

A polynomial that vanishes identically over a base cell contributes no
sections there: the stack's fiber basis sets it aside, as it does a
nonzero constant.  With the smaller projection operator this is also a
correctness concern anywhere below the final lift (or during it, when
an order-invariant result was requested): over a single point the
vanished polynomial is replaced by a minimal delineating polynomial
added to that one stack's input; over anything bigger a warning is
recorded, or in strict mode the computation stops.  The larger
operator's theory needs none of this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Optional

from .algnum import (
    RationalCoordinate,
    SamplePoint,
    _fiber_basis,
    _memo_scope,
    _strip,
    fiber_gcd,
    fiber_reduce,
    roots_over_cell,
)
from .polyring import MultiPoly, VarOrder, _npoint_subs, primitive_part
from .projection import ProjectionLevels

__all__ = [
    "CAD",
    "Cell",
    "NotWellOrientedError",
    "RootRef",
    "Stack",
    "cad_lifting",
    "generate_stack",
    "is_nullified",
    "minimal_delineating_polynomial",
]


class NotWellOrientedError(RuntimeError):
    """A polynomial vanished identically over a positive-dimensional cell
    and the caller asked for a hard failure instead of a warning."""


@dataclass(frozen=True)
class RootRef:
    """The ordinal-th real root (1-based, increasing) of a polynomial
    over the base cell of the stack it cuts."""

    poly: MultiPoly
    ordinal: int

    def __str__(self):
        return "root %d of %s" % (self.ordinal, self.poly)


@dataclass(frozen=True)
class Cell:
    """One cell of a decomposition of R^k."""

    index: tuple
    sample: SamplePoint

    def dimension(self) -> int:
        return sum(1 for k in self.index if k % 2 == 1)

    def __repr__(self):
        return "Cell(%s)" % (",".join(str(k) for k in self.index),)


@dataclass(frozen=True)
class Stack:
    """The cells over a base cell and the RootRef of each section,
    both bottom to top: roots[j] pins the section at stack position
    2j + 2, and each sector lies between its neighbouring sections'
    refs, unbounded past either end."""

    base: Cell
    cells: tuple
    roots: tuple


# ---------------------------------------------------------------------------
# stacks


def generate_stack(cell: Cell, polys) -> Stack:
    """Decompose the line over `cell` at the roots of `polys`.

    Returns the odd-length stack of sector/section cells, each indexed
    by its 1-based position and carrying an extended sample point, and
    the RootRef of each section.
    """
    s = cell.sample
    sections, samples, owners = roots_over_cell(polys, s)
    refs = []
    seen: dict = {}
    for owner in owners:
        # the owner (rather than the root's numeric value) lets the
        # section be re-evaluated anywhere over the base cell
        seen[owner] = seen.get(owner, 0) + 1
        refs.append(RootRef(owner, seen[owner]))
    cells = []
    for j, sample in enumerate(samples):
        cells.append(Cell(cell.index + (2 * j + 1,),
                          s.extend(RationalCoordinate(sample))))
        if j < len(sections):
            cells.append(Cell(cell.index + (2 * j + 2,),
                              s.extend(sections[j])))
    return Stack(cell, tuple(cells), tuple(refs))


# ---------------------------------------------------------------------------
# nullification


def is_nullified(p: MultiPoly, s: SamplePoint) -> bool:
    """True iff p vanishes identically over the cell sampled at s, i.e.
    every coefficient in its main variable is zero at s."""
    if p.is_zero():
        return True
    if p.is_constant():
        return False
    return fiber_reduce(p, p.mvar(), s).is_zero()


def minimal_delineating_polynomial(p: MultiPoly,
                                   s: SamplePoint) -> Optional[MultiPoly]:
    """Replacement for a polynomial nullified at a single point.

    Takes the least m for which some order-m partial derivative of p
    survives at the point as a univariate polynomial in p's main
    variable, and returns the primitive part, in the main variable, of
    the squarefree part of the gcd of all the surviving order-m partials
    there.  Every rational coordinate of the point is substituted into
    the partials first.  None when that gcd is constant, meaning no
    replacement is needed at all, which is so as soon as a surviving
    partial, reduced over the point, is free of the main variable.  The
    content dropped divides the leading coefficient, which is nonzero
    over the point, so the roots there stay the same.
    """
    if not is_nullified(p, s):
        raise ValueError("polynomial is not nullified at the sample point")
    var = p.mvar()
    names = [n for n in p.order.names if p.order.level(n) <= p.level()]
    values = [c.value if isinstance(c, RationalCoordinate) else None
              for c in s.coords] + [None]
    live: list = []
    for m in range(1, p.total_degree() + 1):
        for combo in combinations_with_replacement(names, m):
            q = p
            for v in combo:
                q = q.derivative(v)
            q = fiber_reduce(MultiPoly(p.order, _npoint_subs(q.node, values)),
                             var, s)
            if q.is_zero():
                continue
            if q.degree(var) == 0:
                return None
            live.append(q)
        if live:
            break
    g = live[0]
    for q in live[1:]:
        g = fiber_gcd(g, q, var, s)
        if g.degree(var) == 0:
            return None
    h, = _fiber_basis([g], var, s)
    return _strip(primitive_part(h))


# ---------------------------------------------------------------------------
# the full lifting phase


@dataclass(frozen=True)
class CAD:
    """Finished decomposition: its stack tree, the top-level cells in
    index order, and the records of every nullification event met
    along the way.

    stacks maps the index of every cell below the top level to the
    stack over it, () to the stack over the empty cell R^0, so the
    tree is walked down from () and its leaves are the cells.
    """

    order: VarOrder
    method: str
    final_oi: bool
    cells: tuple
    warnings: tuple = ()
    delineations: tuple = ()
    levels: Optional[ProjectionLevels] = None
    # left out of the hash, which a dict has not, so a CAD stays hashable
    stacks: dict = field(default_factory=dict, hash=False)

    def section_polys(self, prefix) -> tuple:
        """Section polynomials of the stack over an index prefix, in
        ascending root order (one entry per section, repeats allowed)."""
        stack = self.stacks.get(tuple(prefix))
        if stack is None:
            return ()
        return tuple(r.poly for r in stack.roots)

    def cell_at(self, index) -> Optional[Cell]:
        """The cell carrying this index, or None."""
        index = tuple(index)
        if len(index) != self.order.n:
            return None
        stack = self.stacks.get(index[:-1])
        k = index[-1]
        if stack is None or not 0 < k <= len(stack.cells):
            return None
        return stack.cells[k - 1]


def cad_lifting(P: ProjectionLevels, final_oi: bool = False,
                strict: bool = False) -> CAD:
    """Build the cell decomposition of R^n from projection levels.

    Every level polynomial goes to every stack at its level, and one
    vanishing identically over the base cell adds no sections: the
    stack's fiber basis sets it aside.  On the mccallum path below the
    final lift (or everywhere, with final_oi) each polynomial is also
    tested for that (is_nullified), and a vanishing one triggers the
    delineating-polynomial repair over a zero-dimensional cell, and a
    not-well-oriented warning (or, with strict, an abort) otherwise.
    Every stack built is kept in the CAD's stacks; the top-level cells
    come out of them in index order.  The run binds algnum's memo of
    fiber-independent algebra for its duration only.
    """
    with _memo_scope():
        root = Cell((), SamplePoint(()))
        stacks = {(): generate_stack(root, P.level(1))}
        current = stacks[()].cells
        warnings: list = []
        delineations: list = []
        for i in range(2, P.n + 1):
            level_polys = P.level(i)
            check_null = P.method == "mccallum" and (i < P.n or final_oi)
            nxt: list = []
            for cell in current:
                # the stack's fiber basis sets aside every polynomial
                # that vanishes over the cell; only a repair or a warning
                # needs to know which
                q = list(level_polys)
                for p in level_polys:
                    if not check_null or not is_nullified(p, cell.sample):
                        continue
                    if cell.dimension() == 0:
                        d = minimal_delineating_polynomial(p, cell.sample)
                        if d is not None:
                            q.append(d)
                            delineations.append((cell.index, p, d))
                    else:
                        if strict:
                            raise NotWellOrientedError(
                                "input not well-oriented")
                        warnings.append((cell.index, p))
                stacks[cell.index] = generate_stack(cell, q)
                nxt.extend(stacks[cell.index].cells)
            current = nxt
        return CAD(P.order, P.method, final_oi, tuple(current),
                   tuple(warnings), tuple(delineations), P, stacks)
