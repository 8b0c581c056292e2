"""Exact real algebraic machinery for the lifting phase.

Coordinates of sample points are either rationals or real roots of
lower-level polynomials pinned down by an isolating interval.  Every
decision here reduces to integer polynomial arithmetic plus exact sign
tests; interval arithmetic runs on integers (every enclosure at one
common positive scale) and decides a sign only when its enclosure
excludes 0, so nothing depends on floating point.

Boxes are integers too.  A RootOfCoordinate holds its working box
[a/q, b/q] as the integers a, b and q.  Descartes/bisection emits
(a, b, q) triples and each root is built straight from its triple;
every box isolation makes has a power-of-two q: the root bound is 2^k,
split points are a/q + (b-a)/q * num/2^t, and bisection takes the
midpoint (a + b)/(2q).  Points are passed as (u, v) for u/v, boxes are
compared with each other and with rationals by cross-multiplication,
and the simplest rational in a gap between two roots comes from a
continued-fraction descent on integers.  A Fraction is built only at
the edges: a sector sample, the point value of a collapsed box, the
interval the output prints (a root's `isolated` pair, the form
isolate_real_roots returns too), and the point handed to an exact
fallback.

_fiber_basis is the one place a fiber basis is built: each polynomial
is reduced over the fiber, flattened to its squarefree part there if
needed, and split along its fiber gcd with every basis element it
shares roots with.  The pieces stay polynomials in the lower variables,
so a section can be re-evaluated anywhere over the base cell.  It
also flattens the delineating polynomial that lifting puts in place of
a nullified one.  _isolated_basis isolates each element once, and the
element owns the roots it yields; roots_over_cell sorts them and adds
sector samples for lifting, and cadcore reads a query stack's roots off
them.  _isolate is the one place real roots are isolated, for
_isolated_basis (lifting and queries) and for isolate_real_roots.

A lifting run (lifting.cad_lifting) binds one memo for as long as it
runs (_memo_scope: a context variable, reset when the run returns or
raises); outside a run none is bound and everything is computed afresh.
The memo holds only results that are pure functions of their operands,
the same over every fiber: the pseudo-remainders of the fiber gcds, the
pseudo-quotients of the fiber quotients, _strip, and the derivative a
squarefree test takes.  A pair of polynomials met over many cells is
thus divided once per run.  Nothing that depends on a fiber is kept: no
sign, reduction, root or box.  No memo outlives its run, so one run
never starts from another's state.

Root isolation over a fiber is Descartes/bisection (Collins and Akritas,
SYMSAC 1976) in one loop, _descartes, whose boxes wait on an explicit
stack, so no isolation depth meets Python's recursion limit; it ends
because the polynomial is squarefree over the fiber.  It decides on
the polynomial's interval image (Collins, Johnson and
Krandick, JSC 34, 2002): its coefficients in the main variable enclosed
over the fiber's boxes, scaled to integer endpoints.  Each Descartes
node on (a/q, b/q) runs the integer scale by q, a Taylor shift by a,
a scale by b - a, a reversal, a shift by 1 and a sign count on it in
interval arithmetic (Rouillier and Zimmermann, JCAM 162, 2004), and
split points and bisection signs evaluate it by interval Horner.  A
decision is taken only when every enclosure it needs excludes 0 or is
exactly [0, 0]; it is then exact, because the boxes contain their
coordinates and so the enclosures contain the true values, for good.
Otherwise that one node or sign falls back to the exact symbolic step:
the same transform runs on the polynomial's coefficients, which stay
integer polynomials in the lower variables, and each transformed
coefficient's sign at the fiber is decided by sign_at.

When every lower variable the polynomial involves sits at a rational
coordinate, the rationals are substituted once, by integer Horner with
every denominator cleared to one common scale.
That gives the polynomial's dense image: a list of integers, a positive
multiple of the polynomial on the fiber, on which every decision is
taken, on integers.  _fiber_basis asks one question of images, whether
two polynomials share a root there: of a polynomial and its derivative,
which tests squarefreeness, and of two basis elements (_proven_coprime).
A pair with a linear image is decided exactly, by one integer Horner of
the other image at the linear one's root, so a linear image is
squarefree outright and a quadratic is signed at its derivative's root;
any other pair takes polyring's coprimality certificate
(_images_coprime), one integer gcd of the two values at a point above
both images' roots.  The certificate cannot prove a pair such as y and
y*x - 1 at a dyadic x whose denominator is that point or more, as both
values there are then multiples of it, hence the Horner test.  Only a
pair neither proves goes, alone, to the fiber gcd, which is exact and,
with every coordinate the pair involves rational, refines no box.
_isolate reads the root bound straight off the image, gives the root of
a linear image as an exact rational, and runs Descartes/bisection on the
image's int list (_descartes): each node is the sign variations of
_to_unit on it, each split point a _horner sign.  Each root keeps the
image's point enclosure (every radius 0), on which its bisection signs
are read.  A polynomial that first involves an algebraic coordinate but
is free of it once reduced over the fiber has a dense image too.

A sign at a sample point first substitutes every point-valued
coordinate in one pass of integer Horner on the polynomial's nodes.
What is left is read off the current boxes: interval Horner on integers
over the isolating intervals as they stand, with no refinement.  Every
box contains its coordinate, so an enclosure that excludes 0 gives the
exact sign (the validated-numerics filter of Strzebonski, JSC 41,
2006).  An enclosure containing 0 first takes the one exact decision
known before any work: an integer multiple of the defining polynomial
of the top remaining coordinate, a root signed over its own prefix, is
0 there (a PRS remainder that equals the section's owner, say).
Anything else goes to the exact zero test, a fiber-local gcd with the
coordinate's defining polynomial, which may well be reducible (bases are
only squarefree, not irreducible), so a shared root is detected by a
sign change of that gcd across the isolating interval rather than by
divisibility.  A value the gcd shows to be nonzero is signed by interval
evaluation under refinement.  sign_at is the one exact sign at a point:
a polynomial's sign at a rational u/v over a fiber (the gcd's signs at
the box ends, and a bisection or split-point sign that the interval
image leaves undecided) is one sign_at at the fiber extended by u/v
(_fiber_sign), which substitutes every point value in one pass.

Each real root is one RootOfCoordinate, shared by every sample point
over it; refinement shrinks its box in place, which moves no decision
and nothing printed: the output shows the interval isolation found from
a root bound fixed by the polynomial and the fiber (_root_bound_of, or
_image_root_bound on a dense image), built as Fractions only when read.
Every comparison of a root is made here.  A root is placed against a
rational by its box alone when the rational lies outside it, and else
by one sign of its defining polynomial, with no box narrowed
(_cmp_root_to_rational through _root_side, the test bisection takes at
each midpoint too).  A root is placed against another root by bisecting
both boxes until they come apart (_compare_coords).  Every refinement
loop has a step budget and raises ArithmeticError (SeparabilityError
when two roots will not separate) once it is spent.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Optional

from .polyring import (
    MultiPoly,
    _images_coprime,
    _nbox_cleared,
    _nbox_scales,
    _ndegrees,
    _nlevel,
    _npoint_subs,
    poly_gcd,
    pquo,
    prem,
)

__all__ = [
    "RationalCoordinate",
    "RootOfCoordinate",
    "SamplePoint",
    "SeparabilityError",
    "fiber_gcd",
    "fiber_reduce",
    "isolate_real_roots",
    "refine",
    "roots_over_cell",
    "sign_at",
]

# the floor of _separation_budget, the bisection steps allowed in a loop
# that separates two roots that should be distinct, or shrinks boxes
# until an enclosure of a value that should be nonzero excludes 0
_MAX_SEPARATION_STEPS = 512


class SeparabilityError(ValueError):
    """Polynomials that must be coprime and squarefree over a cell are not."""


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _reduced(a: int, b: int, q: int) -> tuple:
    # (a, b, q) divided by gcd(a, b, q)
    g = math.gcd(a, b, q)
    return (a // g, b // g, q // g) if g > 1 else (a, b, q)


@dataclass(frozen=True)
class RationalCoordinate:
    value: Fraction

    def point_value(self) -> Fraction:
        return self.value

    def box(self):
        return (self.value, self.value)


class RootOfCoordinate:
    """Coordinate pinned as the unique root of `defining` in an isolating
    interval, given as a pair of rationals lo <= hi.

    `prefix` holds the lower coordinates the defining polynomial's
    coefficients are evaluated over.  `isolated` is the interval
    isolation found, as a pair of Fractions, which the output prints; it
    is built on each read from that box, kept as the triple `_iso`.
    The working box [a/q, b/q] starts there and shrinks in place, for
    every sample point sharing the root.  It is stored as the integers
    a, b and q, q > 0 and reduced by gcd(a, b, q); isolation and
    bisection only ever make a power-of-two q, and a == b marks a box
    collapsed onto an exactly known rational root.  The defining
    polynomial, being squarefree over the fiber, changes sign exactly
    once inside a proper box and vanishes at neither end, which
    _root_side relies on.  `_sign_lo` is the defining polynomial's sign
    just below the root, None until first needed and fixed for the
    root's life.  Bisection and every comparison read the integers;
    point_value() and box() build Fractions.

    `enclosure` is the defining polynomial's interval image over the
    prefix (see _coeff_enclosure), or None.  Bisection signs the defining
    polynomial on it by interval Horner, and falls back to sign_at only
    when that does not decide.  It stays valid for good, since the
    coefficients' values never change.  When the prefix fixes every
    variable of the defining polynomial to a rational it is the point
    enclosure of the dense image, which always decides.
    """

    __slots__ = ("defining", "a", "b", "q", "prefix", "enclosure",
                 "_sign_lo", "_iso")

    def __init__(self, defining: MultiPoly, interval: tuple, prefix=(),
                 enclosure: Optional[tuple] = None):
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        # over the least common denominator the triple is reduced
        q = math.lcm(lo.denominator, hi.denominator)
        self._init(defining, lo.numerator * (q // lo.denominator),
                   hi.numerator * (q // hi.denominator), q, prefix,
                   enclosure)

    @classmethod
    def _of(cls, defining: MultiPoly, a: int, b: int, q: int, prefix,
            enclosure) -> "RootOfCoordinate":
        """The root in the box [a/q, b/q]: a <= b, q > 0 and the triple
        reduced by gcd(a, b, q), as _descartes emits it."""
        root = cls.__new__(cls)
        root._init(defining, a, b, q, prefix, enclosure)
        return root

    def _init(self, defining, a, b, q, prefix, enclosure):
        self.defining = defining
        self.a, self.b, self.q = a, b, q
        self._iso = (a, b, q)
        self.prefix = tuple(prefix)
        self.enclosure = enclosure
        self._sign_lo = None

    @property
    def isolated(self) -> tuple:
        a, b, q = self._iso
        return (Fraction(a, q), Fraction(b, q))

    def point_value(self) -> Optional[Fraction]:
        return Fraction(self.a, self.q) if self.a == self.b else None

    def box(self):
        return (Fraction(self.a, self.q), Fraction(self.b, self.q))

    def __repr__(self):
        return "RootOf(%s, (%s, %s))" % ((self.defining,) + self.box())


class SamplePoint:
    """Triangular tuple of coordinates for variables 1..k."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable = ()):
        self.coords = tuple(coords)

    def __len__(self) -> int:
        return len(self.coords)

    def prefix(self, k: int) -> "SamplePoint":
        return SamplePoint(self.coords[:k])

    def extend(self, coord) -> "SamplePoint":
        return SamplePoint(self.coords + (coord,))

    def __repr__(self):
        return "SamplePoint(%r)" % (list(self.coords),)


# ---------------------------------------------------------------------------
# exact signs at a sample point


def sign_at(q: MultiPoly, s: SamplePoint) -> int:
    """Exact sign of q at the sample point s.

    Every coordinate with a point value (a rational, or a root whose
    interval has collapsed) is substituted in one pass of integer Horner
    at one common scale, which leaves a positive multiple of q with the
    other coordinates symbolic.  That is evaluated over their current
    boxes by integer interval Horner; when the enclosure excludes 0 its
    sign is the answer, and nothing is refined.

    Otherwise, with coord the top remaining algebraic coordinate, at
    level j, coord's prefix must be the point's lower coordinates: a
    root placed over a fiber other than its own raises ValueError, as
    its defining polynomial, read over the point's fiber, need not
    vanish at it.  The sign is 0 when q is an integer times coord's
    defining polynomial: j is q's own level and _strip(q), which drops
    q's integer content and sign, equals the defining polynomial.
    Nothing is refined then.  Any other zero decision goes through a
    fiber gcd with coord's defining polynomial, whose signs at the ends
    of coord's box are each one sign_at at the lower coordinates
    extended by the end (_fiber_sign), and a nonzero value is signed by
    interval evaluation under refinement.
    """
    node = q.node
    if isinstance(node, int):
        return _sgn(node)
    k = len(s)
    if node[0] > k:
        name = next(v for v in q.variables() if q.order.level(v) > k)
        raise ValueError("variable %r is not fixed by the sample point"
                         % (name,))
    node = _npoint_subs(node, [c.point_value() for c in s.coords[:node[0]]],
                        q._shape())
    if isinstance(node, int):
        return _sgn(node)
    r = MultiPoly(q.order, node)
    sg = _box_sign(r, s)
    if sg is not None:
        return sg
    j = node[0]
    coord = s.coords[j - 1]
    if coord.prefix != s.coords[:j - 1]:
        raise ValueError("the root %r lies over a fiber other than the "
                         "point's lower coordinates" % (coord,))
    if j == q.node[0] and _strip(q) == coord.defining:
        return 0
    var = r.mvar()
    pref = s.prefix(j - 1)
    g = fiber_gcd(r, coord.defining, var, pref)
    if g.degree(var) >= 1:
        slo = _fiber_sign(g, pref.coords, None, coord.a, coord.q)
        shi = _fiber_sign(g, pref.coords, None, coord.b, coord.q)
        if slo * shi < 0:
            return 0
    return _interval_sign(r, s)


def _int_box(coord) -> tuple:
    """The coordinate's current box [a/q, b/q] as (a, b, q): a root's
    stored triple, or (n, n, d) for a rational n/d."""
    if isinstance(coord, RationalCoordinate):
        v = coord.value
        return v.numerator, v.numerator, v.denominator
    return coord.a, coord.b, coord.q


def _box_enclosure(node, coords) -> tuple:
    """(lo, hi, K): K > 0, and [lo/K, hi/K] encloses the node's values
    over the current boxes of coords (coords[l - 1] for level l)."""
    if isinstance(node, int):
        return node, node, 1
    degs = _ndegrees(node)
    boxes, scale = _nbox_scales(degs, lambda l: _int_box(coords[l - 1]),
                                node[0])
    lo, hi = _nbox_cleared(node, boxes, degs, scale)
    return lo, hi, scale[-1]


def _box_sign(r: MultiPoly, s: SamplePoint) -> Optional[int]:
    """Sign of r from the current boxes of the coordinates of s, or None
    when the enclosure contains 0.  Refines nothing; sound because every
    box contains its coordinate."""
    lo, hi, _ = _box_enclosure(r.node, s.coords)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return None


def _interval_sign(r: MultiPoly, s: SamplePoint) -> int:
    # value known nonzero: shrink boxes until the evaluation excludes 0
    order = r.order
    coords = [s.coords[order.level(v) - 1] for v in r.variables()]
    for steps, _ in enumerate(_separation_budget(*coords, poly=r)):
        if steps and not _bisect_all(coords):
            raise ArithmeticError("exact zero reached in nonzero sign path")
        sg = _box_sign(r, s)
        if sg is not None:
            return sg
    raise ArithmeticError("sign of %s not decided after %d bisection steps"
                          % (r, steps))


def _bisect_all(coords) -> bool:
    """Bisect every coordinate without a point value once; False when
    there is none."""
    progressed = False
    for c in coords:
        if isinstance(c, RootOfCoordinate) and c.a != c.b:
            _bisect_once(c)
            progressed = True
    return progressed


def _defining_sign(coord: RootOfCoordinate, u: int, v: int) -> int:
    """Sign of the coordinate's defining polynomial at u/v (v > 0) over
    its prefix."""
    return _fiber_sign(coord.defining, coord.prefix, coord.enclosure, u, v)


def _fiber_sign(f: MultiPoly, prefix: tuple, enc, u: int, v: int) -> int:
    """Sign of f(u/v), v > 0, at the fiber of the coordinates `prefix`,
    u/v in f's main variable, the one just above them: read off the
    coefficient enclosure enc (None for none) when that decides it, else
    exact by one sign_at at the prefix extended by u/v."""
    if enc is not None:
        sg = _enclosure_sign(enc, u, v)
        if sg is not None:
            return sg
    return sign_at(f, SamplePoint(
        prefix + (RationalCoordinate(Fraction(u, v)),)))


def _root_side(coord: RootOfCoordinate, u: int, v: int) -> int:
    """+1, 0 or -1 as the root lies above, at or below u/v (v > 0), a
    rational in the root's closed, proper box.

    The defining polynomial is squarefree over the fiber, changes sign
    exactly once inside the box and vanishes at neither end (Collins and
    Akritas, SYMSAC 1976).  So its sign at u/v is 0 when u/v is the
    root, the sign just below the root (_sign_lo, taken at the box's low
    end on first use) when u/v lies below it, and the other sign above.
    """
    s = _defining_sign(coord, u, v)
    if s == 0:
        return 0
    if coord._sign_lo is None:
        coord._sign_lo = _defining_sign(coord, coord.a, coord.q)
    return 1 if s == coord._sign_lo else -1


def _bisect_once(coord: RootOfCoordinate):
    """One bisection step on a proper box (a < b): the box keeps the
    half on the root's side of its midpoint (a + b)/(2q), and collapses
    to it on an exact hit."""
    a, b, q = coord.a, coord.b, coord.q
    m, q2 = a + b, 2 * q
    side = _root_side(coord, m, q2)
    # [a, m] for a root below m, [m, b] above it, and m itself at it
    coord.a, coord.b, coord.q = _reduced(2 * a if side < 0 else m,
                                         2 * b if side > 0 else m, q2)


def refine(coord, width):
    """Shrink a coordinate's working box to the requested width.

    Rational coordinates pass through unchanged; the same object is
    returned with its working box narrowed in place, for every sample
    point sharing it, and its `isolated` interval as it was.  The width
    must be positive: bisection never brings an irrational root's box to
    width 0.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("refinement width must be positive, got %s"
                         % (width,))
    if isinstance(coord, RationalCoordinate):
        return coord
    u, v = width.numerator, width.denominator
    while (coord.b - coord.a) * v > u * coord.q:
        _bisect_once(coord)
    return coord


# ---------------------------------------------------------------------------
# the memo of a lifting run (see the module docstring)

_run_memo: ContextVar = ContextVar("projcad_algnum_run_memo", default=None)


@contextmanager
def _memo_scope():
    """Bind a fresh memo for the block, and unbind it however the block
    ends."""
    token = _run_memo.set({})
    try:
        yield
    finally:
        _run_memo.reset(token)


def _memoized(fn, *args):
    """fn(*args), kept in the memo bound by _memo_scope, if any.  fn
    must be a pure function of its arguments that never returns None."""
    memo = _run_memo.get()
    if memo is None:
        return fn(*args)
    key = (fn,) + args
    r = memo.get(key)
    if r is None:
        r = memo[key] = fn(*args)
    return r


# ---------------------------------------------------------------------------
# fiber-local polynomial tools (coefficients tested at a sample point)


def _strip(p: MultiPoly) -> MultiPoly:
    """p divided by its integer content, with a positive leading base
    coefficient."""
    return _memoized(MultiPoly.assoc_normalized, p)


def fiber_reduce(f: MultiPoly, var: str, s: SamplePoint) -> MultiPoly:
    """Drop leading coefficients of f (in var) that vanish at s.  f must
    not involve variables above var."""
    lvl = f.order.level(var)
    node = f.node
    if _nlevel(node) < lvl:
        if f.is_zero() or sign_at(f, s) != 0:
            return f
        return MultiPoly.zero(f.order)
    if node[0] > lvl:
        raise ValueError("%s involves variables above %r" % (f, var))
    for e, c in node[1]:
        if sign_at(MultiPoly(f.order, c), s) != 0:
            return _truncated(f, e)
    return MultiPoly.zero(f.order)


def _truncated(f: MultiPoly, top: int) -> MultiPoly:
    """f without its terms of degree above `top` in its main variable (0
    for top < 0)."""
    lvl, terms = f.node
    if terms[0][0] <= top:
        return f
    rest = tuple(t for t in terms if t[0] <= top)
    if not rest:
        return MultiPoly.zero(f.order)
    return MultiPoly(f.order, (lvl, rest) if rest[0][0] else rest[0][1])


def fiber_gcd(f: MultiPoly, g: MultiPoly, var: str, s: SamplePoint) -> MultiPoly:
    """Polynomial whose evaluation at s is a gcd of f and g evaluated at s.

    Pseudo-remainder sequence where zero tests on coefficients are done
    at the fiber; the pseudo-division multipliers are fiber-nonzero, so
    the zero set over the fiber is preserved.  A constant result means
    the evaluated polynomials are coprime.

    Each pseudo-remainder, and each content _strip divides out, is a
    pure function of the polynomials it is taken of, whatever the fiber;
    within a lifting run both come from the run's memo (see the module
    docstring), so a pair met over many cells is divided once.  What
    depends on the fiber, the reduction of f, g and each remainder over
    it, runs on every call.  _reduced_gcd is the sequence alone, for
    operands already reduced over the fiber.
    """
    a = fiber_reduce(f, var, s)
    b = fiber_reduce(g, var, s)
    if a.is_zero():
        return _strip(b) if not b.is_zero() else b
    if b.is_zero():
        return _strip(a)
    return _reduced_gcd(a, b, var, s)


def _reduced_gcd(a: MultiPoly, b: MultiPoly, var: str,
                 s: SamplePoint) -> MultiPoly:
    """fiber_gcd of a and b, both nonzero and reduced over the fiber s
    (fiber_reduce leaves them as they are); only the remainders are
    reduced."""
    if a.degree(var) < b.degree(var):
        a, b = b, a
    while True:
        if b.degree(var) == 0:
            return MultiPoly.one(a.order)
        r = fiber_reduce(_memoized(prem, a, b, var), var, s)
        if r.is_zero():
            return _strip(b)
        a, b = b, _strip(r)


# ---------------------------------------------------------------------------
# dense images over rational fibers


def _fiber_image(p: MultiPoly, var: str, s: SamplePoint) -> Optional[list]:
    """Dense image of p in var at the fiber s, lowest degree first, with
    no zero leading entries ([] when p vanishes there).

    Every lower variable of p is substituted by its rational value, at
    one common positive scale (each denominator raised to p's degree in
    its variable), so the coefficients come out of integer Horner
    (MultiPoly.cleared_coeffs) and the image is a positive multiple of p
    on the fiber; it is divided by its content.  None when some lower
    variable of p sits at a root, even a collapsed one; p's interval
    image is then taken over the boxes (see _isolate).
    """
    order = p.order
    lvl = order.level(var)
    vals = [c.value if isinstance(c, RationalCoordinate) else None
            for c in s.coords[:lvl - 1]]
    if None in vals:
        # only the levels p involves need a point value
        for j in p._shape():
            if j < lvl and vals[j - 1] is None:
                return None
    img = p.cleared_coeffs(var, vals)
    while img and img[-1] == 0:
        img.pop()
    g = math.gcd(*img)
    return [c // g for c in img] if g > 1 else img


def _horner(c, u: int, v: int) -> int:
    """v^d c(u/v) for integer coefficients c, lowest degree first, by
    integer Horner."""
    acc, w = 0, 1
    for ci in reversed(c):
        acc = acc * u + ci * w
        w *= v
    return acc


def _taylor_shift(c: list, t: int):
    """c(x) -> c(x + t) in place, lowest degree first."""
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += t * c[j + 1]


def _to_unit(c, q: int, pa: int, pw: int) -> list:
    """Coefficients of (v+1)^d h(1/(v+1)), h = q^d c(a + (b-a)v), for
    a = pa/q and b - a = pw/q; lowest degree first, c left as it is.
    The entries are integers, or polynomials in the lower variables."""
    d = len(c) - 1
    c = [ci * q ** (d - i) for i, ci in enumerate(c)]
    if pa:
        _taylor_shift(c, pa)
    c = [ci * pw**i for i, ci in enumerate(c)]
    c.reverse()
    _taylor_shift(c, 1)
    return c


def _changes(signs) -> int:
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


# ---------------------------------------------------------------------------
# interval images
#
# An enclosure is a pair (mid, rad) of int tuples, lowest degree first:
# for some fixed rational K > 0 the value of K * c_i at the fiber lies in
# [mid[i] - rad[i], mid[i] + rad[i]].  A linear map M with integer entries
# takes it to the enclosure (M mid, |M| rad), both computed on integers.
# A decision is taken only when every enclosure it needs excludes 0 or is
# exactly [0, 0]; it is then the exact decision, because the enclosures
# contain the true values.  The roots of a dense image img carry its
# point enclosure (img, (0, ...)), which decides every sign; the radius
# arithmetic is skipped when every radius is 0.


def _coeff_enclosure(node, coords) -> tuple:
    """Enclosure of the coefficients of the node in its main variable
    over the current boxes of coords, all at one integer scale."""
    lvl, terms = node
    degs = _ndegrees(node)
    boxes, scale = _nbox_scales(degs, lambda l: _int_box(coords[l - 1]),
                                lvl - 1)
    base = scale[-1]
    mid = [0] * (terms[0][0] + 1)
    rad = [0] * (terms[0][0] + 1)
    for e, c in terms:
        lo, hi = _nbox_cleared(c, boxes, degs, scale)
        k = base // scale[_nlevel(c)]
        mid[e] = (lo + hi) * k
        rad[e] = (hi - lo) * k
    g = math.gcd(*mid, *rad) or 1
    return tuple(v // g for v in mid), tuple(v // g for v in rad)


def _enclosure_sign(enc, u: int, v: int) -> Optional[int]:
    """Sign at the rational u/v, v > 0, of the polynomial enclosed by
    enc, by interval Horner; None when the enclosure of the value
    straddles 0."""
    mid, rad = enc
    m = _horner(mid, u, v)
    if not any(rad):
        return _sgn(m)
    r = _horner(rad, abs(u), v)
    if m > r:
        return 1
    if m < -r:
        return -1
    return None if r else 0


def _enclosure_variations(enc, a: int, b: int, q: int) -> Optional[int]:
    """Sign variations on (a/q, b/q) of the polynomial c enclosed by enc:
    those of (v+1)^d h(1/(v+1)), h = q^d c((a + (b-a)v)/q) (the interval
    counterpart of _sign_variations), or None when some transformed
    coefficient's enclosure straddles 0.  The Taylor shift by a bounds
    its radii by the shift by |a|; every other step has nonnegative
    entries."""
    mid, rad = enc
    w = b - a
    if not any(rad):
        return _changes([m > 0 for m in _to_unit(mid, q, a, w) if m])
    signs = []
    for m, r in zip(_to_unit(mid, q, a, w), _to_unit(rad, q, abs(a), w)):
        if m > r:
            signs.append(True)
        elif m < -r:
            signs.append(False)
        elif r:
            return None
    return _changes(signs)


def _root_bound_of(g: MultiPoly, var: str, s: SamplePoint, enc) -> int:
    """The least B = 2^k, k >= 0, with |c_i| <= (B - 1) |lc| at the fiber
    s for every lower coefficient c_i of g in var: a bound on the real
    roots, at least Cauchy's 1 + max |c_i| / |lc|, fixed by g and the
    fiber.  enc is g's coefficient enclosure there, up to sign, its
    leading coefficient's excluding 0; it decides every test on a point
    enclosure, and sign_at each other test it does not decide."""
    d = len(enc[0]) - 1
    lo = [max(abs(m) - r, 0) for m, r in zip(*enc)]
    hi = [abs(m) + r for m, r in zip(*enc)]

    def within(i, t):  # |c_i| <= t |lc|
        if hi[i] <= t * lo[d] or lo[i] > t * hi[d]:
            return hi[i] <= t * lo[d]
        # the two signs are opposite exactly when |c_i| > t |lc|
        c, tl = g.coefficient(var, i), t * g.coefficient(var, d)
        return sign_at(tl - c, s) * sign_at(tl + c, s) >= 0

    # ceil(c / l).bit_length() is the least k with c <= (2^k - 1) l
    k_lo = max((-(-lo[i] // hi[d])).bit_length() for i in range(d))
    k_hi = max((-(-hi[i] // lo[d])).bit_length() for i in range(d))
    for k in range(k_lo, k_hi):
        if all(within(i, (1 << k) - 1) for i in range(d)):
            return 1 << k
    return 1 << k_hi


# ---------------------------------------------------------------------------
# real root isolation over a fiber


def _sign_variations(f: MultiPoly, var: str, s: SamplePoint,
                     a: int, b: int, q: int) -> int:
    """The exact Descartes node on (a/q, b/q): sign variations at the
    fiber s of (v+1)^d h(1/(v+1)), h = q^d f((a + (b-a)v)/q).  _to_unit
    runs on f's coefficients in var, polynomials in the lower variables,
    and each result is signed by sign_at from the highest degree down,
    zero coefficients skipped."""
    c = [MultiPoly.zero(f.order)] * (f.degree(var) + 1)
    for e, ce in f.coeff_terms(var):
        c[e] = ce
    signs = []
    for ce in reversed(_to_unit(c, q, a, b - a)):
        sc = sign_at(ce, s)
        if sc:
            signs.append(sc)
    return _changes(signs)


def _split_point(nonzero, degree: int, a: int, b: int, q: int) -> tuple:
    """Deterministic split point u/v in the middle half of (a/q, b/q)
    where the predicate nonzero(u, v) holds; keeps both parts at most 3/4
    of the width.  The candidates are a/q + (b-a)/q * num/2^t, so v is
    q 2^t.

    The candidates are distinct, and a polynomial of degree `degree` that
    does not vanish has at most that many roots, so once more candidates
    than that have failed the polynomial vanishes on the fiber.
    """
    w = b - a
    tried = 0
    t = 1
    while True:
        den = 1 << t
        for num in range(1, den, 2):
            if 4 * num < den or 4 * num > 3 * den:
                continue
            u, v = a * den + w * num, q * den
            if nonzero(u, v):
                return u, v
            tried += 1
            if tried > degree:
                raise ArithmeticError(
                    "no split point in (%s, %s): the polynomial vanishes "
                    "on the fiber" % (Fraction(a, q), Fraction(b, q)))
        t += 1


def _descartes(count, nonzero, degree: int, a: int, b: int, q: int, out):
    """Descartes/bisection on (a/q, b/q): append to out an isolating box
    (a, b, q) for each real root there, in increasing order.  count(a,
    b, q) is the node, the sign variations of the polynomial on the box
    (0: no root, 1: one), and a box counting more is split where
    nonzero holds (_split_point).  The boxes wait on an explicit stack,
    left half on top, so no depth meets the recursion limit; the loop
    ends for a polynomial squarefree on (a/q, b/q), as a box narrow
    enough counts at most 1."""
    todo = [(a, b, q)]
    while todo:
        a, b, q = todo.pop()
        v = count(a, b, q)
        if v == 1:
            out.append((a, b, q))
        elif v:
            m, mq = _split_point(nonzero, degree, a, b, q)
            k = mq // q
            todo.append(_reduced(m, b * k, mq))
            todo.append(_reduced(a * k, m, mq))


def _point_enclosure(img) -> tuple:
    return tuple(img), (0,) * len(img)


def _image_root_bound(img) -> int:
    """_root_bound_of on the point enclosure of a dense image: the least
    B = 2^k, k >= 0, with |c_i| <= (B - 1) |lc| for every lower c_i."""
    # ceil(c / l).bit_length() is the least k with c <= (2^k - 1) l
    return 1 << (-(-max(map(abs, img[:-1])) // abs(img[-1]))).bit_length()


def _isolate(f: MultiPoly, var: str, img, s: SamplePoint):
    """Isolate the real roots of f at the fiber s.

    Returns (coordinates in increasing order, root bound B).  f must be
    reduced over the fiber (its leading coefficient nonzero at s),
    squarefree at s and of positive degree there.  img is f's dense
    image at s, or None.  With img, B is read off it, a linear f gives
    its exact rational root, and _descartes runs on it, on integers.
    Without one every decision is taken on the interval image of
    _strip(f) over the boxes, once they have been shrunk until its
    leading coefficient's excludes 0: B is taken on it once
    (_root_bound_of), and _descartes searches (-B, B), each node or
    split sign the enclosure leaves undecided taking its exact step.
    Each root keeps the enclosure its bisection signs are read on: that
    interval image, or the point enclosure of img.
    """
    boxes = []
    if img is None:
        f = _strip(f)
        _interval_sign(MultiPoly(f.order, f.node[1][0][1]), s)
        enc = _coeff_enclosure(f.node, s.coords)
        B = _root_bound_of(f, var, s, enc)

        def count(a, b, q):
            v = _enclosure_variations(enc, a, b, q)
            return _sign_variations(f, var, s, a, b, q) if v is None else v

        _descartes(count,
                   lambda u, v: _fiber_sign(f, s.coords, enc, u, v) != 0,
                   f.degree(var), -B, B, 1, boxes)
    else:
        B = _image_root_bound(img)
        if len(img) == 2:
            return [RationalCoordinate(Fraction(-img[0], img[1]))], B
        # the image of _strip(f), up to a positive factor: _strip
        # divides by the content and may flip the sign
        if f.lead_base_coeff() < 0:
            img = [-c for c in img]
        f = _strip(f)
        _descartes(
            lambda a, b, q: _changes(
                [c > 0 for c in _to_unit(img, q, a, b - a) if c]),
            lambda u, v: _horner(img, u, v) != 0,
            len(img) - 1, -B, B, 1, boxes)
        enc = _point_enclosure(img)
    return [RootOfCoordinate._of(f, a, b, q, s.coords, enc)
            for a, b, q in boxes], B


def isolate_real_roots(f: MultiPoly):
    """Isolating intervals for all real roots of a univariate integer
    polynomial, in increasing order, as (lo, hi) pairs of Fractions: the
    form of RootOfCoordinate.isolated.  Endpoints are never roots.  They
    come from _isolate, the routine that isolates lifting's roots; no
    dense image is passed, so a linear f gets an interval too."""
    if f.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if len(f.variables()) > 1:
        raise ValueError("univariate polynomial required")
    if f.is_constant():
        return []
    var = f.mvar()
    if not poly_gcd(f, f.derivative(var)).is_constant():
        raise ValueError("squarefree polynomial required")
    roots, _ = _isolate(f, var, None, SamplePoint(()))
    return [c.isolated for c in roots]


# ---------------------------------------------------------------------------
# merged roots of several polynomials over one cell


def _separation_budget(*coords, poly=None):
    """One item per look at the boxes of the coordinates in a loop that
    narrows them: the first as they stand, then one per bisection step.

    Distinct roots of an integer polynomial of degree d whose
    coefficients have b bits lie about 2^-(d b) apart or more (Mahler,
    Michigan Math. J. 11, 1964), so d * b steps are allowed on top of
    the fixed floor: d sums the degrees over Q the coordinates can have
    (the product of the defining degrees down their prefixes) and b the
    largest coefficient bit lengths among those defining polynomials.
    A polynomial poly whose nonzero value there is to be signed adds its
    total degree to d and its bit length to b, as that value is a root
    of an integer polynomial that grows with both.  The budget is only
    worked out once a bisection is needed.
    """
    yield
    d = b = 0
    if poly is not None:
        d, b = poly.total_degree(), poly.height_bits()
    for c in coords:
        if isinstance(c, RationalCoordinate):
            v = c.value
            d += 1
            b += max(v.numerator.bit_length(), v.denominator.bit_length())
            continue
        n, bits = 1, 0
        for r in c.prefix + (c,):
            if isinstance(r, RootOfCoordinate):
                n *= r.defining.degree()
                bits = max(bits, r.defining.height_bits())
        d += n
        b += bits
    yield from range(_MAX_SEPARATION_STEPS + d * b)


def _compare_coords(c1, c2) -> int:
    for _ in _separation_budget(c1, c2):
        a1, b1, q1 = _int_box(c1)
        a2, b2, q2 = _int_box(c2)
        # the boxes [a1/q1, b1/q1] and [a2/q2, b2/q2], compared by
        # cross-multiplication; touching boxes are apart unless both are
        # points
        d = b1 * q2 - a2 * q1
        if d <= 0:
            if d == 0 and a1 == b1 and a2 == b2:
                raise SeparabilityError("separability violated")
            return -1
        d = b2 * q1 - a1 * q2
        if d <= 0:
            if d == 0 and a1 == b1 and a2 == b2:
                raise SeparabilityError("separability violated")
            return 1
        _bisect_all((c1, c2))
    raise SeparabilityError("separability violated")


def _cmp_root_to_rational(coord, x: Fraction) -> int:
    """-1/0/+1 for coord < x / coord == x / coord > x, exact: from the
    box alone when x lies outside it, else by one sign (_root_side); no
    box is narrowed."""
    a, b, q = _int_box(coord)
    u, v = x.numerator, x.denominator
    if u * q < a * v:
        return 1
    if u * q > b * v:
        return -1
    return 0 if a == b else _root_side(coord, u, v)


def _separated_ends(c1, c2) -> tuple:
    """(b1, q1, a2, q2) with b1/q1 < a2/q2: the facing ends of the boxes
    of two ordered roots c1 < c2, bisected apart within the separation
    budget.  SeparabilityError when the budget is spent or nothing is
    left to bisect."""
    for _ in _separation_budget(c1, c2):
        _, b1, q1 = _int_box(c1)
        a2, _, q2 = _int_box(c2)
        if b1 * q2 < a2 * q1:
            return b1, q1, a2, q2
        if not _bisect_all((c1, c2)):
            break
    raise SeparabilityError("separability violated")


def _gap_sample(c1, c2) -> Fraction:
    """Rational strictly between two ordered roots, with the smallest
    denominator the gap allows."""
    return _simplest_in_open(*_separated_ends(c1, c2))


def _simplest_in_open(an: int, ad: int, bn: int, bd: int) -> Fraction:
    """Rational with the smallest denominator in the open interval
    (an/ad, bn/bd), ad and bd positive."""
    if an < 0 < bn:
        return Fraction(0)
    if an >= 0:
        return Fraction(*_simplest_pos(an, ad, bn, bd))
    u, v = _simplest_pos(-bn, bd, -an, ad)
    return Fraction(-u, v)


def _simplest_pos(an: int, ad: int, bn: int, bd: int) -> tuple:
    """(u, v) in lowest terms: the rational with the smallest denominator
    in (an/ad, bn/bd), 0 <= an/ad < bn/bd, by the continued-fraction
    descent on integers.  Each level takes fa = floor(a) and answers
    fa + 1 when that is below b, fa + 1/t with t = floor(1/(b - fa)) + 1
    when a is the integer fa, and else goes on with (1/(b - fa),
    1/(a - fa)).  The partial quotients taken are common to the finite
    continued fractions of a and b, so the descent ends.  (h1, h0, k1,
    k0) carries their convergents: the answer is (h1 u + h0 v)/(k1 u +
    k0 v) for the last level's u/v."""
    h1, h0, k1, k0 = 1, 0, 0, 1
    while True:
        fa, ra = divmod(an, ad)
        rb = bn - fa * bd  # b - fa = rb/bd > 0
        if rb > bd:
            u, v = fa + 1, 1
            break
        if ra == 0:
            t = bd // rb + 1
            u, v = fa * t + 1, t
            break
        h1, h0, k1, k0 = fa * h1 + h0, h1, fa * k1 + k0, k1
        an, ad, bn, bd = bd, rb, ad, ra
    return h1 * u + h0 * v, k1 * u + k0 * v


def _fiber_quo(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    # exact over the fiber: the pseudo-remainder vanishes there, and the
    # pseudo-quotient differs from the true quotient by a nonzero constant.
    # It needs no reduction: its leading coefficient lc(f) lc(g)^(deg f -
    # deg g) is nonzero there, as every caller passes f and g reduced
    return _strip(_memoized(pquo, f, g, var))


def _proven_coprime(img_f, img_g) -> bool:
    """True when two polynomials are coprime over the fiber, proven from
    their dense images (None for none); False means "not proven".  A
    pair with a linear image is decided exactly: it shares a root only
    if the other image vanishes at the linear one's.  Any other pair
    takes polyring's coprimality certificate (_images_coprime)."""
    if img_f is None or img_g is None:
        return False
    if len(img_f) == 2:
        return _horner(img_g, -img_f[0], img_f[1]) != 0
    if len(img_g) == 2:
        return _horner(img_f, -img_g[0], img_g[1]) != 0
    return _images_coprime(img_f, img_g)


def _fiber_basis(polys, var: str, s: SamplePoint) -> dict:
    """Separable basis of the polynomials over the fiber s: reduced
    there, squarefree and pairwise coprime there, with the same roots.
    A polynomial that is a nonzero constant there, or vanishes
    identically there, has no roots and is set aside.  Maps each element
    to its dense image (None when it has none).  Each polynomial is
    reduced, flattened and split against the basis so far in one pass.
    Its squarefreeness is the pair test against its derivative, and each
    pair is first tried on its images (_proven_coprime); only what that
    leaves unproven goes, alone, to the exact fiber gcd."""
    order = polys[0].order
    basis: dict = {}
    for p in polys:
        if p.order != order:
            raise ValueError("mixed variable orders")
        if p.level() != order.level(var):
            raise ValueError(
                "expected main variable %r, got %r" % (var, p.mvar()))
        img_f = _fiber_image(p, var, s)
        if img_f is None:
            f = fiber_reduce(p, var, s)
        else:
            f = _truncated(p, len(img_f) - 1)
        if f.degree(var) < 1:
            # a nonzero constant there, or 0: no roots
            continue
        if img_f is None:
            # reduction may have removed every algebraic coordinate
            img_f = _fiber_image(f, var, s)
        # repeated roots over this fiber are harmless for the root set,
        # so flatten them here rather than reject the input; f' is
        # reduced there, as f is
        img_d = img_f and [i * c for i, c in enumerate(img_f)][1:]
        if not _proven_coprime(img_f, img_d):
            df = _memoized(MultiPoly.derivative, f, var)
            h = _reduced_gcd(f, df, var, s)
            if h.degree(var) >= 1:
                f = _fiber_quo(f, h, var)
                img_f = _fiber_image(f, var, s)
        merged: dict = {}
        for g, img_g in basis.items():
            if f.degree(var) < 1 or _proven_coprime(img_f, img_g):
                merged[g] = img_g
                continue
            h = _reduced_gcd(f, g, var, s)
            if h.degree(var) < 1:
                merged[g] = img_g
                continue
            # split off the common part; both quotients stay coprime to
            # it because everything here is squarefree over the fiber
            for piece in (h, _fiber_quo(g, h, var)):
                if piece.degree(var) >= 1:
                    merged[piece] = _fiber_image(piece, var, s)
            f = _fiber_quo(f, h, var)
            img_f = _fiber_image(f, var, s)
        if f.degree(var) >= 1:
            merged[f] = img_f
        basis = merged
    return basis


def _isolated_basis(polys, var: str, s: SamplePoint) -> dict:
    """Separable basis of the polynomials over the fiber s (see
    _fiber_basis), each element isolated once: maps each element, in
    sorted order, to (its roots in increasing order, a root bound)."""
    basis = _fiber_basis(polys, var, s)
    return {r: _isolate(r, var, basis[r], s) for r in sorted(basis)}


def roots_over_cell(polys, s: SamplePoint):
    """All real roots of the given polynomials at the fiber s, strictly
    ordered, with rational sector samples around them.

    Returns (sections, samples, owners): owners[i] is the element of the
    separable basis over s (see the module docstring) that sections[i]
    is a root of.  Polynomials sharing roots at s are split, not
    rejected.  len(samples) == len(sections) + 1, the first sample below
    every root and the last above; with no roots the single sample is 0.
    Polynomials that degenerate to a nonzero constant over the fiber, or
    vanish identically there, contribute nothing; whether a vanishing
    one needs a replacement is lifting's question (is_nullified).
    """
    ps = sorted(set(polys))
    if not ps:
        return [], [Fraction(0)], []
    var = ps[0].order.name(len(s) + 1)
    tagged = []
    bound = 1
    for r, (coords, b) in _isolated_basis(ps, var, s).items():
        tagged.extend((c, r) for c in coords)
        bound = max(bound, b)
    if not tagged:
        return [], [Fraction(0)], []
    tagged.sort(key=cmp_to_key(lambda a, b: _compare_coords(a[0], b[0])))
    sections = [c for c, _ in tagged]
    samples = [Fraction(-bound)]
    for c1, c2 in zip(sections, sections[1:]):
        samples.append(_gap_sample(c1, c2))
    samples.append(Fraction(bound))
    return sections, samples, [r for _, r in tagged]
