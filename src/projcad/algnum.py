"""Exact real algebraic machinery for the lifting phase.

Coordinates of sample points are either rationals or real roots of
lower-level polynomials pinned down by an isolating interval.  Every
decision here reduces to integer polynomial arithmetic plus exact sign
tests; interval arithmetic runs on integers (every enclosure at one
common positive scale) and decides a sign only when its enclosure
excludes 0, so nothing depends on floating point.

Boxes are integers too.  An IsolatingInterval stores [a/q, b/q] as
(a, b, q), and every box isolation makes has a power-of-two q: the root
bound is 2^k, split points are a/q + (b-a)/q * num/2^t, and bisection
takes the midpoint (a + b)/(2q).  Points are passed as (u, v) for u/v,
boxes are compared with each other and with rationals by
cross-multiplication, and the simplest rational in a gap between two
roots comes from a continued-fraction descent on integers.  A Fraction
is built only at the edges: a sector sample, the point value of a
collapsed box, the interval the output prints, and the point handed to
an exact fallback.

_fiber_basis is the one place a fiber basis is built: each polynomial
is reduced over the fiber, flattened to its squarefree part there if
needed, and split along its fiber gcd with every basis element it
shares roots with.  The pieces stay polynomials in the lower variables,
so a section can be re-evaluated anywhere over the base cell.
_isolated_basis isolates each element once, and the element owns the
roots it yields; roots_over_cell sorts them and adds sector samples for
lifting, and cadcore reads a query stack's roots off them.

Root isolation over a fiber is Descartes/bisection (Collins and Akritas,
SYMSAC 1976) on the polynomial's interval image (Collins, Johnson and
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
multiple of the polynomial on the fiber.  Its enclosure is the point
enclosure (the image with every radius 0), on which every decision is
taken, on integers.  Squarefreeness and coprimality there are first
tried by polyring's coprimality certificate on the images
(_images_coprime: one integer gcd of their values at a point above
their roots); only a pair it does not prove goes to the fiber gcd,
which is exact and, with every coordinate the pair involves
rational, refines no box.  The root of a linear polynomial comes back
as an exact rational.  A polynomial that first involves an algebraic
coordinate but is free of it once reduced over the fiber has a dense
image too.

A sign at a sample point first substitutes every point-valued
coordinate in one pass of integer Horner on the polynomial's nodes.
What is left is read off the current boxes: interval Horner on integers
over the isolating intervals as they stand, with no refinement.  Every
box contains its coordinate, so an enclosure that excludes 0 gives the
exact sign (the validated-numerics filter of Strzebonski, JSC 41,
2006).  Only an enclosure containing 0 goes to the
exact zero test, a fiber-local gcd with the coordinate's defining
polynomial: the defining polynomial may well be reducible (bases are
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
a root bound fixed by the polynomial and the fiber (_root_bound_of).
Every comparison of a root, with another root (_compare_coords) or with
a rational (_cmp_root_to_rational), is made here.  Every refinement
loop has a step budget and raises ArithmeticError (SeparabilityError
when two roots will not separate) once it is spent.
"""

from __future__ import annotations

import math
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
    "IsolatingInterval",
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

# bisection steps allowed in a refinement loop: separating two roots that
# should be distinct, or shrinking boxes until an enclosure of a value
# that should be nonzero excludes 0
_MAX_SEPARATION_STEPS = 512


class SeparabilityError(ValueError):
    """Polynomials that must be coprime and squarefree over a cell are not."""


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _reduced(a: int, b: int, q: int) -> tuple:
    # (a, b, q) divided by gcd(a, b, q)
    g = math.gcd(a, b, q)
    return (a // g, b // g, q // g) if g > 1 else (a, b, q)


class IsolatingInterval:
    """Rational interval containing exactly one root of its polynomial.

    The box [a/q, b/q] is stored as the integers (a, b, q), q > 0 and
    reduced by gcd(a, b, q); isolation and bisection only ever make a
    power-of-two q.  The constructor takes any rationals lo <= hi, and
    lo, hi and width() are Fractions built on read.  lo ==
    hi encodes an exactly known rational root; proper intervals never
    have a root at either endpoint.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        q = math.lcm(lo.denominator, hi.denominator)
        self._set(lo.numerator * (q // lo.denominator),
                  hi.numerator * (q // hi.denominator), q)

    @classmethod
    def _of(cls, a: int, b: int, q: int) -> "IsolatingInterval":
        iv = cls.__new__(cls)
        iv._set(a, b, q)
        return iv

    def _set(self, a: int, b: int, q: int):
        self.a, self.b, self.q = _reduced(a, b, q)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, self.q)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, self.q)

    def width(self) -> Fraction:
        return Fraction(self.b - self.a, self.q)

    def __eq__(self, other):
        if not isinstance(other, IsolatingInterval):
            return NotImplemented
        return (self.a, self.b, self.q) == (other.a, other.b, other.q)

    __hash__ = None

    def __repr__(self):
        return "IsolatingInterval(lo=%r, hi=%r)" % (self.lo, self.hi)


@dataclass(frozen=True)
class RationalCoordinate:
    value: Fraction

    def point_value(self) -> Fraction:
        return self.value

    def box(self):
        return (self.value, self.value)


class RootOfCoordinate:
    """Coordinate pinned as the unique root of `defining` in `interval`.

    `prefix` holds the lower coordinates the defining polynomial's
    coefficients are evaluated over.  `isolated` is the interval
    isolation found, as a pair of Fractions, which the output prints.
    The working box `interval` starts there and shrinks in place, for
    every sample point sharing the root; the defining polynomial, being
    squarefree over the fiber, changes sign exactly once inside it, which
    bisection relies on.  Bisection and every comparison read the box as
    the integers (a, b, q) it stores, q a power of two for every root
    isolation makes; point_value() and box() build Fractions.

    `enclosure` is the defining polynomial's interval image over the
    prefix (see _coeff_enclosure), or None.  Bisection signs the defining
    polynomial on it by interval Horner, and falls back to sign_at only
    when that does not decide.  It stays valid for good, since the
    coefficients' values never change.  When the prefix fixes every
    variable of the defining polynomial to a rational it is the point
    enclosure of the dense image, which always decides.
    """

    __slots__ = ("defining", "interval", "isolated", "prefix", "enclosure",
                 "_sign_lo")

    def __init__(self, defining: MultiPoly, interval: IsolatingInterval,
                 prefix=(), enclosure: Optional[tuple] = None):
        self.defining = defining
        self.interval = interval
        self.isolated = (interval.lo, interval.hi)
        self.prefix = tuple(prefix)
        self.enclosure = enclosure
        self._sign_lo = None

    def point_value(self) -> Optional[Fraction]:
        iv = self.interval
        return Fraction(iv.a, iv.q) if iv.a == iv.b else None

    def box(self):
        return (self.interval.lo, self.interval.hi)

    def __repr__(self):
        return "RootOf(%s, (%s, %s))" % (
            self.defining, self.interval.lo, self.interval.hi)


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
    sign is the answer, and nothing is refined.  Otherwise the zero
    decision goes through a fiber gcd with the defining polynomial of the
    top remaining algebraic coordinate, whose signs at the ends of that
    coordinate's box are each one sign_at at the lower coordinates
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
    node = _npoint_subs(node, [c.point_value() for c in s.coords[:node[0]]])
    if isinstance(node, int):
        return _sgn(node)
    r = MultiPoly(q.order, node)
    sg = _box_sign(r, s)
    if sg is not None:
        return sg
    j = node[0]
    coord = s.coords[j - 1]
    var = r.mvar()
    pref = s.prefix(j - 1)
    g = fiber_gcd(r, coord.defining, var, pref)
    if g.degree(var) >= 1:
        iv = coord.interval
        slo = _fiber_sign(g, pref.coords, None, iv.a, iv.q)
        shi = _fiber_sign(g, pref.coords, None, iv.b, iv.q)
        if slo * shi < 0:
            return 0
    return _interval_sign(r, s)


def _int_box(coord) -> tuple:
    """The coordinate's current box [a/q, b/q] as (a, b, q): a root's
    stored triple, or (n, n, d) for a rational n/d."""
    if isinstance(coord, RationalCoordinate):
        v = coord.value
        return v.numerator, v.numerator, v.denominator
    iv = coord.interval
    return iv.a, iv.b, iv.q


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
    for _ in range(_MAX_SEPARATION_STEPS):
        sg = _box_sign(r, s)
        if sg is not None:
            return sg
        if not _bisect_all(coords):
            raise ArithmeticError("exact zero reached in nonzero sign path")
    raise ArithmeticError("sign of %s not decided after %d bisection steps"
                          % (r, _MAX_SEPARATION_STEPS))


def _bisect_all(coords) -> bool:
    """Bisect every coordinate without a point value once; False when
    there is none."""
    progressed = False
    for c in coords:
        if isinstance(c, RootOfCoordinate) and c.interval.a != c.interval.b:
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


def _bisect_once(coord: RootOfCoordinate):
    """One bisection step, at the midpoint (a + b)/(2q) of the box;
    collapses to a point on an exact hit."""
    iv = coord.interval
    a, b, q = iv.a, iv.b, iv.q
    if a == b:
        return
    m, q2 = a + b, 2 * q
    sm = _defining_sign(coord, m, q2)
    if sm == 0:
        iv._set(m, m, q2)
        coord._sign_lo = 0
        return
    if coord._sign_lo is None:
        coord._sign_lo = _defining_sign(coord, a, q)
    if coord._sign_lo * sm < 0:
        iv._set(2 * a, m, q2)
    else:
        iv._set(m, 2 * b, q2)
        coord._sign_lo = sm


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
    iv = coord.interval
    u, v = width.numerator, width.denominator
    while (iv.b - iv.a) * v > u * iv.q:
        _bisect_once(coord)
        if iv.a == iv.b:
            break
    return coord


# ---------------------------------------------------------------------------
# fiber-local polynomial tools (coefficients tested at a sample point)


def _strip(p: MultiPoly) -> MultiPoly:
    c = p.int_content()
    if c > 1:
        p = p.div_int(c)
    return p.sign_normalized()


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
    """
    a = fiber_reduce(f, var, s)
    b = fiber_reduce(g, var, s)
    if a.is_zero():
        return _strip(b) if not b.is_zero() else b
    if b.is_zero():
        return _strip(a)
    if a.degree(var) < b.degree(var):
        a, b = b, a
    while True:
        if b.degree(var) == 0:
            return MultiPoly.one(f.order)
        r = fiber_reduce(prem(a, b, var), var, s)
        if r.is_zero():
            return _strip(b)
        r = _strip(r)
        a, b = b, r


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
    image is then taken over the boxes (see _root_bound).
    """
    order = p.order
    lvl = order.level(var)
    vals = [c.value if isinstance(c, RationalCoordinate) else None
            for c in s.coords[:lvl - 1]]
    if None in vals:
        # only the levels p involves need a point value
        for name in p.variables():
            j = order.level(name)
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
# contain the true values.  A dense image img has the point enclosure
# (img, (0, ...)), on which every decision is taken; the radius
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


def _root_bound(g: MultiPoly, var: str, s: SamplePoint):
    """(B, enclosure): g's root bound at the fiber (_root_bound_of) and
    the coefficients' enclosure over the boxes.  var is g's main
    variable."""
    node = g.node
    terms = node[1]
    if len(terms) == 1:
        return 1, _coeff_enclosure(node, s.coords)
    # shrink until the leading coefficient's box excludes zero, then
    # bound the others by their current boxes
    _interval_sign(MultiPoly(g.order, terms[0][1]), s)
    enc = _coeff_enclosure(node, s.coords)
    return _root_bound_of(g, var, s, enc), enc


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
        if ce.is_zero():
            continue
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


def _nonroot_split(f, var, s, a, b, q, enc=None) -> tuple:
    return _split_point(
        lambda u, v: _fiber_sign(f, s.coords, enc, u, v) != 0,
        f.degree(var), a, b, q)


def _vca(f, var, s, enc, a, b, q, out):
    # Descartes/bisection on (a/q, b/q)
    v = _enclosure_variations(enc, a, b, q)
    if v is None:
        v = _sign_variations(f, var, s, a, b, q)
    if v == 0:
        return
    if v == 1:
        out.append(IsolatingInterval._of(a, b, q))
        return
    m, mq = _nonroot_split(f, var, s, a, b, q, enc)
    k = mq // q
    _vca(f, var, s, enc, *_reduced(a * k, m, mq), out)
    _vca(f, var, s, enc, *_reduced(m, b * k, mq), out)


def _point_enclosure(img) -> tuple:
    return tuple(img), (0,) * len(img)


def _isolate(f: MultiPoly, var: str, img, s: SamplePoint):
    """Isolate the real roots of f at the fiber s.

    Returns (coordinates in increasing order, root bound B).  f must be
    reduced over the fiber (its leading coefficient nonzero at s),
    squarefree at s and of positive degree there.  img is f's dense
    image at s, or None off rational fibers; with it a linear f gives
    its exact rational root.
    """
    if img is None:
        g = _strip(f)
        B, enc = _root_bound(g, var, s)
    else:
        # the image of _strip(f), up to a positive factor: _strip
        # divides by the content and may flip the sign
        if f.lead_base_coeff() < 0:
            img = [-c for c in img]
        enc = _point_enclosure(img)
        B = _root_bound_of(f, var, s, enc)
        if len(img) == 2:
            return [RationalCoordinate(Fraction(-img[0], img[1]))], B
        g = _strip(f)
    ivs = []
    _vca(g, var, s, enc, -B, B, 1, ivs)
    return [RootOfCoordinate(g, iv, s.coords, enc) for iv in ivs], B


def isolate_real_roots(f: MultiPoly):
    """Isolating intervals for all real roots of a univariate integer
    polynomial, in increasing order; endpoints are never roots."""
    if f.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if len(f.variables()) > 1:
        raise ValueError("univariate polynomial required")
    if f.is_constant():
        return []
    var = f.mvar()
    if not poly_gcd(f, f.derivative(var)).is_constant():
        raise ValueError("squarefree polynomial required")
    s = SamplePoint(())
    enc = _point_enclosure(_fiber_image(f, var, s))
    B = _root_bound_of(f, var, s, enc)
    ivs = []
    _vca(f, var, s, enc, -B, B, 1, ivs)
    return ivs


# ---------------------------------------------------------------------------
# merged roots of several polynomials over one cell


def _separation_budget(c1, c2):
    """One item per look at the boxes of two coordinates: the first at
    the boxes as they stand, then one per bisection step allowed.

    Distinct roots of an integer polynomial of degree d whose
    coefficients have b bits lie about 2^-(d b) apart or more (Mahler,
    Michigan Math. J. 11, 1964), so d * b steps are allowed on top of
    the fixed floor: d sums the degrees over Q the coordinates can have
    (the product of the defining degrees down their prefixes) and b the
    largest coefficient bit lengths among those defining polynomials.
    The budget is only worked out once a bisection is needed.
    """
    yield
    d = b = 0
    for c in (c1, c2):
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
    if c1 is c2:
        return 0
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
    """-1/0/+1 for coord < x / coord == x / coord > x, exact."""
    a, b, q = _int_box(coord)
    u, v = x.numerator, x.denominator
    if u * q < a * v:
        return 1
    if u * q > b * v:
        return -1
    if a == b or _defining_sign(coord, u, v) == 0:
        return 0
    # x is in the closed box but is not the root; the separation budget
    # grows with x's bit length, so an x close to the root gets the steps
    # it needs
    return _compare_coords(coord, RationalCoordinate(x))


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


def _squarefree_with_image(r: MultiPoly, img, var: str, s: SamplePoint):
    """Squarefree part of r, reduced over the fiber, there (r itself when
    it is squarefree), and its dense image.  The gcd of r and r' that
    tests squarefreeness is the divisor."""
    if img is not None and _images_coprime(
            img, [i * c for i, c in enumerate(img)][1:]):
        return r, img
    h = fiber_gcd(r, r.derivative(var), var, s)
    if h.degree(var) == 0:
        return r, img
    r = _fiber_quo(r, h, var, s)
    return r, _fiber_image(r, var, s)


def _fiber_quo(f: MultiPoly, g: MultiPoly, var: str, s: SamplePoint):
    # exact over the fiber: the pseudo-remainder vanishes there, and the
    # pseudo-quotient differs from the true quotient by a nonzero constant
    return _strip(fiber_reduce(pquo(f, g, var), var, s))


def _fiber_basis(polys, var: str, s: SamplePoint) -> dict:
    """Separable basis of the polynomials over the fiber s: reduced
    there, squarefree and pairwise coprime there, with the same zero set.
    Maps each element to its dense image (None when it has none)."""
    order = polys[0].order
    work = []
    for p in polys:
        if p.order != order:
            raise ValueError("mixed variable orders")
        if p.level() != order.level(var):
            raise ValueError(
                "expected main variable %r, got %r" % (var, p.mvar()))
        img = _fiber_image(p, var, s)
        if img is None:
            r = fiber_reduce(p, var, s)
        else:
            r = _truncated(p, len(img) - 1)
        if r.is_zero():
            raise ValueError(
                "polynomial vanishes identically over the cell: %s" % (p,))
        if r.degree(var) < 1:
            continue
        if img is None:
            # reduction may have removed every algebraic coordinate
            img = _fiber_image(r, var, s)
        # repeated roots over this fiber are harmless for the root set,
        # so flatten them here rather than reject the input
        work.append(_squarefree_with_image(r, img, var, s))
    basis: dict = {}
    for f, img_f in work:
        merged: dict = {}
        for g, img_g in basis.items():
            if f.degree(var) < 1 or (
                    img_f is not None and img_g is not None
                    and _images_coprime(img_f, img_g)):
                merged[g] = img_g
                continue
            h = fiber_gcd(f, g, var, s)
            if h.degree(var) < 1:
                merged[g] = img_g
                continue
            # split off the common part; both quotients stay coprime to
            # it because everything here is squarefree over the fiber
            for piece in (h, _fiber_quo(g, h, var, s)):
                if piece.degree(var) >= 1:
                    merged[piece] = _fiber_image(piece, var, s)
            f = _fiber_quo(f, h, var, s)
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
    Polynomials that degenerate to a nonzero constant over the fiber
    contribute nothing; identically vanishing ones are a contract
    violation.
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
