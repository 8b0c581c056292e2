"""Exact real algebraic machinery for the lifting phase.

Coordinates of sample points are either rationals or real roots of
lower-level polynomials pinned down by an isolating interval.  Every
decision here reduces to integer polynomial arithmetic plus exact sign
tests; interval arithmetic only ever separates quantities already known
to be nonzero, so nothing depends on floating point.

Root isolation over a fiber is Descartes/bisection (Collins and Akritas,
SYMSAC 1976), and roots_over_cell takes one of two routes per polynomial:

* Dense route.  When every lower variable the polynomial involves sits
  at a point-valued coordinate (a rational, or a root whose interval has
  collapsed to a point), the point values are substituted once.  That
  gives the polynomial's image: a list of integers, a positive multiple
  of the polynomial on the fiber.  Squarefreeness and separability are
  exact gcds of images; isolation runs on the list, each step an integer
  scale, a Taylor shift, a reversal, a shift by 1 and a sign count
  (Rouillier and Zimmermann, JCAM 162, 2004); bisection evaluates the
  image by integer Horner.  Exact because a positive multiple has the
  same roots and signs everywhere on the fiber, and every transformation
  is integer arithmetic.  A polynomial that first involves an algebraic
  coordinate but is free of it once reduced over the fiber also takes
  this route.
* Symbolic route, for the rest.  The transformed polynomials stay
  integer polynomials in the lower variables, and each coefficient sign
  at the fiber is decided exactly by sign_at.  Exact because every
  decision is such a sign.

Both routes make the same decisions (the same variation counts, split
points and bisection signs), so they return identical roots, intervals
and samples; the dense one only does the arithmetic once, on integers,
and also returns the root of a linear polynomial as an exact rational.

The zero test for a value at an algebraic coordinate goes through a
fiber-local gcd with the coordinate's defining polynomial: the defining
polynomial may well be reducible (bases are only squarefree, not
irreducible), so a shared root is detected by a sign change of that gcd
across the isolating interval rather than by divisibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Optional

from .polyring import MultiPoly, poly_gcd, pquo, prem

__all__ = [
    "IsolatingInterval",
    "RationalCoordinate",
    "RootOfCoordinate",
    "SamplePoint",
    "SeparabilityError",
    "fiber_degree",
    "fiber_gcd",
    "fiber_reduce",
    "fiber_squarefree_part",
    "isolate_real_roots",
    "refine",
    "roots_over_cell",
    "sign_at",
]

# bisection steps allowed while separating two supposedly distinct roots
_MAX_SEPARATION_STEPS = 512


class SeparabilityError(ValueError):
    """Polynomials that must be coprime and squarefree over a cell are not."""


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


@dataclass
class IsolatingInterval:
    """Rational interval containing exactly one root of its polynomial.

    lo == hi encodes an exactly known rational root; proper intervals
    never have a root at either endpoint.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        self.lo = Fraction(self.lo)
        self.hi = Fraction(self.hi)
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    def is_point(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


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
    coefficients are evaluated over.  The interval shrinks in place as
    refinement happens; the defining polynomial, being squarefree over
    the fiber, changes sign exactly once inside the interval, which is
    what bisection relies on.  `image`, when the prefix fixes every
    variable of the defining polynomial to a point value, is its dense
    image there (a tuple of ints, lowest degree first), which bisection
    evaluates instead of calling sign_at.
    """

    __slots__ = ("defining", "interval", "prefix", "image", "_sign_lo")

    def __init__(self, defining: MultiPoly, interval: IsolatingInterval,
                 prefix=(), image: Optional[tuple] = None):
        self.defining = defining
        self.interval = interval
        self.prefix = tuple(prefix)
        self.image = image
        self._sign_lo = None

    def point_value(self) -> Optional[Fraction]:
        iv = self.interval
        return iv.lo if iv.lo == iv.hi else None

    def box(self):
        return (self.interval.lo, self.interval.hi)

    def __repr__(self):
        return "RootOf(%s, (%s, %s))" % (
            self.defining, self.interval.lo, self.interval.hi)


def _copy_coord(coord, new_prefix):
    if isinstance(coord, RationalCoordinate):
        return coord
    return RootOfCoordinate(
        coord.defining,
        IsolatingInterval(coord.interval.lo, coord.interval.hi),
        new_prefix,
        coord.image,
    )


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
        # fresh copies all the way down: no interval state is shared
        # between different sample points
        out = []
        for c in self.coords:
            out.append(_copy_coord(c, tuple(out)))
        out.append(_copy_coord(coord, tuple(out)))
        return SamplePoint(out)

    def __repr__(self):
        return "SamplePoint(%r)" % (list(self.coords),)


# ---------------------------------------------------------------------------
# exact signs at a sample point


def sign_at(q: MultiPoly, s: SamplePoint) -> int:
    """Exact sign of q at the sample point s.

    Rational (and exactly-known root) coordinates are substituted with
    denominators cleared.  For the top remaining algebraic coordinate
    the zero decision goes through a fiber gcd with its defining
    polynomial; a nonzero value is then signed by interval evaluation
    under refinement.
    """
    if q.is_constant():
        return _sgn(q.const_value())
    k = len(s)
    order = q.order
    for name in q.variables():
        if order.level(name) > k:
            raise ValueError("variable %r is not fixed by the sample point"
                             % (name,))
    r = q
    for name in sorted(r.variables(), key=order.level):
        coord = s.coords[order.level(name) - 1]
        v = coord.point_value()
        if v is not None:
            r = r.subs_rational_cleared(name, v)
            if r.is_constant():
                return _sgn(r.const_value())
    j = r.level()
    coord = s.coords[j - 1]
    var = r.mvar()
    pref = s.prefix(j - 1)
    g = fiber_gcd(r, coord.defining, var, pref)
    if g.degree(var) >= 1:
        iv = coord.interval
        slo = sign_at(g.subs_rational_cleared(var, iv.lo), pref)
        shi = sign_at(g.subs_rational_cleared(var, iv.hi), pref)
        if slo * shi < 0:
            return 0
    return _interval_sign(r, s)


def _interval_sign(r: MultiPoly, s: SamplePoint) -> int:
    # value known nonzero: shrink boxes until the evaluation excludes 0
    order = r.order
    coords = {order.level(v): s.coords[order.level(v) - 1]
              for v in r.variables()}
    while True:
        boxes = {lvl: c.box() for lvl, c in coords.items()}
        lo, hi = _box_eval(r, boxes)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        progressed = False
        for c in coords.values():
            if isinstance(c, RootOfCoordinate) and c.point_value() is None:
                _bisect_once(c)
                progressed = True
        if not progressed:
            raise ArithmeticError("exact zero reached in nonzero sign path")


def _box_eval(f: MultiPoly, boxes):
    """Interval evaluation of f over rational boxes keyed by level."""
    if f.is_constant():
        v = Fraction(f.const_value())
        return (v, v)
    x = boxes[f.level()]
    var = f.mvar()
    acc = None
    prev_e = None
    for e, c in f.coeff_terms(var):
        cv = _box_eval(c, boxes)
        if acc is None:
            acc = cv
        else:
            acc = _iadd(_imul(acc, _ipow(x, prev_e - e)), cv)
        prev_e = e
    if prev_e:
        acc = _imul(acc, _ipow(x, prev_e))
    return acc


def _iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _imul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def _ipow(x, k: int):
    acc = (Fraction(1), Fraction(1))
    for _ in range(k):
        acc = _imul(acc, x)
    return acc


def _defining_sign(coord: RootOfCoordinate, x: Fraction) -> int:
    """Sign of the coordinate's defining polynomial at x over its prefix."""
    if coord.image is not None:
        return _image_sign(coord.image, x)
    f = coord.defining
    return sign_at(f.subs_rational_cleared(f.mvar(), x),
                   SamplePoint(coord.prefix))


def _bisect_once(coord: RootOfCoordinate):
    """One bisection step; collapses to a point on an exact hit."""
    iv = coord.interval
    if iv.lo == iv.hi:
        return
    mid = iv.midpoint()
    sm = _defining_sign(coord, mid)
    if sm == 0:
        iv.lo = iv.hi = mid
        coord._sign_lo = 0
        return
    if coord._sign_lo is None:
        coord._sign_lo = _defining_sign(coord, iv.lo)
    if coord._sign_lo * sm < 0:
        iv.hi = mid
    else:
        iv.lo = mid
        coord._sign_lo = sm


def refine(coord, width):
    """Shrink a coordinate's isolating interval to the requested width.

    Rational coordinates pass through unchanged; the same object is
    returned with its interval narrowed in place.
    """
    if isinstance(coord, RationalCoordinate):
        return coord
    width = Fraction(width)
    iv = coord.interval
    while iv.hi - iv.lo > width:
        _bisect_once(coord)
        if iv.lo == iv.hi:
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
    """Drop leading coefficients of f (in var) that vanish at s."""
    for e, c in f.coeff_terms(var):
        if sign_at(c, s) != 0:
            return _truncated(f, var, e)
    return MultiPoly.zero(f.order)


def _truncated(f: MultiPoly, var: str, top: int) -> MultiPoly:
    """f without its terms of degree above `top` in var (0 for top < 0)."""
    terms = f.coeff_terms(var)
    if terms[0][0] <= top:
        return f
    xv = MultiPoly.var(f.order, var)
    acc = MultiPoly.zero(f.order)
    for e, c in terms:
        if e <= top:
            acc = acc + c * xv**e
    return acc


def fiber_degree(f: MultiPoly, var: str, s: SamplePoint) -> int:
    """Degree of f in var once evaluated at s; -1 if identically zero."""
    for e, c in f.coeff_terms(var):
        if sign_at(c, s) != 0:
            return e
    return -1


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


def fiber_squarefree_part(f: MultiPoly, var: str, s: SamplePoint) -> MultiPoly:
    """Squarefree part of f over the fiber, via the pseudo-quotient by
    gcd(f, f'); exact up to a fiber-nonzero constant factor."""
    f = fiber_reduce(f, var, s)
    if f.is_zero():
        raise ValueError("polynomial vanishes identically over the fiber")
    if f.degree(var) == 0:
        return _strip(f)
    g = fiber_gcd(f, f.derivative(var), var, s)
    if g.degree(var) == 0:
        return _strip(f)
    q = fiber_reduce(pquo(f, g, var), var, s)
    return _strip(q)


# ---------------------------------------------------------------------------
# dense images over point-valued fibers


def _fiber_image(p: MultiPoly, var: str, s: SamplePoint) -> Optional[list]:
    """Dense image of p in var at the fiber s, lowest degree first, with
    no zero leading entries ([] when p vanishes there).

    Every lower variable of p is substituted by its point value and the
    denominators are cleared, so the image is a positive multiple of p on
    the fiber.  None when some lower variable of p sits at a coordinate
    without a point value: this is the route selector of roots_over_cell.
    """
    order = p.order
    lvl = order.level(var)
    vals = {}
    for name in p.variables():
        j = order.level(name)
        if j < lvl:
            v = s.coords[j - 1].point_value()
            if v is None:
                return None
            vals[name] = v
    terms = p.coeff_terms(var)
    vs = [Fraction(0)] * (terms[0][0] + 1 if terms else 0)
    for e, c in terms:
        vs[e] = c.evaluate(vals)
    while vs and vs[-1] == 0:
        vs.pop()
    den = math.lcm(*(v.denominator for v in vs)) if vs else 1
    img = [v.numerator * (den // v.denominator) for v in vs]
    g = math.gcd(*img)
    return [c // g for c in img] if g > 1 else img


def _image_sign(img, x: Fraction) -> int:
    """Sign of the image at a rational x, by integer Horner on
    den(x)^d * img(x)."""
    u, v = x.numerator, x.denominator
    acc, w = 0, 1
    for c in reversed(img):
        acc = acc * u + c * w
        w *= v
    return _sgn(acc)


def _taylor_shift(c: list, t: int):
    """c(x) -> c(x + t) in place, lowest degree first."""
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += t * c[j + 1]


def _image_variations(img, a: Fraction, b: Fraction) -> int:
    """Sign variations of (v+1)^d h(1/(v+1)), h = q^d img(a + (b-a)v):
    the dense counterpart of _variations_poly(_shifted_to_unit(...))."""
    a, w = Fraction(a), Fraction(b) - Fraction(a)
    q = math.lcm(a.denominator, w.denominator)
    pa = a.numerator * (q // a.denominator)
    pw = w.numerator * (q // w.denominator)
    d = len(img) - 1
    c = [ci * q ** (d - i) for i, ci in enumerate(img)]
    if pa:
        _taylor_shift(c, pa)
    c = [ci * pw**i for i, ci in enumerate(c)]
    c.reverse()
    _taylor_shift(c, 1)
    signs = [ci > 0 for ci in c if ci]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def _image_root_bound(img) -> Fraction:
    """B with every real root of the image strictly inside (-B, B):
    1 + max |c_i| / |lc|; the image has positive degree."""
    return 1 + Fraction(max(abs(c) for c in img[:-1]), abs(img[-1]))


# ---------------------------------------------------------------------------
# real root isolation over a fiber


def _root_bound(g: MultiPoly, var: str, s: SamplePoint) -> Fraction:
    """B with every real root of g at the fiber strictly inside (-B, B):
    1 + max |c_i| / |lc|, coefficients enclosed at the fiber."""
    terms = g.coeff_terms(var)
    lead = terms[0][1]
    rest = [c for _, c in terms[1:]]
    if not rest:
        return Fraction(1)
    order = g.order
    names = set()
    for c in [lead] + rest:
        names.update(c.variables())
    # shrink until the leading coefficient's box excludes zero, then
    # bound the others by their current boxes
    coords = {order.level(v): s.coords[order.level(v) - 1] for v in names}
    while True:
        boxes = {lvl: c.box() for lvl, c in coords.items()}
        llo, lhi = _box_eval(lead, boxes)
        if llo > 0 or lhi < 0:
            lv = min(abs(llo), abs(lhi))
            m = Fraction(0)
            for c in rest:
                clo, chi = _box_eval(c, boxes)
                m = max(m, abs(clo), abs(chi))
            return 1 + m / lv
        for c in coords.values():
            if isinstance(c, RootOfCoordinate) and c.point_value() is None:
                _bisect_once(c)


def _shifted_to_unit(f: MultiPoly, var: str, a: Fraction, b: Fraction):
    """Integer polynomial equal to f(a + (b-a)v) up to a positive factor:
    roots of f in (a,b) become roots in (0,1)."""
    a, w = Fraction(a), Fraction(b) - Fraction(a)
    q = math.lcm(a.denominator, w.denominator)
    pa = a.numerator * (q // a.denominator)
    pw = w.numerator * (q // w.denominator)
    xv = MultiPoly.var(f.order, var)
    d = f.degree(var)
    acc = MultiPoly.zero(f.order)
    for e, c in f.coeff_terms(var):
        acc = acc + c * (pa + pw * xv) ** e * q ** (d - e)
    return acc


def _variations_poly(h: MultiPoly, var: str):
    """g(v) = (v+1)^d h(1/(v+1)): sign variations of g's coefficients
    bound the number of roots of h in (0,1), exactly when 0 or 1."""
    xv = MultiPoly.var(h.order, var)
    d = h.degree(var)
    acc = MultiPoly.zero(h.order)
    for e, c in h.coeff_terms(var):
        acc = acc + c * (xv + 1) ** (d - e)
    return acc


def _sign_variations(g: MultiPoly, var: str, s: SamplePoint) -> int:
    signs = []
    for _, c in g.coeff_terms(var):
        sc = sign_at(c, s)
        if sc:
            signs.append(sc)
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def _split_point(nonzero, degree: int, a: Fraction, b: Fraction) -> Fraction:
    """Deterministic split point in the middle half of (a, b) where the
    predicate `nonzero` holds; keeps both parts at most 3/4 of the width.

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
            m = a + w * Fraction(num, den)
            if nonzero(m):
                return m
            tried += 1
            if tried > degree:
                raise ArithmeticError(
                    "no split point in (%s, %s): the polynomial vanishes "
                    "on the fiber" % (a, b))
        t += 1


def _nonroot_split(f, var, s, a, b) -> Fraction:
    return _split_point(
        lambda m: sign_at(f.subs_rational_cleared(var, m), s) != 0,
        f.degree(var), a, b)


def _image_split(img, a, b) -> Fraction:
    return _split_point(lambda m: _image_sign(img, m) != 0,
                        len(img) - 1, a, b)


def _vca(f, var, s, a, b, out):
    g = _variations_poly(_shifted_to_unit(f, var, a, b), var)
    v = _sign_variations(g, var, s)
    if v == 0:
        return
    if v == 1:
        out.append(IsolatingInterval(a, b))
        return
    m = _nonroot_split(f, var, s, a, b)
    _vca(f, var, s, a, m, out)
    _vca(f, var, s, m, b, out)


def _image_vca(img, a, b, out):
    v = _image_variations(img, a, b)
    if v == 0:
        return
    if v == 1:
        out.append(IsolatingInterval(a, b))
        return
    m = _image_split(img, a, b)
    _image_vca(img, a, m, out)
    _image_vca(img, m, b, out)


def _isolate_symbolic(f: MultiPoly, var: str, s: SamplePoint):
    """Isolate the real roots of f at the fiber s.

    Returns (coordinates in increasing order, root bound B).  f must be
    squarefree at s and of positive degree there.
    """
    g = _strip(fiber_reduce(f, var, s))
    B = _root_bound(g, var, s)
    ivs = []
    _vca(g, var, s, -B, B, ivs)
    return [RootOfCoordinate(g, iv, s.coords) for iv in ivs], B


def _isolate_image(f: MultiPoly, img, s: SamplePoint):
    """_isolate_symbolic for an f whose dense image at s is img; a linear
    f gives its exact rational root."""
    B = _image_root_bound(img)
    if len(img) == 2:
        return [RationalCoordinate(Fraction(-img[0], img[1]))], B
    ivs = []
    _image_vca(img, -B, B, ivs)
    # the image of the defining polynomial _strip(f), up to a positive
    # factor: _strip divides by the content and may flip the sign
    if f.lead_base_coeff() < 0:
        img = [-c for c in img]
    g, img = _strip(f), tuple(img)
    return [RootOfCoordinate(g, iv, s.coords, img) for iv in ivs], B


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
    img = _fiber_image(f, var, SamplePoint(()))
    B = _image_root_bound(img)
    ivs = []
    _image_vca(img, -B, B, ivs)
    return ivs

# ---------------------------------------------------------------------------
# merged roots of several polynomials over one cell


def _coord_points(c1, c2):
    return (c1.point_value() is not None) and (c2.point_value() is not None)


def _compare_coords(c1, c2) -> int:
    if c1 is c2:
        return 0
    for _ in range(_MAX_SEPARATION_STEPS):
        a1, b1 = c1.box()
        a2, b2 = c2.box()
        if b1 <= a2:
            if b1 == a2 and _coord_points(c1, c2):
                raise SeparabilityError("separability violated")
            return -1
        if b2 <= a1:
            if b2 == a1 and _coord_points(c1, c2):
                raise SeparabilityError("separability violated")
            return 1
        for c in (c1, c2):
            if isinstance(c, RootOfCoordinate) and c.point_value() is None:
                _bisect_once(c)
    raise SeparabilityError("separability violated")


def _gap_sample(c1, c2) -> Fraction:
    """Rational strictly between two ordered roots, with the smallest
    denominator the gap allows."""
    for _ in range(_MAX_SEPARATION_STEPS):
        b1 = c1.box()[1]
        a2 = c2.box()[0]
        if b1 < a2:
            return _simplest_in_open(b1, a2)
        for c in (c1, c2):
            if isinstance(c, RootOfCoordinate) and c.point_value() is None:
                _bisect_once(c)
    raise SeparabilityError("separability violated")


def _simplest_in_open(a: Fraction, b: Fraction) -> Fraction:
    """Rational with the smallest denominator in the open interval (a, b)."""
    if a < 0 < b:
        return Fraction(0)
    if a >= 0:
        return _simplest_pos(Fraction(a), Fraction(b))
    return -_simplest_pos(Fraction(-b), Fraction(-a))


def _simplest_pos(a: Fraction, b: Fraction) -> Fraction:
    # 0 <= a < b: continued-fraction descent
    fa = math.floor(a)
    if a == fa:
        if b > fa + 1:
            return Fraction(fa + 1)
        t = math.floor(1 / (b - fa)) + 1
        return fa + Fraction(1, t)
    if fa + 1 < b:
        return Fraction(fa + 1)
    ya, yb = a - fa, b - fa
    return fa + 1 / _simplest_pos(1 / yb, 1 / ya)


def _fiber_squarefree(r: MultiPoly, img, var: str, s: SamplePoint) -> bool:
    """Whether r, reduced over the fiber, is squarefree there."""
    if img is None:
        return fiber_gcd(r, r.derivative(var), var, s).degree(var) == 0
    u = MultiPoly.from_coeffs(r.order, var, img)
    return poly_gcd(u, u.derivative(var)).is_constant()


def roots_over_cell(polys, s: SamplePoint):
    """All real roots of the given polynomials at the fiber s, strictly
    ordered, plus rational sector samples around them.

    Returns (sections, samples): len(samples) == len(sections) + 1, the
    first sample lies below every root and the last above every root;
    with no roots at all the single sample is 0.  A polynomial that is
    not squarefree at s is replaced by its fiber squarefree part (same
    roots); two polynomials sharing a root at s are rejected as
    "separability violated".  Polynomials that degenerate to a nonzero
    constant over the fiber contribute nothing; identically vanishing
    ones are a contract violation.
    """
    ps = sorted(set(polys))
    if not ps:
        return [], [Fraction(0)]
    order = ps[0].order
    lvl = len(s) + 1
    var = order.name(lvl)
    reduced = []
    for p in ps:
        if p.order != order:
            raise ValueError("mixed variable orders")
        if p.level() != lvl:
            raise ValueError(
                "expected main variable %r, got %r" % (var, p.mvar()))
        img = _fiber_image(p, var, s)
        if img is None:
            r = fiber_reduce(p, var, s)
        else:
            r = _truncated(p, var, len(img) - 1)
        if r.is_zero():
            raise ValueError(
                "polynomial vanishes identically over the cell: %s" % (p,))
        if r.degree(var) < 1:
            continue
        # repeated roots over this fiber are harmless for the root set,
        # so flatten them here rather than reject the input
        if not _fiber_squarefree(r, img, var, s):
            r = fiber_squarefree_part(r, var, s)
            img = None
        if img is None:
            # reduction may have removed every algebraic coordinate
            img = _fiber_image(r, var, s)
        reduced.append((r, img))
    for i, (r, img) in enumerate(reduced):
        for r2, img2 in reduced[i + 1:]:
            if img is not None and img2 is not None:
                common = poly_gcd(MultiPoly.from_coeffs(order, var, img),
                                  MultiPoly.from_coeffs(order, var, img2))
            else:
                common = fiber_gcd(r, r2, var, s)
            if common.degree(var) != 0:
                raise SeparabilityError("separability violated")
    sections = []
    bound = Fraction(1)
    for r, img in reduced:
        if img is None:
            coords, b = _isolate_symbolic(r, var, s)
        else:
            coords, b = _isolate_image(r, img, s)
        sections.extend(coords)
        bound = max(bound, b)
    sections.sort(key=cmp_to_key(_compare_coords))
    if not sections:
        return [], [Fraction(0)]
    samples = [-bound]
    for c1, c2 in zip(sections, sections[1:]):
        samples.append(_gap_sample(c1, c2))
    samples.append(bound)
    return sections, samples
