"""Exact multivariate integer polynomial arithmetic.

Polynomials are stored recursively: a polynomial in its main (highest)
variable whose coefficients are polynomials in strictly smaller variables,
with Python ints at the bottom.  All operations are exact; no floats.

The internal node of a MultiPoly is either an int (a constant) or a pair
``(level, terms)`` where ``level`` is the 1-based index of the main
variable inside the ambient VarOrder and ``terms`` is a tuple of
``(exponent, coefficient_node)`` pairs sorted by descending exponent.
Canonical-form invariants: no zero coefficients, the top exponent is >= 1,
and every coefficient node lives at a strictly smaller level.  Two
polynomials over the same VarOrder are equal iff their nodes are equal.

Most gcds met in projection are trivial, so every coprimality shortcut
first tries one exact certificate, the evaluation idea of the heuristic
gcd (Char, Geddes and Gonnet, JSC 7, 1989) made one-sided by a root
bound.  For f and g with the same main variable x:

1. Every lower variable is mapped to a fixed integer per level
   (_cert_point, in [1009, 9199]; it avoids 0, +-1 and +-2, common roots
   of leading coefficients).  This gives dense images F, G in Z[x].
2. At least one leading coefficient must survive the map; otherwise
   nothing is proven.
3. R = 2 + max|c_i| // |lc| (Cauchy), taken over the images whose
   leading coefficient survived, so every complex root a of such an
   image has |a| < R.
4. xi = 2^(bitlen(R) + 32).  If gcd(F(xi), G(xi)) < xi - R, then
   deg_x gcd(f, g) == 0 (_coprime_at).

Proof: suppose h divides f and g and has positive degree in x, and say
lc_x f survives.  lc_x h divides lc_x f, so the image H of h keeps that
degree, and its roots are among those of F, so |H(xi)| >= prod |xi - a|
> (xi - R)^deg >= xi - R.  H divides F and G in Z[x], so H(xi) divides
F(xi) and G(xi), and F(xi) != 0 because xi > R.  Hence H(xi) divides
their gcd, which is then at least xi - R, against step 4.

The certificate only ever answers "proven coprime" or "not proven"; an
unproven pair takes the exact primitive PRS, so no result depends on it.
poly_gcd, squarefree_decomposition (a primitive p against p') and
algnum's dense fiber images (_images_coprime) run it on fresh images.
finest_squarefree_basis fixes one xi per call and keeps each element's
value there, so a pair test is one integer gcd; its elements are
primitive, so a proof of x-degree 0 means the gcd is 1.

Where a gcd is wanted with both cofactors (Yun's loop in
squarefree_decomposition and the split in finest_squarefree_basis),
_gcd_cofactors reads all three off one integer gcd, the heuristic gcd
itself, for two nodes at one level whose coefficients are all integers
(every level-1 pair).  F and G are their primitive parts as dense
coefficient lists, and R is the larger Cauchy radius of the two.  xi = 2^s with s = bitlen(2 M + 2)
+ 32, M the largest |coefficient| of F and G, so xi > 2M + 2 with a
32-bit margin.  h = gcd(F(xi), G(xi)); H is read off the balanced
xi-adic digits of h, with its integer content divided out (its
leading coefficient is positive, as h is), and A and B off the digits of
F(xi)/H(xi) and G(xi)/H(xi).  The result is accepted only when

1. 2 |H|_1 max(|A|_inf, |B|_inf) < xi: then H A and F, both with
   coefficients below xi/2, agree at xi, so H A == F as polynomials,
   and likewise H B == G;
2. _coprime_at(A(xi), B(xi), xi, R): the roots of A and B are among
   those of F and G, so a common factor of positive degree would make
   the gcd of their values at least xi - R, by the proof above.  A and
   B are then coprime, and primitive because F and G are, so H is the
   gcd of F and G.

With c = gcd(cf, cg) of the integer contents of f and g, the result is
h = c H, f/h = (cf/c) A and g/h = (cg/c) B: h is exactly poly_gcd's.

A refused point sends the pair to poly_gcd and exact division.  Every
proof goes through _coprime_at.
poly_gcd itself keeps the certificate and the PRS: the gcds it is asked
for inside contents of multivariate PRS remainders can have degree in
the hundreds and share a factor of nearly that degree, where the PRS
ends in a few steps and one integer gcd of values hundreds of
thousands of bits long costs far more.

Node arithmetic has flat kernels for level-1 nodes, whose coefficients
are all ints: a product of two is one convolution into a dict of ints
and one sort by exponent, a sum merges the two term lists and adds int
to int inline, and exact division by a level-1 divisor runs on dense
lists of ints (_iexact_div).  Pseudo-division by a level-1 divisor
keeps the node loop: the project benchmark makes no such call, and
the lift benchmark spends 0.25% of a pass in it.  Above level 1, a
product of two nodes at one level adds each partial product into the
slot of its exponent with _nadd, the one routine that adds two nodes,
and a product with a lower factor builds its terms directly: their
order is kept, and over an integral domain no zero appears.  The
kernels do the schoolbook work on Python ints.  Packing polynomials
into integers by Kronecker substitution is left out: on large psc
chains it measured 3.2 times slower, as CPython divides big ints in
quadratic time.

Exact and pseudo-division run on nodes, in the main variable of the
divisor: the leading coefficient is read off the first term, x^k shifts
exponents, the leading terms, which cancel, are dropped instead of
computed, and the pseudo-quotient is only built when it is asked for
(prem does not ask).

Evaluation at rational points is integer Horner on nodes at one common
scale: each level's denominator raised to the polynomial's degree in
that level (_nscales).  _ncleared evaluates at a point, and
_npoint_subs substitutes the levels that have a value in one pass and
leaves the others symbolic; algnum.sign_at signs through it.  The
degrees come from the polynomial's shape, _ndegrees of its node, which
a MultiPoly walks once and keeps, as it keeps its hash: degree below
the main variable, variables and cleared_coeffs read it too.
MultiPoly.evaluate, exact on Fractions, is kept as the reference the
tests and the benchmark's own checks compare against.  _nbox_cleared
encloses a node's values over boxes the same way: each box [lo, hi]
comes as (lo q, hi q, q), q the lcm of the endpoint denominators, and
the enclosure comes out times the product of q^deg over the levels
(_nbox_scales), with _imul on integer endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "InexactDivisionError",
    "MultiPoly",
    "VarOrder",
    "content",
    "content_primitive_part",
    "exact_div",
    "finest_squarefree_basis",
    "poly_gcd",
    "pquo",
    "prem",
    "primitive_part",
    "pseudo_division",
    "squarefree_decomposition",
]


class InexactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


@dataclass(frozen=True)
class VarOrder:
    """An ordered tuple of variable names, smallest variable first."""

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("variable order must name at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable name in order")
        for nm in names:
            if not nm.isidentifier():
                raise ValueError(f"bad variable name: {nm!r}")
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return len(self.names)

    def level(self, name: str) -> int:
        """1-based level of a variable (1 is the smallest variable)."""
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def name(self, level: int) -> str:
        if not 1 <= level <= len(self.names):
            raise IndexError(f"level {level} out of range")
        return self.names[level - 1]

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)


# ---------------------------------------------------------------------------
# node-level arithmetic (nodes are ints or (level, terms) tuples)


def _nlevel(node) -> int:
    return 0 if isinstance(node, int) else node[0]


def _nterms(level: int, items: list):
    """The canonical node of nonzero terms items, sorted by descending
    exponent, at the given level."""
    if not items:
        return 0
    if len(items) == 1 and items[0][0] == 0:
        return items[0][1]
    return (level, tuple(items))


def _nmake(level: int, terms: dict):
    """Build a canonical node from {exponent: node} at the given level."""
    return _nterms(level, sorted(
        (t for t in terms.items() if not _nis_zero(t[1])), reverse=True))


def _nis_zero(node) -> bool:
    return isinstance(node, int) and node == 0


def _nadd(a, b):
    """a + b.  Two nodes at one level merge their descending term
    lists."""
    if isinstance(a, int):
        if isinstance(b, int):
            return a + b
        a, b = b, a
    elif not isinstance(b, int) and b[0] > a[0]:
        a, b = b, a
    lvl, ta = a
    if isinstance(b, int) or b[0] < lvl:
        # b joins the constant term; the top exponent stays >= 1
        if _nis_zero(b):
            return a
        if ta[-1][0]:
            return (lvl, ta + ((0, b),))
        c = ta[-1][1] + b if lvl == 1 else _nadd(ta[-1][1], b)
        return (lvl, ta[:-1] + ((0, c),) if not _nis_zero(c) else ta[:-1])
    # same level: merge the two descending term lists
    tb = b[1]
    out = []
    i = j = 0
    na, nb = len(ta), len(tb)
    while i < na and j < nb:
        ea, ca = ta[i]
        eb, cb = tb[j]
        if ea > eb:
            out.append(ta[i])
            i += 1
        elif ea < eb:
            out.append(tb[j])
            j += 1
        else:
            c = ca + cb if lvl == 1 else _nadd(ca, cb)
            if not _nis_zero(c):
                out.append((ea, c))
            i += 1
            j += 1
    out += ta[i:]
    out += tb[j:]
    return _nterms(lvl, out)


def _nneg(a):
    if isinstance(a, int):
        return -a
    return (a[0], tuple((e, _nneg(c)) for e, c in a[1]))


def _nmul(a, b):
    if isinstance(a, int):
        if isinstance(b, int):
            return a * b
        if not a:
            return 0
        a, b = b, a
    elif isinstance(b, int):
        if not b:
            return 0
    elif b[0] > a[0]:
        a, b = b, a
    lvl, ta = a
    if isinstance(b, int) or b[0] < lvl:
        # scaling by a lower factor keeps the order and, over an
        # integral domain, makes no zero
        if lvl == 1:
            return (1, tuple((e, c * b) for e, c in ta))
        return (lvl, tuple((e, _nmul(c, b)) for e, c in ta))
    # same level: the top term is the product of the top terms, so the
    # result keeps the level
    tb = b[1]
    if lvl == 1:
        out: dict = {}
        get = out.get
        for e1, c1 in ta:
            for e2, c2 in tb:
                k = e1 + e2
                out[k] = get(k, 0) + c1 * c2
        return (1, tuple(sorted((t for t in out.items() if t[1]),
                                reverse=True)))
    out = {}
    get = out.get
    for e1, c1 in ta:
        for e2, c2 in tb:
            k = e1 + e2
            out[k] = _nadd(get(k, 0), _nmul(c1, c2))
    return _nmake(lvl, out)


def _npow(a, k: int):
    if k < 0:
        raise ValueError("negative exponent")
    out = 1
    while k:
        if k & 1:
            out = _nmul(out, a)
        k >>= 1
        if k:
            a = _nmul(a, a)
    return out


def _ncoeffs_in(node, level: int) -> dict:
    """Coefficients of the variable at `level`: {exponent: node}."""
    if isinstance(node, int) or node[0] < level:
        return {0: node}
    if node[0] == level:
        return dict(node[1])
    out: dict = {}
    for e, c in node[1]:
        for k, sub in _ncoeffs_in(c, level).items():
            piece = _nmake(node[0], {e: sub})
            out[k] = _nadd(out.get(k, 0), piece) if k in out else piece
    return out


def _nderiv(node, level: int):
    """Derivative in the variable at `level`."""
    if isinstance(node, int) or node[0] < level:
        return 0
    if node[0] == level:
        # the terms stay sorted and nonzero: no _nmake needed
        terms = tuple((e - 1, _nscale(c, e)) for e, c in node[1] if e)
        return terms[0][1] if terms[0][0] == 0 else (level, terms)
    return _nmake(node[0], {e: _nderiv(c, level) for e, c in node[1]})


def _nlead_base(node) -> int:
    """Leading base coefficient under the lexicographic term order."""
    while not isinstance(node, int):
        node = node[1][0][1]
    return node


def _nkey(node):
    if isinstance(node, int):
        return (0, node)
    return (1, node[0], tuple((e, _nkey(c)) for e, c in node[1]))


def _nicontent(node) -> int:
    if isinstance(node, int):
        return abs(node)
    g = 0
    for _, c in node[1]:
        g = math.gcd(g, _nicontent(c))
        if g == 1:
            return 1
    return g


def _nint_div(node, k: int):
    if isinstance(node, int):
        q, r = divmod(node, k)
        if r:
            raise InexactDivisionError(f"{node} not divisible by {k}")
        return q
    return (node[0], tuple((e, _nint_div(c, k)) for e, c in node[1]))


def _ndegrees(node, degs=None) -> dict:
    """{level: the node's degree in the variable at that level}, for every
    level the node involves."""
    if degs is None:
        degs = {}
    if not isinstance(node, int):
        lvl, terms = node
        if degs.get(lvl, 0) < terms[0][0]:
            degs[lvl] = terms[0][0]
        for _, c in terms:
            _ndegrees(c, degs)
    return degs


def _nscales(degs: dict, values, top: int) -> list:
    """scale[l] for l = 0..top: the product of den(values[i - 1])^degs[i]
    over the levels i <= l whose value is not None."""
    scale = [1]
    for lvl in range(1, top + 1):
        d = degs.get(lvl, 0)
        x = values[lvl - 1] if d else None
        scale.append(scale[-1] * x.denominator ** d
                     if x is not None else scale[-1])
    return scale


def _ncleared(node, values, degs: dict, scale: list) -> int:
    """The node's value at the rational point values times scale[its
    level], by integer Horner."""
    if isinstance(node, int):
        return node
    lvl, terms = node
    x = values[lvl - 1]
    u, v = x.numerator, x.denominator
    top = prev = terms[0][0]
    acc = 0
    for e, c in terms:
        low = 0 if isinstance(c, int) else c[0]
        acc = (acc * u ** (prev - e) + _ncleared(c, values, degs, scale)
               * (scale[lvl - 1] // scale[low]) * v ** (top - e))
        prev = e
    return acc * u**prev * v ** (degs[lvl] - top)


def _nscale(node, k: int):
    """The node times a nonzero integer k."""
    if isinstance(node, int):
        return node * k
    return (node[0], tuple((e, _nscale(c, k)) for e, c in node[1]))


def _nsubs_cleared(node, values, degs: dict, scale: list, pt: int,
                   sym: int):
    """The node with the variable at each level l that has a value
    values[l - 1] (not None) substituted, times scale[its level]; the
    other levels stay symbolic.  The node involves no point-valued level
    below pt and no symbolic level below sym, so a node below pt comes
    back as it is and one below sym is a value, by _ncleared.  Point
    levels are summed as c_e u^e v^(deg - e) on nodes."""
    if isinstance(node, int):
        return node
    lvl, terms = node
    if lvl < pt:
        return node
    if lvl < sym:
        return _ncleared(node, values, degs, scale)
    x = values[lvl - 1]
    base = scale[lvl - 1]
    if x is None:
        out = {}
        for e, c in terms:
            r = _nsubs_cleared(c, values, degs, scale, pt, sym)
            k = base // scale[_nlevel(c)]
            out[e] = _nscale(r, k) if k != 1 else r
        return _nmake(lvl, out)
    u, v = x.numerator, x.denominator
    d = degs[lvl]
    acc = 0
    for e, c in terms:
        k = base // scale[_nlevel(c)] * u**e * v ** (d - e)
        if k:
            r = _nsubs_cleared(c, values, degs, scale, pt, sym)
            acc = _nadd(acc, _nscale(r, k))
    return acc


def _npoint_subs(node, values, degs=None):
    """The node with every level l whose value values[l - 1] is not None
    substituted, times the positive integer product of den(values[l - 1])
    raised to the node's degree at l over those levels: one pass of
    integer Horner for the point levels, with the others left symbolic.
    values covers every level up to the node's own; degs is the node's
    _ndegrees, walked here when not given."""
    if isinstance(node, int):
        return node
    if degs is None:
        degs = _ndegrees(node)
    pt = sym = node[0] + 1
    for lvl in degs:
        if values[lvl - 1] is None:
            sym = min(sym, lvl)
        else:
            pt = min(pt, lvl)
    scale = _nscales(degs, values, node[0])
    return _nsubs_cleared(node, values, degs, scale, pt, sym)


def _imul(a, b):
    """Product of the intervals a = (a0, a1) and b = (b0, b1)."""
    # the endpoint signs say which two of the four endpoint products are
    # the extremes; only two intervals that both straddle 0 need all four
    a0, a1 = a
    b0, b1 = b
    if a0 >= 0:
        if b0 >= 0:
            return (a0 * b0, a1 * b1)
        if b1 <= 0:
            return (a1 * b0, a0 * b1)
        return (a1 * b0, a1 * b1)
    if a1 <= 0:
        if b0 >= 0:
            return (a0 * b1, a1 * b0)
        if b1 <= 0:
            return (a1 * b1, a0 * b0)
        return (a0 * b1, a0 * b0)
    if b0 >= 0:
        return (a0 * b1, a1 * b1)
    if b1 <= 0:
        return (a1 * b0, a0 * b0)
    return (min(a0 * b1, a1 * b0), max(a0 * b0, a1 * b1))


def _nbox_cleared(node, boxes, degs: dict, scale: list) -> tuple:
    """Enclosure (lo, hi) of the node's values over integer boxes, times
    scale[its level], by interval Horner on integers.

    boxes[l - 1] = (a, b, q) stands for the box [a/q, b/q] of the
    variable at level l, and scale[l] is the product of q^degs[i] over
    the levels i <= l (see _nbox_scales).  Interval products are exact
    set products, so x^k is folded in one factor of x at a time.
    """
    if isinstance(node, int):
        return node, node
    lvl, terms = node
    a, b, q = boxes[lvl - 1]
    x = (a, b)
    base = scale[lvl - 1]
    d = prev = terms[0][0]
    acc = (0, 0)
    for e, c in terms:
        for _ in range(prev - e):
            acc = _imul(acc, x)
        lo, hi = _nbox_cleared(c, boxes, degs, scale)
        k = base // scale[_nlevel(c)] * q ** (d - e)
        acc = (acc[0] + lo * k, acc[1] + hi * k)
        prev = e
    for _ in range(prev):
        acc = _imul(acc, x)
    k = q ** (degs[lvl] - d)
    return acc[0] * k, acc[1] * k


def _nbox_scales(degs: dict, box, top: int):
    """(boxes, scale) for _nbox_cleared up to level top: box(l) gives the
    integer box (a, b, q) of the level-l variable, asked once for each
    level the node involves."""
    boxes = [None] * top
    scale = [1]
    for lvl in range(1, top + 1):
        d = degs.get(lvl, 0)
        if d:
            bx = boxes[lvl - 1] = box(lvl)
            scale.append(scale[-1] * bx[2] ** d)
        else:
            scale.append(scale[-1])
    return boxes, scale


# ---------------------------------------------------------------------------


class MultiPoly:
    """An immutable multivariate polynomial over the integers."""

    # each set on first use, as the node never changes: _key caches
    # sort_key, _hash the hash, _degs the shape _ndegrees(node), which
    # callers only read, and _bits height_bits()
    __slots__ = ("order", "node", "_key", "_hash", "_degs", "_bits")

    def __init__(self, order: VarOrder, node):
        self.order = order
        self.node = node

    # -- constructors

    @staticmethod
    def const(order: VarOrder, c: int) -> "MultiPoly":
        if not isinstance(c, int):
            raise TypeError("base coefficients must be ints")
        return MultiPoly(order, c)

    @staticmethod
    def zero(order: VarOrder) -> "MultiPoly":
        return MultiPoly(order, 0)

    @staticmethod
    def one(order: VarOrder) -> "MultiPoly":
        return MultiPoly(order, 1)

    @staticmethod
    def var(order: VarOrder, name: str) -> "MultiPoly":
        lvl = order.level(name)
        return MultiPoly(order, (lvl, ((1, 1),)))

    # -- predicates and structure

    def is_zero(self) -> bool:
        return _nis_zero(self.node)

    def is_constant(self) -> bool:
        return isinstance(self.node, int)

    def const_value(self) -> int:
        if not isinstance(self.node, int):
            raise ValueError("not a constant polynomial")
        return self.node

    def level(self) -> int:
        """Level of the main variable, 0 for constants."""
        return _nlevel(self.node)

    def mvar(self) -> str:
        lvl = self.level()
        if lvl == 0:
            raise ValueError("constant polynomial has no main variable")
        return self.order.name(lvl)

    def degree(self, var: str | None = None) -> int:
        """Degree in `var` (default: the main variable).  deg(0) is 0 here.

        The main variable and the levels above it are read off the node;
        a fresh polynomial asked only those pays for no walk.  A lower
        level is read off the cached shape."""
        node = self.node
        if var is None:
            return 0 if isinstance(node, int) else node[1][0][0]
        lvl = self.order.level(var)
        if isinstance(node, int) or lvl > node[0]:
            return 0
        if lvl == node[0]:
            return node[1][0][0]
        return self._shape().get(lvl, 0)

    def _shape(self) -> dict:
        """_ndegrees(node): {level: degree} for every level the polynomial
        involves, walked once.  Shared by every caller: read it only."""
        try:
            return self._degs
        except AttributeError:
            self._degs = degs = _ndegrees(self.node)
            return degs

    def total_degree(self) -> int:
        def go(node):
            if isinstance(node, int):
                return 0
            return max(e + go(c) for e, c in node[1])

        return go(self.node)

    def variables(self) -> tuple[str, ...]:
        return tuple(self.order.name(l) for l in sorted(self._shape()))

    def coeff_terms(self, var: str | None = None) -> list[tuple[int, "MultiPoly"]]:
        """Nonzero (exponent, coefficient) pairs in `var`, descending."""
        lvl = self.level() if var is None else self.order.level(var)
        if lvl == 0:
            return [(0, self)]
        d = _ncoeffs_in(self.node, lvl)
        return [
            (e, MultiPoly(self.order, c))
            for e, c in sorted(d.items(), key=lambda t: -t[0])
            if not _nis_zero(c)
        ]

    def coefficient(self, var: str, k: int) -> "MultiPoly":
        lvl = self.order.level(var)
        d = _ncoeffs_in(self.node, lvl)
        return MultiPoly(self.order, d.get(k, 0))

    def lc(self, var: str | None = None) -> "MultiPoly":
        """Leading coefficient in `var` (default main variable)."""
        lvl = self.level()
        if lvl and (var is None or self.order.level(var) == lvl):
            return MultiPoly(self.order, self.node[1][0][1])
        terms = self.coeff_terms(var)
        if not terms:
            return MultiPoly.zero(self.order)
        return terms[0][1]

    def lead_base_coeff(self) -> int:
        return _nlead_base(self.node)

    def height_bits(self) -> int:
        """Bit length of the largest absolute base coefficient."""
        try:
            return self._bits
        except AttributeError:
            pass

        def go(node):
            if isinstance(node, int):
                return abs(node).bit_length()
            return max(go(c) for _, c in node[1])

        self._bits = bits = go(self.node)
        return bits

    def reductum(self) -> "MultiPoly":
        """Strip the leading term in the main variable."""
        if self.is_constant():
            return MultiPoly.zero(self.order)
        lvl, terms = self.node
        return MultiPoly(self.order, _nmake(lvl, dict(terms[1:])))

    def derivative(self, var: str | None = None) -> "MultiPoly":
        """Derivative in `var` (default: the main variable)."""
        lvl = self.level() if var is None else self.order.level(var)
        return MultiPoly(self.order, _nderiv(self.node, lvl))

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.order != self.order:
                raise ValueError("mixed variable orders")
            return other.node
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        n = self._coerce(other)
        if n is NotImplemented:
            return NotImplemented
        return MultiPoly(self.order, _nadd(self.node, n))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.order, _nneg(self.node))

    def __sub__(self, other):
        n = self._coerce(other)
        if n is NotImplemented:
            return NotImplemented
        return MultiPoly(self.order, _nadd(self.node, _nneg(n)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        n = self._coerce(other)
        if n is NotImplemented:
            return NotImplemented
        return MultiPoly(self.order, _nmul(self.node, n))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return MultiPoly(self.order, _npow(self.node, k))

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.order == other.order
            and self.node == other.node
        )

    def __hash__(self):
        # from the node alone, which holds only ints
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(self.node)
            return h

    def sort_key(self):
        try:
            return self._key
        except AttributeError:
            self._key = key = _nkey(self.node)
            return key

    def __lt__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    # -- normalization helpers

    def int_content(self) -> int:
        return _nicontent(self.node)

    def div_int(self, k: int) -> "MultiPoly":
        return MultiPoly(self.order, _nint_div(self.node, k))

    def sign_normalized(self) -> "MultiPoly":
        """Flip sign so the leading base coefficient is positive."""
        if self.is_zero():
            return self
        return -self if self.lead_base_coeff() < 0 else self

    def assoc_normalized(self) -> "MultiPoly":
        """Strip integer content and normalize the sign (for dedup)."""
        if self.is_zero():
            return self
        c = self.int_content()
        p = self.div_int(c) if c > 1 else self
        return p.sign_normalized()

    # -- evaluation and substitution

    def evaluate(self, values: dict[str, Fraction]) -> Fraction:
        lv = {self.order.level(k): Fraction(v) for k, v in values.items()}

        def go(node):
            if isinstance(node, int):
                return Fraction(node)
            if node[0] not in lv:
                raise ValueError(
                    f"no value for variable {self.order.name(node[0])!r}"
                )
            x = lv[node[0]]
            acc = Fraction(0)
            prev_e = None
            for e, c in node[1]:
                if prev_e is None:
                    acc = go(c)
                else:
                    acc = acc * x ** (prev_e - e) + go(c)
                prev_e = e
            return acc * x**prev_e

        return go(self.node)

    def cleared_coeffs(self, var: str, values) -> list[int]:
        """Coefficients in var, lowest degree first, at a rational point
        of the lower variables, all times one positive integer: the
        product of each lower variable's denominator raised to the
        polynomial's degree in it.  values[l - 1] is the value of the
        variable at level l, for each lower level the polynomial
        involves; entries for other levels are never read.

        The polynomial must not involve variables above var.  Zero
        coefficients are kept, so the list has deg + 1 entries.
        """
        lvl = self.order.level(var)
        node = self.node
        if _nlevel(node) > lvl:
            raise ValueError("polynomial involves variables above %r" % var)
        terms = node[1] if _nlevel(node) == lvl else ((0, node),)
        degs = self._shape()
        scale = _nscales(degs, values, lvl - 1)
        out = [0] * (terms[0][0] + 1)
        for e, c in terms:
            out[e] = (_ncleared(c, values, degs, scale)
                      * (scale[-1] // scale[_nlevel(c)]))
        return out

    # -- rendering

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"MultiPoly({poly_to_str(self)})"


# ---------------------------------------------------------------------------
# rendering


def _monomials(p: MultiPoly) -> list[tuple[tuple[int, ...], int]]:
    """Flatten to (exponent vector, int coeff), sorted for display: the
    depth-first walk of a canonical node yields them by descending
    exponent of the highest variable first."""
    n = p.order.n
    out: list[tuple[tuple[int, ...], int]] = []

    def go(node, exps):
        if isinstance(node, int):
            if node:
                out.append((tuple(exps), node))
            return
        lvl = node[0]
        for e, c in node[1]:
            exps[lvl - 1] = e
            go(c, exps)
        exps[lvl - 1] = 0

    go(p.node, [0] * n)
    return out


def poly_to_str(p: MultiPoly) -> str:
    """Canonical string form, parseable by the input grammar."""
    monos = _monomials(p)
    if not monos:
        return "0"
    pieces: list[str] = []
    for i, (exps, c) in enumerate(monos):
        factors = []
        for lvl in range(p.order.n, 0, -1):
            e = exps[lvl - 1]
            if e == 1:
                factors.append(p.order.name(lvl))
            elif e > 1:
                factors.append(f"{p.order.name(lvl)}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if i == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# division


def _ndense(node) -> list:
    """The coefficient nodes of a node in its main variable, lowest
    degree first, with zeros in the gaps."""
    out = [0] * (node[1][0][0] + 1)
    for e, c in node[1]:
        out[e] = c
    return out


def _nsparse(level: int, coeffs: list):
    """The canonical node at level with the coefficient nodes coeffs,
    lowest degree first."""
    return _nterms(level, [(e, coeffs[e])
                           for e in range(len(coeffs) - 1, -1, -1)
                           if not _nis_zero(coeffs[e])])


def _iexact_div(r: list, g: list) -> list:
    """r / g for dense integer polynomials, lowest degree first, g with a
    nonzero leading coefficient; r is overwritten.  Raises
    InexactDivisionError when g does not divide r."""
    dg = len(g) - 1
    lcg = g[dg]
    quo = [0] * (len(r) - dg)
    for d in range(len(r) - 1, dg - 1, -1):
        t = r[d]
        if not t:
            continue
        t, m = divmod(t, lcg)
        if m:
            raise InexactDivisionError("division leaves a remainder")
        s = d - dg
        quo[s] = t
        r[s:d] = [a - t * b for a, b in zip(r[s:d], g)]
    if any(r[:dg]):
        raise InexactDivisionError("division leaves a remainder")
    return quo


def _nexact_div(f, g):
    """f / g for nodes, g nonzero; raises InexactDivisionError when g
    does not divide f."""
    if isinstance(g, int):
        if g == 1:
            return f
        return _nneg(f) if g == -1 else _nint_div(f, g)
    if _nis_zero(f):
        return 0
    lf, lvl = _nlevel(f), g[0]
    if lf < lvl:
        raise InexactDivisionError("divisor involves a variable the "
                                   "dividend does not")
    if lf > lvl:
        # divide every coefficient of f (in its main variable) by g
        return (lf, tuple((e, _nexact_div(c, g)) for e, c in f[1]))
    if lvl == 1:
        return _nsparse(1, _iexact_div(_ndense(f), _ndense(g)))
    # same level: long division in the main variable, each leading
    # coefficient divided exactly by lc(g)
    dg, lcg = g[1][0]
    rest = [(e - dg, _nneg(c)) for e, c in g[1][1:]]
    r = _ndense(f)
    quo = {}
    for d in range(len(r) - 1, dg - 1, -1):
        t = r[d]
        if _nis_zero(t):
            continue
        t = quo[d - dg] = _nexact_div(t, lcg)
        for e, c in rest:
            k = e + d
            r[k] = _nadd(r[k], _nmul(t, c))
    if any(not _nis_zero(c) for c in r[:dg]):
        raise InexactDivisionError("division leaves a remainder")
    return _nmake(lvl, quo)


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f/g; raises InexactDivisionError if g does not divide f."""
    if f.order != g.order:
        raise ValueError("mixed variable orders")
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    return MultiPoly(f.order, _nexact_div(f.node, g.node))


def _npdiv(f, g, want_quo: bool):
    """(quotient, remainder) of the pseudo-division of node f by node g
    in g's main variable x; f must not involve variables above x.  The
    quotient is only built when want_quo (it is None otherwise, unless
    deg f < deg g, where it is 0).

    Each step drops the leading term of the remainder, which cancels,
    multiplies the rest by lc(g) and subtracts t * x^k * g without its
    leading term, by shifting exponents.  Steps whose leading term is
    already 0 are skipped, and their powers of lc(g) are applied once at
    the end.  A monic g takes the same steps: skipping its products by
    lc(g) = 1 measured within noise.
    """
    lvl, gterms = g
    if _nlevel(f) < lvl or f[1][0][0] < gterms[0][0]:
        return 0, f
    dg, lcg = gterms[0]
    rest = [(e - dg, _nneg(c)) for e, c in gterms[1:]]
    df = f[1][0][0]
    r = _ndense(f)
    quo = [0] * (df - dg + 1) if want_quo else None
    lazy = df - dg + 1
    for d in range(df, dg - 1, -1):
        t = r[d]
        if _nis_zero(t):
            continue
        lazy -= 1
        for i in range(d):
            if not _nis_zero(r[i]):
                r[i] = _nmul(r[i], lcg)
        if want_quo:
            for i in range(d - dg + 1, len(quo)):
                if not _nis_zero(quo[i]):
                    quo[i] = _nmul(quo[i], lcg)
            quo[d - dg] = t
        for e, c in rest:
            k = e + d
            r[k] = _nadd(r[k], _nmul(t, c))
    if lazy:
        m = _npow(lcg, lazy)
        r = [_nmul(c, m) for c in r[:dg]]
        if want_quo:
            quo = [_nmul(c, m) for c in quo]
    rem = _nsparse(lvl, r[:dg])
    return (_nsparse(lvl, quo) if want_quo else None), rem


def _pdiv_args(f: MultiPoly, g: MultiPoly, var: str):
    if f.order != g.order:
        raise ValueError("mixed variable orders")
    if g.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    lvl = f.order.level(var)
    if g.level() != lvl or f.level() > lvl:
        raise ValueError("pseudo-division in %r needs a divisor with main "
                         "variable %r and a dividend free of higher "
                         "variables" % (var, var))
    return f.node, g.node


def pseudo_division(
    f: MultiPoly, g: MultiPoly, var: str
) -> tuple[MultiPoly, MultiPoly]:
    """Pseudo quotient and remainder of f by g in `var`.

    lc(g)^(deg f - deg g + 1) * f == quo*g + rem with deg_var(rem) < deg_var(g).
    If deg f < deg g the result is (0, f).  var must be g's main
    variable and f must not involve a higher one (ValueError otherwise).
    The loop runs on nodes (_npdiv); prem skips the quotient.
    """
    quo, rem = _npdiv(*_pdiv_args(f, g, var), True)
    return MultiPoly(f.order, quo), MultiPoly(f.order, rem)


def prem(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    return MultiPoly(f.order, _npdiv(*_pdiv_args(f, g, var), False)[1])


def pquo(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    return pseudo_division(f, g, var)[0]


# ---------------------------------------------------------------------------
# gcd, content, squarefree machinery


def _int_poly_gcd(c: int, g: MultiPoly) -> MultiPoly:
    return MultiPoly.const(g.order, math.gcd(abs(c), g.int_content()))


def _cert_point(level: int) -> int:
    """The fixed integer the certificate gives the variable at level."""
    return 1000003 * level % 8191 + 1009


def _ncert_value(node) -> int:
    """The node's value with every variable at its _cert_point."""
    if isinstance(node, int):
        return node
    v = _cert_point(node[0])
    acc, prev = 0, node[1][0][0]
    for e, c in node[1]:
        acc = acc * v ** (prev - e) + _ncert_value(c)
        prev = e
    return acc * v**prev


def _ncert_image(node) -> list[int]:
    """Dense image in Z[x] of a node in its main variable x, lowest
    degree first, with every lower variable at its _cert_point."""
    return [_ncert_value(c) for c in _ndense(node)]


def _cert_radius(img):
    """Cauchy's R for a dense image, lowest degree first: every complex
    root a has |a| < R.  None when the leading coefficient vanished."""
    lc = abs(img[-1])
    return 2 + max(map(abs, img)) // lc if lc else None


def _value_at_pow2(img, shift: int) -> int:
    """img(2^shift) for a dense image, lowest degree first."""
    acc = 0
    for c in reversed(img):
        acc = (acc << shift) + c
    return acc


def _coprime_at(vf: int, vg: int, xi: int, radius: int) -> bool:
    """Step 4 of the certificate (module docstring): True when the values
    vf, vg of two images at xi prove deg_x gcd == 0, given that R =
    radius bounds the roots of an image whose leading coefficient
    survived.  Every coprimality shortcut goes through here."""
    return math.gcd(vf, vg) < xi - radius


def _images_coprime(img_f, img_g) -> bool:
    """True when the dense images in Z[x], lowest degree first, of f and
    g under one map of their lower variables prove deg_x gcd(f, g) == 0;
    False means "not proven", never "not coprime"."""
    radii = [r for r in map(_cert_radius, (img_f, img_g)) if r is not None]
    if not radii:
        return False
    r = max(radii)
    shift = r.bit_length() + 32
    return _coprime_at(_value_at_pow2(img_f, shift),
                       _value_at_pow2(img_g, shift), 1 << shift, r)


def _nodes_coprime(f, g) -> bool:
    """The certificate for nodes f and g with the same main variable."""
    return _images_coprime(_ncert_image(f), _ncert_image(g))


def _balanced_digits(v: int, shift: int) -> list[int]:
    """The balanced 2^shift-adic digits of v, lowest first: v is the sum
    of d_i 2^(i shift), with -2^(shift-1) <= d_i < 2^(shift-1)."""
    half, mask = 1 << (shift - 1), (1 << shift) - 1
    out = []
    while v:
        d = v & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        v = (v - d) >> shift
    return out


def _heuristic_gcd_at(F, G, shift: int, radius: int):
    """(H, A, B) with H A == F, H B == G and gcd(A, B) == 1, read off
    one integer gcd at xi = 2^shift, or None when that is not proven
    (module docstring).  F and G are primitive dense images, lowest
    degree first, whose coefficients are below xi / 2 in absolute value
    and whose roots are below radius."""
    xi = 1 << shift
    vf, vg = _value_at_pow2(F, shift), _value_at_pow2(G, shift)
    h = math.gcd(vf, vg)
    # h > 0, and the top balanced digit of a positive number is positive
    H = _balanced_digits(h, shift)
    k = math.gcd(*H)
    H = [c // k for c in H]
    vh = h // k
    va, vb = vf // vh, vg // vh
    A, B = _balanced_digits(va, shift), _balanced_digits(vb, shift)
    if 2 * sum(map(abs, H)) * max(map(abs, A + B)) >= xi:
        return None
    return (H, A, B) if _coprime_at(va, vb, xi, radius) else None


def _nheuristic_gcd(f, g):
    """(h, f/h, g/h) as nodes, h = poly_gcd(f, g), for two nonconstant
    nodes at one level whose coefficients in that level are all
    integers, by the heuristic gcd of the module docstring; None for any
    other pair, and for a pair the heuristic did not prove."""
    if (isinstance(f, int) or isinstance(g, int) or f[0] != g[0]
            or not all(isinstance(c, int) for _, c in f[1] + g[1])):
        return None
    F, G = _ncert_image(f), _ncert_image(g)
    cf, cg = math.gcd(*F), math.gcd(*G)
    if cf > 1:
        F = [c // cf for c in F]
    if cg > 1:
        G = [c // cg for c in G]
    radius = max(_cert_radius(F), _cert_radius(G))
    shift = (2 * max(map(abs, F + G)) + 2).bit_length() + 32
    out = _heuristic_gcd_at(F, G, shift, radius)
    if out is None:
        return None
    H, A, B = out
    c, lvl = math.gcd(cf, cg), f[0]
    return (_nsparse(lvl, [c * x for x in H]),
            _nsparse(lvl, [cf // c * x for x in A]),
            _nsparse(lvl, [cg // c * x for x in B]))


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Sign-normalized gcd over the integers (primitive PRS).

    When f and g share their main variable x, the coprimality
    certificate of the module docstring runs first: one integer gcd of
    the images' values at a point above their roots.  A proof that
    deg_x gcd(f, g) == 0 makes the result exactly gcd(content(f),
    content(g)).  Otherwise (both leading coefficients vanish at the
    fixed point, the pair shares a factor, or the point is unlucky) the
    primitive PRS runs: the certificate only ever proves coprimality.
    The heuristic gcd runs only in _gcd_cofactors (module docstring).
    """
    if f.order != g.order:
        raise ValueError("mixed variable orders")
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero():
        return g.sign_normalized()
    if g.is_zero():
        return f.sign_normalized()
    if f.is_constant():
        return _int_poly_gcd(f.const_value(), g)
    if g.is_constant():
        return _int_poly_gcd(g.const_value(), f)
    lf, lg = f.level(), g.level()
    if lf < lg:
        f, g = g, f
        lf, lg = lg, lf
    if lf > lg:
        # g involves only smaller variables: reduce f to its full content
        return poly_gcd(content(f), g)
    if _nodes_coprime(f.node, g.node):
        return poly_gcd(content(f), content(g))
    var = f.order.name(lf)
    cf, pf = content_primitive_part(f)
    cg, pg = content_primitive_part(g)
    c = poly_gcd(cf, cg)
    if pf.degree(var) < pg.degree(var):
        pf, pg = pg, pf
    while True:
        r = prem(pf, pg, var)
        if r.is_zero():
            break
        if r.level() < lf:
            # a nonzero remainder free of x: the primitive parts are coprime
            return c
        pf, pg = pg, primitive_part(r)
    return (c * pg.sign_normalized()).sign_normalized()


def _gcd_cofactors(f: MultiPoly, g: MultiPoly):
    """(h, f/h, g/h) with h = poly_gcd(f, g).

    A pair the heuristic gcd proves comes with its cofactors; every
    other pair takes poly_gcd and divides by h exactly."""
    heu = _nheuristic_gcd(f.node, g.node)
    if heu is not None:
        return tuple(MultiPoly(f.order, n) for n in heu)
    h = poly_gcd(f, g)
    return h, exact_div(f, h), exact_div(g, h)


def content(f: MultiPoly) -> MultiPoly:
    """Content with respect to the main variable (gcd of the coefficients)."""
    if f.is_zero():
        raise ValueError("content of zero polynomial")
    if f.is_constant():
        return MultiPoly.const(f.order, abs(f.const_value()))
    terms = f.node[1]
    if any(isinstance(c, int) for _, c in terms):
        # the content divides an integer coefficient, so it is the
        # integer content
        return MultiPoly.const(f.order, _nicontent(f.node))
    cont = None
    for _, c in terms:
        coef = MultiPoly(f.order, c)
        cont = coef.sign_normalized() if cont is None else poly_gcd(cont, coef)
        if cont.is_constant() and cont.const_value() == 1:
            break
    return cont


def primitive_part(f: MultiPoly) -> MultiPoly:
    return exact_div(f, content(f))


def content_primitive_part(f: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Split f into (content, primitive part) with content * primpart == f."""
    c = content(f)
    return c, exact_div(f, c)


def squarefree_decomposition(f: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Yun decomposition of the primitive part: f ~ prod s_i^i, s_i squarefree.

    The s_i are primitive, sign-normalized and pairwise coprime; constant
    factors are dropped (reconstruction holds up to an integer constant).
    Each step of Yun's loop takes its gcd and both cofactors from
    _gcd_cofactors, so a univariate loop (every level-1 one) divides
    nothing: the heuristic gcd reads the quotients off its integer gcd.
    """
    if f.is_zero() or f.is_constant():
        raise ValueError("squarefree decomposition needs a nonconstant polynomial")
    p = primitive_part(f).sign_normalized()
    var = p.mvar()
    dp = p.derivative(var)
    # p is primitive, so gcd(p, p') is 1 when p' is free of x (deg p is
    # 1) or the certificate proves deg_x gcd(p, p') == 0; no contents
    # needed
    if dp.level() < p.level() or _nodes_coprime(p.node, dp.node):
        return [(p, 1)]
    _, c, y = _gcd_cofactors(p, dp)
    out: list[tuple[MultiPoly, int]] = []
    i = 1
    while c.degree(var) > 0:
        # y = (previous d) / s, c = (previous c) / s
        s, c, y = _gcd_cofactors(c, y - c.derivative(var))
        if not s.is_constant():
            out.append((s.sign_normalized(), i))
        i += 1
    return out


def finest_squarefree_basis(polys: Iterable[MultiPoly]) -> list[MultiPoly]:
    """Finest squarefree basis of a set of nonzero nonconstant polynomials.

    Output elements are primitive, squarefree, sign-normalized and pairwise
    coprime; every input is an integer constant times a product of powers of
    output elements.  Returned sorted by the canonical key.

    The certificate of the module docstring runs with one xi per call,
    above the largest radius R of the items, and with xi - R as the one
    bound.  Each element carries its image's value at xi and whether its
    leading coefficient survived the map, which puts every root of its
    image below R; a factor's image has its roots among those of the
    image it divides, so the pieces of a split inherit that: g = gcd(p, b)
    from p or b, p/g from p and b/g from b.  A pair at one level where
    either side survived is proven coprime by one integer gcd of two
    cached values; every other pair is split by _gcd_cofactors, which
    gives g, p/g and b/g together (from the heuristic gcd when the pair
    is univariate).
    """
    items: list[MultiPoly] = []
    seen = set()
    for p in polys:
        if p.is_zero() or p.is_constant():
            raise ValueError("basis inputs must be nonzero and nonconstant")
        for h, _mult in squarefree_decomposition(p):
            h = h.assoc_normalized()
            if h not in seen:
                seen.add(h)
                items.append(h)
    images = [_ncert_image(p.node) for p in items]
    radii = [_cert_radius(img) for img in images]
    rmax = max((r for r in radii if r is not None), default=1)
    shift = rmax.bit_length() + 32
    xi = 1 << shift

    def value(p):
        return _value_at_pow2(_ncert_image(p.node), shift)

    # Incremental refinement (Bach, Driscoll and Shallit, J. Algorithms
    # 15, 1993): basis stays pairwise coprime, and each new item p is
    # split against each element once.  All items are squarefree, so g,
    # b/g and the rest of p are pairwise coprime and b/g, like g, is
    # coprime to every other element.  The coarsest coprime refinement
    # is unique, so the sorted result does not depend on item order.
    # Every element and every p is primitive (Gauss's lemma keeps the
    # quotients primitive), so when the certificate proves that a pair
    # at one level has a gcd of x-degree 0, that gcd is exactly 1.
    basis: list[tuple[MultiPoly, int, bool]] = []
    for p, img, rp in zip(items, images, radii):
        vp, sp = _value_at_pow2(img, shift), rp is not None
        refined = []
        for b, vb, sb in basis:
            if p.is_constant() or (p.level() == b.level() and (sp or sb)
                                   and _coprime_at(vp, vb, xi, rmax)):
                refined.append((b, vb, sb))
                continue
            g, p, qb = _gcd_cofactors(p, b)
            if g.is_constant():
                refined.append((b, vb, sb))
                continue
            if not p.is_constant():
                vp = value(p)
            refined.append((g, value(g), sp or sb))
            if not qb.is_constant():
                refined.append((qb, value(qb), sb))
        if not p.is_constant():
            # vp is the value of p up to sign, which coprimality ignores
            refined.append((p.assoc_normalized(), vp, sp))
        basis = refined
    return sorted(b for b, _, _ in basis)
