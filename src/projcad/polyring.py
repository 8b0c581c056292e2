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

Exact and pseudo-division run on nodes, in the main variable of the
divisor: the leading coefficient is read off the first term, x^k shifts
exponents, the leading terms, which cancel, are dropped instead of
computed, and the pseudo-quotient is only built when it is asked for
(prem does not ask).

Evaluation at rational points is integer Horner on nodes at one common
scale: each level's denominator raised to the polynomial's degree in
that level (_nscales).  _ncleared evaluates at a point, and
_npoint_subs substitutes the levels that have a value in one pass and
leaves the others symbolic; algnum.sign_at signs through it.
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


def _nmake(level: int, terms: dict):
    """Build a canonical node from {exponent: node} at the given level."""
    items = [(e, c) for e, c in terms.items() if not _nis_zero(c)]
    if not items:
        return 0
    items.sort(key=lambda t: -t[0])
    if len(items) == 1 and items[0][0] == 0:
        return items[0][1]
    return (level, tuple(items))


def _nis_zero(node) -> bool:
    return isinstance(node, int) and node == 0


def _nadd(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    la, lb = _nlevel(a), _nlevel(b)
    if la < lb:
        a, b, la = b, a, lb
    terms = dict(a[1])
    if _nlevel(b) == la:
        for e, c in b[1]:
            terms[e] = _nadd(terms.get(e, 0), c)
    else:
        terms[0] = _nadd(terms.get(0, 0), b)
    return _nmake(la, terms)


def _nneg(a):
    if isinstance(a, int):
        return -a
    return (a[0], tuple((e, _nneg(c)) for e, c in a[1]))


def _nmul(a, b):
    if _nis_zero(a) or _nis_zero(b):
        return 0
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    la, lb = _nlevel(a), _nlevel(b)
    if la < lb:
        a, b, la = b, a, lb
    if _nlevel(b) == la:
        out: dict = {}
        for e1, c1 in a[1]:
            for e2, c2 in b[1]:
                k = e1 + e2
                p = _nmul(c1, c2)
                out[k] = _nadd(out.get(k, 0), p) if k in out else p
        return _nmake(la, out)
    return _nmake(la, {e: _nmul(c, b) for e, c in a[1]})


def _npow(a, k: int):
    if k < 0:
        raise ValueError("negative exponent")
    out = 1
    while k:
        if k & 1:
            out = _nmul(out, a)
        a = _nmul(a, a)
        k >>= 1
    return out


def _ndeg(node, level: int) -> int:
    """Degree in the variable at `level`; 0 for constants (including 0)."""
    if isinstance(node, int):
        return 0
    nl = node[0]
    if nl < level:
        return 0
    if nl == level:
        return node[1][0][0]
    return max(_ndeg(c, level) for _, c in node[1])


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


def _npoint_subs(node, values):
    """The node with every level l whose value values[l - 1] is not None
    substituted, times the positive integer product of den(values[l - 1])
    raised to the node's degree at l over those levels: one pass of
    integer Horner for the point levels, with the others left symbolic.
    values covers every level up to the node's own."""
    if isinstance(node, int):
        return node
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

    # _key caches sort_key and _hash the hash, each set on first use
    __slots__ = ("order", "node", "_key", "_hash")

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
        """Degree in `var` (default: the main variable).  deg(0) is 0 here."""
        lvl = self.level() if var is None else self.order.level(var)
        if lvl == 0:
            return 0
        return _ndeg(self.node, lvl)

    def total_degree(self) -> int:
        def go(node):
            if isinstance(node, int):
                return 0
            return max(e + go(c) for e, c in node[1])

        return go(self.node)

    def variables(self) -> tuple[str, ...]:
        present: set[int] = set()

        def go(node):
            if isinstance(node, int):
                return
            present.add(node[0])
            for _, c in node[1]:
                go(c)

        go(self.node)
        return tuple(self.order.name(l) for l in sorted(present))

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
        terms = self.coeff_terms(var)
        if not terms:
            return MultiPoly.zero(self.order)
        return terms[0][1]

    def lead_base_coeff(self) -> int:
        return _nlead_base(self.node)

    def height_bits(self) -> int:
        """Bit length of the largest absolute base coefficient."""
        def go(node):
            if isinstance(node, int):
                return abs(node).bit_length()
            return max(go(c) for _, c in node[1])

        return go(self.node)

    def reductum(self) -> "MultiPoly":
        """Strip the leading term in the main variable."""
        if self.is_constant():
            return MultiPoly.zero(self.order)
        lvl, terms = self.node
        return MultiPoly(self.order, _nmake(lvl, dict(terms[1:])))

    def derivative(self, var: str | None = None) -> "MultiPoly":
        if var is None:
            if self.is_constant():
                return MultiPoly.zero(self.order)
            var = self.mvar()
        lvl = self.order.level(var)
        if self.level() == lvl:
            # fast path: differentiate in the main variable
            out = {
                e - 1: _nmul(c, e) for e, c in self.node[1] if e >= 1
            }
            return MultiPoly(self.order, _nmake(lvl, out))
        xv = MultiPoly.var(self.order, var)
        acc = MultiPoly.zero(self.order)
        for e, c in self.coeff_terms(var):
            if e >= 1:
                acc = acc + c * e * xv ** (e - 1)
        return acc

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
        degs = _ndegrees(node)
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
    """Flatten to (exponent vector, int coeff), sorted for display."""
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
    out.sort(key=lambda t: tuple(reversed(t[0])), reverse=True)
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
    # same level: long division in the main variable, each leading
    # coefficient divided exactly by lc(g)
    dg, lcg = g[1][0]
    rest = [(e - dg, _nneg(c)) for e, c in g[1][1:]]
    r = [0] * (f[1][0][0] + 1)
    for e, c in f[1]:
        r[e] = c
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


def divides(g: MultiPoly, f: MultiPoly) -> bool:
    try:
        exact_div(f, g)
        return True
    except InexactDivisionError:
        return False


def _npdiv(f, g, want_quo: bool):
    """(quotient, remainder) of the pseudo-division of node f by node g
    in g's main variable x; f must not involve variables above x.  The
    quotient is only built when want_quo (it is None otherwise, unless
    deg f < deg g, where it is 0).

    Each step drops the leading term of the remainder, which cancels,
    multiplies the rest by lc(g) and subtracts t * x^k * g without its
    leading term, by shifting exponents.  Steps whose leading term is
    already 0 are skipped, and their powers of lc(g) are applied once at
    the end.
    """
    lvl, gterms = g
    if _nlevel(f) < lvl or f[1][0][0] < gterms[0][0]:
        return 0, f
    dg, lcg = gterms[0]
    rest = [(e - dg, _nneg(c)) for e, c in gterms[1:]]
    unit = lcg == 1
    df = f[1][0][0]
    r = [0] * (df + 1)
    for e, c in f[1]:
        r[e] = c
    quo = [0] * (df - dg + 1) if want_quo else None
    lazy = df - dg + 1
    for d in range(df, dg - 1, -1):
        t = r[d]
        if _nis_zero(t):
            continue
        lazy -= 1
        if not unit:
            for i in range(d):
                if not _nis_zero(r[i]):
                    r[i] = _nmul(r[i], lcg)
            if want_quo:
                for i in range(d - dg + 1, len(quo)):
                    if not _nis_zero(quo[i]):
                        quo[i] = _nmul(quo[i], lcg)
        if want_quo:
            quo[d - dg] = t
        for e, c in rest:
            k = e + d
            r[k] = _nadd(r[k], _nmul(t, c))
    if lazy and not unit:
        m = _npow(lcg, lazy)
        r = [_nmul(c, m) for c in r[:dg]]
        if want_quo:
            quo = [_nmul(c, m) for c in quo]
    rem = _nmake(lvl, dict(enumerate(r[:dg])))
    return (_nmake(lvl, dict(enumerate(quo))) if want_quo else None), rem


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
    if c == 0:
        return g.sign_normalized()
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
    out = [0] * (node[1][0][0] + 1)
    for e, c in node[1]:
        out[e] = _ncert_value(c)
    return out


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


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Sign-normalized gcd over the integers (primitive PRS).

    When f and g share their main variable x, the coprimality
    certificate of the module docstring runs first: one integer gcd of
    the images' values at a point above their roots.  A proof that
    deg_x gcd(f, g) == 0 makes the result exactly gcd(content(f),
    content(g)).  Otherwise (both leading coefficients vanish at the
    fixed point, the pair shares a factor, or the point is unlucky) the
    primitive PRS runs: the certificate only ever proves coprimality.
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


def squarefree_part(f: MultiPoly) -> MultiPoly:
    """Squarefree part of the primitive part of f, sign-normalized."""
    if f.is_zero() or f.is_constant():
        raise ValueError("squarefree part needs a nonconstant polynomial")
    p = primitive_part(f)
    g = poly_gcd(p, p.derivative())
    if g.is_constant():
        return p.sign_normalized()
    return exact_div(p, g).sign_normalized()


def squarefree_decomposition(f: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Yun decomposition of the primitive part: f ~ prod s_i^i, s_i squarefree.

    The s_i are primitive, sign-normalized and pairwise coprime; constant
    factors are dropped (reconstruction holds up to an integer constant).
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
    g = poly_gcd(p, dp)
    if g.is_constant():
        return [(p, 1)]
    out: list[tuple[MultiPoly, int]] = []
    c = exact_div(p, g)
    d = exact_div(dp, g) - c.derivative(var)
    i = 1
    while c.degree(var) > 0:
        s = poly_gcd(c, d)
        if not s.is_constant():
            out.append((s.sign_normalized(), i))
        c = exact_div(c, s)
        d = exact_div(d, s) - c.derivative(var)
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
    cached values; every other pair runs poly_gcd.
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
            g = poly_gcd(p, b)
            if g.is_constant():
                refined.append((b, vb, sb))
                continue
            g = g.assoc_normalized()
            p = exact_div(p, g)
            if not p.is_constant():
                vp = value(p)
            qb = exact_div(b, g).assoc_normalized()
            refined.append((g, value(g), sp or sb))
            if not qb.is_constant():
                refined.append((qb, value(qb), sb))
        if not p.is_constant():
            # vp is the value of p up to sign, which coprimality ignores
            refined.append((p.assoc_normalized(), vp, sp))
        basis = refined
    return sorted(b for b, _, _ in basis)
