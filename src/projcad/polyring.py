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

Most gcds met in projection are trivial, so poly_gcd first tries to prove
coprimality cheaply: it evaluates the lower variables at a fixed point,
reduces modulo a fixed prime and runs Euclid in F_p[x].  A constant
modular gcd, with a leading coefficient that survives the map, proves
that the gcd has degree 0 in x; the result is then the gcd of the
contents.  Every other outcome falls back to the exact primitive PRS, so
results are unchanged (see poly_gcd for the argument).
finest_squarefree_basis refines incrementally and gcds each pair once.
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


# ---------------------------------------------------------------------------


class MultiPoly:
    """An immutable multivariate polynomial over the integers."""

    __slots__ = ("order", "node")

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

    @staticmethod
    def from_coeffs(order: VarOrder, name: str, coeffs) -> "MultiPoly":
        """Univariate sum of coeffs[e] * name^e over ints, lowest first."""
        lvl = order.level(name)
        return MultiPoly(order, _nmake(lvl, dict(enumerate(coeffs))))

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

    def reductum(self, var: str | None = None) -> "MultiPoly":
        """Strip the leading term in `var` (default: the main variable)."""
        if self.is_constant():
            return MultiPoly.zero(self.order)
        lvl = self.level() if var is None else self.order.level(var)
        if self.level() == lvl:
            terms = self.node[1]
            return MultiPoly(self.order, _nmake(lvl, dict(terms[1:])))
        name = self.order.name(lvl)
        terms = self.coeff_terms(name)
        xv = MultiPoly.var(self.order, name)
        acc = MultiPoly.zero(self.order)
        for e, c in terms[1:]:
            acc = acc + c * xv**e
        return acc

    def reductum_k(self, k: int) -> "MultiPoly":
        """k-fold reductum in the main variable of self (fixed across steps)."""
        if not 0 <= k <= max(self.degree(), 0):
            raise ValueError(f"reductum index {k} out of range")
        if k == 0 or self.is_constant():
            return self if k == 0 else MultiPoly.zero(self.order)
        var = self.mvar()
        p = self
        for _ in range(k):
            p = p.reductum(var)
        return p

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
        return hash((self.order, self.node))

    def sort_key(self):
        return _nkey(self.node)

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

    def subs_rational_cleared(self, var: str, value: Fraction) -> "MultiPoly":
        """Substitute var=value and clear denominators.

        Returns den(value)^deg * f(var=value), an integer polynomial with
        the same sign and zero set at any point as the true substitution.
        """
        value = Fraction(value)
        u, v = value.numerator, value.denominator
        terms = self.coeff_terms(var)
        d = terms[0][0] if terms else 0
        acc = MultiPoly.zero(self.order)
        for e, c in terms:
            acc = acc + c * (u**e) * (v ** (d - e))
        return acc

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


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f/g; raises InexactDivisionError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return f
    if g.is_constant():
        c = g.const_value()
        if c in (1, -1):
            return f if c == 1 else -f
        return MultiPoly(f.order, _nint_div(f.node, c)) if c > 0 else -MultiPoly(
            f.order, _nint_div(f.node, -c)
        )
    lf, lg = f.level(), g.level()
    if lf < lg:
        raise InexactDivisionError(f"{g} does not divide {f}")
    if lf > lg:
        # divide every coefficient of f (in its main variable) by g
        lvl, terms = f.node
        out = {}
        for e, c in terms:
            out[e] = exact_div(MultiPoly(f.order, c), g).node
        return MultiPoly(f.order, _nmake(lvl, out))
    # same level: univariate long division with recursive coefficient division
    var = f.mvar()
    rem = f
    quo = MultiPoly.zero(f.order)
    dg = g.degree()
    lcg = g.lc()
    xv = MultiPoly.var(f.order, var)
    while not rem.is_zero() and rem.level() == lf and rem.degree() >= dg:
        t = exact_div(rem.lc(var), lcg)
        shift = t * xv ** (rem.degree(var) - dg)
        quo = quo + shift
        rem = rem - shift * g
    if not rem.is_zero():
        raise InexactDivisionError(f"{g} does not divide {f}")
    return quo


def divides(g: MultiPoly, f: MultiPoly) -> bool:
    try:
        exact_div(f, g)
        return True
    except InexactDivisionError:
        return False


def pseudo_division(
    f: MultiPoly, g: MultiPoly, var: str
) -> tuple[MultiPoly, MultiPoly]:
    """Pseudo quotient and remainder of f by g in `var`.

    lc(g)^(deg f - deg g + 1) * f == quo*g + rem with deg_var(rem) < deg_var(g).
    If deg f < deg g the result is (0, f).
    """
    if g.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    df, dg = f.degree(var), g.degree(var)
    if f.is_zero() or df < dg:
        return MultiPoly.zero(f.order), f
    lcg = g.lc(var)
    xv = MultiPoly.var(f.order, var)
    quo = MultiPoly.zero(f.order)
    rem = f
    steps = df - dg + 1
    dr = df
    while not rem.is_zero() and (dr := rem.degree(var)) >= dg:
        t = rem.lc(var) * xv ** (dr - dg)
        quo = quo * lcg + t
        rem = rem * lcg - t * g
        steps -= 1
    if steps > 0:
        m = lcg**steps
        quo = quo * m
        rem = rem * m
    return quo, rem


def prem(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    return pseudo_division(f, g, var)[1]


def pquo(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    return pseudo_division(f, g, var)[0]


# ---------------------------------------------------------------------------
# gcd, content, squarefree machinery


def _int_poly_gcd(c: int, g: MultiPoly) -> MultiPoly:
    if c == 0:
        return g.sign_normalized()
    return MultiPoly.const(g.order, math.gcd(abs(c), g.int_content()))


# The modular coprimality filter maps the variable at level i to
# _mod_point(i) and reduces modulo the Mersenne prime _MOD_P.
_MOD_P = (1 << 61) - 1


def _mod_point(level: int) -> int:
    """Fixed nonzero value in F_p given to the variable at `level`."""
    return level * 0x9E3779B97F4A7C15 % _MOD_P


def _nmod_eval(node) -> int:
    """Image of a node in F_p under every variable -> _mod_point(level)."""
    if isinstance(node, int):
        return node % _MOD_P
    v = _mod_point(node[0])
    acc, prev = 0, node[1][0][0]
    for e, c in node[1]:
        acc = (acc * pow(v, prev - e, _MOD_P) + _nmod_eval(c)) % _MOD_P
        prev = e
    return acc * pow(v, prev, _MOD_P) % _MOD_P


def _nmod_image(node) -> list[int]:
    """Dense image in F_p[x] of a node in its main variable x (only the
    lower variables are evaluated), leading coefficient first."""
    top = node[1][0][0]
    out = [0] * (top + 1)
    for e, c in node[1]:
        out[top - e] = _nmod_eval(c)
    return out


def _coprime_mod_p(f, g) -> bool:
    """True when the images mod p prove deg_x gcd(f, g) == 0.

    f and g are nodes with the same main variable x.  False means
    "not proven", never "not coprime"; see poly_gcd for the argument.
    """
    a, b = _nmod_image(f), _nmod_image(g)
    if a[0] == 0:
        a, b = b, a
        if a[0] == 0:
            return False
    # Euclid in F_p[x]; a keeps a nonzero leading coefficient throughout
    while True:
        while b and b[0] == 0:
            del b[0]
        if not b:
            return False
        if len(b) == 1:
            return True
        if len(a) < len(b):
            a, b = b, a
        inv = pow(b[0], -1, _MOD_P)
        nb = len(b)
        for i in range(len(a) - nb + 1):
            q = a[i] * inv % _MOD_P
            if q:
                for j in range(1, nb):
                    a[i + j] = (a[i + j] - q * b[j]) % _MOD_P
        a, b = b, a[len(a) - nb + 1:]


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Sign-normalized gcd over the integers (primitive PRS).

    When f and g share their main variable x, a modular filter runs
    before the PRS (Brown, JACM 18, 1971).  Every lower variable is set
    to a fixed value and everything is reduced modulo the prime
    p = 2^61 - 1; a Euclid loop in F_p[x], bounded by the degrees, then
    gives gcd(phi(f), phi(g)).  Let h = gcd(f, g) and suppose phi(lc_x f)
    is nonzero.  Then h | f gives lc_x f = lc_x h * lc_x(f/h), so phi
    keeps the x-degree of h, and phi(h) divides both images.  If their
    gcd is constant, deg_x h = 0, and gcd(f, g) is exactly
    gcd(content(f), content(g)).  The same holds with g in place of f.
    If both leading coefficients vanish under phi, or the modular gcd
    is not constant (a common factor or an unlucky point or prime), the
    PRS runs as before: the filter only ever proves coprimality.
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
    if _coprime_mod_p(f.node, g.node):
        return poly_gcd(content(f), content(g))
    var = f.order.name(lf)
    cf, pf = content(f), primitive_part(f)
    cg, pg = content(g), primitive_part(g)
    c = poly_gcd(cf, cg)
    if pf.degree(var) < pg.degree(var):
        pf, pg = pg, pf
    while not pg.is_zero():
        r = prem(pf, pg, var)
        pf, pg = pg, r if r.is_zero() else _primitive_of(r, var)
    return (c * pf.sign_normalized()).sign_normalized()


def _primitive_of(f: MultiPoly, var: str) -> MultiPoly:
    cont = None
    for _, coef in f.coeff_terms(var):
        cont = coef.sign_normalized() if cont is None else poly_gcd(cont, coef)
        if cont.is_constant() and cont.const_value() == 1:
            return f
    return exact_div(f, cont)


def content(f: MultiPoly) -> MultiPoly:
    """Content with respect to the main variable (gcd of the coefficients)."""
    if f.is_zero():
        raise ValueError("content of zero polynomial")
    if f.is_constant():
        return MultiPoly.const(f.order, abs(f.const_value()))
    cont = None
    for _, coef in f.coeff_terms():
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
    # Incremental refinement (Bach, Driscoll and Shallit, J. Algorithms
    # 15, 1993): basis stays pairwise coprime, and each new item p is
    # split against each element once.  All items are squarefree, so g,
    # b/g and the rest of p are pairwise coprime and b/g, like g, is
    # coprime to every other element.  The coarsest coprime refinement
    # is unique, so the sorted result does not depend on item order.
    basis: list[MultiPoly] = []
    for p in items:
        refined = []
        for b in basis:
            g = p if p.is_constant() else poly_gcd(p, b)
            if g.is_constant():
                refined.append(b)
                continue
            g = g.assoc_normalized()
            p = exact_div(p, g)
            qb = exact_div(b, g).assoc_normalized()
            refined += [g] if qb.is_constant() else [g, qb]
        if not p.is_constant():
            refined.append(p.assoc_normalized())
        basis = refined
    return sorted(basis)
