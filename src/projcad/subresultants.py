"""Resultants, discriminants and principal subresultant coefficients.

All of them come from a subresultant polynomial remainder sequence with
Lazard's division-controlled updates.  The independent determinant route
(Sylvester-style minors by fraction-free Bareiss elimination) lives in
the test suite as the reference, and both must agree exactly, signs
included.

Conventions.  For f of degree n and g of degree m in the variable v, the
j-th principal subresultant coefficient psc_j(f, g) is the determinant of
the (n+m-2j) square matrix whose rows are the coefficient vectors of
v^(m-j-1)*f ... f followed by v^(n-j-1)*g ... g on the monomial columns
v^(n+m-j-1) ... v^j.  psc_0 is the Sylvester resultant.  The empty matrix
(j = n = m) has determinant 1.
"""

from __future__ import annotations

from .polyring import MultiPoly, exact_div, prem

__all__ = [
    "discriminant",
    "psc_chain",
    "psd_chain",
    "resultant",
]


def _check_pair(f: MultiPoly, g: MultiPoly, var: str) -> tuple[int, int]:
    if f.order != g.order:
        raise ValueError("mixed variable orders")
    if f.is_zero() or g.is_zero():
        raise ValueError("subresultants need nonzero polynomials")
    n, m = f.degree(var), g.degree(var)
    if n == 0 and m == 0:
        raise ValueError(f"both inputs have degree 0 in {var}")
    return n, m


def psc_chain(f: MultiPoly, g: MultiPoly, var: str) -> list[MultiPoly]:
    """psc_0..psc_min(n,m) via the subresultant PRS."""
    n, m = _check_pair(f, g, var)
    if m == 0:
        return [g**n]
    if n == 0:
        return [f**m]
    if n < m:
        rev = _psc_chain_desc(g, f, var)
        return [
            p if ((n - j) * (m - j)) % 2 == 0 else -p
            for j, p in enumerate(rev)
        ]
    return _psc_chain_desc(f, g, var)


def _psc_chain_desc(f: MultiPoly, g: MultiPoly, var: str) -> list[MultiPoly]:
    """Chain for deg f >= deg g >= 1 in var."""
    order = f.order
    n, m = f.degree(var), g.degree(var)
    one = MultiPoly.one(order)
    zero = MultiPoly.zero(order)
    sub: dict[int, MultiPoly] = {}

    # psc_m: lc(g)^(n-m) for n > m, empty determinant 1 for n == m
    psc_top = g.lc(var) ** (n - m) if n > m else one

    r = prem(f, g, var)
    if (n - m + 1) % 2 == 0:
        b = r
    else:
        b = -r
    a = g
    s = psc_top
    while not b.is_zero():
        d, e = a.degree(var), b.degree(var)
        sub[d - 1] = b
        delta = d - e
        if delta > 1:
            c = exact_div(b * b.lc(var) ** (delta - 1), s ** (delta - 1))
            sub[e] = c
        else:
            c = b
        if e == 0:
            break
        nxt = exact_div(prem(a, -b, var), s**delta * a.lc(var))
        a, b, s = c, nxt, c.lc(var)

    out: list[MultiPoly] = []
    for j in range(m):
        sj = sub.get(j)
        if sj is None or sj.degree(var) < j:
            out.append(zero)
        else:
            out.append(sj.coefficient(var, j))
    out.append(psc_top)
    return out


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Resultant via the subresultant PRS."""
    return psc_chain(f, g, var)[0]


def discriminant(f: MultiPoly, var: str) -> MultiPoly:
    """Discriminant in `var`: (-1)^(d(d-1)/2) res(f, df/dv) / lc(f)."""
    d = f.degree(var)
    if d < 2:
        raise ValueError(f"discriminant undefined for degree {d} in {var}")
    res = resultant(f, f.derivative(var), var)
    q = exact_div(res, f.lc(var))
    return -q if (d * (d - 1) // 2) % 2 else q


def psd_chain(f: MultiPoly, var: str) -> list[MultiPoly]:
    """Principal subresultant coefficients of (f, df/dv), j = 0..deg-1."""
    d = f.degree(var)
    if d < 1:
        raise ValueError(f"psd needs positive degree in {var}")
    return psc_chain(f, f.derivative(var), var)
