"""Resultants, discriminants and principal subresultant coefficients.

All of them come from one subresultant polynomial remainder sequence
with Lazard's division-controlled updates, polyring._subresultant_prs,
built beside prem and exact_div, and poly_gcd reads its gcds off it.
The independent determinant route (Sylvester-style minors by
fraction-free Bareiss elimination) lives in the test suite as the
reference, and both must agree exactly, signs included.

Conventions.  For f of degree n and g of degree m in the variable v, the
j-th principal subresultant coefficient psc_j(f, g) is the determinant of
the (n+m-2j) square matrix whose rows are the coefficient vectors of
v^(m-j-1)*f ... f followed by v^(n-j-1)*g ... g on the monomial columns
v^(n+m-j-1) ... v^j.  psc_0 is the Sylvester resultant.  The empty matrix
(j = n = m) has determinant 1.
"""

from __future__ import annotations

from .polyring import MultiPoly, _subresultant_prs, exact_div

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
    """psc_0..psc_min(n,m), read off the subresultant PRS: psc_j is the
    coefficient of v^j in S_j, 0 where the sequence skips j."""
    n, m = _check_pair(f, g, var)
    if m == 0:
        return [g**n]
    if n == 0:
        return [f**m]
    flip = n < m
    if flip:
        f, g = g, f
    psc_top, sub = _subresultant_prs(f, g, var)
    zero = MultiPoly.zero(f.order)
    out = [sub[j].coefficient(var, j) if j in sub else zero
           for j in range(min(n, m))] + [psc_top]
    if flip:
        # psc_j(f, g) = (-1)^((n-j)(m-j)) psc_j(g, f)
        out = [-p if (n - j) * (m - j) % 2 else p for j, p in enumerate(out)]
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
