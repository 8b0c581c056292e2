"""Command-line front end.

Problem files declare a variable order and one integer polynomial per
line:

    vars: x, y          # low to high
    x^2 + y^2 - 1

`projcad compute` builds the decomposition and renders it as json,
per-cell text lines, a piecewise condition tree, or a bare cell count.
`projcad examples` runs the built-in problems and checks their cell
counts.  Exit codes: 0 success, 1 bad input, 2 a strict run hit a
not-well-oriented input, 3 an internal failure (a separability,
integrity or arithmetic error).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algnum import RationalCoordinate
from .cadcore import IntegrityError, cad_full
from .lifting import CAD, NotWellOrientedError
from .polyring import MultiPoly, VarOrder

__all__ = [
    "ParseError",
    "RunConfig",
    "examples_suite",
    "main",
    "parse_input",
    "render_output",
    "run_compute",
]


class ParseError(ValueError):
    def __init__(self, msg, line, col):
        super().__init__("line %d, column %d: %s" % (line, col, msg))
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# input grammar


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()]))")

# parentheses nested deeper than this are rejected: each level costs four
# frames of the recursive descent, which must stay well under Python's
# recursion limit
_MAX_NESTING = 100


def _tokenize(text, lineno):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        col = m.start(m.lastindex) + 1
        out.append((m.lastindex, m.group(m.lastindex), col))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError("unexpected character %r" % text[pos:].strip()[0],
                         lineno, pos + 1)
    return out


class _ExprParser:
    """Recursive descent over + - * ^ ( ) with integer literals."""

    def __init__(self, tokens, order, lineno):
        self.toks = tokens
        self.i = 0
        self.order = order
        self.lineno = lineno
        self.depth = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _fail(self, msg):
        tok = self._peek()
        col = tok[2] if tok else (self.toks[-1][2] + 1 if self.toks else 1)
        raise ParseError(msg, self.lineno, col)

    def _int(self, tok):
        try:
            return int(tok[1])
        except ValueError:
            # longer than the interpreter converts from decimal
            raise ParseError("integer literal of %d digits is too long"
                             % len(tok[1]), self.lineno, tok[2]) from None

    def _eat_op(self, ops):
        tok = self._peek()
        if tok and tok[0] == 3 and tok[1] in ops:
            self.i += 1
            return tok[1]
        return None

    def parse(self):
        e = self._expr()
        if self._peek() is not None:
            self._fail("unexpected %r" % self._peek()[1])
        return e

    def _expr(self):
        sign = -1 if self._eat_op("-") else 1
        if sign == 1:
            self._eat_op("+")
        e = self._term() * sign
        while True:
            op = self._eat_op("+-")
            if op is None:
                return e
            t = self._term()
            e = e + t if op == "+" else e - t

    def _term(self):
        e = self._factor()
        while self._eat_op("*"):
            e = e * self._factor()
        return e

    def _factor(self):
        e = self._atom()
        if self._eat_op("^"):
            tok = self._peek()
            if tok is None or tok[0] != 1:
                self._fail("exponent must be a nonnegative integer")
            self.i += 1
            e = e ** self._int(tok)
        return e

    def _atom(self):
        tok = self._peek()
        if tok is None:
            self._fail("expected a value")
        kind, text, col = tok
        if kind == 1:
            self.i += 1
            return MultiPoly.const(self.order, self._int(tok))
        if kind == 2:
            if text not in self.order.names:
                raise ParseError("undeclared variable %r" % text,
                                 self.lineno, col)
            self.i += 1
            return MultiPoly.var(self.order, text)
        if text == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d"
                                 % _MAX_NESTING, self.lineno, col)
            self.i += 1
            self.depth += 1
            e = self._expr()
            if not self._eat_op(")"):
                self._fail("expected ')'")
            self.depth -= 1
            return e
        self._fail("unexpected %r" % text)


def parse_input(text):
    """Parse a problem file into its variable order and polynomials."""
    order = None
    polys = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if order is None:
            m = re.match(r"\s*vars\s*:\s*(.*)$", line)
            if not m:
                raise ParseError("expected a 'vars:' header first",
                                 lineno, 1)
            names = [v.strip() for v in m.group(1).split(",")]
            if not all(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", v or "")
                       for v in names):
                raise ParseError("bad variable list", lineno,
                                 len(line) - len(m.group(1)) + 1)
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable", lineno, 1)
            order = VarOrder(names)
            continue
        p = _ExprParser(_tokenize(line, lineno), order, lineno).parse()
        if p.is_constant():
            raise ParseError("constant polynomial", lineno, 1)
        polys.append(p)
    if order is None:
        raise ParseError("missing 'vars:' header", 1, 1)
    if not polys:
        raise ParseError("no polynomials given", 1, 1)
    return order, sorted(set(polys))


# ---------------------------------------------------------------------------
# rendering


def _poly_str(p, strs: dict) -> str:
    """str(p), rendered once per dict: many samples share a polynomial."""
    out = strs.get(p)
    if out is None:
        out = strs[p] = str(p)
    return out


def _coord_json(coord, strs: dict) -> str:
    if isinstance(coord, RationalCoordinate):
        return json.dumps({"rational": str(coord.value)})
    return json.dumps({"rootOf": _poly_str(coord.defining, strs),
                       "interval": [str(v) for v in coord.isolated]})


def _coord_text(coord, strs: dict) -> str:
    if isinstance(coord, RationalCoordinate):
        return str(coord.value)
    return "root of %s in (%s, %s)" % (
        _poly_str(coord.defining, strs), *coord.isolated)


def _sample_strs(cell, render, pieces: dict, strs: dict) -> list:
    """render(coord, strs) for each coordinate of the cell's sample,
    rendered once per dict pieces: many cells share a coordinate.  The
    dict is keyed by id, cheap to hash where a Fraction is not, and
    lives no longer than the cells that hold the coordinates."""
    out = []
    for coord in cell.sample.coords:
        piece = pieces.get(id(coord))
        if piece is None:
            piece = pieces[id(coord)] = render(coord, strs)
        out.append(piece)
    return out


def _root_expr(ref, var: str) -> str:
    """Readable expression for the ordinal-th root of ref's polynomial,
    with radicals for low degrees and ordinal wording otherwise."""
    p = ref.poly
    d = p.degree(var)
    if d == 1:
        a = p.coefficient(var, 1)
        b = p.coefficient(var, 0)
        if a.is_constant():
            if b.is_zero():
                return "0"
            num = -b
            den = a.const_value()
            if den < 0:
                num, den = -num, -den
            if num.is_constant():
                return str(Fraction(num.const_value(), den))
            return str(num) if den == 1 else "(%s)/%d" % (num, den)
        return "root %d of %s" % (ref.ordinal, p)
    if d == 2:
        a = p.coefficient(var, 2)
        b = p.coefficient(var, 1)
        if a.is_constant() and a.const_value() > 0 and b.is_constant():
            a_v = a.const_value()
            b_v = b.const_value()
            disc = b * b - 4 * a * p.coefficient(var, 0)
            sign = -1 if ref.ordinal == 1 else 1
            if disc.is_constant():
                dv = disc.const_value()
                r = math.isqrt(dv) if dv >= 0 else -1
                if r * r == dv:
                    return str(Fraction(-b_v + sign * r, 2 * a_v))
            elif b_v == 0 and disc.int_content() % (4 * a_v * a_v) == 0:
                # roots are +-sqrt(disc)/(2a) with a > 0
                inner = disc.div_int(4 * a_v * a_v)
                return "%ssqrt(%s)" % ("-" if sign < 0 else "", inner)
    return "root %d of %s" % (ref.ordinal, p)


def _condition(roots: tuple, k: int, var: str) -> str:
    # the stack's k-th cell: an even k is the section of roots[k/2 - 1],
    # an odd k the sector between its neighbours' roots
    if k % 2 == 0:
        return "%s = %s" % (var, _root_expr(roots[k // 2 - 1], var))
    lo = _root_expr(roots[k // 2 - 1], var) if k > 1 else None
    hi = _root_expr(roots[k // 2], var) if k // 2 < len(roots) else None
    if lo is None and hi is None:
        return "%s free" % var
    if lo is None:
        return "%s < %s" % (var, hi)
    if hi is None:
        return "%s < %s" % (lo, var)
    return "%s < %s < %s" % (lo, var, hi)


def _piecewise_lines(cad: CAD, prefix: tuple, out):
    depth = len(prefix)
    var = cad.order.name(depth + 1)
    pad = "  " * depth
    stack = cad.stacks[prefix]
    for c in stack.cells:
        label = _condition(stack.roots, c.index[-1], var)
        if depth + 1 == cad.order.n:
            out.append(pad + label)
        else:
            out.append(pad + label + ":")
            _piecewise_lines(cad, c.index, out)


def render_output(cad: CAD, fmt: str) -> str:
    """Render a finished decomposition as json, text, piecewise, or
    count."""
    if fmt == "count":
        return "%d\n" % len(cad.cells)
    strs: dict = {}
    pieces: dict = {}
    if fmt == "json":
        head = json.dumps({
            "variables": list(cad.order.names),
            "method": cad.method,
            "finalOI": cad.final_oi,
            "cellCount": len(cad.cells),
            "warnings": [
                {"cell": list(idx), "polynomial": str(p)}
                for idx, p in cad.warnings
            ],
        })
        # json.dumps of {"index": ..., "dimension": ..., "sample": ...},
        # with each coordinate's object dumped once
        cells = ",\n".join(
            '{"index": [%s], "dimension": %d, "sample": [%s]}' % (
                ", ".join(map(str, c.index)), c.dimension(),
                ", ".join(_sample_strs(c, _coord_json, pieces, strs)))
            for c in cad.cells)
        return '%s, "cells": [\n%s\n]}\n' % (head[:-1], cells)
    if fmt == "text":
        lines = []
        for c in cad.cells:
            idx = ",".join(str(k) for k in c.index)
            sample = ", ".join(_sample_strs(c, _coord_text, pieces, strs))
            lines.append("%s | %d | %s" % (idx, c.dimension(), sample))
        return "\n".join(lines) + "\n"
    if fmt == "piecewise":
        out: list = []
        _piecewise_lines(cad, (), out)
        return "\n".join(out) + "\n"
    raise ValueError("unknown output format %r" % fmt)


# ---------------------------------------------------------------------------
# driving


@dataclass
class RunConfig:
    method: str = "mccallum"
    final_oi: bool = False
    strict: bool = False
    output: str = "json"
    info: int = 0


def _info_lines(cad: CAD, level: int):
    if level <= 0:
        return []
    lines = []
    P = cad.levels
    for i in range(1, P.n + 1):
        lines.append("level %d (%s): %d polynomial(s)"
                     % (i, cad.order.name(i), len(P.level(i))))
    lines.append("cells: %d" % len(cad.cells))
    if level >= 2:
        for idx, p, d in cad.delineations:
            lines.append("cell %s: delineating polynomial %s for %s"
                         % (idx, d, p))
        for idx, p in cad.warnings:
            lines.append("cell %s: %s nullified" % (idx, p))
    if level >= 3:
        for i in range(1, P.n + 1):
            for p in P.level(i):
                lines.append("  P[%d] %s" % (i, p))
    return lines


def run_compute(cfg: RunConfig, text: str):
    """Parse, decompose, render.  Returns (stdout, stderr, exit code)."""
    diag = []
    try:
        order, polys = parse_input(text)
    except ParseError as e:
        return "", "error: %s\n" % e, 1
    try:
        cad = cad_full(polys, order, cfg.method,
                       final_oi=cfg.final_oi, strict=cfg.strict)
        out = render_output(cad, cfg.output)
    except NotWellOrientedError as e:
        return "", "error: %s\n" % e, 2
    except (IntegrityError, ArithmeticError, ValueError) as e:
        # an internal failure, not bad input: one line, no traceback.  A
        # ValueError also comes from str() of an output number longer
        # than sys.get_int_max_str_digits() allows
        return "", "error: %s: %s\n" % (
            type(e).__name__, " ".join(str(e).split())), 3
    for idx, p in cad.warnings:
        diag.append("warning: %s nullified over cell %s"
                    % (p, ",".join(str(k) for k in idx)))
    diag.extend(_info_lines(cad, cfg.info))
    err = "".join(l + "\n" for l in diag)
    return out, err, 0


_EXAMPLES = {
    "circle": ("vars: x, y\nx^2 + y^2 - 1\n", RunConfig(), 13),
    "zy-x2": ("vars: x, y, z\nz*y - x^2\n", RunConfig(), 21),
    "zy-x2-oi": ("vars: x, y, z\nz*y - x^2\n",
                 RunConfig(final_oi=True), 23),
    "w-example": ("vars: x, y, z, w\nw^2 + z*y - x^2\n", RunConfig(), 73),
    "warn-4var": ("vars: x, y, z, w\ny*w + x\n",
                  RunConfig(final_oi=True), None),
}


def examples_suite(name: str = "all"):
    """Run built-in problems and compare against their known counts.
    Returns (report text, exit code)."""
    if name == "all":
        names = list(_EXAMPLES)
    elif name in _EXAMPLES:
        names = [name]
    else:
        return "unknown example %r\n" % name, 1
    lines = []
    ok = True
    for nm in names:
        text, cfg, expected = _EXAMPLES[nm]
        order, polys = parse_input(text)
        cad = cad_full(polys, order, cfg.method, final_oi=cfg.final_oi)
        if expected is None:
            # the warning problem: nullification over a 1-dimensional cell
            good = any(idx == (2, 2, 1) for idx, _ in cad.warnings)
            verdict = "warning at cell 2,2,1" if good else "no warning"
        else:
            good = len(cad.cells) == expected
            verdict = "cells=%d expected=%d" % (len(cad.cells), expected)
        ok = ok and good
        lines.append("%-10s %-28s %s" % (nm, verdict,
                                         "pass" if good else "FAIL"))
    return "\n".join(lines) + "\n", 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="projcad",
        description="cylindrical algebraic decomposition")
    sub = ap.add_subparsers(dest="command", required=True)
    c = sub.add_parser("compute", help="decompose a problem file")
    c.add_argument("--input", required=True)
    c.add_argument("--method", choices=["mccallum", "collins"],
                   default="mccallum")
    c.add_argument("--final-oi", action="store_true")
    c.add_argument("--strict", action="store_true")
    c.add_argument("--output", choices=["json", "text", "piecewise",
                                        "count"], default="json")
    c.add_argument("--info", type=int, choices=[0, 1, 2, 3], default=0)
    e = sub.add_parser("examples", help="run the built-in problems")
    e.add_argument("name", nargs="?", default="all")
    ns = ap.parse_args(argv)
    if ns.command == "examples":
        text, code = examples_suite(ns.name)
        sys.stdout.write(text)
        return code
    try:
        with open(ns.input, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    cfg = RunConfig(ns.method, ns.final_oi, ns.strict, ns.output, ns.info)
    out, err, code = run_compute(cfg, text)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
