"""Span tracer that measures projcad's layers from the outside.

Every public function of the projcad modules is wrapped by rebinding
its name in every module that holds it: the defining module (so that
calls made inside that module, recursion included, are seen), each
module that brought the name in with ``from .x import name``, and
module-level tables of functions.  A call
becomes a span with its name, start, end and parent span; spans live in
flat arrays in memory and are written out when tracing stops.  Self
time is a span's duration minus the time its child spans cover.

A few functions get hooks that record what the call did: the kind of
fiber it ran over (read from its ``SamplePoint`` argument), the level
it worked on, and whether its outcome was useful (a zero sign, a
non-trivial gcd).  Everything else about a layer is derived from the
spans when tracing stops.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
import time
from array import array

# The layers, named after the modules of src/projcad.
MODULES = ("polyring", "subresultants", "projection", "algnum", "lifting",
           "cadcore", "cli")

RATIONAL = 1
ALGEBRAIC = 2
_OUTER = 4  # flag: no enclosing span has the same name

def fiber_kind(s) -> int:
    """ALGEBRAIC if some coordinate of the sample point is an irrational
    algebraic number, else RATIONAL."""
    for c in s.coords:
        if c.point_value() is None:
            return ALGEBRAIC
    return RATIONAL


def _sample_of(cell):
    return cell.sample if hasattr(cell, "sample") else cell


# -- hooks -------------------------------------------------------------------
# A "before" hook runs on the call's arguments and returns the fiber
# kind (0 when not applicable).  An "after" hook runs on the tracer, the
# span index, the result and the arguments; it may set the span's level
# and bump counters.


def _kind_s(q, s, *a, **k):
    return fiber_kind(s)


def _kind_gcd(f, g, var, s):
    return fiber_kind(s)


def _kind_stack(cell, polys):
    return fiber_kind(cell.sample)


def _after_sign_at(tr, i, result, q, s):
    if result == 0:
        tr.count("algnum.sign_at.zero")


def _after_fiber_gcd(tr, i, result, f, g, var, s):
    if result.degree(var) >= 1:
        tr.count("algnum.fiber_gcd.nontrivial")


def _after_roots(tr, i, result, polys, s):
    tr.count("algnum.roots_over_cell.roots", len(result[0]))


def _after_stack(tr, i, result, cell, polys):
    lvl = len(cell.index) + 1
    tr.level[i] = lvl
    tr.value[i] = len(result.cells)
    tr.count("lifting.L%d.roots" % lvl, (len(result.cells) - 1) // 2)


def _after_cell_level(tr, i, result, p, cell, *a, **k):
    tr.level[i] = len(_sample_of(cell)) + 1


def _after_lifting(tr, i, result, P, *a, **k):
    tr.level[i] = P.n
    tr.count("lifting.cad_lifting.cells", len(result.cells))


def _after_poly_gcd(tr, i, result, f, g):
    if not result.is_constant():
        tr.count("polyring.poly_gcd.nontrivial")


def _after_basis(tr, i, result, polys):
    if result:
        tr.level[i] = result[0].level()


def _after_operator(tr, i, result, basis, var=None):
    if var is not None and isinstance(basis, (list, tuple)) and basis:
        tr.level[i] = basis[0].order.level(var)


def _after_projection(tr, i, result, F, order, method="mccallum"):
    tr.level[i] = order.n
    for k, lvl in enumerate(result.by_level, start=1):
        tr.count("projection.cad_projection.basis_polys_L%d" % k, len(lvl))


def _after_oracle(tr, i, result, *a, **k):
    tr.count("cadcore.verify_sign_invariance.points", result.points_checked)


BEFORE = {
    "algnum.sign_at": _kind_s,
    "algnum.fiber_gcd": _kind_gcd,
    "algnum.roots_over_cell": _kind_s,
    "lifting.generate_stack": _kind_stack,
}

AFTER = {
    "algnum.sign_at": _after_sign_at,
    "algnum.fiber_gcd": _after_fiber_gcd,
    "algnum.roots_over_cell": _after_roots,
    "lifting.generate_stack": _after_stack,
    "lifting.is_nullified": _after_cell_level,
    "lifting.minimal_delineating_polynomial": _after_cell_level,
    "lifting.cad_lifting": _after_lifting,
    "polyring.poly_gcd": _after_poly_gcd,
    "polyring.finest_squarefree_basis": _after_basis,
    "projection.proj_mccallum": _after_operator,
    "projection.proj_collins": _after_operator,
    "projection.cad_projection": _after_projection,
    "cadcore.verify_sign_invariance": _after_oracle,
}


class Tracer:
    """Records spans for the projcad modules between start() and stop()."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.flags = array("b")
        self.level = array("b")
        self.value = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters: dict = {}
        self._stack: list = []
        self._depth: list = []
        self._saved: list = []
        self._paused = [False]

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block are not recorded."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, qual: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        self.name_ids[qual] = nid
        self._depth.append(0)
        before = BEFORE.get(qual)
        after = AFTER.get(qual)
        stack, depth = self._stack, self._depth
        name, parent, flags = self.name, self.parent, self.flags
        level, value = self.level, self.value
        t0, t1 = self.t0, self.t1
        clock = time.perf_counter
        tr = self
        paused = self._paused

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            kind = before(*args, **kwargs) if before is not None else 0
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            flags.append(kind | (_OUTER if depth[nid] == 0 else 0))
            level.append(0)
            value.append(0)
            t1.append(0.0)
            stack.append(i)
            depth[nid] += 1
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                depth[nid] -= 1
                stack.pop()
            if after is not None:
                after(tr, i, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def start(self):
        """Wrap every public function of the projcad modules."""
        if self._saved:
            raise RuntimeError("tracer already started")
        pkg = "projcad"
        mods = [sys.modules[pkg]] + [sys.modules["%s.%s" % (pkg, m)]
                                     for m in MODULES]
        wrapped = {}
        for m in MODULES:
            mod = sys.modules["%s.%s" % (pkg, m)]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapped[fn] = self._wrap("%s.%s" % (m, attr), fn)
        for holder in mods:
            space = vars(holder)
            # module-level tables of functions too, such as the
            # projection operators looked up by method name
            tables = [t for t in space.values() if type(t) is dict]
            for table in [space] + tables:
                for key, fn in list(table.items()):
                    if inspect.isfunction(fn) and fn in wrapped:
                        self._saved.append((table, key, fn))
                        table[key] = wrapped[fn]

    def stop(self):
        """Put the original functions back."""
        for table, key, fn in reversed(self._saved):
            table[key] = fn
        self._saved = []

    def write(self, path: str):
        """Write every span as one tab-separated line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tfiber\tlevel\n")
            kinds = ("", "rational", "algebraic", "")
            base = self.t0[0] if len(self.t0) else 0.0
            for i in range(len(self.name)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%s\t%d\n" % (
                    i, self.parent[i], self.names[self.name[i]],
                    self.t0[i] - base, self.t1[i] - base,
                    kinds[self.flags[i] & 3], self.level[i]))

    def summary(self) -> dict:
        """Per-function and per-level figures derived from the spans."""
        n = len(self.name)
        names = self.names
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls = [0] * len(names)
        incl = [0.0] * len(names)
        self_s = [0.0] * len(names)
        by_kind = [[0.0, 0.0, 0.0] for _ in names]
        kind_calls = [[0, 0, 0] for _ in names]
        levels: dict = {}
        nid = self.name_ids.get
        owner_parent = nid("lifting.generate_stack")
        lifting_parent = nid("lifting.cad_lifting")
        projection_parent = nid("projection.cad_projection")
        lifting_kids = {nid("lifting.generate_stack"),
                        nid("lifting.is_nullified"),
                        nid("lifting.minimal_delineating_polynomial")}
        projection_level: dict = {}
        owner_s = 0.0

        def bump(key, v):
            levels[key] = levels.get(key, 0) + v

        for i in range(n):
            k = self.name[i]
            f = self.flags[i]
            kind = f & 3
            calls[k] += 1
            kind_calls[k][kind] += 1
            self_s[k] += dur[i] - covered[i]
            if f & _OUTER:
                incl[k] += dur[i]
                by_kind[k][kind] += dur[i]
            p = self.parent[i]
            pk = self.name[p] if p >= 0 else -1
            if pk == owner_parent and k == nid("algnum.sign_at"):
                owner_s += dur[i]
            if pk == lifting_parent and k in lifting_kids:
                lvl = self.level[i]
                bump("lifting.L%d.s" % lvl, dur[i])
                if k == owner_parent:
                    # every cell entering a level gets one stack there;
                    # the top level's cells are the result, not an input
                    if lvl == 1:
                        bump("lifting.L1.cells_in", 1)
                    if lvl < self.level[p]:
                        bump("lifting.L%d.cells_in" % (lvl + 1),
                             self.value[i])
                    bump("lifting.L%d.stacks" % lvl, 1)
                    bump("lifting.L%d.stacks_%s" % (
                        lvl, "algebraic" if kind == ALGEBRAIC
                        else "rational"), 1)
            if pk == projection_parent:
                # the sweep runs level by level from the top: basis,
                # operator, then filing of the operator's output
                cur = projection_level.get(p, self.level[p])
                if self.level[i]:
                    cur = self.level[i]
                projection_level[p] = cur
                bump("projection.L%d.s" % cur, dur[i])

        out: dict = {}
        for k, qual in enumerate(names):
            out[qual + ".calls"] = calls[k]
            out[qual + ".s"] = incl[k]
            out[qual + ".self_s"] = self_s[k]
            out[qual + ".algebraic_calls"] = kind_calls[k][ALGEBRAIC]
            out[qual + ".rational_fiber_s"] = by_kind[k][RATIONAL]
            out[qual + ".algebraic_fiber_s"] = by_kind[k][ALGEBRAIC]
        out["lifting.owner_search_s"] = owner_s
        out.update(levels)
        out.update(self.counters)
        out["trace.spans"] = n
        return out
