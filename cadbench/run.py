"""Benchmark for projcad: one command runs a workload and checks its output.

    python3 cadbench/run.py --workload lift|project|query|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; projcad is imported from ``src/``.
Set-up (a fresh import of projcad plus the workload's ``prepare``) is
repeated and its median reported as ``setup_s``.  Passes over the
workload's inputs then repeat until ``--seconds`` have gone by.

With ``--trace 0`` the result holds the end-to-end metrics: medians
over passes, spread (interquartile range over median) printed beside
them.  Times are in reference seconds (see ``REFERENCE_S`` in
workloads.py); the raw wall medians are printed beside them.  With
``--trace 1`` untraced passes run for half the time, then one set-up
and one pass run under the span tracer; the result holds the per-layer
metrics, and the spans go to ``cadbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
output check makes the exit code 1; a checkout without projcad's
sources gives exit code 2 and no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1  # seed 97 is held out for claims (see README.md)
SETUP_REPS = {"lift": 7, "project": 7, "query": 3}

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
)

# (name, unit): per-layer metrics, read from the traced set-up and pass.
PER_LAYER = (
    [("algnum.sign_at.%s" % s, u) for s, u in (
        ("calls", "count"), ("algebraic_calls", "count"),
        ("self_s", "s"), ("zero_ratio", "ratio"))]
    + [("algnum.fiber_gcd.%s" % s, u) for s, u in (
        ("calls", "count"), ("self_s", "s"), ("nontrivial_ratio", "ratio"))]
    + [("algnum.fiber_reduce.self_s", "s")]
    + [("algnum.roots_over_cell.%s" % s, u) for s, u in (
        ("calls", "count"), ("roots", "count"), ("self_s", "s"),
        ("rational_fiber_s", "s"), ("algebraic_fiber_s", "s"))]
    + [("lifting.generate_stack.%s" % s, u) for s, u in (
        ("calls", "count"), ("rational_fiber_s", "s"),
        ("algebraic_fiber_s", "s"))]
    + [("lifting.make_separable_over_cell.s", "s"),
       ("lifting.owner_search_s", "s"),
       ("lifting.is_nullified.s", "s"),
       ("lifting.minimal_delineating_polynomial.calls", "count"),
       ("lifting.cad_lifting.cells", "count")]
    + [("lifting.L%d.%s" % (lvl, s), u) for lvl in (1, 2, 3, 4)
       for s, u in (("cells_in", "count"), ("stacks", "count"),
                    ("stacks_algebraic", "count"),
                    ("stacks_rational", "count"), ("roots", "count"),
                    ("s", "s"))]
    + [("cadcore.locate_point.calls", "count"),
       ("cadcore.locate_point.self_s", "s"),
       ("cadcore.verify_sign_invariance.self_s", "s"),
       ("cadcore.verify_sign_invariance.points", "count"),
       ("cadcore.verify_sign_invariance.ms_per_point", "ms")]
    + [("polyring.finest_squarefree_basis.s", "s")]
    + [("polyring.poly_gcd.%s" % s, u) for s, u in (
        ("calls", "count"), ("self_s", "s"), ("nontrivial_ratio", "ratio"))]
    + [("polyring.prem.calls", "count"), ("polyring.prem.self_s", "s")]
    + [("subresultants.%s.%s" % (f, s), u)
       for f in ("psc_chain", "psd_chain", "resultant", "discriminant")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("projection.proj_mccallum.self_s", "s"),
       ("projection.proj_collins.self_s", "s"),
       ("projection.cad_projection.s", "s")]
    + [("projection.cad_projection.basis_polys_L%d" % lvl, "count")
       for lvl in (1, 2, 3)]
    + [("projection.L%d.s" % lvl, "s") for lvl in (1, 2, 3, 4)]
    + [("cli.parse_input.s", "s"), ("cli.render_output.s", "s")]
    + [("trace.run_s_untraced", "s"), ("trace.run_s_traced", "s"),
       ("trace.overhead_s", "s"), ("trace.spans", "count")]
)

# ratio -> (numerator counter, base)
RATIOS = {
    "algnum.sign_at.zero_ratio":
        ("algnum.sign_at.zero", "algnum.sign_at.calls"),
    "algnum.fiber_gcd.nontrivial_ratio":
        ("algnum.fiber_gcd.nontrivial", "algnum.fiber_gcd.calls"),
    "polyring.poly_gcd.nontrivial_ratio":
        ("polyring.poly_gcd.nontrivial", "polyring.poly_gcd.calls"),
}


class SourcesMissing(RuntimeError):
    pass


def import_projcad():
    """Import projcad afresh from the checkout's src/ directory."""
    init = os.path.join(SRC, "projcad", "__init__.py")
    if not os.path.isfile(init):
        raise SourcesMissing("no projcad sources at %s" % init)
    for name in [m for m in sys.modules
                 if m == "projcad" or m.startswith("projcad.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    pkg = importlib.import_module("projcad")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != \
            os.path.join(SRC, "projcad"):
        raise SourcesMissing("projcad was imported from %s, not %s"
                             % (pkg.__file__, SRC))
    return SimpleNamespace(projcad=pkg,
                           cli=importlib.import_module("projcad.cli"))


def quartile_spread(values) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Outcome:
    """Checks and pass results collected over one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.passes: list = []

    def add(self, res):
        self.attempted += res.attempted
        self.failed += res.failed
        self.errors.extend(res.errors)


def _set_up(wl):
    api = import_projcad()
    wl.prepare(api)
    return api


def timed_setup(wl, reps: int):
    """Set the workload up reps times; returns the API and the wall-clock
    interval of each set-up."""
    spans = []
    api = None
    for _ in range(reps):
        gc.collect()
        api, t0, t1 = wl.speed.call(_set_up, wl)
        spans.append((t0, t1))
    return api, spans


def run_passes(wl, seconds: float, outcome: Outcome):
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        res = wl.run_pass()
        outcome.add(res)
        outcome.passes.append(res)
        if time.perf_counter() >= deadline:
            return


def end_to_end(wl, setup_spans, outcome: Outcome, lines: list) -> dict:
    setup_times = [wl.speed.reference(t0, t1) for t0, t1 in setup_spans]
    runs = [p.seconds() for p in outcome.passes]
    # latency of an operation: its median over passes, then percentiles
    # over the distinct operations
    per_op: dict = {}
    for p in outcome.passes:
        for key, sec in p.op_seconds().items():
            per_op.setdefault(key, []).append(1e3 * sec)
    # no samples when every operation failed; the run is then not correct
    ops = [statistics.median(v) for v in per_op.values()] or [0.0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # value, spread over the samples (None: not a median), sample count
    values = {
        "run_s": (statistics.median(runs), quartile_spread(runs), len(runs)),
        "setup_s": (statistics.median(setup_times),
                    quartile_spread(setup_times), len(setup_times)),
        "peak_rss_mb": (rss_mb, None, 1),
        "op_ms_p50": (statistics.median(ops), None, len(ops)),
        "op_ms_p95": (percentile(ops, 95), None, len(ops)),
    }
    metrics = {}
    for name, unit in END_TO_END:
        v, spread, n = values[name]
        metrics[name] = {"value": v, "unit": unit}
        beside = "" if spread is None else "  spread %.1f%%" % (100 * spread)
        lines.append("  %-22s %12.4f %-5s n=%d%s"
                     % (name, v, unit, n, beside))
    lines.append("  %-22s %12.4f s     n=%d  (times above are in "
                 "reference seconds)" % ("wall run_s", statistics.median(
                     p.wall_seconds() for p in outcome.passes), len(runs)))
    lines.append("  %-22s %12.4f s     n=%d" % (
        "wall setup_s", statistics.median(t1 - t0 for t0, t1 in setup_spans),
        len(setup_spans)))
    oracle = [1e3 * p.reference("verify_sign_invariance")
              / p.notes["oracle_points"]
              for p in outcome.passes if "oracle_points" in p.notes]
    if oracle:
        lines.append("  %-22s %12.4f ms    n=%d  spread %.1f%%"
                     % ("oracle_ms_per_point", statistics.median(oracle),
                        len(oracle), 100 * quartile_spread(oracle)))
    notes = outcome.passes[-1].notes
    for key in sorted(notes):
        if key != "oracle_points":
            lines.append("  %-22s %s" % (key, notes[key]))
    lines.append("  %-22s %12.4f ratio (%d failed of %d checks)"
                 % ("fail_ratio", outcome.failed / max(outcome.attempted, 1),
                    outcome.failed, outcome.attempted))
    return metrics


def per_layer(wl, api, outcome: Outcome, seconds: float, lines: list):
    run_passes(wl, seconds / 2, outcome)
    untraced = statistics.median(p.seconds() for p in outcome.passes)
    tr = tracer.Tracer()
    gc.collect()
    wl.quiet = tr.paused
    tr.start()
    try:
        wl.prepare(api)
        res = wl.run_pass()
    finally:
        tr.stop()
        del wl.quiet
    outcome.add(res)
    stats = tr.summary()
    stats["trace.run_s_untraced"] = untraced
    stats["trace.run_s_traced"] = res.seconds()
    stats["trace.overhead_s"] = stats["trace.run_s_traced"] - untraced
    for ratio, (num, base) in RATIOS.items():
        stats[ratio] = stats.get(num, 0) / stats[base] \
            if stats.get(base) else 0.0
    points = stats.get("cadcore.verify_sign_invariance.points", 0)
    stats["cadcore.verify_sign_invariance.ms_per_point"] = \
        1e3 * stats.get("cadcore.verify_sign_invariance.s", 0.0) / points \
        if points else 0.0
    path = os.path.join(OUT, "spans-%s.tsv" % wl.name)
    tr.write(path)
    metrics = {}
    for name, unit in PER_LAYER:
        v = stats.get(name, 0)
        metrics[name] = {"value": v, "unit": unit}
        base = RATIOS.get(name, (None, None))[1]
        beside = "" if base is None else "  of %d calls" % stats.get(base, 0)
        lines.append("  %-46s %14.6g %-5s%s" % (name, v, unit, beside))
    lines.append("  spans written to %s" % os.path.relpath(path, ROOT))
    return metrics


def run_workload(wl, seconds: float, trace: bool, tiny: bool = False):
    """Set up, measure and check one workload.  Returns (result, lines)."""
    lines = ["workload %s  seed %d  %s" % (
        wl.name, wl.seed, "traced" if trace else "untraced")]
    outcome = Outcome()
    reps = 1 if tiny else SETUP_REPS[wl.name]
    api, setup_spans = timed_setup(wl, reps)
    if trace:
        metrics = per_layer(wl, api, outcome, seconds, lines)
    else:
        run_passes(wl, seconds, outcome)
        metrics = end_to_end(wl, setup_spans, outcome, lines)
    for err in outcome.errors[:20]:
        lines.append("  CHECK FAILED: %s" % err)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs and one set-up (self-test)")
    ns = ap.parse_args(argv)
    if ns.seconds <= 0:
        ap.error("--seconds must be positive")
    names = sorted(WORKLOADS) if ns.workload == "all" else [ns.workload]
    results = {}
    try:
        for name in names:
            wl = WORKLOADS[name](ns.seed, tiny=ns.tiny)
            result, lines = run_workload(wl, ns.seconds, bool(ns.trace),
                                         ns.tiny)
            print("\n".join(lines), flush=True)
            results[name] = result
    except SourcesMissing as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
