"""Self-test of the benchmark harness.

    python3 cadbench/selftest.py

Runs from the root of a checkout and takes about half a minute:

1. every workload at its tiny size, untraced and traced, through the
   command line: the result line must name exactly the metrics that
   BENCHMARK.json lists, each with its unit, and report no failure;
2. a wrong pinned cell count must be caught: the result is not correct
   and the exit code is 1;
3. in a directory holding only BENCHMARK.json and cadbench/, the
   benchmark must exit non-zero without printing a result.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

failures: list = []


def expect(ok: bool, what: str):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def bench_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def check_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect(listed[0] == dict(run.END_TO_END),
           "BENCHMARK.json end_to_end matches the harness")
    expect(listed[1] == dict(run.PER_LAYER),
           "BENCHMARK.json per_layer matches the harness")
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", wl["name"], "--seed", "3",
                   "--seconds", "0.1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, env=bench_env(), timeout=300)
            res = last_json(proc.stdout)
            what = "%s --trace %d" % (wl["name"], trace)
            if res is None:
                expect(False, "%s printed a result (exit %d: %s)"
                       % (what, proc.returncode, proc.stderr[-500:]))
                continue
            expect(proc.returncode == 0 and res["correct"]
                   and res["failed"] == 0 and res["attempted"] >= 1,
                   "%s passed its checks" % what)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == listed[trace],
                   "%s printed every metric with its unit" % what)
            expect(all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values()),
                   "%s printed numbers" % what)


def check_wrong_pin():
    saved = workloads.EXAMPLE_GATES
    wrong = dataclasses.replace(saved[0], cells=saved[0].cells + 1)
    workloads.EXAMPLE_GATES = (wrong,) + saved[1:]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "lift", "--tiny",
                             "--seconds", "0.1"])
    finally:
        workloads.EXAMPLE_GATES = saved
    res = last_json(out.getvalue())
    expect(code == 1 and res is not None and not res["correct"]
           and res["failed"] >= 1,
           "a wrong pinned cell count fails the run (exit %s)" % code)


def check_bare_directory():
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "cadbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name),
                        os.path.join(bare, "cadbench"))
    try:
        proc = subprocess.run(
            [sys.executable, "cadbench/run.py", "--workload", "lift",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, env=bench_env(),
            timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and last_json(proc.stdout) is None,
           "without projcad's sources: exit %d and no result"
           % proc.returncode)


def main() -> int:
    check_metrics()
    check_wrong_pin()
    check_bare_directory()
    print("selftest: %s" % ("ok" if not failures else
                            "%d check(s) failed" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
