import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcad import algnum, cli
from projcad.algnum import RationalCoordinate, SeparabilityError, sign_at
from projcad.cadcore import (IntegrityError, cad_full, locate_point,
                             verify_sign_invariance)
from projcad.cli import (_EXAMPLES, ParseError, RunConfig, examples_suite,
                         main, parse_input, render_output, run_compute)
from projcad.polyring import MultiPoly, VarOrder

from helpers import (force_exact_fiber_decisions, force_gcd_first_signs,
                     private_copies, random_poly)

CIRCLE = "vars: x, y\nx^2 + y^2 - 1\n"
SADDLE = "vars: x, y, z\nz*y - x^2\n"
WARN4 = "vars: x, y, z, w\ny*w + x\n"


def test_parse_input_circle():
    order, polys = parse_input(CIRCLE)
    assert order.names == ("x", "y")
    assert len(polys) == 1
    assert str(polys[0]) == "y^2 + x^2 - 1"


def test_parse_input_comments_and_blanks():
    text = "# heading\n\n  vars: x, y  # order\n\nx - 1  # a line\ny\n"
    order, polys = parse_input(text)
    assert order.names == ("x", "y")
    assert sorted(str(p) for p in polys) == ["x - 1", "y"]


def test_parse_input_dedups():
    _, polys = parse_input("vars: x\nx - 1\nx - 1\n")
    assert len(polys) == 1


def test_parse_input_grammar_features():
    _, polys = parse_input("vars: x, y\n-(x + 1)*(x - 1) + y^2\n")
    assert str(polys[0]) == "y^2 - x^2 + 1"


def test_parse_input_reparses_rendered_strings():
    # renderer output (json rootOf, diagnostics) uses the same grammar
    _, polys = parse_input(SADDLE)
    _, again = parse_input("vars: x, y, z\n" + str(polys[0]) + "\n")
    assert again == polys


@pytest.mark.parametrize("text,line,col,needle", [
    ("x^2 - 1\n", 1, 1, "vars"),
    ("vars: x, y\nx^2 + z\n", 2, 7, "undeclared variable 'z'"),
    ("vars: x, y\nx^-1\n", 2, 3, "exponent"),
    ("vars: x, y\nx^2 + 1.5\n", 2, 8, "unexpected character"),
    ("vars: x, y\n", 1, 1, "no polynomials"),
    ("vars: x, x\nx\n", 1, 1, "duplicate"),
    ("vars: x, y\n7\n", 2, 1, "constant"),
    ("vars: x, y\nx + (y\n", 2, 7, "expected ')'"),
    ("vars: x, y\nx y\n", 2, 3, "unexpected"),
    # past the interpreter's limit on decimal integer conversion
    pytest.param("vars: x\n" + "9" * 5000 + "*x\n", 2, 1, "too long",
                 id="long-literal"),
    pytest.param("vars: x\nx^" + "9" * 5000 + "\n", 2, 3, "too long",
                 id="long-exponent"),
    # the 101st parenthesis is past the nesting bound, 100
    pytest.param("vars: x\n" + "(" * 3000 + "x" + ")" * 3000 + "\n",
                 2, 101, "nested deeper", id="deep-nesting"),
])
def test_parse_errors(text, line, col, needle):
    with pytest.raises(ParseError) as ei:
        parse_input(text)
    assert ei.value.line == line
    assert ei.value.col == col
    assert needle in str(ei.value)


def test_parse_nesting_up_to_the_bound():
    depth = cli._MAX_NESTING
    _, polys = parse_input("vars: x\n" + "(" * depth + "x - 1"
                           + ")" * depth + "^2\n")
    assert str(polys[0]) == "x^2 - 2*x + 1"


def test_main_rejects_oversized_input(tmp_path, capsys):
    # one error line and exit 1, no traceback; a product of 1000
    # variables recurses past the interpreter's limit as it is built
    names = ["v%d" % i for i in range(1000)]
    for text in ("vars: x\n" + "9" * 5000 + "*x\n",
                 "vars: x\n" + "(" * 3000 + "x" + ")" * 3000 + "\n",
                 "vars: %s\n%s + 1\n" % (", ".join(names), "*".join(names))):
        prob = tmp_path / "big.prob"
        prob.write_text(text)
        assert main(["compute", "--input", str(prob)]) == 1
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith("error: line 2, column ")
        assert cap.err.count("\n") == 1


def test_main_rejects_non_utf8_input(tmp_path, capsys):
    # a byte that is not UTF-8 ends in one error line and exit 1
    prob = tmp_path / "latin.prob"
    prob.write_bytes(b"vars: x\nx^2 - 2 \xff\n")
    assert main(["compute", "--input", str(prob)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ")
    assert cap.err.count("\n") == 1 and "Traceback" not in cap.err


def test_main_reads_input_with_byte_order_mark(tmp_path, capsys):
    # a UTF-8 byte-order mark before the header prints the same bytes
    outs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        prob = tmp_path / "circle.prob"
        prob.write_bytes(mark + CIRCLE.encode())
        assert main(["compute", "--input", str(prob)]) == 0
        cap = capsys.readouterr()
        assert cap.err == ""
        outs.append(cap.out)
    assert outs[0] == outs[1] and outs[0]


def _parsed_or_rejected(text):
    try:
        order, polys = parse_input(text)
    except ParseError as e:
        assert e.line >= 1 and e.col >= 1
        return
    assert polys and not any(p.is_constant() for p in polys)
    assert all(set(p.variables()) <= set(order.names) for p in polys)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_parse_input_fuzz_arbitrary_text(text):
    _parsed_or_rejected(text)
    _parsed_or_rejected("vars: x, y\n" + text)


# small exponents only: a nested power of a sum grows its degree
# geometrically, which is a question of budgets, not of parsing
_GRAMMAR_TOKENS = ["vars", ":", ",", "x", "y", "z", "vars: x, y", "+", "-",
                   "*", "^", "(", ")", "0", "1", "2", "3", "10", " ", "\n",
                   "#", "\t"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_GRAMMAR_TOKENS), max_size=30))
def test_parse_input_fuzz_grammar_tokens(tokens):
    _parsed_or_rejected("".join(tokens))
    _parsed_or_rejected("vars: x, y\n" + "".join(tokens))


def test_count_output():
    out, err, code = run_compute(RunConfig(output="count"), CIRCLE)
    assert (out, err, code) == ("13\n", "", 0)


@pytest.mark.parametrize("nines", [160, 400])
def test_count_long_coefficients(nines):
    # the roots +-sqrt(2)/(10^nines - 1) lie closer together than a
    # fixed bisection budget can separate
    text = "vars: x\n(" + "9" * nines + "*x)^2 - 2\n"
    out, err, code = run_compute(RunConfig(output="count"), text)
    assert (out, err, code) == ("5\n", "", 0)


def test_count_roots_closer_than_the_recursion_limit():
    # the roots 1 + 2^-990 and 1 + 2^-989 are isolated some 990
    # bisection levels below the root bound
    text = "vars: x\n(2^990*x - 2^990 - 1)*(2^990*x - 2^990 - 2)\n"
    assert run_compute(RunConfig(output="count"), text) == ("5\n", "", 0)


def test_count_final_oi():
    out, _, code = run_compute(RunConfig(final_oi=True, output="count"),
                               SADDLE)
    assert (out, code) == ("23\n", 0)


def test_piecewise_circle_frozen():
    out, _, code = run_compute(RunConfig(output="piecewise"), CIRCLE)
    assert code == 0
    assert out == """\
x < -1:
  y free
x = -1:
  y < 0
  y = 0
  0 < y
-1 < x < 1:
  y < -sqrt(-x^2 + 1)
  y = -sqrt(-x^2 + 1)
  -sqrt(-x^2 + 1) < y < sqrt(-x^2 + 1)
  y = sqrt(-x^2 + 1)
  sqrt(-x^2 + 1) < y
x = 1:
  y < 0
  y = 0
  0 < y
1 < x:
  y free
"""


def test_piecewise_radical_over_a_long_content():
    # the discriminant's content is 4*(2^61 - 1), with 2^61 - 1 prime:
    # trial division for its largest square factor would take about
    # 10^9 steps
    out, _, code = run_compute(RunConfig(output="piecewise"),
                               "vars: y, x\nx^2 - 2305843009213693951*y\n")
    assert code == 0
    lines = out.splitlines()
    assert "  x = -sqrt(2305843009213693951*y)" in lines
    assert "  x = sqrt(2305843009213693951*y)" in lines


def test_text_output():
    out, _, _ = run_compute(RunConfig(output="text"), CIRCLE)
    lines = out.splitlines()
    assert len(lines) == 13
    assert lines[0] == "1,1 | 2 | -2, 0"
    assert lines[6] == "3,3 | 2 | 0, 0"
    assert lines[-1] == "5,1 | 2 | 2, 0"


def test_json_schema_and_stability():
    out, err, code = run_compute(RunConfig(), CIRCLE)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["variables", "method", "finalOI", "cellCount",
                         "warnings", "cells"]
    assert doc["variables"] == ["x", "y"]
    assert doc["method"] == "mccallum"
    assert doc["finalOI"] is False
    assert doc["warnings"] == []
    assert doc["cellCount"] == 13 == len(doc["cells"])
    for cell in doc["cells"]:
        assert set(cell) == {"index", "dimension", "sample"}
        assert len(cell["sample"]) == 2
        for coord in cell["sample"]:
            assert set(coord) in ({"rational"}, {"rootOf", "interval"})
    # one cell per line; re-serialization and a fresh run are both
    # bit-exact
    cells = doc.pop("cells")
    assert out.splitlines() == [json.dumps(doc)[:-1] + ', "cells": [',
                                *(json.dumps(c) + "," for c in cells[:-1]),
                                json.dumps(cells[-1]), "]}"]
    assert run_compute(RunConfig(), CIRCLE)[0] == out


def test_json_algebraic_sample():
    out, _, _ = run_compute(RunConfig(), "vars: x, y\ny^2 - 2\n")
    doc = json.loads(out)
    coord = doc["cells"][1]["sample"][1]
    assert coord["rootOf"] == "y^2 - 2"
    # the isolating interval: the root bound 4 split at 0
    assert coord["interval"] == ["-4", "0"]


def test_count_matches_json_cell_array():
    for text in (CIRCLE, SADDLE):
        n = int(run_compute(RunConfig(output="count"), text)[0])
        doc = json.loads(run_compute(RunConfig(), text)[0])
        assert n == doc["cellCount"] == len(doc["cells"])


def test_run_compute_parse_failure():
    out, err, code = run_compute(RunConfig(), "vars: x, y\nx + z\n")
    assert code == 1
    assert out == ""
    assert "undeclared variable" in err


def test_run_compute_strict_abort():
    out, err, code = run_compute(
        RunConfig(final_oi=True, strict=True), WARN4)
    assert code == 2
    assert out == ""
    assert "not well-oriented" in err


def test_run_compute_warning_on_diagnostic_stream():
    out, err, code = run_compute(
        RunConfig(final_oi=True, output="count"), WARN4)
    assert code == 0
    assert out == "21\n"
    assert "warning:" in err and "2,2,1" in err and "w*y + x" in err


def test_info_levels():
    quiet = run_compute(RunConfig(output="count"), SADDLE)[1]
    assert quiet == ""
    lvl1 = run_compute(RunConfig(output="count", info=1), SADDLE)[1]
    assert "level 1 (x):" in lvl1 and "cells: 21" in lvl1
    lvl2 = run_compute(
        RunConfig(final_oi=True, output="count", info=2), SADDLE)[1]
    assert "delineating polynomial z" in lvl2
    lvl3 = run_compute(RunConfig(output="count", info=3), SADDLE)[1]
    assert "P[3] z*y - x^2" in lvl3


def test_examples_suite_all():
    text, code = examples_suite("all")
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 5
    assert all(line.endswith("pass") for line in lines)
    assert "cells=13" in lines[0]
    assert "cells=73" in lines[3]
    assert "warning at cell 2,2,1" in lines[4]


def test_examples_suite_single_and_unknown():
    text, code = examples_suite("zy-x2-oi")
    assert code == 0 and "cells=23" in text
    text, code = examples_suite("nope")
    assert code == 1 and "unknown example" in text


def test_main_compute(tmp_path, capsys):
    prob = tmp_path / "circle.prob"
    prob.write_text(CIRCLE)
    code = main(["compute", "--input", str(prob), "--output", "count"])
    assert code == 0
    assert capsys.readouterr().out == "13\n"


def test_main_strict_exit(tmp_path, capsys):
    prob = tmp_path / "warn.prob"
    prob.write_text(WARN4)
    code = main(["compute", "--input", str(prob), "--final-oi",
                 "--strict", "--output", "count"])
    assert code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert "not well-oriented" in cap.err


def test_main_missing_file(capsys):
    code = main(["compute", "--input", "/nonexistent.prob"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_main_collins_method(tmp_path, capsys):
    prob = tmp_path / "circle.prob"
    prob.write_text(CIRCLE)
    code = main(["compute", "--input", str(prob), "--method", "collins",
                 "--output", "count"])
    assert code == 0
    assert capsys.readouterr().out == "13\n"


def test_console_script():
    # run the entry point pyproject.toml declares, without a PATH install
    root = Path(__file__).resolve().parents[1]
    text = (root / "pyproject.toml").read_text()
    m = re.search(r'^projcad\s*=\s*"([\w.]+):(\w+)"\s*$', text, re.M)
    assert m, "pyproject.toml declares no projcad console script"
    module, func = m.groups()
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    r = subprocess.run([sys.executable, "-c", code, "examples", "circle"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert "pass" in r.stdout


def test_module_invocation(tmp_path):
    prob = tmp_path / "circle.prob"
    prob.write_text(CIRCLE)
    r = subprocess.run(
        [sys.executable, "-m", "projcad.cli", "compute", "--input",
         str(prob), "--output", "count"],
        capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout == "13\n"


def test_collins_four_variable_regression():
    # value cross-checked against the sign-invariance oracle when pinned;
    # differs from mccallum's 73 because collins never inserts a
    # delineating polynomial over the nullified origin fiber
    out, _, code = run_compute(
        RunConfig(method="collins", output="count"),
        "vars: x, y, z, w\nw^2 + z*y - x^2\n")
    assert (out, code) == ("67\n", 0)


def test_json_matches_cad_bit_exact():
    order, polys = parse_input(CIRCLE)
    cad = cad_full(polys, order)
    doc = json.loads(run_compute(RunConfig(), CIRCLE)[0])
    assert len(doc["cells"]) == len(cad.cells)
    for got, cell in zip(doc["cells"], cad.cells):
        assert tuple(got["index"]) == cell.index
        assert got["dimension"] == cell.dimension()
        for coord_doc, coord in zip(got["sample"], cell.sample.coords):
            if isinstance(coord, RationalCoordinate):
                assert coord_doc == {"rational": str(coord.value)}
            else:
                assert coord_doc["rootOf"] == str(coord.defining)
                assert [Fraction(v) for v in coord_doc["interval"]] \
                    == list(coord.isolated)


# sha256 of the JSON output: sections, isolating intervals and sample
# points must not move when the arithmetic behind them is reworked
GOLDEN_JSON = {
    "circle":
        "f80c8c80ba0d63b21339e14f4aff341f0f234078d0e47524f1d2f03ce93d9935",
    "zy-x2":
        "70ef23075ae2010eaaceb3562f6be39cfe2d257884b02e65767b26256c51b879",
    "zy-x2-oi":
        "c16b451b8312020aceb21d971b5f276c3f73693362c870f11b49a755c6a1ff3b",
    "w-example":
        "6c9c9c9d6633f2414a769b0af97eec1c3c830847ff8f5556dddead09921047ec",
    "warn-4var":
        "0a902c0d3788118dec5296bab0f197fe0d52f7c361d5ec90070e8ea4710c5b1f",
    "sphere-plane":
        "c02ebba8acf0ec07f964566553eb5cb6db34c7165e8db5318448966aa3879220",
    "sphere-saddle":
        "3b32b29ac2ce31784e4ddda62f5862b55f53eb10e588f6017c1a94742ad02d23",
}

# problems beyond the built-in examples: (text, cell count)
GOLDEN_EXTRA = {
    "sphere-plane": ("vars: x, y, z\nx^2 + y^2 + z^2 - 1\nx + y + z\n", 351),
    # 76 of its 139 stacks sit over algebraic fibers
    "sphere-saddle": ("vars: x, y, z\nx^2 + y^2 + z^2 - 4\nx*y + z^2 - 1\n",
                      575),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_json_golden_digest(name):
    if name in GOLDEN_EXTRA:
        (text, cells), cfg = GOLDEN_EXTRA[name], RunConfig()
    else:
        text, cfg, cells = _EXAMPLES[name]
    out, _, code = run_compute(cfg, text)
    assert code == 0
    if cells is not None:
        assert len(json.loads(out)["cells"]) == cells
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_JSON[name]


# sha256 of the piecewise and the text output of the same problems: the
# piecewise labels read the stack tree's root references, the text lines
# the cells' indices and sample points
GOLDEN_PIECEWISE_TEXT = {
    "circle": (
        "82b94987ff43c2442317305ec25675a52930e7cc43e33cb4d215fd48754b7a46",
        "874e4bd774f1ebc0700c13d4ecaf0f4e4cb437f58a9efa78973950e5e8d64f58"),
    "zy-x2": (
        "d5448037e2420eed6c9dcc72446b578d96d12406e95bc4e3da4b03af358f08e2",
        "dc40426377196962e93d01d9463ef121f5a97ee824d481c7b584245ff222ba26"),
    "zy-x2-oi": (
        "1e9540f999aec9697354da93bf7de686ee44e99e6dd6d81415c91eaa8969d300",
        "4b151ade87c85037eac37f80436f6637fb403d9c6826ed1b323b92f448dd95f1"),
    "w-example": (
        "2eabc71bfdd3db4b98b67983e46c3499c335fc7494a905725066dc1793350aa7",
        "2653ad131ac8c60dbdd73efadd72b30b6baeee3824fd4e9ec57e212a9afec286"),
    "warn-4var": (
        "7ccaac7ab36c452d980ad9742bffd77f99fd8fcc551769b6ad3c583c12050e74",
        "be63448292cff135691fe34ecb51f24de2f5fb570a4d78676172169f8519cccc"),
    "sphere-plane": (
        "794dc31bb8667fd0a8714d6e7d0af9e82806ad5a47338fe41a555f7065f1d1aa",
        "e11504774f3ba78d07f3256ea5a8000df5990185fb65309ffb3a156bbeca15b9"),
    "sphere-saddle": (
        "0971fce37a1e2270f03da698ffe0acacf023ecd8e1068dd68e1369970e2ba378",
        "16999c073f7b67c4274706d953c1d977fe0763ba76233037298dd587180a9133"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_piecewise_and_text_golden_digest(name):
    if name in GOLDEN_EXTRA:
        text, cfg = GOLDEN_EXTRA[name][0], RunConfig()
    else:
        text, cfg, _ = _EXAMPLES[name]
    got = []
    for fmt in ("piecewise", "text"):
        out, err, code = run_compute(replace(cfg, output=fmt), text)
        assert code == 0
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(got) == GOLDEN_PIECEWISE_TEXT[name]


@pytest.mark.parametrize("exc", [
    SeparabilityError("separability violated"),
    IntegrityError("stack over (1,) has 2 sections\nbut 1 roots"),
    ArithmeticError("exact zero reached in nonzero sign path"),
    RecursionError("maximum recursion depth exceeded"),
])
def test_internal_failure_exit_code(monkeypatch, exc):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "cad_full", failing)
    out, err, code = run_compute(RunConfig(), CIRCLE)
    assert code == 3
    assert out == ""
    assert err.startswith("error: %s: " % type(exc).__name__)
    assert err.endswith("\n") and err.count("\n") == 1
    assert " ".join(str(exc).split()) in err


def _random_problem(seed):
    rng = random.Random(seed)
    order = VarOrder(["x", "y", "z"])
    polys = []
    for _ in range(rng.randint(1, 2)):
        p = random_poly(rng, order, max_deg=2, max_coeff=3, n_terms=4)
        while p.is_constant() or p.level() != 3:
            p = random_poly(rng, order, max_deg=2, max_coeff=3, n_terms=4)
        polys.append(str(p))
    return "vars: x, y, z\n" + "\n".join(polys) + "\n"


@pytest.mark.parametrize("seed, cells", [(5, 77), (48, 391), (79, 33),
                                         (113, 31)])
def test_final_oi_over_rational_points(seed, cells):
    # each final lift meets a polynomial nullified at a point with
    # rational coordinates, where a surviving partial derivative is a
    # nonzero constant once they are substituted
    text = _random_problem(seed)
    cfg = RunConfig(final_oi=True, output="count")
    assert run_compute(cfg, text) == ("%d\n" % cells, "", 0)
    order, polys = parse_input(text)
    cad = cad_full(polys, order, final_oi=True)
    assert verify_sign_invariance(cad, polys, samples_per_cell=1)


def test_collins_pairs_reducta_of_distinct_elements_only():
    # with the psc chains of two reducta of one element, which no
    # theorem asks for, this CAD has 347 cells
    order, polys = parse_input(_random_problem(45))
    cad = cad_full(polys, order, "collins")
    assert len(cad.cells) == 247
    assert verify_sign_invariance(cad, polys, samples_per_cell=1)


def test_delineating_polynomial_is_primitive_in_its_main_variable():
    # over the points (4,2) and (4,6), where y is algebraic, the gcd of
    # the surviving partials is z*y^2; its primitive part in z is z, whose
    # root 0 is rational, and not z*y^2 isolated over the algebraic fiber
    text = _random_problem(95)
    out, err, code = run_compute(RunConfig(final_oi=True), text)
    assert (err, code) == ("", 0)
    doc = json.loads(out)
    assert doc["cellCount"] == len(doc["cells"]) == 91
    samples = {tuple(c["index"]): c["sample"] for c in doc["cells"]}
    for idx in ((4, 2, 2), (4, 6, 2)):
        assert samples[idx][2] == {"rational": "0"}
    order, polys = parse_input(text)
    cad = cad_full(polys, order, final_oi=True)
    z = MultiPoly.var(order, "z")
    assert [(idx, d) for idx, _, d in cad.delineations] == [
        ((4, 2), z), ((4, 6), z)]
    assert verify_sign_invariance(cad, polys, samples_per_cell=1)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-string digit limit")
def test_output_past_digit_limit_exits_cleanly():
    # the defining polynomial's leading coefficient has 800 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        out, err, code = run_compute(
            RunConfig(), "vars: x\n(" + "9" * 400 + "*x)^2 - 2\n")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (out, code) == ("", 3)
    assert err.startswith("error: ValueError: ")
    assert err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize("seed", range(40, 51))
def test_filtered_signs_match_gcd_first_end_to_end(monkeypatch, seed):
    # the gcd-first route bisects other boxes, and the output, which
    # depends on the input alone, must not move by one byte
    text = _random_problem(seed)
    cfg = RunConfig(method="collins" if seed % 2 else "mccallum")
    got = run_compute(cfg, text)
    with monkeypatch.context() as m:
        force_gcd_first_signs(m)
        want = run_compute(cfg, text)
    assert got == want and got[2] == 0


# sha256 over run_compute's (stdout, stderr, exit code) of seeds 0-39
# without 17, which does not finish in seconds: both operators, final_oi
# off and on, JSON, text and piecewise output, 468 runs in that order
RANDOM_OUTPUT_DIGEST = \
    "bc1f810af43d626764dc80f3435e801ab61368daab6100c3e0dbc4730431c708"


def test_random_problem_outputs_pinned():
    digest = hashlib.sha256()
    runs = 0
    for seed in range(40):
        if seed == 17:
            continue
        text = _random_problem(seed)
        for method in ("mccallum", "collins"):
            for final_oi in (False, True):
                for output in ("json", "text", "piecewise"):
                    cfg = RunConfig(method=method, final_oi=final_oi,
                                    output=output)
                    digest.update(repr(run_compute(cfg, text)).encode())
                    runs += 1
    assert runs == 468
    assert digest.hexdigest() == RANDOM_OUTPUT_DIGEST


def test_mccallum_and_collins_agree_at_located_cells():
    # random rational points located in the McCallum and the Collins CAD
    # of the same input: the input polynomials take the same signs at the
    # samples of the two cells, and those are their signs at the point.
    # Seeds 0-39 without 17, which does not finish in seconds; a McCallum
    # run that warns is not proven sign-invariant and is left out
    rng = random.Random(2013)
    compared = 0
    for seed in range(40):
        if seed == 17:
            continue
        order, polys = parse_input(_random_problem(seed))
        mccallum = cad_full(polys, order, "mccallum")
        if mccallum.warnings:
            continue
        collins = cad_full(polys, order, "collins")
        for _ in range(8):
            pt = tuple(Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 8)))
                       for _ in order.names)
            env = dict(zip(order.names, pt))
            at_point = [(v > 0) - (v < 0)
                        for v in (p.evaluate(env) for p in polys)]
            signs = [[sign_at(p, locate_point(pt, cad).sample)
                      for p in polys] for cad in (mccallum, collins)]
            assert signs == [at_point, at_point], (seed, pt)
            compared += 1
    assert compared >= 240


def _golden_and_seed_runs():
    # (text, config) of the golden problems, and of seeds 0-39 without
    # 17, which does not finish in seconds, under both operators
    runs = [(GOLDEN_EXTRA[nm][0], RunConfig()) if nm in GOLDEN_EXTRA
            else _EXAMPLES[nm][:2] for nm in sorted(GOLDEN_JSON)]
    return runs + [(_random_problem(seed), RunConfig(method=method))
                   for seed in range(40) if seed != 17
                   for method in ("mccallum", "collins")]


def _rendered(text, cfg):
    order, polys = parse_input(text)
    cad = cad_full(polys, order, cfg.method, final_oi=cfg.final_oi)
    return [render_output(cad, f) for f in ("json", "text", "piecewise")]


def test_output_depends_on_the_input_alone(monkeypatch):
    # with every sample point holding its own copies of its roots, other
    # boxes are bisected, and the JSON, text and piecewise output must
    # not move by one byte: the golden problems, and seeds 0-39 without
    # 17, which does not finish in seconds, under both operators
    for text, cfg in _golden_and_seed_runs():
        want = _rendered(text, cfg)
        with monkeypatch.context() as m:
            private_copies(m)
            assert _rendered(text, cfg) == want, (text, cfg.method)


def test_back_to_back_builds_render_the_same_json():
    # a lifting run leaves no memo behind it: the second build in the
    # same process renders the golden bytes again
    order, polys = parse_input(GOLDEN_EXTRA["sphere-saddle"][0])
    outs = [render_output(cad_full(polys, order), "json") for _ in range(2)]
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[1].encode()).hexdigest() \
        == GOLDEN_JSON["sphere-saddle"]


def test_reduced_gcd_matches_fiber_gcd(monkeypatch):
    # every pair the separable basis hands to the reduced-operand gcd, on
    # the golden problems and on seeds 0-39 without 17 under both
    # operators: the operands are reduced over the fiber, and the gcd is
    # fiber_gcd's node, with the run's memo bound and with none
    reduced = algnum._reduced_gcd
    checked, inside = [], []

    def checking(a, b, var, s):
        got = reduced(a, b, var, s)
        if inside:
            return got  # fiber_gcd's own call, from the check below
        assert algnum.fiber_reduce(a, var, s) is a
        assert algnum.fiber_reduce(b, var, s) is b
        inside.append(True)
        try:
            memo_bound = algnum._run_memo.get() is not None
            want = [algnum.fiber_gcd(a, b, var, s)]
            token = algnum._run_memo.set(None)
            try:
                want += [reduced(a, b, var, s),
                         algnum.fiber_gcd(a, b, var, s)]
            finally:
                algnum._run_memo.reset(token)
        finally:
            inside.pop()
        assert all(w.node == got.node for w in want), (a, b, s)
        algebraic = any(c.point_value() is None for c in s.coords)
        checked.append((memo_bound, algebraic, got.degree(var) >= 1))
        return got

    monkeypatch.setattr(algnum, "_reduced_gcd", checking)
    for text, cfg in _golden_and_seed_runs():
        order, polys = parse_input(text)
        cad_full(polys, order, cfg.method, final_oi=cfg.final_oi)
    # 1362 pairs, 561 over algebraic fibers and 571 with a common factor
    assert len(checked) >= 1000 and all(c[0] for c in checked)
    assert sum(c[1] for c in checked) >= 400
    assert sum(c[2] for c in checked) >= 400


def test_fiber_quotients_are_reduced(monkeypatch):
    # _fiber_quo takes no fiber and reduces nothing: its operands come
    # reduced over the fiber, so the quotient's leading coefficient
    # lc(f) lc(g)^(deg f - deg g) is nonzero there.  Checked on every
    # quotient of the golden problems and of seeds 0-39 without 17 under
    # both operators, each build followed by a 1-sample oracle sweep
    fiber_basis, fiber_quo = algnum._fiber_basis, algnum._fiber_quo
    fibers, checked = [], []

    def recording(polys, var, s):
        fibers.append(s)
        try:
            return fiber_basis(polys, var, s)
        finally:
            fibers.pop()

    def checking(f, g, var):
        q = fiber_quo(f, g, var)
        s = fibers[-1]
        assert sign_at(q.coefficient(var, q.degree(var)), s) != 0, (f, g, s)
        checked.append(any(c.point_value() is None for c in s.coords))
        return q

    monkeypatch.setattr(algnum, "_fiber_basis", recording)
    monkeypatch.setattr(algnum, "_fiber_quo", checking)
    for text, cfg in _golden_and_seed_runs():
        order, polys = parse_input(text)
        cad = cad_full(polys, order, cfg.method, final_oi=cfg.final_oi)
        assert verify_sign_invariance(cad, polys, samples_per_cell=1,
                                      seed=0).ok
    # 611 quotients, 210 of them over algebraic fibers
    assert len(checked) >= 500 and sum(checked) >= 150


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_json_golden_digest_on_exact_fiber_route(monkeypatch, name):
    # every interval-image decision over an algebraic fiber replaced by
    # the exact symbolic step: the output must not move by one byte
    force_exact_fiber_decisions(monkeypatch)
    if name in GOLDEN_EXTRA:
        text, cfg = GOLDEN_EXTRA[name][0], RunConfig()
    else:
        text, cfg, _ = _EXAMPLES[name]
    out, _, code = run_compute(cfg, text)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_JSON[name]


def test_interval_images_match_exact_route_end_to_end(monkeypatch):
    # seeds 0-45 without 17, which does not finish in seconds
    decided = []
    encl_vars = algnum._enclosure_variations

    def counting(enc, a, b, q):
        v = encl_vars(enc, a, b, q)
        decided.append(v is not None)
        return v

    runs = []
    for seed in range(46):
        if seed == 17:
            continue
        for method in ("mccallum", "collins"):
            cfg, text = RunConfig(method=method), _random_problem(seed)
            with monkeypatch.context() as m:
                m.setattr(algnum, "_enclosure_variations", counting)
                got = run_compute(cfg, text)
            with monkeypatch.context() as m:
                force_exact_fiber_decisions(m)
                want = run_compute(cfg, text)
            assert got == want, (seed, method)
            runs.append(got[2])
    assert len(runs) >= 80 and set(runs) == {0}
    assert sum(decided) >= 100
