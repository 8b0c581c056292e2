import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from projcad.cli import (_EXAMPLES, ParseError, RunConfig, examples_suite,
                         main, parse_input, run_compute)

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
])
def test_parse_errors(text, line, col, needle):
    with pytest.raises(ParseError) as ei:
        parse_input(text)
    assert ei.value.line == line
    assert ei.value.col == col
    assert needle in str(ei.value)


def test_count_output():
    out, err, code = run_compute(RunConfig(output="count"), CIRCLE)
    assert (out, err, code) == ("13\n", "", 0)


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
    # re-serialization and a fresh run are both bit-exact
    assert json.dumps(doc, indent=2) + "\n" == out
    assert run_compute(RunConfig(), CIRCLE)[0] == out


def test_json_algebraic_sample():
    out, _, _ = run_compute(RunConfig(), "vars: x, y\ny^2 - 2\n")
    doc = json.loads(out)
    coord = doc["cells"][1]["sample"][1]
    assert coord["rootOf"] == "y^2 - 2"
    lo, hi = coord["interval"]
    assert "/" in lo and "/" in hi


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
    from fractions import Fraction

    from projcad.cadcore import cad_full
    from projcad.cli import parse_input

    order, polys = parse_input(CIRCLE)
    cad = cad_full(polys, order)
    doc = json.loads(run_compute(RunConfig(), CIRCLE)[0])
    assert len(doc["cells"]) == len(cad.cells)
    for got, cell in zip(doc["cells"], cad.cells):
        assert tuple(got["index"]) == cell.index
        assert got["dimension"] == cell.dimension()
        for coord_doc, coord in zip(got["sample"], cell.sample.coords):
            if "rational" in coord_doc:
                assert Fraction(coord_doc["rational"]) \
                    == coord.point_value()
            else:
                lo, hi = coord.box()
                assert coord_doc["rootOf"] == str(coord.defining)
                assert [Fraction(v) for v in coord_doc["interval"]] \
                    == [lo, hi]


# sha256 of the JSON output: sections, isolating intervals and sample
# points must not move when the arithmetic behind them is reworked
GOLDEN_JSON = {
    "circle":
        "a603b63c2fffa1ddcbb57cf54fe409b25a46b5de2404d54f979b1e22aa5d3e0a",
    "zy-x2":
        "feddd85c2ae3334dca44384ce1a2316a2148ac630b8addba9c98fa51a5ef0bc9",
    "zy-x2-oi":
        "659339edba98aff78d8ab2392fda27f62d3de9ccde04d66c90ac86aa0cc0b6be",
    "w-example":
        "1a9a3c6844a9b1bbc15bc979abe91592923b70ba901a4c4a9dff7ea8c25df145",
    "warn-4var":
        "5a495944e98868e937fee041f6bc4b760eb4b3945dcb8f7d73edcacce9becf28",
    "sphere-plane":
        "7888330d7f5e8936a6352fe165705aa041bf741a76fd0b02fa2a871b4ee0ac7d",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_json_golden_digest(name):
    if name == "sphere-plane":
        text, cfg = ("vars: x, y, z\nx^2 + y^2 + z^2 - 1\nx + y + z\n",
                     RunConfig())
    else:
        text, cfg, _ = _EXAMPLES[name]
    out, _, code = run_compute(cfg, text)
    assert code == 0
    if name == "sphere-plane":
        assert len(json.loads(out)["cells"]) == 351
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_JSON[name]
