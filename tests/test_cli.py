import contextlib
import io
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import assume, given, strategies as st

from parcay.cli import main
from parcay.constructions import (complete_graph, cycle_graph,
                                  generalized_petersen)
from parcay.decompose import weak_multicycle_colouring
from parcay.graph import write_graph

PETERSEN = """\
classes: 0 1
gen a : U : (0)(1)
gen b : I : (0 1)
rel 0 : a^5, a b a^2 b
rel 1 : a^5
"""

BAD = """\
classes: 0 1
gen b : I : (0)(1)
rel 0 : b b
"""


@pytest.fixture
def pp(tmp_path):
    f = tmp_path / "petersen.pp"
    f.write_text(PETERSEN)
    return f


def test_validate_ok(pp, capsys):
    assert main(["validate", str(pp)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    f = tmp_path / "bad.pp"
    f.write_text(BAD)
    assert main(["validate", str(f)]) == 2
    out = capsys.readouterr().out
    assert "FixedPointInvolution" in out
    assert "line 2" in out


def test_build_and_iso(pp, tmp_path, capsys):
    out = tmp_path / "out.graph"
    assert main(["build", str(pp), "-o", str(out)]) == 0
    text = out.read_text()
    assert "vertices 10" in text
    assert "# closed: true" in text
    p52 = tmp_path / "p52.graph"
    assert main(["make", "petersen", "5", "2", "-o", str(p52)]) == 0
    assert main(["iso", str(out), str(p52)]) == 0
    k33ish = tmp_path / "p71.graph"
    assert main(["make", "petersen", "7", "1", "-o", str(k33ish)]) == 0
    assert main(["iso", str(out), str(k33ish)]) == 1


def test_build_dot(pp, capsys):
    assert main(["build", str(pp), "--format", "dot"]) == 0
    assert "graph {" in capsys.readouterr().out


def test_ball(pp, capsys):
    assert main(["ball", str(pp), "--radius", "6"]) == 0
    out = capsys.readouterr().out
    assert "vertices 10" in out
    assert "frontier: (none)" in out


FREE_F2 = "classes: 0\ngen a : U : (0)\ngen b : U : (0)\n"


@pytest.mark.parametrize("text,radius,frontier", [
    (FREE_F2, 3, " ".join(map(str, range(17, 53)))),
    (FREE_F2 + "rel 0 : a^2\n", 4, " ".join(map(str, range(22, 46)))),
    (PETERSEN, 1, "0 1"),
], ids=["F2 r3", "Z2*Z r4", "P(5,2) r1"])
def test_ball_frontier_line_is_pinned(tmp_path, capsys, text, radius, frontier):
    f = tmp_path / "ball.pp"
    f.write_text(text)
    assert main(["ball", str(f), "--radius", str(radius)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"# frontier: {frontier}"


def test_decompose_extract_roundtrip(tmp_path, capsys):
    g = tmp_path / "p52.graph"
    main(["make", "petersen", "5", "2", "-o", str(g)])
    col = tmp_path / "p52.col"
    assert main(["decompose", str(g), "-o", str(col)]) == 0
    assert main(["decompose", str(col), "--check", "pf"]) == 0
    assert main(["decompose", str(col), "--check", "multicycle"]) in (0, 1)
    pp_out = tmp_path / "p52.pp"
    assert main(["extract", str(col), "--roundtrip", "-o", str(pp_out)]) == 0
    assert pp_out.read_text().startswith("classes:")


def test_make_haar(tmp_path, capsys):
    assert main(["make", "haar", "3", "--s", "0", "1", "2"]) == 0
    assert "vertices 6" in capsys.readouterr().out


def test_make_two_ended(capsys):
    assert main(["make", "two-ended", "-2", "2"]) == 0
    assert "vertices 50" in capsys.readouterr().out


def test_make_bicayley(capsys):
    assert main(["make", "bicayley", "5", "--r", "1", "4",
                 "--l", "2", "3", "--s", "0"]) == 0
    assert "vertices 10" in capsys.readouterr().out


def test_verify_two_ended(capsys):
    assert main(["verify", "two-ended"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_matchings_report(capsys):
    assert main(["matchings", "--family", "ladder", "--n", "2", "--report"]) == 0
    out = capsys.readouterr().out
    assert "miss sequence" in out


@pytest.mark.parametrize("edge", ["edge 1 7", "edge 0 x", "edge 1 -1"])
def test_malformed_graph_file_exits_2(edge, pp, tmp_path, capsys):
    good = tmp_path / "good.graph"
    good.write_text("vertices 3\nedge 0 1\nedge 1 2\n")
    bad = tmp_path / "bad.graph"
    bad.write_text(f"vertices 3\nedge 0 1\n{edge}\n")
    assert main(["iso", str(good), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "(line 3)" in captured.err
    assert captured.err.count("\n") == 1


def test_extract_of_a_long_cycle_exits_0(tmp_path):
    g = tmp_path / "c3000.graph"
    g.write_text(write_graph(cycle_graph(3000)))
    out = tmp_path / "c3000.pp"
    assert main(["extract", str(g), "-o", str(out)]) == 0
    assert out.read_text().count("rel ") == 1


@pytest.mark.parametrize("rel", ["rel 0 : " + "(" * 3000 + "a" + ")" * 2999,
                                 "rel 0 : a^99999999999999999999999",
                                 "rel 0 : a^1000001"],
                         ids=["nesting", "exponent", "length"])
def test_malformed_word_exits_2(rel, tmp_path, capsys):
    f = tmp_path / "bad.pp"
    f.write_text(PETERSEN + rel + "\n")
    assert main(["build", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_exponent_past_the_integer_digit_limit_exits_2(tmp_path, capsys):
    # 5000 digits is past the interpreter's default int conversion limit.
    f = tmp_path / "bad.pp"
    f.write_text(PETERSEN + "rel 0 : a^" + "9" * 5000 + "\n")
    assert main(["build", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_missing_file_is_an_error(capsys):
    assert main(["validate", "/nonexistent/x.pp"]) == 2


def test_overflow_is_an_error(tmp_path, capsys):
    f = tmp_path / "free.pp"
    f.write_text("classes: 0\ngen a : U : (0)\ngen b : U : (0)\n")
    assert main(["build", str(f), "--max-rows", "100"]) == 2


def test_suite_json(capsys):
    assert main(["suite", "--report", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 13
    assert all(entry["pass"] for entry in data)


def test_suite_text_has_one_line_per_criterion(capsys):
    assert main(["suite"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert all(line.startswith("[PASS] criterion ") for line in lines)


def test_output_is_byte_identical_across_runs(pp, tmp_path):
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    main(["build", str(pp), "-o", str(a)])
    main(["build", str(pp), "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _coloured_text(g):
    return write_graph(g, weak_multicycle_colouring(g))


# Coloured graph texts to mutate: K4 with a matching colour and uncoloured
# base edges, P(5,2) with base colours, and a hand-written text with a
# loop, a declared colour pair and the '-' placeholder.
COLOURED_MUTATION_SEEDS = (
    _coloured_text(complete_graph(4)),
    _coloured_text(generalized_petersen(5, 2)),
    "# hand\nvertices 3\ncolour a a^-1\nclass 0 x\nedge 0 1 a c1\n"
    "edge 1 2 - c1\nedge 2 0 a^-1 c1\nedge 1 1 b c2\n")
COLOURED_MUTATION_PIECES = ("edge ", "colour ", "class ", "vertices ", "0",
                            "2", "9", "-", " ", "\t", "\n", "#", "a", "m",
                            "c1", "c2", "outer", "\u0663")


@given(st.data())
def test_mutated_coloured_graph_exits_0_1_or_2(data):
    text = data.draw(st.sampled_from(COLOURED_MUTATION_SEEDS))
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, len(text)))
        kind = data.draw(st.sampled_from(("insert", "delete", "replace")))
        piece = data.draw(st.sampled_from(COLOURED_MUTATION_PIECES))
        if kind == "insert":
            text = text[:i] + piece + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + piece + text[i + 1:]
    # Bound the product of every number in the text, which bounds the
    # vertex count.
    numbers = re.findall(r"\d+(?:_\d+)*", text)   # int() reads 1_0 as 10
    assume(math.prod(int(d) or 1 for d in numbers) < 10 ** 4)
    with tempfile.TemporaryDirectory() as tmp:
        src, out = os.path.join(tmp, "in.graph"), os.path.join(tmp, "out")
        with open(src, "w") as fh:
            fh.write(text)
        for argv in (["decompose", src, "--check", "pf"],
                     ["decompose", src, "-o", out],
                     ["extract", src, "-o", out]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2)
