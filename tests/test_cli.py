import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import regular_graphs

import parcay
from parcay.cli import main, make_parser
from parcay.constructions import (complete_graph, cycle_graph,
                                  generalized_petersen)
from parcay.decompose import weak_multicycle_colouring
from parcay.graph import read_graph, write_graph
from parcay.presentation import parse

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
    (PETERSEN, 1, "1 2 3"),
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


def test_matchings_report(capsys):
    assert main(["matchings", "--family", "ladder", "--n", "2", "--report"]) == 0
    out = capsys.readouterr().out
    assert "miss sequence" in out


def test_readme_commands_parse():
    # Every ``parcay`` line of README's sh blocks is accepted by the
    # argument parser, so a deleted subcommand or flag cannot stay in the
    # docs.  Only argparse runs, no command.
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.M | re.S)
    lines = [shlex.split(line, comments=True)
             for block in blocks for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["parcay"]]
    assert len(commands) > 10
    for argv in commands:
        try:
            make_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README: parcay {shlex.join(argv)}")


def _fresh_process(*args):
    """Run ``python *args`` in a new interpreter that imports this parcay."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(parcay.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def test_one_process_prints_what_fresh_processes_print(capsys):
    # The argparse tree is built once per process and reused: an argument
    # error, then subcommands with and without a flag.  The ladder's
    # staged and maximum matchings agree, so its report lists nothing;
    # ``--format dot`` shows a flag that changes the output.
    runs = [["matchings", "--n", "x"],
            ["matchings", "--family", "ladder", "--n", "2", "--report"],
            ["matchings", "--family", "ladder", "--n", "2"],
            ["make", "petersen", "5", "2", "--format", "dot"],
            ["make", "petersen", "5", "2"]]
    fresh = [_fresh_process("-m", "parcay.cli", *argv) for argv in runs]
    with pytest.raises(SystemExit) as exit_:
        main(runs[0])
    assert exit_.value.code == fresh[0].returncode == 2
    assert capsys.readouterr().err == fresh[0].stderr
    for argv, want in zip(runs[1:], fresh[1:]):
        assert main(argv) == want.returncode == 0
        assert capsys.readouterr().out == want.stdout
    assert fresh[3].stdout != fresh[4].stdout
    # importing the module builds no parser
    lazy = _fresh_process("-c", "import parcay.cli as c; "
                                "print(c.make_parser.cache_info().currsize)")
    assert lazy.stdout == "0\n"


def test_a_command_patched_after_the_parser_is_built_runs(monkeypatch):
    main(["matchings", "--n", "1"])
    monkeypatch.setattr(parcay.cli, "cmd_matchings", lambda args: 7)
    assert main(["matchings", "--n", "1"]) == 7


def test_extract_of_one_vertex_builds_one_vertex(tmp_path):
    # the one-class presentation with no generators and no relators
    g, pp, built = (tmp_path / name for name in ("one.graph", "one.pp",
                                                 "one.built"))
    g.write_text("vertices 1\n")
    assert main(["extract", str(g), "--roundtrip", "-o", str(pp)]) == 0
    p = parse(pp.read_text())
    assert p.classes == ("0",) and p.alphabet.names == ()
    assert not any(p.relators.values())
    assert main(["build", str(pp), "-o", str(built)]) == 0
    h = read_graph(built.read_text())
    assert (h.n, h.n_edges) == (1, 0)


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


def test_missing_colour_column_exits_2_naming_its_line(tmp_path, capsys):
    col = tmp_path / "mixed.col"
    col.write_text("vertices 3\nedge 0 1 - c0\nedge 1 2 - c1\nedge 2 0 a\n")
    assert main(["extract", str(col), "-o", str(tmp_path / "out.pp")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: some edge lines are missing the colour "
                            "column (line 4)\n")


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


@settings(max_examples=4, deadline=None)
@given(regular_graphs())
def test_generated_graphs_round_trip_through_the_cli(case):
    _, g = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name)
                 for name in ("in.graph", "in.col", "in.pp", "built.graph")]
        with open(paths[0], "w") as fh:
            fh.write(write_graph(g))
        for argv in (["decompose", paths[0], "-o", paths[1]],
                     ["extract", paths[1], "--roundtrip", "-o", paths[2]],
                     ["build", paths[2], "-o", paths[3]]):
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0, argv


@pytest.mark.parametrize("flag,a,b", [
    # One path, coloured r r and r s: isomorphic as graphs, not as
    # coloured graphs.
    ("--colours", "vertices 3\nedge 0 1 r\nedge 1 2 r\n",
     "vertices 3\nedge 0 1 r\nedge 1 2 s\n"),
    ("--classes", "vertices 2\nclass 0 x\nclass 1 y\nedge 0 1\n",
     "vertices 2\nclass 0 x\nclass 1 x\nedge 0 1\n"),
])
def test_iso_flag_flips_the_verdict(flag, a, b, tmp_path, capsys):
    fa, fb = tmp_path / "a.graph", tmp_path / "b.graph"
    fa.write_text(a)
    fb.write_text(b)
    assert main(["iso", str(fa), str(fb)]) == 0
    assert main(["iso", str(fa), str(fb), flag]) == 1
    assert capsys.readouterr().out == "isomorphic\nnot isomorphic\n"


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unreadable_input_exits_2_with_one_line(tmp_path, capsys):
    # A directory and a file that is not UTF-8, in either position of iso.
    latin1 = tmp_path / "latin1.graph"
    latin1.write_bytes("vertices 1\nclass 0 \u00e9\n".encode("latin-1"))
    good = tmp_path / "good.graph"
    good.write_text("vertices 1\n")
    for argv in (["build", str(tmp_path)], ["build", str(latin1)],
                 ["iso", str(good), str(tmp_path)],
                 ["iso", str(latin1), str(good)]):
        assert main(argv) == 2, argv
        _assert_one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    # A graph with no vertices has no class to present.
    ["extract", "vertices 0\n"],
    # Only a coloured graph file has a colouring to check.
    ["decompose", "vertices 2\nedge 0 1\n", "--check", "pf"],
])
def test_input_without_what_the_command_needs_exits_2_with_one_line(
        argv, tmp_path, capsys):
    f = tmp_path / "in.graph"
    f.write_text(argv[1])
    assert main([argv[0], str(f)] + argv[2:]) == 2
    _assert_one_error_line(capsys)


def test_extract_of_two_disjoint_triangles_exits_2_with_one_line(tmp_path,
                                                                   capsys):
    f = tmp_path / "in.graph"
    f.write_text("vertices 6\n" + "".join(
        f"edge {u} {v}\n" for u, v in [(0, 1), (1, 2), (2, 0),
                                       (3, 4), (4, 5), (5, 3)]))
    # The BFS tree of the presentation graph finds it disconnected.
    assert main(["extract", str(f)]) == 2
    _assert_one_error_line(capsys)


def test_extract_of_a_colour_that_is_not_a_generator_name_exits_2(tmp_path,
                                                                    capsys):
    f = tmp_path / "in.col"
    f.write_text("vertices 4\n" + "".join(f"edge {v} {(v + 1) % 4} - x-1\n"
                                         for v in range(4)))
    assert main(["extract", str(f), "--roundtrip"]) == 2
    assert capsys.readouterr().err == (
        "error: colour 'x-1' cannot name a generator: use letters, digits "
        "and '_'\n")


def test_build_reports_a_cycle_error_at_its_column_in_the_line(tmp_path,
                                                               capsys):
    f = tmp_path / "bad.pp"
    f.write_text("classes: 0 1\ngen a : U : (0)(1)\ngen b : I : (0 1\n")
    assert main(["build", str(f)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: unclosed cycle (line 3, column 13)\n")


@pytest.mark.parametrize("argv", [
    ["make", "petersen"],
    ["make", "petersen", "7"],
    ["make", "two-ended", "3"],
    ["make", "linegraph"],
    ["make", "bicayley"],
    ["make", "haar", "0"],
    ["make", "haar", "5", "--s", "9"],
    ["make", "haar", "5", "--s", "-1"],
    ["make", "bicayley", "5", "--r", "1", "4", "--s", "5"],
    ["matchings", "--n", "-1"],
    ["matchings", "--margin", "-1"],
    ["ball", "PP", "--radius", "-1"],
])
def test_malformed_arguments_exit_2_with_one_line(argv, pp, capsys):
    assert main([str(pp) if a == "PP" else a for a in argv]) == 2
    _assert_one_error_line(capsys)
