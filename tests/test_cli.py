import json

import pytest

from parcay.cli import main

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
