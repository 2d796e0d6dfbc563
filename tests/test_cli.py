"""Tests for documents and the command-line interface."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from fwsets import asymptotes, cli, documents, gallery
from fwsets.affine import AffineManifold, AffineMap, subspace
from fwsets.asymptotes import AffineImageSet, IntersectionSet, ProductSet, UnionSet, distance_to_manifold
from fwsets.cli import main
from fwsets.documents import parse, serialize
from fwsets.errors import DimensionMismatchError, DocumentError
from fwsets.linalg import vec
from fwsets.motzkin import Ball, FinitePointSet, MotzkinSet, PolytopeK, SecondOrderCone
from fwsets.polyhedra import HPolyhedron, PolyCone, VPolyhedron
from fwsets.quadratics import Quadratic
from fwsets.setops import intersect_subspace_motzkin

F = Fraction


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def quad_doc(matrix, linear=None, constant="0"):
    payload = {"matrix": matrix, "constant": constant}
    if linear is not None:
        payload["linear"] = linear
    return {"version": "1", "kind": "quadratic", "payload": payload}


def orthant_doc():
    return {
        "version": "1",
        "kind": "hpolyhedron",
        "payload": {"rows": [["-1", "0"], ["0", "-1"]], "rhs": ["0", "0"], "dim": 2},
    }


def hyperbola_doc():
    return {
        "version": "1",
        "kind": "quad_sublevel",
        "payload": {
            "base": {
                "kind": "hpolyhedron",
                "rows": [["-1", "0"], ["0", "-1"]],
                "rhs": ["0", "0"],
                "dim": 2,
            },
            "constraints": [
                {"matrix": [["0", "-1"], ["-1", "0"]], "linear": ["0", "0"], "constant": "1"}
            ],
            "sample_point": ["1", "1"],
        },
    }


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def test_parse_minimal_quadratic():
    kind, q = parse(json.dumps(quad_doc([["1"]], ["0"], "0")))
    assert kind == "quadratic"
    assert isinstance(q, Quadratic)
    assert q.dim == 1


def test_roundtrip_is_canonical_identity():
    kind, q = parse(json.dumps(quad_doc([[2, 1], [1, 0]], [0, "1/2"], "3")))
    text = serialize(kind, q)
    kind2, q2 = parse(text)
    assert q2 == q
    assert serialize(kind2, q2) == text


def test_bad_rational_rejected():
    with pytest.raises(DocumentError):
        parse(json.dumps(quad_doc([["1/0"]])))


@pytest.mark.parametrize("text, value", [
    ("3/4", Fraction(3, 4)), ("-3/4", Fraction(-3, 4)), ("+3", Fraction(3)),
    ("007/010", Fraction(7, 10)), ("-0", Fraction(0)), (str(10**30), Fraction(10**30)),
])
def test_a_rational_string_is_a_signed_ascii_fraction(text, value):
    _, h = parse(json.dumps({"version": "1", "kind": "hpolyhedron",
                             "payload": {"rows": [["1"]], "rhs": [text]}}))
    assert h.b == (value,)


# what Fraction(str) would read on some Pythons: underscores (3.11 on),
# decimals, exponents, other scripts' digits, spaces, a signed denominator
@pytest.mark.parametrize("text", [
    "1_000", "1.5", "1e3", "٣", " 3/4 ", "3/4\n", "3/-4", "3/+4", "--3", "3/0", "", "/4", "3/",
    "0x10", "inf", "nan", "3 / 4",
])
def test_a_rational_outside_the_grammar_exits_2_at_its_path(tmp_path, capsys, text):
    doc = {"version": "1", "kind": "hpolyhedron", "payload": {"rows": [["1"], ["-1"]], "rhs": ["1", text]}}
    with pytest.raises(DocumentError) as exc:
        parse(json.dumps(doc))
    assert exc.value.path == "$.payload.rhs[1]"
    assert main(["classify", write(tmp_path, "set.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "(at $.payload.rhs[1])" in captured.err


def test_unknown_fields_rejected():
    doc = quad_doc([["1"]])
    doc["payload"]["extra"] = 1
    with pytest.raises(DocumentError) as exc:
        parse(json.dumps(doc))
    assert "extra" in str(exc.value)


def test_json_error_carries_position():
    with pytest.raises(DocumentError) as exc:
        parse("{not json")
    assert exc.value.line == 1


def test_version_mismatch():
    doc = quad_doc([["1"]])
    doc["version"] = "2"
    with pytest.raises(DocumentError):
        parse(json.dumps(doc))


def test_manifold_rows_and_rhs_of_unequal_length_rejected():
    for rhs in (["1"], ["1", "2", "3"]):
        doc = {
            "version": "1",
            "kind": "manifold",
            "payload": {"rows": [["1", "0"], ["0", "1"]], "rhs": rhs},
        }
        with pytest.raises(DocumentError):
            parse(json.dumps(doc))


def test_motzkin_roundtrip():
    mot = MotzkinSet(
        PolytopeK([(0, 0), (1, 0)]), PolyCone.from_generators([(1, 1)])
    )
    text = serialize("motzkin", mot)
    kind, back = parse(text)
    assert back.compact.vertices == mot.compact.vertices
    assert back.cone.generators == mot.cone.generators


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------


def test_solve_attained(tmp_path, capsys):
    set_path = write(tmp_path, "set.json", orthant_doc())
    q_path = write(
        tmp_path,
        "q.json",
        quad_doc([["2", "0"], ["0", "0"]], ["-2", "0"], "1"),  # (x1 - 1)^2
    )
    code = main(["--format", "json", "solve", set_path, q_path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "attained"
    assert out["value"] == "0"


def test_solve_unbounded(tmp_path, capsys):
    set_path = write(tmp_path, "set.json", orthant_doc())
    q_path = write(tmp_path, "q.json", quad_doc([["0", "0"], ["0", "0"]], ["-1", "0"]))
    code = main(["--format", "json", "solve", set_path, q_path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "unbounded_below"


def test_solve_unknown_exits_3(tmp_path, capsys):
    # |x|^2 on {0} plus the 45-degree cone about e3: no attainment analysis
    # is promised for a second-order recession cone
    soc = {"kind": "second_order", "dim": 3, "axis": ["0", "0", "1"], "aperture": "1/2"}
    payload = {"compact": {"kind": "points", "points": [["0", "0", "0"]]}, "cone": soc}
    set_path = write(tmp_path, "set.json", {"version": "1", "kind": "motzkin", "payload": payload})
    q_path = write(tmp_path, "q.json", quad_doc([["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]]))
    code = main(["--format", "json", "solve", set_path, q_path])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["verdict"] == "unknown"
    assert out["justification"]


def test_an_internal_fault_exits_5_and_says_so(tmp_path, capsys, monkeypatch):
    # an exception that is no FwsetsError, raised inside the solve command,
    # is a fault of the program: it has its own exit code, so a crash never
    # reads as exit 1, an empty set
    def faulty(*args):
        raise RuntimeError("a fault")

    monkeypatch.setattr(cli, "minimize_on_descriptor", faulty)
    set_path = write(tmp_path, "set.json", orthant_doc())
    q_path = write(tmp_path, "q.json", quad_doc([["2", "0"], ["0", "2"]]))
    assert main(["solve", set_path, q_path]) == cli.EXIT_INTERNAL == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: a fault\n"


def test_solve_tolerance_reaches_the_ball_member_of_a_union(tmp_path, capsys):
    # a ball plus a ray in R^3 whose bracket at tolerance 1/100 is wider than
    # at the default; wrapping it in a one-member union changes nothing
    motzkin = {
        "compact": {"kind": "ball", "center": ["-2", "-2", "1"], "radius": "2"},
        "cone": {"kind": "polyhedral", "generators": [["-2", "1", "1"]], "dim": 3},
    }
    plain = write(tmp_path, "ball.json", {"version": "1", "kind": "motzkin", "payload": motzkin})
    wrapped = write(
        tmp_path,
        "union.json",
        {"version": "1", "kind": "union", "payload": {"members": [{"kind": "motzkin", **motzkin}]}},
    )
    q_path = write(
        tmp_path, "q.json", quad_doc([[6, -2, 5], [-2, 10, 0], [5, 0, 10]], [-2, -4, -1])
    )
    reports = []
    for set_path in (plain, wrapped):
        assert main(["--format", "json", "--tolerance", "0.01", "solve", set_path, q_path]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]
    width = Fraction(reports[0]["value"]) - Fraction(reports[0]["lower_bound"])
    assert Fraction(1, 10**6) < width <= Fraction(1, 100)


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("union", {"members": 5}),
        ("union", {"members": []}),
        ("intersection", {"members": {"kind": "epigraph", "function": "parabola_exp"}}),
        (
            "union",
            {
                "members": [
                    {"kind": "hpolyhedron", "rows": [], "rhs": [], "dim": 1},
                    {"kind": "hpolyhedron", "rows": [], "rhs": [], "dim": 2},
                ]
            },
        ),
        ("product", {"factors": []}),
        ("product", {"factors": "epigraph"}),
        (
            "quad_sublevel",
            {"base": {"kind": "hpolyhedron", "rows": [], "rhs": [], "dim": 1}, "constraints": 1},
        ),
    ],
)
def test_solve_malformed_compound_set_exits_2(tmp_path, capsys, kind, payload):
    set_path = write(tmp_path, "set.json", {"version": "1", "kind": kind, "payload": payload})
    q_path = write(tmp_path, "q.json", quad_doc([["1"]]))
    assert main(["solve", set_path, q_path]) == 2
    assert "$.payload." in capsys.readouterr().err


@pytest.mark.parametrize("matrix", [[["1", "2"]], [["1"], ["2"]]], ids=["wide", "tall"])
def test_solve_non_square_quadratic_exits_2(tmp_path, capsys, matrix):
    # a matrix that is not square is refused at the payload, not read as
    # its leading square block
    set_path = write(tmp_path, "set.json", {
        "version": "1", "kind": "hpolyhedron", "payload": {"rows": [["-1"]], "rhs": ["0"], "dim": 1}
    })
    q_path = write(tmp_path, "q.json", quad_doc(matrix))
    assert main(["solve", set_path, q_path]) == 2
    assert "$.payload" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, payload, field",
    [
        ("hpolyhedron", {"rows": [["-1", "0"]], "rhs": ["0"], "dim": 2.0}, "dim"),
        ("hpolyhedron", {"rows": [["-1"]], "rhs": ["0"], "dim": True}, "dim"),
        ("hpolyhedron", {"rows": [], "rhs": [], "dim": 0}, "dim"),
        ("vpolyhedron", {"vertices": [["0", "0"]], "dim": 2.0}, "dim"),
        (
            "motzkin",
            {
                "compact": {"kind": "polytope", "vertices": [["0", "0"]]},
                "cone": {"kind": "polyhedral", "generators": [["1", "0"]], "dim": 2.0},
            },
            "cone.dim",
        ),
        (
            "motzkin",
            {
                "compact": {"kind": "polytope", "vertices": [["0", "0", "0"]]},
                "cone": {
                    "kind": "second_order",
                    "dim": 3.0,
                    "axis": ["0", "0", "1"],
                    "aperture": "1/2",
                },
            },
            "cone.dim",
        ),
        ("subspace", {"basis": [["1", "0"]], "dim": "2"}, "dim"),
    ],
)
def test_non_integer_dim_exits_2_at_its_field(tmp_path, capsys, kind, payload, field):
    doc = write(tmp_path, "doc.json", {"version": "1", "kind": kind, "payload": payload})
    if kind == "subspace":
        argv = ["intersect", write(tmp_path, "set.json", orthant_doc()), doc]
    else:
        argv = ["solve", doc, write(tmp_path, "q.json", quad_doc([["1"]]))]
    assert main(argv) == 2
    assert f"$.payload.{field}" in capsys.readouterr().err


def test_solve_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    q_path = write(tmp_path, "q.json", quad_doc([["1"]]))
    code = main(["solve", str(bad), q_path])
    assert code == 2


def test_solve_with_its_arguments_swapped_names_the_file(tmp_path, capsys):
    set_path = write(tmp_path, "set.json", orthant_doc())
    q_path = write(tmp_path, "q.json", quad_doc([["1", "0"], ["0", "1"]]))
    assert main(["solve", q_path, set_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {q_path}: expected one of") and "(at $.kind)" in err
    assert main(["solve", set_path, set_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {set_path}: expected one of ['quadratic']") and "(at $.kind)" in err


def test_a_malformed_second_file_of_intersect_is_named(tmp_path, capsys):
    set_path = write(tmp_path, "set.json", orthant_doc())
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["intersect", set_path, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"parse error: {bad}: ")
    assert "(line 1, column 2)" in captured.err and set_path not in captured.err


def test_classify_hyperbola_not_qfw(tmp_path, capsys):
    set_path = write(tmp_path, "set.json", hyperbola_doc())
    code = main(["--format", "json", "classify", set_path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["quasi_attainment"]["label"] == "NotQFW"
    assert out["attainment"]["label"] == "NotFW"
    assert out["quasi_attainment"]["justification"]


def test_decompose_outputs_motzkin(tmp_path, capsys):
    doc = {
        "version": "1",
        "kind": "hpolyhedron",
        "payload": {
            "rows": [["-1", "0"], ["0", "-1"], ["-1", "-1"]],
            "rhs": ["0", "0", "-1"],
            "dim": 2,
        },
    }
    set_path = write(tmp_path, "p.json", doc)
    code = main(["--format", "json", "decompose", set_path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    vertices = {tuple(v) for v in out["motzkin"]["compact"]["vertices"]}
    assert vertices == {("1", "0"), ("0", "1")}


def test_decompose_empty_exits_1(tmp_path, capsys):
    doc = {
        "version": "1",
        "kind": "hpolyhedron",
        "payload": {"rows": [["1"], ["-1"]], "rhs": ["-2", "1"], "dim": 1},
    }
    set_path = write(tmp_path, "p.json", doc)
    code = main(["decompose", set_path])
    assert code == 1


def test_project_hpolyhedron(tmp_path, capsys):
    set_path = write(tmp_path, "set.json", orthant_doc())
    code = main(["--format", "json", "project", set_path, "--coords", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["hpolyhedron"]["dim"] == 1


@pytest.mark.parametrize("coords", ["a", "1,x", "", ",", "0"])
def test_project_rejects_unusable_coords(tmp_path, capsys, coords):
    set_path = write(tmp_path, "set.json", orthant_doc())
    with pytest.raises(SystemExit) as exc:
        main(["project", set_path, "--coords", coords])
    assert exc.value.code == 2
    assert "--coords" in capsys.readouterr().err


def test_project_past_the_dimension_errors(tmp_path, capsys):
    # a polyhedral Motzkin sum used to map a missing coordinate to 0
    doc = {
        "version": "1",
        "kind": "motzkin",
        "payload": {
            "compact": {"kind": "polytope", "vertices": [["1", "1"]]},
            "cone": {"kind": "polyhedral", "generators": [["1", "0"], ["0", "1"]], "dim": 2},
        },
    }
    set_path = write(tmp_path, "set.json", doc)
    assert main(["project", set_path, "--coords", "3"]) == 3
    assert "exceeds the dimension" in capsys.readouterr().err


def test_intersect_hpolyhedra(tmp_path, capsys):
    a = write(tmp_path, "a.json", orthant_doc())
    b = write(
        tmp_path,
        "b.json",
        {
            "version": "1",
            "kind": "hpolyhedron",
            "payload": {"rows": [["1", "0"]], "rhs": ["1"], "dim": 2},
        },
    )
    code = main(["--format", "json", "intersect", a, b])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["hpolyhedron"]["rows"]) == 3


def test_asymptote_command(tmp_path, capsys, monkeypatch):
    # the verdict is read from the one distance the report prints
    calls = []

    def counted(*args):
        calls.append(args)
        return distance_to_manifold(*args)

    for module in (cli, asymptotes):
        monkeypatch.setattr(module, "distance_to_manifold", counted)
    set_path = write(tmp_path, "set.json", hyperbola_doc())
    manifold = write(
        tmp_path,
        "m.json",
        {
            "version": "1",
            "kind": "manifold",
            "payload": {"rows": [["0", "1"]], "rhs": ["0"]},
        },
    )
    code = main(["--format", "json", "asymptote", set_path, manifold])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["is_f_asymptote"] is True
    assert out["distance_kind"] == "zero_evidence"
    assert len(calls) == 1


def test_gallery_list_and_run(tmp_path, capsys):
    code = main(["--format", "json", "gallery", "list"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "hyperbola_set" in out["cases"]

    code = main(["--format", "json", "gallery", "run", "orthant"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["all_passed"] is True


def test_a_failed_gallery_replay_exits_5(capsys, monkeypatch):
    # a self-check that fails is a fault of the program, not an empty input
    failing = gallery.CaseReport(
        "orthant", False, (gallery.CheckResult("label", False, "FW", "NotFW"),), ()
    )
    monkeypatch.setattr(gallery, "run_all", lambda: [failing])
    code = main(["--format", "json", "gallery", "run", "all"])
    out = json.loads(capsys.readouterr().out)
    assert code == 5
    assert out["all_passed"] is False


def test_gallery_unknown_name_errors(capsys):
    code = main(["gallery", "run", "nonexistent"])
    assert code == 3


def test_json_reports_are_stable(tmp_path, capsys):
    set_path = write(tmp_path, "set.json", orthant_doc())
    q_path = write(tmp_path, "q.json", quad_doc([["2", "0"], ["0", "2"]]))
    main(["--format", "json", "--seed", "7", "solve", set_path, q_path])
    first = capsys.readouterr().out
    main(["--format", "json", "--seed", "7", "solve", set_path, q_path])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["seed"] == 7


def test_size_cap_exit_code(tmp_path):
    doc = {
        "version": "1",
        "kind": "hpolyhedron",
        "payload": {"rows": [["1"] * 11], "rhs": ["1"], "dim": 11},
    }
    set_path = write(tmp_path, "p.json", doc)
    code = main(["decompose", set_path])
    assert code == 4


def test_conversion_past_the_budget_exits_4(tmp_path, capsys):
    # the product of three 20-gons in R^6: only 60 rows, but its 8,000
    # vertices need more work than the double description budget, which
    # stops the conversion after about 5 s on a 2-CPU box.  Each 20-gon is
    # tangent to the unit circle at (+-1, 0), (0, +-1), (+-3/5, +-4/5),
    # (+-4/5, +-3/5), (+-5/13, +-12/13) and (+-12/13, +-5/13).
    points = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for a, b in (("3/5", "4/5"), ("5/13", "12/13")):
        for x, y in ((a, b), (b, a)):
            points += [(sx + x, sy + y) for sx in ("", "-") for sy in ("", "-")]
    rows = [["0"] * 2 * i + [str(x), str(y)] + ["0"] * (4 - 2 * i)
            for i in range(3) for x, y in points]
    doc = {
        "version": "1",
        "kind": "hpolyhedron",
        "payload": {"rows": rows, "rhs": ["1"] * 60, "dim": 6},
    }
    set_path = write(tmp_path, "p.json", doc)
    start = time.perf_counter()
    code = main(["decompose", set_path])
    assert code == 4 and time.perf_counter() - start < 30
    assert "size cap exceeded" in capsys.readouterr().err


def test_empty_system_past_the_lp_budget_exits_4(tmp_path, capsys):
    # x <= -k for k = 1..2999 and x >= 0: the conversion finds no vertex
    # after a few units of work per row, but the Farkas certificate's
    # exact LP would build a tableau of 3,000 x 6,003 Fractions, past the
    # budget, so it is refused before it is built
    rows = [["1"]] * 2999 + [["-1"]]
    rhs = [str(-k) for k in range(1, 3000)] + ["0"]
    doc = {"version": "1", "kind": "hpolyhedron", "payload": {"rows": rows, "rhs": rhs, "dim": 1}}
    set_path = write(tmp_path, "p.json", doc)
    start = time.perf_counter()
    code = main(["decompose", set_path])
    assert code == 4 and time.perf_counter() - start < 10
    assert "exact LP" in capsys.readouterr().err


def ball_doc():
    return {
        "version": "1",
        "kind": "motzkin",
        "payload": {
            "compact": {"kind": "ball", "center": ["0", "0"], "radius": "1"},
            "cone": {"kind": "polyhedral", "generators": [["0", "1"]], "dim": 2},
        },
    }


@pytest.mark.parametrize("tolerance", ["-1", "0", "1e-300", "nan", "inf"])
def test_solve_rejects_unusable_tolerance(tmp_path, capsys, tolerance):
    # 1e-300 rounds to 0 at a denominator of at most 10^15; before the check
    # the non-positive values looped forever in the ball polish step
    set_path = write(tmp_path, "ball.json", ball_doc())
    q_path = write(tmp_path, "q.json", quad_doc([["2", "0"], ["0", "2"]], ["-6", "0"], "9"))
    with pytest.raises(SystemExit) as exc:
        main([f"--tolerance={tolerance}", "solve", set_path, q_path])
    assert exc.value.code == 2
    assert "tolerance" in capsys.readouterr().err


def test_solve_ball_with_tolerance(tmp_path, capsys):
    set_path = write(tmp_path, "ball.json", ball_doc())
    q_path = write(tmp_path, "q.json", quad_doc([["2", "0"], ["0", "2"]], ["-6", "0"], "9"))
    code = main(["--format", "json", "--tolerance", "1e-6", "solve", set_path, q_path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "attained"
    # the bracket is part of the report: a certified bound equal to the value,
    # so the verdict is exact, with its own justification
    assert out["exact"] is True
    assert out["value"] == out["lower_bound"] == "4" and out["point"] == ["1", "0"]
    assert out["justification"].startswith("exact bracket of width 0")


def test_main_calls_in_one_process_match_cold_runs(tmp_path, capsys):
    # the parser is built once per process, so no argument of one call may
    # reach the next: each in-process call must print what a fresh
    # interpreter prints for the same arguments
    set_path = write(tmp_path, "ball.json", ball_doc())
    # the squared distance to (3, -3), least at an irrational point of the set
    q_path = write(tmp_path, "q.json", quad_doc([["2", "0"], ["0", "2"]], ["-6", "6"], "18"))
    calls = [
        ["--format", "json", "--tolerance", "0", "solve", set_path, q_path],
        ["--format", "json", "--tolerance", "0.01", "--seed", "5", "solve", set_path, q_path],
        ["--format", "json", "solve", set_path, q_path],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    seen = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        cold = subprocess.run([sys.executable, "-m", "fwsets.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (code, captured.out, captured.err) == (cold.returncode, cold.stdout, cold.stderr)
        seen.append((code, captured.out))
    assert seen[0][0] == 2 and seen[1][0] == seen[2][0] == 0
    # the tolerance and the seed show in the report, so a leaked one would be seen
    assert seen[1][1] != seen[2][1]


def test_ball_solve_is_the_same_under_any_hash_seed(tmp_path):
    # floats choose the multipliers of a ball bracket, so its report must
    # not depend on the interpreter: two hash seeds give the same bytes
    set_path = write(tmp_path, "ball.json", {"version": "1", "kind": "motzkin", "payload": {
        "compact": {"kind": "ball", "center": ["-2", "-2", "1"], "radius": "2"},
        "cone": {"kind": "polyhedral", "generators": [["-2", "1", "1"]], "dim": 3},
    }})
    q_path = write(
        tmp_path, "q.json", quad_doc([[6, -2, 5], [-2, 10, 0], [5, 0, 10]], [-2, -4, -1])
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run(
            [sys.executable, "-m", "fwsets.cli", "--format", "json", "solve", set_path, q_path],
            env=env, capture_output=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["verdict"] == "attained" and report["exact"] is False


@pytest.mark.parametrize("huge", [True, False], ids=("400_digits", "tiny_radius"))
def test_a_ball_past_the_float_range_answers_without_a_traceback(tmp_path, capsys, huge):
    # a ball plus a 2-generator cone in R^3: with a 400-digit centre and
    # linear term, drawn from a fixed seed, the squared norms the multiplier
    # search reads as floats overflow; with radius 1e-200 its cube underflows
    # to 0.  The first crashed with OverflowError, the second with
    # ZeroDivisionError, both as exit 1
    rng = random.Random(24)

    def big():
        return str(rng.choice((-1, 1)) * rng.randrange(10**399, 10**400))

    if huge:
        center, linear, radius = [big() for _ in range(3)], [big() for _ in range(3)], "2"
    else:
        center, linear, radius = ["1", "2", "3"], ["5", "-7", "11"], f"1/{10**200}"
    set_path = write(tmp_path, "ball.json", {"version": "1", "kind": "motzkin", "payload": {
        "compact": {"kind": "ball", "center": center, "radius": radius},
        "cone": {"kind": "polyhedral", "generators": [["1", "0", "1"], ["0", "1", "-1"]]},
    }})
    q_path = write(tmp_path, "q.json", quad_doc([["3", "1", "0"], ["1", "2", "0"], ["0", "0", "2"]], linear))
    code = main(["--format", "json", "solve", set_path, q_path])
    captured = capsys.readouterr()
    assert code in (0, 3), captured.err
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["verdict"] in ("attained", "unknown")


# ---------------------------------------------------------------------------
# one report path: commands compute, main stamps and emits
# ---------------------------------------------------------------------------


def subspace_doc(basis):
    return {"version": "1", "kind": "subspace", "payload": {"basis": basis}}


def manifold_doc(rows, rhs):
    return {"version": "1", "kind": "manifold", "payload": {"rows": rows, "rhs": rhs}}


def polytope_plus_ray_docs():
    """The segment [(0, 0), (1, 0)] plus the ray (1, 1): a Motzkin document
    and its inequality form y >= 0, 0 <= x - y <= 1."""
    motzkin = {
        "version": "1",
        "kind": "motzkin",
        "payload": {
            "compact": {"kind": "polytope", "vertices": [["0", "0"], ["1", "0"]]},
            "cone": {"kind": "polyhedral", "generators": [["1", "1"]], "dim": 2},
        },
    }
    hpoly = {
        "version": "1",
        "kind": "hpolyhedron",
        "payload": {"rows": [["0", "-1"], ["-1", "1"], ["1", "-1"]], "rhs": ["0", "0", "1"]},
    }
    return motzkin, hpoly


def test_every_json_report_carries_command_and_seed(tmp_path, capsys):
    orthant = write(tmp_path, "orthant.json", orthant_doc())
    q_path = write(tmp_path, "q.json", quad_doc([["2", "0"], ["0", "2"]]))
    plane = write(tmp_path, "plane.json", subspace_doc([["1", "0"]]))
    line = write(tmp_path, "line.json", manifold_doc([["0", "1"]], ["-1"]))
    motzkin = write(tmp_path, "motzkin.json", polytope_plus_ray_docs()[0])
    calls = [
        ["solve", orthant, q_path],
        ["classify", orthant],
        ["decompose", orthant],
        ["project", orthant, "--coords", "1"],
        ["intersect", motzkin, plane],
        ["asymptote", orthant, line],
        ["gallery", "list"],
        ["gallery", "run", "orthant"],
    ]
    for argv in calls:
        code = main(["--format", "json", "--seed", "11", *argv])
        out = capsys.readouterr().out
        report = json.loads(out)  # exactly one JSON object
        assert code == 0, argv
        assert (report["command"], report["seed"]) == (argv[0], 11)


def test_unsupported_project_and_intersect_print_nothing_on_stdout(tmp_path, capsys):
    hyperbola = write(tmp_path, "hyperbola.json", hyperbola_doc())
    orthant = write(tmp_path, "orthant.json", orthant_doc())
    motzkin = write(tmp_path, "motzkin.json", polytope_plus_ray_docs()[0])
    for argv, message in [
        (["project", hyperbola, "--coords", "1"], "projection is only exact"),
        (["intersect", orthant, motzkin], "unsupported intersection combination"),
    ]:
        assert main(["--format", "json", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize("which", [0, 1], ids=["motzkin", "hpolyhedron"])
def test_project_coords_are_a_set(tmp_path, capsys, which):
    # the Motzkin branch once swapped axes for 2,1 and built a 2-D diagonal for 1,1
    set_path = write(tmp_path, "set.json", polytope_plus_ray_docs()[which])
    reports = {}
    for coords in ("1,2", "2,1", "1,1,2", "1", "1,1"):
        assert main(["--format", "json", "project", set_path, "--coords", coords]) == 0
        reports[coords] = capsys.readouterr().out
    assert reports["2,1"] == reports["1,1,2"] == reports["1,2"]
    assert reports["1,1"] == reports["1"]


def vpoly_and_motzkin_twin():
    """A segment plus a ray and a line in R^3, as a V-form and as the
    Motzkin set it reads as."""
    vertices = [["0", "0", "0"], ["1", "0", "0"]]
    vpoly = {
        "version": "1",
        "kind": "vpolyhedron",
        "payload": {"vertices": vertices, "rays": [["0", "1", "0"]], "lineality": [["1", "0", "1"]]},
    }
    gens = [["0", "1", "0"], ["1", "0", "1"], ["-1", "0", "-1"]]
    twin = {
        "version": "1",
        "kind": "motzkin",
        "payload": {
            "compact": {"kind": "polytope", "vertices": vertices},
            "cone": {"kind": "polyhedral", "generators": gens, "dim": 3},
        },
    }
    return vpoly, twin


def test_vpolyhedron_documents_read_as_their_motzkin_twin(tmp_path, capsys):
    vpoly, twin = vpoly_and_motzkin_twin()
    assert parse(json.dumps(vpoly)) == ("vpolyhedron", parse(json.dumps(twin))[1])
    q_path = write(
        tmp_path, "q.json", quad_doc([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [-4, 2, 0], "5")
    )
    plane = write(tmp_path, "plane.json", subspace_doc([["1", "0", "0"], ["0", "1", "0"]]))
    far = write(tmp_path, "far.json", manifold_doc([["0", "1", "0"]], ["-1"]))
    outputs = []
    for doc in (vpoly, twin):
        set_path = write(tmp_path, "set.json", doc)
        seen = []
        for argv in (
            ["solve", set_path, q_path],
            ["classify", set_path],
            ["project", set_path, "--coords", "1,3"],
            ["intersect", set_path, plane],
            ["asymptote", set_path, far],
        ):
            code = main(["--format", "json", *argv])
            seen.append((code, capsys.readouterr()))
        outputs.append(seen)
    assert outputs[0] == outputs[1]
    assert [code for code, _ in outputs[0]] == [0] * 5
    solved = json.loads(outputs[0][0][1].out)
    # (x - 2)^2 + (y + 1)^2 + z^2, least at (3/2, 0, 1/2)
    assert (solved["verdict"], solved["value"]) == ("attained", "3/2")


def test_empty_vpolyhedron_exits_1(tmp_path, capsys):
    doc = {"version": "1", "kind": "vpolyhedron", "payload": {"vertices": [], "dim": 2}}
    set_path = write(tmp_path, "set.json", doc)
    assert main(["classify", set_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "empty set" in captured.err


def test_exact_polytope_reports_claim_no_multiplier_check(tmp_path, capsys):
    # the polytope path solves each face's stationarity system and keeps the
    # least value; it checks no multipliers, so its report must not say so
    q_path = write(tmp_path, "q.json", quad_doc([["2", "0"], ["0", "2"]], ["-6", "2"], "0"))
    for doc in polytope_plus_ray_docs():
        set_path = write(tmp_path, "set.json", doc)
        assert main(["--format", "json", "solve", set_path, q_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "attained" and report["exact"] is True
        assert "multiplier" not in report["justification"]
        assert "stationary points of the faces" in report["justification"]


def test_every_gallery_set_is_a_classify_input(tmp_path, capsys):
    # a case file's set is an ordinary document; gallery.evidence() is keyed
    # by set value, so a freshly parsed copy gets the case's labels (witnesses
    # too)
    folder = resources.files("fwsets") / "gallery_data"
    names = sorted(p.name for p in folder.iterdir() if p.name.endswith(".json"))
    assert len(names) == 9
    for name in names:
        case = json.loads((folder / name).read_text(encoding="utf-8"))
        path = tmp_path / name
        path.write_text(json.dumps(case["set"]), encoding="utf-8")
        assert main(["--format", "json", "classify", str(path)]) == 0, name
        report = json.loads(capsys.readouterr().out)
        labels = (report["attainment"]["label"], report["quasi_attainment"]["label"])
        assert labels == (case["expected"]["classify_fw"], case["expected"]["classify_qfw"]), name


# ---------------------------------------------------------------------------
# the one field table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "compact",
    [
        {"kind": "points", "points": [["0", "0"], ["1"]]},
        {"kind": "polytope", "vertices": [["0", "0"], ["1"]]},
    ],
)
def test_ragged_compact_parts_are_refused(tmp_path, capsys, compact):
    build = FinitePointSet if compact["kind"] == "points" else PolytopeK
    with pytest.raises(DimensionMismatchError):
        build([(0, 0), (1,)])
    doc = {
        "version": "1",
        "kind": "motzkin",
        "payload": {"compact": compact, "cone": {"kind": "polyhedral", "generators": [["1", "0"]]}},
    }
    set_path = write(tmp_path, "set.json", doc)
    q_path = write(tmp_path, "q.json", quad_doc([["1", "0"], ["0", "1"]]))
    for argv in (["classify", set_path], ["solve", set_path, q_path]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "(at $.payload.compact)" in captured.err


def test_an_affine_image_map_starts_in_the_inner_dimension(tmp_path, capsys):
    # an R^3 -> R^2 map over an inequality system in R^2
    inner = {"kind": "hpolyhedron", "rows": [["-1", "0"], ["0", "-1"]], "rhs": ["0", "0"]}
    matrix = [["1", "0", "0"], ["0", "1", "0"]]
    with pytest.raises(DimensionMismatchError):
        AffineImageSet(AffineMap(matrix), HPolyhedron([(-1, 0), (0, -1)], (0, 0)))
    doc = {"version": "1", "kind": "affine_image", "payload": {"map": {"matrix": matrix}, "inner": inner}}
    assert main(["classify", write(tmp_path, "set.json", doc)]) == 2
    assert "(at $.payload)" in capsys.readouterr().err


def _case_files():
    folder = resources.files("fwsets") / "gallery_data"
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(folder.iterdir()) if p.name.endswith(".json")]


def test_every_field_a_kind_reads_has_a_parser():
    shapes = [(required, optional) for _, required, optional in documents.KINDS.values()]
    shapes += [(required, optional) for _, required, optional in gallery._CHECKS.values()]
    shapes += [(required, optional) for _, required, optional in gallery._REGISTRATIONS.values()]
    shapes.append(gallery._CASE)
    missing = {name for shape in shapes for names in shape for name in names} - set(documents.FIELDS)
    assert missing == set()


def _one_document_of_each_kind():
    h = {"rows": [["-1", "0"], ["0", "-1"]], "rhs": ["0", "0"], "dim": 2}
    node = {"kind": "hpolyhedron", **h}
    q = {"matrix": [["1", "0"], ["0", "1"]], "linear": ["0", "1"], "constant": "-1"}
    soc = {"dim": 3, "axis": ["0", "0", "1"], "aperture": "1/2"}
    payloads = {
        "hpolyhedron": h,
        "vpolyhedron": {"vertices": [["0", "0"]], "rays": [["1", "0"]], "lineality": [["0", "1"]], "dim": 2},
        "motzkin": {"compact": {"kind": "ball", "center": ["0", "0", "0"], "radius": "1"},
                    "cone": {"kind": "second_order", **soc}},
        "quad_sublevel": {"base": node, "constraints": [q], "sample_point": ["0", "0"]},
        "epigraph": {"function": "parabola_exp"},
        "product": {"factors": [node, node]},
        "union": {"members": [node, node]},
        "intersection": {"members": [node, node]},
        "affine_image": {"map": {"matrix": [["1", "1"]], "offset": ["2"]}, "inner": node},
        "quadratic": q,
        "cone": {"generators": [["1", "0"]], "dim": 2},
        "second_order_cone": soc,
        "affine_map": {"matrix": [["1", "0"]], "offset": ["1"]},
        "manifold": {"rows": [["0", "1"]], "rhs": ["1"]},
        "subspace": {"basis": [["1", "0"]], "dim": 2},
    }
    docs = [{"version": "1", "kind": kind, "payload": payload} for kind, payload in payloads.items()]
    docs.append({"version": "1", "kind": "manifold", "payload": {"point": ["0", "1"], "basis": [["1", "0"]]}})
    for compact in ({"kind": "points", "points": [["0", "0"]]}, {"kind": "polytope", "vertices": [["0", "0"]]}):
        cone = {"kind": "polyhedral", "generators": [["1", "0"]], "dim": 2}
        docs.append({"version": "1", "kind": "motzkin", "payload": {"compact": compact, "cone": cone}})
    return docs


def test_every_table_entry_is_read_by_some_kind(monkeypatch):
    docs = _one_document_of_each_kind()
    assert {doc["kind"] for doc in docs} == set(documents.DOCUMENT_KINDS)
    read = set()
    for name, parser in list(documents.FIELDS.items()):
        def spy(raw, path, ctx, name=name, parser=parser):
            read.add(name)
            return parser(raw, path, ctx)

        monkeypatch.setitem(documents.FIELDS, name, spy)
    for doc in docs:
        parse(json.dumps(doc))
    for data in _case_files():
        gallery.parse_case(data)
    assert set(documents.FIELDS) - read == set()


@pytest.mark.parametrize(
    "name, edit",
    [
        ("luo_zhang_ex1", lambda s: s["payload"]["base"].update(dim=2.0)),
        ("luo_zhang_ex1", lambda s: s["payload"]["constraints"][1]["matrix"][2].append("1/0")),
        ("luo_zhang_ex1", lambda s: s["payload"]["base"].update(kind="round")),
        ("orthant", lambda s: s["payload"]["rows"][1].__setitem__(1, "x")),
        ("orthant", lambda s: s["payload"].update(extra=1)),
        ("parabola", lambda s: s.update(version="2")),
        ("hyperbola_set", lambda s: s["payload"].update(sample_point=["1"])),
    ],
)
def test_a_case_set_reports_the_path_of_its_document(name, edit):
    case = next(data for data in _case_files() if data["name"] == name)
    edit(case["set"])
    with pytest.raises(DocumentError) as alone:
        parse(json.dumps(case["set"]))
    with pytest.raises(DocumentError) as inside:
        gallery.parse_case(case)
    assert inside.value.path == "$.set" + alone.value.path[1:]
    assert str(inside.value).endswith(f"{inside.value.path}: {alone.value}")


# ---------------------------------------------------------------------------
# documents both ways: serialize writes every kind parse reads
# ---------------------------------------------------------------------------


def _gallery_documents():
    """Every document in the case files: sets, objectives and battery manifolds."""
    docs = []
    for data in _case_files():
        docs.append(data["set"])
        docs += [doc for doc in data.get("objectives", ()) if "builtin" not in doc]
        docs += [entry["manifold"] for entry in data.get("battery", {}).values()]
    return docs


def test_every_gallery_document_is_written_as_it_is_read():
    docs = _gallery_documents()
    assert len(docs) == 31
    for doc in docs:
        kind, value = parse(json.dumps(doc))
        text = serialize(kind, value)
        assert parse(text) == (kind, value), doc["kind"]
        assert serialize(*parse(text)) == text, doc["kind"]


def _line():
    return HPolyhedron((), (), 1)


def _orthant():
    return HPolyhedron([(-1, 0), (0, -1)], (0, 0))


# name: (kind, the value), built when a test asks
_WRITTEN = {
    "motzkin_soc": lambda: (
        "motzkin",
        MotzkinSet(PolytopeK([(0, 0, 0), (1, 0, 0)]), SecondOrderCone(3, (0, 0, 1), F(1, 2))),
    ),
    "motzkin_ball": lambda: ("motzkin", MotzkinSet(Ball((0, 1), 2), PolyCone.from_generators([(1, 0)]))),
    "orthant_x_line": lambda: ("product", ProductSet((_orthant(), _line()))),
    "hyperbola_x_line": lambda: ("product", ProductSet((gallery.hyperbola_set(), _line()))),
    "luo_zhang_x_line": lambda: ("product", ProductSet((gallery.luo_zhang_set(), _line()))),
    "union": lambda: ("union", UnionSet((_orthant(), _orthant()))),
    "intersection": lambda: ("intersection", IntersectionSet((_orthant(), gallery.parabola_set()))),
    "affine_image": lambda: ("affine_image", AffineImageSet(AffineMap([[1, 1]]), _orthant())),
    "subspace": lambda: ("subspace", subspace([(1, 0, 2), (0, 1, 0)])),
    # a section keeps the H-form its cone was built from, which the
    # document does not carry
    "section": lambda: (
        "motzkin",
        intersect_subspace_motzkin(
            MotzkinSet(
                PolytopeK([(0, 0, 0), (1, 0, 0)]),
                PolyCone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            ),
            subspace([(1, 0, 0), (0, 1, 1)]),
        ),
    ),
    # written by its equations, which solve for another point and basis
    "point_basis_manifold": lambda: ("manifold", AffineManifold((0, 1), [(1, 1)])),
    # the whole space is written as one zero row, which gives its dimension
    "whole_space_manifold": lambda: ("manifold", AffineManifold((0, 1), [(1, 1), (0, 1)])),
}


@pytest.mark.parametrize("name", sorted(_WRITTEN))
def test_compound_and_conic_documents_round_trip(name):
    kind, value = _WRITTEN[name]()
    text = serialize(kind, value)
    assert parse(text) == (kind, value)
    assert serialize(*parse(text)) == text


def test_a_vpolyhedron_is_written_and_reads_back_as_its_motzkin_set():
    _, twin = vpoly_and_motzkin_twin()
    vpoly = VPolyhedron((vec((0, 0, 0)), vec((1, 0, 0))), (vec((0, 1, 0)),), (vec((1, 0, 1)),), 3)
    assert parse(serialize("vpolyhedron", vpoly)) == ("vpolyhedron", parse(json.dumps(twin))[1])


@pytest.mark.parametrize("kind", ["manifold_basis", "sphere"])
def test_only_document_kinds_are_written(kind):
    with pytest.raises(DocumentError, match="cannot serialize"):
        serialize(kind, _orthant())


# ---------------------------------------------------------------------------
# a document of the wrong kind is refused at $.kind
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("matrix", [[["1", "0"], ["0", "1"]], [["1", "x"], ["0"]]], ids=["well_formed", "malformed"])
def test_a_document_of_the_wrong_kind_exits_2_at_its_kind(tmp_path, capsys, matrix):
    # the kind is checked before the payload is read, so a malformed payload
    # of the wrong kind is reported by its kind
    q_path = write(tmp_path, "q.json", quad_doc(matrix))
    set_path = write(tmp_path, "set.json", orthant_doc())
    for argv in (["classify", q_path], ["solve", q_path, q_path], ["solve", set_path, set_path]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(at $.kind)" in captured.err and "expected one of" in captured.err
    with pytest.raises(DocumentError) as exc:
        parse(json.dumps(quad_doc(matrix)), documents.SET_KINDS)
    assert exc.value.path == "$.kind"


# ---------------------------------------------------------------------------
# text, the default format
# ---------------------------------------------------------------------------


def _square_plus_orthant(tmp_path):
    doc = {
        "version": "1",
        "kind": "motzkin",
        "payload": {
            "compact": {"kind": "polytope", "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
            "cone": {"kind": "polyhedral", "generators": [["1", "0"], ["0", "1"]], "dim": 2},
        },
    }
    return write(tmp_path, "set.json", doc)


def test_solve_prints_text_by_default(tmp_path, capsys):
    # |x|^2 - 2 x1 - 4 x2 is least at (1, 2) with value -5
    q_path = write(tmp_path, "q.json", quad_doc([["2", "0"], ["0", "2"]], ["-2", "-4"]))
    assert main(["solve", _square_plus_orthant(tmp_path), q_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "verdict: attained" in lines and "value: -5" in lines
    keys = [line.split(":")[0] for line in lines]
    assert keys == sorted(keys) and "command" in keys


def test_classify_text_indents_each_verdict(tmp_path, capsys):
    assert main(["classify", _square_plus_orthant(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # keys in sorted order: "command" is the first after the attainment block
    block = lines[lines.index("attainment:") + 1 : lines.index("command: classify")]
    assert "  label: FW" in block and all(line.startswith("  ") for line in block)


def test_gallery_run_prints_text_by_default(capsys):
    assert main(["gallery", "run", "orthant"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[PASS] orthant"
    assert len(lines) > 1 and all(line.startswith("    ok ") for line in lines[1:])


# ---------------------------------------------------------------------------
# compound set documents through classify
# ---------------------------------------------------------------------------


# name in _WRITTEN: (attainment label, quasi-attainment label), exit code
_CLASSIFIED = {
    "orthant_x_line": (("FW", "qFW"), 0),
    "hyperbola_x_line": (("NotFW", "NotQFW"), 0),
    "luo_zhang_x_line": (("NotFW", "qFW"), 0),
    "union": (("FW", "qFW"), 0),
    "intersection": (("Unknown", "Unknown"), 3),
    "affine_image": (("FW", "qFW"), 0),
}


@pytest.mark.parametrize("name", list(_CLASSIFIED))
def test_compound_set_documents_classify(tmp_path, capsys, name):
    labels, code = _CLASSIFIED[name]
    path = tmp_path / "set.json"
    path.write_text(serialize(*_WRITTEN[name]()), encoding="utf-8")
    assert main(["--format", "json", "classify", str(path)]) == code
    report = json.loads(capsys.readouterr().out)
    assert (report["attainment"]["label"], report["quasi_attainment"]["label"]) == labels


def test_python_m_fwsets_runs_the_command_line(capsys):
    # `python -m fwsets` is the `fwsets` command: the same exit code and
    # output as main, on a good call and on a refused one
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    for argv in (["--format", "json", "gallery", "list"], ["solve"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        run = subprocess.run([sys.executable, "-m", "fwsets", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stdout, run.stderr) == (code, captured.out, captured.err)
        assert code == (0 if argv[-1] == "list" else 2)
