"""Command-line front end.

Subcommands: ``solve``, ``classify``, ``decompose``, ``project``,
``intersect``, ``asymptote``, and ``gallery``.  Inputs are documents (see
:mod:`fwsets.documents`); reports go to stdout as JSON (the stable machine
contract) or a text summary, diagnostics to stderr.  Each ``cmd_*`` returns
``(report, exit code)`` and prints nothing on success; :func:`main` alone
stamps a report with ``command`` and ``seed`` and emits it.  A report of None
means the command printed its own output (the gallery's text listing) or
only a line on stderr.

Exit codes: 0 success, 1 empty or infeasible input, 2 parse error,
3 verdict Unknown, 4 size cap exceeded, 5 internal error (an exception
that is not an :class:`errors.FwsetsError`, or a gallery replay whose
checks fail, so a fault never reads as an empty set).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache

from . import gallery
from .affine import AffineManifold, AffineMap
from .asymptotes import (
    ambient_dim,
    asymptote_verdict,
    classify,
    distance_to_manifold,
)
from .documents import SET_KINDS, format_rational, format_vector, parse, payload_of
from .errors import (
    DimensionMismatchError,
    DocumentError,
    EmptySetError,
    FwsetsError,
    SizeCapError,
)
from .linalg import unit
from .motzkin import MotzkinSet, decompose
from .polyhedra import HPolyhedron, intersect as intersect_h, project_fm
from .setops import (
    affine_image,
    intersect_fwm,
    intersect_subspace_motzkin,
    minimize_on_descriptor,
)

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_PARSE = 2
EXIT_UNKNOWN = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5

def _load(path: str, want):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text, want)
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}", exc.line, exc.column, exc.path) from None


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1))
        return
    for line in _text_lines(report):
        print(line)


def _text_lines(report, indent=0):
    pad = "  " * indent
    lines = []
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_text_lines(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def _verdict_report(verdict) -> dict:
    if verdict.kind == "attained":
        exact = getattr(verdict, "exact", True)
        lower = getattr(verdict, "lower_bound", None)
        if lower is None:
            justification = (
                "bounded-below quadratics on polyhedral data attain their "
                "infima (Frank-Wolfe / Kummer); the value is the least over "
                "the exact stationary points of the faces"
            )
        elif exact:
            justification = (
                "exact bracket of width 0: the weak-duality lower bound equals "
                "q at the member point"
            )
        else:
            justification = (
                "exact bracket: the value is q at the member point, and a "
                "weak-duality lower bound lies within the tolerance below it"
            )
        report = {
            "verdict": "attained",
            "value": format_rational(verdict.value),
            "point": format_vector(verdict.point),
            "exact": exact,
            "justification": justification,
        }
        if lower is not None:
            report["lower_bound"] = format_rational(lower)
        return report
    if verdict.kind == "unbounded":
        return {
            "verdict": "unbounded_below",
            "base": format_vector(verdict.base),
            "direction": format_vector(verdict.direction),
            "justification": verdict.note
            or "objective decreases without bound along the certificate ray",
        }
    if verdict.kind == "not_attained":
        return {
            "verdict": "not_attained",
            "infimum": format_rational(verdict.infimum),
            "justification": "strictly decreasing member values approach the infimum",
        }
    report = {"verdict": "unknown", "justification": verdict.reason}
    if getattr(verdict, "lower_bound", None) is not None:
        report["lower_bound"] = format_rational(verdict.lower_bound)
    return report


def _set_report(kind: str, value, justification: str) -> dict:
    return {kind: payload_of(kind, value), "justification": justification}


def cmd_solve(args):
    _, fset = _load(args.set, SET_KINDS)
    _, quad = _load(args.quadratic, {"quadratic"})
    verdict = minimize_on_descriptor(quad, fset, args.tolerance)
    return _verdict_report(verdict), EXIT_UNKNOWN if verdict.kind == "unknown" else EXIT_OK


def cmd_classify(args):
    _, fset = _load(args.set, SET_KINDS)
    fw, qfw = classify(fset)
    report = {
        "attainment": {"label": fw.label, "justification": fw.justification},
        "quasi_attainment": {"label": qfw.label, "justification": qfw.justification},
    }
    unknown = fw.label == "Unknown" and qfw.label == "Unknown"
    return report, EXIT_UNKNOWN if unknown else EXIT_OK


def cmd_decompose(args):
    _, hpoly = _load(args.hpolyhedron, {"hpolyhedron"})
    justification = (
        "every inequality system splits into a polytope plus its "
        "recession cone (Motzkin/Minkowski-Weyl decomposition)"
    )
    return _set_report("motzkin", decompose(hpoly), justification), EXIT_OK


def cmd_project(args):
    _, fset = _load(args.set, SET_KINDS)
    coords = args.coords
    if max(coords) > ambient_dim(fset):
        raise DimensionMismatchError(f"coordinate {max(coords)} exceeds the dimension")
    if isinstance(fset, HPolyhedron):
        justification = (
            "the image is generated by the kept coordinates of the "
            "set's vertices, rays and lines, converted back to rows exactly"
        )
        return _set_report("hpolyhedron", project_fm(fset, coords), justification), EXIT_OK
    if isinstance(fset, MotzkinSet) and fset.is_polyhedral_cone:
        image = affine_image(fset, AffineMap([unit(fset.dim, c - 1) for c in coords]))
        justification = "coordinate images of compact-plus-cone sums are computed generator-wise"
        return _set_report("motzkin", image, justification), EXIT_OK
    print("projection is only exact for polyhedral data", file=sys.stderr)
    return None, EXIT_UNKNOWN


# (left type, right type, operation, result kind, justification)
_INTERSECTIONS = (
    (HPolyhedron, HPolyhedron, intersect_h, "hpolyhedron",
     "inequality systems intersect by stacking rows"),
    (MotzkinSet, AffineManifold, intersect_subspace_motzkin, "motzkin",
     "subspace sections of compact-plus-cone sums recompose as a polytope plus the intersected cone"),
    (MotzkinSet, MotzkinSet, intersect_fwm, "motzkin",
     "binary intersections stack the two inequality systems and decompose the result"),
)


def cmd_intersect(args):
    _, a = _load(args.left, SET_KINDS)
    _, b = _load(args.right, {*SET_KINDS, "subspace", "manifold"})
    for left, right, operation, kind, justification in _INTERSECTIONS:
        if isinstance(a, left) and isinstance(b, right):
            return _set_report(kind, operation(a, b), justification), EXIT_OK
    print("unsupported intersection combination", file=sys.stderr)
    return None, EXIT_UNKNOWN


def cmd_asymptote(args):
    _, fset = _load(args.set, SET_KINDS)
    _, manifold = _load(args.manifold, {"manifold", "subspace"})
    dist = distance_to_manifold(fset, manifold)
    verdict = asymptote_verdict(dist.kind)
    report = {
        "is_f_asymptote": verdict,
        "justification": (
            "the manifold misses the set while the distance evidence "
            "decreases to zero"
            if verdict
            else "either the set meets the manifold or a positive separation "
            "bound was certified"
            if verdict is False
            else "one leg of the asymptote test is undecided"
        ),
        "distance_kind": dist.kind,
    }
    if dist.kind == "positive":
        report["distance_squared_lower_bound"] = format_rational(dist.lower_bound_sq)
    if dist.kind == "zero_evidence":
        report["closest_distance_squared"] = format_rational(dist.pairs[-1][2])
    return report, EXIT_UNKNOWN if verdict is None else EXIT_OK


def cmd_gallery(args):
    if args.action == "list":
        return {"cases": gallery.list_cases()}, EXIT_OK
    name = args.name or "all"
    reports = gallery.run_all() if name == "all" else [gallery.run_case(name)]
    all_passed = all(r.passed for r in reports)
    code = EXIT_OK if all_passed else EXIT_INTERNAL  # a failed self-check is a fault
    if args.format == "text":
        for r in sorted(reports, key=lambda r: r.name):
            for line in r.lines():
                print(line)
        return None, code
    cases = {
        r.name: {
            "passed": r.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "claimed": c.claimed, "computed": c.computed}
                for c in r.checks
            ],
            "references": list(r.references),
        }
        for r in reports
    }
    return {"cases": cases, "all_passed": all_passed}, code


def _tolerance(text: str) -> Fraction:
    """A finite float rounded to a denominator of at most 10^15; the rounded
    value must be positive (a usage error otherwise, exit code 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"tolerance must be finite, got {text!r}")
    tol = Fraction(value).limit_denominator(10**15)
    if tol <= 0:
        raise argparse.ArgumentTypeError(
            f"tolerance must be positive at a denominator of at most 10^15, got {text!r}"
        )
    return tol


def _coords(text: str) -> list[int]:
    """A comma-separated set of 1-based coordinates, sorted, each once (a
    usage error otherwise, exit code 2)."""
    try:
        coords = sorted({int(c) for c in text.split(",") if c.strip()})
    except ValueError:
        coords = []
    if not coords or coords[0] < 1:
        raise argparse.ArgumentTypeError(f"need comma-separated integers from 1 up, got {text!r}")
    return coords


# built once per process: each parse_args call fills a fresh namespace
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwsets",
        description=(
            "exact attainment analysis for quadratics on compact-plus-cone "
            "sets, with asymptote and projection diagnostics"
        ),
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument(
        "--tolerance",
        type=_tolerance,
        default=None,
        help=(
            "largest width of the exact bracket around a minimum over a ball, "
            "alone or in a union (default 1e-9)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimize a quadratic over a set")
    p.add_argument("set")
    p.add_argument("quadratic")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("classify", help="attainment / quasi-attainment verdicts")
    p.add_argument("set")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="polytope plus recession cone split")
    p.add_argument("hpolyhedron")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("project", help="exact coordinate projection")
    p.add_argument("set")
    p.add_argument("--coords", type=_coords, required=True, help="comma-separated 1-based list")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("intersect", help="intersect two sets (or set and subspace)")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("asymptote", help="flat-asymptote test for a manifold")
    p.add_argument("set")
    p.add_argument("manifold")
    p.set_defaults(func=cmd_asymptote)

    p = sub.add_parser("gallery", help="list or replay the counterexample gallery")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=cmd_gallery)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except DocumentError as exc:
        loc = ""
        if exc.line is not None:
            loc = f" (line {exc.line}, column {exc.column})"
        elif exc.path is not None:
            loc = f" (at {exc.path})"
        print(f"parse error: {exc}{loc}", file=sys.stderr)
        return EXIT_PARSE
    except EmptySetError as exc:
        print(f"empty set: {exc}", file=sys.stderr)
        if exc.certificate is not None:
            print(
                f"infeasibility certificate: {[str(x) for x in exc.certificate]}",
                file=sys.stderr,
            )
        return EXIT_EMPTY
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except FwsetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if report is not None:
        _emit({**report, "command": args.command, "seed": args.seed}, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
