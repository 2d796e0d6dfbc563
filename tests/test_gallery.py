"""Tests for the counterexample gallery."""

import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from fwsets import gallery
from fwsets.asymptotes import QuadSublevel, contains
from fwsets.errors import FwsetsError
from fwsets.numeric import surd, surd_cmp
from fwsets.polyhedra import HPolyhedron
from fwsets.quadratics import Quadratic

F = Fraction


def test_every_case_passes():
    reports = gallery.run_all()
    for report in reports:
        failing = [c for c in report.checks if not c.passed]
        assert not failing, f"{report.name}: {failing}"
    assert len(reports) == 9


def test_unknown_case_raises():
    with pytest.raises(FwsetsError):
        gallery.run_case("no_such_case")


def test_reports_carry_references():
    for report in gallery.run_all():
        assert report.references


def test_evidence_monotone_and_above_infimum():
    # non-attainment evidence decreases strictly and never undershoots the
    # claimed infimum
    cases = {
        "luo_zhang_ex1": (gallery.luo_zhang_set(), gallery.luo_zhang_objective(),
                          gallery.luo_zhang_curve([F(1, 2**k) for k in range(7)])),
        "cylinder_parabolic": (
            gallery.cylinder_parabolic_set(),
            gallery.cylinder_parabolic_objective(),
            gallery.cylinder_parabolic_curve([F(1, 2**k) for k in range(7)]),
        ),
        "program_p": (
            gallery.program_p_set(),
            gallery.ReducedCylinderObjective(),
            gallery.program_p_curve([F(1, 2**k) for k in range(7)]),
        ),
    }
    for name, (fset, obj, pts) in cases.items():
        vals = [obj.evaluate(p) for p in pts]
        assert all(a > b for a, b in zip(vals, vals[1:])), name
        assert all(v > -F(1, 10**9) for v in vals), name


def test_case_sets_exports_all_cases():
    sets = gallery.case_sets()
    assert set(sets) == set(gallery.list_cases())


def test_theorem_brackets_hold_the_exact_minima():
    fset = gallery.luo_zhang_theorem_set()
    width = F(1, 10**9)
    # (3 - sqrt 2)^2 = 11 - 6 sqrt 2 at (sqrt 2, 0); -1 at (1, -1); -9/4 at
    # (+-sqrt(7)/2, -1/2): the last two are hard cases with a stationary line
    minima = (surd(11, -6, 2), surd(-1), surd(F(-9, 4)))
    for q, minimum in zip(gallery.luo_zhang_theorem_battery(), minima):
        lower, upper, witness = gallery._lagrangian_bracket(fset, q, width)
        assert surd_cmp(surd(lower), minimum) <= 0 <= surd_cmp(surd(upper), minimum)
        assert upper - lower <= width
        assert contains(fset, witness) is True
        assert upper == q.evaluate(witness)


def _sphere_point(r, ts):
    # inverse stereographic projection: a rational point at radius r
    d = 1 + sum(t * t for t in ts)
    return tuple(r * 2 * t / d for t in ts) + (r * (d - 2) / d,)


def test_lagrangian_bracket_on_seeded_box_disk_sets():
    rng = random.Random(61)
    closed = 0
    for case in range(24):
        n = 2 + case % 2
        half = rng.randint(1, 3)
        radius = F(rng.randint(1, 4 * half), rng.randint(1, 3))
        rows = [[s if j == i else 0 for j in range(n)] for i in range(n) for s in (1, -1)]
        box = HPolyhedron(rows, [half] * (2 * n))
        ident = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        disk = Quadratic.build(ident, [0] * n, -radius * radius)
        fset = QuadSublevel(box, (disk,), sample_point=(F(0),) * n)
        if case % 4 < 2:  # convex: a Gram matrix, possibly singular
            m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            a = [[sum(r[i] * r[j] for r in m) for j in range(n)] for i in range(n)]
        else:
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        q = Quadratic.build(a, [rng.randint(-4, 4) for _ in range(n)], rng.randint(-3, 3))
        lower, upper, witness = gallery._lagrangian_bracket(fset, q, F(1, 10**9))
        assert contains(fset, witness) is True
        assert upper == q.evaluate(witness)
        members = [_sphere_point(radius, [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)])
                   for _ in range(40)]
        members += [tuple(F(rng.randint(-4 * half, 4 * half), 4) for _ in range(n)) for _ in range(40)]
        members = [y for y in members if contains(fset, y) is True]
        assert members
        assert all(lower <= q.evaluate(y) for y in members)
        if radius <= half:  # the disk lies in the box: the dual is exact
            assert upper - lower <= F(1, 10**9)
            closed += 1
    assert closed >= 12


def _case_data(name):
    return json.loads((resources.files("fwsets") / "gallery_data" / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda d: d["checks"].append({"kind": "no_such_check"}), r"\$\.checks\[6\]\.kind: expected one of"),
        (lambda d: d["checks"][0].update(bogus=1), r"\$\.checks\[0\]: unknown fields \['bogus'\]"),
        (lambda d: d["registrations"][0].update(infimum=0.5), r"\$\.registrations\[0\]\.infimum"),
        (lambda d: d["battery"]["x3_floor"]["manifold"]["payload"].update(rows="x"),
         r"\$\.battery\.x3_floor\.manifold\.payload\.rows"),
        (lambda d: d["checks"][0].update(curve="no_such_curve"), r"\$\.checks\[0\]\.curve"),
    ],
)
def test_case_data_is_checked_not_trusted(edit, where):
    data = _case_data("luo_zhang_ex1")
    edit(data)
    with pytest.raises(FwsetsError, match=rf"gallery case 'luo_zhang_ex1', {where}"):
        gallery.parse_case(data)


def test_a_curve_moved_off_the_set_fails_the_replay():
    data = _case_data("luo_zhang_ex1")
    assert gallery.replay(gallery.parse_case(data)).passed
    data["curves"]["witness"][2]["num"] = [0, 0, "1/2"]  # x3 = t^2/2 < x1^2
    report = gallery.replay(gallery.parse_case(data))
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed][0] == "evidence memberships exact"
