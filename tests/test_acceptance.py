"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configured elsewhere: exact-arithmetic
criteria leave no tolerance band at all; the counterexample replays use the
published evidence threshold 10^-3 and positive truncation minima; the
stationarity residual bound is 10^-8.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from fwsets import gallery
from fwsets.affine import AffineManifold, subspace
from fwsets.asymptotes import (
    classify_fw_set,
    classify_qfw,
    image_closed_1d,
    is_f_asymptote,
    projection_closed,
)
from fwsets.cone_qp import ConeProgram, dom_f, is_bounded_below_on_cone, minimize_over_hpolyhedron
from fwsets.errors import EmptySetError
from fwsets.linalg import dot, unit, vec, zeros
from fwsets.motzkin import (
    FinitePointSet,
    MotzkinSet,
    PolytopeK,
    SecondOrderCone,
    classify_fw,
    decompose,
    inner_linear_term,
    minimize_on_motzkin,
    motzkin_to_vpoly,
)
from fwsets.polyhedra import HPolyhedron, PolyCone, dd_convert, recession_cone
from fwsets.quadratics import Quadratic
from fwsets.setops import cone_intersect_subspace, intersect_subspace_motzkin, order_cancellation_check

F = Fraction


def _report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def _random_feasible_hpoly(rng, n, m):
    rows = []
    rhs = []
    x0 = tuple(F(rng.randint(-2, 2)) for _ in range(n))
    for _ in range(m):
        row = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        if all(c == 0 for c in row):
            row = (F(1),) + row[1:]
        rows.append(row)
        rhs.append(dot(row, x0) + F(rng.randint(0, 3)))
    return HPolyhedron(tuple(rows), tuple(rhs), n)


def _random_quadratic(rng, n, convex_bias=False):
    raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    if convex_bias:
        # Gram form keeps the form nonnegative, biasing toward bounded cases
        raw = [
            [sum(raw[i][k] * raw[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    b = [rng.randint(-3, 3) for _ in range(n)]
    return Quadratic.build(raw, b, rng.randint(-2, 2))


def _integer_scaled(q: Quadratic):
    """All-entry integers (den, A*, b*, c*) with q = (x^T A* x / 2 + b*.x + c*)/den."""
    den = 1
    for row in q.a:
        for v in row:
            den = den * v.denominator // gcd(den, v.denominator)
    for v in q.b:
        den = den * v.denominator // gcd(den, v.denominator)
    den = den * q.c.denominator // gcd(den, q.c.denominator)
    a = [[int(v * den) for v in row] for row in q.a]
    b = [int(v * den) for v in q.b]
    c = int(q.c * den)
    return den, a, b, c


def test_criterion_1_classical_attainment_at_desk_scale():
    """200 bounded-below random programs over inequality systems all attain,
    and each exact witness beats 10^4 random feasible samples."""
    rng = random.Random(20260808)
    start = time.monotonic()
    accepted = 0
    tried = 0
    while accepted < 200:
        tried += 1
        n = rng.randint(1, 4)
        m = rng.randint(2, 6)
        h = _random_feasible_hpoly(rng, n, m)
        mot = decompose(h)
        q = _random_quadratic(rng, n, convex_bias=rng.random() < 0.5)
        prog = ConeProgram(q.a, mot.cone)
        if not all(
            prog.boundedness(inner_linear_term(q, v)).bounded
            for v in mot.compact.vertices
        ):
            continue
        solved = minimize_over_hpolyhedron(q, h)
        assert solved is not None, "bounded program must attain"
        value, point = solved
        assert h.contains(point)
        accepted += 1

        # integer fast path for the 10^4-sample optimality check
        den, a_i, b_i, c_i = _integer_scaled(q)
        vnum, vden = value.numerator, value.denominator
        verts = mot.compact.vertices
        rays = mot.cone.generators
        vert_den = 1
        for v in verts:
            for x in v:
                vert_den = vert_den * x.denominator // gcd(vert_den, x.denominator)
        verts_int = [[int(x * vert_den) for x in v] for v in verts]
        rays_int = [[int(x) for x in r] for r in rays]
        big_d = 8 * vert_den
        for _ in range(10_000):
            weights = [rng.randint(0, 4) for _ in verts_int]
            if not any(weights):
                weights[0] = 1
            wsum = sum(weights)
            p = [0] * n
            for w, v in zip(weights, verts_int):
                for i in range(n):
                    p[i] += 8 * w * v[i]
            # now p / (8 * wsum * vert_den) is inside the polytope hull
            scale = wsum
            for r in rays_int:
                t = rng.randint(0, 12)
                for i in range(n):
                    p[i] += t * scale * vert_den * r[i]
            # point is p / (8 * scale * vert_den); compare q(point) >= value
            dd = big_d * scale
            q1 = sum(a_i[i][j] * p[i] * p[j] for i in range(n) for j in range(n))
            q2 = sum(b_i[i] * p[i] for i in range(n))
            lhs = (q1 + 2 * dd * q2 + 2 * dd * dd * c_i) * vden
            rhs = 2 * dd * dd * vnum * den
            assert lhs >= rhs, "witness must beat every feasible sample exactly"
    elapsed = time.monotonic() - start
    _report(
        "1 (classical attainment, desk scale)",
        accepted == 200 and elapsed < 60,
        f"200 attained of {tried} sampled, 2e6 exact sample checks, {elapsed:.1f}s",
    )


def test_criterion_2_value_function_domain_oracle_equivalence():
    """dom(f) membership through the assembled halfspace cone agrees exactly
    with the direct piece-generator boundedness scan, 50 x 200 instances."""
    rng = random.Random(11)
    instances = 0
    agreements = 0
    total = 0
    while instances < 50:
        n = rng.randint(1, 3)
        p = rng.randint(1, 5)
        gens = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(p)]
        gens = [g for g in gens if any(x != 0 for x in g)]
        if not gens:
            continue
        d = PolyCone.from_generators(gens, n)
        g_mat = _random_quadratic(rng, n).a
        dom = dom_f(g_mat, d)
        instances += 1
        for k in range(200):
            c = tuple(F(rng.randint(-5, 5)) for _ in range(n))
            member = dom.contains(c)
            scan = is_bounded_below_on_cone(c, g_mat, d, dom=dom).bounded
            total += 1
            if member == scan:
                agreements += 1
            if k < 3:
                # full independent recomputation of the pieces for a subsample
                fresh = is_bounded_below_on_cone(c, g_mat, d).bounded
                assert fresh == member
    _report(
        "2 (value function domain oracle equivalence)",
        agreements == total and total == 50 * 200,
        f"{agreements}/{total} exact agreements",
    )


def test_criterion_3_two_level_reduction_consistency():
    """For finite compact parts the two-level value equals the direct
    per-member polyhedral solve, exactly, on 50 instances."""
    rng = random.Random(33)
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        gens = [
            tuple(F(rng.randint(-2, 2)) for _ in range(n))
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if any(x != 0 for x in g)]
        if not gens:
            continue
        cone = PolyCone.from_generators(gens, n)
        pts = tuple(
            tuple(F(rng.randint(-2, 2)) for _ in range(n))
            for _ in range(rng.randint(1, 3))
        )
        q = _random_quadratic(rng, n, convex_bias=rng.random() < 0.6)
        f = MotzkinSet(FinitePointSet(pts), cone)
        verdict = minimize_on_motzkin(q, f)
        if verdict.kind != "attained":
            continue
        done += 1
        cone_h = cone.with_halfspaces()
        direct = None
        for y in pts:
            rows = cone_h.halfspaces
            member = HPolyhedron(
                tuple(rows), tuple(dot(r, y) for r in rows), n
            )
            value, _ = minimize_over_hpolyhedron(q, member)
            direct = value if direct is None else min(direct, value)
        assert direct == verdict.value, "two-level and direct solves must agree exactly"
    _report("3 (two-level reduction consistency)", done == 50, "50 exact matches")


def test_criterion_4_first_counterexample_replay():
    """The four-variable counterexample: evidence below 10^-3 while box
    minima over radii 10 and 100 stay positive, in under 10 seconds."""
    start = time.monotonic()
    report = gallery.run_case("luo_zhang_ex1")
    elapsed = time.monotonic() - start
    evidence = [c for c in report.checks if "within 1/1000" in c.name]
    trunc = [
        c
        for c in report.checks
        if c.name.startswith("truncated minimum over radius 10")
        or c.name.startswith("truncated minimum over radius 100")
    ]
    ok = report.passed and evidence and trunc and elapsed < 10
    _report(
        "4 (first counterexample replay)",
        ok,
        f"{len(report.checks)} checks, {elapsed:.2f}s",
    )


def test_criterion_5_parabolic_cylinder_replays():
    """The parabolic-cylinder objective and its cubic reduction: evidence
    below 10^-3, truncated minima positive."""
    rep_e = gallery.run_case("cylinder_parabolic")
    rep_g = gallery.run_case("program_p")
    ok = rep_e.passed and rep_g.passed
    _report(
        "5 (parabolic cylinder replays)",
        ok,
        f"{len(rep_e.checks) + len(rep_g.checks)} checks",
    )


def test_criterion_6_subspace_section_recomposition():
    """50 random subspace sections recompose exactly: cone part equals the
    intersected cone, membership agrees on 1000 sampled points."""
    rng = random.Random(55)
    done = 0
    samples = 0
    while done < 50:
        n = rng.randint(2, 3)
        pts = [
            tuple(F(rng.randint(-2, 2)) for _ in range(n))
            for _ in range(rng.randint(1, 3))
        ]
        gens = [
            tuple(F(rng.randint(-1, 2)) for _ in range(n))
            for _ in range(rng.randint(1, 2))
        ]
        gens = [g for g in gens if any(x != 0 for x in g)]
        f = MotzkinSet(
            PolytopeK(pts),
            PolyCone.from_generators(gens, n) if gens else PolyCone((), n),
        )
        basis = [tuple(F(rng.randint(-1, 1)) for _ in range(n))]
        if all(x == 0 for x in basis[0]):
            continue
        if rng.random() < 0.3:
            basis.append(unit(n, rng.randrange(n)))
        l = subspace(basis, n)
        try:
            g = intersect_subspace_motzkin(f, l)
        except EmptySetError:
            continue
        done += 1
        expected = cone_intersect_subspace(f.cone, l)
        exp_h = expected.with_halfspaces()
        got_h = g.cone.with_halfspaces()
        assert all(exp_h.contains(x) for x in g.cone.generators)
        assert all(got_h.contains(x) for x in expected.generators)
        stacked = dd_convert(motzkin_to_vpoly(f))
        recomposed = dd_convert(motzkin_to_vpoly(g))
        for _ in range(20):
            x = tuple(F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(n))
            lhs = stacked.contains(x) and l.contains(x)
            assert recomposed.contains(x) == lhs
            samples += 1
    _report(
        "6 (subspace section recomposition)",
        done == 50 and samples == 1000,
        f"50 sections, {samples} exact membership agreements",
    )


def test_criterion_7_order_cancellation():
    """200 random polytope triples in dimension <= 3: no violation of the
    cancellation law."""
    rng = random.Random(77)
    violations = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        mk = lambda count: tuple(
            tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(count)
        )
        from fwsets.polyhedra import VPolyhedron

        a = VPolyhedron(mk(rng.randint(1, 4)))
        b = VPolyhedron(mk(rng.randint(1, 4)))
        k = VPolyhedron(mk(rng.randint(1, 3)))
        sums, bases = order_cancellation_check(a, b, k)
        if sums and not bases:
            violations += 1
    _report("7 (order cancellation law)", violations == 0, "200 triples, 0 violations")


def test_criterion_8_asymptote_projection_coherence():
    """On every gallery set, having a flat asymptote is equivalent to some
    tested projection failing to be closed; the hyperbola and the cone
    section report asymptotes, the parabola and polyhedral cases none."""
    sets = gallery.case_sets()
    batteries = {
        "hyperbola_set": [
            AffineManifold.hyperplane((0, 1), 0),
            AffineManifold.hyperplane((1, 0), 0),
        ],
        "ice_cream_cut": [AffineManifold.hyperplane((1, -1), 0)],
        "epigraph_exp": [AffineManifold.hyperplane((0, 1), 0)],
        "luo_zhang_ex1": [AffineManifold.hyperplane((0, 0, 1, 0), -1)],
        "cylinder_parabolic": [AffineManifold.hyperplane((0, 0, 0, 1), -1)],
        "parabola": [
            AffineManifold.hyperplane((0, 1), -1),
            AffineManifold.hyperplane((-1, 1), -5),
        ],
        "orthant": [
            AffineManifold.hyperplane((0, 1), -1),
            AffineManifold.hyperplane((1, -1), 5),
        ],
    }
    projections = {
        "hyperbola_set": [[1], [2]],
        "ice_cream_cut": [[1], [2], ("functional", (1, -1))],
        "epigraph_exp": [[1], [2]],
        "luo_zhang_ex1": [[1], [2], [3], [4]],
        "cylinder_parabolic": [[1], [2], [3], [4]],
        "parabola": [[1], [2]],
        "orthant": [[1], [2]],
    }
    must_have_asym = {"hyperbola_set", "ice_cream_cut"}
    must_not_asym = {"parabola", "orthant", "epigraph_exp", "luo_zhang_ex1", "cylinder_parabolic"}
    coherent = True
    for name, battery in batteries.items():
        fset = sets[name]
        has_asym = any(is_f_asymptote(fset, m) is True for m in battery)
        flags = []
        for item in projections[name]:
            if isinstance(item, tuple) and item[0] == "functional":
                v, _ = image_closed_1d(fset, item[1])
            else:
                v, _ = projection_closed(fset, item)
            assert v is not None, (name, item)
            flags.append(v)
        all_closed = all(flags)
        if has_asym == all_closed:
            coherent = False
        if name in must_have_asym and not has_asym:
            coherent = False
        if name in must_not_asym and has_asym:
            coherent = False
    _report(
        "8 (asymptote vs projection coherence)",
        coherent,
        f"{len(batteries)} gallery sets, strict exclusive-or holds",
    )


def test_criterion_9_classification_table():
    """Both classifiers reproduce every verdict tabulated in the gallery."""
    sets = gallery.case_sets()
    expected = {
        "luo_zhang_ex1": ("NotFW", "qFW"),
        "epigraph_exp": ("NotFW", "qFW"),
        "hyperbola_set": ("NotFW", "NotQFW"),
        "ice_cream_cut": ("NotFW", "NotQFW"),
        "cylinder_parabolic": ("NotFW", "qFW"),
        "luo_zhang_theorem": ("FW", "qFW"),
        "program_p": ("FW", "qFW"),
        "parabola": ("FW", "qFW"),
        "orthant": ("FW", "qFW"),
    }
    mismatches = []
    for name, (want_fw, want_qfw) in expected.items():
        fset = sets[name]
        fw = classify_fw_set(fset).label
        qfw = classify_qfw(fset).label
        if (fw, qfw) != (want_fw, want_qfw):
            mismatches.append((name, fw, qfw))
    # Motzkin sums: polyhedral recession vs second-order recession
    square = PolytopeK([(0, 0), (1, 0), (0, 1), (1, 1)])
    fw_poly = classify_fw(
        MotzkinSet(square, PolyCone.from_generators([(1, 0), (0, 1)]))
    ).label
    soc = SecondOrderCone(3, (0, 0, 1), F(1, 2))
    cone_set = MotzkinSet(PolytopeK([(0, 0, 0)]), soc)
    fw_soc = classify_fw(cone_set).label
    qfw_soc = classify_qfw(cone_set).label
    if fw_poly != "FW" or fw_soc != "NotFW" or qfw_soc != "NotQFW":
        mismatches.append(("motzkin_direct", fw_poly, fw_soc, qfw_soc))
    _report(
        "9 (classification table)",
        not mismatches,
        "11 tabulated verdicts reproduced" if not mismatches else str(mismatches),
    )
