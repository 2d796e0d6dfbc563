"""Tests for flat-asymptote detection, projections, and qFW classification."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fwsets.affine import AffineManifold, subspace
from fwsets.asymptotes import (
    Epigraph1D,
    ProductSet,
    QuadSublevel,
    ambient_dim,
    classify_fw_set,
    classify_qfw,
    contains,
    distance_to_manifold,
    image_closed_1d,
    intersects_manifold,
    is_f_asymptote,
    linear_lower_bound,
    manifold_projection,
    projection_closed,
    whole_space,
)
from fwsets import asymptotes, cli, gallery
from fwsets.gallery import (
    epigraph_set,
    hyperbola_set,
    ice_cream_cut_set,
    luo_zhang_set,
    parabola_set,
)
from fwsets.errors import DimensionMismatchError
from fwsets.cone_qp import minimize_over_hpolyhedron
from fwsets.linalg import ZERO, dot, rank, solve, vec, zeros
from fwsets.motzkin import (
    Ball,
    FinitePointSet,
    MotzkinSet,
    PolytopeK,
    SecondOrderCone,
    motzkin_to_vpoly,
)
from fwsets.polyhedra import HPolyhedron, PolyCone, dd_convert, lp_solve
from fwsets.quadratics import Quadratic, is_psd

F = Fraction


def orthant2():
    return HPolyhedron.from_rows([[-1, 0], [0, -1]], [0, 0])


# ---------------------------------------------------------------------------
# distance trichotomy
# ---------------------------------------------------------------------------


def test_orthant_distance_to_floor_is_one():
    m = AffineManifold.hyperplane((0, 1), -1)
    verdict = distance_to_manifold(orthant2(), m)
    assert verdict.kind == "positive"
    assert verdict.lower_bound_sq == 1
    assert verdict.exact


def test_orthant_meets_diagonal():
    m = AffineManifold.hyperplane((1, -1), 0)
    verdict = distance_to_manifold(orthant2(), m)
    assert verdict.kind == "intersects"
    assert verdict.point is not None
    assert orthant2().contains(verdict.point)
    assert m.contains(verdict.point)


def test_motzkin_distance_exact():
    f = MotzkinSet(PolytopeK.build([(0, 2), (1, 2)]), PolyCone.from_generators([(1, 0)]))
    m = AffineManifold.hyperplane((0, 1), 0)  # the x-axis
    verdict = distance_to_manifold(f, m)
    assert verdict.kind == "positive"
    assert verdict.lower_bound_sq == 4


def test_hyperbola_axis_zero_evidence():
    f = hyperbola_set()
    m = AffineManifold.hyperplane((0, 1), 0)
    verdict = distance_to_manifold(f, m)
    assert verdict.kind == "zero_evidence"
    dists = [p[2] for p in verdict.pairs]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < F(1, 10**12)


def _lifted_distance_sq(h, m):
    """Reference: min |x - p - B u|^2 over x in h and all u, one program in
    (x, u) with h's rows padded by zeros; None when h is empty."""
    n, k = m.dim, len(m.basis)
    rows = tuple(row + zeros(k) for row in h.a)
    lifted = HPolyhedron(rows, h.b, n + k) if rows else whole_space(n + k)
    # the residual x - p - B u is C (x, u) - p with C = [I | -B]
    cols = [tuple(F(int(i == j)) for i in range(n)) for j in range(n)]
    cols += [tuple(-x for x in v) for v in m.basis]
    a = tuple(tuple(2 * dot(c, d) for d in cols) for c in cols)
    b = tuple(-2 * dot(c, m.point) for c in cols)
    solved = minimize_over_hpolyhedron(Quadratic(a, b, dot(m.point, m.point)), lifted)
    return None if solved is None else solved[0]


def _reference_distance(f, m):
    """(kind, squared distance) by the lifted program on each H-form, the
    members of a point set converted one point at a time."""
    if isinstance(f, HPolyhedron):
        forms = [f]
    elif isinstance(f.compact, FinitePointSet):
        forms = [
            dd_convert(motzkin_to_vpoly(MotzkinSet(PolytopeK.build([y]), f.cone)))
            for y in f.compact.points
        ]
    else:
        forms = [dd_convert(motzkin_to_vpoly(f))]
    values = [v for v in (_lifted_distance_sq(h, m) for h in forms) if v is not None]
    if not values:
        return "unknown", None
    return ("intersects", None) if min(values) == 0 else ("positive", min(values))


def test_distance_matches_the_lifted_program_on_seeded_polyhedral_sets():
    rng = random.Random(15)

    def ints(count, lo=-3, hi=3):
        return tuple(rng.randint(lo, hi) for _ in range(count))

    def rays(n):
        gens = [ints(n) for _ in range(rng.randint(0, 2))]
        return PolyCone.from_generators([g for g in gens if any(g)], n)

    seen = set()
    for n in (1, 2, 3):
        for k in range(n):
            for trial in range(24):
                kind = ("hpolyhedron", "polytope", "points")[trial % 3]
                if kind == "hpolyhedron":
                    m_rows = rng.randint(n, n + 2)
                    f = HPolyhedron.from_rows([ints(n) for _ in range(m_rows)], ints(m_rows), n)
                else:
                    pts = [ints(n) for _ in range(rng.randint(1, 3))]
                    compact = PolytopeK.build(pts) if kind == "polytope" else FinitePointSet.build(pts)
                    f = MotzkinSet(compact, rays(n))
                while True:
                    basis = [ints(n, -2, 2) for _ in range(k)]
                    if not basis or rank(basis) == k:
                        break
                m = AffineManifold.from_point_basis(ints(n), basis)
                verdict = distance_to_manifold(f, m)
                ref_kind, ref_sq = _reference_distance(f, m)
                assert verdict.kind == ref_kind, (f, m)
                seen.add((n, k, kind, ref_kind))
                if ref_kind == "positive":
                    assert verdict.exact and verdict.lower_bound_sq == ref_sq
                    assert intersects_manifold(f, m) is False
                elif ref_kind == "intersects":
                    assert contains(f, verdict.point) and m.contains(verdict.point)
                    assert intersects_manifold(f, m) is True
    # every flat dimension below n meets every kind of set, and both verdicts occur
    assert {(n, k, kind) for n, k, kind, _ in seen} == {
        (n, k, kind) for n in (1, 2, 3) for k in range(n)
        for kind in ("hpolyhedron", "polytope", "points")
    }
    assert {"positive", "intersects"} <= {ref for *_, ref in seen}


def test_manifold_projection_is_orthogonal():
    m = AffineManifold.hyperplane((1, -1), 0)
    x = vec((3, 1))
    y = manifold_projection(m, x)
    assert m.contains(y)
    diff = tuple(a - b for a, b in zip(x, y))
    for b in m.basis:
        assert dot(diff, b) == 0


# ---------------------------------------------------------------------------
# f-asymptotes
# ---------------------------------------------------------------------------


def test_hyperbola_has_axis_asymptotes():
    f = hyperbola_set()
    assert is_f_asymptote(f, AffineManifold.hyperplane((0, 1), 0)) is True
    assert is_f_asymptote(f, AffineManifold.hyperplane((1, 0), 0)) is True


def test_asymptote_verdict_does_not_depend_on_import_order():
    # a fresh interpreter that never imports fwsets.gallery and builds the
    # hyperbola directly: the registered evidence must still be loaded
    script = textwrap.dedent(
        """
        import sys
        from fwsets.affine import AffineManifold
        from fwsets.asymptotes import QuadSublevel, is_f_asymptote
        from fwsets.linalg import vec
        from fwsets.polyhedra import HPolyhedron
        from fwsets.quadratics import Quadratic

        base = HPolyhedron.from_rows([[-1, 0], [0, -1]], [0, 0])
        q = Quadratic.build([[0, -1], [-1, 0]], [0, 0], 1)
        f = QuadSublevel(base, (q,), sample_point=vec((1, 1)))
        assert "fwsets.gallery" not in sys.modules
        print(is_f_asymptote(f, AffineManifold.hyperplane((0, 1), 0)))
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "True"


def test_ice_cream_cut_diagonal_asymptote():
    f = ice_cream_cut_set()
    assert is_f_asymptote(f, AffineManifold.hyperplane((1, -1), 0)) is True


def test_parabola_never_has_asymptotes():
    f = parabola_set()
    for m in (
        AffineManifold.hyperplane((0, 1), -1),
        AffineManifold.hyperplane((-1, 1), -5),
        AffineManifold.hyperplane((-1, 1), 0),
        AffineManifold.hyperplane((1, 0), 2),
    ):
        assert is_f_asymptote(f, m) is False


def test_polyhedra_never_have_asymptotes():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 3)
        rows = []
        rhs = []
        x0 = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        for _ in range(rng.randint(1, 5)):
            row = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            if all(v == 0 for v in row):
                continue
            rows.append(row)
            rhs.append(dot(row, x0) + F(rng.randint(0, 3)))
        if not rows:
            continue
        p = HPolyhedron(tuple(rows), tuple(rhs), n)
        normal = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        if all(v == 0 for v in normal):
            continue
        m = AffineManifold.hyperplane(normal, F(rng.randint(-3, 3)))
        assert is_f_asymptote(p, m) is False


def test_line_section_emptiness_is_exact():
    f = hyperbola_set()
    # the x-axis misses the region; the line y = x meets it
    assert intersects_manifold(f, AffineManifold.hyperplane((0, 1), 0)) is False
    diag = AffineManifold.hyperplane((1, -1), 0)
    assert intersects_manifold(f, diag) is True


@pytest.mark.parametrize(
    "rows, rhs, constraints",
    [
        # a bound past the float range
        ([[1, 0]], [10**400], [([[0, 0], [0, 2]], -1)]),
        # 2 - 10^-12 <= x^2 <= 2: an interval about 3.5 * 10^-13 wide
        ([[-1, 0]], [0], [([[2, 0], [0, 0]], -2), ([[-2, 0], [0, 0]], 2 - F(1, 10**12))]),
    ],
)
def test_line_section_point_is_an_exact_member(rows, rhs, constraints):
    forms = tuple(Quadratic.build(a, [0, 0], c) for a, c in constraints)
    f = QuadSublevel(HPolyhedron.from_rows(rows, rhs), forms)
    verdict = distance_to_manifold(f, AffineManifold.hyperplane((0, 1), 0))
    assert verdict.kind == "intersects"
    assert verdict.point[1] == 0 and contains(f, verdict.point) is True


def test_epigraph_line_analysis():
    f = epigraph_set()
    assert intersects_manifold(f, AffineManifold.hyperplane((0, 1), 0)) is False
    assert intersects_manifold(f, AffineManifold.hyperplane((0, 1), 2)) is True
    assert contains(f, vec((0, 1))) is True
    assert contains(f, vec((0, F(99, 100)))) is False


def test_far_epigraph_points_are_decided_without_an_enclosure():
    # 0 < exp(-t^2) <= 1 decides y <= t^2 and y >= t^2 + 1 at once; an
    # enclosure of exp(-10^4) would sum 30,008 Taylor terms
    f = epigraph_set()
    for y, verdict in ((0, False), (10000, None), (10001, False)):
        point = AffineManifold.from_equations([[1, 0], [0, 1]], [100, y])
        start = time.perf_counter()
        assert is_f_asymptote(f, point) is verdict
        assert time.perf_counter() - start < 1
    assert contains(f, vec((100, 10000))) is False
    assert contains(f, vec((100, 10001))) is True


# ---------------------------------------------------------------------------
# separating slabs / linear bounds
# ---------------------------------------------------------------------------


def test_linear_lower_bound_on_parabola_set():
    f = parabola_set()
    assert linear_lower_bound(f, vec((0, 1))) == 0  # inf of y over the set
    # inf of y - x1 is -1/4, attained at the tangent point
    assert linear_lower_bound(f, vec((-1, 1))) == F(-1, 4)


def test_linear_lower_bound_on_epigraph():
    f = epigraph_set()
    assert linear_lower_bound(f, vec((0, 1))) >= 1
    # y >= max(1, x^2): inf of x/2 + max(1, x^2) is 1 - 1/2 at x = -1, and
    # inf of 10x + max(1, x^2) is the parabola's vertex value at x = -5
    assert linear_lower_bound(f, vec((F(1, 2), 1))) == F(1, 2)
    assert linear_lower_bound(f, vec((10, 1))) == -25


def test_epigraph_slab_bound_is_a_lower_bound():
    # the member (-5, 25 + e^-25) lies at squared distance (5 + e^-25)^2 / 101
    # from 10x + y = -30; the slab from inf (10x + y) >= -25 certifies 25/101
    verdict = distance_to_manifold(epigraph_set(), AffineManifold.hyperplane((10, 1), -30))
    assert verdict.lower_bound_sq == F(25, 101)


def _reference_lagrangian_value(w, constraints, lams):
    # the weak-duality helper as it was before it took a Quadratic objective
    n = len(w)
    amat = [[ZERO] * n for _ in range(n)]
    bvec = list(w)
    const = ZERO
    for lam, q in zip(lams, constraints):
        for i in range(n):
            for j in range(n):
                amat[i][j] += lam * q.a[i][j]
            bvec[i] += lam * q.b[i]
        const += lam * q.c
    amat_t = tuple(tuple(row) for row in amat)
    if not is_psd(amat_t):
        return None
    x0 = solve(amat_t, tuple(-v for v in bvec))
    if x0 is None:
        return None
    return dot(tuple(bvec), x0) / 2 + const


def _reference_quad_lower_bound(f, w):
    # the quadratic-sublevel branch of linear_lower_bound, same multiplier grid
    best = None
    if isinstance(f.base, HPolyhedron):
        res = lp_solve(f.base.a, f.base.b, w)
        if res.status == "optimal":
            best = res.value
    if len(f.constraints) <= 3:
        lam_grid = [F(0), F(1, 4), F(1, 2), F(1), F(2), F(4)]
        for lams in itertools.product(lam_grid, repeat=len(f.constraints)):
            if all(l == 0 for l in lams):
                continue
            val = _reference_lagrangian_value(w, f.constraints, lams)
            if val is not None and (best is None or val > best):
                best = val
    return best


def test_linear_lower_bound_matches_reference_lagrangian():
    rng = random.Random(20261018)
    sets = [s for s in gallery.case_sets().values() if isinstance(s, QuadSublevel)]
    for _ in range(30):
        n = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:  # PSD: a Gram matrix, possibly singular
                m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
                a = [[sum(r[i] * r[j] for r in m) for j in range(n)] for i in range(n)]
            else:
                a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            b = [rng.randint(-3, 3) for _ in range(n)]
            cons.append(Quadratic.build(a, b, rng.randint(-4, 4)))
        base = whole_space(n)
        if rng.random() < 0.5:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 2 * n))]
            base = HPolyhedron.from_rows(rows, [rng.randint(0, 3) for _ in rows])
        sets.append(QuadSublevel(base, tuple(cons)))
    values = []
    for f in sets:
        n = len(f.constraints[0].b)
        ws = [vec(rng.randint(-3, 3) for _ in range(n)) for _ in range(2)]
        ws.append(zeros(n))
        for w in ws:
            got = linear_lower_bound(f, w)
            assert got == _reference_quad_lower_bound(f, w), (f, w)
            values.append(got)
    assert len(sets) == 37
    assert sum(v is None for v in values) >= 15
    assert sum(v is not None for v in values) >= 60


def test_multiplier_grid_solves_only_consistent_combinations(monkeypatch):
    # consistency is decided once per support from the forms' common kernel:
    # the 16 queries +-e_j on two gallery sets with two PSD constraints each
    # solve 28 of their 560 grid combinations
    calls = count_calls(monkeypatch, "lagrangian_value")
    for f in (luo_zhang_set(), gallery.cylinder_parabolic_set()):
        for j in range(4):
            for sign in (1, -1):
                w = vec(sign * int(i == j) for i in range(4))
                assert linear_lower_bound(f, w) == _reference_quad_lower_bound(f, w)
    assert len(calls) <= 40


def test_multiplier_grid_with_a_psd_and_an_indefinite_form(monkeypatch):
    # a support that mixes both kinds is solved combination by combination;
    # 4 lam1 >= lam2 makes lam1 (4I) + lam2 diag(1, -1) PSD
    rng = random.Random(20261019)
    psd = Quadratic.build([[4, 0], [0, 4]], [rng.randint(-3, 3) for _ in range(2)], rng.randint(-4, 0))
    indefinite = Quadratic.build([[1, 0], [0, -1]], [rng.randint(-3, 3) for _ in range(2)], rng.randint(-4, 4))
    f = QuadSublevel(whole_space(2), (psd, indefinite))
    calls = count_calls(monkeypatch, "lagrangian_value")
    for _ in range(6):
        w = vec(rng.randint(-3, 3) for _ in range(2))
        assert linear_lower_bound(f, w) == _reference_quad_lower_bound(f, w)
    mixed = [lams for _, _, lams in calls if all(lams)]
    assert mixed and len(mixed) == len(calls) - 6 * 5  # and the PSD form alone


# ---------------------------------------------------------------------------
# projection closedness
# ---------------------------------------------------------------------------


def test_polyhedron_projections_always_closed():
    verdict, note = projection_closed(orthant2(), [1])
    assert verdict is True


def test_soc_projection_boundary_vs_interior():
    # tilted cone: a coordinate plane grazes the boundary ray e1
    tilted = SecondOrderCone.build(3, (1, 0, 1), F(1, 2))
    f = MotzkinSet(PolytopeK.build([(0, 0, 0)]), tilted)
    # dropping coordinates {1, 2} leaves kernel span{e1, e2}: contains the
    # boundary ray e1, no interior ray, and has dimension two: undecided
    verdict, _ = projection_closed(f, [3])
    assert verdict is None
    # dropping only coordinate 2: kernel span{e2} misses the cone: closed
    verdict, _ = projection_closed(f, [1, 3])
    assert verdict is True
    # dropping only coordinate 1: kernel span{e1} is a boundary ray: not closed
    verdict, _ = projection_closed(f, [2, 3])
    assert verdict is False


def test_soc_projection_interior_kernel_closed():
    upright = SecondOrderCone.build(3, (0, 0, 1), F(1, 2))
    f = MotzkinSet(PolytopeK.build([(0, 0, 0)]), upright)
    # kernel span{e3} is the interior axis: the image is the whole plane
    verdict, _ = projection_closed(f, [1, 2])
    assert verdict is True
    # kernel span{e2} meets the cone only at 0: closed
    verdict, _ = projection_closed(f, [1, 3])
    assert verdict is True


def test_hyperbola_projection_not_closed():
    verdict, _ = projection_closed(hyperbola_set(), [1])
    assert verdict is False


def test_image_closed_facts():
    verdict, _ = image_closed_1d(ice_cream_cut_set(), (1, -1))
    assert verdict is False
    verdict, _ = image_closed_1d(orthant2(), (1, -1))
    assert verdict is True


def test_closedness_is_computed_for_unregistered_sets():
    # {z >= 2, x^2 + 4 <= z^2}, never registered: the row and the form are
    # negative along e2, the kernel of x (the whole line), and the form is
    # positive along +-e1, the kernel of z (closed)
    cut = QuadSublevel(
        HPolyhedron.from_rows([[0, -1]], [-2]),
        (Quadratic.build([[2, 0], [0, -2]], [0, 0], 4),),
    )
    assert projection_closed(cut, [1])[0] is True
    assert projection_closed(cut, [2])[0] is True
    # the rules never guess: {x, y >= 0, x y >= 4} has no registered
    # asymptote, its constraint 4 - x y is not a convex quadratic, and it is
    # not compact
    hyp = QuadSublevel(orthant2(), (Quadratic.build([[0, -1], [-1, 0]], [0, 0], 4),))
    assert projection_closed(hyp, [1])[0] is None
    assert image_closed_1d(hyp, (1, -1))[0] is True
    assert image_closed_1d(hyp, (1, 1))[0] is True


def test_image_closed_off_the_axes_of_the_hyperbola():
    for w in ((1, 1), (1, -1)):
        assert image_closed_1d(hyperbola_set(), w)[0] is True


def test_several_coordinates_of_a_qfw_set():
    assert projection_closed(luo_zhang_set(), [1, 2])[0] is True


def test_zero_functional_has_a_closed_image():
    # the ice-cream cut's registered diagonal must not be read as parallel to 0
    for fset in gallery.case_sets().values():
        assert image_closed_1d(fset, zeros(ambient_dim(fset)))[0] is True


def test_projection_rejects_coordinates_that_are_not_ints():
    for coords in (["1"], [True], [F(1)], [1.0]):
        with pytest.raises(DimensionMismatchError):
            projection_closed(ice_cream_cut_set(), coords)


def test_whole_line_images_meet_every_level_set():
    # where the kernel rule says the image is the whole line, every level set
    # {w.x = beta} meets the set, checked by the exact line sections
    rng = random.Random(5)
    seen = 0
    for _ in range(80):
        rows, rhs = [], []
        for _ in range(rng.randint(0, 2)):
            rows.append([rng.randint(-2, 2), rng.randint(-2, 2)])
            rhs.append(rng.randint(-3, 3))
        d = rng.randint(-2, 2)
        form = Quadratic.build(
            [[rng.randint(-3, 3), d], [d, rng.randint(-3, 3)]],
            [rng.randint(-2, 2), rng.randint(-2, 2)],
            rng.randint(-4, 4),
        )
        fset = QuadSublevel(HPolyhedron.from_rows(rows, rhs, 2), (form,))
        w = (0, 0)
        while not any(w):
            w = (rng.randint(-2, 2), rng.randint(-2, 2))
        verdict, note = image_closed_1d(fset, w)
        if "whole line" not in note:
            continue
        assert verdict is True
        seen += 1
        for beta in range(-6, 7, 3):
            assert intersects_manifold(fset, AffineManifold.hyperplane(w, beta)) is True
    assert seen >= 20


def test_image_closed_rejects_a_functional_of_another_length():
    # both sets lie in the plane, so a polyhedron too refuses a functional in R^3 or R^1
    for fset in (orthant2(), ice_cream_cut_set()):
        for w in ((1, 2, 3), (1,)):
            with pytest.raises(DimensionMismatchError):
                image_closed_1d(fset, w)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_qfw_table():
    assert classify_qfw(orthant2()).label == "qFW"
    assert classify_qfw(hyperbola_set()).label == "NotQFW"
    assert classify_qfw(luo_zhang_set()).label == "qFW"
    assert classify_qfw(epigraph_set()).label == "qFW"
    assert classify_qfw(ice_cream_cut_set()).label == "NotQFW"
    square = PolytopeK.build([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert classify_qfw(MotzkinSet(square, PolyCone.from_generators([(1, 0)]))).label == "qFW"
    soc = SecondOrderCone.build(3, (0, 0, 1), F(1, 2))
    assert classify_qfw(MotzkinSet(PolytopeK.build([(0, 0, 0)]), soc)).label == "NotQFW"


def test_classify_fw_table():
    assert classify_fw_set(orthant2()).label == "FW"
    assert classify_fw_set(parabola_set()).label == "FW"
    assert classify_fw_set(luo_zhang_set()).label == "NotFW"
    assert classify_fw_set(epigraph_set()).label == "NotFW"
    assert classify_fw_set(hyperbola_set()).label == "NotFW"


def test_classify_product_of_qfw():
    p = ProductSet((parabola_set(), parabola_set()))
    assert classify_qfw(p).label == "qFW"
    bad = ProductSet((parabola_set(), hyperbola_set()))
    assert classify_qfw(bad).label == "NotQFW"


def test_classify_quad_sublevel_over_base():
    # convex constraint over a polyhedral base: stays quasi-attainment
    disk = Quadratic.build([[2, 0], [0, 2]], [0, 0], -4)
    f = QuadSublevel(orthant2(), (disk,), sample_point=vec((1, 1)))
    assert classify_qfw(f).label == "qFW"
    assert classify_fw_set(f).label == "FW"  # single convex constraint


def test_classify_unknown_without_witness():
    # two convex constraints over a polyhedral base: no attainment rule fires
    c1 = Quadratic.build([[2, 0], [0, 0]], [0, -1])
    c2 = Quadratic.build([[0, 0], [0, 2]], [-1, 0])
    f = QuadSublevel(whole_space(2), (c1, c2), sample_point=vec((0, 0)))
    assert classify_fw_set(f).label == "Unknown"
    assert classify_qfw(f).label == "qFW"


def test_ball_motzkin_classifies():
    f = MotzkinSet(Ball.build((0, 0), 1), PolyCone.from_generators([(1, 0)]))
    assert classify_qfw(f).label == "qFW"
    assert classify_fw_set(f).label == "FW"


def test_fw_motzkin_sets_have_no_asymptotes():
    # attainment-classified sums never produce an asymptote, whatever the
    # manifold battery: the exact distance program always decides
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randint(1, 3)
        pts = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        gens = [tuple(F(rng.randint(-1, 2)) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        gens = [g for g in gens if any(x != 0 for x in g)]
        f = MotzkinSet(
            PolytopeK.build(pts),
            PolyCone.from_generators(gens, n) if gens else PolyCone((), n),
        )
        from fwsets.motzkin import classify_fw

        assert classify_fw(f).label == "FW"
        for _ in range(4):
            normal = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            if all(v == 0 for v in normal):
                continue
            m = AffineManifold.hyperplane(normal, F(rng.randint(-3, 3)))
            assert is_f_asymptote(f, m) is False


def test_sum_with_subspace_is_closed_polyhedron():
    # adding a subspace to polyhedral data yields a closed sum: the H-form
    # contains every sampled generator combination exactly, and no manifold
    # parallel to the subspace is an asymptote
    from fwsets.motzkin import motzkin_to_vpoly
    from fwsets.polyhedra import dd_convert
    from fwsets.setops import sum_with_subspace

    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(2, 3)
        pts = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        f = MotzkinSet(PolytopeK.build(pts), PolyCone((), n))
        direction = tuple(F(rng.randint(-1, 2)) for _ in range(n))
        if all(v == 0 for v in direction):
            continue
        summed = sum_with_subspace(f, [direction])
        h = dd_convert(motzkin_to_vpoly(summed))
        for _ in range(20):
            base = pts[rng.randrange(len(pts))]
            t = F(rng.randint(-50, 50), rng.randint(1, 3))
            x = tuple(a + t * d for a, d in zip(base, direction))
            assert h.contains(x)
        normal = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        if all(v == 0 for v in normal) or dot(normal, direction) != 0:
            continue
        m = AffineManifold.hyperplane(normal, F(rng.randint(-3, 3)))
        assert is_f_asymptote(summed, m) is False


# ---------------------------------------------------------------------------
# coherence between asymptotes and projections (theorem direction)
# ---------------------------------------------------------------------------


def test_gallery_coherence_asymptote_vs_projection():
    from fwsets.gallery import case_sets

    batteries = {
        "hyperbola_set": [
            AffineManifold.hyperplane((0, 1), 0),
            AffineManifold.hyperplane((1, 0), 0),
        ],
        "ice_cream_cut": [AffineManifold.hyperplane((1, -1), 0)],
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
        "hyperbola_set": [([1], None), ([2], None)],
        "ice_cream_cut": [([1], None), ([2], None), ("functional", (1, -1))],
        "parabola": [([1], None), ([2], None)],
        "orthant": [([1], None), ([2], None)],
    }
    sets = case_sets()
    for name in batteries:
        fset = sets[name]
        has_asym = any(is_f_asymptote(fset, m) is True for m in batteries[name])
        closed_flags = []
        for coords, functional in projections[name]:
            if coords == "functional":
                v, _ = image_closed_1d(fset, functional)
            else:
                v, _ = projection_closed(fset, coords)
            assert v is not None
            closed_flags.append(v)
        all_closed = all(closed_flags)
        assert has_asym != all_closed  # strict xor in the theorem's direction


# ---------------------------------------------------------------------------
# verdicts of registered pairs, stored once per process
# ---------------------------------------------------------------------------


@pytest.fixture
def registries():
    """Put the registries and the stored verdicts back after the test."""
    asymptotes._ensure_builtin_registrations()
    saved = [
        (d, dict(d))
        for d in (
            asymptotes._EVIDENCE,
            asymptotes._ASYMPTOTE_CANDIDATES,
            asymptotes._FW_WITNESSES,
            asymptotes._VERDICTS,
        )
    ]
    yield
    for d, copy in saved:
        d.clear()
        d.update(copy)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(asymptotes, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(asymptotes, name, counted)
    return calls


def test_registered_verdicts_are_computed_once(registries, monkeypatch):
    distances = count_calls(monkeypatch, "_distance_bound")
    witnesses = count_calls(monkeypatch, "_witness_validates")
    asymptotes._VERDICTS.clear()
    registered = list(asymptotes._ASYMPTOTE_CANDIDATES) + list(asymptotes._FW_WITNESSES)

    def verdicts():
        out = []
        for f in registered:
            n = ambient_dim(f)
            functionals = [m.a[0] for m in asymptotes._ASYMPTOTE_CANDIDATES.get(f, ())]
            functionals += [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
            out.append(classify_fw_set(f))
            out.append(classify_qfw(f))
            out.extend(image_closed_1d(f, w) for w in functionals)
        return out

    first = verdicts()
    assert distances and witnesses
    assert len(asymptotes._VERDICTS) == 6  # the gallery's six registrations
    distances.clear()
    witnesses.clear()
    assert verdicts() == first
    assert distances == [] and witnesses == []


def test_a_registration_after_a_stored_verdict_takes_effect(registries):
    hyp, lz = hyperbola_set(), luo_zhang_set()
    axis = AffineManifold.hyperplane((0, 1), 0)
    assert is_f_asymptote(hyp, axis) is True
    # distances 1 and 1/4 never pass below the evidence thresholds
    asymptotes.register_asymptote_evidence(hyp, axis, [(1, 1), (2, F(1, 2))])
    assert is_f_asymptote(hyp, axis) is None
    assert image_closed_1d(hyp, (0, 1))[0] is None
    assert classify_fw_set(lz).label == "NotFW"
    witness = asymptotes._FW_WITNESSES[lz]
    asymptotes.register_fw_witness(
        lz, asymptotes.NonAttainmentWitness(witness.objective, F(0), (), witness.note)
    )
    assert classify_fw_set(lz).label != "NotFW"
    # the superseded witness's verdict is not kept: one entry per registration
    assert (lz, witness) not in asymptotes._VERDICTS


def test_registering_a_pair_again_keeps_one_candidate(registries):
    hyp = hyperbola_set()
    axis = AffineManifold.hyperplane((0, 1), 0)
    before = asymptotes._ASYMPTOTE_CANDIDATES[hyp]
    asymptotes.register_asymptote_evidence(hyp, axis, [(1, 1)])
    assert asymptotes._ASYMPTOTE_CANDIDATES[hyp] == before
    assert asymptotes._EVIDENCE[(hyp, axis)] == ((1, 1),)


def test_unregistered_pairs_are_never_stored(registries):
    rng = random.Random(53)
    hyp4 = QuadSublevel(orthant2(), (Quadratic.build([[0, -1], [-1, 0]], [0, 0], 4),))
    sets = (hyperbola_set(), ice_cream_cut_set(), parabola_set(), hyp4)
    for f in sets:
        classify_qfw(f)
    stored = set(asymptotes._VERDICTS)
    seen = 0
    for _ in range(40):
        f = rng.choice(sets)
        normal = tuple(F(rng.randint(-3, 3)) for _ in range(2))
        if not any(normal):
            continue
        m = AffineManifold.hyperplane(normal, F(rng.randint(-4, 4), rng.randint(1, 3)))
        if (f, m) in asymptotes._EVIDENCE:
            continue
        distance_to_manifold(f, m)
        seen += 1
    assert seen >= 30
    assert set(asymptotes._VERDICTS) == stored


def test_gallery_runs_twice_byte_identical(registries, capsys):
    asymptotes._VERDICTS.clear()
    outputs = []
    for _ in range(2):
        assert cli.main(["--format", "json", "gallery", "run", "all"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
