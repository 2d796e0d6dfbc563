"""Tests for flat-asymptote detection, projections, and qFW classification."""

import dataclasses
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from fwsets.affine import AffineManifold, AffineMap, subspace
from fwsets.asymptotes import (
    AffineImageSet,
    Epigraph1D,
    IntersectionSet,
    ProductSet,
    QuadSublevel,
    UnionSet,
    ambient_dim,
    classify,
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
)
from fwsets import asymptotes, cli, gallery, numeric
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


def whole_space(n):
    return HPolyhedron((), (), n)


def orthant2():
    return HPolyhedron([[-1, 0], [0, -1]], [0, 0])


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
    f = MotzkinSet(PolytopeK([(0, 2), (1, 2)]), PolyCone.from_generators([(1, 0)]))
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


@pytest.mark.parametrize(
    "make_set, flat",
    [
        (hyperbola_set, lambda: AffineManifold.hyperplane((0, -1), 0)),
        (hyperbola_set, lambda: AffineManifold.hyperplane((0, 2), 0)),
        (hyperbola_set, lambda: AffineManifold((5, 0), [(-3, 0)])),
        (ice_cream_cut_set, lambda: AffineManifold.hyperplane((-1, 1), 0)),
    ],
    ids=["hyperbola -y", "hyperbola 2y", "hyperbola point-basis", "ice cream -x + z"],
)
def test_an_asymptote_is_found_by_its_flat_not_its_spelling(make_set, flat):
    # the case files name one equation of each flat; the evidence is keyed
    # by the flat, so every spelling of it is an equal key
    f, m = make_set(), flat()
    assert is_f_asymptote(f, m) is True
    assert distance_to_manifold(f, m).kind == "zero_evidence"


def test_flats_compare_by_their_canonical_equations():
    x_axis = AffineManifold.hyperplane((0, 1), 0)
    for spelling in (
        AffineManifold.hyperplane((0, -1), 0),
        AffineManifold.from_equations([(0, 2), (0, -3)], (0, 0)),
        AffineManifold((7, 0), [(2, 0)]),
    ):
        assert spelling == x_axis and hash(spelling) == hash(x_axis)
        assert (spelling.a, spelling.b) == (((0, 1),), (0,))
    assert AffineManifold.hyperplane((0, 1), 1) != x_axis
    assert AffineManifold.hyperplane((1, 0), 0) != x_axis


def test_a_flat_is_built_from_a_point_and_a_basis_alone():
    # equations given next to a point and a basis could contradict them:
    # {x1 = 3} with the x-axis through the origin misses the box [-1, 1]^2
    # by its equations and met it by its point
    with pytest.raises(TypeError):
        AffineManifold([[1, 0]], [3], [0, 0], [[1, 0]], 2)
    box = HPolyhedron([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
    line = AffineManifold((3, 0), [(0, 1)])
    assert intersects_manifold(box, line) is False
    verdict = distance_to_manifold(box, line)
    assert verdict.kind == "positive" and verdict.exact and verdict.lower_bound_sq == 4

    # the plane x1 + 2 x2 - x3 = 4, spelled every way
    plane = AffineManifold((4, 0, 0), [(2, -1, 0), (1, 0, 1)])
    assert (plane.a, plane.b, plane.dim, plane.flat_dim) == (((-1, -2, 1),), (-4,), 3, 2)
    for spelling in (
        AffineManifold((0, 2, 0), [(2, -1, 0), (1, 0, 1)]),  # another point
        AffineManifold((1, 1, -1), [(-6, 3, 0), (F(1, 2), 0, F(1, 2))]),  # rescaled and negated
        AffineManifold((4, 0, 0), [(1, 0, 1), (2, -1, 0)]),  # reordered
        AffineManifold((4, 0, 0), [(3, -1, 1), (1, 0, 1)]),  # another basis of the span
        AffineManifold.from_equations([(-2, -4, 2)], [-8]),
        AffineManifold.from_equations([(3, 6, -3), (F(1, 2), 1, F(-1, 2))], [12, 2]),
        AffineManifold.hyperplane((1, 2, -1), 4),
        AffineManifold.hyperplane((-5, -10, 5), -20),
    ):
        assert spelling == plane and hash(spelling) == hash(plane)
    assert AffineManifold.hyperplane((1, 2, -1), 5) != plane

    # a subspace is the flat through the origin
    through_origin = AffineManifold((0, 0, 0), [(2, -1, 0), (1, 0, 1)])
    for spelling in (
        subspace([(2, -1, 0), (0, 0, 0), (1, 0, 1), (3, -1, 1)]),
        AffineManifold.hyperplane((1, 2, -1), 0),
        AffineManifold((-1, 0, -1), [(1, 0, 1), (-2, 1, 0)]),
    ):
        assert spelling == through_origin and hash(spelling) == hash(through_origin)
    # a point and the whole space
    assert AffineManifold((1, 2), []) == AffineManifold.from_equations([(2, 0), (1, 1)], [2, 3])
    assert AffineManifold((1, 2), [(1, 1), (0, 3)]) == subspace([(1, 0), (0, 1)])
    assert AffineManifold((1, 2), [(1, 1), (0, 3)]).a == ((0, 0),)

    for point, basis in (
        ((0, 0, 0), [(1, 2, 0), (-2, -4, 0)]),  # dependent
        ((0, 0, 0), [(0, 0, 0)]),  # a zero vector
        ((0, 0), [(1, 0), (0, 1), (1, 1)]),  # more vectors than the dimension
        ((0, 0), [(1, 0, 0)]),  # of another width
    ):
        with pytest.raises(DimensionMismatchError):
            AffineManifold(point, basis)


def test_equal_values_built_two_ways_hash_alike():
    # a value hashes by its compared fields alone, computed once: two
    # spellings of one value are equal, hash alike and find each other's
    # dict entries, and the hash is the one the dataclass would compute
    hp = HPolyhedron([[-1, 0], [0, -1]], [0, 1])
    disk = Quadratic.build([[2, 0], [0, 2]], [0, 0], -1)
    cone = PolyCone.from_generators([(1, 0), (0, 2)])
    point = PolytopeK([(0, 0)])
    pairs = [
        (hp, HPolyhedron(((F(-1), F(0)), (F(0), F(-1))), (F(0), F(1)), 2)),
        # an asymmetric form is stored symmetrized
        (disk, Quadratic.build([[2, 1], [-1, 2]], (0, 0), F(-2, 2))),
        (AffineManifold.hyperplane((0, 1), 0), AffineManifold((7, 0), [(2, 0)])),
        (cone, PolyCone.from_halfspaces([(-1, 0), (0, -3)], 2)),
        (MotzkinSet(point, cone), MotzkinSet(point, PolyCone.from_halfspaces([(-2, 0), (0, -1)], 2))),
        (
            QuadSublevel(hp, (disk,)),
            QuadSublevel(HPolyhedron(((-1, 0), (0, -1)), (0, 1)), (disk,), vec((0, 0))),
        ),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert {x: "found"}[y] == "found"
        compared = tuple(getattr(x, f.name) for f in dataclasses.fields(x) if f.compare)
        assert hash(x) == hash(compared)
    # derived facts kept on a value take no part in its hash
    before = hash(cone), hash(pairs[-1][0])
    cone.halfspaces, pairs[-1][0].psd_supports
    assert (hash(cone), hash(pairs[-1][0])) == before


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
            dd_convert(motzkin_to_vpoly(MotzkinSet(PolytopeK([y]), f.cone)))
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
                    f = HPolyhedron([ints(n) for _ in range(m_rows)], ints(m_rows), n)
                else:
                    pts = [ints(n) for _ in range(rng.randint(1, 3))]
                    compact = PolytopeK(pts) if kind == "polytope" else FinitePointSet(pts)
                    f = MotzkinSet(compact, rays(n))
                while True:
                    basis = [ints(n, -2, 2) for _ in range(k)]
                    if not basis or rank(basis) == k:
                        break
                m = AffineManifold(ints(n), basis)
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

        base = HPolyhedron([[-1, 0], [0, -1]], [0, 0])
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
    f = QuadSublevel(HPolyhedron(rows, rhs), forms)
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


def test_compound_membership_combines_its_parts_three_ways():
    # membership in an image is always undecided (it needs a preimage), so
    # the image of {x >= 0} under the identity gives each compound a None
    half = HPolyhedron([[-1]], [0])
    img = AffineImageSet(AffineMap.identity(1), half)
    assert contains(img, (1,)) is None and contains(img, (-1,)) is None
    product = ProductSet((half, img))
    assert contains(ProductSet((half, half)), (1, 1)) is True
    assert contains(product, (1, 1)) is None
    assert contains(product, (-1, 1)) is False
    meet = IntersectionSet((half, img))
    assert contains(IntersectionSet((half, half)), (1,)) is True
    assert contains(meet, (1,)) is None
    assert contains(meet, (-1,)) is False
    union = UnionSet((half, img))
    assert contains(union, (1,)) is True
    assert contains(union, (-1,)) is None
    assert contains(UnionSet((half, half)), (-1,)) is False


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


def _exact_members(f):
    # the members the test knows exactly: the set's sample point and the
    # points of {-1, 0, 1}^n that the set contains
    n = ambient_dim(f)
    points = [vec(p) for p in itertools.product((-1, 0, 1), repeat=n)]
    if f.sample_point is not None:
        points.append(f.sample_point)
    return [x for x in points if contains(f, x) is True]


def test_linear_lower_bound_is_at_least_the_grid_reference():
    # the solved multiplier is at least as good as every grid point of its
    # support, and any bound is a bound: at most w.x at each known member
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
            base = HPolyhedron(rows, [rng.randint(0, 3) for _ in rows])
        sets.append(QuadSublevel(base, tuple(cons)))
    values = []
    above = checked = 0
    for f in sets:
        n = len(f.constraints[0].b)
        members = _exact_members(f)
        ws = [vec(rng.randint(-3, 3) for _ in range(n)) for _ in range(2)]
        ws.append(zeros(n))
        for w in ws:
            got = linear_lower_bound(f, w)
            ref = _reference_quad_lower_bound(f, w)
            if ref is not None:
                assert got is not None and got >= ref, (f, w)
            above += got is not None and (ref is None or got > ref)
            for x in members if got is not None else ():
                assert got <= dot(w, x), (f, w, x)
                checked += 1
            values.append(got)
    assert len(sets) == 37
    assert sum(v is None for v in values) >= 15
    assert sum(v is not None for v in values) >= 60
    # 5 queries gain a bound or a better one, and 271 member checks run
    assert above >= 5 and checked >= 250


def test_multiplier_grid_solves_only_consistent_combinations(monkeypatch):
    # consistency is decided once per support from the forms' common kernel.
    # Over the 16 queries +-e_j on two gallery sets with two PSD constraints
    # each, a support that fixes its multipliers solves one combination, and
    # only where they are positive (2 calls); a support whose multipliers
    # stay free solves its consistent grid combinations (26 calls: the disk
    # of the cylinder set alone under +-e1 and +-e2, and both forms under
    # e4, where the second multiplier is fixed at 1)
    calls = count_calls(monkeypatch, "lagrangian_value")
    for f in (luo_zhang_set(), gallery.cylinder_parabolic_set()):
        for j in range(4):
            for sign in (1, -1):
                w = vec(sign * int(i == j) for i in range(4))
                assert linear_lower_bound(f, w) == _reference_quad_lower_bound(f, w)
    assert len(calls) == 28


@pytest.mark.parametrize("make_set", [parabola_set, luo_zhang_set])
def test_linear_lower_bound_scales_with_its_functional(make_set):
    # the solved multiplier scales with w, so the bound does too
    f = make_set()
    n = ambient_dim(f)
    rng = random.Random(20261020)
    ws = [vec(rng.randint(-3, 3) for _ in range(n)) for _ in range(12)]
    bounded = 0
    for w in ws:
        lo = linear_lower_bound(f, w)
        bounded += lo is not None
        for t in (F(2), F(3), F(1, 3)):
            scaled = linear_lower_bound(f, tuple(t * x for x in w))
            assert scaled == (None if lo is None else t * lo), (w, t)
    assert bounded >= 4


@pytest.mark.parametrize("t", [F(1), F(2), F(3), F(1, 3)])
def test_parabola_line_misses_at_any_scale(t):
    # on y >= x^2, -x + 5y >= 5x^2 - x >= -1/20 > -10: the slab needs the
    # multiplier 5, outside the old grid; a row written at any scale gives
    # the same flat, and the same verdict
    line = AffineManifold.from_equations([[-t, 5 * t]], [-10 * t])
    assert is_f_asymptote(parabola_set(), line) is False
    assert distance_to_manifold(parabola_set(), line).kind == "positive"


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
    tilted = SecondOrderCone(3, (1, 0, 1), F(1, 2))
    f = MotzkinSet(PolytopeK([(0, 0, 0)]), tilted)
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
    upright = SecondOrderCone(3, (0, 0, 1), F(1, 2))
    f = MotzkinSet(PolytopeK([(0, 0, 0)]), upright)
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
        HPolyhedron([[0, -1]], [-2]),
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
        fset = QuadSublevel(HPolyhedron(rows, rhs, 2), (form,))
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
    square = PolytopeK([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert classify_qfw(MotzkinSet(square, PolyCone.from_generators([(1, 0)]))).label == "qFW"
    soc = SecondOrderCone(3, (0, 0, 1), F(1, 2))
    assert classify_qfw(MotzkinSet(PolytopeK([(0, 0, 0)]), soc)).label == "NotQFW"


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
    f = MotzkinSet(Ball((0, 0), 1), PolyCone.from_generators([(1, 0)]))
    assert classify_qfw(f).label == "qFW"
    assert classify_fw_set(f).label == "FW"
    # closed because it is FW, hence qFW; the disk makes it no polyhedron
    closed, why = projection_closed(f, [1, 2])
    assert closed is True and "qFW" in why and "polyhedral" not in why


# the labels over the gallery inputs of :func:`gallery_inputs`: F, N or ? for
# FW, NotFW or Unknown, then q, n or ? for qFW, NotQFW or Unknown; a row per
# set in sorted name order, "--" where two sets differ in dimension
_CODES = ({"FW": "F", "NotFW": "N", "Unknown": "?"}, {"qFW": "q", "NotQFW": "n", "Unknown": "?"})

# the labels without FW => qFW, NotQFW => NotFW and the qFW union rule: none
# that is decided here may move
_BEFORE_LATTICE = {
    "set": ("Nq Nq Nn Nn Nq Fq Fq Fq Fq",),
    "product": (
        "Nq Nq Nn Nn Nq Nq Nq Nq Nq",
        "Nq Nq Nn Nn Nq Nq Nq Nq Nq",
        "Nn Nn Nn Nn Nn Nn Nn Nn Nn",
        "Nn Nn Nn Nn Nn Nn Nn Nn Nn",
        "Nq Nq Nn Nn Nq Nq Nq Nq Nq",
        "Nq Nq Nn Nn Nq ?q ?q ?q ?q",
        "Nq Nq Nn Nn Nq ?q ?q ?q ?q",
        "Nq Nq Nn Nn Nq ?q ?q ?q ?q",
        "Nq Nq Nn Nn Nq ?q ?q ?q ?q",
    ),
    "union": (
        "?? -- -- -- ?? -- -- -- --",
        "-- ?? ?? ?? -- ?? ?? ?? --",
        "-- ?? ?? ?? -- ?? ?? ?? --",
        "-- ?? ?? ?? -- ?? ?? ?? --",
        "?? -- -- -- ?? -- -- -- --",
        "-- ?? ?? ?? -- F? F? F? --",
        "-- ?? ?? ?? -- F? F? F? --",
        "-- ?? ?? ?? -- F? F? F? --",
        "-- -- -- -- -- -- -- -- F?",
    ),
    "intersection": (
        "?? -- -- -- ?? -- -- -- --",
        "-- ?? ?? ?? -- ?? ?? ?? --",
        "-- ?? ?? ?? -- ?? ?? ?? --",
        "-- ?? ?? ?? -- ?? ?? ?? --",
        "?? -- -- -- ?? -- -- -- --",
        "-- ?? ?? ?? -- ?? ?? ?? --",
        "-- ?? ?? ?? -- ?? ?? ?? --",
        "-- ?? ?? ?? -- ?? ?? ?? --",
        "-- -- -- -- -- -- -- -- ??",
    ),
}

_UNIONS = (
    "?q -- -- -- ?q -- -- -- --",
    "-- ?q ?? ?? -- ?q ?q ?q --",
    "-- ?? ?? ?? -- ?? ?? ?? --",
    "-- ?? ?? ?? -- ?? ?? ?? --",
    "?q -- -- -- ?q -- -- -- --",
    "-- ?q ?? ?? -- Fq Fq Fq --",
    "-- ?q ?? ?? -- Fq Fq Fq --",
    "-- ?q ?? ?? -- Fq Fq Fq --",
    "-- -- -- -- -- -- -- -- Fq",
)


def gallery_inputs():
    """``(kind, i, j) -> set`` over the nine gallery sets in name order:
    each set, the product of every ordered pair, and the union and the
    intersection of every ordered pair of one dimension (172 inputs)."""
    sets = [s for _, s in sorted(gallery.case_sets().items())]
    inputs = {("set", 0, i): s for i, s in enumerate(sets)}
    for (i, a), (j, b) in itertools.product(enumerate(sets), repeat=2):
        inputs["product", i, j] = ProductSet((a, b))
        if ambient_dim(a) == ambient_dim(b):
            inputs["union", i, j] = UnionSet((a, b))
            inputs["intersection", i, j] = IntersectionSet((a, b))
    return inputs


def test_the_lattice_holds_on_every_gallery_input():
    inputs = gallery_inputs()
    assert len(inputs) == 172
    moved = []
    for (kind, i, j), f in inputs.items():
        fw, qfw = (c.label for c in classify(f))
        assert fw != "FW" or qfw == "qFW", (kind, i, j)
        assert qfw != "NotQFW" or fw == "NotFW", (kind, i, j)
        got = _CODES[0][fw] + _CODES[1][qfw]
        before = _BEFORE_LATTICE[kind][i].split()[j]
        # a label decided before stays; an Unknown one may be decided now
        for side in (0, 1):
            if got[side] != before[side]:
                assert before[side] == "?", (kind, i, j)
                moved.append((kind, side))
        if kind == "union":
            assert got == _UNIONS[i].split()[j], (i, j)
    # FW => qFW decides 10 unions, and the union rule for qFW 11 more
    assert moved == [("union", 1)] * 21


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
            PolytopeK(pts),
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
        f = MotzkinSet(PolytopeK(pts), PolyCone((), n))
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
# verdicts of pairs with gallery evidence, computed once per process
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_caches():
    """Empty the kept verdicts of evidenced pairs and witnesses before and
    after the test."""
    caches = (asymptotes._evidenced_distance, asymptotes._witness_validates)
    for c in caches:
        c.cache_clear()
    yield
    for c in caches:
        c.cache_clear()


def kept_verdicts():
    return sum(c.cache_info().currsize for c in (asymptotes._evidenced_distance, asymptotes._witness_validates))


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(asymptotes, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(asymptotes, name, counted)
    return calls


def test_registered_verdicts_are_computed_once(fresh_caches, monkeypatch):
    distances = count_calls(monkeypatch, "_distance_bound")
    found = gallery.evidence()
    registered = list(found.candidates) + list(found.witnesses)

    def verdicts():
        out = []
        for f in registered:
            n = ambient_dim(f)
            functionals = [m.a[0] for m in found.candidates.get(f, ())]
            functionals += [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
            out.append(classify_fw_set(f))
            out.append(classify_qfw(f))
            out.extend(image_closed_1d(f, w) for w in functionals)
        return out

    first = verdicts()
    witness_checks = asymptotes._witness_validates.cache_info().misses
    assert distances and witness_checks
    assert kept_verdicts() == 6  # the gallery's six registrations
    distances.clear()
    assert verdicts() == first
    assert distances == []
    assert asymptotes._witness_validates.cache_info().misses == witness_checks


def test_weak_evidence_and_an_empty_witness_decide_nothing(fresh_caches, monkeypatch):
    hyp, lz = hyperbola_set(), luo_zhang_set()
    axis = AffineManifold.hyperplane((0, 1), 0)
    assert is_f_asymptote(hyp, axis) is True
    assert classify_fw_set(lz).label == "NotFW"
    found = gallery.evidence()
    witness = found.witnesses[lz]
    weak = SimpleNamespace(
        candidates=found.candidates,
        # distances 1 and 1/4 never pass below the evidence thresholds
        points={**found.points, (hyp, axis): ((F(1), F(1)), (F(2), F(1, 2)))},
        witnesses={**found.witnesses, lz: asymptotes.NonAttainmentWitness(witness.objective, F(0), (), witness.note)},
    )
    monkeypatch.setattr(asymptotes, "_evidence", lambda: weak)
    asymptotes._evidenced_distance.cache_clear()
    asymptotes._witness_validates.cache_clear()
    assert is_f_asymptote(hyp, axis) is None
    assert image_closed_1d(hyp, (0, 1))[0] is None
    assert classify_fw_set(lz).label != "NotFW"


def test_unregistered_pairs_are_never_stored(fresh_caches):
    rng = random.Random(53)
    hyp4 = QuadSublevel(orthant2(), (Quadratic.build([[0, -1], [-1, 0]], [0, 0], 4),))
    sets = (hyperbola_set(), ice_cream_cut_set(), parabola_set(), hyp4)
    for f in sets:
        classify_qfw(f)
    stored = kept_verdicts()
    seen = 0
    for _ in range(40):
        f = rng.choice(sets)
        normal = tuple(F(rng.randint(-3, 3)) for _ in range(2))
        if not any(normal):
            continue
        m = AffineManifold.hyperplane(normal, F(rng.randint(-4, 4), rng.randint(1, 3)))
        if (f, m) in gallery.evidence().points:
            continue
        distance_to_manifold(f, m)
        seen += 1
    assert seen >= 30
    assert kept_verdicts() == stored


def test_gallery_runs_twice_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        assert cli.main(["--format", "json", "gallery", "run", "all"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_importing_the_gallery_parses_no_case_file():
    # a fresh interpreter: the gallery, a polyhedron's classification and its
    # closed images read no case file; only evidence that is looked up is
    # read, and a polyhedron is FW, hence qFW, before the evidence rules
    script = textwrap.dedent(
        """
        from fwsets import gallery
        from fwsets.asymptotes import classify_qfw, image_closed_1d, projection_closed
        from fwsets.polyhedra import HPolyhedron

        h = HPolyhedron([[-1, 0]], [0])
        assert classify_qfw(h).label == "qFW"
        assert image_closed_1d(h, (1, 2))[0] is True
        assert projection_closed(h, [1, 2])[0] is True
        print(gallery._case.cache_info().currsize)
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "0"


def test_epigraph_membership_in_the_band(monkeypatch):
    # exp(-s) <= 1/(1 + s) decides (200, 80001/2) at once, without summing the
    # 120,008 Taylor terms of exp(-40000)
    start = time.monotonic()
    assert contains(epigraph_set(), (F(200), F(80001, 2))) is True
    assert time.monotonic() - start < 1
    band = {
        (F(3), 9 + F(1, 10**4)): False,
        (F(3), 9 + F(1, 10**3)): True,
        (F(1, 2), F(643, 625)): False,
        (F(1, 2), F(10289, 10000)): True,
        (F(7), 49 + F(1, 10**21)): True,
        (F(7), 49 + F(1, 10**22)): False,
        (F(10), 100 + F(1, 10**43)): True,
        (F(10), 100 + F(1, 10**44)): False,
    }
    for point, member in band.items():
        assert contains(epigraph_set(), point) is member, point
    # at t = 10 every pass sums 3 * 100 + 8 terms: an undecided point runs one
    lo, _ = numeric.exp_bounds(F(-100), 16)
    calls = count_calls(monkeypatch, "exp_series")
    assert contains(epigraph_set(), (F(10), 100 + lo)) is None
    assert len(calls) == 1


def test_epigraph_band_at_large_t_takes_short_sums():
    # exp(-s) <= 1/(1 + s + s^2/2) decides (200, 40000 + 1/80002) without
    # the 120,008 Taylor terms of exp(-40000)
    start = time.monotonic()
    assert contains(Epigraph1D(), (F(200), 40000 + F(1, 80002))) is True
    assert time.monotonic() - start < 1


def _enclosure_contains(t, y):
    """Membership in the epigraph of t^2 + exp(-t^2) by the exp_bounds
    enclosure alone, widening as the library does."""
    s = t * t
    for terms in sorted({max(k, 3 * int(s) + 8) for k in (16, 48, 120)}):
        lo, hi = numeric.exp_bounds(-s, terms)
        if y >= s + hi:
            return True
        if y < s + lo:
            return False
    return None


def test_epigraph_short_sums_match_the_enclosure():
    # a seeded grid at |t| <= 3 across the band s < y < s + 1/(1 + s):
    # the short sums answer only where the enclosure answers the same
    rng = random.Random(20261020)
    answers = {True: 0, False: 0}
    for _ in range(400):
        t = F(rng.randint(-300, 300), 100)
        s = t * t
        y = s + F(rng.randint(1, 999), 1000) / (1 + s)
        if rng.random() < 0.5:  # near the boundary, from either side
            lo, hi = numeric.exp_bounds(-s, 40)
            y = s + (lo + hi) / 2 + F(rng.randint(-50, 50), 10**6) * hi
        ref = _enclosure_contains(t, y)
        assert ref is not None
        assert contains(Epigraph1D(), (t, y)) is ref, (t, y)
        answers[ref] += 1
    assert min(answers.values()) >= 100, answers


@functools.cache
def _reference_exp(s, terms):
    # exp(s) for s >= 0 lies between the Fraction Taylor sum and the sum plus
    # its geometric tail bound
    n = max(terms, int(s) * 3 + 8)
    term = total = F(1)
    for k in range(1, n + 1):
        term *= s / k
        total += term
    return total, total + term * (s / (n + 1)) / (1 - s / (n + 2))


def _reference_epigraph_contains(t, y):
    # the Fraction ladder that the integer cross-multiplications replaced
    s = t * t
    if y <= s:
        return False
    if y >= s + 1:
        return True
    total = term = F(1)
    for j in range(1, 17):
        term = term * s / j
        total += term
        if j in (1, 2, 4, 8, 16) and (y - s) * total >= 1:
            return True
    for terms in sorted({max(k, 3 * int(s) + 8) for k in (16, 48, 120)}):
        lo, hi = _reference_exp(s, terms)
        if y >= s + 1 / lo:
            return True
        if y < s + 1 / hi:
            return False
    return None


def _reference_line_intersects(slope, icept):
    # the Fraction line test: refuted by x^2 or by 1 - x^2 below exp(-x^2),
    # else hit at a point x = t/2 by the 32-term bound on exp(-x^2)
    g = lambda x: x * x - slope * x - icept
    if -icept - slope * slope / 4 > 0:
        return False
    outside = [g(F(1)), g(F(-1))] + ([g(slope / 2)] if abs(slope) >= 2 else [])
    if 1 - abs(slope) - icept > 0 and min(outside) >= 0:
        return False
    for t in range(-12, 13):
        x = F(t, 2)
        lo, _ = _reference_exp(x * x, 32)
        if g(x) + 1 / lo <= 0:
            return True
    return None


def test_epigraph_decisions_on_ints_match_the_fraction_ladder():
    # 3,000 seeded points with |t| <= 8 on both sides of the boundary
    # t^2 + exp(-t^2), each also the point of a line through it: membership
    # and the line test answer what the Fraction ladder answers
    rng = random.Random(20261021)
    answers = {True: 0, False: 0}
    lines = {True: 0, False: 0, None: 0}
    for i in range(3000):
        t = F(rng.randint(-160, 160), 20)
        if i % 3 == 0:  # on the grid of the line test
            t = F(rng.randint(-16, 16), 2)
        s = t * t
        # exp(-s) to float accuracy, moved off it by a relative 10^-12 ... 10^-2
        shift = rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -2)
        y = s + F(math.exp(-float(s))) * F(1 + shift)
        if i % 5 == 0:  # anywhere in the band s < y < s + 1
            y = s + F(rng.randint(1, 10**6 - 1), 10**6)
        member = _reference_epigraph_contains(t, y)
        assert contains(Epigraph1D(), (t, y)) is member, (t, y)
        answers[member] += 1
        # a random slope, or one near the tangent's 2t (1 - exp(-t^2)), whose
        # line stays below the convex boundary when the point does
        slope = F(rng.randint(-40, 40), rng.randint(1, 8))
        if i % 2:
            slope = F(round(2 * float(t) * (1 - math.exp(-float(s))) * 64), 64)
        line = AffineManifold((t, y), [(1, slope)])
        hit = _reference_line_intersects(slope, y - slope * t)
        assert intersects_manifold(Epigraph1D(), line) is hit, (t, y, slope)
        lines[hit] += 1
    assert min(answers.values()) >= 1000, answers
    # the hit loop answers True or leaves None; False is the refutations'
    assert lines[True] >= 500 and lines[None] >= 500 and lines[False] >= 20, lines


def test_membership_in_a_segment_plus_a_second_order_cone():
    # [0, e1] plus the 45-degree cone about e3: a point reached from a vertex
    # is a member; one reached from neither vertex is undecided, since
    # membership of such a sum is only checked one way
    seg = MotzkinSet(PolytopeK([(0, 0, 0), (1, 0, 0)]), SecondOrderCone(3, (0, 0, 1), Fraction(1, 2)))
    assert contains(seg, (0, 0, 5)) is True
    assert contains(seg, (5, 0, 1)) is None
